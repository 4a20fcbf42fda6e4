"""Constructors for the state families and fixture unitaries used throughout.

All constructors return validated :class:`~absfef.linalg.DensityMatrix`
instances (or plain unit-norm columns for pure states) and raise
:class:`~absfef.errors.DomainError` on out-of-domain parameters.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bases import PAULI
from .errors import DomainError
from .fef import canonical_ket, canonical_projector
from .linalg import DensityMatrix, kron, validate_density
from .tripartite import ghzw_marginal, ghzw_state

max_entangled = canonical_ket


def x1():
    """The two-qubit mixture 2/9 phi+ + 1/9 |01> + 1/9 |10> + 5/9 |00>."""
    m = (2 / 9) * canonical_projector(2)
    m[1, 1] += 1 / 9
    m[2, 2] += 1 / 9
    m[0, 0] += 5 / 9
    return validate_density(m, 2, 2)


def _mix_with_01(q, d):
    q = float(q)
    if not 0 < q <= 1:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    m = q * canonical_projector(d)
    m[1, 1] += 1 - q
    return validate_density(m, d, d)


def x2(q):
    """Rank-2 mixture q phi2+ + (1-q)|01><01|, q in (0, 1]."""
    return _mix_with_01(q, 2)


def y3(q):
    """Two-qutrit analogue of x2: q phi3+ + (1-q)|01><01|, q in (0, 1]."""
    return _mix_with_01(q, 3)


def isotropic(d, beta):
    """Isotropic state: beta |psi+><psi+| + (1-beta)/d^2 I."""
    d = int(d)
    p = canonical_projector(d)  # raises unless d >= 2
    beta = float(beta)
    lo = -1.0 / (d * d - 1)
    if not lo - 1e-12 <= beta <= 1 + 1e-12:
        raise DomainError(f"beta must lie in [{lo:.6g}, 1], got {beta}")
    m = beta * p + (1 - beta) / (d * d) * np.eye(d * d)
    return validate_density(m, d, d)


def comp_diag(weights):
    """Two-qubit state diagonal in the computational basis."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise DomainError(f"expected 4 diagonal weights, got {w.shape}")
    if np.any(w < -1e-12):
        raise DomainError("diagonal weights must be nonnegative")
    if abs(w.sum() - 1) > 1e-12:
        raise DomainError(f"diagonal weights must sum to 1, got {w.sum()!r}")
    return validate_density(np.diag(w).astype(complex), 2, 2)


def bell_diag(t11, t22, t33):
    """Two-qubit state with zero local vectors and diagonal correlations.

    rho = I/4 + t11 sx(x)sx + t22 sy(x)sy + t33 sz(x)sz, with the
    correlation normalization t_ii = Tr(rho s_i(x)s_i)/4.
    """
    t = (float(t11), float(t22), float(t33))
    # inf * the zeros of s_i(x)s_i would warn before validation could refuse it
    if not np.isfinite(t).all():
        raise DomainError(f"(t11, t22, t33) = ({t11}, {t22}, {t33}) must be finite")
    _, sx, sy, sz = PAULI
    m = (np.eye(4, dtype=complex) / 4
         + t[0] * kron(sx, sx)
         + t[1] * kron(sy, sy)
         + t[2] * kron(sz, sz))
    try:
        return validate_density(m, 2, 2)
    except Exception as exc:
        raise DomainError(f"(t11, t22, t33) = ({t11}, {t22}, {t33}) "
                          f"is not a valid state: {exc}") from exc


def ghz():
    """Three-qubit GHZ state (the p = 1 end of the GHZ-W mixture), split as 2 x 4."""
    return validate_density(ghzw_state(1), 2, 4)


def w():
    """Three-qubit W state (the p = 0 end of the GHZ-W mixture), split as 2 x 4."""
    return validate_density(ghzw_state(0), 2, 4)


def af_not_as_example():
    """The diag(0.5, 0.3, 0.2, 0) state: absolute-FEF but not absolutely separable."""
    return comp_diag([0.5, 0.3, 0.2, 0.0])


class Family(NamedTuple):
    """A state family: its builder, the builder's parameter names in call
    order, and the parameter that ``scan`` sweeps (None if it sweeps none)."""

    build: Callable
    params: tuple = ()
    sweep: Optional[str] = None


# The one table of named families; the CLI's --family help, its parameter
# handling and scan's choices all read it.  Insertion order is display order.
FAMILIES = {
    "x1": Family(x1),
    "x2": Family(x2, ("q",), "q"),
    "y3": Family(y3, ("q",), "q"),
    "isotropic": Family(isotropic, ("d", "beta"), "beta"),
    "comp_diag": Family(comp_diag, ("weights",)),
    "bell_diag": Family(bell_diag, ("t11", "t22", "t33")),
    "ghz": Family(ghz),
    "w": Family(w),
    "af_not_as_example": Family(af_not_as_example),
    "max_entangled": Family(lambda d: isotropic(d, 1), ("d",)),
    "ghzw": Family(lambda p: ghzw_marginal(p).marginal, ("p",), "p"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named state family together with its parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; "
                              f"expected one of {tuple(FAMILIES)}")


def construct(spec):
    """Build the density matrix of a :class:`FamilySpec`.

    Parameters the family does not take are ignored; a missing one raises
    ``KeyError`` naming it.
    """
    family = FAMILIES[spec.family]
    params = {"d": 2, **spec.params}  # the local dimension defaults to 2
    return family.build(*(params[name] for name in family.params))


_S2 = np.sqrt(2)

_U1 = np.array([
    [1 / _S2, 0, 0, -1 / _S2],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [1 / _S2, 0, 0, 1 / _S2],
], dtype=complex)

_U2 = 0.5 * np.array([
    [-1, _S2, 0, -1],
    [0, 0, 2, 0],
    [-_S2, 0, 0, _S2],
    [1, _S2, 0, 1],
], dtype=complex)

_U3 = 0.5 * np.array([
    [-1, _S2, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 2, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 2, 0],
    [-_S2, 0, 0, 0, 0, 0, 0, 0, _S2],
    [1, _S2, 0, 0, 0, 0, 0, 0, 1],
], dtype=complex)

_FIXTURE_UNITARIES = {"U1": _U1, "U2": _U2, "U3": _U3}


@dataclass(frozen=True)
class FixtureUnitary:
    """One of the three fixed global unitaries U1, U2, U3."""

    id: str
    matrix: np.ndarray


def fixture_unitary(uid):
    """Return the fixture unitary with the given id ("U1", "U2" or "U3")."""
    if uid not in _FIXTURE_UNITARIES:
        raise DomainError(f"unknown fixture unitary {uid!r}")
    m = _FIXTURE_UNITARIES[uid].copy()
    m.setflags(write=False)
    return FixtureUnitary(id=uid, matrix=m)


def conjugate(rho: DensityMatrix, u) -> DensityMatrix:
    """Apply a global unitary: U rho U^dag, keeping the bipartition."""
    u = np.asarray(u, dtype=complex)
    return validate_density(u @ rho.matrix @ u.conj().T, rho.dim_a, rho.dim_b)
