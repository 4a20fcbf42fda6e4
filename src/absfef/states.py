"""Constructors for the state families and fixture unitaries used throughout.

All constructors return validated :class:`~absfef.linalg.DensityMatrix`
instances (or plain unit-norm columns for pure states) and raise
:class:`~absfef.errors.DomainError` on out-of-domain parameters.
"""

from dataclasses import dataclass, field

import numpy as np

from .bases import PAULI
from .errors import DomainError
from .fef import canonical_ket
from .linalg import DensityMatrix, kron, validate_density

FAMILIES = ("x1", "x2", "y3", "isotropic", "comp_diag", "bell_diag",
            "ghz", "w", "af_not_as_example", "max_entangled")

_UNITARITY_TOL = 1e-12


def max_entangled(d):
    """The canonical maximally entangled ket (1/sqrt(d)) sum_i |ii>."""
    d = int(d)
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    return canonical_ket(d)


def _projector(ket):
    return np.outer(ket, ket.conj())


def x1():
    """The two-qubit mixture 2/9 phi+ + 1/9 |01> + 1/9 |10> + 5/9 |00>."""
    phi = max_entangled(2)
    m = (2 / 9) * _projector(phi)
    m[1, 1] += 1 / 9
    m[2, 2] += 1 / 9
    m[0, 0] += 5 / 9
    return validate_density(m, 2, 2)


def x2(q):
    """Rank-2 mixture q phi2+ + (1-q)|01><01|, q in (0, 1]."""
    q = float(q)
    if not 0 < q <= 1:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    m = q * _projector(max_entangled(2))
    m[1, 1] += 1 - q
    return validate_density(m, 2, 2)


def y3(q):
    """Two-qutrit analogue of x2: q phi3+ + (1-q)|01><01|, q in (0, 1]."""
    q = float(q)
    if not 0 < q <= 1:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    m = q * _projector(max_entangled(3))
    m[1, 1] += 1 - q
    return validate_density(m, 3, 3)


def isotropic(d, beta):
    """Isotropic state: beta |psi+><psi+| + (1-beta)/d^2 I."""
    d = int(d)
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    beta = float(beta)
    lo = -1.0 / (d * d - 1)
    if not lo - 1e-12 <= beta <= 1 + 1e-12:
        raise DomainError(f"beta must lie in [{lo:.6g}, 1], got {beta}")
    m = beta * _projector(max_entangled(d)) + (1 - beta) / (d * d) * np.eye(d * d)
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
    _, sx, sy, sz = PAULI
    m = (np.eye(4, dtype=complex) / 4
         + float(t11) * kron(sx, sx)
         + float(t22) * kron(sy, sy)
         + float(t33) * kron(sz, sz))
    try:
        return validate_density(m, 2, 2)
    except Exception as exc:
        raise DomainError(f"(t11, t22, t33) = ({t11}, {t22}, {t33}) "
                          f"is not a valid state: {exc}") from exc


def ghz():
    """Three-qubit GHZ state as a density matrix, split as 2 x 4."""
    ket = np.zeros(8, dtype=complex)
    ket[0] = ket[7] = 1 / np.sqrt(2)
    return validate_density(_projector(ket), 2, 4)


def w():
    """Three-qubit W state as a density matrix, split as 2 x 4."""
    ket = np.zeros(8, dtype=complex)
    ket[1] = ket[2] = ket[4] = 1 / np.sqrt(3)
    return validate_density(_projector(ket), 2, 4)


def af_not_as_example():
    """The diag(0.5, 0.3, 0.2, 0) state: absolute-FEF but not absolutely separable."""
    return comp_diag([0.5, 0.3, 0.2, 0.0])


@dataclass(frozen=True)
class FamilySpec:
    """A named state family together with its parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; "
                              f"expected one of {FAMILIES}")


def construct(spec):
    """Build the density matrix of a :class:`FamilySpec`."""
    f, p = spec.family, spec.params
    if f == "x1":
        return x1()
    if f == "x2":
        return x2(p["q"])
    if f == "y3":
        return y3(p["q"])
    if f == "isotropic":
        return isotropic(p.get("d", 2), p["beta"])
    if f == "comp_diag":
        return comp_diag(p["weights"])
    if f == "bell_diag":
        return bell_diag(p["t11"], p["t22"], p["t33"])
    if f == "ghz":
        return ghz()
    if f == "w":
        return w()
    if f == "af_not_as_example":
        return af_not_as_example()
    if f == "max_entangled":
        d = int(p.get("d", 2))
        return validate_density(_projector(max_entangled(d)), d, d)
    raise DomainError(f"unknown family {f!r}")


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
    m = _FIXTURE_UNITARIES[uid]
    dev = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    if dev > _UNITARITY_TOL:
        raise DomainError(f"fixture {uid} failed unitarity check: {dev:.3e}")
    m = m.copy()
    m.setflags(write=False)
    return FixtureUnitary(id=uid, matrix=m)


def conjugate(rho: DensityMatrix, u) -> DensityMatrix:
    """Apply a global unitary: U rho U^dag, keeping the bipartition."""
    u = np.asarray(u, dtype=complex)
    return validate_density(u @ rho.matrix @ u.conj().T, rho.dim_a, rho.dim_b)
