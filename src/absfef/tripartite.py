"""Two-party marginals of three-party states and their absolute-FEF status.

A pure three-party ket gives the marginal rho_AB the same nonzero spectrum
as the dropped party's rho_C, so AB is absolute exactly when
lambda_max(rho_C) <= 1/d.  For qubits lambda_max(rho_C) >= 1/2, so membership
is the boundary case rho_C = I/2.  In the five-amplitude canonical form
(Acin et al., PRL 85, 1560 (2000)) dropping qubit k leaves the spectrum
{(1 + sqrt(S_k))/2, (1 - sqrt(S_k))/2, 0, 0} with S_k = 1 - 4 det rho_k,
absolute exactly when S_k = 0.  The GHZ-W mixture has the same marginal for
every drop, with spectrum {0, 2(1-p)/3, p/2, (2+p)/6}: absolute exactly for
p >= 1/4.  The three-qutrit marginal has eigenvalues (1-a-b)/9, (1+2a-b)/9
and (1-a+2b)/9, each three times, so every valid (a, b) is absolute.

These formulas are test oracles and ``reproduce`` fixtures, not library
code: every report reads its spectrum and verdict off the validated
partial-trace marginal, through :func:`~absfef.absolute.is_absolute_fef`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .absolute import is_absolute_fef
from .errors import DomainError
from .fef import _projector
from .linalg import DensityMatrix, _as_int, partial_trace, validate_density


@dataclass(frozen=True)
class AcinParams:
    """Five nonnegative amplitudes (x0..x4) with a relative phase theta.

    The state is x0|000> + x1 e^{i theta}|100> + x2|101> + x3|110> + x4|111>
    with sum x_i^2 = 1 and theta in [0, pi].
    """

    x: tuple
    theta: float = 0.0

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", float(self.theta))
        if len(x) != 5:
            raise DomainError(f"expected 5 amplitudes, got {len(x)}")
        if not all(v >= 0 for v in x):  # NaN fails too
            raise DomainError(f"amplitudes must be nonnegative, got {x}")
        norm = sum(v * v for v in x)
        if not abs(norm - 1) <= 1e-12:
            raise DomainError(f"amplitudes must satisfy sum x_i^2 = 1, got {norm!r}")
        if not 0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")


class MarginalReport(NamedTuple):
    """A two-party marginal with its absolute-FEF verdict."""

    marginal: DensityMatrix
    absolute: bool
    boundary: bool

    @property
    def eigenvalues(self):
        """The marginal's validated spectrum, descending."""
        return self.marginal.spectrum.eigenvalues


def _marginal_report(rho3, dims, drop):
    """Trace party ``drop`` (1-based) out of ``rho3``; the verdict is
    :func:`~absfef.absolute.is_absolute_fef` on the validated marginal."""
    d = dims[0]
    marginal = validate_density(partial_trace(rho3, dims, drop - 1), d, d)
    verdict = is_absolute_fef(marginal)
    return MarginalReport(marginal=marginal, absolute=verdict.absolute,
                          boundary=verdict.boundary)


def acin_state(params: AcinParams):
    """The pure three-qubit canonical-form ket, length 8."""
    x0, x1, x2, x3, x4 = params.x
    ket = np.zeros(8, dtype=complex)
    ket[0] = x0
    ket[4] = x1 * complex(math.cos(params.theta), math.sin(params.theta))
    ket[5] = x2
    ket[6] = x3
    ket[7] = x4
    return ket


def acin_marginal(params: AcinParams, drop):
    """Marginal left when qubit ``drop`` (1, 2 or 3; no bool) is traced out
    of the canonical-form state; anything else raises :class:`DomainError`."""
    drop = _as_int(drop, "drop")
    if drop not in (1, 2, 3):
        raise DomainError(f"drop must be 1, 2 or 3, got {drop}")
    ket = acin_state(params)
    return _marginal_report(np.outer(ket, ket.conj()), [2, 2, 2], drop)


# the pure states of the two mixture families below, built once and
# read-only; _PERM3 is spread over the six |ijk> with i, j, k all different
_GHZ = _projector(8, (0, 7))
_W = _projector(8, (1, 2, 4))
_GHZ3 = _projector(27, (0, 13, 26))
_PERM3 = _projector(27, (5, 7, 11, 15, 19, 21))
for _proj in (_GHZ, _W, _GHZ3, _PERM3):
    _proj.setflags(write=False)


def ghzw_state(p):
    """Mixture p |GHZ><GHZ| + (1-p) |W><W| of three qubits."""
    p = float(p)
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    return p * _GHZ + (1 - p) * _W


def ghzw_marginal(p):
    """Two-qubit marginal of the GHZ-W mixture (identical for all drops)."""
    return _marginal_report(ghzw_state(p), [2, 2, 2], 1)


def three_qutrit_state(alpha, beta):
    """Mixture of GHZ3, the fully antisymmetric-pattern pure state and white noise."""
    alpha, beta = float(alpha), float(beta)
    if not (alpha >= -1e-12 and beta >= -1e-12
            and alpha + beta <= 1 + 1e-12):  # NaN fails too
        raise DomainError(
            f"(alpha, beta) = ({alpha}, {beta}) outside the valid mixture triangle")
    m = alpha * _GHZ3 + beta * _PERM3
    m.ravel()[:: 27 + 1] += (1 - alpha - beta) / 27  # white noise on the diagonal
    return m


def three_qutrit_marginal(alpha, beta):
    """Two-qutrit marginal of the three-qutrit family."""
    return _marginal_report(three_qutrit_state(alpha, beta), [3, 3, 3], 1)
