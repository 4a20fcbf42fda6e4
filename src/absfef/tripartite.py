"""Two-party marginals of three-party states and their absolute-FEF status.

Covers the five-amplitude canonical form of pure three-qubit states, the
GHZ-W mixture, and a three-qutrit mixture family.  Every closed-form
marginal spectrum is cross-checkable against the generic partial trace, and
every verdict is :func:`~absfef.absolute.is_absolute_fef` on that marginal.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .absolute import is_absolute_fef
from .errors import DomainError
from .linalg import DensityMatrix, partial_trace, validate_density


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
        if any(v < 0 for v in x):
            raise DomainError("amplitudes must be nonnegative")
        norm = sum(v * v for v in x)
        if abs(norm - 1) > 1e-12:
            raise DomainError(f"amplitudes must satisfy sum x_i^2 = 1, got {norm!r}")
        if not 0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class MarginalReport:
    """A two-party marginal with its spectrum and absolute-FEF verdict."""

    dropped: int
    marginal: DensityMatrix
    eigenvalues: np.ndarray
    s_value: Optional[float]
    absolute: bool
    boundary: bool


def _marginal_report(rho3, dims, drop, eigenvalues, s_value=None):
    """Trace party ``drop`` (1-based) out of ``rho3``; the verdict is
    :func:`~absfef.absolute.is_absolute_fef` on the validated marginal."""
    d = dims[0]
    marginal = validate_density(partial_trace(rho3, dims, drop - 1), d, d)
    verdict = is_absolute_fef(marginal)
    return MarginalReport(dropped=drop, marginal=marginal, eigenvalues=eigenvalues,
                          s_value=s_value, absolute=verdict.absolute,
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


def acin_s_value(params: AcinParams, drop):
    """Closed-form discriminant S_k of the marginal spectrum {0,0,(1 +/- sqrt(S_k))/2}.

    S_1 here is the Gram-determinant form 1 - 4 x0^2 (x2^2 + x3^2 + x4^2),
    which agrees with the partial-trace spectrum everywhere.
    """
    x0, x1, x2, x3, x4 = params.x
    ct = math.cos(params.theta)
    if drop == 1:
        det = x0 * x0 * (x2 * x2 + x3 * x3 + x4 * x4)
    elif drop == 2:
        det = (x0 * x0 * x3 * x3 + x2 * x2 * x3 * x3
               - 2 * ct * x1 * x2 * x3 * x4
               + x0 * x0 * x4 * x4 + x1 * x1 * x4 * x4)
    elif drop == 3:
        det = (x0 * x0 * x2 * x2 + x2 * x2 * x3 * x3
               - 2 * ct * x1 * x2 * x3 * x4
               + x0 * x0 * x4 * x4 + x1 * x1 * x4 * x4)
    else:
        raise DomainError(f"drop must be 1, 2 or 3, got {drop}")
    return 1 - 4 * det


def acin_marginal(params: AcinParams, drop):
    """Marginal over two of the three qubits, with closed-form spectrum.

    Every such marginal has rank at most 2, so lambda_max >= 1/2 and
    membership in the absolute set is the boundary case S_k = 0.
    """
    s = acin_s_value(params, drop)
    ket = acin_state(params)
    root = math.sqrt(max(s, 0.0))
    eigs = np.array([0.5 * (1 + root), 0.5 * (1 - root), 0.0, 0.0])
    return _marginal_report(np.outer(ket, ket.conj()), [2, 2, 2], drop, eigs, s)


def ghzw_state(p):
    """Mixture p |GHZ><GHZ| + (1-p) |W><W| of three qubits."""
    p = float(p)
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    g = np.zeros(8, dtype=complex)
    g[0] = g[7] = 1 / math.sqrt(2)
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1 / math.sqrt(3)
    return p * np.outer(g, g.conj()) + (1 - p) * np.outer(w, w.conj())


def ghzw_marginal(p):
    """Two-qubit marginal of the GHZ-W mixture (identical for all drops).

    Spectrum {0, 2(1-p)/3, p/2, (2+p)/6}; absolute exactly for p >= 1/4.
    """
    p = float(p)
    eigs = np.sort(np.array([0.0, 2 * (1 - p) / 3, p / 2, (2 + p) / 6]))[::-1]
    return _marginal_report(ghzw_state(p), [2, 2, 2], 1, eigs)


def three_qutrit_state(alpha, beta):
    """Mixture of GHZ3, the fully antisymmetric-pattern pure state and white noise."""
    alpha, beta = float(alpha), float(beta)
    if alpha < -1e-12 or beta < -1e-12 or alpha + beta > 1 + 1e-12:
        raise DomainError(
            f"(alpha, beta) = ({alpha}, {beta}) outside the valid mixture triangle")
    g = np.zeros(27, dtype=complex)
    for i in range(3):
        g[i * 9 + i * 3 + i] = 1 / math.sqrt(3)
    psi = np.zeros(27, dtype=complex)
    for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        psi[i * 9 + j * 3 + k] = 1 / math.sqrt(6)
    m = (alpha * np.outer(g, g.conj()) + beta * np.outer(psi, psi.conj())
         + (1 - alpha - beta) / 27 * np.eye(27))
    return m


def three_qutrit_marginal(alpha, beta):
    """Two-qutrit marginal of the three-qutrit family.

    Eigenvalues {(1-a-b)/9, (1+2a-b)/9, (1-a+2b)/9}, each with multiplicity
    three; every valid (alpha, beta) gives an absolute marginal.
    """
    alpha, beta = float(alpha), float(beta)
    distinct = np.array([(1 - alpha - beta) / 9,
                         (1 + 2 * alpha - beta) / 9,
                         (1 - alpha + 2 * beta) / 9])
    eigs = np.sort(np.repeat(distinct, 3))[::-1]
    return _marginal_report(three_qutrit_state(alpha, beta), [3, 3, 3], 1, eigs)
