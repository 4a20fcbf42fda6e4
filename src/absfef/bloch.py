"""Two-qubit Bloch parameters and the Class-I / Class-II membership criteria.

Conventions: rho = I/4 + (1/2) sum a_i s_i (x) I + (1/2) sum b_j I (x) s_j
+ sum t_ij s_i (x) s_j, with a_i = Tr(rho s_i (x) I)/2 and
t_ij = Tr(rho s_i (x) s_j)/4.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import operator_basis
from .errors import DomainError
from .linalg import DensityMatrix

_MEMBER_TOL = 1e-12
_SIGMA = operator_basis("pauli").stacked


@dataclass(frozen=True)
class BlochParams:
    """Local Bloch vectors and the correlation matrix of a two-qubit state."""

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray

    def reconstruct(self):
        """rho = (1/4) sum_ij c_ij s_i (x) s_j, the inverse of bloch_extract."""
        c = np.block([[np.ones((1, 1)), 2 * self.b[None, :]],
                      [2 * self.a[:, None], 4 * self.t]])
        return np.einsum("ac,aik,cjl->ijkl", c, _SIGMA, _SIGMA).reshape(4, 4) / 4


def bloch_extract(rho: DensityMatrix):
    """Extract (a, b, T) from a two-qubit state."""
    if rho.d != 2:
        raise DomainError(
            f"Bloch extraction needs a 2x2 bipartition, got {rho.d}x{rho.d}")
    # c[i, j] = Tr(rho s_i (x) s_j), with s_0 = I
    c = np.einsum("ijkl,aki,clj->ac", rho.matrix.reshape(2, 2, 2, 2),
                  _SIGMA, _SIGMA).real
    a, b, t = c[1:, 0] / 2, c[0, 1:] / 2, c[1:, 1:] / 4
    return BlochParams(a=a, b=b, t=t)


class ClassIResult(NamedTuple):
    member: bool
    eigenvalues: tuple


def classI_membership(t11, t22, t33):
    """Absolute-FEF membership for states with zero Bloch vectors and
    diagonal correlations.

    Eigenvalues are (1 -/+ 4(sums of t_ii))/4; membership holds iff the
    largest combination of the correlations stays at or below 1/4.
    """
    t11, t22, t33 = float(t11), float(t22), float(t33)
    if not all(map(math.isfinite, (t11, t22, t33))):
        raise DomainError(f"correlations must be finite, got "
                          f"({t11}, {t22}, {t33})")
    eigs = (
        0.25 * (1 - 4 * (t11 + t22 + t33)),
        0.25 * (1 + 4 * (t11 + t22 - t33)),
        0.25 * (1 + 4 * (t11 - t22 + t33)),
        0.25 * (1 + 4 * (t22 + t33 - t11)),
    )
    if min(eigs) < -1e-12:
        raise DomainError(
            f"(t11, t22, t33) = ({t11}, {t22}, {t33}) is not a valid state: "
            f"smallest eigenvalue {min(eigs):.3e}")
    combos = (-(t11 + t22 + t33), t11 + t22 - t33,
              t11 - t22 + t33, -t11 + t22 + t33)
    return ClassIResult(member=max(combos) <= 0.25 + _MEMBER_TOL,
                        eigenvalues=eigs)


def classII_membership(a, b, c, d):
    """Absolute-FEF membership for computational-basis-diagonal states.

    With a3 = (a+b-c-d)/2, b3 = (a+c-b-d)/2, t33 = (a-b-c+d)/4, membership
    requires |a3+b3| + 2 t33 <= 1/2 and |a3-b3| - 2 t33 <= 1/2, which is
    equivalent to max(a, b, c, d) <= 1/2.  Weights need not be ordered.
    """
    w = np.array([a, b, c, d], dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError(f"weights must be finite, got {w.tolist()}")
    if np.any(w < -1e-12):
        raise DomainError("weights must be nonnegative")
    if abs(w.sum() - 1) > 1e-12:
        raise DomainError(f"weights must sum to 1, got {w.sum()!r}")
    a, b, c, d = w
    a3 = (a + b - c - d) / 2
    b3 = (a + c - b - d) / 2
    t33 = (a - b - c + d) / 4
    return bool(abs(a3 + b3) + 2 * t33 <= 0.5 + _MEMBER_TOL
                and abs(a3 - b3) - 2 * t33 <= 0.5 + _MEMBER_TOL)
