"""Two-qubit Bloch parameters: local Bloch vectors and the correlation matrix.

Conventions: rho = I/4 + (1/2) sum a_i s_i (x) I + (1/2) sum b_j I (x) s_j
+ sum t_ij s_i (x) s_j, with a_i = Tr(rho s_i (x) I)/2 and
t_ij = Tr(rho s_i (x) s_j)/4.
"""

from typing import NamedTuple

import numpy as np

from .bases import operator_basis
from .errors import DomainError
from .linalg import DensityMatrix

_PAULI = operator_basis("pauli")


class BlochParams(NamedTuple):
    """Local Bloch vectors and the correlation matrix of a two-qubit state."""

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray


def bloch_extract(rho: DensityMatrix):
    """Extract (a, b, T) from a two-qubit state."""
    if rho.d != 2:
        raise DomainError(
            f"Bloch extraction needs a 2x2 bipartition, got {rho.d}x{rho.d}")
    # the Pauli expansion c[i, j] = Tr(rho s_i (x) s_j) / 4, with s_0 = I;
    # rho is Hermitian by validation, so it is not checked again
    c = _PAULI.expand(rho.matrix)
    return BlochParams(a=2 * c[1:, 0], b=2 * c[0, 1:], t=c[1:, 1:])

