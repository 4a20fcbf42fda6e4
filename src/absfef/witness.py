"""Teleportation witnesses, unitary pullbacks and local-observable decompositions.

The canonical base witness in d (x) d is W = I/d - |psi+><psi+|.  For a
state rho whose FEF can be activated by a global unitary U, the pullback
S = U^dag W U satisfies Tr(S rho) = Tr(W U rho U^dag) and stays nonnegative
on every absolute-FEF state.
"""

import functools
import math
from dataclasses import dataclass
import numpy as np

from .bases import operator_basis
from .errors import DomainError, MatrixShapeError
from .fef import canonical_projector
from .linalg import DensityMatrix, as_dim

_HERM_TOL = 1e-12
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class WitnessOperator:
    """A Hermitian witness operator."""

    matrix: np.ndarray


def teleportation_witness(d):
    """The canonical witness W = I/d - |psi+><psi+|.

    Tr(W sigma) >= 0 for every sigma with FEF <= 1/d, and W detects states
    aligned with |psi+> beyond the threshold.
    """
    d = as_dim(d)
    w = np.eye(d * d, dtype=complex) / d - canonical_projector(d)
    return WitnessOperator(matrix=w)


def pullback(w: WitnessOperator, u):
    """Conjugate a witness by a global unitary: S = U^dag W U.

    A ``u`` with a NaN or inf entry, or one that is not unitary, raises
    :class:`DomainError`.
    """
    u = np.asarray(u, dtype=complex)
    n = w.matrix.shape[0]
    if u.shape != (n, n):
        raise MatrixShapeError(f"unitary of shape {u.shape} does not match "
                               f"witness dimension {n}")
    with np.errstate(invalid="ignore", over="ignore"):
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if not dev <= _UNITARY_TOL:  # NaN fails too
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {dev:.3e}")
    s = u.conj().T @ w.matrix @ u
    return WitnessOperator(matrix=s)


def evaluate(s: WitnessOperator, rho: DensityMatrix):
    """Expectation Tr(S rho); real for Hermitian S.

    An expectation that is not finite, or not real within 1e-10, raises
    :class:`DomainError`.
    """
    if s.matrix.shape != rho.matrix.shape:
        raise MatrixShapeError(f"witness shape {s.matrix.shape} does not match "
                               f"state shape {rho.matrix.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        val = complex(np.sum(s.matrix * rho.matrix.T))
    if not (math.isfinite(val.real) and abs(val.imag) <= 1e-10):  # NaN fails
        raise DomainError(f"expectation {val} is not a finite real number")
    return float(val.real)


@dataclass(frozen=True)
class BasisDecomposition:
    """Coefficients of H = sum_ij c_ij B_i (x) B_j over a product basis."""

    basis_kind: str
    coefficients: np.ndarray
    labels: tuple

    def reconstruct(self):
        """H = sum_ab c_ab B_a (x) B_b, the inverse of :func:`decompose`."""
        b = operator_basis(self.basis_kind).stacked
        n = b.shape[1]
        h = np.einsum("ab,aik,bjl->ijkl", self.coefficients, b, b)
        return h.reshape(n * n, n * n)


@functools.cache
def _conj_products(kind):
    """conj(B_i (x) B_j) over one basis kind, shape (k, k, n^2, n^2).

    Built once per process and read-only.
    """
    b = operator_basis(kind).stacked
    p = np.array([[np.conj(np.kron(bi, bj)) for bj in b] for bi in b])
    p.setflags(write=False)
    return p


@functools.cache
def _norm_products(kind):
    """The (k, k) matrix of norm products Tr(B_i^dag B_i) Tr(B_j^dag B_j).

    Built once per process and read-only.
    """
    norms = operator_basis(kind).norms
    p = np.outer(norms, norms)
    p.setflags(write=False)
    return p


def decompose(h, basis_kind):
    """Expand a Hermitian two-party operator over a product operator basis.

    The coefficients are the real, normalized Hilbert-Schmidt overlaps
    Tr((B_i (x) B_j)^dag H) / (Tr(B_i^dag B_i) Tr(B_j^dag B_j)), so
    reconstruction is exact to 1e-10.  An operator with a NaN or inf entry,
    one that is not Hermitian, or one so large that a coefficient overflows
    raises :class:`DomainError`.
    """
    h = np.asarray(h, dtype=complex)
    basis = operator_basis(basis_kind)
    n = basis.single_dim
    if h.shape != (n * n, n * n):
        raise MatrixShapeError(
            f"operator of shape {h.shape} does not match the {basis_kind} "
            f"basis dimension {n * n}")
    with np.errstate(invalid="ignore"):
        asym = float(np.max(np.abs(h - h.conj().T)))
    if not asym <= _HERM_TOL:  # NaN fails too
        raise DomainError(f"operator must be finite and Hermitian: "
                          f"max |H - H^dag| = {asym:.3e}")
    # the product takes the stack's C order whatever the layout of h, so
    # each (i, j) reduces one contiguous run of n^4 entries with the same
    # pairwise summation as np.sum of that single n^2 x n^2 product
    with np.errstate(over="ignore", invalid="ignore"):
        overlaps = (_conj_products(basis_kind) * h).sum(axis=(2, 3))
    coeffs = overlaps.real / _norm_products(basis_kind)
    if not np.isfinite(coeffs).all():
        raise DomainError(f"{basis_kind} coefficients overflow: the operator's "
                          f"entries are too large to decompose")
    return BasisDecomposition(basis_kind=basis_kind, coefficients=coeffs,
                              labels=basis.labels)
