"""Dense complex linear algebra for small bipartite systems.

Everything here operates on plain ``numpy`` complex arrays.  Matrices are
kept in the row-major computational-basis ordering |00>, |01>, ..., which is
the ordering under which all fixture matrices in this package decode
correctly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DensityValidationError, MatrixShapeError

HERMITICITY_TOL = 1e-10


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a), np.asarray(b))


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(A^dag B).

    Conjugate-symmetric in its arguments and real whenever both operands
    are Hermitian.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise MatrixShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(np.conj(a) * b))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with aligned orthonormal eigenvectors.

    ``eigenvectors[:, k]`` is the eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda_max(self):
        return float(self.eigenvalues[0])


def eig_hermitian(h, tol=HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns a :class:`Spectrum` with eigenvalues sorted in descending order.
    Degenerate subspaces come back with an arbitrary orthonormal basis; no
    canonicalization is attempted.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {h.shape}")
    asym = float(np.max(np.abs(h - h.conj().T)))
    if asym > tol:
        raise DensityValidationError("hermiticity", asym,
                                     f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e}")
    vals, vecs = np.linalg.eigh(h)  # ascending
    return Spectrum(eigenvalues=vals[::-1], eigenvectors=vecs[:, ::-1])


def partial_trace(m, dims, drop):
    """Trace out one subsystem of a multipartite matrix.

    Parameters
    ----------
    m : array
        Square matrix of size prod(dims).
    dims : sequence of int
        Subsystem dimensions, in tensor order.
    drop : int
        Zero-based index of the subsystem to trace out.

    Returns
    -------
    numpy.ndarray
        The reduced matrix over the remaining subsystems, in the same
        tensor order.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise MatrixShapeError(
            f"matrix of shape {m.shape} does not match subsystem dims {dims}")
    if not 0 <= drop < len(dims):
        raise MatrixShapeError(f"drop index {drop} out of range for {len(dims)} subsystems")
    k = len(dims)
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=drop, axis2=k + drop)
    rest = int(np.prod([d for i, d in enumerate(dims) if i != drop]))
    return t.reshape(rest, rest)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated bipartite density matrix.

    Use :func:`validate_density` to construct one; the constructor itself
    performs no checks.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    @property
    def dim(self):
        return self.dim_a * self.dim_b

    @property
    def is_square_bipartition(self):
        return self.dim_a == self.dim_b

    @cached_property
    def spectrum(self):
        """Descending :class:`Spectrum` of ``matrix``, computed once (read-only)."""
        spec = eig_hermitian(self.matrix)
        spec.eigenvalues.setflags(write=False)
        spec.eigenvectors.setflags(write=False)
        return spec

    def purity(self):
        """Tr(rho^2)."""
        return float(np.real(np.sum(self.matrix * self.matrix.T)))


def validate_density(m, dim_a, dim_b, tol=None):
    """Check the density-matrix invariants and wrap the matrix.

    Raises :class:`DensityValidationError` naming the violated invariant and
    its magnitude when an entry is not finite, or when hermiticity, unit
    trace or positivity fails beyond ``tol``.  The state keeps the Hermitian
    part (M + M^dag)/2, and the positivity check computes its ``spectrum``.
    """
    m = np.asarray(m, dtype=complex)
    if tol is None:
        tol = HERMITICITY_TOL
    dim_a, dim_b = int(dim_a), int(dim_b)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise MatrixShapeError(
            f"matrix of shape {m.shape} does not match dims {dim_a}x{dim_b}")
    # NaN compares false against every tolerance below, so check it first.
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        raise DensityValidationError("finiteness", float(bad),
                                     f"{bad} matrix entries are not finite")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > tol:
        raise DensityValidationError("hermiticity", asym)
    trace_err = abs(complex(np.trace(m)) - 1.0)
    if trace_err > tol:
        raise DensityValidationError("trace", trace_err)
    h = 0.5 * (m + m.conj().T)
    h.setflags(write=False)
    rho = DensityMatrix(matrix=h, dim_a=dim_a, dim_b=dim_b)
    lam_min = float(rho.spectrum.eigenvalues[-1])
    if lam_min < -tol:
        raise DensityValidationError("positivity", -lam_min)
    return rho
