"""Dense complex linear algebra for small bipartite systems.

Everything here operates on plain ``numpy`` complex arrays.  Matrices are
kept in the row-major computational-basis ordering |00>, |01>, ..., which is
the ordering under which all fixture matrices in this package decode
correctly.
"""

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DensityValidationError, DomainError, MatrixShapeError

HERMITICITY_TOL = 1e-10
_UNITARY_TOL = 1e-10


def _as_int(value, name):
    """``value`` as a Python ``int``, numpy integers included; raise
    :class:`DomainError` naming ``name`` for anything else.  A bool is
    refused too: ``operator.index`` reads True as 1, though ``np.True_`` is
    no integer to it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def as_dim(value):
    """A dimension argument as a Python ``int``; 2.5 raises
    :class:`DomainError` rather than truncating to 2."""
    return _as_int(value, "dimension")


def _local_dim(d):
    """Return the integer ``d``; raise :class:`DomainError` unless it is >= 2."""
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    return d


def _require_unitary(u, n):
    """``u`` as a complex array; raise :class:`MatrixShapeError` unless it is
    n x n and :class:`DomainError` unless max |U^dag U - I| <= 1e-10 (a NaN
    or inf entry fails too)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (n, n):
        raise MatrixShapeError(f"unitary of shape {u.shape} does not match "
                               f"dimension {n}")
    with np.errstate(invalid="ignore", over="ignore"):
        g = u.conj().T @ u
        g.ravel()[:: n + 1] -= 1  # ravel() is a view: g is fresh, C-ordered
        dev = float(np.abs(g).max())
    if not dev <= _UNITARY_TOL:  # NaN fails too
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {dev:.3e}")
    return u


class Spectrum(NamedTuple):
    """Eigenvalues in descending order with aligned orthonormal eigenvectors.

    ``eigenvectors[:, k]`` is the eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda_max(self):
        return float(self.eigenvalues[0])


def _check_finite(m):
    """Raise :class:`DensityValidationError` if an entry of ``m`` is NaN or inf.

    NaN compares false against every tolerance, so callers check this first.
    """
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        raise DensityValidationError("finiteness", float(bad),
                                     f"{bad} matrix entries are not finite")


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix.

    Raises :class:`MatrixShapeError` unless H is a non-empty square matrix,
    :class:`DensityValidationError` when an entry is not finite or
    max |H - H^dag| exceeds ``HERMITICITY_TOL`` (an overflowing H - H^dag
    included), and :class:`DomainError` when an eigenvalue of a finite
    Hermitian H overflows.  Returns a :class:`Spectrum` with eigenvalues
    sorted in descending order.  Degenerate subspaces come back with an
    arbitrary orthonormal basis; no canonicalization is attempted.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {h.shape}")
    if not h.size:
        raise MatrixShapeError("expected a non-empty matrix, got shape (0, 0)")
    _check_finite(h)
    with np.errstate(over="ignore"):  # an overflow reads inf and fails below
        asym = float(np.abs(h - h.conj().T).max())
    if asym > HERMITICITY_TOL:
        raise DensityValidationError("hermiticity", asym,
                                     f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e}")
    spec = _eigh_descending(h)
    if not np.isfinite(spec.eigenvalues).all():
        raise DomainError("eigenvalues overflow: the matrix's entries are too "
                          "large to decompose")
    return spec


def _eigh_descending(h):
    """:func:`eig_hermitian` without its checks, for a matrix known to be Hermitian."""
    vals, vecs = np.linalg.eigh(h)  # ascending
    return Spectrum(eigenvalues=vals[::-1], eigenvectors=vecs[:, ::-1])


def partial_trace(m, dims, drop):
    """Trace out one subsystem of a multipartite matrix.

    Parameters
    ----------
    m : array
        Square matrix of size prod(dims).
    dims : sequence of int
        Subsystem dimensions, in tensor order; one below 1 raises
        :class:`DomainError`.
    drop : int
        Zero-based index of the subsystem to trace out; a non-integer
        raises :class:`DomainError`.

    Returns
    -------
    numpy.ndarray
        The reduced matrix over the remaining subsystems, in the same
        tensor order.
    """
    m = np.asarray(m, dtype=complex)
    dims = [as_dim(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DomainError(f"subsystem dims must be >= 1, got {dims}")
    n = math.prod(dims)
    if m.shape != (n, n):
        raise MatrixShapeError(
            f"matrix of shape {m.shape} does not match subsystem dims {dims}")
    drop = _as_int(drop, "drop index")
    if not 0 <= drop < len(dims):
        raise MatrixShapeError(f"drop index {drop} out of range for {len(dims)} subsystems")
    k = len(dims)
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=drop, axis2=k + drop)
    rest = math.prod(d for i, d in enumerate(dims) if i != drop)
    return t.reshape(rest, rest)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d (x) d density matrix and its spectrum.

    Use :func:`validate_density` to construct one; the constructor itself
    performs no checks.
    """

    matrix: np.ndarray
    d: int
    #: Descending, read-only :class:`Spectrum` of ``matrix``, the one that
    #: validation computed for its positivity check.
    spectrum: Spectrum

    def purity(self):
        """Tr(rho^2)."""
        return float(np.real(np.sum(self.matrix * self.matrix.T)))


def validate_density(m, d_a, d_b):
    """Check the density-matrix invariants and wrap the matrix.

    Raises :class:`DomainError` unless both dims are integers of at least
    2, :class:`MatrixShapeError` unless they are equal and match the matrix, and
    :class:`DensityValidationError` naming the violated invariant and
    its magnitude when an entry is not finite, or when hermiticity, unit
    trace or positivity fails beyond ``HERMITICITY_TOL``.  A finite entry of
    modulus above 1 + (d^2 + 1) ``HERMITICITY_TOL`` fails positivity before
    any sum is formed.  The state keeps the Hermitian part (M + M^dag)/2
    and, as its ``spectrum``, the eigendecomposition that the positivity
    check computes.
    """
    m = np.asarray(m, dtype=complex)
    d, d_b = as_dim(d_a), as_dim(d_b)
    if d != d_b:
        raise MatrixShapeError(f"expected a d x d bipartition, got {d}x{d_b}")
    _local_dim(d)
    if m.shape != (d * d, d * d):
        raise MatrixShapeError(
            f"matrix of shape {m.shape} does not match dims {d}x{d}")
    # a PSD unit-trace matrix has |m_ij| <= lambda_max <= 1; refusing larger
    # entries first keeps the sums below from overflowing.  The later checks
    # let lambda_max reach 1 + d^2 tol and M differ from its Hermitian part
    # by tol / 2, so this bound refuses nothing that they would accept.
    big = float(np.abs(m).max())  # the method skips np.max's Python layer
    if not big <= 1 + (d * d + 1) * HERMITICITY_TOL:  # NaN and inf fail too
        _check_finite(m)
        raise DensityValidationError(
            "positivity", big, f"entry of modulus {big:.12g} exceeds 1, the "
            f"bound on every entry of a density matrix")
    mh = m.conj().T
    asym = float(np.abs(m - mh).max())
    if asym > HERMITICITY_TOL:
        raise DensityValidationError("hermiticity", asym)
    trace_err = abs(complex(m.trace()) - 1.0)
    if trace_err > HERMITICITY_TOL:
        raise DensityValidationError("trace", trace_err)
    h = 0.5 * (m + mh)
    h.setflags(write=False)
    spec = _eigh_descending(h)
    lam_min = float(spec.eigenvalues[-1])
    if lam_min < -HERMITICITY_TOL:
        raise DensityValidationError("positivity", -lam_min)
    spec.eigenvalues.setflags(write=False)
    spec.eigenvectors.setflags(write=False)
    return DensityMatrix(matrix=h, d=d, spectrum=spec)
