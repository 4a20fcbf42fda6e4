"""Teleportation witnesses, unitary pullbacks and local-observable decompositions.

The canonical base witness in d (x) d is W = I/d - |psi+><psi+|.  For a
state rho whose FEF can be activated by a global unitary U, the pullback
S = U^dag W U satisfies Tr(S rho) = Tr(W U rho U^dag) and stays nonnegative
on every absolute-FEF state.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .bases import operator_basis
from .errors import DomainError, MatrixShapeError
from .fef import canonical_projector
from .linalg import DensityMatrix, _require_unitary, as_dim

_HERM_TOL = 1e-12


class WitnessOperator(NamedTuple):
    """A Hermitian witness operator."""

    matrix: np.ndarray


def teleportation_witness(d):
    """The canonical witness W = I/d - |psi+><psi+|.

    Tr(W sigma) >= 0 for every sigma with FEF <= 1/d, and W detects states
    aligned with |psi+> beyond the threshold.  W is built once per d and
    kept, read-only, for the 8 most recently used d.
    """
    return _teleportation_witness(as_dim(d))


@functools.lru_cache(maxsize=8)
def _teleportation_witness(d):
    w = np.eye(d * d, dtype=complex) / d - canonical_projector(d)
    w.setflags(write=False)
    return WitnessOperator(matrix=w)


def pullback(w: WitnessOperator, u):
    """Conjugate a witness by a global unitary: S = U^dag W U.

    A ``u`` with a NaN or inf entry, or one that is not unitary, raises
    :class:`DomainError`.
    """
    u = _require_unitary(u, w.matrix.shape[0])
    return WitnessOperator(matrix=u.conj().T @ w.matrix @ u)


def evaluate(s: WitnessOperator, rho: DensityMatrix):
    """Expectation Tr(S rho); real for Hermitian S.

    An expectation that is not finite, or not real within 1e-10, raises
    :class:`DomainError`.
    """
    if s.matrix.shape != rho.matrix.shape:
        raise MatrixShapeError(f"witness shape {s.matrix.shape} does not match "
                               f"state shape {rho.matrix.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        val = complex((s.matrix * rho.matrix.T).sum())
    if not (math.isfinite(val.real) and abs(val.imag) <= 1e-10):  # NaN fails
        raise DomainError(f"expectation {val} is not a finite real number")
    return float(val.real)


class BasisDecomposition(NamedTuple):
    """Coefficients of H = sum_ij c_ij B_i (x) B_j over a product basis."""

    basis_kind: str
    coefficients: np.ndarray
    labels: tuple


def decompose(h, basis_kind):
    """Expand a Hermitian two-party operator over a product operator basis.

    The coefficients are the real, normalized Hilbert-Schmidt overlaps
    Tr((B_i (x) B_j)^dag H) / (Tr(B_i^dag B_i) Tr(B_j^dag B_j)), so H is
    sum_ij c_ij B_i (x) B_j to 1e-10; they are one product with the basis's
    cached expansion matrix (see :mod:`absfef.bases`).  An operator with a
    NaN or inf entry, one that is not Hermitian, or one so large that a
    coefficient overflows raises :class:`DomainError`.
    """
    h = np.asarray(h, dtype=complex)
    basis = operator_basis(basis_kind)
    n = basis.single_dim
    if h.shape != (n * n, n * n):
        raise MatrixShapeError(
            f"operator of shape {h.shape} does not match the {basis_kind} "
            f"basis dimension {n * n}")
    # huge entries overflow both the check and the product; each then fails
    # its own test below, with no numpy warning
    with np.errstate(invalid="ignore", over="ignore"):
        asym = float(np.abs(h - h.conj().T).max())
        if not asym <= _HERM_TOL:  # NaN fails too
            raise DomainError(f"operator must be finite and Hermitian: "
                              f"max |H - H^dag| = {asym:.3e}")
        coeffs = basis.expand(h)
    if not np.isfinite(coeffs).all():
        raise DomainError(f"{basis_kind} coefficients overflow: the operator's "
                          f"entries are too large to decompose")
    return BasisDecomposition(basis_kind=basis_kind, coefficients=coeffs,
                              labels=basis.labels)
