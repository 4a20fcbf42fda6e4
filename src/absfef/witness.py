"""Teleportation witnesses, unitary pullbacks and local-observable decompositions.

The canonical base witness in d (x) d is W = I/d - |psi+><psi+|.  For a
state rho whose FEF can be activated by a global unitary U, the pullback
S = U^dag W U satisfies Tr(S rho) = Tr(W U rho U^dag) and stays nonnegative
on every absolute-FEF state.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bases import operator_basis
from .errors import DomainError, MatrixShapeError
from .fef import canonical_projector
from .linalg import DensityMatrix, kron

_HERM_TOL = 1e-12
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class WitnessOperator:
    """A Hermitian witness with its construction provenance."""

    matrix: np.ndarray
    base_dim: int
    pullback_unitary: Optional[np.ndarray] = None


def teleportation_witness(d):
    """The canonical witness W = I/d - |psi+><psi+|.

    Tr(W sigma) >= 0 for every sigma with FEF <= 1/d, and W detects states
    aligned with |psi+> beyond the threshold.
    """
    d = int(d)
    w = np.eye(d * d, dtype=complex) / d - canonical_projector(d)
    return WitnessOperator(matrix=w, base_dim=d)


def pullback(w: WitnessOperator, u):
    """Conjugate a witness by a global unitary: S = U^dag W U."""
    u = np.asarray(u, dtype=complex)
    n = w.matrix.shape[0]
    if u.shape != (n, n):
        raise MatrixShapeError(f"unitary of shape {u.shape} does not match "
                               f"witness dimension {n}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if dev > _UNITARY_TOL:
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {dev:.3e}")
    s = u.conj().T @ w.matrix @ u
    return WitnessOperator(matrix=s, base_dim=w.base_dim, pullback_unitary=u)


def evaluate(s: WitnessOperator, rho: DensityMatrix):
    """Expectation Tr(S rho); real for Hermitian S."""
    if s.matrix.shape != rho.matrix.shape:
        raise MatrixShapeError(f"witness shape {s.matrix.shape} does not match "
                               f"state shape {rho.matrix.shape}")
    val = complex(np.sum(s.matrix * rho.matrix.T))
    if abs(val.imag) > 1e-10:
        raise DomainError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


@dataclass(frozen=True)
class BasisDecomposition:
    """Coefficients of H = sum_ij c_ij B_i (x) B_j over a product basis."""

    basis_kind: str
    coefficients: np.ndarray
    labels: tuple

    def reconstruct(self):
        """H = sum_ab c_ab B_a (x) B_b, the inverse of :func:`decompose`."""
        b = np.array(operator_basis(self.basis_kind).elements)
        n = b.shape[1]
        h = np.einsum("ab,aik,bjl->ijkl", self.coefficients, b, b)
        return h.reshape(n * n, n * n)


def decompose(h, basis_kind):
    """Expand a Hermitian two-party operator over a product operator basis.

    For the orthogonal kinds (pauli, gellmann) the coefficients are the
    normalized Hilbert-Schmidt overlaps; for the overcomplete polarization
    set they are the minimum-norm least-squares solution.  Coefficients are
    real; reconstruction is exact to 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    basis = operator_basis(basis_kind)
    n = basis.single_dim
    if h.shape != (n * n, n * n):
        raise MatrixShapeError(
            f"operator of shape {h.shape} does not match the {basis_kind} "
            f"basis dimension {n * n}")
    if float(np.max(np.abs(h - h.conj().T))) > _HERM_TOL:
        raise DomainError("operator must be Hermitian")
    k = len(basis.elements)
    if basis_kind == "polarization":
        cols = np.column_stack([
            kron(basis.elements[i], basis.elements[j]).ravel()
            for i in range(k) for j in range(k)])
        # real coefficients: solve the realified system for the min-norm solution
        a = np.vstack([cols.real, cols.imag])
        b = np.concatenate([h.ravel().real, h.ravel().imag])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        coeffs = coef.reshape(k, k)
    else:
        coeffs = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                bij = kron(basis.elements[i], basis.elements[j])
                val = complex(np.sum(np.conj(bij) * h))
                coeffs[i, j] = val.real / (basis.norms[i] * basis.norms[j])
    return BasisDecomposition(basis_kind=basis_kind, coefficients=coeffs,
                              labels=basis.labels)
