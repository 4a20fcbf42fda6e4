"""Local operator bases on C^d: the generalized Gell-Mann matrices.

One rule (Bertlmann and Krammer, J. Phys. A 41, 235303 (2008)) builds the
basis for every d: the identity, then for k = 1 ... d - 1 the symmetric
E_jk + E_kj and antisymmetric -i E_jk + i E_kj for each j < k, then the
diagonal (sum_{j<k} E_jj - k E_kk) / sqrt(k (k + 1) / 2).  At d = 2 these
are the Pauli matrices and at d = 3 the Gell-Mann matrices, in their usual
order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def gellmann_rule(d):
    """The d^2 generalized Gell-Mann matrices, identity first.

    The elements are Hermitian and pairwise Hilbert-Schmidt orthogonal;
    all but the identity are traceless with Tr(B^dag B) = 2.
    """
    out = [np.eye(d, dtype=complex)]
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            out += [sym, anti]
        diag = np.zeros(d)
        diag[:k], diag[k] = 1, -k
        out.append(np.diag(diag / math.sqrt(k * (k + 1) / 2)).astype(complex))
    return tuple(out)


PAULI_LABELS = ("I", "sx", "sy", "sz")
PAULI = gellmann_rule(2)

GELLMANN_LABELS = ("I", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8")
GELLMANN = gellmann_rule(3)


@dataclass(frozen=True)
class OperatorBasis:
    """A pairwise orthogonal basis of single-party Hermitian operators.

    ``norms`` holds the squared Hilbert-Schmidt norms Tr(B^dag B) and
    ``stacked`` the elements as one read-only (k, n, n) array.
    """

    kind: str
    elements: tuple
    labels: tuple
    norms: tuple
    stacked: np.ndarray

    @property
    def single_dim(self):
        return self.elements[0].shape[0]


def _build(kind, elements, labels):
    for b in elements:
        b.setflags(write=False)
    norms = tuple(float(np.real(np.sum(np.conj(b) * b))) for b in elements)
    stacked = np.array(elements)
    stacked.setflags(write=False)
    return OperatorBasis(kind=kind, elements=elements, labels=labels,
                         norms=norms, stacked=stacked)


_BASES = {
    "pauli": _build("pauli", PAULI, PAULI_LABELS),
    "gellmann": _build("gellmann", GELLMANN, GELLMANN_LABELS),
}


def operator_basis(kind):
    """Return the named operator basis: pauli or gellmann.

    Each kind is built once, at import, and every call returns that same
    object; its arrays are read-only.
    """
    try:
        return _BASES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise DomainError(f"unknown basis kind {kind!r}") from None


def basis_for_dim(d):
    """Return the built-in operator basis on C^d.

    Raises :class:`DomainError` for a d with no built-in basis.
    """
    for basis in _BASES.values():
        if basis.single_dim == d:
            return basis
    built = " and ".join(f"d = {b.single_dim} ({b.kind})" for b in _BASES.values())
    raise DomainError(f"no {d}x{d} local operator basis: only {built} "
                      f"are built in")
