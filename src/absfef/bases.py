"""Fixed operator bases: Pauli, Gell-Mann and polarization projectors."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_LABELS = ("I", "sx", "sy", "sz")
PAULI = (_I2, _SX, _SY, _SZ)

_I3 = np.eye(3, dtype=complex)
_L1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
_L2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
_L3 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)
_L4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
_L5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
_L6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
_L7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
_L8 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / np.sqrt(3)

GELLMANN_LABELS = ("I", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8")
GELLMANN = (_I3, _L1, _L2, _L3, _L4, _L5, _L6, _L7, _L8)

# Single-qubit polarization kets: horizontal, vertical, diagonal,
# anti-diagonal, left and right circular.
_H = np.array([1, 0], dtype=complex)
_V = np.array([0, 1], dtype=complex)
_D = (_H + _V) / np.sqrt(2)
_F = (_H - _V) / np.sqrt(2)
_L = (_H + 1j * _V) / np.sqrt(2)
_R = (_H - 1j * _V) / np.sqrt(2)

POLARIZATION_LABELS = ("H", "V", "D", "F", "L", "R")
POLARIZATION_KETS = (_H, _V, _D, _F, _L, _R)
POLARIZATION = tuple(np.outer(k, k.conj()) for k in POLARIZATION_KETS)


@dataclass(frozen=True)
class OperatorBasis:
    """A fixed family of single-party Hermitian operators.

    ``norms`` holds the squared Hilbert-Schmidt norms Tr(B^dag B), used to
    normalize decomposition coefficients, and ``stacked`` the elements as
    one (k, n, n) array.  The pauli and gellmann kinds are
    pairwise orthogonal; the polarization set is an (overcomplete) spanning
    set of 2x2 Hermitian space, not an orthogonal basis.
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
    "polarization": _build("polarization", POLARIZATION, POLARIZATION_LABELS),
}


def operator_basis(kind):
    """Return the named operator basis: pauli, gellmann or polarization.

    Each kind is built once, at import, and every call returns that same
    object; its arrays are read-only.
    """
    try:
        return _BASES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise DomainError(f"unknown basis kind {kind!r}") from None
