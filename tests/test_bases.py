import math

import numpy as np
import pytest

from absfef.bases import GELLMANN, PAULI, POLARIZATION
from absfef.errors import DomainError
from absfef.bases import operator_basis


def test_pauli_matrices_exact():
    i2, sx, sy, sz = PAULI
    assert np.array_equal(i2, np.eye(2))
    assert np.array_equal(sx, [[0, 1], [1, 0]])
    assert np.array_equal(sy, [[0, -1j], [1j, 0]])
    assert np.array_equal(sz, [[1, 0], [0, -1]])


def test_gellmann_matrices_exact():
    i3, l1, l2, l3, l4, l5, l6, l7, l8 = GELLMANN
    assert np.array_equal(i3, np.eye(3))
    assert np.array_equal(l1, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(l2, [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    assert np.array_equal(l3, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert np.array_equal(l4, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert np.array_equal(l5, [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
    assert np.array_equal(l6, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.array_equal(l7, [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
    assert np.max(np.abs(l8 * math.sqrt(3)
                         - np.diag([1.0, 1.0, -2.0]))) < 1e-15


@pytest.mark.parametrize("kind", ["pauli", "gellmann"])
def test_orthogonal_bases(kind):
    basis = operator_basis(kind)
    k = len(basis.elements)
    for i in range(k):
        bi = basis.elements[i]
        assert np.max(np.abs(bi - bi.conj().T)) < 1e-15
        for j in range(k):
            ip = complex(np.sum(np.conj(bi) * basis.elements[j]))
            if i == j:
                assert ip.real == pytest.approx(basis.norms[i], abs=1e-12)
            else:
                assert abs(ip) < 1e-12


def test_polarization_projectors_span_hermitian_space():
    basis = operator_basis("polarization")
    assert len(basis.elements) == 6
    for p in basis.elements:
        assert np.max(np.abs(p @ p - p)) < 1e-14  # rank-1 projector
        assert np.trace(p).real == pytest.approx(1.0)
    # realified span has full dimension 4 over the 2x2 Hermitian space
    vecs = np.array([np.concatenate([p.ravel().real, p.ravel().imag])
                     for p in POLARIZATION])
    assert np.linalg.matrix_rank(vecs) == 4


@pytest.mark.parametrize("kind", ["pauli", "gellmann", "polarization"])
def test_operator_basis_is_built_once_and_read_only(kind):
    basis = operator_basis(kind)
    assert operator_basis(kind) is basis
    assert np.array_equal(basis.stacked, np.array(basis.elements))
    for arr in (basis.stacked, *basis.elements):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0


def test_unknown_basis_kind():
    for kind in ("spherical", ["pauli"], None):
        with pytest.raises(DomainError):
            operator_basis(kind)
