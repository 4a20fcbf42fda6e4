import numpy as np
import pytest

from absfef.bases import (GELLMANN, PAULI, basis_for_dim, gellmann_rule,
                          operator_basis)
from absfef.errors import DomainError


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
    assert (l8.tobytes()
            == (np.diag([1, 1, -2]).astype(complex) / np.sqrt(3)).tobytes())


# The literal tables the rule replaced; -1j carries a -0.0 real part.
_PAULI_TABLE = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_GELLMANN_TABLE = np.array([
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / np.sqrt(3),
], dtype=complex)


@pytest.mark.parametrize("d, table", [(2, _PAULI_TABLE), (3, _GELLMANN_TABLE)])
def test_gellmann_rule_reproduces_the_tables_bitwise(d, table):
    built = gellmann_rule(d)
    assert len(built) == len(table)
    for got, want in zip(built, table):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    named = PAULI if d == 2 else GELLMANN
    assert np.array(named).tobytes() == table.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gellmann_rule_is_an_orthogonal_hermitian_basis(d):
    basis = gellmann_rule(d)
    assert len(basis) == d * d
    assert np.array_equal(basis[0], np.eye(d))
    for b in basis:
        assert np.array_equal(b, b.conj().T)
    for b in basis[1:]:
        assert abs(np.trace(b)) < 1e-15
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis)
    want = np.diag([d] + [2] * (d * d - 1))
    assert np.max(np.abs(gram - want)) < 1e-14


@pytest.mark.parametrize("kind", ["pauli", "gellmann"])
def test_orthogonal_bases(kind):
    basis = operator_basis(kind)
    k = len(basis.stacked)
    for i in range(k):
        bi = basis.stacked[i]
        assert np.max(np.abs(bi - bi.conj().T)) < 1e-15
        for j in range(k):
            ip = complex(np.sum(np.conj(bi) * basis.stacked[j]))
            if i == j:
                assert ip.real == pytest.approx(basis.norms[i], abs=1e-12)
            else:
                assert abs(ip) < 1e-12


@pytest.mark.parametrize("kind, table", [("pauli", PAULI), ("gellmann", GELLMANN)],
                         ids=["pauli", "gellmann"])
def test_operator_basis_is_built_once_and_read_only(kind, table):
    basis = operator_basis(kind)
    assert operator_basis(kind) is basis
    assert basis.stacked.tobytes() == np.array(table).tobytes()
    for arr in (basis.stacked, *table):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0


def test_unknown_basis_kind():
    for kind in ("spherical", "polarization", ["pauli"], None):
        with pytest.raises(DomainError):
            operator_basis(kind)


def test_basis_for_dim():
    assert basis_for_dim(2) is operator_basis("pauli")
    assert basis_for_dim(3) is operator_basis("gellmann")
    with pytest.raises(DomainError, match="no 4x4 local operator basis"):
        basis_for_dim(4)
