import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absfef import states, witness
from absfef.bases import PAULI
from absfef.bloch import (bloch_extract, classI_membership, classII_membership)
from absfef.errors import DomainError
from absfef.linalg import validate_density
from helpers import ginibre_density


def test_extract_reconstruct_roundtrip():
    rng = np.random.default_rng(40)
    for _ in range(20):
        rho = validate_density(ginibre_density(rng, 4), 2, 2)
        bp = bloch_extract(rho)
        # reference: c_ij = Tr(rho s_i (x) s_j), one kron-trace at a time
        c = np.array([[np.trace(np.kron(si, sj) @ rho.matrix).real
                       for sj in PAULI] for si in PAULI])
        assert np.max(np.abs(bp.a - c[1:, 0] / 2)) < 1e-14
        assert np.max(np.abs(bp.b - c[0, 1:] / 2)) < 1e-14
        assert np.max(np.abs(bp.t - c[1:, 1:] / 4)) < 1e-14
        assert np.max(np.abs(bp.reconstruct() - rho.matrix)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_extract_is_the_scaled_pauli_decomposition(seed, rank):
    # rho = sum_ij c_ij s_i (x) s_j with c_00 = 1/4, c_i0 = a_i/2,
    # c_0j = b_j/2 and c_ij = t_ij
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = validate_density(g @ g.conj().T / np.sum(np.abs(g) ** 2), 2, 2)
    bp = bloch_extract(rho)
    c = witness.decompose(rho.matrix, "pauli").coefficients
    assert c[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert np.max(np.abs(bp.a - 2 * c[1:, 0])) <= 1e-15
    assert np.max(np.abs(bp.b - 2 * c[0, 1:])) <= 1e-15
    assert np.max(np.abs(bp.t - c[1:, 1:])) <= 1e-15


def test_extract_needs_two_qubits():
    with pytest.raises(DomainError, match="needs a 2x2 bipartition"):
        bloch_extract(states.y3(0.5))


def test_extract_comp_diag_values():
    a, b, c, d = 0.4, 0.3, 0.2, 0.1
    bp = bloch_extract(states.comp_diag([a, b, c, d]))
    assert bp.a[:2] == pytest.approx([0, 0], abs=1e-14)
    assert bp.a[2] == pytest.approx((a + b - c - d) / 2, abs=1e-12)
    assert bp.b[2] == pytest.approx((a + c - b - d) / 2, abs=1e-12)
    assert bp.t[2, 2] == pytest.approx((a - b - c + d) / 4, abs=1e-12)


def test_classI_matches_spectrum():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 500:
        t = rng.uniform(-0.3, 0.3, size=3)
        try:
            res = classI_membership(*t)
        except DomainError:
            continue
        checked += 1
        rho = states.bell_diag(*t)
        lam_max = float(np.linalg.eigvalsh(rho.matrix)[-1])
        assert np.sort(res.eigenvalues) == pytest.approx(
            np.linalg.eigvalsh(rho.matrix), abs=1e-12)
        assert res.member == (lam_max <= 0.5 + 1e-10)


def test_classI_rejects_invalid():
    with pytest.raises(DomainError):
        classI_membership(0.5, 0.5, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classI_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        classI_membership(bad, 0, 0)


def test_classI_werner_boundary():
    # Werner correlations t = (-p/4, -p/4, -p/4): member iff p <= 1/3
    assert classI_membership(*[-(1 / 3) / 4] * 3).member
    assert not classI_membership(*[-(1 / 3 + 1e-9) / 4] * 3).member
    assert classI_membership(*[-(1 / 3 - 1e-9) / 4] * 3).member


def test_classII_matches_max_weight():
    rng = np.random.default_rng(42)
    for _ in range(500):
        w = rng.dirichlet(np.ones(4))
        assert classII_membership(*w) == (np.max(w) <= 0.5 + 1e-10)


def test_classII_printed_constant_discrepancy():
    # At (0.45, 0.25, 0.2, 0.1) the spectral criterion holds (all weights
    # <= 1/2) but the printed reduction "4a - 1 <= 1/2" would reject it.
    w = (0.45, 0.25, 0.2, 0.1)
    assert classII_membership(*w)
    assert max(w) <= 0.5
    assert 4 * w[0] - 1 == pytest.approx(0.8)  # printed constant exceeds 1/2


def test_classII_domain():
    with pytest.raises(DomainError):
        classII_membership(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(DomainError):
        classII_membership(0.4, 0.4, 0.4, 0.4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classII_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        classII_membership(bad, 0, 0, 0)
