import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absfef import absolute, states, witness
from absfef.bases import PAULI
from absfef.bloch import bloch_extract
from absfef.errors import DomainError
from absfef.linalg import validate_density
from helpers import ginibre_density, product_operator


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
        coeffs = np.block([[np.full((1, 1), 0.25), bp.b[None, :] / 2],
                           [bp.a[:, None] / 2, bp.t]])
        back = product_operator(coeffs, np.array(PAULI))
        assert np.max(np.abs(back - rho.matrix)) < 1e-12


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


# The paper's Class-I and Class-II criteria, written out as oracles in the
# Bloch parameters that bloch_extract reads.
# Class I, rho = I/4 + sum t_ii s_i (x) s_i: eigenvalues (1 -/+ 4(...))/4,
# a member iff the largest combination of the t_ii is at most 1/4.
# Class II, rho = diag(a, b, c, d) with a3 = (a+b-c-d)/2, b3 = (a+c-b-d)/2
# and t33 = (a-b-c+d)/4: eigenvalues 1/4 +/- (a3+b3)/2 + t33 and
# 1/4 +/- (a3-b3)/2 - t33, a member iff |a3+b3| + 2 t33 <= 1/2 and
# |a3-b3| - 2 t33 <= 1/2.
# Verdicts are compared only off the edge: within BOUNDARY_TOL of
# lambda_max = 1/2 the one threshold rule calls a state a boundary member.
def _class_i(t11, t22, t33):
    combos = (-(t11 + t22 + t33), t11 + t22 - t33,
              t11 - t22 + t33, -t11 + t22 + t33)
    return np.sort([(1 + 4 * c) / 4 for c in combos]), max(combos) <= 0.25


def _class_ii_bloch(a, b, c, d):
    return (a + b - c - d) / 2, (a + c - b - d) / 2, (a - b - c + d) / 4


def _class_ii(a, b, c, d):
    a3, b3, t33 = _class_ii_bloch(a, b, c, d)
    eigs = [0.25 + (a3 + b3) / 2 + t33, 0.25 + (a3 - b3) / 2 - t33,
            0.25 - (a3 - b3) / 2 - t33, 0.25 - (a3 + b3) / 2 + t33]
    return np.sort(eigs), (abs(a3 + b3) + 2 * t33 <= 0.5
                           and abs(a3 - b3) - 2 * t33 <= 0.5)


def _off_edge(rho):
    return abs(rho.spectrum.lambda_max - 0.5) > absolute.BOUNDARY_TOL


def test_classI_matches_spectrum():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 500:
        t = rng.uniform(-0.3, 0.3, size=3)
        eigs, member = _class_i(*t)
        if eigs[0] < -1e-12:
            continue
        checked += 1
        rho = states.bell_diag(*t)
        assert np.abs(eigs - np.sort(rho.spectrum.eigenvalues)).max() <= 1e-12
        if _off_edge(rho):
            assert absolute.is_absolute_fef(rho).absolute == member


def test_classI_werner_boundary():
    # Werner correlations t = (-p/4, -p/4, -p/4): lambda_max = (1 + 3p)/4,
    # a member iff p <= 1/3.  p = 1/3 + 1e-9 puts lambda_max 7.5e-10 above
    # 1/2, inside BOUNDARY_TOL, so it is a boundary member.
    def verdict(p):
        return absolute.is_absolute_fef(states.bell_diag(*[-p / 4] * 3))

    assert _class_i(*[-(1 / 3) / 4] * 3)[1]
    for p in (1 / 3, 1 / 3 + 1e-9, 1 / 3 - 1e-9):
        v = verdict(p)
        assert v.absolute and v.boundary
    for p in (1 / 3 + 1e-6, 1 / 3 - 1e-6):
        v = verdict(p)
        assert v.absolute == (p < 1 / 3) == _class_i(*[-p / 4] * 3)[1]
        assert not v.boundary


def test_near_edge_states_have_one_verdict():
    # A Class-I and a Class-II state just above the edge: absolute members
    # on the boundary, under the one threshold rule
    for rho in (states.bell_diag(*[-(1 / 3 + 1e-9) / 4] * 3),
                states.comp_diag([0.5 + 5e-10, 0.5 - 5e-10, 0, 0])):
        v = absolute.is_absolute_fef(rho)
        assert v.absolute and v.boundary
        assert 0 < v.lambda_max - 0.5 <= absolute.BOUNDARY_TOL


def test_classII_matches_max_weight():
    rng = np.random.default_rng(42)
    for _ in range(500):
        w = rng.dirichlet(np.ones(4))
        rho = states.comp_diag(w)
        eigs, member = _class_ii(*w)
        assert np.abs(eigs - np.sort(w)).max() <= 1e-12
        assert member == (np.max(w) <= 0.5)
        if _off_edge(rho):
            assert absolute.is_absolute_fef(rho).absolute == member


def test_classII_printed_constant_discrepancy():
    # At (0.45, 0.25, 0.2, 0.1) the spectral criterion holds (all weights
    # <= 1/2) but the printed reduction "4a - 1 <= 1/2" would reject it.
    w = (0.45, 0.25, 0.2, 0.1)
    assert _class_ii(*w)[1]
    assert absolute.is_absolute_fef(states.comp_diag(w)).absolute
    assert 4 * w[0] - 1 == pytest.approx(0.8)  # printed constant exceeds 1/2


@settings(max_examples=200, deadline=None)
@given(t=st.tuples(*[st.floats(-0.25, 0.25)] * 3),
       w=st.tuples(*[st.floats(0, 1)] * 4).filter(lambda w: sum(w) > 0))
def test_class_formulas_match_the_spectrum_and_the_threshold_rule(t, w):
    eigs, member = _class_i(*t)
    if eigs[0] >= 0:
        rho = states.bell_diag(*t)
        assert np.abs(bloch_extract(rho).t - np.diag(t)).max() <= 1e-15
        assert np.abs(eigs - np.sort(rho.spectrum.eigenvalues)).max() <= 1e-12
        if _off_edge(rho):
            assert absolute.is_absolute_fef(rho).absolute == member
    w = np.array(w) / sum(w)
    rho = states.comp_diag(w)
    bp = bloch_extract(rho)
    assert np.abs(np.array([bp.a[2], bp.b[2], bp.t[2, 2]])
                  - _class_ii_bloch(*w)).max() <= 1e-15
    eigs, member = _class_ii(*w)
    assert np.abs(eigs - np.sort(rho.spectrum.eigenvalues)).max() <= 1e-12
    if _off_edge(rho):
        assert absolute.is_absolute_fef(rho).absolute == member
