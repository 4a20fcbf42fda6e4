import math
import warnings

import numpy as np
import pytest

from absfef import states
from absfef.errors import DomainError
from absfef.fef import fef, fef_lower_bound
from absfef.linalg import DensityMatrix, partial_trace
from absfef.tripartite import ghzw_marginal


def test_max_entangled_normalized():
    for d in (2, 3, 4):
        psi = states.max_entangled(d)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        nz = np.nonzero(psi)[0]
        assert list(nz) == [i * (d + 1) for i in range(d)]
    with pytest.raises(DomainError):
        states.max_entangled(1)


def test_x1_matrix_exact():
    want = np.array([
        [2 / 3, 0, 0, 1 / 9],
        [0, 1 / 9, 0, 0],
        [0, 0, 1 / 9, 0],
        [1 / 9, 0, 0, 1 / 9]])
    assert np.max(np.abs(states.x1().matrix - want)) < 1e-12


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
def test_x2_y3_structure(q):
    rho2 = states.x2(q)
    psi2 = states.max_entangled(2)
    ov = np.real(psi2.conj() @ rho2.matrix @ psi2)
    assert ov == pytest.approx(q, abs=1e-12)
    rho3 = states.y3(q)
    psi3 = states.max_entangled(3)
    assert np.real(psi3.conj() @ rho3.matrix @ psi3) == pytest.approx(q, abs=1e-12)
    assert rho3.matrix[1, 1].real == pytest.approx(1 - q, abs=1e-12)


@pytest.mark.parametrize("q", [0.0, -0.1, 1.1])
def test_x2_y3_domain(q):
    with pytest.raises(DomainError):
        states.x2(q)
    with pytest.raises(DomainError):
        states.y3(q)


def test_isotropic_limits_and_domain():
    rho = states.isotropic(3, 0.0)
    assert np.max(np.abs(rho.matrix - np.eye(9) / 9)) < 1e-14
    rho = states.isotropic(2, 1.0)
    psi = states.max_entangled(2)
    assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-14
    with pytest.raises(DomainError):
        states.isotropic(2, -0.5)
    with pytest.raises(DomainError):
        states.isotropic(2, 1.5)


def test_comp_diag_and_domain():
    rho = states.comp_diag([0.4, 0.3, 0.2, 0.1])
    assert np.max(np.abs(rho.matrix - np.diag([0.4, 0.3, 0.2, 0.1]))) < 1e-14
    with pytest.raises(DomainError):
        states.comp_diag([0.5, 0.5, 0.1, -0.1])
    with pytest.raises(DomainError):
        states.comp_diag([0.5, 0.5, 0.5, 0.5])


def test_bell_diag_validity():
    rho = states.bell_diag(-1 / 12, -1 / 12, -1 / 12)  # Werner p = 1/3
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert eigs[0] >= -1e-12
    with pytest.raises(DomainError):
        states.bell_diag(0.5, 0.5, 0.5)


def test_bell_diag_rejects_non_finite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            states.bell_diag(math.inf, 0, 0)


def test_ghz_w_marginals():
    for rho, weights in ((states.ghz(), [0.5, 0.5]),
                         (states.w(), [2 / 3, 1 / 3])):
        red = partial_trace(rho.matrix, [2, 4], 1)
        assert np.sort(np.linalg.eigvalsh(red))[::-1][:2] == pytest.approx(weights)


def test_af_not_as_example():
    assert np.max(np.abs(states.af_not_as_example().matrix
                         - np.diag([0.5, 0.3, 0.2, 0.0]))) < 1e-14


def test_family_spec_and_construct():
    spec = states.FamilySpec("isotropic", {"d": 3, "beta": 0.25})
    rho = states.construct(spec)
    assert (rho.dim_a, rho.dim_b) == (3, 3)
    with pytest.raises(DomainError):
        states.FamilySpec("unknown_family")
    maxent = states.construct(states.FamilySpec("max_entangled", {"d": 2}))
    assert maxent.purity() == pytest.approx(1.0, abs=1e-12)
    rho = states.construct(states.FamilySpec("ghzw", {"p": 0.3}))
    assert np.array_equal(rho.matrix, ghzw_marginal(0.3).marginal.matrix)


def test_max_entangled_family_is_exact():
    # The family is isotropic(d, 1): |psi+><psi+| with entries exactly 1/d.
    for d in (2, 3):
        rho = states.construct(states.FamilySpec("max_entangled", {"d": d}))
        assert np.array_equal(rho.matrix, states.isotropic(d, 1).matrix)
        psi = states.max_entangled(d)
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi))) < 1e-15
    with pytest.raises(DomainError):
        states.construct(states.FamilySpec("max_entangled", {"d": 1}))


@pytest.mark.parametrize("build", [
    lambda: states.y3(1),
    lambda: states.x2(1),
    lambda: states.isotropic(2, 1),
    lambda: states.isotropic(3, 1),
    lambda: states.construct(states.FamilySpec("max_entangled", {"d": 2})),
    lambda: states.construct(states.FamilySpec("max_entangled", {"d": 3})),
], ids=["y3(1)", "x2(1)", "isotropic(2,1)", "isotropic(3,1)",
        "max_entangled(2)", "max_entangled(3)"])
def test_psi_plus_points_are_exact(build):
    # Every family reaches |psi+><psi+| through canonical_projector, whose
    # entries are exactly 1/d, so nothing reads a few ulps off 1.
    rho = build()
    assert np.trace(rho.matrix) == 1.0
    assert rho.spectrum.lambda_max == 1.0
    assert rho.purity() == 1.0
    assert fef(rho).value == 1.0
    assert fef_lower_bound(rho) == 1.0


_SAMPLE_PARAMS = {"q": 0.5, "d": 3, "beta": 0.2, "p": 0.3,
                  "weights": [0.4, 0.3, 0.2, 0.1],
                  "t11": 0.1, "t22": -0.05, "t33": 0.12}


@pytest.mark.parametrize("name", list(states.FAMILIES))
def test_every_family_builds_through_construct(name):
    family = states.FAMILIES[name]
    params = {k: _SAMPLE_PARAMS[k] for k in family.params}
    assert isinstance(states.construct(states.FamilySpec(name, params)),
                      DensityMatrix)
    assert family.sweep is None or family.sweep in family.params
    for missing in set(family.params) - {"d"}:  # d defaults to 2
        with pytest.raises(KeyError):
            states.construct(states.FamilySpec(
                name, {k: v for k, v in params.items() if k != missing}))


@pytest.mark.parametrize("uid, n", [("U1", 4), ("U2", 4), ("U3", 9)])
def test_fixture_unitaries_unitary(uid, n):
    u = states.fixture_unitary(uid).matrix
    assert u.shape == (n, n)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
    with pytest.raises(ValueError):
        u[0, 0] = 0


def test_fixture_unitary_actions():
    # U1^dag maps |phi2+> to |00>; U2^dag maps it to |01>
    phi = states.max_entangled(2)
    u1 = states.fixture_unitary("U1").matrix
    u2 = states.fixture_unitary("U2").matrix
    e00 = np.zeros(4)
    e00[0] = 1
    e01 = np.zeros(4)
    e01[1] = 1
    assert np.max(np.abs(u1.conj().T @ phi - e00)) < 1e-12
    assert np.max(np.abs(u2.conj().T @ phi - e01)) < 1e-12
    # U3^dag maps |phi3+> to sqrt(2/3)|01> + sqrt(1/3)|12>
    phi3 = states.max_entangled(3)
    u3 = states.fixture_unitary("U3").matrix
    want = np.zeros(9)
    want[1] = math.sqrt(2 / 3)
    want[5] = math.sqrt(1 / 3)
    assert np.max(np.abs(u3.conj().T @ phi3 - want)) < 1e-12


def test_unknown_fixture_unitary():
    with pytest.raises(DomainError):
        states.fixture_unitary("U4")


def test_conjugate_preserves_spectrum():
    rho = states.x1()
    u = states.fixture_unitary("U1").matrix
    rot = states.conjugate(rho, u)
    assert np.linalg.eigvalsh(rot.matrix) == pytest.approx(
        np.linalg.eigvalsh(rho.matrix), abs=1e-12)
