import math
import warnings

import numpy as np
import pytest

from absfef import states
from absfef.errors import DomainError, MatrixShapeError
from absfef.fef import canonical_ket, fef, fef_lower_bound
from absfef.linalg import DensityMatrix, partial_trace
from absfef.tripartite import ghzw_marginal, ghzw_state


def test_max_entangled_normalized():
    for d in (2, 3, 4):
        psi = canonical_ket(d)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        nz = np.nonzero(psi)[0]
        assert list(nz) == [i * (d + 1) for i in range(d)]
    with pytest.raises(DomainError):
        canonical_ket(1)


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
    psi2 = canonical_ket(2)
    ov = np.real(psi2.conj() @ rho2.matrix @ psi2)
    assert ov == pytest.approx(q, abs=1e-12)
    rho3 = states.y3(q)
    psi3 = canonical_ket(3)
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
    psi = canonical_ket(2)
    assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-14
    with pytest.raises(DomainError):
        states.isotropic(2, -0.5)
    with pytest.raises(DomainError):
        states.isotropic(2, 1.5)
    for bad in (2.5, 2.7):
        with pytest.raises(DomainError):
            states.isotropic(bad, 0.3)
    assert np.array_equal(states.isotropic(np.int64(3), 0.3).matrix,
                          states.isotropic(3, 0.3).matrix)


def test_comp_diag_and_domain():
    rho = states.comp_diag([0.4, 0.3, 0.2, 0.1])
    assert np.max(np.abs(rho.matrix - np.diag([0.4, 0.3, 0.2, 0.1]))) < 1e-14
    with pytest.raises(DomainError):
        states.comp_diag([0.5, 0.5, 0.1, -0.1])
    with pytest.raises(DomainError):
        states.comp_diag([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(DomainError, match=r"must sum to 1, got 1\.1$") as exc:
        states.comp_diag([0.5, 0.5, 0.1, 0])
    assert "np.float64" not in str(exc.value)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            states.comp_diag([bad, 0, 0, 1])


def test_bell_diag_validity():
    rho = states.bell_diag(-1 / 12, -1 / 12, -1 / 12)  # Werner p = 1/3
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert eigs[0] >= -1e-12
    with pytest.raises(DomainError):
        states.bell_diag(0.5, 0.5, 0.5)


def test_bell_diag_rejects_non_finite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                states.bell_diag(bad, 0, 0)


def test_ghz_w_marginals():
    for m, weights in ((ghzw_state(1), [0.5, 0.5]),
                       (ghzw_state(0), [2 / 3, 1 / 3])):
        red = partial_trace(m, [2, 4], 1)
        assert np.sort(np.linalg.eigvalsh(red))[::-1][:2] == pytest.approx(weights)


def test_af_not_as_example():
    assert np.max(np.abs(states.af_not_as_example().matrix
                         - np.diag([0.5, 0.3, 0.2, 0.0]))) < 1e-14


def test_construct():
    rho = states.construct("isotropic", d=3, beta=0.25)
    assert rho.d == 3
    with pytest.raises(DomainError, match="unknown family 'unknown_family'"):
        states.construct("unknown_family")
    with pytest.raises(DomainError, match=r"unknown family \['x1'\]"):
        states.construct(["x1"])
    maxent = states.construct("max_entangled", d=2)
    assert maxent.purity() == pytest.approx(1.0, abs=1e-12)
    rho = states.construct("ghzw", p=0.3)
    assert np.array_equal(rho.matrix, ghzw_marginal(0.3).marginal.matrix)


@pytest.mark.parametrize("name, params, message", [
    ("x1", {"d": 3}, "family x1 does not take d; it takes no parameters"),
    ("x2", {"q": 0.3, "beta": 0.5}, "family x2 does not take beta; it takes q"),
    ("bell_diag", {"t11": 0.1, "weights": [1, 0, 0, 0]},
     "family bell_diag does not take weights; it takes t11, t22, t33"),
])
def test_construct_refuses_foreign_parameters(monkeypatch, name, params,
                                              message):
    def never(*args):
        pytest.fail(f"{name} built with {args}")

    monkeypatch.setitem(states.FAMILIES, name,
                        states.FAMILIES[name]._replace(build=never))
    with pytest.raises(DomainError) as info:
        states.construct(name, **params)
    assert str(info.value) == message


def test_construct_applies_defaults():
    assert np.array_equal(states.construct("bell_diag", t11=0.1).matrix,
                          states.bell_diag(0.1, 0, 0).matrix)
    assert np.array_equal(states.construct("bell_diag").matrix,
                          np.eye(4) / 4)
    rho = states.construct("isotropic", beta=0.3)
    assert rho.d == 2
    assert np.array_equal(rho.matrix, states.isotropic(2, 0.3).matrix)


def test_max_entangled_family_is_exact():
    # The family is isotropic(d, 1): |psi+><psi+| with entries exactly 1/d.
    for d in (2, 3):
        rho = states.construct("max_entangled", d=d)
        assert np.array_equal(rho.matrix, states.isotropic(d, 1).matrix)
        psi = canonical_ket(d)
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi))) < 1e-15
    with pytest.raises(DomainError):
        states.construct("max_entangled", d=1)


@pytest.mark.parametrize("build", [
    lambda: states.y3(1),
    lambda: states.x2(1),
    lambda: states.isotropic(2, 1),
    lambda: states.isotropic(3, 1),
    lambda: states.construct("max_entangled", d=2),
    lambda: states.construct("max_entangled", d=3),
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
    assert isinstance(states.construct(name, **params), DensityMatrix)
    assert family.sweep is None or family.sweep in family.params
    assert set(family.defaults) <= set(family.params)
    for missing in set(family.params) - set(family.defaults):
        with pytest.raises(DomainError, match=f"missing parameter '{missing}'"):
            states.construct(
                name, **{k: v for k, v in params.items() if k != missing})


@pytest.mark.parametrize("uid, n", [("U1", 4), ("U2", 4), ("U3", 9)])
def test_fixture_unitaries_unitary(uid, n):
    u = states.fixture_unitary(uid)
    assert u.shape == (n, n)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
    # one shared array, frozen once
    assert states.fixture_unitary(uid) is u
    with pytest.raises(ValueError):
        u[0, 0] = 0


def test_fixture_unitary_actions():
    # U1^dag maps |phi2+> to |00>; U2^dag maps it to |01>
    phi = canonical_ket(2)
    u1 = states.fixture_unitary("U1")
    u2 = states.fixture_unitary("U2")
    e00 = np.zeros(4)
    e00[0] = 1
    e01 = np.zeros(4)
    e01[1] = 1
    assert np.max(np.abs(u1.conj().T @ phi - e00)) < 1e-12
    assert np.max(np.abs(u2.conj().T @ phi - e01)) < 1e-12
    # U3^dag maps |phi3+> to sqrt(2/3)|01> + sqrt(1/3)|12>
    phi3 = canonical_ket(3)
    u3 = states.fixture_unitary("U3")
    want = np.zeros(9)
    want[1] = math.sqrt(2 / 3)
    want[5] = math.sqrt(1 / 3)
    assert np.max(np.abs(u3.conj().T @ phi3 - want)) < 1e-12


def test_unknown_fixture_unitary():
    for uid in ("U4", ["U1"], None):
        with pytest.raises(DomainError, match="unknown fixture unitary"):
            states.fixture_unitary(uid)


def test_conjugate_preserves_spectrum():
    rho = states.x1()
    u = states.fixture_unitary("U1")
    rot = states.conjugate(rho, u)
    assert np.linalg.eigvalsh(rot.matrix) == pytest.approx(
        np.linalg.eigvalsh(rho.matrix), abs=1e-12)


def test_conjugate_refuses_a_non_unitary():
    with pytest.raises(DomainError, match="not unitary"):
        states.conjugate(states.comp_diag([1, 0, 0, 0]), np.diag([1, 0, 0, 0]))


def test_conjugate_refuses_a_unitary_of_another_size():
    with pytest.raises(MatrixShapeError, match="does not match dimension 4"):
        states.conjugate(states.x1(), np.eye(9))


def test_conjugate_refuses_a_non_finite_unitary():
    u = np.array(states.fixture_unitary("U1"))
    u[0, 1] = np.nan
    with pytest.raises(DomainError, match="not unitary"):
        states.conjugate(states.x1(), u)
