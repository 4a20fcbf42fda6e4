from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absfef import absolute, states, witness
from absfef.errors import DomainError
from absfef.fef import canonical_ket, fef
from absfef.linalg import validate_density
from helpers import (absolute_state, capped_spectrum, exact_psd,
                     ginibre_density, haar_unitary, partial_transpose)


def test_membership_verdicts():
    v = absolute.is_absolute_fef(states.x1())
    assert not v.absolute and not v.boundary
    # top eigenvalue of the coupled (|00>, |11>) block: (7 + sqrt(29)) / 18
    want = (7 + np.sqrt(29)) / 18
    assert v.lambda_max == pytest.approx(want, abs=1e-12)

    v = absolute.is_absolute_fef(states.af_not_as_example())
    assert v.absolute and v.boundary
    assert v.lambda_max == pytest.approx(0.5, abs=1e-12)

    v = absolute.is_absolute_fef(states.isotropic(3, 0.1))
    assert v.absolute and not v.boundary


def test_membership_isotropic_flip():
    for d in (2, 3):
        flip = 1 / (d + 1)
        assert absolute.is_absolute_fef(states.isotropic(d, flip - 1e-6)).absolute
        assert not absolute.is_absolute_fef(states.isotropic(d, flip + 1e-6)).absolute
        assert absolute.is_absolute_fef(states.isotropic(d, flip)).boundary


def _exactly_absolute(rho):
    """lambda_max <= 1/d for the stored floats of rho, decided exactly."""
    return exact_psd(-rho.matrix, Fraction(1, rho.d))


# (state, exact verdict of lambda_max <= 1/d on its stored floats).  The
# library calls every one of them a member with the boundary flag set.
_EDGE_STATES = [
    *[(("isotropic", {"d": d, "beta": 1 / (d + 1) + delta}), delta < 0)
      for d in (2, 3) for delta in (1e-15, -1e-15, 1e-12, -1e-12, 5e-10,
                                    -5e-10)],
    # the floats of beta = 1/3 and of the entries round the state outside by
    # 2.8e-17; those of isotropic(3, 1/4) land inside by 1.9e-17
    (("isotropic", {"d": 2, "beta": 1 / 3}), False),
    (("isotropic", {"d": 3, "beta": 1 / 4}), True),
    # exactly on the edge, and 1e-12 to either side of it
    (("ghzw", {"p": 0.25}), True),
    (("ghzw", {"p": 0.25 + 1e-12}), True),
    (("ghzw", {"p": 0.25 - 1e-12}), False),
    (("af_not_as_example", {}), True),
]


def test_exact_psd_oracle_on_small_cases():
    # a zero pivot with a nonzero rest of its row refutes PSD
    assert exact_psd(np.array([[0, 0], [0, 1]]))
    assert not exact_psd(np.array([[0, 1], [1, 1]]))
    assert not exact_psd(np.array([[1, 2], [2, 1]]))
    assert exact_psd(np.array([[1, 1j], [-1j, 1]]))
    assert not exact_psd(np.array([[1, 1j], [-1j, 1]]), Fraction(-1, 10**20))
    # away from the edge it agrees with eigvalsh
    rng = np.random.default_rng(16)
    for d in (2, 3):
        for _ in range(5):
            rho = validate_density(ginibre_density(rng, d * d), d, d)
            lam = rho.spectrum.lambda_max
            assert exact_psd(-rho.matrix, Fraction(lam * (1 + 1e-6)))
            assert not exact_psd(-rho.matrix, Fraction(lam * (1 - 1e-6)))


def test_exact_oracle_decides_the_edge_states():
    assert len(_EDGE_STATES) == 18
    for (family, params), inside in _EDGE_STATES:
        rho = states.construct(family, **params)
        verdict = absolute.is_absolute_fef(rho)
        assert verdict.absolute and verdict.boundary
        assert _exactly_absolute(rho) == inside, (family, params)
    # the FOUND case on its own: the float matrix of isotropic(2, 1/3) is
    # outside the absolute-FEF set, though eigvalsh reads lambda_max = 1/2
    assert not _exactly_absolute(states.isotropic(2, 1 / 3))


@pytest.mark.parametrize("family, params, ppt", [
    ("x1", {}, True),
    ("bell_diag", {"t11": 0.1, "t22": -0.05, "t33": 0.02}, True),
    ("ghzw", {"p": 0.6}, True),
    ("x2", {"q": 0.45}, False),
])
def test_exact_oracle_decides_ppt(family, params, ppt):
    rho = states.construct(family, **params)
    assert exact_psd(partial_transpose(rho.matrix, rho.d)) == ppt


def test_max_global_fef_is_lambda_max():
    # The supremum of the FEF over global unitaries that membership reads.
    rng = np.random.default_rng(20)
    rho = validate_density(ginibre_density(rng, 9), 3, 3)
    assert absolute.is_absolute_fef(rho).lambda_max == pytest.approx(
        float(np.linalg.eigvalsh(rho.matrix)[-1]), abs=1e-12)


# States whose top eigenvector is orthogonal to |psi+> or equal to it: the
# two extremes of the Householder vector w = v + e^{i phi} |psi+>.
_ACTIVATION_EDGE_CASES = {
    2: [states.comp_diag([0.1, 0.7, 0.1, 0.1]), states.isotropic(2, 0.9)],
    3: [states.isotropic(3, 0.9)],
    # top eigenvector |01>, orthogonal to |psi+>; then |psi+> itself
    4: [validate_density(np.diag(np.full(16, 0.02) + 0.68 * np.eye(16)[1]), 4, 4),
        states.isotropic(4, 0.9)],
}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_activating_unitary_attains_lambda_max(d):
    rng = np.random.default_rng(21)
    randoms = [validate_density(ginibre_density(rng, d * d), d, d)
               for _ in range(25)]
    for rho in randoms + _ACTIVATION_EDGE_CASES[d]:
        u = absolute.activating_unitary(rho)
        n = d * d
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-9
        rot = states.conjugate(rho, u)
        psi = canonical_ket(d)
        overlap = float(np.real(psi.conj() @ rot.matrix @ psi))
        assert overlap == pytest.approx(rho.spectrum.lambda_max, abs=1e-8)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), rank_frac=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_activation_and_witness_chain(d, rank_frac, seed):
    # The activating unitary lifts the canonical overlap to lambda_max, and
    # the witness pulled back by it reads 1/d - lambda_max on the state.
    n = d * d
    rank = 1 + min(int(rank_frac * n), n - 1)
    rho = validate_density(ginibre_density(np.random.default_rng(seed), n, rank),
                           d, d)
    lam = rho.spectrum.lambda_max
    u = absolute.activating_unitary(rho)
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12
    psi = canonical_ket(d)
    rot = u @ rho.matrix @ u.conj().T
    assert abs(np.vdot(psi, rot @ psi) - lam) <= 1e-12
    s = witness.pullback(witness.teleportation_witness(d), u)
    assert abs(witness.evaluate(s, rho) - (1 / d - lam)) <= 1e-12


def test_activating_unitary_is_fresh_and_leaves_the_spectrum_alone():
    rho = states.x1()
    u = absolute.activating_unitary(rho)
    want = u.copy()
    assert u.flags.writeable
    for arr in (rho.matrix, rho.spectrum.eigenvectors, rho.spectrum.eigenvalues):
        assert not arr.flags.writeable
        assert not np.shares_memory(u, arr)
    u[:] = 9.0
    assert np.array_equal(absolute.activating_unitary(rho), want)


def test_absolute_states_never_exceed_threshold():
    rng = np.random.default_rng(22)
    psi = canonical_ket(2)
    for _ in range(10):
        rho = absolute_state(rng, 2)
        for _ in range(50):
            u = haar_unitary(rng, 4)
            rot = u @ rho @ u.conj().T
            overlap = float(np.real(psi.conj() @ rot @ psi))
            assert overlap <= 0.5 + 1e-8


def test_absolutely_separable_2q():
    assert absolute.is_absolutely_separable_2q(
        validate_density(np.eye(4) / 4, 2, 2))
    # AF membership without AS membership
    assert not absolute.is_absolutely_separable_2q(states.af_not_as_example())
    with pytest.raises(DomainError, match="2x2 bipartition, got 3x3"):
        absolute.is_absolutely_separable_2q(states.isotropic(3, 0.5))


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(1, 4), alpha=st.sampled_from([0.3, 1.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_absolutely_separable_2q_matches_the_inequality(rank, alpha, seed):
    rng = np.random.default_rng(seed)
    lam = np.zeros(4)
    lam[:rank] = rng.dirichlet(np.full(rank, alpha))
    u = haar_unitary(rng, 4)
    rho = validate_density((u * lam) @ u.conj().T, 2, 2)
    l4, l3, l2, l1 = np.linalg.eigvalsh(rho.matrix)
    margin = l3 + 2 * np.sqrt(max(l2 * l4, 0.0)) - l1
    if abs(margin) > 1e-9:
        assert absolute.is_absolutely_separable_2q(rho) == (margin > 0)


def test_classify_labels():
    assert absolute.classify(states.x1()).label == absolute.LABEL_ACTIVATABLE
    assert absolute.classify(states.isotropic(2, 0.9)).label == absolute.LABEL_USEFUL
    rep = absolute.classify(states.af_not_as_example())
    assert rep.label == absolute.LABEL_ABSOLUTE
    assert rep.k_copy_nonlocal is None
    assert not rep.teleportation_useful
    # x1 is ACTIVATABLE and PPT, hence separable: the activated state is
    # k-copy nonlocal, x1 itself never is, and the report must not say so
    rep = absolute.classify(states.x1())
    assert rep.k_copy_nonlocal is None
    assert rep.fef_value <= rep.threshold + 1e-9 < rep.lambda_max
    rep = absolute.classify(states.isotropic(2, 0.9))
    assert rep.k_copy_nonlocal is True and rep.teleportation_useful


def test_classify_fef_matches_fef():
    # classify reuses its spectrum for the ascent; the result must be fef's.
    rng = np.random.default_rng(24)
    for d in (2, 3):
        rho = validate_density(ginibre_density(rng, d * d), d, d)
        for restarts, seed in ((None, 0), (3, 5)):
            rep = absolute.classify(rho, restarts=restarts, seed=seed)
            res = fef(rho, restarts=restarts, seed=seed)
            assert rep.fef_value == res.value
            assert (rep.fef_restarts, rep.fef_converged) \
                == (res.restarts_used, res.converged)


def test_af_convexity():
    rng = np.random.default_rng(23)
    for d in (2, 3):
        for _ in range(20):
            s1 = absolute_state(rng, d)
            s2 = absolute_state(rng, d)
            lam = rng.uniform()
            mix = validate_density(lam * s1 + (1 - lam) * s2, d, d)
            assert absolute.is_absolute_fef(mix).absolute


def test_purity_bounds_values():
    pb2 = absolute.purity_bounds(2)
    assert pb2.max_purity_absolute == pytest.approx(0.5, abs=1e-12)
    assert pb2.min_purity_nonabsolute == pytest.approx(1 / 3, abs=1e-12)
    assert pb2.min_attained is False
    pb3 = absolute.purity_bounds(3)
    assert pb3.max_purity_absolute == pytest.approx(1 / 3, abs=1e-12)
    assert pb3.min_purity_nonabsolute == pytest.approx(1 / 6, abs=1e-12)
    for bad in (1, 2.5):
        with pytest.raises(DomainError):
            absolute.purity_bounds(bad)
    pb3_np = absolute.purity_bounds(np.int64(3))
    assert type(pb3_np.d) is int
    assert pb3_np.max_purity_absolute == pb3.max_purity_absolute


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.01, 0.3, 1.0, 30.0]),
       excess=st.floats(1e-9, 1.0))
def test_purity_bounds_bracket_random_spectra(d, seed, alpha, excess):
    pb = absolute.purity_bounds(d)
    n = d * d
    rng = np.random.default_rng(seed)
    member = capped_spectrum(rng, n, 1 / d, alpha)
    assert member.max() <= 1 / d + 1e-12
    assert np.sum(member**2) <= pb.max_purity_absolute + 1e-12
    # lambda_1 = 1/d + excess (1 - 1/d) > 1/d; the rest split at random
    top = 1 / d + excess * (1 - 1 / d)
    rest = rng.dirichlet(np.full(n - 1, alpha)) * (1 - top)
    assert top**2 + np.sum(rest**2) >= pb.min_purity_nonabsolute - 1e-12
    max_spec, min_spec = pb.witness_spectra
    for spec in (max_spec, min_spec):
        assert spec.shape == (n,) and np.sum(spec) == pytest.approx(1, abs=1e-12)
    assert max_spec.max() <= 1 / d + 1e-15
    assert np.sum(max_spec**2) == pb.max_purity_absolute
    assert min_spec[0] == pytest.approx(1 / d, abs=1e-15)
    assert np.sum(min_spec**2) == pb.min_purity_nonabsolute


def test_purity_sandwich_exhibits():
    lo = absolute.is_absolute_fef(states.comp_diag([0.45, 0.45, 0.05, 0.05]))
    hi = absolute.is_absolute_fef(states.comp_diag([0.55, 0.15, 0.15, 0.15]))
    assert states.comp_diag([0.45, 0.45, 0.05, 0.05]).purity() \
        == pytest.approx(0.41, abs=1e-12)
    assert states.comp_diag([0.55, 0.15, 0.15, 0.15]).purity() \
        == pytest.approx(0.37, abs=1e-12)
    assert lo.absolute and not hi.absolute


def test_purity_sandwich_random():
    rng = np.random.default_rng(24)
    lam = rng.dirichlet(np.ones(4), size=2000)
    purities = np.sum(lam**2, axis=1)
    lam_max = np.max(lam, axis=1)
    below = purities < 1 / 3 - 1e-12
    above = purities > 0.5 + 1e-12
    assert np.all(lam_max[below] <= 0.5 + 1e-12)
    assert np.all(lam_max[above] > 0.5)


def test_one_eigendecomposition_per_state(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, real=real, name=name, **kwargs):
            calls.append((name, np.array(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(21)
    m = ginibre_density(rng, 4)
    rho = validate_density(m, 2, 2)
    absolute.classify(rho)
    fef(rho)
    absolute.is_absolute_fef(rho)
    absolute.activating_unitary(rho)
    # rho itself is decomposed once.  Each of the two fef calls adds the
    # eigvalsh of the dual certificate at X0, R - A (x) I - I (x) B, which is
    # not rho, and may add one more where the ascent certifies its leader.
    is_rho = [np.allclose(a, m, atol=1e-12) for _, a in calls]
    assert sum(is_rho) == 1
    dual = [name for (name, _), rho_call in zip(calls, is_rho) if not rho_call]
    assert dual in (["eigvalsh"] * n for n in (2, 3, 4))
