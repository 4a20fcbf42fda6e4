import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absfef import states
from absfef.absolute import LABEL_ACTIVATABLE, classify
from absfef.errors import DomainError
from absfef.fef import (_EPS, _MAX_STEPS, DEFAULT_RESTARTS, MAX_RESTARTS,
                        _ascend, _dual_gap, _haar_starts, canonical_ket,
                        canonical_projector, fef, fef_lower_bound,
                        fef_two_qubit_closed_form)
from absfef.linalg import validate_density
from helpers import (fef_objective, fef_two_qubit_oracle, ginibre_density,
                     haar_unitary)


def _as_state(m, d):
    return validate_density(m, d, d)


def test_canonical_ket():
    psi = canonical_ket(3)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    assert psi[0] == psi[4] == psi[8]
    for d in (2, 3):
        p = canonical_projector(d)
        want = np.zeros((d * d, d * d))
        want[:: d + 1, :: d + 1] = 1 / d
        assert np.array_equal(p, want)
        psi = canonical_ket(d)
        assert np.max(np.abs(p - np.outer(psi, psi.conj()))) < 1e-15
    for build in (canonical_ket, canonical_projector):
        for bad in (1, 2.5):
            with pytest.raises(DomainError):
                build(bad)
        assert np.array_equal(build(np.int64(3)), build(3))


def test_lower_bound_matches_overlap():
    # The index sum (1/d) sum_ij rho[ii, jj] is <psi+| rho |psi+>.
    rng = np.random.default_rng(10)
    for d in (2, 3):
        psi = canonical_ket(d)
        for _ in range(20):
            rho = _as_state(ginibre_density(rng, d * d), d)
            assert fef_lower_bound(rho) == pytest.approx(
                np.real(psi.conj() @ rho.matrix @ psi), abs=1e-15)


def test_fef_known_values():
    assert fef(states.x1()).value == pytest.approx(0.5, abs=1e-6)
    rot = states.conjugate(states.x1(), states.fixture_unitary("U1"))
    assert fef(rot).value == pytest.approx(2 / 3, abs=1e-6)
    for d in (2, 3):
        restarts = 8 if d == 3 else None
        assert fef(states.construct("max_entangled", d=d),
                   restarts=restarts).value == pytest.approx(1.0, abs=1e-6)


def test_fef_never_below_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = _as_state(ginibre_density(rng, 4), 2)
        res = fef(rho, restarts=2, seed=3)
        assert res.value >= fef_lower_bound(rho) - 1e-12


def test_fef_monotone_in_restarts_and_deterministic():
    rho = _as_state(ginibre_density(np.random.default_rng(12), 4), 2)
    v1 = fef(rho, restarts=1, seed=5).value
    v4 = fef(rho, restarts=4, seed=5).value
    v4b = fef(rho, restarts=4, seed=5).value
    assert v4 >= v1 - 1e-12
    assert v4 == v4b
    # Restart i's start is the i-th slice of one default_rng(seed) draw, so
    # adding restarts only adds starts and never lowers the maximum.  Rank-3
    # states have local maxima at d = 3, so a start stream that changed with
    # the restart count would lower the value for some k here.
    for d in (2, 3):
        rng = np.random.default_rng(20 + d)
        for _ in range(4):
            rho = _as_state(ginibre_density(rng, d * d, 3), d)
            for seed in (0, 7):
                values = [fef(rho, restarts=k, seed=seed).value
                          for k in range(1, 9)]
                assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
                assert [fef(rho, restarts=k, seed=seed).value
                        for k in range(1, 9)] == values


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 1.0])
def test_fef_isotropic_exact(d, beta):
    # rho - lambda_min I = beta |psi+><psi+| is rank one for beta > 0.
    assert fef(states.isotropic(d, beta)).value == pytest.approx(
        beta + (1 - beta) / d**2, abs=1e-12)


def _ascent_reference(rho, restarts, seed=0):
    """What fef returns when the ascent runs: (value, unitary, steps).

    Restart 0 starts at vec(X0), X0 = polar(reshape(v1)) for the top
    eigenvector v1; the others at the Haar rows.
    """
    d = rho.d
    lam = rho.spectrum.eigenvalues
    w, _, vh = np.linalg.svd(rho.spectrum.eigenvectors[:, 0].reshape(d, d))
    starts = np.vstack([(w @ vh).ravel(), _haar_starts(d, restarts - 1, seed)])
    x, values, steps, _ = _ascend(rho.matrix - lam[-1] * np.eye(d * d),
                                  starts)
    best = int(np.argmax(values))
    value = min(values[best] + lam[-1], lam[0])
    unitary = x[best].reshape(d, d).T
    if value < fef_lower_bound(rho):
        value, unitary = fef_lower_bound(rho), np.eye(d)
    return float(value), unitary, steps


def _max_entangled_top(rng, d):
    """A state whose nondegenerate top eigenvector is (A (x) B)|psi+>."""
    n = d * d
    top = np.kron(haar_unitary(rng, d), haar_unitary(rng, d)) @ canonical_ket(d)
    basis, _ = np.linalg.qr(np.column_stack(
        [top, rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))]))
    lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    lam[0] += 0.05  # keep the top eigenvalue apart from the next one
    lam /= lam.sum()
    return _as_state((basis * lam) @ basis.conj().T, d)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_fef_certified_when_top_eigenvector_maximally_entangled(d, seed):
    rho = _max_entangled_top(np.random.default_rng(seed), d)
    res = fef(rho)
    assert abs(res.value - rho.spectrum.lambda_max) <= 1e-13
    assert res.iterations == 0
    assert res.converged
    assert res.restarts_used == DEFAULT_RESTARTS[d]
    u = res.optimizer_unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12
    assert abs(fef_objective(rho, u) - res.value) <= 1e-12


def test_fef_ascent_path_unchanged(monkeypatch):
    # d = 3 states whose dual gap stays open fail every certificate.  Where
    # no dual gap is evaluated inside the ascent, fef returns the plain
    # ascent's result bit for bit; where a leader's momentum stop was sent on
    # with a plain step, each restart only climbs further, so the value is
    # never lower (up to the rounding of a plain step, which is always
    # accepted).
    fefmod = sys.modules[fef.__module__]
    evaluated = []

    def counted(*args):
        evaluated.append(args)
        return real(*args)

    real = fefmod._dual_gap
    monkeypatch.setattr(fefmod, "_dual_gap", counted)
    rng = np.random.default_rng(18)
    rhos = [_as_state(ginibre_density(rng, 9, rank), 3)
            for rank in (1, 2, 3, 9) for _ in range(3)]
    # Y3(q), q < 1/2: |01> is the top eigenvector and FEF < lambda_max; the
    # closed-form dual stays loose.
    rhos += [states.y3(k / 40) for k in range(1, 20)]
    identical = at_x0 = 0
    for rho in rhos:
        evaluated.clear()
        res = fef(rho)
        if evaluated:
            # the X0 rung forms y = rho x once and hands it to the dual
            _, x, y = evaluated[0]
            assert np.array_equal(y, rho.matrix @ x)
        if res.upper_bound - res.value <= _EPS:
            if res.iterations == 0 and len(evaluated) == 1:
                # certified by the dual at X0: the value is read off y
                assert res.value == (x.conj() @ y).real / rho.d
                at_x0 += 1
            continue  # certified
        assert res.upper_bound == rho.spectrum.lambda_max
        restarts = DEFAULT_RESTARTS[rho.d]
        value, unitary, steps = _ascent_reference(rho, restarts)
        assert steps >= 1
        # The first gap is the dual at X0, which fef evaluates on rho itself
        # before the ascent; only the later ones are evaluated inside _ascend.
        assert evaluated and evaluated[0][0] is rho.matrix
        same = ((res.value, res.iterations) == (value, steps)
                and np.array_equal(res.optimizer_unitary, unitary))
        assert same or evaluated[1:]
        assert res.value >= value - 1e-14
        identical += same
    assert identical >= 4
    assert at_x0 >= 3  # the rank-1 states
    # Y3(q), q > 1/2: |psi+> is the top eigenvector, FEF = lambda_max = q.
    for k in range(11, 21):
        res = fef(states.y3(k / 20))
        assert res.iterations == 0
        assert abs(res.value - k / 20) <= 1e-13
    # x2(q), 1/3 < q < 1/2, where the dual stays loose too: d = 2 never
    # evaluates it and is bounded by the magic-basis closed form instead
    # (or by the value, where the clip lifts it one ulp above that).
    for k in range(14, 20):
        rho = states.x2(k / 40)
        evaluated.clear()
        res = fef(rho)
        assert res.iterations >= 1
        assert not evaluated
        assert res.upper_bound == max(fef_two_qubit_closed_form(rho),
                                      res.value)


def _dual_gap_kron(m, x):
    """lambda_max(M - A (x) I - I (x) B) built with np.kron, for unitary
    X = reshape(x): A = herm(G X^dag)/2 with G = reshape(M x), and the
    nested B = herm(X^dag A X)^T."""
    d = math.isqrt(x.size)
    xm = x.reshape(d, d)
    h = (m @ x).reshape(d, d) @ xm.conj().T
    a = (h + h.conj().T) / 4
    b = xm.conj().T @ a @ xm
    b = (b.T + b.conj()) / 2
    eye = np.eye(d)
    return np.linalg.eigvalsh(m - np.kron(a, eye) - np.kron(eye, b))[-1]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), rank=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_dual_gap_shift_invariant_and_matches_kron(d, rank, seed):
    # The gap at a Haar X is the same for rho and rho - c I, whether c is
    # the lambda_min that fef shifts by or any other constant, and it matches
    # the np.kron build.  The dual bound lies above the FEF, which lies
    # above the value at X, so the gap is never negative.
    rng = np.random.default_rng(seed)
    m = ginibre_density(rng, d * d, min(rank, d * d))
    x = haar_unitary(rng, d).ravel()
    gap = _dual_gap(m, x, m @ x)
    assert gap >= -1e-14
    assert abs(gap - _dual_gap_kron(m, x)) <= 1e-13
    for c in (np.linalg.eigvalsh(m)[0], rng.uniform(-1, 1)):
        r = m - c * np.eye(d * d)
        shifted = _dual_gap(r, x, r @ x)
        assert abs(shifted - gap) <= 1e-13
        assert abs(shifted - _dual_gap_kron(r, x)) <= 1e-13


def _no_haar_starts(*args):
    raise AssertionError(f"Haar starts drawn: {args}")


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_fef_pure_state_certified_at_x0(d, seed):
    # A pure state psi with Schmidt coefficients s_i has FEF (sum_i s_i)^2/d,
    # attained at X0 = polar(reshape(psi)), below lambda_max = 1.  The dual
    # at X0 certifies it: no Haar start is drawn and no ascent step runs.
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    psi /= np.linalg.norm(psi)
    rho = _as_state(np.outer(psi, psi.conj()), d)
    exact = np.linalg.svd(psi.reshape(d, d), compute_uv=False).sum() ** 2 / d
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[fef.__module__], "_haar_starts",
                   _no_haar_starts)
        res = fef(rho)
    assert abs(res.value - exact) <= 1e-12
    assert res.iterations == 0
    assert res.converged
    assert res.upper_bound - res.value <= _EPS


@pytest.mark.parametrize("name, params", [
    ("x1", {}), ("x2", {"q": 0.1}), ("x2", {"q": 0.2}), ("x2", {"q": 0.3}),
    ("ghzw", {"p": 0.5}), ("ghzw", {"p": 0.6}), ("ghzw", {"p": 0.75}),
    ("ghzw", {"p": 0.95}),
])
def test_fef_certified_by_the_dual_at_x0(monkeypatch, name, params):
    # X0 is already the maximizer here, below lambda_max: the lambda_max rung
    # fails and the second rung (at d = 2 the closed form) certifies, so no
    # Haar start is drawn.
    monkeypatch.setattr(sys.modules[fef.__module__], "_haar_starts",
                        _no_haar_starts)
    rho = states.construct(name, **params)
    res = fef(rho)
    assert (res.iterations, res.converged) == (0, True)
    assert res.value <= res.upper_bound <= res.value + _EPS
    assert res.upper_bound < rho.spectrum.lambda_max - 1e-3
    assert abs(res.value - fef_two_qubit_oracle(rho)) <= 1e-12
    assert abs(fef_objective(rho, res.optimizer_unitary) - res.value) <= 1e-15


def test_fef_loose_dual_at_x0_still_ascends(monkeypatch):
    # af_not_as_example's dual at X0 is loose, but at d = 2 the closed form
    # certifies X0 itself: FEF exactly 1/4 and no Haar start drawn.
    calls = []

    def counted(*args):
        calls.append(args)
        return _haar_starts(*args)

    monkeypatch.setattr(sys.modules[fef.__module__], "_haar_starts", counted)
    rho = states.af_not_as_example()
    res = fef(rho)
    assert calls == []
    assert (res.value, res.upper_bound, res.iterations) == (0.25, 0.25, 0)
    assert res.converged
    # y3(0.05)'s dual at X0 is loose: the Haar starts are drawn and the
    # ascent returns the plain ascent's value and unitary bit for bit, as
    # before the dual rung existed.
    rho = states.y3(0.05)
    res = fef(rho)
    assert calls == [(3, DEFAULT_RESTARTS[3] - 1, 0)]
    value, unitary, steps = _ascent_reference(rho, DEFAULT_RESTARTS[3])
    assert (res.value, res.iterations) == (value, steps)
    assert steps >= 1
    assert res.optimizer_unitary.tobytes() == unitary.tobytes()
    assert res.upper_bound == rho.spectrum.lambda_max


@pytest.mark.parametrize("d", [2, 3])
def test_fef_isotropic_negative_beta(d):
    # For beta < 0 the top eigenspace is the (d^2 - 1)-dimensional complement
    # of |psi+>: FEF = lambda_max = (1 - beta)/d^2, and the eigensolver's top
    # eigenvector is an arbitrary vector in it.  At d = 3 its polar projection
    # leaves the eigenspace and the ascent runs.  At d = 2 it cannot: in the
    # magic basis |psi+> is a real e, the complement is spanned by real
    # vectors orthogonal to e, and the maximally entangled vector nearest
    # x = a + ib is real and in span(a, b), so the certificate holds.
    rng = np.random.default_rng(19)
    for beta in (-1 / (d * d - 1), -0.1, -0.05):
        iso = states.isotropic(d, beta)
        local = np.kron(haar_unitary(rng, d), haar_unitary(rng, d))
        for rho in (iso, states.conjugate(iso, local)):
            res = fef(rho)
            assert (res.iterations == 0) == (d == 2)
            assert abs(res.value - (1 - beta) / d**2) < 1e-10
            if d == 2:
                assert abs(res.value - fef_two_qubit_oracle(rho)) < 1e-10


def test_fef_iterations():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for _ in range(5):
            rho = _as_state(ginibre_density(rng, d * d), d)
            assert 1 <= fef(rho, restarts=4, seed=0).iterations <= _MAX_STEPS
    # The shift leaves a rank-one objective whose top eigenvector the X0
    # start (the identity here) already reaches; the unshifted ascent takes 6
    # steps.
    # (fef itself certifies this state without ascending.)
    assert _ascent_reference(states.isotropic(2, 0.9), 4)[2] <= 3
    # Y3(q) converges slowest near q = 1/3, where c* reaches 1; the plain
    # polar ascent took 267 and 3223 steps here.
    assert fef(states.y3(0.34)).iterations <= 100
    assert fef(states.y3(1 / 3)).iterations <= 400


def test_fef_optimizer_unitary_attains_value():
    for d in (2, 3):
        rho = _as_state(ginibre_density(np.random.default_rng(13), d * d), d)
        res = fef(rho, restarts=4, seed=0)
        u = res.optimizer_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-9
        assert fef_objective(rho, u) == pytest.approx(res.value, abs=1e-12)
    # No restart starts at the identity, so on y3 at q in [1/3, 1/2], where
    # the identity is the maximizer, the ascent can stop short of the
    # canonical overlap q; the clip lifts the value to it and returns the
    # identity, which attains it.
    for k in range(1, 21):
        rho = states.y3(k / 20)
        res = fef(rho)
        assert abs(fef_objective(rho, res.optimizer_unitary) - res.value) <= 1e-12


def test_fef_clip_to_overlap_returns_identity():
    # At y3(1/3) the ascent from X0 stops 2e-10 below the overlap, which the
    # identity attains.
    rho = states.y3(1 / 3)
    res = fef(rho)
    assert res.value == fef_lower_bound(rho)
    assert np.array_equal(res.optimizer_unitary, np.eye(3))
    assert abs(fef_objective(rho, res.optimizer_unitary) - res.value) <= 1e-12
    assert res.value <= res.upper_bound


def test_fef_overlap_wins_the_clip():
    # x2(0.9) has FEF = lambda_max = 0.9 at U = I, and the computed lambda_max
    # rounds below the canonical overlap; the value is the overlap, never
    # below the lower bound reported next to it.
    rho = states.x2(0.9)
    assert rho.spectrum.lambda_max < fef_lower_bound(rho)
    res = fef(rho)
    assert res.value == fef_lower_bound(rho)
    assert res.upper_bound >= res.value
    assert abs(fef_objective(rho, res.optimizer_unitary) - res.value) <= 1e-12
    for k in range(1, 21):
        rho = states.x2(k / 20)
        res = fef(rho)
        assert fef_lower_bound(rho) <= res.value <= res.upper_bound


def test_fef_matches_closed_form_oracle():
    rng = np.random.default_rng(14)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    ket01 = np.array([0, 1, 0, 0])
    # Both are orthogonal to |psi+>, so rho|psi+> = 0 and the identity is a
    # stationary point of the ascent.
    stationary = [np.outer(singlet, singlet),
                  (np.outer(singlet, singlet) + np.outer(ket01, ket01)) / 2]
    full = [ginibre_density(rng, 4) for _ in range(100)]
    low = [ginibre_density(rng, 4, rank) for rank in (1, 2, 3)
           for _ in range(20)]
    worst = 0.0
    for m in full + low + stationary:
        rho = _as_state(m, 2)
        worst = max(worst, abs(fef(rho).value - fef_two_qubit_oracle(rho)))
    assert worst < 1e-10


# One point of each two-qubit family.
_D2_FAMILIES = [
    ("x1", {}),
    ("x2", {"q": 0.3}),
    ("isotropic", {"d": 2, "beta": 0.5}),
    ("comp_diag", {"weights": [0.4, 0.3, 0.2, 0.1]}),
    ("bell_diag", {"t11": 0.1, "t22": -0.05, "t33": 0.15}),
    ("af_not_as_example", {}),
    ("max_entangled", {"d": 2}),
    ("ghzw", {"p": 0.3}),
]


def test_fef_d2_every_haar_restart_reaches_closed_form():
    # In the magic basis the d = 2 objective is a Rayleigh quotient on S^3,
    # which has no local maximum that is not global, so every Haar start
    # (none is stationary) ascends to the FEF on its own.  This is what lets
    # DEFAULT_RESTARTS[2] stay small.
    rng = np.random.default_rng(40)
    rhos = [_as_state(ginibre_density(rng, 4, rank), 2)
            for rank in (1, 2, 3, 4) for _ in range(50)]
    rhos += [states.construct(name, **params)
             for name, params in _D2_FAMILIES]
    starts = _haar_starts(2, 19, 0)
    for rho in rhos:
        lam_min = np.linalg.eigvalsh(rho.matrix)[0]
        _, values, _, _ = _ascend(rho.matrix - lam_min * np.eye(4), starts)
        assert np.all(np.abs(values + lam_min
                             - fef_two_qubit_oracle(rho)) < 1e-6)


def test_fef_d2_default_restarts_cover_stationary_identity():
    # The identity is stationary below the FEF on these states.  For
    # |01><01|, rho |psi+> = 0 and the value there is 0, against the FEF 1/2.
    # x2(q) = q phi+ + (1-q)|01><01| has FEF max(q, (1-q)/2), and for q < 1/3
    # the identity stays at q (a single identity start returned 0.3 at
    # q = 0.3, against 0.35).  No restart starts there: restart 0 starts at
    # X0, the polar point of the top eigenvector, so one restart reaches the
    # FEF, and at the default restarts X0 and the Haar start agree.
    ket01 = np.array([0, 1, 0, 0])
    rho = _as_state(np.outer(ket01, ket01), 2)
    res = fef(rho)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.converged
    assert fef(rho, restarts=1).value == pytest.approx(0.5, abs=1e-12)
    for q in (0.1, 0.2, 0.3):
        rho = states.x2(q)
        for restarts in (None, 1):
            res = fef(rho, restarts=restarts)
            assert abs(res.value - fef_two_qubit_oracle(rho)) <= 1e-10
            assert res.converged


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(rank=3, seed=2**32 - 1)
def test_fef_d2_matches_closed_form_property(rank, seed):
    # The Rayleigh-quotient landscape has no spurious local maximum, so X0
    # alone reaches the FEF unless it is stationary, which a random state
    # almost surely does not make it; the Haar guard covers that case at the
    # default restarts.  In the pinned example a momentum step of X0 gains
    # 6.4e-12 and the next step would gain 1.2e-10: stopping there left
    # restarts=1 1.27e-10 short, and the open gap now sends it on.
    rho = _as_state(ginibre_density(np.random.default_rng(seed), 4, rank), 2)
    exact = fef_two_qubit_oracle(rho)
    for restarts in (None, 1):
        assert abs(fef(rho, restarts=restarts).value - exact) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), rank=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_fef_upper_bound_brackets_value(d, rank, seed):
    rho = _as_state(ginibre_density(np.random.default_rng(seed), d * d,
                                    min(rank, d * d)), d)
    res = fef(rho)
    assert res.value <= res.upper_bound <= max(rho.spectrum.lambda_max,
                                               res.value)
    if d == 2:
        # The bound is an upper bound on the exact FEF.
        assert res.upper_bound >= fef_two_qubit_oracle(rho) - 1e-14


def test_fef_dual_certificate_d2():
    # A certified value (upper_bound within _EPS of it) is within _EPS of
    # the exact FEF; the closed form certifies most ascended states.
    rng = np.random.default_rng(41)
    by_dual = 0
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            rho = _as_state(ginibre_density(rng, 4, rank), 2)
            res = fef(rho)
            if res.upper_bound - res.value > _EPS:
                continue
            assert res.converged
            assert abs(res.value - fef_two_qubit_oracle(rho)) <= 1e-11
            by_dual += res.upper_bound < rho.spectrum.lambda_max
    assert by_dual >= 80


def test_fef_d2_certified_where_the_dual_stays_loose(monkeypatch):
    # The dual's closed-form Y, Z leave the gap open on x2(1/3 < q < 1/2)
    # (where Y (x) I + I (x) Z is a multiple of I) and on ghzw(0.41..0.45);
    # the magic-basis closed form bounds them instead, and d = 2 never
    # evaluates the dual.
    def no_dual_gap(*args):
        raise AssertionError("_dual_gap evaluated at d = 2")

    monkeypatch.setattr(sys.modules[fef.__module__], "_dual_gap", no_dual_gap)
    for k in range(14, 20):
        rho = states.x2(k / 40)
        res = fef(rho)
        assert res.converged
        assert res.upper_bound - res.value <= _EPS
        assert res.upper_bound < rho.spectrum.lambda_max - 1e-3
    for p in (0.41, 0.42, 0.43, 0.44, 0.45):
        res = fef(states.construct("ghzw", p=p))
        assert res.converged
        assert res.upper_bound - res.value <= _EPS
    # Every ACTIVATABLE x2 point on the 0.05 grid now has a certified
    # upper bound at most 1/2.
    for k in range(1, 10):
        rho = states.x2(k / 20)
        assert classify(rho).label == LABEL_ACTIVATABLE
        assert fef(rho).upper_bound <= 0.5
    # Nor on random states, which ascend from X0 and Haar starts.
    rng = np.random.default_rng(43)
    for rank in (1, 2, 3, 4):
        for _ in range(5):
            fef(_as_state(ginibre_density(rng, 4, rank), 2), restarts=3)


def test_fef_dual_certificate_d3_matches_full_stack():
    # A certified d = 3 value is within _EPS of what the full 60-restart
    # stack reaches when no restart stops early.
    rng = np.random.default_rng(42)
    rhos = [_as_state(ginibre_density(rng, 9, rank), 3)
            for rank in (1, 2, 3, 9) for _ in range(8)]
    rhos += [states.y3(k / 40) for k in range(1, 40)]
    certified = 0
    for rho in rhos:
        res = fef(rho)
        if res.iterations == 0 or res.upper_bound - res.value > _EPS:
            continue
        certified += 1
        full, _, _ = _ascent_reference(rho, DEFAULT_RESTARTS[3])
        assert abs(res.value - full) <= 1e-11
    assert certified >= 10


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 3]), rank=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_fef_bracketed_by_overlap_and_lambda_max(d, rank, seed):
    rho = _as_state(ginibre_density(np.random.default_rng(seed), d * d,
                                    min(rank, d * d)), d)
    value = fef(rho).value
    assert fef_lower_bound(rho) <= value
    assert value <= np.linalg.eigvalsh(rho.matrix)[-1]
    assert value >= 1 / d**2 - 1e-12


def test_fef_local_unitary_invariance_d2():
    rng = np.random.default_rng(15)
    for _ in range(20):
        rho = _as_state(ginibre_density(rng, 4), 2)
        base = fef_two_qubit_oracle(rho)
        ua = haar_unitary(rng, 2)
        ub = haar_unitary(rng, 2)
        rot = states.conjugate(rho, np.kron(ua, ub))
        assert fef_two_qubit_closed_form(rot) == pytest.approx(base, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_closed_form_matches_oracle(rank, seed):
    # fef certifies every d = 2 value with the library's closed form, so it
    # is checked here against the test suite's own magic-basis copy.
    rho = _as_state(ginibre_density(np.random.default_rng(seed), 4, rank), 2)
    assert abs(fef_two_qubit_closed_form(rho)
               - fef_two_qubit_oracle(rho)) <= 1e-15


def test_fef_local_unitary_invariance_d3():
    rng = np.random.default_rng(16)
    for _ in range(3):
        rho = _as_state(ginibre_density(rng, 9), 3)
        base = fef(rho, restarts=5, seed=2).value
        ua = haar_unitary(rng, 3)
        ub = haar_unitary(rng, 3)
        rot = states.conjugate(rho, np.kron(ua, ub))
        assert fef(rot, restarts=5, seed=2).value == pytest.approx(base, abs=1e-5)


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), rank=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_fef_local_unitary_invariance_property(d, rank, seed):
    rng = np.random.default_rng(seed)
    rho = _as_state(ginibre_density(rng, d * d, min(rank, d * d)), d)
    rot = states.conjugate(rho, np.kron(haar_unitary(rng, d),
                                        haar_unitary(rng, d)))
    assert fef(rot).value == pytest.approx(fef(rho).value, abs=1e-7)


def test_fef_domain_errors():
    rho = states.x1()
    for restarts in (0, MAX_RESTARTS + 1, 2.7, "3"):
        with pytest.raises(DomainError):
            fef(rho, restarts=restarts)
    for flag in (True, np.True_):  # operator.index reads True as 1
        with pytest.raises(DomainError, match="restarts must be an integer"):
            fef(rho, restarts=flag)
    assert fef(rho, restarts=np.int64(3)).restarts_used == 3
    big = _as_state(np.eye(16, dtype=complex) / 16, 4)
    with pytest.raises(DomainError):
        fef(big)


@pytest.mark.parametrize("seed", [-1, 1.5, None, "3", np.float64(2.0), True,
                                  np.True_])
def test_fef_seed_must_be_nonnegative_int(seed):
    with pytest.raises(DomainError):
        fef(states.x1(), seed=seed)


def test_fef_accepts_integer_like_seeds():
    values = {fef(states.x1(), restarts=4, seed=s).value
              for s in (3, np.int64(3), np.uint8(3))}
    assert len(values) == 1


def test_closed_form_requires_two_qubits():
    with pytest.raises(DomainError):
        fef_two_qubit_closed_form(states.y3(0.5))


def test_y3_corrected_value():
    # Independent closed form: max_c q(2c+1)^2/9 + (1-q)(1-c^2)/3 = 0.3 at q = 0.2
    res = fef(states.y3(0.2), restarts=20, seed=0)
    assert res.value == pytest.approx(0.3, abs=1e-6)
    assert res.value <= 1 / 3 + 1e-9
