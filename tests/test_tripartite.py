import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absfef import tripartite
from absfef.absolute import _membership, is_absolute_fef
from absfef.errors import DomainError
from absfef.fef import canonical_projector
from absfef.linalg import partial_trace
from helpers import (acin_s_oracle, acin_spectrum_oracle, ghzw_spectrum_oracle,
                     three_qutrit_spectrum_oracle)


def _random_acin(rng):
    x = np.abs(rng.normal(size=5))
    x /= np.linalg.norm(x)
    return tripartite.AcinParams(x=tuple(x), theta=rng.uniform(0, math.pi))


def _agrees_with_membership(rep):
    """The report's verdict is the spectral rule applied to its own marginal."""
    return (rep.absolute, rep.boundary) == tuple(is_absolute_fef(rep.marginal))[:2]


# lambda_max = 0.50001 at drops 1 and 3 (1e-5 above 1/2, though S = 4e-10
# is within 1e-9 of 0) and 1 at drop 2
_NEAR_BOUNDARY = tripartite.AcinParams(
    x=(math.sqrt(0.5 + 1e-5), 0, math.sqrt(0.5 - 1e-5), 0, 0))


def test_acin_params_validation():
    with pytest.raises(DomainError):
        tripartite.AcinParams(x=(1, 0, 0, 0))
    with pytest.raises(DomainError):
        tripartite.AcinParams(x=(0.8, 0.6, 0, 0, 0.5))
    with pytest.raises(DomainError):
        tripartite.AcinParams(x=(-1, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        tripartite.AcinParams(x=(1, 0, 0, 0, 0), theta=4.0)
    with pytest.raises(DomainError):
        tripartite.AcinParams(x=(math.nan, 0, 0, 0, 1))


def test_acin_state_normalized():
    p = tripartite.AcinParams(x=(0.5, 0.5, 0.5, 0.5, 0.0), theta=1.0)
    ket = tripartite.acin_state(p)
    assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)
    assert ket[4] == pytest.approx(0.5 * complex(math.cos(1), math.sin(1)))


@pytest.mark.parametrize("drop", [1, 2, 3])
def test_acin_s_values_match_partial_trace(drop):
    rng = np.random.default_rng(50)
    for params in [_NEAR_BOUNDARY] + [_random_acin(rng) for _ in range(100)]:
        rep = tripartite.acin_marginal(params, drop)
        oracle = acin_spectrum_oracle(acin_s_oracle(params, drop))
        assert np.max(np.abs(oracle - rep.marginal.spectrum.eigenvalues)) < 1e-10
        assert _agrees_with_membership(rep)
    near = tripartite.acin_marginal(_NEAR_BOUNDARY, drop)
    assert (near.absolute, near.boundary) == (False, False)


def test_acin_ghz_counterexample_to_printed_s1():
    # At GHZ parameters the marginal spectrum is {1/2, 1/2, 0, 0}, which
    # forces S1 = 0; the discrepant published expression for S1 evaluates
    # to -1 there, while the Gram-determinant form matches the oracle.
    params = tripartite.AcinParams(x=(1 / math.sqrt(2), 0, 0, 0, 1 / math.sqrt(2)))
    x0, x1, x2, x3, x4 = params.x
    printed_s1 = 1 + 4 * (x2**2 + x3**2 - x4**2 + x1**2 * x4**2
                          + x3**2 * (-1 + x1**2 + 2 * x4**2)
                          + x2**2 * (-1 + x1**2 + 2 * x3**2 + 2 * x4**2))
    assert printed_s1 == pytest.approx(-1.0, abs=1e-12)
    assert acin_s_oracle(params, 1) == pytest.approx(0.0, abs=1e-12)
    rep = tripartite.acin_marginal(params, 1)
    lam = rep.marginal.spectrum.eigenvalues
    assert (lam[0] - lam[1]) ** 2 == pytest.approx(0.0, abs=1e-12)  # S1
    assert lam == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)
    assert rep.absolute and rep.boundary


def test_acin_marginal_bad_drop():
    # drop is the 1-based qubit; a bool, a float or a string is no integer
    params = tripartite.AcinParams(x=(1, 0, 0, 0, 0))
    for drop, message in ((True, "drop must be an integer, got True"),
                          (2.0, "drop must be an integer, got 2.0"),
                          ("1", "drop must be an integer, got '1'"),
                          (0, "drop must be 1, 2 or 3, got 0"),
                          (4, "drop must be 1, 2 or 3, got 4")):
        with pytest.raises(DomainError) as info:
            tripartite.acin_marginal(params, drop)
        assert str(info.value) == message
    rep = tripartite.acin_marginal(params, np.int64(2))
    assert np.array_equal(rep.marginal.matrix,
                          tripartite.acin_marginal(params, 2).marginal.matrix)


def test_ghzw_marginal_spectrum_and_flip():
    for p in (0.0, 0.1, 0.25, 0.6, 1.0, 0.25 - 1e-6, 0.25 + 1e-6):
        rep = tripartite.ghzw_marginal(p)
        oracle = ghzw_spectrum_oracle(p)
        assert np.max(np.abs(oracle - rep.marginal.spectrum.eigenvalues)) < 1e-10
        assert _agrees_with_membership(rep)
    assert not tripartite.ghzw_marginal(0.25 - 1e-6).absolute
    assert tripartite.ghzw_marginal(0.25 + 1e-6).absolute
    assert tripartite.ghzw_marginal(0.25).boundary
    with pytest.raises(DomainError):
        tripartite.ghzw_marginal(1.5)


_AMPLITUDES = st.lists(st.floats(0, 1), min_size=5, max_size=5).filter(
    lambda v: max(v) >= 1e-3)


@settings(max_examples=200, deadline=None)
@given(v=_AMPLITUDES, theta=st.floats(0, math.pi))
def test_pure_state_marginal_is_the_dropped_qubit(v, theta):
    # By the canonical form and local-unitary invariance these cover every
    # pure three-qubit state.  rho_AB shares its nonzero spectrum with the
    # dropped qubit's rho_k, so the verdict is the threshold rule on
    # lambda_max(rho_k).
    x = np.array(v) / np.linalg.norm(v)
    params = tripartite.AcinParams(x=tuple(x), theta=theta)
    psi = tripartite.acin_state(params).reshape(2, 2, 2)
    for drop in (1, 2, 3):
        rep = tripartite.acin_marginal(params, drop)
        assert rep.eigenvalues is rep.marginal.spectrum.eigenvalues
        m = np.moveaxis(psi, drop - 1, 0).reshape(2, 4)
        rho_k = np.linalg.eigvalsh(m @ m.conj().T)[::-1]
        assert np.max(np.abs(rep.eigenvalues[:2] - rho_k)) <= 1e-14
        assert np.max(np.abs(rep.eigenvalues[2:])) <= 1e-14
        assert rep.absolute == _membership(float(rho_k[0]), 2).absolute


def test_ghzw_marginal_drop_invariant():
    rho3 = tripartite.ghzw_state(0.3)
    reds = [partial_trace(rho3, [2, 2, 2], k) for k in range(3)]
    assert np.max(np.abs(reds[0] - reds[1])) < 1e-12
    assert np.max(np.abs(reds[0] - reds[2])) < 1e-12
    assert np.trace(reds[0]).real == pytest.approx(1.0, abs=1e-14)


def test_three_qutrit_marginal_grid():
    for alpha in np.linspace(0, 1, 6):
        for beta in np.linspace(0, 1, 6):
            if alpha + beta > 1 + 1e-12:
                continue
            rep = tripartite.three_qutrit_marginal(alpha, beta)
            oracle = three_qutrit_spectrum_oracle(alpha, beta)
            assert np.max(np.abs(oracle - rep.marginal.spectrum.eigenvalues)) < 1e-10
            assert rep.absolute
            assert _agrees_with_membership(rep)


def test_three_qutrit_vertices():
    rep = tripartite.three_qutrit_marginal(1.0, 0.0)
    assert np.sort(np.unique(np.round(rep.marginal.spectrum.eigenvalues, 12))) \
        == pytest.approx([0.0, 1 / 3], abs=1e-12)
    assert rep.boundary
    with pytest.raises(DomainError):
        tripartite.three_qutrit_marginal(0.7, 0.7)
    for alpha, beta in ((math.nan, 0), (0, math.nan)):
        with pytest.raises(DomainError):
            tripartite.three_qutrit_state(alpha, beta)


def test_states_do_not_alias_the_cached_projectors():
    cached = (tripartite._GHZ, tripartite._W, tripartite._GHZ3, tripartite._PERM3)
    for proj in cached:
        with pytest.raises(ValueError):
            proj[0, 0] = 9.0
        assert np.trace(proj).real == pytest.approx(1.0, abs=1e-15)
    for build, args in ((tripartite.ghzw_state, (1.0,)),
                        (tripartite.ghzw_state, (0.3,)),
                        (tripartite.three_qutrit_state, (1.0, 0.0)),
                        (tripartite.three_qutrit_state, (0.2, 0.5))):
        m = build(*args)
        want = m.copy()
        assert m.flags.writeable
        for proj in cached:
            assert not np.shares_memory(m, proj)
        m[:] = 9.0
        assert np.array_equal(build(*args), want)


def test_projectors_are_exact():
    # canonical_projector and the tripartite constants share one rule; each
    # must equal (1/k)|k><k|, k the literal 0/1 ket below, bit for bit.
    # canonical_projector returns a fresh writable array, the constants are
    # read-only.
    cached = (tripartite._GHZ, tripartite._W, tripartite._GHZ3,
              tripartite._PERM3)
    for proj, ket, value in (
            (canonical_projector(2), "1001", 1 / 2),
            (canonical_projector(3), "100010001", 1 / 3),
            (canonical_projector(4), "1000010000100001", 1 / 4),
            (tripartite._GHZ, "10000001", 1 / 2),
            (tripartite._W, "01101000", 1 / 3),
            (tripartite._GHZ3, "100000000000010000000000001", 1 / 3),
            (tripartite._PERM3, "000001010001000100010100000", 1 / 6)):
        bits = np.array([float(c) for c in ket])
        want = (value * np.outer(bits, bits)).astype(complex)
        assert proj.dtype == want.dtype and proj.shape == want.shape
        assert proj.tobytes() == want.tobytes()
        assert np.trace(proj) == 1
        assert proj.flags.writeable == all(proj is not c for c in cached)
    # the GHZ-W flip at p = 1/4 sits exactly on lambda_max = 1/2
    assert tripartite.ghzw_marginal(0.25).marginal.spectrum.lambda_max == 0.5
