import math

import numpy as np
import pytest

from absfef import tripartite
from absfef.absolute import is_absolute_fef
from absfef.errors import DomainError
from absfef.linalg import partial_trace


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
        oracle = np.sort(np.linalg.eigvalsh(rep.marginal.matrix))[::-1]
        assert np.max(np.abs(oracle - rep.eigenvalues)) < 1e-10
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
    rep = tripartite.acin_marginal(params, 1)
    assert rep.s_value == pytest.approx(0.0, abs=1e-12)
    assert np.sort(np.linalg.eigvalsh(rep.marginal.matrix))[::-1] \
        == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)
    assert rep.absolute and rep.boundary


def test_acin_marginal_bad_drop():
    params = tripartite.AcinParams(x=(1, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        tripartite.acin_marginal(params, 4)


def test_ghzw_marginal_spectrum_and_flip():
    for p in (0.0, 0.1, 0.25, 0.6, 1.0, 0.25 - 1e-6, 0.25 + 1e-6):
        rep = tripartite.ghzw_marginal(p)
        oracle = np.sort(np.linalg.eigvalsh(rep.marginal.matrix))[::-1]
        assert np.max(np.abs(oracle - rep.eigenvalues)) < 1e-10
        assert _agrees_with_membership(rep)
    assert not tripartite.ghzw_marginal(0.25 - 1e-6).absolute
    assert tripartite.ghzw_marginal(0.25 + 1e-6).absolute
    assert tripartite.ghzw_marginal(0.25).boundary
    with pytest.raises(DomainError):
        tripartite.ghzw_marginal(1.5)


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
            oracle = np.sort(np.linalg.eigvalsh(rep.marginal.matrix))[::-1]
            assert np.max(np.abs(oracle - rep.eigenvalues)) < 1e-10
            assert rep.absolute
            assert _agrees_with_membership(rep)


def test_three_qutrit_vertices():
    rep = tripartite.three_qutrit_marginal(1.0, 0.0)
    assert np.sort(np.unique(np.round(rep.eigenvalues, 12))) \
        == pytest.approx([0.0, 1 / 3], abs=1e-12)
    assert rep.boundary
    with pytest.raises(DomainError):
        tripartite.three_qutrit_marginal(0.7, 0.7)
