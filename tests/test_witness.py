import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absfef import absolute, states, witness
from absfef.bases import operator_basis
from absfef.errors import DomainError, MatrixShapeError
from absfef.fef import canonical_projector
from absfef.linalg import validate_density
from helpers import (absolute_state, ginibre_density, haar_unitary,
                     product_operator)


def test_teleportation_witness_structure():
    for d in (2, 3):
        w = witness.teleportation_witness(d)
        m = w.matrix
        assert np.array_equal(m, np.eye(d * d) / d - canonical_projector(d))
        assert np.max(np.abs(m - m.conj().T)) < 1e-14
        assert np.trace(m).real == pytest.approx(d - 1, abs=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert eigs[0] == pytest.approx(1 / d - 1, abs=1e-12)
        assert eigs[-1] == pytest.approx(1 / d, abs=1e-12)
    for bad in (1, 2.5, 2.9):
        with pytest.raises(DomainError):
            witness.teleportation_witness(bad)
    assert np.array_equal(witness.teleportation_witness(np.int64(3)).matrix,
                          witness.teleportation_witness(3).matrix)


def test_teleportation_witness_is_cached_and_read_only():
    for d in (2, 3, 4):
        w = witness.teleportation_witness(d)
        assert witness.teleportation_witness(d) is w
        assert witness.teleportation_witness(np.int64(d)) is w
        with pytest.raises(ValueError):
            w.matrix[0, 0] = 9.0
        s = witness.pullback(w, np.eye(d * d))
        assert s.matrix.flags.writeable
        assert not np.shares_memory(s.matrix, w.matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 1), (2, 2)])
def test_non_finite_input_fails_both_tolerance_checks(bad, where):
    u = np.array(states.fixture_unitary("U1"))
    u[where] = bad
    with pytest.raises(DomainError):
        witness.pullback(witness.teleportation_witness(2), u)
    h = np.eye(4, dtype=complex)
    h[where] = bad
    with pytest.raises(DomainError):
        witness.decompose(h, "pauli")


def test_pullback_checks_unitarity_and_shape():
    w = witness.teleportation_witness(2)
    with pytest.raises(MatrixShapeError):
        witness.pullback(w, np.eye(9))
    with pytest.raises(DomainError):
        witness.pullback(w, np.eye(4) * 2)
    u = states.fixture_unitary("U1")
    s = witness.pullback(w, u)
    assert np.max(np.abs(s.matrix - u.conj().T @ w.matrix @ u)) < 1e-14


def test_fixture_witness_traces():
    w2 = witness.teleportation_witness(2)
    w3 = witness.teleportation_witness(3)
    s1 = witness.pullback(w2, states.fixture_unitary("U1"))
    s2 = witness.pullback(w2, states.fixture_unitary("U2"))
    s3 = witness.pullback(w3, states.fixture_unitary("U3"))
    assert witness.evaluate(s1, states.x1()) == pytest.approx(-1 / 6, abs=1e-12)
    for q in (0.1, 0.3, 0.49):
        assert witness.evaluate(s2, states.x2(q)) \
            == pytest.approx(q - 0.5, abs=1e-12)
        assert witness.evaluate(s3, states.y3(q)) \
            == pytest.approx((2 * q - 1) / 3, abs=1e-12)


def test_s2_matrix_closed_form():
    w2 = witness.teleportation_witness(2)
    s2 = witness.pullback(w2, states.fixture_unitary("U2"))
    assert np.max(np.abs(s2.matrix - np.diag([0.5, -0.5, 0.5, 0.5]))) < 1e-12


def test_evaluate_shape_mismatch():
    s = witness.teleportation_witness(2)
    with pytest.raises(MatrixShapeError):
        witness.evaluate(s, states.y3(0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_refuses_non_finite_expectation(bad):
    s = witness.WitnessOperator(np.full((4, 4), bad, dtype=complex))
    with pytest.raises(DomainError):
        witness.evaluate(s, states.x1())


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.05, 20.0))
def test_witness_nonnegative_on_absolute_states(d, seed, alpha):
    # Tr(U^dag W U sigma) = 1/d - <psi+|U sigma U^dag|psi+> >= 1/d - lambda_max.
    rng = np.random.default_rng(seed)
    s = witness.pullback(witness.teleportation_witness(d),
                         haar_unitary(rng, d * d))
    sigma = validate_density(absolute_state(rng, d, alpha), d, d)
    assert witness.evaluate(s, sigma) >= -1e-12


def test_negative_detection_implies_activatable():
    rng = np.random.default_rng(31)
    w = witness.teleportation_witness(2)
    detections = 0
    for _ in range(300):
        rho = validate_density(ginibre_density(rng, 4), 2, 2)
        u = absolute.activating_unitary(rho)
        val = witness.evaluate(witness.pullback(w, u), rho)
        if val < -1e-12:
            detections += 1
            assert rho.spectrum.lambda_max > 0.5
    assert detections > 0


@pytest.mark.parametrize("kind, n", [("pauli", 2), ("gellmann", 3)])
def test_decompose_roundtrip_orthogonal(kind, n):
    rng = np.random.default_rng(32)
    h = ginibre_density(rng, n * n)
    dec = witness.decompose(h, kind)
    assert dec.coefficients.dtype.kind == "f"
    back = product_operator(dec.coefficients, operator_basis(kind).stacked)
    assert np.max(np.abs(back - h)) < 1e-10


def _decompose_with_np_kron(h, kind):
    """The coefficients of ``witness.decompose``, built on ``np.kron``.

    Row i k + j holds vec(B_i (x) B_j) as interleaved real and imaginary
    parts, so one matrix-vector product with the interleaved parts of vec(h)
    gives every Re Tr((B_i (x) B_j)^dag h), each then divided by its norm
    product.
    """
    basis = operator_basis(kind)
    k = len(basis.stacked)
    rows = np.array([np.kron(bi, bj).reshape(-1).view(np.float64)
                     for bi in basis.stacked for bj in basis.stacked])
    parts = np.array(h, dtype=complex, order="C").reshape(-1).view(np.float64)
    overlaps = (rows @ parts).reshape(k, k)
    return overlaps / np.array([[ni * nj for nj in basis.norms]
                                for ni in basis.norms])


@pytest.mark.parametrize("kind, n", [("pauli", 2), ("gellmann", 3)])
def test_decompose_bitwise_matches_np_kron_reference(kind, n):
    rng = np.random.default_rng(34)
    for _ in range(50):
        g = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        h = g + g.conj().T
        got = witness.decompose(h, kind).coefficients
        want = _decompose_with_np_kron(h, kind)
        assert got.tobytes() == want.tobytes()


def _layouts(h):
    """``h`` as Fortran-ordered, transposed and strided views, all equal."""
    n = h.shape[0]
    wide = np.zeros((2 * n, 3 * n), dtype=complex)
    wide[::2, ::3] = h
    return {"fortran": np.asfortranarray(h),
            "transposed": np.ascontiguousarray(h.T).T,
            "strided": wide[::2, ::3],
            "fortran_strided": np.asfortranarray(wide)[::2, ::3]}


@pytest.mark.parametrize("kind, n", [("pauli", 2), ("gellmann", 3)])
def test_decompose_is_bitwise_in_every_memory_layout(kind, n):
    rng = np.random.default_rng(35)
    for _ in range(50):
        g = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        h = (g + g.conj().T) * 10.0 ** rng.uniform(-8, 8)
        want = _decompose_with_np_kron(h, kind).tobytes()
        for name, view in _layouts(h).items():
            assert np.array_equal(view, h)
            got = witness.decompose(view, kind).coefficients
            assert got.tobytes() == want, name
        rho = validate_density(ginibre_density(rng, n * n), n, n)
        assert not rho.matrix.flags.writeable
        assert (witness.decompose(rho.matrix, kind).coefficients.tobytes()
                == _decompose_with_np_kron(rho.matrix, kind).tobytes())


@pytest.mark.parametrize("kind, n", [("pauli", 2), ("gellmann", 3)])
def test_decompose_results_do_not_alias_the_cache(kind, n):
    basis = operator_basis(kind)
    h = np.diag(np.arange(n * n, dtype=float))
    dec = witness.decompose(h, kind)
    want = dec.coefficients.copy()
    cached = (basis.expansion_matrix, basis.norm_products)
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0
    assert basis.expansion_matrix.shape == (n ** 4, 2 * n ** 4)
    for matrix in (*cached, basis.stacked):
        assert not np.shares_memory(dec.coefficients, matrix)
    dec.coefficients[:] = 9.0
    again = witness.decompose(h, kind)
    assert np.array_equal(again.coefficients, want)
    back = product_operator(again.coefficients, basis.stacked)
    assert np.max(np.abs(back - h)) < 1e-10
    assert basis.expansion_matrix is cached[0]
    assert basis.norm_products is cached[1]


def test_decompose_s1_pauli_pattern():
    w2 = witness.teleportation_witness(2)
    s1 = witness.pullback(w2, states.fixture_unitary("U1"))
    c = witness.decompose(s1.matrix, "pauli").coefficients
    want = np.zeros((4, 4))
    want[0, 0] = 0.25
    want[3, 0] = want[0, 3] = want[3, 3] = -0.25
    assert np.max(np.abs(c - want)) < 1e-12


def test_decompose_rejects_bad_input():
    with pytest.raises(DomainError):
        witness.decompose(np.array([[0, 1], [0, 0]], dtype=complex)
                          .repeat(2, 0).repeat(2, 1), "pauli")
    with pytest.raises(MatrixShapeError):
        witness.decompose(np.eye(9), "pauli")
    with pytest.raises(DomainError):
        witness.decompose(np.eye(4), "fourier")
    # H - H^dag overflows here; the check still refuses H, with no warning
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1], h[1, 0] = 1e308, -1e308
    with pytest.raises(DomainError, match="Hermitian"):
        witness.decompose(h, "pauli")


@pytest.mark.parametrize("kind, n", [("pauli", 4), ("gellmann", 9)])
def test_decompose_refuses_overflowing_coefficients(kind, n):
    # finite and Hermitian, but the sums of its overlaps exceed the float range;
    # the suite turns any RuntimeWarning into an error
    with pytest.raises(DomainError, match="overflow"):
        witness.decompose(np.diag([1e308] * n).astype(complex), kind)
