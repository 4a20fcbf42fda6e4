import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absfef import absolute, states, witness
from absfef.bases import operator_basis
from absfef.errors import DomainError, MatrixShapeError
from absfef.fef import canonical_projector
from absfef.linalg import validate_density
from helpers import absolute_state, ginibre_density, haar_unitary


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 1), (2, 2)])
def test_non_finite_input_fails_both_tolerance_checks(bad, where):
    u = np.array(states.fixture_unitary("U1").matrix)
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
    u = states.fixture_unitary("U1").matrix
    s = witness.pullback(w, u)
    assert np.max(np.abs(s.matrix - u.conj().T @ w.matrix @ u)) < 1e-14
    assert s.pullback_unitary is u or np.array_equal(s.pullback_unitary, u)


def test_fixture_witness_traces():
    w2 = witness.teleportation_witness(2)
    w3 = witness.teleportation_witness(3)
    s1 = witness.pullback(w2, states.fixture_unitary("U1").matrix)
    s2 = witness.pullback(w2, states.fixture_unitary("U2").matrix)
    s3 = witness.pullback(w3, states.fixture_unitary("U3").matrix)
    assert witness.evaluate(s1, states.x1()) == pytest.approx(-1 / 6, abs=1e-12)
    for q in (0.1, 0.3, 0.49):
        assert witness.evaluate(s2, states.x2(q)) \
            == pytest.approx(q - 0.5, abs=1e-12)
        assert witness.evaluate(s3, states.y3(q)) \
            == pytest.approx((2 * q - 1) / 3, abs=1e-12)


def test_s2_matrix_closed_form():
    w2 = witness.teleportation_witness(2)
    s2 = witness.pullback(w2, states.fixture_unitary("U2").matrix)
    assert np.max(np.abs(s2.matrix - np.diag([0.5, -0.5, 0.5, 0.5]))) < 1e-12


def test_evaluate_shape_mismatch():
    s = witness.teleportation_witness(2)
    with pytest.raises(MatrixShapeError):
        witness.evaluate(s, states.y3(0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_refuses_non_finite_expectation(bad):
    s = witness.WitnessOperator(np.full((4, 4), bad, dtype=complex), 2)
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
            assert absolute.max_global_fef(rho) > 0.5
    assert detections > 0


@pytest.mark.parametrize("kind, n", [("pauli", 2), ("gellmann", 3)])
def test_decompose_roundtrip_orthogonal(kind, n):
    rng = np.random.default_rng(32)
    h = ginibre_density(rng, n * n)
    dec = witness.decompose(h, kind)
    assert dec.coefficients.dtype.kind == "f"
    assert np.max(np.abs(dec.reconstruct() - h)) < 1e-10


def _decompose_with_np_kron(h, kind):
    """The coefficients of ``witness.decompose``, built on ``np.kron``."""
    basis = operator_basis(kind)
    k = len(basis.elements)
    coeffs = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            bij = np.kron(basis.elements[i], basis.elements[j])
            val = complex(np.sum(np.conj(bij) * h))
            coeffs[i, j] = val.real / (basis.norms[i] * basis.norms[j])
    return coeffs


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
    cached = witness._conj_products(kind)
    with pytest.raises(ValueError):
        cached[(0,) * cached.ndim] = 9.0
    h = np.diag(np.arange(n * n, dtype=float))
    dec = witness.decompose(h, kind)
    want = dec.coefficients.copy()
    back = dec.reconstruct()
    for arr in (dec.coefficients, back):
        assert not np.shares_memory(arr, cached)
        assert not np.shares_memory(arr, operator_basis(kind).stacked)
    dec.coefficients[:] = 9.0
    back[:] = 9.0
    again = witness.decompose(h, kind)
    assert np.array_equal(again.coefficients, want)
    assert np.max(np.abs(again.reconstruct() - h)) < 1e-10


def test_decompose_s1_pauli_pattern():
    w2 = witness.teleportation_witness(2)
    s1 = witness.pullback(w2, states.fixture_unitary("U1").matrix)
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


@pytest.mark.parametrize("kind, n", [("pauli", 4), ("gellmann", 9)])
def test_decompose_refuses_overflowing_coefficients(kind, n):
    # finite and Hermitian, but the sums of its overlaps exceed the float range;
    # the suite turns any RuntimeWarning into an error
    with pytest.raises(DomainError, match="overflow"):
        witness.decompose(np.diag([1e308] * n).astype(complex), kind)
