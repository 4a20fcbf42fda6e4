import numpy as np
import pytest

from absfef.errors import DensityValidationError, DomainError, MatrixShapeError
from absfef.linalg import (DensityMatrix, eig_hermitian, partial_trace,
                           validate_density)
from helpers import ginibre_density


def test_eig_hermitian_descending_and_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = ginibre_density(rng, 9)
        spec = eig_hermitian(h)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-14)
        rec = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rec - h)) < 1e-9
        assert spec.lambda_max == pytest.approx(spec.eigenvalues[0])
        assert np.sum(spec.eigenvalues**2) == pytest.approx(
            np.real(np.trace(h @ h)), abs=1e-12)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(DensityValidationError) as exc:
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert exc.value.invariant == "hermiticity"


def test_eig_hermitian_rejects_non_square():
    with pytest.raises(MatrixShapeError,
                       match=r"^expected a square matrix, got shape \(2, 3\)$"):
        eig_hermitian(np.ones((2, 3)))


def test_eig_hermitian_rejects_empty():
    with pytest.raises(MatrixShapeError,
                       match=r"^expected a non-empty matrix, got shape \(0, 0\)$"):
        eig_hermitian(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_hermitian_rejects_non_finite_entries(bad):
    # eigh reads one triangle only, so a NaN above the diagonal went unseen
    h = np.eye(4, dtype=complex) / 4
    h[0, 1] = bad
    with pytest.raises(DensityValidationError) as exc:
        eig_hermitian(h)
    assert (exc.value.invariant, exc.value.magnitude) == ("finiteness", 1.0)


def test_eig_hermitian_refuses_overflow_without_warnings():
    # the suite turns any RuntimeWarning into an error
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1], h[1, 0] = 1e308, -1e308  # H - H^dag overflows
    with pytest.raises(DensityValidationError) as exc:
        eig_hermitian(h)
    assert exc.value.invariant == "hermiticity"
    # finite and Hermitian, but the top eigenvalue 3.4e308 overflows
    h = np.diag([1.7e308, -1.7e308, 1.7e308, 0]).astype(complex)
    h[0, 2] = h[2, 0] = 1.7e308
    with pytest.raises(DomainError, match="overflow"):
        eig_hermitian(h)


def test_partial_trace_traces_and_linearity():
    rng = np.random.default_rng(2)
    a = ginibre_density(rng, 8)
    b = ginibre_density(rng, 8)
    for drop in range(3):
        ra = partial_trace(a, [2, 2, 2], drop)
        assert np.trace(ra) == pytest.approx(1.0, abs=1e-12)
        mix = partial_trace(0.3 * a + 0.7 * b, [2, 2, 2], drop)
        sep = 0.3 * ra + 0.7 * partial_trace(b, [2, 2, 2], drop)
        assert np.max(np.abs(mix - sep)) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = ginibre_density(rng, 2)
    b = ginibre_density(rng, 3)
    assert np.max(np.abs(partial_trace(np.kron(a, b), [2, 3], 1) - a)) < 1e-12
    assert np.max(np.abs(partial_trace(np.kron(a, b), [2, 3], 0) - b)) < 1e-12


def test_partial_trace_shape_errors():
    with pytest.raises(MatrixShapeError):
        partial_trace(np.eye(6) / 6, [2, 2], 0)
    with pytest.raises(MatrixShapeError):
        partial_trace(np.eye(4) / 4, [2, 2], 2)
    with pytest.raises(DomainError, match="drop index must be an integer"):
        partial_trace(np.eye(4) / 4, [2, 2], 1.5)
    assert np.array_equal(partial_trace(np.eye(4) / 4, [2, 2], np.int64(1)),
                          np.eye(2) / 2)


def test_validate_density_accepts_and_freezes():
    rho = validate_density(np.eye(4) / 4, 2, 2)
    assert isinstance(rho, DensityMatrix)
    assert rho.d == 2
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
    assert rho.purity() == pytest.approx(0.25)
    # eigenvalues down to -HERMITICITY_TOL lift the top entry past 1
    edge = validate_density(np.diag([1 + 3e-10, -1e-10, -1e-10, -1e-10]), 2, 2)
    assert edge.spectrum.lambda_max == 1 + 3e-10


def test_density_spectrum_is_cached_descending_and_read_only():
    rng = np.random.default_rng(4)
    m = ginibre_density(rng, 9)
    rho = validate_density(m, 3, 3)
    spec = rho.spectrum
    assert rho.spectrum is spec
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    assert spec.eigenvalues == pytest.approx(
        np.linalg.eigvalsh(m)[::-1], abs=1e-14)
    back = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(back - rho.matrix)) < 1e-14
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 9.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 9.0


def test_validate_density_keeps_the_hermitian_part():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-12j  # within HERMITICITY_TOL
    rho = validate_density(m, 2, 2)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert rho.matrix[0, 1] == 0.5e-12j


def _mixed_with(*entries):
    """I/4 with each (i, j, value) entry set."""
    m = np.eye(4) / 4
    for i, j, value in entries:
        m[i, j] = value
    return m


@pytest.mark.parametrize("m, invariant", [
    (_mixed_with((0, 1, 0.1), (1, 0, 0.3)), "hermiticity"),
    (np.eye(4), "trace"),
    (np.diag([1.5, -0.5, 0, 0]), "positivity"),
    (np.full((4, 4), np.nan), "finiteness"),
    (_mixed_with((0, 0, np.inf)), "finiteness"),
    # |m_ij| <= 1 on a density matrix: larger entries are refused before any
    # sum that could overflow is formed (the suite turns RuntimeWarning into
    # an error); Hermitian with unit trace, then with M - M^dag and the
    # trace out of range too
    (_mixed_with((0, 1, 1e308), (1, 0, 1e308)), "positivity"),
    (_mixed_with((0, 1, 1e308), (1, 0, -1e308)), "positivity"),
    (_mixed_with((0, 0, 1e308), (1, 1, -1e308)), "positivity"),
])
def test_validate_density_names_invariant(m, invariant):
    with pytest.raises(DensityValidationError) as exc:
        validate_density(m.astype(complex), 2, 2)
    assert exc.value.invariant == invariant
    assert exc.value.magnitude > 0


def test_validate_density_shape():
    for d_a, d_b in ((2, 3), (2, 4), (4, 2), (1, 4)):
        with pytest.raises(MatrixShapeError,
                           match=f"expected a d x d bipartition, got {d_a}x{d_b}"):
            validate_density(np.eye(4) / 4, d_a, d_b)
    with pytest.raises(MatrixShapeError, match="does not match dims 3x3"):
        validate_density(np.eye(4) / 4, 3, 3)


def test_dimensions_must_be_integers():
    for dims in ((2.5, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(DomainError):
            validate_density(np.eye(4) / 4, *dims)
        with pytest.raises(DomainError):
            partial_trace(np.eye(4) / 4, dims, 0)
    rho = validate_density(np.eye(4) / 4, np.int64(2), np.int64(2))
    assert type(rho.d) is int and rho.d == 2


@pytest.mark.parametrize("flag", [True, np.True_])
def test_bools_are_not_integers(flag):
    # operator.index reads True as 1: a dimension of 1, or party 1 to drop
    with pytest.raises(DomainError, match="dimension must be an integer"):
        validate_density(np.eye(4) / 4, flag, flag)
    with pytest.raises(DomainError, match="dimension must be an integer"):
        partial_trace(np.eye(4) / 4, [flag, 4], 0)
    with pytest.raises(DomainError, match="drop index must be an integer"):
        partial_trace(np.eye(4) / 4, [2, 2], flag)


@pytest.mark.parametrize("d", [-2, -1, 0, 1])
def test_dimensions_below_two_are_refused(d):
    with pytest.raises(DomainError, match=f"^d must be >= 2, got {d}$"):
        validate_density(np.eye(4) / 4, d, d)
    if d < 1:
        with pytest.raises(DomainError, match="subsystem dims must be >= 1"):
            partial_trace(np.eye(4) / 4, [d, 4], 0)
    else:  # tracing out a one-dimensional party changes nothing
        assert np.array_equal(partial_trace(np.eye(4) / 4, [d, 4], 0),
                              np.eye(4) / 4)


def test_density_spectrum_is_eig_hermitian_bitwise():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for _ in range(20):
            rho = validate_density(ginibre_density(rng, d * d), d, d)
            want = eig_hermitian(rho.matrix)
            assert np.array_equal(rho.spectrum.eigenvalues, want.eigenvalues)
            assert np.array_equal(rho.spectrum.eigenvectors, want.eigenvectors)
