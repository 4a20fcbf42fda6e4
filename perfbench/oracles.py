"""Independent reference values the benchmark checks library outputs against.

Nothing here imports ``absfef``: every reference is derived from numpy alone,
so a defect in a library layer cannot also hide in the value it is checked
against.
"""

import math

import numpy as np

FEF_TOL = 1e-6
EXACT_TOL = 1e-10
# Ties with the threshold 1/d count as "at most 1/d"; the paper's labels are
# defined with this tolerance.
BOUNDARY_TOL = 1e-9

USEFUL = "USEFUL"
ACTIVATABLE = "ACTIVATABLE"
ABSOLUTE = "ABSOLUTE"

_S2 = math.sqrt(2)
# Magic basis e1..e4 as columns: (|00>+|11>)/sqrt2, i(|00>-|11>)/sqrt2,
# i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2.  The maximally entangled two-qubit
# kets are exactly the real unit vectors in this basis (up to a phase).
_MAGIC = np.array([
    [1, 1j, 0, 0],
    [0, 0, 1j, 1],
    [0, 0, 1j, -1],
    [1, -1j, 0, 0],
]) / _S2

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

_R3 = 1 / math.sqrt(3)
GELLMANN = np.array([
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    [[_R3, 0, 0], [0, _R3, 0], [0, 0, -2 * _R3]],
], dtype=complex)

BASES = {"pauli": PAULI, "gellmann": GELLMANN}


def x1_matrix():
    """x1 = 2/9 phi+ + 1/9 |01><01| + 1/9 |10><10| + 5/9 |00><00|."""
    m = np.diag([5 / 9, 1 / 9, 1 / 9, 0]).astype(complex)
    m[[0, 0, 3, 3], [0, 3, 0, 3]] += 1 / 9
    return m


def y3_matrix(q):
    """y3(q) = q phi3+ + (1-q) |01><01| on two qutrits."""
    m = np.zeros((9, 9), dtype=complex)
    m[np.ix_([0, 4, 8], [0, 4, 8])] = q / 3
    m[1, 1] += 1 - q
    return m


def fef_two_qubit(m):
    """Two-qubit FEF: the largest eigenvalue of Re(M^dag rho M), M the magic basis."""
    a = _MAGIC.conj().T @ np.asarray(m) @ _MAGIC
    return float(np.linalg.eigvalsh(a.real)[-1])


def fef_y3(q):
    """FEF of y3(q) = q phi3+ + (1-q)|01><01|.

    With U = rotation by c = cos(t) in the |0>,|1> plane, the maximand is
    f(c) = q (2c+1)^2 / 9 + (1-q)(1-c^2) / 3; for any unitary with
    |U_10| = sqrt(1-c^2) both |U_00| and |U_11| are at most c, so this
    rotation is optimal.  f is quadratic in c, so its maximum over [0, 1]
    is at an end point or at the stationary point c* = 2q / (3 - 7q).
    """
    def f(c):
        return q * (2 * c + 1) ** 2 / 9 + (1 - q) * (1 - c * c) / 3

    candidates = [0.0, 1.0]
    if q < 3 / 7 and 0 <= 2 * q / (3 - 7 * q) <= 1:
        candidates.append(2 * q / (3 - 7 * q))
    return max(f(c) for c in candidates)


def lambda_max(m):
    return float(np.linalg.eigvalsh(np.asarray(m))[-1])


def spectrum(m):
    """Eigenvalues in descending order."""
    return np.linalg.eigvalsh(np.asarray(m))[::-1]


def canonical_overlap(m, d):
    """<psi+| rho |psi+> with psi+ = sum_i |ii> / sqrt(d)."""
    m = np.asarray(m)
    idx = np.arange(d) * (d + 1)
    return float(np.real(m[np.ix_(idx, idx)].sum())) / d


def is_absolute(lam, d):
    return lam <= 1 / d + BOUNDARY_TOL


def label(fef_value, lam, d):
    """USEFUL if FEF > 1/d, else ABSOLUTE if lambda_max <= 1/d, else ACTIVATABLE."""
    if fef_value > 1 / d + BOUNDARY_TOL:
        return USEFUL
    if is_absolute(lam, d):
        return ABSOLUTE
    return ACTIVATABLE


def product_operator(coefficients, kind):
    """sum_ij c_ij B_i (x) B_j over the named single-party basis."""
    b = BASES[kind]
    n = b.shape[1]
    return np.einsum("ij,iab,jcd->acbd", coefficients, b, b).reshape(n * n, n * n)


def bloch_operator(a, b, t):
    """I/4 + (1/2) a.s (x) I + (1/2) I (x) b.s + sum t_ij s_i (x) s_j."""
    c = np.empty((4, 4))
    c[0, 0] = 0.25
    c[1:, 0] = 0.5 * np.asarray(a)
    c[0, 1:] = 0.5 * np.asarray(b)
    c[1:, 1:] = t
    return product_operator(c, "pauli")


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
