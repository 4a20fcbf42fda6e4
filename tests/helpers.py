"""Shared sampling utilities and exact oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np


def ginibre_density(rng, n, rank=None):
    """Random Ginibre density matrix of rank ``rank`` (default: full rank)."""
    k = n if rank is None else rank
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_unitary(rng, n):
    """Haar-random unitary via QR with phase fix."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def capped_spectrum(rng, n, cap, alpha=1.0):
    """Random probability vector with every entry at most ``cap`` (n * cap > 1).

    The draw starts from a symmetric Dirichlet(``alpha``) point: a small
    ``alpha`` gives sparse spectra that end on the extremal ones (1/cap
    entries at the cap), a large one nearly even spectra.

    Entries above the cap are pinned to it and the excess is spread over the
    entries not yet pinned, in proportion to their weight, until none exceeds
    the cap; each round pins at least one more entry.
    """
    lam = rng.dirichlet(np.full(n, alpha))
    pinned = np.zeros(n, dtype=bool)
    while True:
        over = lam > cap
        if not over.any():
            return lam
        pinned |= over
        excess = float(np.sum(lam[over] - cap))
        lam[over] = cap
        free = ~pinned
        # a sparse draw can leave every free entry at exactly 0
        share = lam[free] if lam[free].sum() > 0 else np.ones(free.sum())
        lam[free] += excess * share / share.sum()


def absolute_state(rng, d, alpha=1.0):
    """Random d (x) d density matrix with lambda_max <= 1/d.

    ``alpha`` is the Dirichlet parameter of :func:`capped_spectrum`.
    """
    n = d * d
    lam = capped_spectrum(rng, n, 1.0 / d, alpha)
    u = haar_unitary(rng, n)
    return (u * lam) @ u.conj().T


def fef_objective(rho, u):
    """<psi+|(I (x) U^dag) rho (I (x) U)|psi+> for the d (x) d state ``rho``,
    with |psi+> = sum_i |ii> / sqrt(d) built from the identity."""
    d = rho.d
    phi = np.kron(np.eye(d), u) @ np.eye(d).ravel() / math.sqrt(d)
    return float(np.real(phi.conj() @ rho.matrix @ phi))


# Magic basis e1..e4 as columns over |00>, |01>, |10>, |11>:
# (|00>+|11>)/sqrt2, i(|00>-|11>)/sqrt2, i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2.
# The maximally entangled two-qubit kets are exactly its real unit vectors,
# up to a phase.
_MAGIC = np.array([
    [1, 1j, 0, 0],
    [0, 0, 1j, 1],
    [0, 0, 1j, -1],
    [1, -1j, 0, 0],
]) / math.sqrt(2)


def fef_two_qubit_oracle(rho):
    """Two-qubit FEF from the magic basis alone: lambda_max(Re(M^dag rho M))
    (Badziag, Horodecki, Horodecki and Horodecki, PRA 62, 012311 (2000))."""
    a = _MAGIC.conj().T @ rho.matrix @ _MAGIC
    return float(np.linalg.eigvalsh(a.real)[-1])


def product_operator(c, stacked):
    """sum_ij c_ij B_i (x) B_j over the (k, n, n) single-party basis ``stacked``."""
    n = stacked.shape[1]
    return np.einsum("ij,iab,jcd->acbd", c, stacked, stacked).reshape(n * n, n * n)


def acin_s_oracle(params, drop):
    """S_k of the canonical form written out by hand, one branch per drop.

    S_1 is the Gram-determinant form 1 - 4 x0^2 (x2^2 + x3^2 + x4^2); each
    branch is 1 - 4 det rho_k of the dropped qubit k.
    """
    x0, x1, x2, x3, x4 = params.x
    ct = np.cos(params.theta)
    if drop == 1:
        det = x0 * x0 * (x2 * x2 + x3 * x3 + x4 * x4)
    elif drop == 2:
        det = (x0 * x0 * x3 * x3 + x2 * x2 * x3 * x3
               - 2 * ct * x1 * x2 * x3 * x4
               + x0 * x0 * x4 * x4 + x1 * x1 * x4 * x4)
    else:
        det = (x0 * x0 * x2 * x2 + x2 * x2 * x3 * x3
               - 2 * ct * x1 * x2 * x3 * x4
               + x0 * x0 * x4 * x4 + x1 * x1 * x4 * x4)
    return 1 - 4 * det


def acin_spectrum_oracle(s):
    """{(1 + sqrt S)/2, (1 - sqrt S)/2, 0, 0}, descending; S < 0 reads as 0."""
    root = np.sqrt(max(s, 0.0))
    return np.array([0.5 * (1 + root), 0.5 * (1 - root), 0.0, 0.0])


def ghzw_spectrum_oracle(p):
    """{0, 2(1-p)/3, p/2, (2+p)/6}, descending."""
    return np.sort([0.0, 2 * (1 - p) / 3, p / 2, (2 + p) / 6])[::-1]


def three_qutrit_spectrum_oracle(alpha, beta):
    """(1-a-b)/9, (1+2a-b)/9 and (1-a+2b)/9, each three times, descending."""
    distinct = [(1 - alpha - beta) / 9, (1 + 2 * alpha - beta) / 9,
                (1 - alpha + 2 * beta) / 9]
    return np.sort(np.repeat(distinct, 3))[::-1]


def partial_transpose(m, d):
    """rho^Gamma: the transpose of party B of a d (x) d matrix, an exact
    permutation of the stored entries."""
    return m.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def exact_psd(h, shift=0):
    """Whether shift I + H is positive semidefinite, decided exactly.

    Every float is a rational number, so the stored entries of H are read as
    the ``Fraction`` each one is, and ``shift`` (a ``Fraction`` or int) is
    added to the diagonal exactly.  A Hermitian H is PSD exactly when its real
    symmetric embedding [[Re H, -Im H], [Im H, Re H]] is.  Symmetric Gaussian
    elimination on the embedding replaces the trailing block by its Schur
    complement over each pivot.  A negative pivot refutes PSD; so does a zero
    pivot whose row is not zero (the 2 x 2 minor through it is negative).
    Otherwise every pivot is >= 0 and the matrix is PSD.  H must be exactly
    Hermitian, as a validated state's matrix is.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    re = [[Fraction(float(v.real)) for v in row] for row in h]
    im = [[Fraction(float(v.imag)) for v in row] for row in h]
    a = [re[i] + [-v for v in im[i]] for i in range(n)]
    a += [im[i] + re[i] for i in range(n)]
    for i in range(2 * n):
        a[i][i] += shift
    for k in range(2 * n):
        pivot = a[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[k][j] for j in range(k + 1, 2 * n)):
                return False
            continue
        for i in range(k + 1, 2 * n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k + 1, 2 * n):
                    a[i][j] -= factor * a[k][j]
    return True
