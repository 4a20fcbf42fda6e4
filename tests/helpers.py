"""Shared sampling utilities for the test suite."""

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


def capped_spectrum(rng, n, cap):
    """Random probability vector with every entry at most ``cap``."""
    lam = rng.dirichlet(np.ones(n))
    for _ in range(n):
        over = lam > cap
        if not over.any():
            break
        excess = float(np.sum(lam[over] - cap))
        lam[over] = cap
        free = ~over
        lam[free] += excess * lam[free] / max(float(lam[free].sum()), 1e-300)
    return lam


def absolute_state(rng, d):
    """Random d (x) d density matrix with lambda_max <= 1/d."""
    n = d * d
    lam = capped_spectrum(rng, n, 1.0 / d)
    u = haar_unitary(rng, n)
    return (u * lam) @ u.conj().T
