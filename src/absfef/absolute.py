"""Spectral membership tests for the absolute-FEF set and related quantities.

A d (x) d state stays at FEF <= 1/d under every global unitary exactly when
its largest eigenvalue satisfies lambda_max <= 1/d; the supremum of the FEF
over global rotations equals lambda_max and is attained by an explicit
activating unitary.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .fef import fef
from .linalg import DensityMatrix, as_dim

BOUNDARY_TOL = 1e-9
#: Largest d :func:`purity_bounds` accepts: each witness spectrum holds d^2
#: numbers, at most 10 000.
MAX_PURITY_DIM = 100

LABEL_USEFUL = "USEFUL"
LABEL_ACTIVATABLE = "ACTIVATABLE"
LABEL_ABSOLUTE = "ABSOLUTE"


class MembershipVerdict(NamedTuple):
    absolute: bool
    boundary: bool
    lambda_max: float


def _membership(lam, d):
    """The one threshold rule: ``lam`` <= 1/d + ``BOUNDARY_TOL``.

    A ``lam`` within ``BOUNDARY_TOL`` of 1/d sets the boundary flag.  On
    lambda_max it is membership (the tripartite marginals included);
    :func:`classify` also applies it to the FEF.  Nothing else compares
    lambda_max or an FEF with 1/d.
    """
    return MembershipVerdict(absolute=lam <= 1 / d + BOUNDARY_TOL,
                             boundary=abs(lam - 1 / d) <= BOUNDARY_TOL,
                             lambda_max=lam)


def is_absolute_fef(rho: DensityMatrix):
    """Membership in the absolute-FEF set: lambda_max <= 1/d.

    Returns a :class:`MembershipVerdict`; ties within ``BOUNDARY_TOL``
    count as members with the boundary flag set.
    """
    return _membership(rho.spectrum.lambda_max, rho.d)


def activating_unitary(rho: DensityMatrix):
    """Global unitary rotating the top eigenvector onto |psi+> (up to a phase).

    The Householder reflection U = I - 2 w w^dag / |w|^2 with
    w = v + e^{i phi} |psi+>, e^{i phi} = c / |c| (1 if c = 0) for
    c = <psi+|v>, read off |psi+>'s support |ii>, sends v to
    -e^{i phi} |psi+>; |w|^2 = 2 + 2 |c| >= 2, so no case needs a branch.
    The rotated state achieves canonical overlap lambda_max.
    """
    d = rho.d
    v = rho.spectrum.eigenvectors[:, 0]
    root_d = math.sqrt(d)
    c = complex(v[:: d + 1].sum()) / root_d
    r = abs(c)
    w = v.copy()
    w[:: d + 1] += (c / r if r else 1.0) / root_d
    u = w[:, None] * ((-1 / (1 + r)) * w.conj())
    u.ravel()[:: v.size + 1] += 1  # ravel() is a view: u is fresh, C-ordered
    return u


def is_absolutely_separable_2q(rho: DensityMatrix):
    """Two-qubit absolute separability from the validated spectrum.

    The criterion is lambda_1 <= lambda_3 + 2 sqrt(lambda_2 lambda_4) on the
    descending eigenvalues of the validated 2 (x) 2 state (Verstraete,
    Audenaert and De Moor, PRA 64, 012316 (2001)).
    """
    if rho.d != 2:
        raise DomainError(
            f"absolute separability needs a 2x2 bipartition, got {rho.d}x{rho.d}")
    lam = rho.spectrum.eigenvalues
    return bool(lam[0] <= lam[2] + 2 * math.sqrt(max(lam[1] * lam[3], 0.0)) + 1e-12)


class ClassificationReport(NamedTuple):
    """Three-way teleportation-usefulness verdict for a state.

    ``k_copy_nonlocal`` is about rho, not the activated state: True for
    USEFUL (FEF > 1/d makes rho k-copy nonlocal; Palazuelos, PRL 109,
    190401 (2012)), otherwise None ("unknown"): no verdict either way.
    """

    label: str
    lambda_max: float
    fef_value: float
    threshold: float
    boundary: bool
    k_copy_nonlocal: Optional[bool]
    teleportation_useful: bool
    fef_converged: bool
    fef_restarts: int


def classify(rho: DensityMatrix, restarts=None, seed=0):
    """Classify a state as USEFUL, ACTIVATABLE or ABSOLUTE.

    USEFUL: FEF already exceeds 1/d.  ACTIVATABLE: FEF <= 1/d but some
    global unitary pushes it past the threshold (lambda_max > 1/d).
    ABSOLUTE: no global unitary can help (lambda_max <= 1/d).
    """
    d = rho.d
    thr = 1 / d
    result = fef(rho, restarts=restarts, seed=seed)
    verdict = _membership(rho.spectrum.lambda_max, d)
    f_val = result.value
    at_fef = _membership(f_val, d)

    if not at_fef.absolute:
        label, boundary = LABEL_USEFUL, False
    elif verdict.absolute:
        label, boundary = LABEL_ABSOLUTE, verdict.boundary
    else:
        label, boundary = LABEL_ACTIVATABLE, at_fef.boundary
    return ClassificationReport(
        label=label, lambda_max=verdict.lambda_max, fef_value=f_val,
        threshold=thr, boundary=boundary,
        k_copy_nonlocal=True if label == LABEL_USEFUL else None,
        teleportation_useful=label == LABEL_USEFUL, fef_converged=result.converged,
        fef_restarts=result.restarts_used)


class PurityBounds(NamedTuple):
    """Purity thresholds bracketing the absolute-FEF set.

    ``max_purity_absolute``: largest Tr(rho^2) compatible with membership.
    ``min_purity_nonabsolute``: infimum of Tr(rho^2) over non-members; the
    infimum is not attained (the constraint lambda_1 > 1/d is open), which
    ``min_attained`` records.
    """

    d: int
    max_purity_absolute: float
    min_purity_nonabsolute: float
    witness_spectra: tuple
    min_attained: bool = False


def purity_bounds(d):
    """Closed-form purity thresholds of the absolute-FEF set.

    The purest member spreads 1/d over d eigenvalues (Tr rho^2 = 1/d); the
    least pure non-member pins lambda_1 at 1/d and spreads the rest evenly
    over the other d^2 - 1 (Tr rho^2 = 2/(d(d+1))), an infimum that no
    non-member attains.  Raises :class:`DomainError` unless
    2 <= d <= :data:`MAX_PURITY_DIM`, before allocating anything.
    """
    d = as_dim(d)
    if not 2 <= d <= MAX_PURITY_DIM:
        raise DomainError(f"d must lie in [2, {MAX_PURITY_DIM}], got {d}")
    max_spec = np.zeros(d * d)
    max_spec[:d] = 1 / d
    min_spec = np.full(d * d, 1 / (d * (d + 1)))
    min_spec[0] = 1 / d
    return PurityBounds(d=d, max_purity_absolute=float(np.sum(max_spec**2)),
                        min_purity_nonabsolute=float(np.sum(min_spec**2)),
                        witness_spectra=(max_spec, min_spec))
