"""Spectral membership tests for the absolute-FEF set and related quantities.

A d (x) d state stays at FEF <= 1/d under every global unitary exactly when
its largest eigenvalue satisfies lambda_max <= 1/d; the supremum of the FEF
over global rotations equals lambda_max and is attained by an explicit
activating unitary.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, MatrixShapeError
from .fef import canonical_ket, fef
from .linalg import DensityMatrix

BOUNDARY_TOL = 1e-9

LABEL_USEFUL = "USEFUL"
LABEL_ACTIVATABLE = "ACTIVATABLE"
LABEL_ABSOLUTE = "ABSOLUTE"


class MembershipVerdict(NamedTuple):
    absolute: bool
    boundary: bool
    lambda_max: float


def _require_square(rho: DensityMatrix):
    if not rho.is_square_bipartition:
        raise MatrixShapeError(
            f"expected a square bipartition, got {rho.dim_a}x{rho.dim_b}")


def _membership(lam, d, tol=BOUNDARY_TOL):
    """The one threshold rule: ``lam`` <= 1/d + tol, on the boundary within tol.

    On lambda_max it is membership (the tripartite marginals included);
    :func:`classify` also applies it to the FEF.  Nothing else compares
    lambda_max or an FEF with 1/d.
    """
    return MembershipVerdict(absolute=lam <= 1 / d + tol,
                             boundary=abs(lam - 1 / d) <= tol,
                             lambda_max=lam)


def is_absolute_fef(rho: DensityMatrix, tol=BOUNDARY_TOL):
    """Membership in the absolute-FEF set: lambda_max <= 1/d.

    Returns a :class:`MembershipVerdict`; ties within ``tol`` count as
    members with the boundary flag set.
    """
    return _membership(max_global_fef(rho), rho.dim_a, tol)


def max_global_fef(rho: DensityMatrix):
    """Supremum of the FEF over all global unitaries: lambda_max(rho)."""
    _require_square(rho)
    return rho.spectrum.lambda_max


def activating_unitary(rho: DensityMatrix):
    """Global unitary rotating the top eigenvector onto |psi+> (up to a phase).

    The Householder reflection U = I - 2 w w^dag / |w|^2 with
    w = v + e^{i phi} |psi+>, phi = arg <psi+|v>, sends v to
    -e^{i phi} |psi+>; |w|^2 = 2 + 2 |<psi+|v>| >= 2, so no case needs a
    branch.  The rotated state achieves canonical overlap lambda_max.
    """
    _require_square(rho)
    psi = canonical_ket(rho.dim_a)
    v = rho.spectrum.eigenvectors[:, 0]
    w = v + np.exp(1j * np.angle(np.vdot(psi, v))) * psi
    return np.eye(v.size) - (2 / np.vdot(w, w).real) * np.outer(w, w.conj())


def is_absolutely_separable_2q(spectrum):
    """Two-qubit absolute separability from the spectrum.

    The criterion is lambda_1 <= lambda_3 + 2 sqrt(lambda_2 lambda_4) on
    four descending eigenvalues summing to one.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.shape != (4,):
        raise DomainError(f"expected 4 eigenvalues, got shape {lam.shape}")
    if np.any(lam < -1e-12):
        raise DomainError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 1e-12):
        raise DomainError("eigenvalues must be sorted in descending order")
    if abs(lam.sum() - 1) > 1e-9:
        raise DomainError(f"eigenvalues must sum to 1, got {lam.sum()!r}")
    return bool(lam[0] <= lam[2] + 2 * math.sqrt(max(lam[1] * lam[3], 0.0)) + 1e-12)


@dataclass(frozen=True)
class ClassificationReport:
    """Three-way teleportation-usefulness verdict for a state.

    ``k_copy_nonlocal`` is None for ABSOLUTE states: the spectral criterion
    gives no conclusion there, and the report must not claim locality.
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


def classify(rho: DensityMatrix, restarts=None, seed=0, tol=1e-8):
    """Classify a state as USEFUL, ACTIVATABLE or ABSOLUTE.

    USEFUL: FEF already exceeds 1/d.  ACTIVATABLE: FEF <= 1/d but some
    global unitary pushes it past the threshold (lambda_max > 1/d).
    ABSOLUTE: no global unitary can help (lambda_max <= 1/d).
    """
    _require_square(rho)
    d = rho.dim_a
    thr = 1 / d
    result = fef(rho, restarts=restarts, seed=seed, tol=tol)
    verdict = _membership(rho.spectrum.lambda_max, d)
    f_val = result.value
    at_fef = _membership(f_val, d)

    if not at_fef.absolute:
        label, boundary = LABEL_USEFUL, False
    elif verdict.absolute:
        label, boundary = LABEL_ABSOLUTE, verdict.boundary
    else:
        # activation exists; the activated state has FEF > 1/d, hence k-copy
        label, boundary = LABEL_ACTIVATABLE, at_fef.boundary
    return ClassificationReport(
        label=label, lambda_max=verdict.lambda_max, fef_value=f_val,
        threshold=thr, boundary=boundary,
        k_copy_nonlocal=None if label == LABEL_ABSOLUTE else True,
        teleportation_useful=label == LABEL_USEFUL, fef_converged=result.converged,
        fef_restarts=result.restarts_used)


@dataclass(frozen=True)
class PurityBounds:
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
    non-member attains.
    """
    d = int(d)
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    max_spec = np.zeros(d * d)
    max_spec[:d] = 1 / d
    min_spec = np.full(d * d, 1 / (d * (d + 1)))
    min_spec[0] = 1 / d
    return PurityBounds(d=d, max_purity_absolute=float(np.sum(max_spec**2)),
                        min_purity_nonabsolute=float(np.sum(min_spec**2)),
                        witness_spectra=(max_spec, min_spec),
                        min_attained=False)
