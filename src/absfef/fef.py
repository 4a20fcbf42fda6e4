"""Fully entangled fraction: canonical lower bound, multistart maximizer and
the two-qubit magic-basis closed form.

The FEF is the maximum of

    f(U) = <psi+| (I (x) U^dag) rho (I (x) U) |psi+>

over single-party unitaries U.  Maximizing over one side only loses nothing:
(A (x) B)|psi+> = (I (x) B A^T)|psi+>, so the one-sided orbit already covers
every maximally entangled state.

With v = (I (x) U)|psi+> = vec(U^T)/sqrt(d) (row-major |ij> order),
f(U) = v^dag rho v.  The ascent works on the shifted matrix
R = rho - lambda_min I instead: |v| = 1 on the orbit, so v^dag R v = f(U) -
lambda_min differs from f by a constant and has the same maximizers.  R >= 0,
so g(U) = v^dag R v is a convex quadratic in U.  Each step moves U to the
polar factor W Vh of G = reshape(R v)^T = W S Vh, which maximizes the
linearization Re Tr(G^dag U') (orthogonal Procrustes).  A convex g lies above
its tangent plane and U itself is feasible, so no step lowers g, hence f.
Removing lambda_min, the part of rho that every v sees equally, makes the
steps converge faster; an isotropic state with beta > 0 becomes rank one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MatrixShapeError
from .linalg import DensityMatrix

#: Default restart counts per local dimension.
DEFAULT_RESTARTS = {2: 20, 3: 60}
#: Largest accepted restart count; all restarts are held in memory at once.
MAX_RESTARTS = 10_000

# Cap on ascent steps, so the loop ends even if gains never fall below eps.
_MAX_STEPS = 10_000


def canonical_ket(d):
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / math.sqrt(d)
    return psi


def fef_lower_bound(rho: DensityMatrix):
    """Canonical overlap <psi+| rho |psi+> (the U = I value of the maximand)."""
    if not rho.is_square_bipartition:
        raise MatrixShapeError(
            f"FEF needs a square bipartition, got {rho.dim_a}x{rho.dim_b}")
    psi = canonical_ket(rho.dim_a)
    return float(np.real(psi.conj() @ rho.matrix @ psi))


def _ascend(rho_mat, u, eps):
    """Ascend a (restarts, d, d) stack until no restart gains more than eps.

    Returns the final stack, the objective value of each restart and the
    number of steps taken.
    """
    n, d, _ = u.shape
    shift = np.linalg.eigvalsh(rho_mat)[0]
    r_mat = rho_mat - shift * np.eye(d * d)

    def forward(u):
        x = u.transpose(0, 2, 1).reshape(n, d * d)  # rows vec(U^T)
        y = x @ r_mat.T  # rows R vec(U^T)
        return y, (x.conj() * y).real.sum(axis=1) / d

    y, values = forward(u)
    for step in range(1, _MAX_STEPS + 1):
        w, _, vh = np.linalg.svd(y.reshape(n, d, d).transpose(0, 2, 1))
        u = w @ vh
        y, new = forward(u)
        gain, values = np.max(new - values), new
        if gain <= eps:
            break
    return u, values + shift, step


@dataclass(frozen=True)
class FefResult:
    """Outcome of the multistart FEF maximization."""

    value: float
    optimizer_unitary: np.ndarray
    restarts_used: int
    converged: bool
    #: Ascent steps taken by the restart stack, in [1, _MAX_STEPS].
    iterations: int

    def evaluate(self, rho: DensityMatrix):
        """Re-evaluate the objective at the stored unitary."""
        d = rho.dim_a
        v = self.optimizer_unitary.T.ravel() / math.sqrt(d)
        return float(np.real(v.conj() @ rho.matrix @ v))


def fef(rho: DensityMatrix, restarts=None, seed=0, tol=1e-8):
    """Multistart maximization of the FEF objective over U(d).

    All restarts run as one stack through the shifted ascent of the module
    docstring, which never lowers the objective, until no restart gains more
    than ``tol * 1e-3`` in a step.  Restart 0 starts at the identity, so the
    result is never below the canonical overlap.  Restarts 1 .. restarts-1
    start at Haar unitaries: one ``default_rng(seed)`` draw of shape
    (restarts - 1, 2, d, d) gives the real and imaginary Ginibre parts, and
    one stacked QR with a diagonal phase fix makes them Haar.  The generator
    fills the draw in C order, so restart i's start does not depend on
    ``restarts``: the result is deterministic given ``seed`` and
    nondecreasing in ``restarts``.  ``converged`` means the two best restarts
    agree within 1e-6; ``iterations`` counts the ascent steps.
    """
    if not rho.is_square_bipartition:
        raise MatrixShapeError(
            f"FEF needs a square bipartition, got {rho.dim_a}x{rho.dim_b}")
    d = rho.dim_a
    if d not in DEFAULT_RESTARTS:
        raise DomainError(f"unsupported local dimension {d}; expected 2 or 3")
    if restarts is None:
        restarts = DEFAULT_RESTARTS[d]
    restarts = int(restarts)
    if not 1 <= restarts <= MAX_RESTARTS:
        raise DomainError(
            f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")

    g = np.random.default_rng(seed).normal(size=(restarts - 1, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2)
    u = np.empty((restarts, d, d), dtype=complex)
    u[0] = np.eye(d)
    u[1:] = q * (phases / np.abs(phases))[:, None, :]
    u, values, steps = _ascend(rho.matrix, u, tol * 1e-3)
    best = int(np.argmax(values))
    top = np.sort(values)[::-1]
    converged = bool(restarts == 1 or (top[0] - top[1]) <= 1e-6)
    return FefResult(value=float(values[best]), optimizer_unitary=u[best],
                     restarts_used=restarts, converged=converged,
                     iterations=steps)


# Magic basis: phase-adjusted Bell states; maximally entangled two-qubit
# states are exactly the real unit vectors in this basis.
_MAGIC = np.array([
    [1, 1j, 0, 0],
    [0, 0, 1j, 1],
    [0, 0, 1j, -1],
    [1, -1j, 0, 0],
], dtype=complex) / np.sqrt(2)  # columns e1..e4 over |00>,|01>,|10>,|11>


def fef_two_qubit_closed_form(rho: DensityMatrix):
    """Closed-form two-qubit FEF: largest eigenvalue of Re(rho) in the magic basis.

    Serves as the independent desk oracle for the d = 2 optimizer.
    """
    if rho.dim_a != 2 or rho.dim_b != 2:
        raise DomainError(f"closed form needs a 2x2 bipartition, "
                          f"got {rho.dim_a}x{rho.dim_b}")
    m = _MAGIC.conj().T @ rho.matrix @ _MAGIC
    return float(np.linalg.eigvalsh(m.real)[-1])
