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
so g(U) = v^dag R v is a convex quadratic in U.  The ascent works on
X = U^T, so v = vec(X)/sqrt(d).  The plain step moves X to the polar factor
W Vh of G = reshape(R v) = W S Vh, which maximizes the linearization
Re Tr(G^dag X') (orthogonal Procrustes); polar(G)^T = polar(G^T), so this is
the step on U.  A convex g lies above its tangent plane and X itself is
feasible, so no plain step lowers g, hence f.  Removing lambda_min, the part
of rho that every v sees equally, makes the steps converge faster; an
isotropic state with beta > 0 becomes rank one.

The plain step converges linearly, slowly where the maximum is degenerate
(Y3(q) near q = 1/3).  So each step linearizes at an extrapolated point
instead: Nesterov momentum, with function-value adaptive restart
(O'Donoghue and Candes, Found. Comput. Math. 15, 2015).  A momentum step
that would lower g is rejected and the momentum reset, so the next step is
a plain one and no accepted step lowers the objective.

At d = 2 the landscape is benign, which sets the restart budget.  In the
magic basis every maximally entangled two-qubit state is a phase times a
real unit vector x in S^3, so f(U) = x^T Re(rho_M) x is a Rayleigh quotient
on the sphere (Badziag, Horodecki, Horodecki and Horodecki, PRA 62, 012311
(2000); see fef_two_qubit_closed_form).  A Rayleigh quotient has no local
maximum that is not global: its other critical points are saddles or
minima.  So any start that is not stationary ascends to the FEF, and a few
restarts suffice.  Restart 0 starts at the ladder's X0 (below), not at
the identity: the identity is the canonical-basis guess and can be
stationary below the FEF (for |01><01|, G = 0 at U = I and the value stays
0; x2(q < 1/3) stays at q).  X0 can be stationary too, so d = 2 adds one
Haar start; a restart that reaches the closed form stops the stack, and
``converged`` compares the two best restarts only when none does.  d = 3
has no such theorem and does have local maxima, so it keeps many restarts.

Before any of this, ``fef`` climbs a ladder of certificates, whose bounds
all come from one family.  Every maximally entangled state has marginals
I/d, so for any Hermitian Y and Z,

    FEF <= (Tr Y + Tr Z)/d + lambda_max(rho - Y (x) I - I (x) Z).

Minimized over (Y, Z) this is exact at d = 2 and not exact for d >= 3
(Landau and Streater, Linear Algebra Appl. 193, 1993), but any (Y, Z) gives
a valid bound.  Complementary slackness at a point X gives Y and Z in closed
form (see _dual_gap), one eigvalsh from a bound; it is tight at a
nondegenerate maximum.  At d = 2 the magic-basis closed form
(fef_two_qubit_closed_form) is the FEF itself, so it takes the dual's place
there: one real 4 x 4 eigvalsh, read once, that is tight wherever the
closed-form Y, Z are not (x2(1/3 < q < 1/2), where Y (x) I + I (x) Z is a
multiple of I).  A bound within _EPS of the value at X proves that value
within the ascent's own stopping gain of the maximum: _EPS is the one
threshold of every rung.  The maximally entangled vector nearest the top
eigenvector v1 is vec(X0)/sqrt(d) with X0 = polar(reshape(v1)), the
Procrustes step once more; f0 = f(X0^T) <= FEF is Re(vec(X0)^dag y0)/d,
read off y0 = rho vec(X0).  Each rung runs only when the one before fails:

1. lambda_max at X0, the Y = Z = 0 bound.  f <= lambda_max, with equality
   exactly when a maximally entangled vector lies in the top eigenspace.  A
   degenerate top eigenspace usually fails even then: the eigensolver
   returns an arbitrary v1 in it.  The exception is d = 2 with an
   eigenspace spanned by real magic-basis vectors, such as isotropic(2,
   beta < 0): the vector nearest v1 = a + ib is then real and in span(a,
   b), so it certifies.
2. The bound at X0: at d = 2 the closed form, read once, and at d = 3 the
   dual at X0.  This certifies an X0 that is already the maximizer below
   lambda_max: every pure state (FEF (sum_i s_i)^2/d for Schmidt
   coefficients s_i, X0 its maximizer), x1, x2(q < 1/3),
   ghzw(1/2 <= p < 1) and af_not_as_example.  The dual gap is the same for
   rho and for R (A and B each move by lambda_min/2 I, which takes back the
   shift), so this rung reads rho itself and R is built only when it fails
   and the ascent runs.  It reuses y0 as G = reshape(y0); B = herm(X0^dag
   G)^T/2 is one product, and the slack subtracts one Kronecker-sum
   broadcast (see _dual_gap).
3. The multistart: restart 0 starts at X0 and the others at Haar
   unitaries.  A restart that stops while it leads the stack and other
   restarts are still live is checked at its point, and a gap of at most
   _EPS stops the whole stack: at d = 2 its gap to the closed form, at
   d = 3 its dual gap.  A restart whose momentum step gained too little to
   go on may still be short of its maximum (the next plain step can gain
   more), so a leader stopping after a momentum step is confirmed by its
   gap: while that gap is open, its momentum is reset and it takes a plain
   step.  At d = 2 one last compare after the ascent certifies a best
   restart that reached the closed form, and the closed form is the upper
   bound whatever the ascent did.  At d = 3, where the maximum is
   degenerate (y3 near q = 1/3) or the relaxation is loose, the gap stays
   open and the ascent runs to the end.
"""

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .linalg import DensityMatrix, _as_int, _local_dim, as_dim

#: Default restart counts per local dimension: the ladder's X0 plus Haar
#: starts.  d = 2 has no spurious local maxima (module docstring), so one Haar
#: start backs up an X0 that happens to be stationary and gives ``converged``
#: a second ascended restart; d = 3 has local maxima and needs many more.
DEFAULT_RESTARTS = {2: 2, 3: 60}
#: Largest accepted restart count; all restarts are held in memory at once.
MAX_RESTARTS = 10_000

# Cap on ascent steps, so the loop ends even if gains never fall below _EPS.
_MAX_STEPS = 10_000
# The one threshold of the ascent's stop rule and every certificate.
_EPS = 1e-8 * 1e-3


def require_supported_dim(d):
    """Raise :class:`DomainError` unless :func:`fef` accepts local dimension d."""
    if d not in DEFAULT_RESTARTS:
        raise DomainError(f"unsupported local dimension {d}; expected "
                          f"{' or '.join(map(str, DEFAULT_RESTARTS))}")


def require_restarts(restarts):
    """Return ``restarts`` as an int; raise :class:`DomainError` unless it is
    an integer in [1, MAX_RESTARTS]."""
    restarts = _as_int(restarts, "restarts")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise DomainError(
            f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    return restarts


def require_seed(seed):
    """Return ``seed`` as an int; raise :class:`DomainError` unless it is
    an integer >= 0; a bool is refused, as by :func:`_as_int`."""
    try:
        index = -1 if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        index = -1
    if index < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    return index


def _projector(n, support):
    """|k><k| for the length-``n`` ket k spread evenly over ``support``, with
    its support block exactly 1/len(support): the one rule behind
    :func:`canonical_projector` and the tripartite GHZ and W projectors."""
    p = np.zeros((n, n), dtype=complex)
    p[np.ix_(support, support)] = 1.0 / len(support)
    return p


def canonical_ket(d):
    """The canonical maximally entangled ket (1/sqrt(d)) sum_i |ii>, d >= 2."""
    d = _local_dim(as_dim(d))
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / math.sqrt(d)
    return psi


def canonical_projector(d):
    """|psi+><psi+| with its |ii><jj| entries exactly 1/d, d >= 2.

    Not the outer product of :func:`canonical_ket`, whose entries
    (1/sqrt(d))^2 round away from 1/d and put the trace, purity and FEF of
    |psi+><psi+| a few ulps off 1.
    """
    d = _local_dim(as_dim(d))
    return _projector(d * d, range(0, d * d, d + 1))


def fef_lower_bound(rho: DensityMatrix):
    """Canonical overlap <psi+| rho |psi+> (the U = I value of the maximand).

    Tr(P rho) for P = :func:`canonical_projector`, read off P's support as
    (1/d) sum_ij rho[ii, jj], so |psi+><psi+| gives 1.
    """
    d = rho.d
    return float(rho.matrix[:: d + 1, :: d + 1].sum().real) / d


@functools.lru_cache(maxsize=8)
def _haar_starts(d, n, seed):
    """Read-only (n, d*d) stack of Haar start rows vec(U_i^T).

    One ``default_rng(seed)`` draw of shape (n, 2, d, d) gives the real and
    imaginary Ginibre parts, and one stacked QR with a diagonal phase fix
    makes them Haar.  The generator fills the draw in C order, so row i does
    not depend on ``n``.
    """
    g = np.random.default_rng(seed).normal(size=(n, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2)
    u = q * (phases / np.abs(phases))[:, None, :]
    x = u.transpose(0, 2, 1).reshape(n, d * d)
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=8)
def _eye(n):
    """Read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _dual_gap(m, x, y):
    """Gap between the dual upper bound at X and the value v^dag M v there.

    ``m`` is rho or R = rho - c I, ``x`` is vec(X) for a unitary X, v =
    x/sqrt(d), and ``y`` = M x.  Every maximally entangled v' has marginals
    I/d, so for any Hermitian A and B (the Y and Z of the module docstring),
    v'^dag M v' <= (Tr A + Tr B)/d + lambda_max(M - A (x) I - I (x) B).
    A and B come in closed form from complementary slackness at v: with
    G = reshape(y), A = herm(G X^dag)/2 and B = herm(X^dag G)^T/2, which for
    unitary X is herm(X^dag A X)^T with one product fewer.  Then Tr A =
    Tr B = x^dag M x / 2, so (Tr A + Tr B)/d is the value at X and the gap is
    lambda_max(M - A (x) I - I (x) B), one d^2 x d^2 ``eigvalsh``.  The gap
    is the same for M = rho and M = R: the shift moves G by c X, so A and B
    each move by c/2 I, and together they take back the c I.
    """
    d = math.isqrt(x.size)
    xh = x.reshape(d, d).conj().T
    g = y.reshape(d, d)
    ha = g @ xh
    hb = xh @ g
    eye = _eye(d)
    # ksum = 4 (A (x) I + I (x) B), so the 1/4 is exact: 4 A = ha + ha^dag,
    # 4 B = hb^T + conj(hb), and [i, j, k, l] is row i d + j, column k d + l.
    ksum = ((ha + ha.conj().T)[:, None, :, None] * eye[:, None, :]
            + eye[:, None, :, None] * (hb.T + hb.conj())[:, None, :])
    slack = m.reshape(d, d, d, d) - 0.25 * ksum
    return float(np.linalg.eigvalsh(slack.reshape(d * d, d * d))[-1])


def _ascend(r_mat, x, certify=False, target=None):
    """Accelerated polar ascent of v^dag R v, v = x/sqrt(d), for each row of x.

    ``x`` is a (restarts, d*d) stack of rows vec(X), X = U^T, and R >= 0.
    Each restart steps to X' = polar(reshape(z)), where z = y + beta (y -
    y_prev), y = R x and beta = k/(k+3) with k the restart's accepted steps
    (Nesterov momentum).  A step that lowers the value is rejected and k is
    reset to 0; a k = 0 step is the plain Procrustes step, which never lowers
    the value, so it is always accepted.  A restart stops once its accepted
    step gains no more than _EPS.

    With ``certify``, the best stopping restart is checked if it leads (its
    value is within _EPS of the live maximum) and either other restarts are
    still live or its step used momentum: its gap is evaluated unless a gap
    was already found open at a value within _EPS of its own.  The gap is
    ``target`` less its value when ``target`` (an upper bound on v^dag R v,
    the d = 2 closed form less lambda_min) is given, and its
    :func:`_dual_gap` otherwise.  A gap of at most _EPS stops the whole
    stack.  A leader whose momentum step gained no more than _EPS while its
    gap is open does not stop: its momentum is reset and it takes a plain
    step next.

    Returns the final rows (a row still live when the stack stops keeps its
    current point), their values, the step at which the last restart
    stopped, and (row, dual bound on v^dag R v) for the certified row or
    None.
    """
    n, dd = x.shape
    d = math.isqrt(dd)
    r_t = r_mat.T
    y = x @ r_t
    values = (x.conj() * y).real.sum(axis=1) / d
    y_prev = y
    k = np.zeros(n)
    checked = -np.inf  # the last leader value whose gap was found open
    live = np.arange(n)
    out_x = np.empty((n, dd), dtype=complex)
    out_values = np.empty(n)
    for step in range(1, _MAX_STEPS + 1):
        z = y + (k / (k + 3))[:, None] * (y - y_prev)
        w, _, vh = np.linalg.svd(z.reshape(-1, d, d))
        x_new = (w @ vh).reshape(-1, dd)
        y_new = x_new @ r_t
        new = (x_new.conj() * y_new).real.sum(axis=1) / d
        gain = new - values
        accept = (gain >= 0) | (k == 0)
        y_prev = y
        if accept.all():
            x, y, values = x_new, y_new, new
        else:
            x = np.where(accept[:, None], x_new, x)
            y = np.where(accept[:, None], y_new, y)
            values = np.where(accept, new, values)
        k = np.where(accept, k + 1, 0)
        done = (accept & (gain <= _EPS)) | (step == _MAX_STEPS)
        if not done.any():
            continue
        if certify:
            i = int(np.argmax(np.where(done, values, -np.inf)))
            momentum = k[i] > 1  # its accepted step used momentum
            if ((momentum or not done.all())
                    and values[i] >= values.max() - _EPS):
                if values[i] > checked + _EPS:  # a new leader value
                    checked = values[i]
                    gap = (_dual_gap(r_mat, x[i], y[i]) if target is None
                           else target - values[i])
                    if gap <= _EPS:
                        out_x[live] = x
                        out_values[live] = values
                        return (out_x, out_values, step,
                                (int(live[i]), values[i] + gap))
                if momentum and step < _MAX_STEPS:
                    done[i] = False
                    k[i] = 0
                    if not done.any():
                        continue
        out_x[live[done]] = x[done]
        out_values[live[done]] = values[done]
        keep = ~done
        if not keep.any():
            break
        x, y, y_prev, values, k, live = (
            x[keep], y[keep], y_prev[keep], values[keep], k[keep], live[keep])
    return out_x, out_values, step, None


class FefResult(NamedTuple):
    """Outcome of the multistart FEF maximization.

    ``restarts_used`` is the restart count asked for, also when a
    certificate stopped the ascent early or made it unnecessary.
    ``converged`` is True for a certified value (within _EPS of
    ``upper_bound``) and otherwise means the two best restarts agree within
    1e-6.
    """

    value: float
    optimizer_unitary: np.ndarray
    restarts_used: int
    converged: bool
    #: Step at which the last restart stopped, in [0, _MAX_STEPS]; 0 when a
    #: certificate at X0 made the ascent unnecessary.
    iterations: int
    #: Upper bound on the FEF, never below ``value``: lambda_max when it
    #: certified X0; otherwise at d = 2 the magic-basis closed form, which is
    #: the FEF itself, and at d = 3 the dual bound when it certified the
    #: value, at X0 or during the ascent, and lambda_max when none did.
    upper_bound: float


def fef(rho: DensityMatrix, restarts=None, seed=0):
    """Multistart maximization of the FEF objective over U(d), d in {2, 3}.

    ``restarts`` defaults to ``DEFAULT_RESTARTS[d]``; restart 0 starts at the
    ladder's X0 and the others at Haar unitaries drawn from
    ``default_rng(seed)``, which are drawn only when no certificate at X0
    holds.  Restart i's start does not depend on ``restarts``, so the result
    is deterministic given ``seed`` and, within ``_EPS``, nondecreasing in
    ``restarts``.  The module docstring states the certificate ladder and
    the ascent.

    Returns a :class:`FefResult`.  ``value`` is clipped to [canonical
    overlap, lambda_max]; when the clip lifts it to the overlap, the identity
    is ``optimizer_unitary``.  ``upper_bound`` is lambda_max when that
    certifies X0 and otherwise the closed form at d = 2 and the certifying
    dual bound or lambda_max at d = 3, never below ``value``; ``converged`` is True when a certificate held and otherwise
    means the two best restarts agree within 1e-6; ``iterations`` is the
    step at which the last restart stopped, 0 when a certificate at X0 made
    the ascent unnecessary.

    Raises :class:`DomainError` for d outside {2, 3}, ``restarts`` that is
    not an integer in [1, MAX_RESTARTS] or a ``seed`` that is not an integer
    >= 0, before any computation.
    """
    d = rho.d
    require_supported_dim(d)
    restarts = require_restarts(
        DEFAULT_RESTARTS[d] if restarts is None else restarts)
    seed = require_seed(seed)

    spectrum = rho.spectrum
    lam_max, lam_min = spectrum.lambda_max, float(spectrum.eigenvalues[-1])
    # The certificate ladder (module docstring), at X0 = polar(reshape(v1)).
    w, _, vh = np.linalg.svd(spectrum.eigenvectors[:, 0].reshape(d, d))
    x0 = w @ vh
    v0 = x0.ravel()
    y0 = rho.matrix @ v0
    f0 = float((v0.conj() @ y0).real) / d
    value, x, bound, converged, steps = f0, x0, lam_max, True, 0
    if lam_max - f0 > _EPS:
        if d == 2:
            bound = fef_two_qubit_closed_form(rho)
            gap = bound - f0
        else:
            gap = _dual_gap(rho.matrix, v0, y0)
            bound = f0 + gap
        if gap > _EPS:
            r_mat = rho.matrix - lam_min * _eye(d * d)
            starts = np.concatenate(
                (v0[None], _haar_starts(d, restarts - 1, seed)))
            xs, values, steps, cert = _ascend(
                r_mat, starts, certify=True,
                target=bound - lam_min if d == 2 else None)
            best = int(np.argmax(values)) if cert is None else cert[0]
            value, x = values[best] + lam_min, xs[best].reshape(d, d)
            if d == 3:
                bound = lam_max if cert is None else cert[1] + lam_min
            # d = 2 keeps the closed form as its bound, and a best restart
            # within _EPS of it is certified though no leader check caught it
            if cert is None and (d == 3 or bound - value > _EPS):
                top = np.sort(values)[::-1]
                converged = bool(restarts == 1 or (top[0] - top[1]) <= 1e-6)
    u = x.T
    value = min(value, lam_max)
    lower = fef_lower_bound(rho)
    if value < lower:  # the overlap wins the clip; U = I attains it
        value, u = lower, np.eye(d, dtype=complex)
    return FefResult(value=float(value), optimizer_unitary=u,
                     restarts_used=restarts, converged=converged,
                     iterations=steps,
                     upper_bound=float(max(min(bound, lam_max), value)))


# Magic basis: phase-adjusted Bell states; maximally entangled two-qubit
# states are exactly the real unit vectors in this basis.
_MAGIC = np.array([
    [1, 1j, 0, 0],
    [0, 0, 1j, 1],
    [0, 0, 1j, -1],
    [1, -1j, 0, 0],
], dtype=complex) / np.sqrt(2)  # columns e1..e4 over |00>,|01>,|10>,|11>
_MAGIC_H = _MAGIC.conj().T.copy()  # M^dag, built once rather than per call
_MAGIC.flags.writeable = _MAGIC_H.flags.writeable = False


def fef_two_qubit_closed_form(rho: DensityMatrix):
    """Closed-form two-qubit FEF: largest eigenvalue of Re(rho) in the magic basis.

    This is :func:`fef`'s d = 2 certificate: its upper bound, and the value
    the ascent's restarts are checked against.
    """
    if rho.d != 2:
        raise DomainError(f"closed form needs a 2x2 bipartition, "
                          f"got {rho.d}x{rho.d}")
    m = _MAGIC_H @ rho.matrix @ _MAGIC
    return float(np.linalg.eigvalsh(m.real)[-1])
