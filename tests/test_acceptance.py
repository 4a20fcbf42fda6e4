"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE n: PASS|FAIL - <description>`` and then asserts.
Criterion 2 checks FEF(Y3(0.2)) against its closed-form value 0.3, which
lies below the 1/d = 1/3 threshold.
"""

import math
import time

import numpy as np
import pytest

from absfef import absolute, states, tripartite, witness
from absfef.bases import GELLMANN
from absfef.fef import canonical_ket, fef
from absfef.linalg import validate_density
from absfef.reproduce import run_fixtures
from helpers import (absolute_state, capped_spectrum, fef_two_qubit_oracle,
                     ginibre_density, haar_unitary)


def _report(n, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {desc}")
    assert not failures, f"criterion {n} failures: {failures}"


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def test_criterion_01_paper_witness_fixtures():
    failures = []
    w2 = witness.teleportation_witness(2)
    w3 = witness.teleportation_witness(3)
    s1 = witness.pullback(w2, states.fixture_unitary("U1"))
    s2 = witness.pullback(w2, states.fixture_unitary("U2"))
    s3 = witness.pullback(w3, states.fixture_unitary("U3"))

    v = witness.evaluate(s1, states.x1())
    _check(failures, abs(v + 1 / 6) <= 1e-12, f"Tr(S1 X1) = {v!r} != -1/6")
    for q in (0.1, 0.3, 0.49):
        v = witness.evaluate(s2, states.x2(q))
        _check(failures, abs(v - (q - 0.5)) <= 1e-12,
               f"Tr(S2 X2({q})) = {v!r} != q - 1/2")
    for q in (0.1, 1 / 3):
        v = witness.evaluate(s3, states.y3(q))
        _check(failures, abs(v - (2 * q - 1) / 3) <= 1e-12,
               f"Tr(S3 Y3({q})) = {v!r} != (2q-1)/3")

    c1 = witness.decompose(s1.matrix, "pauli").coefficients
    want1 = np.zeros((4, 4))
    want1[0, 0] = 0.25
    want1[3, 0] = want1[0, 3] = want1[3, 3] = -0.25
    _check(failures, np.max(np.abs(c1 - want1)) <= 1e-12,
           "S1 Pauli coefficients differ from the printed 1/4-pattern")

    c2 = witness.decompose(s2.matrix, "pauli").coefficients
    want2 = np.zeros((4, 4))
    want2[0, 0] = 0.25
    want2[3, 0] = -0.25
    want2[0, 3] = want2[3, 3] = 0.25
    _check(failures, np.max(np.abs(c2 - want2)) <= 1e-12,
           "S2 Pauli coefficients differ from the printed 1/4-pattern")

    i3, l1, l2, l3, _, _, l6, l7, l8 = GELLMANN
    a_op = 0.5 * l3 + l8 / (2 * math.sqrt(3)) + i3 / 3
    b_op = -0.5 * l3 + l8 / (2 * math.sqrt(3)) + i3 / 3
    c_op = -l8 / math.sqrt(3) + i3 / 3
    closed = (np.kron(i3, i3)
              - (np.kron(l1, l6) - np.kron(l2, l7)) / math.sqrt(2)
              - 2 * np.kron(a_op, b_op) - np.kron(b_op, c_op)) / 3
    _check(failures, np.max(np.abs(s3.matrix - closed)) <= 1e-10,
           "Gell-Mann closed form for S3 deviates from U3^dag W3 U3")
    _report(1, "quoted witness traces and decompositions", failures)


def test_criterion_02_fef_fixture_values():
    failures = []
    v = fef(states.x1()).value
    _check(failures, abs(v - 0.5) <= 1e-6, f"FEF(X1) = {v!r} != 0.5")
    rot = states.conjugate(states.x1(), states.fixture_unitary("U1"))
    v = fef(rot).value
    _check(failures, abs(v - 2 / 3) <= 1e-6, f"FEF(U1 X1 U1^dag) = {v!r} != 2/3")
    u2 = states.fixture_unitary("U2")
    for q in np.round(np.arange(0.1, 0.91, 0.1), 10):
        v = fef(states.conjugate(states.x2(q), u2)).value
        want = 0.5 * (1 + abs(2 * q - 1))
        _check(failures, abs(v - want) <= 1e-6,
               f"FEF(U2 X2({q}) U2^dag) = {v!r} != {want!r}")
    # FEF(Y3(q)) = max_U q|Tr U|^2/9 + (1-q)|U_10|^2/3. Unitarity bounds
    # |U_00|, |U_11| by c = sqrt(1-|U_10|^2) and |U_22| by 1, so
    # f <= q(2c+1)^2/9 + (1-q)(1-c^2)/3, attained by a real rotation in the
    # {|0>,|1>} block. This is concave in c with maximum at c* = 2q/(3-7q):
    # c* = 1/4 and FEF = 0.05 + 0.25 = 0.3 at q = 0.2, below the 1/3 threshold.
    q = 0.2
    c_star = 2 * q / (3 - 7 * q)
    want = q * (2 * c_star + 1) ** 2 / 9 + (1 - q) * (1 - c_star ** 2) / 3
    v = fef(states.y3(q)).value
    _check(failures, abs(v - want) <= 1e-6,
           f"FEF(Y3(0.2)) = {v!r} != {want!r} (closed form)")
    _check(failures, v <= 1 / 3 + 1e-9,
           f"FEF(Y3(0.2)) = {v!r} exceeds the 1/3 threshold")
    for d in (2, 3):
        v = fef(states.construct("max_entangled", d=d)).value
        _check(failures, abs(v - 1.0) <= 1e-6, f"FEF(phi{d}+) = {v!r} != 1")
    _report(2, "optimizer reproduces quoted FEF values", failures)


def test_criterion_03_activation_attains_lambda_max():
    failures = []
    rng = np.random.default_rng(100)
    worst = {2: 0.0, 3: 0.0}
    for d, trials in ((2, 10_000), (3, 1_000)):
        psi = canonical_ket(d)
        for _ in range(trials):
            m = ginibre_density(rng, d * d)
            rho = validate_density(m, d, d)
            u = absolute.activating_unitary(rho)
            rot = u @ m @ u.conj().T
            overlap = float(np.real(psi.conj() @ rot @ psi))
            lam = float(np.linalg.eigvalsh(m)[-1])
            worst[d] = max(worst[d], abs(overlap - lam))
        _check(failures, worst[d] <= 1e-8,
               f"d={d}: activating unitary misses lambda_max by {worst[d]!r}")
    # states inside the absolute set never beat the threshold
    for d in (2, 3):
        psi = canonical_ket(d)
        for _ in range(20):
            sigma = absolute_state(rng, d)
            for _ in range(100):
                u = haar_unitary(rng, d * d)
                v = u.conj().T @ psi
                overlap = float(np.real(v.conj() @ sigma @ v))
                _check(failures, overlap <= 1 / d + 1e-8,
                       f"d={d}: absolute state pushed to overlap {overlap!r}")
    _report(3, "activating unitaries attain lambda_max; members never "
               "exceed 1/d", failures)


def test_criterion_04_closed_form_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        rho = validate_density(ginibre_density(rng, 4), 2, 2)
        delta = abs(fef(rho, restarts=4, seed=1).value
                    - fef_two_qubit_oracle(rho))
        worst = max(worst, delta)
    _check(failures, worst <= 1e-6,
           f"optimizer vs closed form: max |delta| = {worst!r} > 1e-6")
    _report(4, "two-qubit optimizer matches the magic-basis closed form",
            failures)


def test_criterion_05_witness_soundness():
    failures = []
    rng = np.random.default_rng(102)
    psi = canonical_ket(2)
    worst = np.inf
    for _ in range(10_000):
        lam = capped_spectrum(rng, 4, 0.5)
        v_basis = haar_unitary(rng, 4)
        sigma = (v_basis * lam) @ v_basis.conj().T
        u = haar_unitary(rng, 4)
        # Tr(U^dag W U sigma) = 1/2 - <psi| U sigma U^dag |psi>
        vec = u.conj().T @ psi
        overlap = float(np.real(vec.conj() @ sigma @ vec))
        worst = min(worst, 0.5 - overlap)
    _check(failures, worst >= -1e-9,
           f"pullback witness went negative on a member: min = {worst!r}")
    # negative detections only outside the absolute set
    w2 = witness.teleportation_witness(2)
    detections = 0
    for _ in range(500):
        rho = validate_density(ginibre_density(rng, 4), 2, 2)
        s = witness.pullback(w2, absolute.activating_unitary(rho))
        if witness.evaluate(s, rho) < -1e-12:
            detections += 1
            _check(failures, rho.spectrum.lambda_max > 0.5,
                   "negative detection on a state with lambda_max <= 1/2")
    _check(failures, detections > 0, "no negative detections sampled")
    _report(5, "pullback witnesses nonnegative on members, detections sound",
            failures)


def test_criterion_06_purity_thresholds():
    failures = []
    for d, want in ((2, (0.5, 1 / 3)), (3, (1 / 3, 1 / 6))):
        pb = absolute.purity_bounds(d)
        _check(failures, abs(pb.max_purity_absolute - want[0]) <= 1e-6,
               f"d={d}: max purity {pb.max_purity_absolute!r} != {want[0]!r}")
        _check(failures, abs(pb.min_purity_nonabsolute - want[1]) <= 1e-6,
               f"d={d}: min purity {pb.min_purity_nonabsolute!r} != {want[1]!r}")
    rng = np.random.default_rng(103)
    lam = rng.dirichlet(np.ones(4), size=100_000)
    purities = np.sum(lam**2, axis=1)
    lam_max = np.max(lam, axis=1)
    below = purities < 1 / 3 - 1e-12
    above = purities > 0.5 + 1e-12
    _check(failures, bool(np.all(lam_max[below] <= 0.5 + 1e-12)),
           "a spectrum below the lower purity threshold is not absolute")
    _check(failures, bool(np.all(lam_max[above] > 0.5)),
           "a spectrum above the upper purity threshold is absolute")
    mid = ~below & ~above
    _check(failures, bool(np.any(lam_max[mid] <= 0.5))
           and bool(np.any(lam_max[mid] > 0.5)),
           "both labels should occur strictly between the thresholds")
    _report(6, "purity thresholds and the sandwich property", failures)


def test_criterion_07_bloch_criteria():
    # The paper's Class-I eigenvalues (1 -/+ 4(...))/4 and Class-II
    # inequalities, written out here, against one stacked eigvalsh of
    # numpy-built matrices on every draw; every 100th draw also goes through
    # is_absolute_fef, whose verdict must match off the edge.
    failures = []
    rng = np.random.default_rng(104)
    n = 100_000

    def class_i(t):
        # -(t11+t22+t33), t11+t22-t33, t11-t22+t33, -t11+t22+t33
        s = t.sum(axis=1, keepdims=True)
        combos = np.hstack([-s, s - 2 * t[:, ::-1]])
        return combos, np.sort((1 + 4 * combos) / 4, axis=1)

    t = np.empty((0, 3))
    while len(t) < n:  # the valid correlations among uniform draws
        batch = rng.uniform(-0.26, 0.26, size=(4096, 3))
        t = np.vstack([t, batch[class_i(batch)[1][:, 0] >= -1e-12]])
    t = t[:n]
    combos, formula = class_i(t)
    sx = np.array([[0, 1], [1, 0]])
    sy_sy = -np.kron([[0, 1], [-1, 0]], [[0, 1], [-1, 0]])  # sy = -i [[0, 1], [-1, 0]]
    sz = np.diag([1, -1])
    paulis = np.stack([np.kron(sx, sx), sy_sy, np.kron(sz, sz)])
    mats = np.eye(4) / 4 + np.einsum("ni,ijk->njk", t, paulis)
    spec = np.linalg.eigvalsh(mats)
    worst = float(np.abs(formula - spec).max())
    _check(failures, worst <= 1e-12,
           f"Class I: formula eigenvalues off the spectrum by {worst:.2e}")
    member = combos.max(axis=1) <= 0.25
    off = np.abs(spec[:, -1] - 0.5) > absolute.BOUNDARY_TOL
    _check(failures, np.array_equal(member[off], spec[off, -1] <= 0.5),
           "Class I: the formula verdict differs from lambda_max <= 1/2")

    w = rng.dirichlet(np.ones(4), size=n)
    a, b, c, d = w.T
    a3, b3, t33 = (a + b - c - d) / 2, (a + c - b - d) / 2, (a - b - c + d) / 4
    formula = np.sort(np.stack([0.25 + (a3 + b3) / 2 + t33,
                                0.25 + (a3 - b3) / 2 - t33,
                                0.25 - (a3 - b3) / 2 - t33,
                                0.25 - (a3 + b3) / 2 + t33], axis=1), axis=1)
    mats = np.zeros((n, 4, 4))
    mats[:, range(4), range(4)] = w
    spec_ii = np.linalg.eigvalsh(mats)
    worst = float(np.abs(formula - spec_ii).max())
    _check(failures, worst <= 1e-12,
           f"Class II: formula eigenvalues off the spectrum by {worst:.2e}")
    member_ii = ((np.abs(a3 + b3) + 2 * t33 <= 0.5)
                 & (np.abs(a3 - b3) - 2 * t33 <= 0.5))
    off_ii = np.abs(spec_ii[:, -1] - 0.5) > absolute.BOUNDARY_TOL
    _check(failures, np.array_equal(member_ii[off_ii], spec_ii[off_ii, -1] <= 0.5),
           "Class II: the formula verdict differs from lambda_max <= 1/2")

    # one draw in a hundred through the library, whose bell_diag and
    # comp_diag cost about 0.17 and 0.06 ms a state
    disagreements = 0
    for k in range(0, n, 100):
        for rho, want, on in ((states.bell_diag(*t[k]), member[k], off[k]),
                              (states.comp_diag(w[k]), member_ii[k], off_ii[k])):
            if on and absolute.is_absolute_fef(rho).absolute != want:
                disagreements += 1
    _check(failures, disagreements == 0,
           f"{disagreements} library verdicts differ from the formulas")

    def werner(p):
        return absolute.is_absolute_fef(states.bell_diag(*[-p / 4] * 3))

    edge = werner(1 / 3)
    _check(failures, edge.absolute and edge.boundary,
           "Werner p = 1/3 should be a boundary member")
    _check(failures, not werner(1 / 3 + 1e-6).absolute,
           "Werner p slightly above 1/3 should not be a member")
    _report(7, "Class-I/II formulas agree with the spectrum and the one "
               "threshold rule (Werner boundary p = 1/3)", failures)


def test_criterion_08_tripartite_marginals():
    failures = []
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10_000):
        x = np.abs(rng.normal(size=5))
        x /= np.linalg.norm(x)
        params = tripartite.AcinParams(x=tuple(x),
                                       theta=rng.uniform(0, math.pi))
        psi = tripartite.acin_state(params).reshape(2, 2, 2)
        for drop in (1, 2, 3):
            # S_k = 1 - 4 det rho_k of the dropped qubit k
            m = np.moveaxis(psi, drop - 1, 0).reshape(2, 4)
            s = max(1 - 4 * np.linalg.det(m @ m.conj().T).real, 0.0)
            closed = np.array([0.5 * (1 + math.sqrt(s)),
                               0.5 * (1 - math.sqrt(s)), 0.0, 0.0])
            spectrum = tripartite.acin_marginal(params, drop).marginal.spectrum
            worst = max(worst, float(np.max(np.abs(spectrum.eigenvalues - closed))))
    _check(failures, worst <= 1e-10,
           f"Acin closed-form spectra deviate by {worst!r} from partial trace")

    _check(failures, not tripartite.ghzw_marginal(0.25 - 1e-8).absolute,
           "GHZ-W marginal below p = 0.25 should not be absolute")
    _check(failures, tripartite.ghzw_marginal(0.25 + 1e-8).absolute,
           "GHZ-W marginal above p = 0.25 should be absolute")
    _check(failures, tripartite.ghzw_marginal(0.25).boundary,
           "GHZ-W marginal at p = 0.25 should be flagged as boundary")

    for alpha in np.linspace(0, 1, 11):
        for beta in np.linspace(0, 1, 11):
            if alpha + beta > 1 + 1e-12:
                continue
            rep = tripartite.three_qutrit_marginal(alpha, beta)
            _check(failures, rep.absolute,
                   f"three-qutrit marginal at ({alpha}, {beta}) not absolute")

    for d in (2, 3):
        flip = 1 / (d + 1)
        below = absolute.is_absolute_fef(states.isotropic(d, flip - 1e-6))
        above = absolute.is_absolute_fef(states.isotropic(d, flip + 1e-6))
        _check(failures, below.absolute and not above.absolute,
               f"isotropic membership does not flip at beta = 1/{d + 1}")
    _report(8, "tripartite marginals, GHZ-W flip, three-qutrit grid, "
               "isotropic flips", failures)


def test_criterion_09_af_strictly_contains_as():
    failures = []
    spectrum = [0.5, 0.3, 0.2, 0.0]
    rho = states.comp_diag(spectrum)
    verdict = absolute.is_absolute_fef(rho)
    _check(failures, verdict.absolute,
           "spectrum (0.5, 0.3, 0.2, 0) should be in the absolute-FEF set")
    _check(failures, not absolute.is_absolutely_separable_2q(rho),
           "spectrum (0.5, 0.3, 0.2, 0) should fail absolute separability")
    _report(9, "absolute-FEF membership without absolute separability",
            failures)


def test_criterion_10_reproduce_green_and_fast():
    failures = []
    start = time.time()
    results = run_fixtures()
    elapsed = time.time() - start
    for r in results:
        _check(failures, r.passed,
               f"fixture {r.name}: expected {r.expected!r}, "
               f"computed {r.computed!r} (tol {r.tolerance!r})")
    _check(failures, elapsed < 60, f"reproduce took {elapsed:.1f}s >= 60s")
    _report(10, "reproduce registry all green in under 60 seconds", failures)
