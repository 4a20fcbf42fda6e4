"""The benchmark's workloads: what one operation does and how it is checked.

An op is one state taken through a workload's pipeline (in ``cli``, one
command).  ``run`` is the timed call into the library; ``check`` compares its
result with the references in :mod:`oracles` and returns the list of
violations together with the FEF error, when the op computes an FEF.

Why each workload exists:

* ``fef_d2``: the hand-unrolled d = 2 optimizer dominates op time.  An exact
  d = 2 FEF path acts here, and peak RSS shows any batching cost.  Its cost
  per state is heavy-tailed, so the inputs are a fixed corpus, see ``inputs``.
* ``spectral``: membership, activation, witness pullback, basis
  decomposition and Bloch extraction, with no optimizer call: a change to
  the FEF optimizer should leave it unchanged, while changes to validation,
  the eigendecomposition, ``decompose`` or ``bloch_extract`` move it.
* ``cli``: fresh ``python -m absfef.cli`` processes, dominated by process
  start and import; the only place the ``cli`` module, ``purity_bounds``
  and ``reproduce`` are measured.
"""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import inputs
import oracles

linalg = importlib.import_module("absfef.linalg")
fefmod = importlib.import_module("absfef.fef")
absolute = importlib.import_module("absfef.absolute")
witness = importlib.import_module("absfef.witness")
bloch = importlib.import_module("absfef.bloch")
tripartite = importlib.import_module("absfef.tripartite")

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    group: str = ""


@dataclass
class Workload:
    # One pass over the workload's inputs; runs are made of whole passes.
    ops: list
    # The traced run's ops, where they differ from ``ops``.
    traced_ops: Optional[list] = None


# --- fef_d2 ----------------------------------------------------------------------

def _classify(m, d):
    rho = linalg.validate_density(m, d, d)
    report = absolute.classify(rho)
    return report, fefmod.fef_lower_bound(rho)


def _check_classify(case, out):
    report, lower = out
    errors = []
    ref = case.fef_ref()
    lam = oracles.lambda_max(case.matrix)
    canonical = oracles.canonical_overlap(case.matrix, case.d)
    fef_err = abs(report.fef_value - ref)
    if fef_err > oracles.FEF_TOL:
        errors.append(f"FEF {report.fef_value!r} vs reference {ref!r}")
    if abs(lower - canonical) > oracles.EXACT_TOL:
        errors.append(f"canonical overlap {lower!r} vs {canonical!r}")
    if not lower - oracles.EXACT_TOL <= report.fef_value <= lam + oracles.EXACT_TOL:
        errors.append(f"FEF {report.fef_value!r} outside [{lower!r}, {lam!r}]")
    if abs(report.lambda_max - lam) > oracles.EXACT_TOL:
        errors.append(f"lambda_max {report.lambda_max!r} vs {lam!r}")
    want = oracles.label(ref, lam, case.d)
    if report.label != want:
        errors.append(f"label {report.label} vs {want}")
    return errors, fef_err


def fef_d2(seed, tmpdir):
    return Workload([Op(c.name, lambda c=c: _classify(c.matrix, c.d),
                        lambda out, c=c: _check_classify(c, out))
                     for c in inputs.fef_d2_cases(seed)])


# --- spectral --------------------------------------------------------------------

_BASIS_KIND = {2: "pauli", 3: "gellmann"}


def _spectral(case):
    rep = None
    m = case.matrix
    if case.marginal is not None:
        fn, args = case.marginal
        rep = getattr(tripartite, fn)(*args)
        m = rep.marginal.matrix
    d = case.d
    rho = linalg.validate_density(m, d, d)
    out = {"marginal": rep, "matrix": m, "verdict": absolute.is_absolute_fef(rho)}
    if out["verdict"].absolute:
        return out
    u = absolute.activating_unitary(rho)
    s = witness.pullback(witness.teleportation_witness(d), u)
    out["witness"] = s.matrix
    out["value"] = witness.evaluate(s, rho)
    if d in _BASIS_KIND:
        out["decomposition"] = witness.decompose(s.matrix, _BASIS_KIND[d])
    if d == 2:
        out["bloch"] = bloch.bloch_extract(rho)
    return out


def _check_spectral(case, out):
    errors = []
    d, m = case.d, out["matrix"]
    spec = oracles.spectrum(m)
    lam = float(spec[0])
    verdict = out["verdict"]
    if verdict.absolute != oracles.is_absolute(lam, d):
        errors.append(f"membership {verdict.absolute} with lambda_max {lam!r}")
    if abs(verdict.lambda_max - lam) > oracles.EXACT_TOL:
        errors.append(f"lambda_max {verdict.lambda_max!r} vs {lam!r}")
    rep = out["marginal"]
    if rep is not None:
        if oracles.max_abs(rep.eigenvalues, spec) > oracles.EXACT_TOL:
            errors.append("closed-form marginal spectrum differs from eigvalsh")
        if rep.absolute != oracles.is_absolute(lam, d):
            errors.append(f"marginal verdict {rep.absolute} with lambda_max {lam!r}")
    if "value" in out:
        want = 1 / d - lam
        if abs(out["value"] - want) > oracles.EXACT_TOL:
            errors.append(f"Tr(S rho) {out['value']!r} vs 1/d - lambda_max {want!r}")
    if "decomposition" in out:
        dec = out["decomposition"]
        back = oracles.product_operator(dec.coefficients, dec.basis_kind)
        if oracles.max_abs(back, out["witness"]) > oracles.EXACT_TOL:
            errors.append(f"{dec.basis_kind} reconstruction off")
    if "bloch" in out:
        bp = out["bloch"]
        if oracles.max_abs(oracles.bloch_operator(bp.a, bp.b, bp.t), m) > oracles.EXACT_TOL:
            errors.append("Bloch reconstruction off")
    return errors, None


def spectral(seed, tmpdir):
    return Workload([Op(c.name, lambda c=c: _spectral(c),
                        lambda out, c=c: _check_spectral(c, out))
                     for c in inputs.spectral_cases(seed)])


# --- cli -------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    kind: str
    args: tuple
    exit_code: int
    check: Optional[Callable[[bytes], list]] = None


def _check_analyze_json(m):
    def check(stdout):
        doc = json.loads(stdout)
        ref = oracles.fef_two_qubit(m)
        want = oracles.label(ref, oracles.lambda_max(m), 2)
        errors = []
        if abs(doc["fef"]["value"] - ref) > oracles.FEF_TOL:
            errors.append(f"FEF {doc['fef']['value']!r} vs reference {ref!r}")
        if doc["label"] != want:
            errors.append(f"label {doc['label']} vs {want}")
        return errors
    return check


def _check_witness_value(m, d):
    def check(stdout):
        first = stdout.decode().splitlines()[0]
        value = float(first.split("=")[1])
        want = 1 / d - oracles.lambda_max(m)
        if abs(value - want) > oracles.EXACT_TOL:
            return [f"Tr(S rho) {value!r} vs 1/d - lambda_max {want!r}"]
        return []
    return check


def cli_commands(seed, tmpdir):
    """The fixed command mix; only the ``--input`` state depends on the seed."""
    m = inputs.cli_state(seed)
    text = inputs.state_file_text(m, (2, 2))
    good = os.path.join(tmpdir, "state.json")
    bad = os.path.join(tmpdir, "malformed.json")
    with open(good, "w") as fh:
        fh.write(text)
    with open(bad, "w") as fh:
        fh.write(text[: len(text) // 2])
    return [
        Command("help", ("--help",), 0),
        Command("analyze", ("analyze", "--family", "x1"), 0),
        Command("analyze", ("--json", "analyze", "--input", good), 0, _check_analyze_json(m)),
        Command("witness", ("witness", "--family", "x1"), 0,
                _check_witness_value(oracles.x1_matrix(), 2)),
        Command("witness", ("witness", "--family", "y3", "--q", "0.2"), 0,
                _check_witness_value(oracles.y3_matrix(0.2), 3)),
        Command("witness", ("witness", "--family", "isotropic", "--beta", "0.2"), 4),
        Command("bounds", ("bounds", "--d", "2"), 0),
        Command("bounds", ("bounds", "--d", "3"), 0),
        Command("scan", ("scan", "--family", "ghzw", "--range", "0:1:0.25"), 0),
        Command("reproduce", ("--restarts", "4", "reproduce"), 0),
        Command("analyze", ("analyze", "--family", "isotropic", "--d", "4", "--beta", "0.5"), 3),
        Command("analyze", ("analyze", "--input", bad), 2),
    ]


def cli_env():
    """Environment of the CLI subprocesses: the imported absfef first on the path."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(importlib.import_module("absfef").__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_subprocess(args, env):
    proc = subprocess.run([sys.executable, "-m", "absfef.cli", *args], env=env,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_in_process(args):
    from click.testing import CliRunner

    cli = importlib.import_module("absfef.cli")
    result = CliRunner().invoke(cli.main, list(args))
    return result.exit_code, result.stdout_bytes


def _check_command(cmd, first_stdout, out):
    code, stdout = out
    errors = []
    if code != cmd.exit_code:
        errors.append(f"exit code {code}, expected {cmd.exit_code}")
    if first_stdout.setdefault(cmd.args, stdout) != stdout:
        errors.append("stdout bytes differ from the first run of this command")
    if cmd.check is not None and code == 0:
        errors += cmd.check(stdout)
    return errors, None


def cli_ops(commands, in_process):
    env = cli_env()
    first_stdout = {}
    ops = []
    for cmd in commands:
        if in_process:
            run = lambda cmd=cmd: run_in_process(cmd.args)
        else:
            run = lambda cmd=cmd: run_subprocess(cmd.args, env)
        ops.append(Op(" ".join(cmd.args), run,
                      lambda out, cmd=cmd: _check_command(cmd, first_stdout, out),
                      group=cmd.kind))
    return ops


def cli(seed, tmpdir):
    """Fresh subprocesses, one at a time; the traced run goes in-process."""
    commands = cli_commands(seed, tmpdir)
    return Workload(cli_ops(commands, in_process=False),
                    traced_ops=cli_ops(commands, in_process=True))


WORKLOADS = {"fef_d2": fef_d2, "spectral": spectral, "cli": cli}
