"""Benchmark of the absfef toolkit: one closed-loop caller, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fef_d2 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, with op times scaled to a
reference machine speed (see ``speed.py``); ``--trace 1`` makes a separate
traced run that reports per-layer calls and self time per pass over the
inputs.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads are described in ``workloads.py``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import import_module
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# nproc is 2 on the reference machine and the load is one caller: BLAS and
# OpenMP are pinned to one thread before numpy loads, here and in children.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
STARTUP_PROBES = 5
P90_MIN_SAMPLES = 100
CLI_KINDS = ("analyze", "witness", "scan", "bounds", "reproduce")
WORKLOAD_NAMES = ("fef_d2", "spectral", "cli")


@dataclass
class Pass:
    """Outcome of a closed loop over a workload's ops."""

    starts: list = field(default_factory=list)
    durations: list = field(default_factory=list)
    groups: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    fef_errors: list = field(default_factory=list)


def run_op(ops, i, result, tracer=None):
    """Run op ``i`` (modulo the list), timing the call alone and checking it after.

    Failures are recorded with the op's index and name, never skipped.
    """
    op = ops[i % len(ops)]
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    result.starts.append(t0)
    try:
        out = op.run()
    except Exception as exc:  # an unexpected exception is a failed op
        result.durations.append(time.perf_counter() - t0)
        errors = [f"raised {exc!r}"]
    else:
        result.durations.append(time.perf_counter() - t0)
        try:
            errors, fef_error = op.check(out)
        except Exception as exc:  # output the check cannot read
            errors, fef_error = [f"unreadable output: {exc!r}"], None
        if fef_error is not None:
            result.fef_errors.append(fef_error)
    result.groups.append(op.group)
    if errors:
        result.failures.append((i, op.name, errors))


def go_on(start, passes, seconds):
    """Whether to start another pass: stop at the pass boundary nearest ``seconds``."""
    elapsed = time.perf_counter() - start
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


def run_passes(ops, seconds, speed):
    """Closed loop over whole passes of ``ops`` for about ``seconds``.

    Each op starts when the previous one has finished; the speed kernel runs
    between ops.  Every input is run the same number of times, so a run's
    coverage does not depend on its speed.
    """
    result = Pass()
    start = time.perf_counter()
    i = 0
    while i % len(ops) or go_on(start, i // len(ops), seconds):
        speed.read_due()
        run_op(ops, i, result)
        i += 1
    return result


def input_times(run, n, speed):
    """Each of the ``n`` inputs' median op time across the passes, at reference speed."""
    scaled = [d * speed.scale(t) for t, d in zip(run.starts, run.durations)]
    return [statistics.median(scaled[j::n]) for j in range(n)]


def child_seconds(argv, probes, speed):
    """(start, value) of the float each of ``probes`` fresh processes prints last."""
    values = []
    for _ in range(probes):
        speed.read()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        values.append((t0, float(proc.stdout.split()[-1])))
    return values


def median_wall_seconds(argv, probes, env):
    values = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(argv, capture_output=True, check=True, timeout=120, env=env)
        values.append(time.perf_counter() - t0)
    return statistics.median(values)


def end_to_end(args, workloads, wl):
    from speed import REF_KERNEL_S, Speedometer

    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    speed = Speedometer()
    # Set-up is probed before and after the run, so one phase of machine
    # speed cannot move every sample.
    setup = child_seconds(probe, SETUP_PROBES // 2, speed)
    run = run_passes(wl.ops, args.seconds, speed)
    setup += child_seconds(probe, SETUP_PROBES - SETUP_PROBES // 2, speed)
    speed.read()
    n, inputs = len(run.durations), len(wl.ops)
    times = input_times(run, inputs, speed)
    # For cli the work runs in children: the largest of them, set-up probes included.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    print(f"samples: {n} ops in {sum(run.durations):.3f} s of op time, "
          f"{n // inputs} passes over {inputs} inputs")
    print(f"speed: kernel median {speed.median_reading() * 1e3:.4f} ms over "
          f"{len(speed.readings)} readings, reference {REF_KERNEL_S * 1e3} ms; "
          f"unscaled {n / sum(run.durations):.4f} ops/s, "
          f"op p50 {statistics.median(run.durations) * 1e3:.4f} ms")
    if inputs >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1] * 1e3
        print(f"op_p90_ms: {p90:.4f} ms over {inputs} inputs")
    else:
        print(f"op_p90_ms: not reported, {inputs} inputs < {P90_MIN_SAMPLES}")
    metrics = {
        "setup_s": (statistics.median(v * speed.scale(t) for t, v in setup), "s"),
        "ops_per_s": (inputs / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ok_frac": ((n - len(run.failures)) / n, "ratio"),
    }
    return [run], metrics


def traced(args, workloads, wl):
    from spans import Tracer

    ops = wl.traced_ops or wl.ops
    ops[0].run()  # lazy imports and first-call set-up stay out of both passes
    # Whole passes over the inputs run untraced and traced, in alternating
    # order, so that drift in machine speed cancels out of the overhead.
    # Totals are divided by the number of traced passes: every per-layer
    # figure is per pass over the same inputs, whatever the run's speed.
    plain, spanned = Pass(), Pass()
    tracer = Tracer()
    start = time.perf_counter()
    k = 0
    while go_on(start, k, args.seconds):
        for traced_now in ((True, False) if k % 2 else (False, True)):
            if traced_now:
                tracer.install()
            try:
                for i in range(k * len(ops), (k + 1) * len(ops)):
                    run_op(ops, i, spanned if traced_now else plain,
                           tracer if traced_now else None)
            finally:
                tracer.uninstall()
        k += 1
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(HERE.parent)}; "
          f"{k} traced passes over {len(ops)} inputs")

    metrics = {}
    stats = tracer.layer_stats()
    for name, (calls, self_s) in stats.items():
        metrics[f"{name}.calls"] = (calls / k, "count/pass")
        metrics[f"{name}.self_s"] = (self_s / k, "s/pass")
    fef_calls = stats["fef.fef"][0]
    counts = tracer.counts
    metrics["fef.restarts"] = (counts["restarts"] / k, "count/pass")
    metrics["fef.converged_ratio"] = (counts["converged"] / fef_calls if fef_calls else 0.0,
                                      "ratio")
    metrics["fef.max_abs_err"] = (max(spanned.fef_errors, default=0.0), "1")
    for label in ("useful", "activatable", "absolute"):
        metrics[f"absolute.labels.{label}"] = (counts[f"label.{label}"] / k, "count/pass")
    tried = len(tracer.tried_ops)
    metrics["witness.detect_ratio"] = (len(tracer.detect_ops) / tried if tried else 0.0,
                                       "ratio")
    startup = 0.0
    if args.workload == "cli":
        startup = median_wall_seconds([sys.executable, "-m", "absfef.cli", "--help"],
                                      STARTUP_PROBES, workloads.cli_env())
    metrics["cli.startup_s"] = (startup, "s")
    for kind in CLI_KINDS:
        times = [t for t, g in zip(plain.durations, plain.groups) if g == kind]
        metrics[f"cli.{kind}.wall_ms"] = (statistics.fmean(times) * 1e3 if times else 0.0,
                                          "ms")
    metrics["trace.op_s"] = (sum(spanned.durations) / k, "s/pass")
    metrics["trace.overhead_frac"] = (sum(spanned.durations) / sum(plain.durations) - 1,
                                      "ratio")
    return [plain, spanned], metrics


def print_environment():
    pins = ",".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    print(f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={version('numpy')} click={version('click')} pins={pins}")
    print("env: closed loop, one caller, one process at a time; only the "
          "benchmark's own processes were measured; no machine settings were changed")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time importing absfef and building the inputs, then exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "absfef" / "__init__.py").is_file():
        print(f"error: no absfef package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            import_module("absfef")
            import_module("workloads").WORKLOADS[args.workload](args.seed, tmpdir)
            print(time.perf_counter() - t0)
            return 0
        workloads = import_module("workloads")
        wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        measure = traced if args.trace else end_to_end
        passes, metrics = measure(args, workloads, wl)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    print_environment()
    attempted = sum(len(p.durations) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for i, name, errors in failures:
        print(f"FAILED op {i} [{name}]: {'; '.join(errors)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
