"""Command-line frontend.

Commands: analyze, witness, scan, bounds, reproduce.  All numeric output is
printed with 17 significant digits and is byte-deterministic given the same
inputs and seed.

Exit codes: 0 success, 1 fixture failure, 2 parse error, 3 domain error,
4 no detecting witness exists, 5 I/O error.
"""

import json
import math
import sys
from fractions import Fraction

import click
import numpy as np

from . import absolute, bases, states, witness as witness_mod
from .errors import DensityValidationError, DomainError
from .fef import DEFAULT_RESTARTS, fef_lower_bound, require_supported_dim
from .bloch import bloch_extract
from .linalg import as_dim, validate_density
from .reproduce import run_fixtures

EXIT_FIXTURE_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_NO_WITNESS = 4
EXIT_IO_ERROR = 5

MAX_SCAN_POINTS = 10_000


def _fmt(x):
    return format(float(x), ".17g")


def _dumps(obj, indent=0):
    """JSON writer with a fixed float format (17 significant digits)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt(obj.real)}, {_fmt(obj.imag)}]"
    if obj is None:
        return "null"
    return json.dumps(obj)


def _num(text):
    """Parse a real number, accepting exact rationals like '2/9'."""
    s = str(text).strip()
    try:
        if "/" in s:
            return float(Fraction(s))
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number {text!r}") from exc


def _matrix_to_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _format_error(message):
    return DensityValidationError("format", float("nan"), message)


def _matrix_from_json(rows):
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise _format_error(f"matrix entries must be [re, im] pairs: {exc}") from exc


def _load_matrix_file(path, needs):
    """Read a JSON file holding a row-major [re, im] 'matrix'.

    Returns (document, matrix).  Invalid JSON, a missing 'matrix' (reported
    as ``needs``) or a malformed entry is a parse error (exit 2); a file
    that cannot be opened stays an I/O error (exit 5).
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return doc, _matrix_from_json(doc["matrix"])
    except json.JSONDecodeError as exc:
        raise _format_error(f"invalid JSON in {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise _format_error(f"{needs}: {exc}") from exc


def _load_state_file(path):
    needs = "state file needs 'dims' and 'matrix' fields"
    doc, matrix = _load_matrix_file(path, needs)
    try:
        d_a, d_b = (as_dim(v) for v in doc["dims"])
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise _format_error(f"{needs}: {exc}") from exc
    return validate_density(matrix, d_a, d_b)


_FAMILY_OPTIONS = [
    click.option("--family", type=str, default=None,
                 help=f"Named state family ({', '.join(states.FAMILIES)})."),
    click.option("--input", "input_path", type=str, default=None,
                 help="JSON state file with 'dims' and row-major [re, im] 'matrix'."),
    click.option("--q", default=None, help="Mixing parameter for x2 / y3."),
    click.option("--d", type=int, default=None,
                 help="Local dimension (isotropic, max_entangled)."),
    click.option("--beta", default=None, help="Isotropic-state parameter."),
    click.option("--p", default=None, help="GHZ-W mixing parameter."),
    click.option("--weights", default=None,
                 help="Four comma-separated diagonal weights for comp_diag."),
    click.option("--t11", default=None), click.option("--t22", default=None),
    click.option("--t33", default=None),
]


def _family_options(f):
    for opt in reversed(_FAMILY_OPTIONS):
        f = opt(f)
    return f


def _gate_d(family, d):
    """Refuse a d that fef cannot analyze before a family that takes d builds
    a d^2 x d^2 state; any other fault is left for construct to name."""
    spec = states.FAMILIES.get(family)
    if d is not None and spec is not None and "d" in spec.params:
        require_supported_dim(d)


def _resolve_state(family, input_path, **options):
    if (family is None) == (input_path is None):
        raise DomainError("provide exactly one of --family or --input")
    given = {name: v for name, v in options.items() if v is not None}
    if input_path is not None:
        if given:
            raise DomainError(
                f"--input does not take "
                f"{', '.join(f'--{name}' for name in given)}; it takes no options")
        return _load_state_file(input_path)
    params = {}
    for name, v in given.items():
        if name == "weights":
            v = [_num(w) for w in v.split(",")]
        elif name != "d":
            v = _num(v)
        params[name] = v
    _gate_d(family, params.get("d"))
    return states.construct(family, **params)


def _exit_for(exc):
    if isinstance(exc, DensityValidationError):
        return EXIT_PARSE_ERROR
    if isinstance(exc, OSError):
        return EXIT_IO_ERROR
    return EXIT_DOMAIN_ERROR


def _fail(exc):
    click.echo(f"error: {exc}", err=True)
    sys.exit(_exit_for(exc))


class _Command(click.Command):
    """A subcommand that checks the group's --seed when it runs and maps every
    error it raises to ``error: ...`` and an exit code.

    The group callback runs before the subcommand parses its own options, so
    a check there would reject ``--seed -1 analyze --help``.  Click's own
    exceptions and ``sys.exit`` pass through.
    """

    def invoke(self, ctx):
        seed = ctx.obj["seed"]
        if seed < 0:
            _fail(DomainError(f"--seed must be >= 0, got {seed}"))
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:  # noqa: BLE001 - mapped to exit codes
            _fail(exc)


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for all stochastic subroutines.")
@click.option("--restarts", type=int, default=None,
              help="FEF optimizer restarts (default " + ", ".join(
                  f"{n} for d={d}" for d, n in DEFAULT_RESTARTS.items()) + ").")
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@click.pass_context
def main(ctx, seed, restarts, as_json):
    """Absolute fully entangled fraction toolkit."""
    ctx.obj = {"seed": seed, "restarts": restarts, "json": as_json}


main.command_class = _Command


def _build_report(rho, opts):
    report = absolute.classify(rho, restarts=opts["restarts"],
                               seed=opts["seed"])
    spectrum = rho.spectrum.eigenvalues
    doc = {
        "dims": [rho.d, rho.d],
        "threshold": report.threshold,
        "spectrum": [float(v) for v in spectrum],
        "purity": rho.purity(),
        "lambda_max": report.lambda_max,
        "label": report.label,
        "boundary": report.boundary,
        "fef": {
            "value": report.fef_value,
            "lower_bound": fef_lower_bound(rho),
            "restarts": report.fef_restarts,
            "converged": report.fef_converged,
        },
        "k_copy_nonlocal": ("unknown" if report.k_copy_nonlocal is None
                            else report.k_copy_nonlocal),
        "teleportation_useful": report.teleportation_useful,
    }
    if rho.d == 2:
        bp = bloch_extract(rho)
        doc["bloch"] = {"a": [float(v) for v in bp.a],
                        "b": [float(v) for v in bp.b],
                        "t": [[float(v) for v in row] for row in bp.t]}
        doc["absolutely_separable"] = absolute.is_absolutely_separable_2q(
            np.clip(spectrum, 0, None))
    return doc


def _print_report(doc, as_json):
    if as_json:
        click.echo(_dumps(doc))
        return
    click.echo(f"dims: {doc['dims'][0]}x{doc['dims'][1]}")
    click.echo(f"label: {doc['label']}  (boundary: {doc['boundary']})")
    click.echo(f"lambda_max: {_fmt(doc['lambda_max'])}  threshold: {_fmt(doc['threshold'])}")
    click.echo("spectrum: " + ", ".join(_fmt(v) for v in doc["spectrum"]))
    click.echo(f"purity: {_fmt(doc['purity'])}")
    click.echo(f"fef: {_fmt(doc['fef']['value'])}  "
               f"(lower bound {_fmt(doc['fef']['lower_bound'])}, "
               f"restarts {doc['fef']['restarts']}, converged {doc['fef']['converged']})")
    click.echo(f"k_copy_nonlocal: {doc['k_copy_nonlocal']}")
    click.echo(f"teleportation_useful: {doc['teleportation_useful']}")
    if "absolutely_separable" in doc:
        click.echo(f"absolutely_separable: {doc['absolutely_separable']}")


@main.command()
@_family_options
@click.pass_context
def analyze(ctx, **kwargs):
    """Full spectral / FEF / classification report for one state."""
    rho = _resolve_state(**kwargs)
    _print_report(_build_report(rho, ctx.obj), ctx.obj["json"])


@main.command("witness")
@_family_options
@click.option("--unitary", "unitary_path", type=str, default=None,
              help="JSON file with a global-unitary 'matrix'; defaults to the "
                   "activating unitary of the state.")
@click.pass_context
def witness_cmd(ctx, unitary_path, **kwargs):
    """Emit a pullback witness S = U^dag W U detecting the given state."""
    rho = _resolve_state(**kwargs)
    d = rho.d
    w = witness_mod.teleportation_witness(d)
    if unitary_path is not None:
        _, u = _load_matrix_file(unitary_path,
                                 "unitary file needs a 'matrix' field")
    else:
        verdict = absolute.is_absolute_fef(rho)
        if verdict.absolute:
            click.echo("no detecting witness exists: state is in the "
                       "absolute-FEF set (lambda_max "
                       f"{_fmt(verdict.lambda_max)} <= 1/{d})", err=True)
            sys.exit(EXIT_NO_WITNESS)
        u = absolute.activating_unitary(rho)
    kind = bases.basis_for_dim(d).kind
    s = witness_mod.pullback(w, u)
    expectation = witness_mod.evaluate(s, rho)
    dec = witness_mod.decompose(s.matrix, kind)
    doc = {
        "d": d,
        "witness_matrix": _matrix_to_json(s.matrix),
        "expectation": expectation,
        "decomposition": {
            "basis": kind,
            "labels": list(dec.labels),
            "coefficients": [[float(v) for v in row] for row in dec.coefficients],
        },
    }
    if ctx.obj["json"]:
        click.echo(_dumps(doc))
    else:
        click.echo(f"Tr(S rho) = {_fmt(expectation)}")
        click.echo(f"decomposition basis: {kind}")
        for i, li in enumerate(dec.labels):
            for j, lj in enumerate(dec.labels):
                c = dec.coefficients[i, j]
                if abs(c) > 1e-12:
                    click.echo(f"  c[{li},{lj}] = {_fmt(c)}")


_SWEEPS = {name: f.sweep for name, f in states.FAMILIES.items() if f.sweep}


@main.command()
@click.option("--family", required=True, type=click.Choice(sorted(_SWEEPS)))
@click.option("--range", "range_spec", required=True,
              help="Grid as start:stop:step (rationals accepted).")
@click.option("--d", type=int, default=None, help="Local dimension for isotropic.")
@click.option("--output", default="-", help="CSV output path, '-' for stdout.")
@click.pass_context
def scan(ctx, family, range_spec, d, output):
    """Sweep one family parameter; emit a CSV of spectra, FEF and labels."""
    parts = range_spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be start:stop:step, got {range_spec!r}")
    start, stop, step = (_num(v) for v in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError(f"range bounds and step must be finite, got {range_spec!r}")
    if step <= 0:
        raise DomainError("range step must be positive")
    # construct checks --d against the family only as it builds a point
    if start > stop + 1e-12:
        raise DomainError(f"range {range_spec!r} is empty: start exceeds stop")
    if (stop - start) / step + 1 > MAX_SCAN_POINTS:
        raise DomainError(f"range {range_spec!r} has more than "
                          f"{MAX_SCAN_POINTS} points")
    _gate_d(family, d)
    params = {} if d is None else {"d": d}
    grid = []
    v = start
    while v <= stop + 1e-12:
        grid.append(v)
        v = start + len(grid) * step
    rows = []
    for v in grid:
        rho = states.construct(family, **params, **{_SWEEPS[family]: v})
        report = absolute.classify(rho, restarts=ctx.obj["restarts"],
                                   seed=ctx.obj["seed"])
        rows.append((v, report.lambda_max, fef_lower_bound(rho),
                     report.fef_value, report.label, report.boundary))
    lines = ["param,lambda_max,fef_lower_bound,fef,label,boundary"]
    for v, lam, lb, f_val, label, boundary in rows:
        lines.append(f"{_fmt(v)},{_fmt(lam)},{_fmt(lb)},{_fmt(f_val)},"
                     f"{label},{str(boundary).lower()}")
    text = "\n".join(lines) + "\n"
    if output == "-":
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo(f"error: cannot write {output}: {exc}", err=True)
            sys.exit(EXIT_IO_ERROR)


@main.command()
@click.option("--d", required=True, type=int, help="Local dimension.")
@click.pass_context
def bounds(ctx, d):
    """Purity thresholds bracketing the absolute-FEF set."""
    pb = absolute.purity_bounds(d)
    doc = {
        "d": pb.d,
        "max_purity_absolute": pb.max_purity_absolute,
        "min_purity_nonabsolute": pb.min_purity_nonabsolute,
        "min_attained": pb.min_attained,
        "witness_spectra": {
            "max": [float(v) for v in pb.witness_spectra[0]],
            "min": [float(v) for v in pb.witness_spectra[1]],
        },
    }
    if ctx.obj["json"]:
        click.echo(_dumps(doc))
    else:
        click.echo(f"d = {pb.d}")
        click.echo(f"max purity of absolute states: {_fmt(pb.max_purity_absolute)} "
                   f"(spectrum {', '.join(_fmt(v) for v in pb.witness_spectra[0])})")
        click.echo(f"min purity of non-absolute states: "
                   f"{_fmt(pb.min_purity_nonabsolute)} "
                   f"(infimum, not attained; spectrum "
                   f"{', '.join(_fmt(v) for v in pb.witness_spectra[1])})")


@main.command()
@click.pass_context
def reproduce(ctx):
    """Re-derive every published fixture value and report pass/fail."""
    results = run_fixtures(restarts=ctx.obj["restarts"], seed=ctx.obj["seed"])
    if ctx.obj["json"]:
        doc = [{"name": r.name, "expected": r.expected, "computed": r.computed,
                "delta": r.delta, "tolerance": r.tolerance, "passed": r.passed}
               for r in results]
        click.echo(_dumps(doc))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            click.echo(f"{status}  {r.name:<{width}}  expected {_fmt(r.expected)}  "
                       f"computed {_fmt(r.computed)}  |delta| {_fmt(r.delta)}")
        n_fail = sum(not r.passed for r in results)
        click.echo(f"{len(results) - n_fail}/{len(results)} fixtures passed")
    if any(not r.passed for r in results):
        sys.exit(EXIT_FIXTURE_FAILURE)


if __name__ == "__main__":
    main()
