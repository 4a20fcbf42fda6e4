import dataclasses
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import absfef
from absfef import absolute, states, tripartite, witness
from absfef.cli import main
from absfef.fef import DEFAULT_RESTARTS, fef, fef_lower_bound
from absfef.reproduce import FixtureResult, run_fixtures
from helpers import ginibre_density


@pytest.fixture
def runner():
    return CliRunner()


def _write_state(path, matrix, dims):
    doc = {"dims": list(dims),
           "matrix": [[[float(v.real), float(v.imag)] for v in row]
                      for row in np.asarray(matrix, dtype=complex)]}
    path.write_text(json.dumps(doc))


def test_analyze_x1(runner):
    res = runner.invoke(main, ["analyze", "--family", "x1"])
    assert res.exit_code == 0
    assert "label: ACTIVATABLE" in res.output
    # x1 is PPT, hence separable: FEF <= 1/2 leaves k-copy nonlocality open
    assert "k_copy_nonlocal: unknown" in res.output


def test_analyze_json_deterministic(runner):
    args = ["--json", "--seed", "7", "analyze", "--family", "x2", "--q", "0.3"]
    out1 = runner.invoke(main, args)
    out2 = runner.invoke(main, args)
    assert out1.exit_code == 0
    assert out1.output == out2.output
    doc = json.loads(out1.output)
    assert doc["dims"] == [2, 2]
    assert doc["label"] in ("USEFUL", "ACTIVATABLE", "ABSOLUTE")
    assert "bloch" in doc and "absolutely_separable" in doc


def _leaves(x):
    """The scalars of a nested list, in order."""
    return [v for item in x for v in _leaves(item)] if isinstance(x, list) else [x]


def test_json_floats_read_back_bit_for_bit(runner):
    res = runner.invoke(main, ["--json", "analyze", "--family", "x1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    rho = states.x1()
    report = absolute.classify(rho)
    pairs = [(doc["spectrum"], rho.spectrum.eigenvalues),
             (doc["lambda_max"], report.lambda_max),
             (doc["fef"]["value"], report.fef_value),
             (doc["fef"]["lower_bound"], fef_lower_bound(rho)),
             *((doc["bloch"][k], v)
               for k, v in absfef.bloch_extract(rho)._asdict().items())]
    for got, want in pairs:
        # repr is the shortest text of a double: equal reprs are equal bits,
        # the sign of zero included, and an int 0 is no double 0.0
        assert list(map(repr, _leaves(got))) == list(map(repr, _leaves(
            np.asarray(want, dtype=float).tolist())))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_json_value_exit_3(runner, monkeypatch, bad):
    classify = absolute.classify
    monkeypatch.setattr(absolute, "classify", lambda *args, **kwargs:
                        classify(*args, **kwargs)._replace(fef_value=bad))
    res = runner.invoke(main, ["--json", "analyze", "--family", "x1"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")


def test_analyze_absolute_reports_unknown_k_copy(runner):
    res = runner.invoke(main, ["--json", "analyze",
                               "--family", "af_not_as_example"])
    doc = json.loads(res.output)
    assert res.exit_code == 0
    assert doc["label"] == "ABSOLUTE"
    assert doc["k_copy_nonlocal"] == "unknown"


def test_analyze_rational_literals(runner):
    res = runner.invoke(main, ["--json", "analyze", "--family", "isotropic",
                               "--d", "3", "--beta", "1/4"])
    doc = json.loads(res.output)
    assert res.exit_code == 0
    assert doc["label"] == "ABSOLUTE"
    assert doc["boundary"] is True  # beta = 1/(d+1) exactly


def test_analyze_input_file(runner, tmp_path):
    path = tmp_path / "state.json"
    _write_state(path, np.eye(4) / 4, (2, 2))
    res = runner.invoke(main, ["--json", "analyze", "--input", str(path)])
    doc = json.loads(res.output)
    assert res.exit_code == 0
    assert doc["label"] == "ABSOLUTE"


def test_analyze_requires_exactly_one_source(runner, tmp_path):
    res = runner.invoke(main, ["analyze"])
    assert res.exit_code == 3
    path = tmp_path / "state.json"
    _write_state(path, np.eye(4) / 4, (2, 2))
    res = runner.invoke(main, ["analyze", "--family", "x1",
                               "--input", str(path)])
    assert res.exit_code == 3


def test_analyze_invalid_state_file_exit_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["analyze", "--input", str(path)])
    assert res.exit_code == 2
    path2 = tmp_path / "nonpsd.json"
    _write_state(path2, np.diag([1.5, -0.5, 0, 0]), (2, 2))
    res = runner.invoke(main, ["analyze", "--input", str(path2)])
    assert res.exit_code == 2
    path3 = tmp_path / "nan.json"
    _write_state(path3, np.full((4, 4), np.nan), (2, 2))  # json writes NaN
    res = runner.invoke(main, ["analyze", "--input", str(path3)])
    assert res.exit_code == 2
    path4 = tmp_path / "fractional_dims.json"
    _write_state(path4, np.eye(4) / 4, (2.5, 2.9))  # not truncated to 2x2
    res = runner.invoke(main, ["analyze", "--input", str(path4)])
    assert res.exit_code == 2


@pytest.mark.parametrize("dims, shown", [((True, True), "True"),
                                         ((2.0, 2.0), "2.0")])
def test_state_file_dims_must_be_integers_exit_2(runner, tmp_path, dims,
                                                 shown):
    # JSON true is no dimension: read as 1, it failed d >= 2 with exit 3
    path = tmp_path / "state.json"
    _write_state(path, np.eye(4) / 4, dims)
    res = runner.invoke(main, ["analyze", "--input", str(path)])
    assert res.exit_code == 2
    assert res.stderr == ("error: state file needs 'dims' and 'matrix' "
                          f"fields: dimension must be an integer, got {shown}\n")


def test_analyze_wrong_weight_count_exit_3(runner):
    res = runner.invoke(main, ["analyze", "--family", "comp_diag",
                               "--weights", "0.5,0.5"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: expected 4 diagonal weights, got (2,)\n"


def test_analyze_input_dims_below_two_exit_3(runner, tmp_path):
    path = tmp_path / "negative_dims.json"
    _write_state(path, np.eye(1), (-1, -1))
    res = runner.invoke(main, ["analyze", "--input", str(path)])
    assert res.exit_code == 3
    assert res.stderr == "error: d must be >= 2, got -1\n"


def _run_python(*args):
    """Run a fresh ``python *args`` that imports this checkout's absfef."""
    src = str(Path(absfef.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_analyze_oversized_entry_exit_2_without_warnings(tmp_path):
    # finite, Hermitian and unit trace, but |m_01| > 1 cannot be PSD; run as
    # a fresh process so that a numpy warning would reach its real stderr
    m = np.eye(4) / 4
    m[0, 1] = m[1, 0] = 1e308
    path = tmp_path / "oversized.json"
    _write_state(path, m, (2, 2))
    res = _run_python("-m", "absfef.cli", "analyze", "--input", str(path))
    assert res.returncode == 2
    assert "RuntimeWarning" not in res.stderr
    assert res.stderr.startswith("error: entry of modulus 1e+308 exceeds 1")


def test_readme_library_example_prints_what_it_says():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    res = _run_python("-c", code)
    assert res.returncode == 0, res.stderr
    fef_value, absolute_flag, expectation = res.stdout.split()
    assert (fef_value, absolute_flag) == ("0.5", "False")
    assert float(expectation) < 0


# JSON text is UTF-8, and a document nested this deep overflows the parser's
# recursion limit: both are invalid JSON, a parse error.
_UNPARSABLE = {"not_utf8": b"\xff{}",
               "too_deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("kind", sorted(_UNPARSABLE))
@pytest.mark.parametrize("option", ["--input", "--unitary"])
def test_unparsable_json_file_exit_2(runner, tmp_path, kind, option):
    path = tmp_path / "file.json"
    path.write_bytes(_UNPARSABLE[kind])
    args = (["witness", "--family", "x1", "--unitary", str(path)]
            if option == "--unitary" else ["analyze", "--input", str(path)])
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: invalid JSON in {path}: ")


def test_analyze_missing_file_exit_5(runner, tmp_path):
    res = runner.invoke(main, ["analyze", "--input",
                               str(tmp_path / "missing.json")])
    assert res.exit_code == 5
    res = runner.invoke(main, ["witness", "--family", "x1", "--unitary",
                               str(tmp_path / "missing.json")])
    assert res.exit_code == 5


def test_analyze_domain_error_exit_3(runner, monkeypatch):
    res = runner.invoke(main, ["analyze", "--family", "x2", "--q", "1.5"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["analyze", "--family", "nonesuch"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["--seed", "-1", "analyze", "--family", "x1"])
    assert res.exit_code == 3
    assert "error: seed must be an integer >= 0, got -1" in res.output
    # --seed and --restarts are checked for every command, also for one
    # that never runs fef.
    for args in (["--seed", "-1", "bounds", "--d", "2"],
                 ["--restarts", "0", "bounds", "--d", "2"],
                 ["--restarts", "-5", "witness", "--family", "x1"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 3, args
        assert res.stdout == ""
        assert res.stderr.startswith("error: "), args
    assert res.stderr == "error: restarts must lie in [1, 10000], got -5\n"
    # Help needs no valid seed: the seed is checked when a command runs.
    res = runner.invoke(main, ["--seed", "-1", "analyze", "--help"])
    assert res.exit_code == 0
    assert "Usage:" in res.output
    # A local dimension fef cannot analyze is refused before the d^2 x d^2
    # state is built.
    def never(*args):
        pytest.fail(f"isotropic state built with {args}")

    monkeypatch.setitem(states.FAMILIES, "isotropic",
                        states.Family(never, ("d", "beta"), "beta"))
    for args in (["analyze", "--family", "isotropic", "--d", "100", "--beta", "0.5"],
                 ["witness", "--family", "isotropic", "--d", "100", "--beta", "0.5"],
                 ["scan", "--family", "isotropic", "--d", "100", "--range", "0:1:0.5"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 3, args
        assert res.stdout == ""
        assert res.stderr == ("error: unsupported local dimension 100; "
                              "expected 2 or 3\n")


@pytest.mark.parametrize("args, foreign, takes", [
    (["analyze", "--family", "x1", "--d", "3"], "d", "no parameters"),
    (["analyze", "--family", "x2", "--q", "0.3", "--beta", "0.5"], "beta",
     "q"),
    (["witness", "--family", "ghzw", "--p", "0.3", "--q", "0.5"], "q", "p"),
    (["analyze", "--family", "bell_diag", "--t11", "0.1", "--weights", "1"],
     "weights", "t11, t22, t33"),
    (["analyze", "--family", "max_entangled", "--d", "3", "--beta", "0.5"],
     "beta", "d"),
    (["scan", "--family", "x2", "--d", "3", "--range", "0:1:0.5"], "d",
     "q"),
    # a d the optimizer cannot take is no reason to hide the foreign option
    (["analyze", "--family", "x1", "--d", "4"], "d", "no parameters"),
    (["scan", "--family", "x2", "--d", "100", "--range", "0:1:0.5"], "d", "q"),
], ids=["x1-d", "x2-beta", "ghzw-q", "bell_diag-weights", "max_entangled-beta",
        "scan-x2-d", "x1-d4", "scan-x2-d100"])
def test_foreign_family_option_exit_3(runner, args, foreign, takes):
    family = args[args.index("--family") + 1]
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: family {family} does not take {foreign}; "
                          f"it takes {takes}\n")


@pytest.mark.parametrize("args", [
    ["analyze", "--family", "nonesuch", "--d", "4"],
    ["analyze", "--family", "ghz"],
    ["witness", "--family", "w"],
], ids=["nonesuch-d4", "ghz", "w"])
def test_unknown_family_exit_3(runner, args):
    family = args[args.index("--family") + 1]
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: unknown family {family!r}; ")


@pytest.mark.parametrize("command", ["analyze", "witness"])
def test_input_with_unequal_dims_exit_3(runner, tmp_path, command):
    # a valid three-qubit state, split as 2 x 4
    path = tmp_path / "state.json"
    _write_state(path, tripartite.ghzw_state(1), (2, 4))
    res = runner.invoke(main, [command, "--input", str(path)])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: expected a d x d bipartition, got 2x4\n"


def test_bell_diag_t_defaults_to_zero(runner):
    res = runner.invoke(main, ["--json", "analyze", "--family", "bell_diag"])
    assert res.exit_code == 0
    assert json.loads(res.output)["spectrum"] == [0.25] * 4
    args = ["analyze", "--family", "bell_diag", "--t33", "0.1"]
    want = runner.invoke(main, [*args, "--t11", "0", "--t22", "0"])
    assert runner.invoke(main, args).stdout_bytes == want.stdout_bytes


@pytest.mark.parametrize("args", [
    ["analyze", "--family", "comp_diag", "--weights", "nan,0,0,1"],
    ["analyze", "--family", "x2", "--q", "nan"],
], ids=["comp_diag", "x2"])
def test_nan_parameter_is_a_domain_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["analyze", "witness"])
@pytest.mark.parametrize("options, foreign", [
    (["--q", "0.3", "--d", "3"], "--q, --d"),
    (["--beta", "0.5"], "--beta"),
], ids=["q-d", "beta"])
def test_input_refuses_family_options_exit_3(runner, tmp_path, command,
                                             options, foreign):
    path = tmp_path / "state.json"
    _write_state(path, np.eye(4) / 4, (2, 2))
    res = runner.invoke(main, [command, "--input", str(path), *options])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: --input does not take {foreign}; "
                          f"it takes no options\n")


_FAMILY_OPTIONS = ["--family", "--input", "--q", "--d", "--beta",
                   "--weights", "--t11", "--t22", "--t33", "--p"]


def test_option_surface(runner):
    # Adding or removing an option shows up here.
    def options(command):
        return [opt for p in command.params for opt in p.opts]

    assert options(main) == ["--seed", "--restarts", "--json"]
    assert {name: options(c) for name, c in main.commands.items()} == {
        "analyze": _FAMILY_OPTIONS,
        "witness": [*_FAMILY_OPTIONS, "--unitary"],
        "scan": ["--family", "--range", "--d", "--output"],
        "bounds": ["--d"],
        "reproduce": [],
    }
    for args in (["--tol", "1e-6", "reproduce"],
                 ["scan", "--family", "x2", "--param", "q",
                  "--range", "0:1:0.5"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "No such option" in res.stderr


def _families_named(option):
    return {word for word in re.findall(r"\w+", option.help)
            if word in states.FAMILIES}


def test_family_options_come_from_the_registry():
    # one option per registry parameter, in registry order, whose help names
    # exactly the families that take it
    params = list(dict.fromkeys(
        name for spec in states.FAMILIES.values() for name in spec.params))
    takers = {name: {family for family, spec in states.FAMILIES.items()
                     if name in spec.params} for name in params}
    for command, extra in (("analyze", []), ("witness", ["--unitary"])):
        options = main.commands[command].params
        assert [opt for p in options for opt in p.opts] == [
            "--family", "--input", *(f"--{name}" for name in params), *extra]
        for option in options[2:2 + len(params)]:
            assert _families_named(option) == takers[option.name], option.name
    scan_d = next(p for p in main.commands["scan"].params if p.name == "d")
    assert _families_named(scan_d) == {
        family for family in takers["d"] if states.FAMILIES[family].sweep}


def test_public_api_surface():
    # Adding or removing a name that absfef exports shows up here.
    exported = sorted(name for name, obj in vars(absfef).items()
                      if not name.startswith("_")
                      and not isinstance(obj, types.ModuleType))
    assert exported == [
        "AbsFefError", "AcinParams", "BasisDecomposition", "BlochParams",
        "ClassificationReport", "DensityMatrix", "DensityValidationError",
        "DomainError", "FefResult", "MarginalReport", "MatrixShapeError",
        "MembershipVerdict", "OperatorBasis", "PurityBounds", "Spectrum",
        "WitnessOperator", "acin_marginal", "acin_state", "activating_unitary",
        "bloch_extract", "classify", "conjugate", "construct", "decompose",
        "eig_hermitian", "evaluate", "fef", "fef_lower_bound",
        "fef_two_qubit_closed_form", "fixture_unitary", "ghzw_marginal",
        "is_absolute_fef", "is_absolutely_separable_2q", "operator_basis",
        "partial_trace", "pullback", "purity_bounds", "teleportation_witness",
        "three_qutrit_marginal", "validate_density",
    ]


def test_result_records_are_immutable():
    # The plain records are NamedTuples; the three classes that cache a
    # property or validate stay frozen dataclasses.  Either way no field can
    # be reassigned and no attribute added.
    rho = states.x1()
    w = witness.teleportation_witness(2)
    params = absfef.AcinParams(x=(1, 0, 0, 0, 0))
    tuples = [
        rho.spectrum, fef(rho), absolute.classify(rho),
        absolute.is_absolute_fef(rho), absolute.purity_bounds(2),
        absfef.bloch_extract(rho), w, witness.decompose(w.matrix, "pauli"),
        tripartite.ghzw_marginal(0.5),
        FixtureResult(name="x", expected=1.0, computed=1.0, tolerance=0.0),
    ]
    assert sorted(type(r).__name__ for r in tuples) == [
        "BasisDecomposition", "BlochParams", "ClassificationReport",
        "FefResult", "FixtureResult", "MarginalReport", "MembershipVerdict",
        "PurityBounds", "Spectrum", "WitnessOperator"]
    assert all(isinstance(r, tuple) for r in tuples)
    for record in tuples + [rho, params]:
        names = (record._fields if isinstance(record, tuple)
                 else [f.name for f in dataclasses.fields(record)])
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_restarts_help_names_the_defaults(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    text = " ".join(res.output.split())
    for d, n in DEFAULT_RESTARTS.items():
        assert f"{n} for d={d}" in text


def test_witness_activatable_state(runner):
    res = runner.invoke(main, ["--json", "witness", "--family", "x1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["expectation"] < 0  # the witness detects X1
    assert doc["decomposition"]["basis"] == "pauli"
    # expectation = 1/2 - lambda_max(X1) = 1/2 - (7 + sqrt(29)) / 18
    assert doc["expectation"] == pytest.approx(
        0.5 - (7 + np.sqrt(29)) / 18, abs=1e-10)


def test_witness_qutrit_uses_gellmann(runner):
    res = runner.invoke(main, ["--json", "witness", "--family", "y3",
                               "--q", "0.9"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["decomposition"]["basis"] == "gellmann"
    assert doc["d"] == 3


def test_witness_absolute_state_exit_4(runner):
    res = runner.invoke(main, ["witness", "--family", "af_not_as_example"])
    assert res.exit_code == 4
    assert "no detecting witness exists" in res.output


def test_witness_explicit_unitary(runner, tmp_path):
    from absfef import states
    u = states.fixture_unitary("U1")
    path = tmp_path / "u1.json"
    path.write_text(json.dumps(
        {"matrix": [[[float(v.real), float(v.imag)] for v in row]
                    for row in u]}))
    res = runner.invoke(main, ["--json", "witness", "--family", "x1",
                               "--unitary", str(path)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["expectation"] == pytest.approx(-1 / 6, abs=1e-12)


@pytest.mark.parametrize("text", ["{not json", '{"rows": []}',
                                  '{"matrix": [[1, 0], [0, 1]]}', "[1, 2]"])
def test_witness_malformed_unitary_exit_2(runner, tmp_path, text):
    path = tmp_path / "u.json"
    path.write_text(text)
    res = runner.invoke(main, ["witness", "--family", "x1",
                               "--unitary", str(path)])
    assert res.exit_code == 2
    assert "Traceback" not in res.output


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_witness_non_finite_unitary_exit_3(runner, tmp_path, bad):
    u = states.fixture_unitary("U1")
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in u]
    rows[0][1][0] = bad
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"matrix": rows}))  # json writes NaN, Infinity
    res = runner.invoke(main, ["witness", "--family", "x1",
                               "--unitary", str(path)])
    assert res.exit_code == 3
    assert "not unitary" in res.output
    assert "Traceback" not in res.output


def test_witness_without_local_basis_exit_3(runner, tmp_path):
    # activatable 4 x 4 state: lambda_max 0.7 > 1/4, but no 4 x 4 local basis
    lam = np.full(16, 0.3 / 15)
    lam[0] = 0.7
    path = tmp_path / "state.json"
    _write_state(path, np.diag(lam), (4, 4))
    res = runner.invoke(main, ["witness", "--input", str(path)])
    assert res.exit_code == 3
    assert res.stderr.startswith("error: no 4x4 local operator basis")
    # an absolute 4 x 4 state still has no detecting witness at all
    _write_state(path, np.eye(16) / 16, (4, 4))
    res = runner.invoke(main, ["witness", "--input", str(path)])
    assert res.exit_code == 4
    assert "no detecting witness exists" in res.stderr


def test_scan_ghzw_label_flip(runner):
    res = runner.invoke(main, ["--restarts", "4", "scan", "--family", "ghzw",
                               "--range", "0.2:0.3:0.05"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "param,lambda_max,fef_lower_bound,fef,label,boundary"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    labels = [r[4] for r in rows]
    assert labels[0] != "ABSOLUTE" and labels[-1] == "ABSOLUTE"
    assert rows[1][5] == "true"  # p = 0.25 is the boundary


def test_scan_isotropic_ends_exactly_at_psi_plus(runner):
    res = runner.invoke(main, ["scan", "--family", "isotropic", "--d", "3",
                               "--range", "0:1:1/8"])
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "1,1,1,1,USEFUL,false"


@pytest.mark.parametrize("value", ["2.5", "x"])
@pytest.mark.parametrize("args", [
    ["analyze", "--family", "isotropic", "--beta", "0.1"],
    ["witness", "--family", "isotropic", "--beta", "0.1"],
    ["scan", "--family", "isotropic", "--range", "0:1:0.5"],
], ids=["analyze", "witness", "scan"])
def test_non_integer_d_is_a_parse_error(runner, args, value):
    res = runner.invoke(main, [*args, "--d", value])
    assert res.exit_code == 2
    assert f"Invalid value for '--d': '{value}' is not a valid integer" \
        in res.stderr


def test_scan_output_file_and_determinism(runner, tmp_path):
    out = tmp_path / "scan.csv"
    args = ["--restarts", "4", "scan", "--family", "x2",
            "--range", "0.1:0.9:0.4", "--output", str(out)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    text1 = out.read_text()
    runner.invoke(main, args)
    assert out.read_text() == text1


def test_scan_bad_range_exit_3(runner):
    res = runner.invoke(main, ["scan", "--family", "x2", "--range", "0.1:0.9"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["scan", "--family", "x2",
                               "--range", "0.9:0.1:-0.1"])
    assert res.exit_code == 3
    # an infinite, a NaN, a 10^12-point or an empty grid is refused before
    # any work
    for spec in ("0.1:inf:1", "0:1:1e-12", "0.5:1:nan", "1:0:0.5"):
        res = runner.invoke(main, ["scan", "--family", "x2", "--range", spec])
        assert res.exit_code == 3, spec


def test_scan_families_are_the_registry_sweeps():
    from absfef import states
    from absfef.cli import scan
    choices = next(p for p in scan.params if p.name == "family").type.choices
    assert sorted(choices) == sorted(
        name for name, f in states.FAMILIES.items() if f.sweep)


def test_scan_unwritable_output_exit_5(runner, tmp_path):
    res = runner.invoke(main, ["--restarts", "1", "scan", "--family", "x2",
                               "--range", "0.5:0.5:1",
                               "--output", str(tmp_path / "no" / "dir.csv")])
    assert res.exit_code == 5
    assert str(tmp_path / "no" / "dir.csv") in res.stderr


def test_bounds_d2(runner):
    res = runner.invoke(main, ["--json", "bounds", "--d", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["max_purity_absolute"] == pytest.approx(0.5, abs=1e-12)
    assert doc["min_purity_nonabsolute"] == pytest.approx(1 / 3, abs=1e-12)
    assert doc["min_attained"] is False


def test_bounds_invalid_d_exit_3(runner):
    res = runner.invoke(main, ["bounds", "--d", "1"])
    assert res.exit_code == 3


def test_bounds_d_capped_before_allocating(runner):
    cap = absolute.MAX_PURITY_DIM
    res = runner.invoke(main, ["--json", "bounds", "--d", str(cap)])
    assert res.exit_code == 0
    assert len(json.loads(res.output)["witness_spectra"]["max"]) == cap * cap
    for d in (cap + 1, 100_000):
        res = runner.invoke(main, ["bounds", "--d", str(d)])
        assert res.exit_code == 3
        assert res.stderr == f"error: d must lie in [2, {cap}], got {d}\n"


def test_reproduce_degraded_configuration(runner):
    # One restart is the X0 start alone, which already reaches every fixture.
    res = runner.invoke(main, ["--restarts", "1", "reproduce"])
    assert res.exit_code == 0
    passed, total = res.output.splitlines()[-1].split()[0].split("/")
    assert passed == total


def test_reproduce_json_format(runner):
    res = runner.invoke(main, ["--json", "--restarts", "1", "reproduce"])
    doc = json.loads(res.output)
    assert isinstance(doc, list) and doc
    assert set(doc[0]) == {"name", "expected", "computed", "delta",
                           "tolerance", "passed"}


def test_reproduce_failure_exit_1(runner, monkeypatch):
    results = [FixtureResult("kept", 0.5, 0.5, 1e-12),
               FixtureResult("broken", 0.5, 0.75, 1e-12),
               FixtureResult("also_kept", 1.0, 1.0, 1e-12)]
    monkeypatch.setattr("absfef.cli.run_fixtures", lambda **opts: results)
    res = runner.invoke(main, ["reproduce"])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert lines[1] == ("FAIL  broken     expected 0.5  computed 0.75  "
                        "|delta| 0.25")
    assert [line[:4] for line in lines[:3]] == ["PASS", "FAIL", "PASS"]
    assert lines[-1] == "2/3 fixtures passed"
    # --json prints the whole document before it exits 1
    res = runner.invoke(main, ["--json", "reproduce"])
    assert res.exit_code == 1
    doc = json.loads(res.stdout)
    assert [(r["name"], r["passed"]) for r in doc] == [
        ("kept", True), ("broken", False), ("also_kept", True)]


def test_reproduce_threshold_follows_the_library_rule(monkeypatch):
    # a negative tolerance puts FEF(Y3(0.2)) = 0.3 above the threshold rule's
    # edge, so classify calls it USEFUL and the fixture must fail with it
    monkeypatch.setattr(absolute, "BOUNDARY_TOL", -0.05)
    results = {r.name: r for r in run_fixtures()}
    assert results["fef.y3.q0.2"].passed
    assert not results["fef.y3.q0.2.below_threshold"].passed


@pytest.mark.parametrize("args", [["--restarts", "0"], ["--restarts", "20000"]])
def test_reproduce_bad_optimizer_option_exit_3(runner, args):
    res = runner.invoke(main, [*args, "reproduce"])
    assert res.exit_code == 3
    assert res.output.startswith("error: ")


def test_unexpected_error_maps_to_exit_3(runner, monkeypatch):
    def broken(d):
        raise RuntimeError("boom")

    monkeypatch.setattr("absfef.absolute.purity_bounds", broken)
    res = runner.invoke(main, ["bounds", "--d", "2"])
    assert res.exit_code == 3
    assert res.stderr == "error: boom\n"
    # click's own usage errors keep their exit code and message
    res = runner.invoke(main, ["bounds"])
    assert res.exit_code == 2
    assert "Missing option '--d'" in res.stderr


_GOLDEN = Path(__file__).parent / "golden"


def _golden_commands():
    """(name, args) of each ``name args...`` line of golden/commands.txt."""
    lines = (_GOLDEN / "commands.txt").read_text().splitlines()
    return [(name, args) for name, *args in map(str.split, lines)]


@pytest.mark.parametrize("name, args", _golden_commands())
def test_default_stdout_is_golden(runner, name, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert res.stdout_bytes == (_GOLDEN / f"{name}.out").read_bytes()


def test_library_never_prints(capsys):
    rho = states.x1()
    absolute.classify(rho)
    fef(rho)
    absolute.is_absolute_fef(rho)
    s = witness.pullback(witness.teleportation_witness(2),
                         absolute.activating_unitary(rho))
    witness.evaluate(s, rho)
    witness.decompose(s.matrix, "pauli")
    tripartite.acin_marginal(tripartite.AcinParams(x=(0.6, 0, 0.8, 0, 0)), 1)
    tripartite.ghzw_marginal(0.5)
    tripartite.three_qutrit_marginal(0.2, 0.3)
    run_fixtures(restarts=4)
    assert capsys.readouterr() == ("", "")


_FUZZ_NUMBERS = ("nan", "inf", "-inf", "1/0", "-1", "-0.5", "0", "1/4", "0.3",
                 "1", "2", "abc")
_FUZZ_DIMS = ("-1", "0", "1", "2", "3", "4", "5", "100")
_CORRUPTIONS = ("none", "nonhermitian", "trace", "nan", "inf", "negative",
                "ragged", "nonpair", "dims", "truncate", "nodims")


def _fuzz_state_text(seed, n, dims, corruption, cut):
    """JSON text of an n x n random state with one defect applied."""
    rng = np.random.default_rng(seed)
    m = ginibre_density(rng, n)
    if corruption == "nonhermitian":
        m[0, -1] += 0.25
    elif corruption == "trace":
        m = 1.5 * m
    elif corruption == "nan":
        m[-1, 0] = np.nan
    elif corruption == "inf":
        m[0, 0] = np.inf
    elif corruption == "negative":
        m = np.diag(np.r_[1.5, -0.5, np.zeros(n - 2)]).astype(complex)
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    if corruption == "ragged":
        rows[0] = rows[0][:-1]
    elif corruption == "nonpair":
        rows[-1][0] = [1.0, 0.0, 0.0] if seed % 2 else "x"
    doc = {"dims": list(dims), "matrix": rows}
    if corruption == "dims":
        doc["dims"] = [n, "a"] if seed % 2 else n
    elif corruption == "nodims":
        del doc["dims"]
    text = json.dumps(doc)
    if corruption == "truncate":
        text = text[: cut % len(text)]
    return text


_states = st.builds(_fuzz_state_text, st.integers(0, 2**16),
                    st.sampled_from([2, 4, 9]),
                    st.sampled_from([(2, 2), (3, 3), (2, 4), (1, 4), (4, 4)]),
                    st.sampled_from(_CORRUPTIONS), st.integers(0, 2**16))
_family_args = st.tuples(
    st.sampled_from([*states.FAMILIES, "nonesuch"]),
    st.dictionaries(st.sampled_from(["--q", "--beta", "--p", "--t11", "--t33"]),
                    st.sampled_from(_FUZZ_NUMBERS), max_size=3),
    st.one_of(st.none(), st.sampled_from(_FUZZ_DIMS)),
    st.one_of(st.none(), st.lists(st.sampled_from(_FUZZ_NUMBERS),
                                  min_size=1, max_size=5).map(",".join)),
)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from([["analyze"], ["--json", "analyze"], ["witness"]]),
       source=st.one_of(_states, _family_args))
def test_cli_fuzz_exits_cleanly(command, source):
    runner = CliRunner()
    with runner.isolated_filesystem():
        if isinstance(source, str):
            with open("state.json", "w") as fh:
                fh.write(source)
            args = [*command, "--input", "state.json"]
        else:
            family, options, d, weights = source
            args = [*command, "--family", family]
            for name, value in options.items():
                args += [name, value]
            if d is not None:
                args += ["--d", d]
            if weights is not None:
                args += ["--weights", weights]
        res = runner.invoke(main, args)
    assert res.exit_code in (0, 2, 3, 4, 5), (args, res.output, res.exception)
    assert "Traceback" not in res.output
