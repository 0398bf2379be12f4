"""Command-line interface: artifacts, determinism, exit codes."""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest

from blockstat.cli import main


def run(args, tmp_path):
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(args)
    finally:
        os.chdir(cwd)


def test_stationary_uniform_writes_pmf_and_rho(tmp_path):
    out = tmp_path / "bs"
    code = main(
        [
            "stationary", "--model", "uniform", "--sigma", "1",
            "--theta0", "0.5", "--theta1", "0.5", "--out", str(out),
        ]
    )
    assert code == 0
    lines = (tmp_path / "bs.csv").read_text().splitlines()
    assert lines[0] == "n,p_n,a_n"
    meta = json.loads((tmp_path / "bs.json").read_text())
    assert "extras" not in meta
    assert meta["diagnostics"]["solver_tag"] == "lambda-truncated"
    # rho in the artifact matches p_1 = 1 - rho
    p1 = float(lines[1].split(",")[1])
    assert p1 == pytest.approx(1 - meta["diagnostics"]["rho"], abs=1e-9)


def test_stationary_uniform_rho_is_that_of_the_scaled_rates(tmp_path):
    # c * uniform at (sigma, theta0, theta1) has the law of uniform at the
    # rates over c: rho is the ratio p_{n+1} / p_n of the solved pmf
    from blockstat.closedform import bs_rho
    from blockstat.measures import ModelParams

    spec = tmp_path / "measure.json"
    spec.write_text('{"m0": 0, "m1": 0, "interior": {"type": "uniform", "c": 2}}')
    out = tmp_path / "u2"
    assert main(["stationary", "--model", str(spec), "--sigma", "1", "--theta0", ".5",
                 "--theta1", ".5", "--out", str(out)]) == 0
    rho = json.loads(out.with_suffix(".json").read_text())["diagnostics"]["rho"]
    assert rho == bs_rho(ModelParams(0.5, 0.25, 0.25))
    p = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)[:10, 1]
    assert p[1:] / p[:-1] == pytest.approx(np.full(9, rho), rel=1e-8)


def test_stationary_uniform_with_an_endpoint_atom_reports_no_rho(tmp_path):
    # an atom at 0 makes the law non-geometric: no single rho describes it
    spec = tmp_path / "measure.json"
    spec.write_text('{"m0": 0.5, "m1": 0, "interior": {"type": "uniform", "c": 1}}')
    out = tmp_path / "atom"
    assert main(["stationary", "--model", str(spec), "--sigma", "1", "--theta0", ".5",
                 "--theta1", ".5", "--out", str(out)]) == 0
    assert "rho" not in json.loads(out.with_suffix(".json").read_text())["diagnostics"]
    p = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)[:11, 1]
    assert np.ptp(p[1:] / p[:-1]) > 0.1


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("argv", [
    ["stationary", "--model", "uniform", "--sigma", "1", "--theta0", ".5", "--theta1", ".5"],
    ["simulate", "--model", "kingman", "--sigma", "1", "--start", "3", "--events", "100",
     "--seed", "1"],
    ["moments", "--model", "uniform", "--sigma", "1", "--theta0", "1", "--theta1", "1"],
    ["geom-check", "--model", "uniform", "--sigma", "1", "--theta0", ".5", "--theta1", ".5"],
    ["geom-check", "--model", "beta31", "--rho", "0.5"],
    ["dual", "--x", "0.5", "--sigma", "1", "--m0", "2"],
], ids=["stationary", "simulate", "moments", "geom-check", "geom-check-no-params", "dual"])
def test_json_artifacts_are_strict_json(tmp_path, argv):
    # RFC 8259 has no NaN or Infinity; a residual that was not computed is null
    out = tmp_path / "out"
    path = out if argv[0] in ("geom-check", "dual") else out.with_suffix(".json")
    assert main(argv + ["--out", str(out)]) in (0, 1)
    payload = json.loads(path.read_text(), parse_constant=_refuse_constant)
    if argv[-2:] == ["--rho", "0.5"]:
        assert payload["cg3b_residual"] is None
        assert payload["cg1_max_residual"] is None


def test_stationary_zero_measure_json_carries_rho_and_tail_mass(tmp_path):
    out = tmp_path / "ck"
    code = main(
        ["stationary", "--model", "zero", "--sigma", "1", "--theta0", "1",
         "--theta1", "0.5", "--out", str(out)]
    )
    assert code == 0
    diag = json.loads((tmp_path / "ck.json").read_text())["diagnostics"]
    assert diag["solver_tag"] == "crow-kimura-geometric"
    # the root of theta1 x^2 - (sigma + theta) x + sigma in [0, 1)
    assert diag["rho"] == pytest.approx(2.5 - math.sqrt(4.25), abs=1e-15)
    assert diag["tail_mass"] == diag["rho"] ** diag["K"]


def test_stationary_moran(tmp_path):
    out = tmp_path / "m"
    code = main(
        ["stationary", "--model", "moran", "--N", "10", "--s", "0.5",
         "--u0", "0.1", "--u1", "0.1", "--out", str(out)]
    )
    assert code == 0
    assert (tmp_path / "m.csv").exists()


def test_measure_file_round_trip(tmp_path):
    spec = tmp_path / "measure.json"
    spec.write_text('{"m0": 2.0, "m1": 0.0, "interior": {"type": "zero"}}')
    out = tmp_path / "king"
    code = main(
        ["stationary", "--model", str(spec), "--sigma", "1",
         "--theta0", "1", "--theta1", "1", "--out", str(out)]
    )
    assert code == 0
    meta = json.loads((tmp_path / "king.json").read_text())
    assert meta["params"]["measure"]["m0"] == 2.0


def test_simulate_deterministic_artifacts(tmp_path):
    args = ["simulate", "--model", "kingman", "--sigma", "1", "--theta0", "0.5",
            "--theta1", "0.5", "--start", "5", "--events", "1e3", "--seed", "42"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (tmp_path / "a_path.csv").read_bytes() == (tmp_path / "b_path.csv").read_bytes()
    assert (
        tmp_path / "a_occupancy.csv"
    ).read_bytes() == (tmp_path / "b_occupancy.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "a.json").read_text())["warnings"] == []


def test_simulate_start_beyond_float_binomials(tmp_path):
    args = ["simulate", "--model", "uniform", "--sigma", "1", "--theta0", "0.5",
            "--theta1", "0.5", "--start", "1100", "--events", "1000", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "u")]) == 0
    assert (tmp_path / "u_path.csv").read_text().splitlines()[1].startswith("1100,")


def test_pmf_csv_matches_per_row_format(tmp_path):
    from blockstat.cli import _pmf_csv
    from blockstat.measures import MoranParams
    from blockstat.recursions import solve_moran

    pmf = solve_moran(MoranParams(30, 0.8, 0.3, 0.2))
    _pmf_csv(pmf, str(tmp_path / "p.csv"))
    a = pmf.tails()
    rows = "".join(f"{i + 1},{float(p)!r},{float(a[i + 1])!r}\n" for i, p in enumerate(pmf.probs))
    assert (tmp_path / "p.csv").read_text() == "n,p_n,a_n\n" + rows


def test_moments_command(tmp_path):
    out = tmp_path / "w"
    code = main(
        ["moments", "--model", "uniform", "--sigma", "1", "--theta0", "1",
         "--theta1", "1", "--out", str(out)]
    )
    assert code == 0
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "n,w_n"
    assert float(lines[1].split(",")[1]) == 1.0
    # a completely monotone sequence has defect +0.0, not -0.0
    defect = json.loads((tmp_path / "w.json").read_text())["diagnostics"]["monotonicity_defect"]
    assert math.copysign(1.0, defect) == 1.0


def test_stationary_and_moments_json_carry_closure_bound(tmp_path):
    # the truncated pmf is accepted on its own 4 p_K, and the moments on
    # their proved head bound, which is also their residual
    args = ["--model", "beta31", "--sigma", "2", "--theta0", "0.1", "--theta1", "0.1"]
    assert main(["stationary", *args, "--out", str(tmp_path / "p")]) == 0
    diag = json.loads((tmp_path / "p.json").read_text())["diagnostics"]
    p_K = float((tmp_path / "p.csv").read_text().splitlines()[-1].split(",")[1])
    assert diag["K"] > 64
    assert diag["closure_bound"] == 4.0 * p_K
    assert diag["closure_bound"] <= diag["residual"] < 1e-10
    assert main(["moments", *args, "--out", str(tmp_path / "w")]) == 0
    diag = json.loads((tmp_path / "w.json").read_text())["diagnostics"]
    assert diag["K"] > 64
    assert 0.0 < diag["closure_bound"] == diag["residual"] < 1e-10


def test_geom_check_exit_codes(tmp_path):
    ok = main(
        ["geom-check", "--model", "uniform", "--sigma", "1", "--theta0", "0.5",
         "--theta1", "0.5", "--out", str(tmp_path / "g.json")]
    )
    assert ok == 0
    bad = main(
        ["geom-check", "--model", "beta31", "--rho", "0.5",
         "--out", str(tmp_path / "g2.json")]
    )
    assert bad == 1
    rep = json.loads((tmp_path / "g2.json").read_text())
    assert not rep["passed"]


def test_dual_command(tmp_path):
    code = main(
        ["dual", "--x", "0.5", "--sigma", "0.6931471805599453", "--m0", "2",
         "--out", str(tmp_path / "d.json")]
    )
    assert code == 0
    d = json.loads((tmp_path / "d.json").read_text())
    assert d["bs_absorption"] == pytest.approx(1 / 3, abs=1e-12)


def test_bad_model_is_spec_error(tmp_path, capsys):
    code = main(["stationary", "--model", "nonexistent.json", "--sigma", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_sigma_is_spec_error():
    assert main(["stationary", "--model", "uniform"]) == 2


def test_validate_quick():
    assert main(["validate", "--suite", "quick"]) == 0


def test_validate_full_raises_no_warning(capsys):
    # validate no longer silences warnings, so each check must raise none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--suite", "full"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "17/17 checks passed"


def test_stationary_json_records_the_recurrence_warning(tmp_path):
    # beta(3,1) has sigma_Lambda = 3, so with theta0 = 0 the sufficient
    # condition sigma < sigma_Lambda + theta1 fails; a tol of 1 lets the
    # truncated solve stop at its first K, and the JSON says what was warned
    args = ["stationary", "--model", "beta31", "--sigma", "3.6", "--theta1", "0.5",
            "--tol", "1"]
    for out in ("a", "b"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recorded, not raised
            assert main(args + ["--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    (msg,) = json.loads((tmp_path / "a.json").read_text())["diagnostics"]["warnings"]
    assert msg.startswith("UserWarning: positive recurrence not established")
    # theta0 > 0 establishes it: nothing to record
    args = ["stationary", "--model", "beta31", "--sigma", "2", "--theta0", "0.1"]
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c.json").read_text())["diagnostics"]["warnings"] == []


MALFORMED_MEASURES = {
    "missing-key": '{"interior": {"type": "beta"}}',
    "nan-beta": '{"interior": {"type": "beta", "a": NaN, "b": 2.0}}',
    "nan-atom-mass": '{"interior": {"type": "atoms", "atoms": [[0.5, NaN]]}}',
    "inf-endpoint-mass": '{"m0": Infinity}',
    "not-json": '{"interior": ',
    "not-an-object": "[1, 2]",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MEASURES))
def test_malformed_measure_file_is_spec_error(tmp_path, capsys, name):
    spec = tmp_path / "measure.json"
    spec.write_text(MALFORMED_MEASURES[name])
    code = main(["stationary", "--model", str(spec), "--sigma", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "kingman", "--start", "3", "--events", "10", "--seed", "1"],
        ["stationary", "--model", "uniform", "--sigma", "nan"],
        ["stationary", "--model", "beta31", "--sigma", "inf"],
        ["moments", "--model", "uniform", "--sigma", "1", "--theta0", "nan", "--theta1", "1"],
        ["stationary", "--model", "moran", "--N", "10", "--s", "nan"],
        ["simulate", "--model", "moran", "--N", "10", "--s", "0.5", "--u0", "inf",
         "--start", "3", "--events", "10", "--seed", "1"],
        ["dual", "--x", "0", "--sigma", "inf", "--m0", "nan"],
        ["dual", "--x", "0.5", "--sigma", "nan", "--m0", "1"],
        ["dual", "--x", "0.5", "--sigma", "1", "--m0", "inf"],
        ["dual", "--N", "10", "--k", "3", "--s", "nan"],
        ["simulate", "--model", "kingman", "--sigma", "1", "--start", "3", "--events", "10",
         "--seed", "-1"],
        ["stationary", "--model", "zero", "--sigma", "1e300", "--theta0", "1"],
        ["stationary", "--model", "moran", "--N", str(10**30), "--s", "0.5"],
        # a tol outside (0, inf) is refused before the first solve, not
        # run to the truncation cap or passed by every `residual > tol`
        *[["stationary", "--model", "uniform", "--sigma", "1", "--theta0", ".5",
           "--theta1", ".5", "--tol", tol] for tol in ("0", "-1", "nan", "inf")],
        ["moments", "--model", "uniform", "--sigma", "1", "--theta0", "1", "--theta1", "1",
         "--tol", "nan"],
        *[["geom-check", "--model", "beta31", "--rho", "0.5", "--tol", tol]
          for tol in ("nan", "-1")],
        # the closed geometric law and the banded Moran solve read no tol,
        # but refuse a bad one as the truncated models do
        ["stationary", "--model", "zero", "--sigma", "1", "--theta0", "1", "--theta1", "1",
         "--tol", "nan"],
        ["stationary", "--model", "moran", "--N", "10", "--s", "0.5", "--tol", "nan"],
    ],
    ids=["simulate-no-sigma", "nan-sigma", "inf-sigma", "nan-theta0", "nan-moran-s",
         "inf-moran-u0", "dual-inf-sigma-nan-m0", "dual-nan-sigma", "dual-inf-m0",
         "dual-nan-moran-s", "negative-seed", "zero-rho-rounds-to-1", "moran-N-beyond-cap",
         "stationary-zero-tol", "stationary-negative-tol", "stationary-nan-tol",
         "stationary-inf-tol", "moments-nan-tol", "geom-check-nan-tol",
         "geom-check-negative-tol", "stationary-zero-nan-tol", "stationary-moran-nan-tol"],
)
def test_bad_parameter_is_spec_error(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["moments", "geom-check"])
@pytest.mark.parametrize("option", ["--N", "--s", "--u0", "--u1"])
def test_moran_options_are_refused_where_no_moran_model_is_read(capsys, command, option):
    # moments and geom-check read a measure, so the Moran options of
    # stationary and simulate are usage errors there, not silently ignored
    argv = [command, "--model", "uniform", "--sigma", "1", "--theta0", "1", option, "7"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 7" in capsys.readouterr().err


def test_parser_built_once_and_commands_looked_up_per_call(monkeypatch):
    import blockstat.cli as cli

    assert cli._parser() is cli._parser()
    assert main(["dual", "--x", "0.3", "--sigma", "1"]) == 0
    # a wrapper installed after the parser was built is the one called
    seen = []
    monkeypatch.setattr(cli, "cmd_dual", lambda args: seen.append(args.x) or 7)
    assert main(["dual", "--x", "0.3", "--sigma", "1"]) == 7
    assert seen == [0.3]



@pytest.mark.parametrize("argv", [
    ["geom-check", "--model", "uniform", "--rho", "0.5", "--n-max", "-1"],
    ["geom-check", "--model", "uniform", "--rho", "0.5", "--n-max", "10001"],
    ["simulate", "--model", "kingman", "--sigma", "1", "--start", "10001", "--events", "10",
     "--seed", "1"],
    ["simulate", "--model", "kingman", "--sigma", "1", "--start", "3", "--events", "inf",
     "--seed", "1"],
    ["simulate", "--model", "kingman", "--sigma", "1", "--start", "3", "--events", "nan",
     "--seed", "1"],
    ["simulate", "--model", "kingman", "--sigma", "1", "--start", "3", "--events", "1e8",
     "--seed", "1"],
], ids=["n-max-negative", "n-max-beyond-cap", "start-beyond-cap", "inf-events", "nan-events",
        "events-beyond-cap"])
def test_sizes_outside_their_caps_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "is not in 0.." in capsys.readouterr().err


def test_extreme_rates_give_the_limiting_values(tmp_path):
    # rho = 2 sigma / (sigma + theta + d) does not overflow at theta1 = 1e300
    out = tmp_path / "zero"
    args = ["stationary", "--model", "zero", "--sigma", "1", "--theta1", "1e300"]
    assert main(args + ["--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["diagnostics"]["rho"] == 1e-300
    # x = 0 and an underflowing e^-sigma or 2 sigma / m0: the limits 1 and x
    assert main(["dual", "--x", "0", "--sigma", "1e300", "--out", str(tmp_path / "a.json")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["bs_absorption"] == 1.0
    args = ["dual", "--x", "0", "--sigma", "1e-300", "--m0", "1e300"]
    assert main(args + ["--out", str(tmp_path / "k.json")]) == 0
    assert json.loads((tmp_path / "k.json").read_text())["kimura_fixation"] == 0.0


def test_singular_duality_system_is_spec_error(tmp_path, capsys):
    # theta0 = 1e-300 next to an endpoint mass of 1e300: the Schur step of
    # the w-system is singular in doubles
    spec = tmp_path / "measure.json"
    spec.write_text('{"m0": 1.0, "m1": 1e300}')
    argv = ["moments", "--model", str(spec), "--sigma", "0.3", "--theta0", "1e-300",
            "--theta1", "1e-300", "--tol", "1e-300", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "singular" in json.loads(capsys.readouterr().err)["error"].lower()


FUZZ_FLOATS = ["0", "-1", "0.3", "1", "2.5", "nan", "inf", "-inf", "1e300", "1e-300", "-1e300"]
FUZZ_INTS = ["-1", "0", "1", "3", "12", str(10**30), "1e3", "nan"]
FUZZ_MEASURES = {
    "atoms.json": '{"interior": {"type": "atoms", "atoms": [[0.2, 0.5], [0.7, 0.25]]}}',
    "beta.json": '{"interior": {"type": "beta", "a": 1.5, "b": 2.5}, "m0": 0.5}',
    "mixed.json": '{"m0": 1.0, "m1": 1e300}',
    "bad.json": '{"interior": {"type": "atoms", "atoms": [[1.5, -1]]}}',
}
MODEL_OPTIONS = ["--sigma", "--theta0", "--theta1"]
MORAN_OPTIONS = ["--s", "--u0", "--u1"]
FUZZ_COMMANDS = {
    # command: (models, float options, integer options)
    "stationary": (["uniform", "kingman", "star", "beta31", "zero", "moran"],
                   MODEL_OPTIONS + MORAN_OPTIONS + ["--tol"], ["--N"]),
    "simulate": (["kingman", "uniform", "beta31", "zero", "moran", "moran-x"],
                 MODEL_OPTIONS + MORAN_OPTIONS + ["--burn-in"],
                 ["--N", "--start", "--events", "--seed"]),
    "moments": (["uniform", "kingman", "zero"], MODEL_OPTIONS + ["--tol"], []),
    "geom-check": (["uniform", "beta31", "zero"], MODEL_OPTIONS + ["--rho", "--tol"], ["--n-max"]),
    "dual": (None, ["--x", "--sigma", "--m0", "--s"], ["--N", "--k"]),
    "validate": (None, [], []),
}


def _fuzz_argv(rng, tmp_path):
    command = str(rng.choice(sorted(FUZZ_COMMANDS)))
    models, floats, ints = FUZZ_COMMANDS[command]
    argv = [command]
    if models is not None:
        argv += ["--model", str(rng.choice(models + [str(tmp_path / m) for m in FUZZ_MEASURES]))]
    for option, pool in [(o, FUZZ_FLOATS) for o in floats] + [(o, FUZZ_INTS) for o in ints]:
        if rng.random() < 0.7:
            argv += [option, str(rng.choice(pool))]
    if command == "validate":
        argv += ["--suite", "quick"]
    else:
        argv += ["--out", str(tmp_path / "out")]
    return argv


def test_fuzzed_arguments_end_in_an_exit_code(tmp_path):
    # seeded, in process: every run exits 0, 1 or 2 and no exception
    # leaves main, whatever the values
    for name, text in FUZZ_MEASURES.items():
        (tmp_path / name).write_text(text)
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(300):
        argv = _fuzz_argv(rng, tmp_path)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value
                code = exc.code
        assert code in (0, 1, 2), argv
    assert time.perf_counter() - start < 10.0
