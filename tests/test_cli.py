import argparse
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from stabcert import cli, lrconstants, semigroup, systems, verification

SCALAR_SPEC = '{"kind": "matrix", "a": [[0.0]], "b": [[1.0]]}'
DEAD_SPEC = '{"kind": "matrix", "a": [[0.0]], "b": [[0.0]]}'
ROTATION_SPEC = '{"kind": "matrix", "a": [[0, 1], [-1, 0]], "b": [[0], [1]]}'


def _not_json(constant):
    raise ValueError(f"report holds {constant}, which is not JSON")


def read_report(outdir):
    return json.loads((outdir / "report.json").read_text(),
                      parse_constant=_not_json)


def run_cli(args):
    """cli.main(args); every report a call writes must parse as strict
    JSON (RFC 8259: no NaN, Infinity or -Infinity)."""
    code = cli.main(args)
    if "--out" in args:
        out = Path(args[args.index("--out") + 1])
        if (out / "report.json").exists():
            read_report(out)
    return code


def test_weakobs_certified_exit_zero(tmp_path):
    out = tmp_path / "w"
    code = run_cli(["weakobs", "--system", SCALAR_SPEC,
                    "--alpha-grid", "1,2", "--t-grid", "0.5,1",
                    "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "certified"
    assert report["claim"] == "weak-observability-family"
    assert {c["status"] for c in report["certificates"]} == {"certified"}
    csv = (out / "certificates" / "certificates.csv").read_text().splitlines()
    assert csv[0] == "alpha,T,D,C,status,margin"
    assert len(csv) == 1 + len(report["certificates"])


def test_weakobs_refuted_exit_one(tmp_path):
    out = tmp_path / "w"
    code = run_cli(["weakobs", "--system", DEAD_SPEC,
                    "--alpha-grid", "1", "--t-grid", "1", "--out", str(out)])
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "refuted"
    refuted = [c for c in report["certificates"] if c["status"] == "refuted"]
    assert refuted and "witness" in refuted[0]


def test_malformed_spec_exit_three(tmp_path, capsys):
    code = run_cli(["weakobs", "--system", '{"kind": nope',
                    "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_three(tmp_path):
    code = run_cli(["gramian", "--system", str(tmp_path / "nowhere.json"),
                    "--out", str(tmp_path / "x")])
    assert code == 3


def test_usage_error_exit_three(capsys):
    assert run_cli(["weakobs", "--system", "{}", "--bogus"]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli([]) == 3
    with pytest.raises(SystemExit) as info:
        cli._build_parser().parse_args(["weakobs", "--help"])
    assert info.value.code == 0
    assert run_cli(["weakobs", "--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["weakobs", "--system", SCALAR_SPEC],
    ["constants", "--formula", "admissibility"],
    ["stabilize", "--system", SCALAR_SPEC],
    ["periodic"],
    ["example", "point-heat"],
    ["verify-all"],
])
def test_tol_is_a_gramian_only_flag(argv, tmp_path):
    assert run_cli(argv + ["--tol", "1e-8", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["example", "point-heat", "--modes", "6",
     "--refute-null-controllability", "--mu", "3"],
    ["example", "hermite-heat", "--x0", "0.3", "--depth", "9"],
    ["example", "point-heat", "--s", "0.3"],
    ["example", "point-heat", "--intervals", "[[0.1, 0.2]]"],
    ["example", "hermite-heat", "--s", "0.3"],
    ["example", "periodic-l2", "--alpha-grid", "1,2"],
    ["example", "periodic-l2", "--check", "stabilize"],
    ["example", "fractional-heat", "--k-grid", "1"],
    ["example", "point-heat", "--mu", "3"],
    ["example", "hermite-heat", "--check", "weakobs", "--mu", "3"],
])
def test_example_takes_only_the_flags_it_reads(argv, tmp_path):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 3
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["weakobs", "--system", SCALAR_SPEC],
    ["example", "point-heat"],
])
def test_t0_is_no_flag(argv, tmp_path):
    # T_k is the smallest certified horizon above ln C(k+1): no t0 to set
    assert run_cli(argv + ["--t0", "1", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "report.json").exists()


def _subcommands(parser):
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_main_builds_only_the_invoked_command(tmp_path, monkeypatch):
    built = []
    build = cli._build_parser

    def spy(command=None):
        built.append(build(command))
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    args = ["weakobs", "--system", SCALAR_SPEC, "--alpha-grid", "1",
            "--t-grid", "1"]
    assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
    assert run_cli(["--help"]) == 0
    # the second run reuses the first run's parser
    assert len(built) == 3 and built[0] is built[1]
    assert [_subcommands(p) for p in built] == \
        [["weakobs"], ["weakobs"], list(cli._COMMANDS)]
    # a usage error prints the same usage line on either path
    assert built[0].format_usage() == built[2].format_usage()


def test_a_reused_parser_carries_nothing_between_runs(tmp_path,
                                                      monkeypatch, capsys):
    # one sequence of runs, on the process's cached parsers and then on a
    # fresh parser per call: exit codes, streams and written bytes agree
    runs = [
        ["weakobs", "--system", ROTATION_SPEC, "--alpha-grid", "1,2",
         "--t-grid", "1", "--samples", "5", "--seed", "7"],
        ["weakobs", "--system", ROTATION_SPEC, "--alpha-grid", "1,2",
         "--t-grid", "1", "--samples", "5"],
        ["example", "point-heat", "--modes", "3", "--alpha-grid", "1",
         "--t-grid", "1", "--samples", "5", "--seed", "3"],
        ["weakobs", "--system", ROTATION_SPEC, "--bogus"],
        ["example", "point-heat", "--modes", "3", "--check", "stabilize"],
    ]

    def sequence(root):
        seen = []
        for k, argv in enumerate(runs):
            out = root / str(k)
            code = cli.main(argv + ["--out", str(out)])
            streams = capsys.readouterr()
            written = {str(p.relative_to(out)): p.read_bytes()
                       for p in sorted(out.rglob("*")) if p.is_file()}
            seen.append((code, streams.out, streams.err, written))
        return seen

    hits = cli._build_parser.cache_info().hits
    cached = sequence(tmp_path / "cached")
    assert cli._build_parser.cache_info().hits >= hits + 3
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = sequence(tmp_path / "fresh")
    assert cached == fresh
    assert [code for code, *_ in cached] == [0, 0, 0, 3, 0]
    assert json.loads(cached[0][3]["report.json"])["seed"] == 7
    assert json.loads(cached[1][3]["report.json"])["seed"] == 0
    assert "unrecognized arguments: --bogus" in cached[3][2]


def test_gramian_accepts_tol(tmp_path):
    assert run_cli(["gramian", "--system", SCALAR_SPEC, "--tol", "1e-8",
                    "--out", str(tmp_path)]) == 0


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["weakobs", "--system", SCALAR_SPEC, "--alpha-grid", "1,2",
            "--t-grid", "0.5,1", "--seed", "7"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_gramian_csv_matches_closed_form(tmp_path):
    out = tmp_path / "g"
    spec = ('{"kind": "matrix", "a": [[-1.0, 0.0], [0.0, -2.0]], '
            '"b": [[1.0], [1.0]]}')
    assert run_cli(["gramian", "--system", spec, "--horizon", "1",
                    "--out", str(out)]) == 0
    rows = (out / "gramian.csv").read_text().splitlines()[1:]
    mat = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert mat[0, 1] == pytest.approx((1 - math.exp(-3.0)) / 3.0, abs=1e-12)


def test_gramian_csv_is_the_factor_squared(tmp_path):
    # the dump is R^T R of the factor every decision reads, bit for bit
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 2))
    spec = json.dumps({"kind": "matrix", "a": a.tolist(), "b": b.tolist()})
    out = tmp_path / "g"
    assert run_cli(["gramian", "--system", spec, "--horizon", "2",
                    "--out", str(out)]) == 0
    rows = (out / "gramian.csv").read_text().splitlines()[1:]
    mat = np.array([[float(v) for v in r.split(",")] for r in rows])
    r = semigroup.observability_gramian(
        systems.build_system(a, b), 2.0,
        semigroup.QuadratureSpec(rel_tol=1e-10)).factor
    assert mat.shape == (5, 5)
    assert np.array_equal(mat, r.T @ r)


@pytest.mark.parametrize("horizon", ["0.5", "1", "2"])
def test_gramian_min_eigenvalue_is_sigma_min_squared(horizon, tmp_path):
    # eigvalsh of the formed G read these as -1e-23; R^T R is PSD
    spec = '{"kind": "point_heat", "x0": "cf", "c": 5, "modes": 30}'
    out = tmp_path / "g"
    assert run_cli(["gramian", "--system", spec, "--horizon", horizon,
                    "--out", str(out)]) == 0
    lti = systems.truncate(systems.system_from_spec(json.loads(spec)), 30)
    r = semigroup.observability_gramian(lti, float(horizon)).factor
    sigma_min = np.linalg.svd(r, compute_uv=False).min()
    assert read_report(out)["min_eigenvalue"] == float(sigma_min) ** 2 >= 0


_PERIODIC_SPEC = '{"kind": "periodic_l2", "modes": 4}'


@pytest.mark.parametrize("command", ["gramian", "weakobs", "stabilize"])
def test_periodic_spec_is_not_a_system_spec(command, tmp_path, capsys):
    # the periodic benchmark runs only through `periodic` and `example
    # periodic-l2`
    out = tmp_path / "p"
    assert run_cli([command, "--system", _PERIODIC_SPEC,
                    "--out", str(out)]) == 3
    assert "unknown system kind 'periodic_l2'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_constants_subcommand(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", "spectral", "--m-big", "1",
                    "--delta0", "0", "--m-k", "1", "--alpha-k", "5",
                    "--c-k", "1", "--b-norm", "1", "--alpha", "1",
                    "--out", str(out)]) == 0
    report = read_report(out)
    assert report["D"] == pytest.approx(math.sqrt(2.0))
    assert report["C"] == pytest.approx(4.708202236182293)
    assert report["validity"] == {"T_min": 1.0}
    # alpha_k = inf: the projection discards nothing, and D and C stand
    assert run_cli(["constants", "--formula", "spectral", "--alpha-k", "inf",
                    "--c-k", "1", "--out", str(tmp_path / "inf")]) == 0
    assert read_report(tmp_path / "inf")["D"] == report["D"]


def test_an_infinite_input_is_echoed_as_a_string(tmp_path):
    # JSON has no infinity: alpha_k = inf is written "inf", a parsable
    # string, where it was once the non-JSON token Infinity
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", "spectral", "--alpha-k", "inf",
                    "--c-k", "1", "--alpha", "1", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["inputs"] == {"alpha_k": "inf", "c_k": 1.0, "alpha": 1.0}
    assert float(report["inputs"]["alpha_k"]) == math.inf


def test_a_report_with_a_non_finite_value_is_not_written(tmp_path):
    path = tmp_path / "r" / "report.json"
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="JSON"):
            cli._write_json(path, {"value": value})
        assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["spectral", "--alpha-k", "30", "--c-k", "nan", "--alpha", "1"],
    ["spectral", "--alpha-k", "30", "--c-k", "inf", "--alpha", "1"],
    ["truncated", "--alpha-k", "5", "--c-k-t0", "1", "--m-big", "nan"],
    ["unbounded", "--c-k-t0", "1", "--c-gamma", "nan"],
    ["unbounded", "--c-k-t0", "1", "--b-norm", "nan"],
    ["admissibility", "--horizon", "nan"],
    ["admissibility", "--horizon", "inf"],
])
def test_constants_never_write_a_non_finite_value(argv, tmp_path, capsys):
    # NaN and Infinity are not JSON: such an input, or a constant that
    # comes out non-finite, exits 3 with no report
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", *argv, "--out", str(out)]) == 3
    assert "error: ValueError" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_constants_echo_only_the_given_flags(tmp_path, capsys):
    # m_big, delta0, m_k, b_norm and alpha fall back on the values that
    # test_constants_subcommand passes, so D and C come out the same
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", "spectral", "--alpha-k", "5",
                    "--c-k", "1", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["inputs"] == {"alpha_k": 5.0, "c_k": 1.0}
    assert report["D"] == pytest.approx(math.sqrt(2.0))
    assert report["C"] == pytest.approx(4.708202236182293)
    assert run_cli(["constants", "--formula", "spectral", "--c-k", "1",
                    "--out", str(tmp_path / "e")]) == 3
    assert capsys.readouterr().err == (
        "error: ValueError: --formula spectral requires --alpha-k\n")


# every input each formula reads with no default, with values it accepts
_CONSTANTS_INPUTS = {
    "spectral": {"alpha-k": "5", "c-k": "1"},
    "truncated": {"alpha-k": "5", "c-k-t0": "1"},
    "unbounded": {"c-k-t0": "1"},
}


@pytest.mark.parametrize("formula, missing", [
    (f, flag) for f, needs in _CONSTANTS_INPUTS.items() for flag in needs])
def test_constants_name_a_missing_input(formula, missing, tmp_path, capsys):
    # without one of its required inputs a formula exits 3, names the
    # flag and writes nothing; with all of them it succeeds
    given = [arg for flag, value in _CONSTANTS_INPUTS[formula].items()
             if flag != missing for arg in (f"--{flag}", value)]
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", formula, "--t0", "1", *given,
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: ValueError: --formula {formula} requires --{missing}\n")
    assert not out.exists() or not any(out.iterdir())
    every = [arg for flag, value in _CONSTANTS_INPUTS[formula].items()
             for arg in (f"--{flag}", value)]
    assert run_cli(["constants", "--formula", formula, "--t0", "1", *every,
                    "--out", str(out)]) == 0


def test_constants_admissibility(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", "admissibility",
                    "--gamma", "0.25", "--rho0", "0", "--c-gamma", "1",
                    "--b-norm", "1", "--horizon", "1",
                    "--out", str(out)]) == 0
    assert read_report(out)["value"] == pytest.approx(2.0)


def test_constants_unbounded(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["constants", "--formula", "unbounded", "--m-big", "2",
                    "--delta0", "0.5", "--m-k", "1.5", "--alpha", "1",
                    "--t0", "0.5", "--c-k-t0", "3", "--gamma", "0.3",
                    "--rho0", "0.2", "--c-gamma", "1.2", "--b-norm", "0.8",
                    "--out", str(out)]) == 0
    report = read_report(out)
    d_c, c_c = lrconstants.constants_from_truncated_obs_unbounded(
        lrconstants.SemigroupBound(m_big=2.0, delta0=0.5),
        systems.UnboundedConstantsSpec(gamma=0.3, rho0=0.2, c_gamma=1.2,
                                       b_norm=0.8),
        0.5, 3.0, 1.5, 1.0)
    assert (report["D"], report["C"]) == (d_c, c_c)
    assert report["validity"] == {"T_min": 1.0}


def test_gramian_dump_never_forms_the_floor(tmp_path, monkeypatch):
    # every floor and every floor bracket takes its probe norms through
    # `ExpTable.norms`
    def unread(self, times, ord=2):
        raise AssertionError("a Gramian floor was read")

    monkeypatch.setattr(semigroup.ExpTable, "norms", unread)
    assert run_cli(["gramian", "--system", ROTATION_SPEC,
                    "--out", str(tmp_path / "g")]) == 0


def test_stabilize_outputs(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", SCALAR_SPEC, "--mu", "1",
                    "--out", str(out)]) == 0
    report = read_report(out)
    assert report["measured_rate"] == pytest.approx(1 + math.sqrt(2.0),
                                                    abs=1e-10)
    gain = (out / "gain.csv").read_text().splitlines()
    assert float(gain[1]) == pytest.approx(-(1 + math.sqrt(2.0)), abs=1e-10)
    decay = (out / "decay" / "decay.csv").read_text().splitlines()
    assert decay[0] == "t,norm"
    assert len(decay) == 201


def test_stabilize_overshoot_is_measured_on_the_written_curve(tmp_path):
    # the transient peaks after t = 0.5, so the report's overshoot must
    # come from the --horizon/--grid curve, not from the default [0, 10]
    out = tmp_path / "s"
    spec = '{"kind": "matrix", "a": [[0, 5], [0, 0]], "b": [[0], [1]]}'
    assert run_cli(["stabilize", "--system", spec, "--mu", "1",
                    "--horizon", "0.5", "--grid", "20",
                    "--out", str(out)]) == 0
    report = read_report(out)
    rows = (out / "decay" / "decay.csv").read_text().splitlines()[1:]
    assert len(rows) == 20
    peak = max(float(norm) * math.exp(report["measured_rate"] * float(t))
               for t, norm in (row.split(",") for row in rows))
    assert report["measured_overshoot"] == pytest.approx(peak, rel=1e-12)


def test_stabilize_takes_one_curve_and_one_peak(tmp_path, monkeypatch):
    # the synthesis measures no curve; the report's one peak is the fold
    # of the one curve that decay.csv holds
    calls, curves = [], []

    def spy(module):
        inner = module.grid_norms

        def wrapper(*args):
            calls.append(args[1:3])
            curves.append(inner(*args))
            return curves[-1]

        monkeypatch.setattr(module, "grid_norms", wrapper)

    spy(cli)
    spy(semigroup)
    spec = '{"kind": "matrix", "a": [[0, 5], [0, 0]], "b": [[0], [1]]}'
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", spec, "--mu", "1",
                    "--out", str(out)]) == 0
    assert calls == [(10.0, 200)]
    report = read_report(out)
    times = np.linspace(0.0, 10.0, 200).tolist()
    assert report["measured_overshoot"] == max(
        norm * math.exp(report["measured_rate"] * t)
        for t, norm in zip(times, curves[0]))


def test_stabilize_unstabilizable_exit_one(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", DEAD_SPEC, "--mu", "1",
                    "--out", str(out)]) == 1
    assert read_report(out)["verdict"] == "unstabilizable"


# A = diag(-3, -0.5), B = e_2: the mode -3 is invisible to B, so the
# pair's PBH screen fails at every mu and the shifted test decides
_HIDDEN_STABLE_SPEC = ('{"kind": "matrix", "a": [[-3, 0], [0, -0.5]], '
                       '"b": [[0], [1]]}')


def test_stabilize_reads_the_shifted_test_where_the_screen_fails(tmp_path):
    # mu = 1: the hidden mode, shifted to -2, is stable, and the visible
    # one closes at -mu - sqrt(0.5^2 + 1)
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", _HIDDEN_STABLE_SPEC,
                    "--mu", "1", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["verdict"] == "synthesized"
    assert report["measured_rate"] == pytest.approx(1.0 + math.sqrt(1.25),
                                                    rel=1e-12)
    # mu = 4: the hidden mode, shifted to +1, is unstable
    out = tmp_path / "u"
    assert run_cli(["stabilize", "--system", _HIDDEN_STABLE_SPEC,
                    "--mu", "4", "--out", str(out)]) == 1
    report = read_report(out)
    assert report["verdict"] == "unstabilizable"
    assert report["offending_eigenvalue"] == [1, 0]


def _missed_target_spec():
    # a dense n = 20, m = 2 pair whose rate-2 Riccati gain misses mu = 2:
    # the closed loop's spectral rate comes out near -5
    rng = np.random.default_rng([11, 2])
    a = rng.standard_normal((20, 20)) / math.sqrt(20)
    b = rng.standard_normal((20, 2))
    return json.dumps({"kind": "matrix", "a": a.tolist(), "b": b.tolist()})


def test_stabilize_missed_target_exit_two(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", _missed_target_spec(),
                    "--mu", "2", "--out", str(out)]) == 2
    report = read_report(out)
    assert report["verdict"] == "missed-target"
    assert report["mu"] == 2.0 and report["measured_rate"] < 2.0
    assert not (out / "gain.csv").exists()


def test_stabilize_numerical_breakdown_exits_three(tmp_path, monkeypatch,
                                                  capsys):
    # exit 1 means unstabilizable; an overflow decides nothing
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli.fb, "solve_shifted_riccati", overflow)
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", SCALAR_SPEC,
                    "--out", str(out)]) == 3
    assert "OverflowError" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("mu", ["nan", "inf", "0", "-1"])
def test_stabilize_refuses_a_rate_not_positive_and_finite(mu, tmp_path,
                                                         capsys):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", ROTATION_SPEC, "--mu", mu,
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: ValueError: target rate mu must be positive and finite\n")
    assert not (out / "report.json").exists()


def test_stabilize_folds_a_fast_loop_without_overflow(tmp_path):
    # the closed loop decays at rate 80: e^{80 t} overflows from t = 8.89
    # on, where the curve's norms are 0 or subnormal and carry no digits
    out = tmp_path / "s"
    spec = ('{"kind": "matrix", "a": [[-80, 1], [0, -90]], '
            '"b": [[1], [1]]}')
    assert run_cli(["stabilize", "--system", spec, "--mu", "1",
                    "--out", str(out)]) == 0
    report = read_report(out)
    assert report["measured_rate"] > 80.0
    assert 1.0 <= report["measured_overshoot"] < math.inf
    assert (out / "gain.csv").exists()
    rows = (out / "decay" / "decay.csv").read_text().splitlines()[1:]
    assert len(rows) == 200
    # the report's peak is the fold of the curve's normal norms, none of
    # whose terms overflows
    peak = max(float(norm) * math.exp(report["measured_rate"] * float(t))
               for t, norm in (row.split(",") for row in rows)
               if float(norm) >= np.finfo(float).tiny)
    assert report["measured_overshoot"] == peak
    # a term whose exponential overflows is taken in log space
    assert cli._scaled_norm(math.exp(-705.0), 715.0) == pytest.approx(
        math.exp(10.0), rel=1e-12)


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_stabilize_rejects_an_empty_grid(tmp_path, grid):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", SCALAR_SPEC, "--grid", grid,
                    "--out", str(out)]) == 3
    assert not (out / "report.json").exists()


# A = [[1, 0], [1, -1]], B = e_2: B cannot reach the mode +1
_UNSTABILIZABLE_SPEC = ('{"kind": "matrix", "a": [[1, 0], [1, -1]], '
                        '"b": [[0], [1]]}')


@pytest.mark.parametrize("spec", [_UNSTABILIZABLE_SPEC, ROTATION_SPEC],
                         ids=["unstabilizable", "controllable"])
@pytest.mark.parametrize("flags, message", [
    (["--horizon", "nan"], "propagation time must be finite and nonnegative"),
    (["--horizon", "inf"], "propagation time must be finite and nonnegative"),
    (["--horizon", "-1"], "propagation time must be finite and nonnegative"),
    (["--grid", "0"], "grid must be >= 1"),
], ids=["horizon-nan", "horizon-inf", "horizon-negative", "grid-0"])
def test_stabilize_usage_errors_come_before_the_synthesis(spec, flags,
                                                          message, tmp_path,
                                                          capsys):
    # a decay curve that cannot be drawn exits 3 and writes nothing,
    # whether or not the pair can be stabilized
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", spec, *flags,
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    assert not out.exists()


def test_a_hamiltonian_that_does_not_split_writes_no_report(tmp_path,
                                                            capsys):
    # PBH passes on this pair (see test_feedback.py's NEAR_SPLIT), so no
    # eigenvalue is to blame: no report with a NaN offending eigenvalue
    spec = ('{"kind": "matrix", "a": [[-1.550000105876432e-09, '
            '-1.00000000155], [-1.00000000155, -1.5499998378448836e-09]], '
            '"b": [[-0.7071067811865475], [0.7071067811865476]]}')
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--mu", "1", "--system", spec,
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: LinAlgError: hamiltonian splits into sdim = 1 stable and 3 "
        "unstable eigenvalues, not n = 2 each")
    assert not out.exists()


@pytest.mark.parametrize("big_c", ["nan", "inf", "1"])
def test_refutation_constant_must_be_finite_and_exceed_one(big_c, tmp_path,
                                                           capsys):
    out = tmp_path / "p"
    assert run_cli(["periodic", "--modes", "4",
                    "--refute-null-controllability", "--m", "1",
                    "--C", big_c, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: ValueError: the constant C = {float(big_c)!r} must be "
        f"finite and exceed 1\n")
    # energies.csv included: nothing is written before C is checked
    assert not out.exists() or not any(out.iterdir())


def test_c_alpha_table_without_an_alpha_names_it(tmp_path, capsys):
    out = tmp_path / "w"
    assert run_cli(["weakobs", "--system", SCALAR_SPEC, "--alpha-grid",
                    "1,2,4", "--t-grid", "1", "--c-alpha",
                    '{"1": 1, "4": 2}', "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: ValueError: residual table has no C(alpha) for "
        "alpha = 2.0\n")
    assert not out.exists()


def test_example_point_heat_logs_convergent(tmp_path):
    out = tmp_path / "e"
    code = run_cli(["example", "point-heat", "--x0", "cf", "--depth", "3",
                    "--modes", "8", "--c", "5", "--check", "weakobs",
                    "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["x0"]["convergent"] == "2981/5963"
    assert report["x0"]["partial_quotients"] == [0, 2, 2981]
    assert report["verdict"] == "certified"


_POINT_HEAT = ["example", "point-heat", "--x0", "cf", "--depth", "3",
               "--c", "5"]
PAPER_EXAMPLES = (
    [(_POINT_HEAT + ["--modes", str(m)], 0) for m in (8, 16, 30, 60)]
    + [(["example", "hermite-heat", "--modes", str(m)], 0)
       for m in (6, 12, 20, 40)]
    + [(["example", "fractional-heat", "--modes", str(m)], 0)
       for m in (8, 16, 32)]
    + [(["example", "periodic-l2", "--modes", "10"], 0),
       (["example", "periodic-l2", "--modes", "10",
         "--refute-null-controllability", "--m", "1", "--C", "10"], 1)])


@pytest.mark.parametrize("argv, code", PAPER_EXAMPLES,
                         ids=[" ".join(a[1:]) for a, _ in PAPER_EXAMPLES])
def test_paper_example_verdicts(argv, code, tmp_path):
    # the paper's "not null controllable but completely stabilizable"
    # examples certify at every truncation order; periodic-l2 also refutes
    # null controllability
    assert run_cli(argv + ["--seed", "5", "--out", str(tmp_path)]) == code


def test_example_periodic_refutation_witness(tmp_path):
    out = tmp_path / "p"
    code = run_cli(["example", "periodic-l2", "--modes", "10",
                    "--refute-null-controllability", "--m", "1",
                    "--C", "10", "--out", str(out)])
    assert code == 1
    report = read_report(out)
    assert report["witness"]["mode"] == 4
    assert report["witness"]["free_adjoint_norm"] > \
        report["witness"]["scaled_energy"]


def test_periodic_certificates_exit_zero(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["periodic", "--modes", "8", "--k-grid", "1,2,3",
                    "--out", str(out)]) == 0
    report = read_report(out)
    assert report["verdict"] == "certified"
    energies = (out / "energies.csv").read_text().splitlines()
    assert len(energies) == 9


def test_periodic_writes_the_requested_k_as_integers(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["periodic", "--modes", "8", "--k-grid", "3,1,2",
                    "--out", str(out)]) == 0
    certs = read_report(out)["certificates"]
    assert [c["k"] for c in certs] == [3, 1, 2]
    assert all(type(c["k"]) is int and type(c["n_k"]) is int
               and c["n_k"] == 1 for c in certs)


@pytest.mark.parametrize("extra, samples", [([], 100),
                                             (["--samples", "7"], 7)])
def test_periodic_example_passes_samples(extra, samples, tmp_path,
                                         monkeypatch):
    seen = []
    check = cli.per.multiplexed_stabilizability_check

    def spy(*args, **kwargs):
        seen.append(kwargs.get("samples"))
        return check(*args, **kwargs)

    monkeypatch.setattr(cli.per, "multiplexed_stabilizability_check", spy)
    code = run_cli(["example", "periodic-l2", "--modes", "4", "--k-grid",
                    "1,2", "--out", str(tmp_path / "p")] + extra)
    assert code in (0, 1, 2)
    assert seen == [samples, samples]


@pytest.mark.parametrize("flag, value", [
    ("--alpha-grid", "1,2"), ("--t-grid", "1"), ("--c-alpha", "2"),
    ("--samples", "3"), ("--seed", "5"),
])
def test_sweep_flags_are_rejected_with_check_stabilize(flag, value,
                                                       tmp_path, capsys):
    out = tmp_path / "s"
    code = run_cli(["example", "point-heat", "--check", "stabilize", flag,
                    value, "--out", str(out)])
    assert code == 3
    assert f"read only by --check weakobs: {flag}" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    # the same flag is a sweep setting under --check weakobs
    assert run_cli(["example", "point-heat", "--modes", "3", flag, value,
                    "--out", str(out)]) in (0, 1, 2)


def test_example_fractional_stabilize(tmp_path):
    out = tmp_path / "f"
    code = run_cli(["example", "fractional-heat", "--s", "0.5", "--c", "2",
                    "--modes", "6", "--check", "stabilize", "--mu", "1.5",
                    "--out", str(out)])
    assert code == 0
    assert read_report(out)["measured_rate"] >= 1.5
    # example has no --horizon or --grid: the curve is stabilize's default
    rows = (out / "decay" / "decay.csv").read_text().splitlines()[1:]
    assert len(rows) == 200
    assert float(rows[-1].split(",")[0]) == 10.0


@pytest.mark.parametrize("argv, modes", [
    (["example", "point-heat"], 8),
    (["example", "hermite-heat"], 8),
    (["example", "fractional-heat"], 8),
    (["example", "periodic-l2"], 8),
    (["periodic"], 10),
])
def test_default_truncation_order(argv, modes, tmp_path):
    run_cli(argv + ["--out", str(tmp_path)])
    report = read_report(tmp_path)
    if argv[-1].startswith("periodic"):
        assert report["modes"] == modes
    else:
        assert report["system"].endswith(f"[trunc n={modes}]")


_POINT_HEAT_SPEC = '{"kind": "point_heat", "x0": 0.3, "c": 5, "modes": 12}'


@pytest.mark.parametrize("command", ["gramian", "weakobs", "stabilize"])
def test_zero_truncation_order_is_rejected(command, tmp_path, capsys):
    out = tmp_path / "z"
    code = run_cli([command, "--system", _POINT_HEAT_SPEC, "--modes", "0",
                    "--out", str(out)])
    assert code == 3
    assert "truncation order 0 outside [1, 12]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["gramian", "weakobs", "stabilize"])
def test_modes_on_a_matrix_spec_is_a_usage_error(command, tmp_path, capsys):
    # a matrix spec has no modes to truncate: the flag is not ignored
    out = tmp_path / "m"
    code = run_cli([command, "--system", SCALAR_SPEC, "--modes", "3",
                    "--out", str(out)])
    assert code == 3
    assert "--modes truncates spectral specs only" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_a_usage_error(value, tmp_path, capsys):
    # a QuadratureError escaping main would be a traceback and exit 1
    out = tmp_path / "g"
    assert run_cli(["gramian", "--system", SCALAR_SPEC, "--tol", value,
                    "--out", str(out)]) == 3
    assert "rel_tol must be positive and finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["gramian --horizon", "weakobs --t-grid",
                                  "stabilize --horizon"])
def test_non_finite_horizon_is_a_usage_error(flag, value, tmp_path, capsys):
    # exit 1 is refuted: a horizon no quadrature can integrate exits 3
    command, option = flag.split()
    out = tmp_path / "h"
    code = run_cli([command, "--system", SCALAR_SPEC, option, value,
                    "--out", str(out)])
    assert code == 3
    assert "finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["gramian", "--system", SCALAR_SPEC],
    ["constants", "--formula", "admissibility"],
    ["stabilize", "--system", SCALAR_SPEC],
])
def test_seed_is_refused_where_nothing_reads_it(argv, tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert run_cli(argv + ["--seed", "1", "--out", str(tmp_path / "t")]) == 3
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert "seed" not in read_report(out).get("inputs", {})


def test_verify_all_plumbing(tmp_path, monkeypatch, capsys):
    fake = (
        ("always-green", 5.0, lambda seed: "fine"),
        ("always-red", 5.0,
         lambda seed: (_ for _ in ()).throw(AssertionError("broken"))),
    )
    monkeypatch.setattr(verification, "ALL_CRITERIA", fake)
    out = tmp_path / "v"
    code = run_cli(["verify-all", "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert "[PASS] always-green" in printed
    assert "[FAIL] always-red" in printed
    report = read_report(out)
    assert report["all_passed"] is False

    monkeypatch.setattr(verification, "ALL_CRITERIA", fake[:1])
    assert run_cli(["verify-all", "--out", str(out)]) == 0

    # a criterion's wall-clock time is printed, never written: a slower
    # run of the same criteria writes the same bytes
    naps = iter((0.0, 0.05))
    monkeypatch.setattr(verification, "ALL_CRITERIA", (
        ("naps", 5.0, lambda seed: time.sleep(next(naps)) or "rested"),))
    written = []
    for run in ("fast", "slow"):
        assert run_cli(["verify-all", "--out", str(tmp_path / run)]) == 0
        written.append((tmp_path / run / "report.json").read_bytes())
    assert written[0] == written[1]
    assert "s / budget 5s): rested" in capsys.readouterr().out

    # nor is the time of a criterion over its budget
    naps = iter((0.01, 0.03))
    monkeypatch.setattr(verification, "ALL_CRITERIA", (
        ("slow", 0.001, lambda seed: time.sleep(next(naps)) or "rested"),))
    written = []
    for run in ("over", "further-over"):
        assert run_cli(["verify-all", "--out", str(tmp_path / run)]) == 1
        written.append((tmp_path / run / "report.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["results"][0]["detail"] == \
        "over budget: rested"
    assert "s / budget 0s): over budget: rested" in capsys.readouterr().out
