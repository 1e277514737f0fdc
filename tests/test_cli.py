import json
import math

import numpy as np
import pytest

from stabcert import (cli, feedback, lrconstants, semigroup, systems,
                      verification)

SCALAR_SPEC = '{"kind": "matrix", "a": [[0.0]], "b": [[1.0]]}'
DEAD_SPEC = '{"kind": "matrix", "a": [[0.0]], "b": [[0.0]]}'


def run_cli(args):
    return cli.main(args)


def read_report(outdir):
    return json.loads((outdir / "report.json").read_text())


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
    assert "error: KeyError: 'alpha_k'" in capsys.readouterr().err


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
    calls = {"grid_norms": [], "grid_peak": []}

    def spy(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args[1:3])
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    spy(cli, "grid_norms")
    spy(semigroup, "grid_norms")
    spy(feedback, "grid_peak")
    spec = '{"kind": "matrix", "a": [[0, 5], [0, 0]], "b": [[0], [1]]}'
    assert run_cli(["stabilize", "--system", spec, "--mu", "1",
                    "--out", str(tmp_path / "s")]) == 0
    assert calls == {"grid_norms": [(10.0, 200)], "grid_peak": [(10.0, 200)]}


def test_stabilize_unstabilizable_exit_one(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", DEAD_SPEC, "--mu", "1",
                    "--out", str(out)]) == 1
    assert read_report(out)["verdict"] == "unstabilizable"


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


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_stabilize_rejects_an_empty_grid(tmp_path, grid):
    out = tmp_path / "s"
    assert run_cli(["stabilize", "--system", SCALAR_SPEC, "--grid", grid,
                    "--out", str(out)]) == 3
    assert not (out / "report.json").exists()


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
    [(_POINT_HEAT + ["--modes", str(m)], 0) for m in (8, 16, 30)]
    + [(["example", "hermite-heat", "--modes", str(m)], 0)
       for m in (6, 12, 20)]
    + [(["example", "fractional-heat", "--modes", str(m)], 0)
       for m in (8, 16)]
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
