"""Command-line front end: load system specs, run analyses, write reports.

Reports are deterministic machine-readable JSON (sorted keys, no
timestamps: a fixed seed reproduces byte-identical output) plus plot-ready
CSV files with 17-significant-digit floats.  Exit codes follow the
certificate verdict: 0 certified, 1 refuted, 2 inconclusive, 3 on IO or
parse failures, including command-line usage errors.
"""

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import feedback as fb
from . import lrconstants as lrc
from . import periodic as per
from . import systems as sysmod
from . import verification, weakobs
from .semigroup import QuadratureSpec, grid_norms, observability_gramian
from .systems import LtiSystem, SpectralSystem

__all__ = ["RunConfig", "run", "main"]

SCHEMA_VERSION = 1
EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_STATUS_EXIT = {
    weakobs.CERTIFIED: EXIT_CERTIFIED,
    weakobs.REFUTED: EXIT_REFUTED,
    weakobs.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


@dataclass
class RunConfig:
    command: str
    system_spec: str = ""
    output_dir: str = "stabcert-out"
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)


def _fmt(x):
    return f"{float(x):.17g}"


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float,
                                                        np.floating))
                              else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _load_spec_dict(raw: str) -> dict:
    raw = raw.strip()
    if raw.startswith("{"):
        return json.loads(raw)
    return json.loads(Path(raw).read_text())


def _load_lti(config: RunConfig) -> LtiSystem:
    spec = _load_spec_dict(config.system_spec)
    obj = sysmod.system_from_spec(spec)
    if isinstance(obj, SpectralSystem):
        modes = int(config.options.get("modes") or obj.n)
        return sysmod.truncate(obj, modes)
    return obj


def _cert_payload(cert):
    entry = {
        "T": cert.horizon,
        "alpha": cert.alpha,
        "D": cert.d_const,
        "C": cert.c_const,
        "status": cert.status,
        "margin": cert.margin,
    }
    if cert.witness is not None:
        entry["witness"] = [float(v) for v in cert.witness]
    return entry


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gramian(config: RunConfig) -> int:
    lti = _load_lti(config)
    horizon = float(config.options.get("horizon", 1.0))
    quad = QuadratureSpec(rel_tol=config.tolerances.get("quad", 1e-10))
    result = observability_gramian(lti, horizon, quad)
    out = Path(config.output_dir)
    _write_csv(out / "gramian.csv",
               [f"g{j}" for j in range(result.matrix.shape[1])],
               result.matrix.tolist())
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": "observability-gramian",
        "system": lti.label,
        "horizon": horizon,
        "trace": float(np.trace(result.matrix)),
        "min_eigenvalue": float(np.linalg.eigvalsh(result.matrix).min()),
        "quadrature_error_estimate": result.quadrature_error_estimate,
    })
    return EXIT_CERTIFIED


def _parse_grid(text, default):
    if not text:
        return list(default)
    return [float(v) for v in str(text).split(",") if v != ""]


def _run_weakobs(config: RunConfig, lti: LtiSystem, extra=None) -> int:
    alphas = _parse_grid(config.grids.get("alpha"), (0.5, 1.0, 2.0, 4.0, 8.0))
    horizons = _parse_grid(config.grids.get("t"), (0.5, 1.0, 2.0, 4.0))
    residual = config.options.get("c_alpha", 1.0)
    if isinstance(residual, str) and residual.strip().startswith("{"):
        table = json.loads(residual)
        residual = {float(k): float(v) for k, v in table.items()}
    else:
        residual = float(residual)
    fam = weakobs.sweep_alpha(lti, alphas, horizons,
                              residual_rule=residual,
                              samples=int(config.options.get("samples", 120)),
                              seed=config.seed,
                              t_zero=float(config.options.get("t0", 0.0)))
    out = Path(config.output_dir)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "claim": "weak-observability-family",
        "system": lti.label,
        "seed": config.seed,
        "alphas": list(fam.alphas),
        "horizons": list(fam.horizons),
        "residual_source": fam.residual_source,
        "certificates": [_cert_payload(c) for c in fam.certificates],
        "verdict": fam.verdict,
    }
    if extra:
        payload.update(extra)
    _write_json(out / "report.json", payload)
    _write_csv(out / "certificates" / "certificates.csv",
               ["alpha", "T", "D", "C", "status", "margin"],
               [(c.alpha, c.horizon, c.d_const, c.c_const, c.status,
                 c.margin) for c in fam.certificates])
    return _STATUS_EXIT[fam.verdict]


def _cmd_weakobs(config: RunConfig) -> int:
    return _run_weakobs(config, _load_lti(config))


def _unbounded_spec(o):
    return sysmod.UnboundedConstantsSpec(
        gamma=float(o.get("gamma", 0.25)),
        rho0=float(o.get("rho0", 0.0)),
        c_gamma=float(o.get("c_gamma", 1.0)),
        b_norm=float(o.get("b_norm", 1.0)))


def _cmd_constants(config: RunConfig) -> int:
    o = config.options
    formula = o.get("formula", "spectral")
    bound = lrc.SemigroupBound(m_big=float(o.get("m_big", 1.0)),
                               delta0=float(o.get("delta0", 0.0)))
    alpha = float(o.get("alpha", 1.0))
    if formula == "spectral":
        d_c, c_c = lrc.constants_from_spectral_inequality(
            bound, float(o.get("m_k", 1.0)), float(o["alpha_k"]),
            float(o["c_k"]), float(o.get("b_norm", 1.0)), alpha)
        validity = {"T_min": 1.0}
    elif formula == "truncated":
        t0 = float(o.get("t0", 1.0))
        d_c, c_c = lrc.constants_from_truncated_obs(
            bound, t0, float(o["c_k_t0"]), float(o.get("m_k", 1.0)),
            float(o["alpha_k"]), float(o.get("b_norm", 1.0)), alpha)
        validity = {"T_min": 2.0 * t0}
    elif formula == "unbounded":
        t0 = float(o.get("t0", 1.0))
        d_c, c_c = lrc.constants_from_truncated_obs_unbounded(
            bound, _unbounded_spec(o), t0, float(o["c_k_t0"]),
            float(o.get("m_k", 1.0)), alpha)
        validity = {"T_min": 2.0 * t0}
    elif formula == "admissibility":
        value = lrc.admissibility_constant(_unbounded_spec(o),
                                           float(o.get("horizon", 1.0)))
        _write_json(Path(config.output_dir) / "report.json", {
            "schema_version": SCHEMA_VERSION,
            "claim": "admissibility-constant",
            "formula": formula,
            "inputs": {k: v for k, v in o.items() if k != "formula"},
            "value": value,
        })
        return EXIT_CERTIFIED
    else:
        raise ValueError(f"unknown formula {formula!r}")
    _write_json(Path(config.output_dir) / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": f"certificate-constants-{formula}",
        "formula": formula,
        "inputs": {k: v for k, v in o.items() if k != "formula"},
        "D": d_c,
        "C": c_c,
        "validity": validity,
    })
    return EXIT_CERTIFIED


def _cmd_stabilize(config: RunConfig) -> int:
    return _stabilize_system(config, _load_lti(config), {})


def _cmd_periodic(config: RunConfig) -> int:
    o = config.options
    modes = int(o.get("modes", 10))
    terms = int(o.get("series_terms", 12))
    sys_p = per.build_multiplexed_system(modes, terms)
    out = Path(config.output_dir)
    energies = [(n + 1, per.periodic_observation_energy(
        sys_p, 1, np.eye(modes)[n])) for n in range(modes)]
    _write_csv(out / "energies.csv", ["mode", "energy_one_period"], energies)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "claim": "periodic-weak-observability",
        "modes": modes,
        "alpha_series": sys_p.alpha_series,
        "tail_bound": sys_p.tail_bound,
        "seed": config.seed,
    }
    if o.get("refute_null_controllability"):
        m = int(o.get("m", 1))
        big_c = float(o.get("C", 10.0))
        n, lhs, rhs = per.noncontrollability_witness(sys_p, m, big_c)
        payload.update({
            "claim": "null-controllability-refutation",
            "witness": {"m": m, "C": big_c, "mode": n,
                        "free_adjoint_norm": lhs,
                        "scaled_energy": rhs},
            "verdict": weakobs.REFUTED,
        })
        _write_json(out / "report.json", payload)
        return EXIT_REFUTED        # refuting null controllability succeeded

    k_grid = [int(v) for v in str(o.get("k_grid", "1,2,3,4,5")).split(",")]
    samples = int(o.get("samples", 100))
    certs = [per.multiplexed_stabilizability_check(sys_p, k, samples=samples,
                                                   seed=config.seed)
             for k in k_grid]
    payload["certificates"] = [{
        "k": c.k, "n_k": c.n_k, "C": c.c_k, "status": c.status,
        "margin": c.margin,
    } for c in certs]
    statuses = [c.status for c in certs]
    verdict = weakobs.family_verdict(
        all(s == weakobs.CERTIFIED for s in statuses), statuses)
    payload["verdict"] = verdict
    _write_json(out / "report.json", payload)
    return _STATUS_EXIT[verdict]


def _cmd_example(config: RunConfig) -> int:
    o = config.options
    name = o.get("name")
    if isinstance(o.get("intervals"), str):
        o = {**o, "intervals": json.loads(o["intervals"])}
    extra = {}
    if name == "point-heat":
        depth = int(o.get("depth", 3))
        raw_x0 = o.get("x0", "cf")
        if raw_x0 == "cf":
            cf = sysmod.continued_fraction_point(depth)
            x0 = cf.x0
            last = cf.convergents[-1]
            extra["x0"] = {
                "source": "continued-fraction",
                "depth": depth,
                "value": x0,
                "convergent": f"{last.numerator}/{last.denominator}",
                "partial_quotients": list(cf.partial_quotients),
            }
        else:
            x0 = float(raw_x0)
            extra["x0"] = {"source": "literal", "value": x0}
        spec = sysmod.point_control_heat(x0, float(o.get("c", 5.0)),
                                         int(o.get("modes", 8)))
        lti = sysmod.truncate(spec, spec.n)
    elif name == "fractional-heat":
        spec = sysmod.fractional_heat(float(o.get("s", 0.5)),
                                      float(o.get("c", 2.0)),
                                      o.get("intervals", [[0.3, 0.8]]),
                                      int(o.get("modes", 8)))
        lti = sysmod.truncate(spec, spec.n)
    elif name == "hermite-heat":
        spec = sysmod.hermite_heat(float(o.get("c", 1.0)),
                                   o.get("intervals", [[0.0, math.inf]]),
                                   int(o.get("modes", 6)))
        lti = sysmod.truncate(spec, spec.n)
    elif name == "periodic-l2":
        return _cmd_periodic(config)
    else:
        raise ValueError(f"unknown example {name!r}")

    check = o.get("check", "weakobs")
    if check == "weakobs":
        return _run_weakobs(config, lti, extra=extra)
    if check == "stabilize":
        return _stabilize_system(config, lti, extra)
    raise ValueError(f"unknown check {check!r}")


def _stabilize_system(config, lti, extra):
    mu = float(config.options.get("mu", 1.0))
    horizon = float(config.options.get("horizon", 10.0))
    grid = int(config.options.get("grid", 200))
    out = Path(config.output_dir)
    head = {"schema_version": SCHEMA_VERSION, "claim": "rapid-decay-feedback",
            "system": lti.label, "mu": mu}
    try:
        result = fb.solve_shifted_riccati(lti, mu, rate_horizon=horizon,
                                          rate_grid=grid)
    except fb.UnstabilizableError as exc:
        _write_json(out / "report.json", {
            **head, "verdict": "unstabilizable",
            "offending_eigenvalue": [exc.eigenvalue.real,
                                     exc.eigenvalue.imag], **extra})
        return EXIT_REFUTED
    except RuntimeError as exc:
        if not hasattr(exc, "measured_rate"):
            raise
        _write_json(out / "report.json", {
            **head, "verdict": "missed-target",
            "measured_rate": exc.measured_rate, **extra})
        return EXIT_INCONCLUSIVE
    a_cl = lti.a_matrix + lti.b_matrix @ result.gain_k
    closed = LtiSystem(a_cl, lti.b_matrix, label="closed-loop")
    decay = zip(np.linspace(0.0, horizon, grid),
                grid_norms(closed, horizon, grid))
    _write_csv(out / "gain.csv",
               [f"k{j}" for j in range(result.gain_k.shape[1])],
               result.gain_k.tolist())
    _write_csv(out / "decay" / "decay.csv", ["t", "norm"], decay)
    _write_json(out / "report.json", {
        **head, "verdict": "synthesized",
        "measured_rate": result.measured_rate,
        "measured_overshoot": result.measured_overshoot,
        "riccati_residual": result.residual, **extra})
    return EXIT_CERTIFIED


def _cmd_verify_all(config: RunConfig) -> int:
    results = verification.run_all(config.seed)
    for r in results:
        print(r.line)
    out = Path(config.output_dir)
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": "acceptance-suite",
        "seed": config.seed,
        "results": [{"name": r.name, "passed": r.passed,
                     "duration": round(r.duration, 3), "detail": r.detail}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    })
    return EXIT_CERTIFIED if all(r.passed for r in results) else EXIT_REFUTED


_COMMANDS = {
    "gramian": _cmd_gramian,
    "weakobs": _cmd_weakobs,
    "constants": _cmd_constants,
    "stabilize": _cmd_stabilize,
    "periodic": _cmd_periodic,
    "example": _cmd_example,
    "verify-all": _cmd_verify_all,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed run configuration; IO/parse failures exit 3."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=_sys.stderr)
        return EXIT_ERROR
    try:
        return handler(config)
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stabcert",
        description="Weak-observability certificates and rapid-decay "
                    "feedback for finite control-system truncations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="stabcert-out",
                       help="output directory for report.json and CSVs")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gramian", help="observability Gramian dump")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="quadrature relative tolerance")
    p.add_argument("--system", required=True,
                   help="path to a JSON system spec, or inline JSON")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--modes", type=int, default=None)

    p = sub.add_parser("weakobs", help="sweep weak-observability "
                                       "certificates over (alpha, T)")
    common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--alpha-grid", default="")
    p.add_argument("--t-grid", default="")
    p.add_argument("--c-alpha", default="1.0",
                   help="residual constant C(alpha): number or JSON table")
    p.add_argument("--samples", type=int, default=120)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--modes", type=int, default=None)

    p = sub.add_parser("constants", help="evaluate certificate-constant "
                                         "formulas")
    common(p)
    p.add_argument("--formula", required=True,
                   choices=["spectral", "truncated", "unbounded",
                            "admissibility"])
    for flag in ("m-big", "delta0", "m-k", "alpha-k", "c-k", "b-norm",
                 "alpha", "t0", "c-k-t0", "gamma", "rho0", "c-gamma",
                 "horizon"):
        p.add_argument(f"--{flag}", type=float, default=None)

    p = sub.add_parser("stabilize", help="synthesize rate-mu feedback")
    common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--modes", type=int, default=None)

    p = sub.add_parser("periodic", help="periodic benchmark certificates "
                                        "or refutation witness")
    common(p)
    p.add_argument("--modes", type=int, default=10)
    p.add_argument("--series-terms", type=int, default=12)
    p.add_argument("--k-grid", default="1,2,3,4,5")
    p.add_argument("--refute-null-controllability", action="store_true")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--C", type=float, default=10.0)

    p = sub.add_parser("example", help="run a bundled benchmark end to end")
    common(p)
    p.add_argument("name", choices=["point-heat", "hermite-heat",
                                    "fractional-heat", "periodic-l2"])
    p.add_argument("--x0", default="cf")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--modes", type=int, default=8)
    p.add_argument("--intervals", default=None,
                   help="JSON list of [a, b] interval pairs")
    p.add_argument("--check", default="weakobs",
                   choices=["weakobs", "stabilize"])
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--alpha-grid", default="")
    p.add_argument("--t-grid", default="")
    p.add_argument("--c-alpha", default="1.0")
    p.add_argument("--samples", type=int, default=None,
                   help="random states searched (default 120; 100 for "
                        "periodic-l2)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--series-terms", type=int, default=12)
    p.add_argument("--k-grid", default="1,2,3,4,5")
    p.add_argument("--refute-null-controllability", action="store_true")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--C", type=float, default=10.0)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    opts = {}
    for key, value in vars(args).items():
        if key in ("command", "out", "seed", "tol", "alpha_grid", "t_grid",
                   "system"):
            continue
        if value is not None:
            opts[key] = value
    grids = {}
    if getattr(args, "alpha_grid", ""):
        grids["alpha"] = args.alpha_grid
    if getattr(args, "t_grid", ""):
        grids["t"] = args.t_grid
    return RunConfig(
        command=args.command,
        system_spec=getattr(args, "system", ""),
        output_dir=args.out,
        seed=args.seed,
        tolerances={"quad": args.tol} if args.command == "gramian" else {},
        grids=grids,
        options=opts,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:         # --help exits 0, usage errors nonzero
        return EXIT_ERROR if exc.code else 0
    return run(_config_from_args(args))


if __name__ == "__main__":
    _sys.exit(main())
