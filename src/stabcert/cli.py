"""Command-line front end: load system specs, run analyses, write reports.

Each subcommand's handler reads its flags from the parsed argparse
namespace.  A default is stated once: in the parser, or as a module
constant where a handler must agree with a flag that one of its commands
lacks (`example`'s `--samples` and the `--horizon`/`--grid` of
`example --check stabilize`).

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
from pathlib import Path

import numpy as np

from . import feedback as fb
from . import lrconstants as lrc
from . import periodic as per
from . import systems as sysmod
from . import verification, weakobs
from .semigroup import QuadratureSpec, grid_norms, observability_gramian
from .systems import LtiSystem, SpectralSystem

__all__ = ["main"]

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

# random states searched by a weakobs sweep and by the periodic check
WEAKOBS_SAMPLES = 120
PERIODIC_SAMPLES = 100
# the decay curve of `stabilize`, and of `example --check stabilize`
STABILIZE_HORIZON = 10.0
STABILIZE_GRID = 200

# `constants` inputs a formula falls back on; alpha_k, c_k and c_k_t0
# have none, so a formula that needs one fails without it
_CONSTANTS_DEFAULTS = {
    "m_big": 1.0, "delta0": 0.0, "m_k": 1.0, "b_norm": 1.0, "alpha": 1.0,
    "t0": 1.0, "gamma": 0.25, "rho0": 0.0, "c_gamma": 1.0, "horizon": 1.0,
}


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


def _load_lti(args) -> LtiSystem:
    obj = sysmod.system_from_spec(_load_spec_dict(args.system))
    if isinstance(obj, SpectralSystem):
        return sysmod.truncate(obj, args.modes or obj.n)
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

def _cmd_gramian(args) -> int:
    lti = _load_lti(args)
    result = observability_gramian(lti, args.horizon,
                                   QuadratureSpec(rel_tol=args.tol))
    out = Path(args.out)
    _write_csv(out / "gramian.csv",
               [f"g{j}" for j in range(result.matrix.shape[1])],
               result.matrix.tolist())
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": "observability-gramian",
        "system": lti.label,
        "horizon": args.horizon,
        "trace": float(np.trace(result.matrix)),
        "min_eigenvalue": float(np.linalg.eigvalsh(result.matrix).min()),
        "quadrature_error_estimate": result.quadrature_error_estimate,
    })
    return EXIT_CERTIFIED


def _parse_grid(text, default):
    if not text:
        return list(default)
    return [float(v) for v in text.split(",") if v != ""]


def _run_weakobs(args, lti: LtiSystem, extra=None) -> int:
    alphas = _parse_grid(args.alpha_grid, (0.5, 1.0, 2.0, 4.0, 8.0))
    horizons = _parse_grid(args.t_grid, (0.5, 1.0, 2.0, 4.0))
    if args.c_alpha.strip().startswith("{"):
        residual = {float(k): float(v)
                    for k, v in json.loads(args.c_alpha).items()}
    else:
        residual = float(args.c_alpha)
    samples = WEAKOBS_SAMPLES if args.samples is None else args.samples
    fam = weakobs.sweep_alpha(lti, alphas, horizons,
                              residual_rule=residual, samples=samples,
                              seed=args.seed, t_zero=args.t0)
    out = Path(args.out)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "claim": "weak-observability-family",
        "system": lti.label,
        "seed": args.seed,
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


def _cmd_weakobs(args) -> int:
    return _run_weakobs(args, _load_lti(args))


def _unbounded_spec(o):
    return sysmod.UnboundedConstantsSpec(gamma=o["gamma"], rho0=o["rho0"],
                                         c_gamma=o["c_gamma"],
                                         b_norm=o["b_norm"])


def _cmd_constants(args) -> int:
    formula = args.formula
    given = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "out", "seed",
                                            "formula")}
    o = {**_CONSTANTS_DEFAULTS, **given}
    if formula == "admissibility":
        result = {"claim": "admissibility-constant",
                  "value": lrc.admissibility_constant(_unbounded_spec(o),
                                                      o["horizon"])}
    else:
        bound = lrc.SemigroupBound(m_big=o["m_big"], delta0=o["delta0"])
        if formula == "spectral":
            d_c, c_c = lrc.constants_from_spectral_inequality(
                bound, o["m_k"], o["alpha_k"], o["c_k"], o["b_norm"],
                o["alpha"])
            validity = {"T_min": 1.0}
        elif formula == "truncated":
            d_c, c_c = lrc.constants_from_truncated_obs(
                bound, o["t0"], o["c_k_t0"], o["m_k"], o["alpha_k"],
                o["b_norm"], o["alpha"])
            validity = {"T_min": 2.0 * o["t0"]}
        else:
            d_c, c_c = lrc.constants_from_truncated_obs_unbounded(
                bound, _unbounded_spec(o), o["t0"], o["c_k_t0"], o["m_k"],
                o["alpha"])
            validity = {"T_min": 2.0 * o["t0"]}
        result = {"claim": f"certificate-constants-{formula}",
                  "D": d_c, "C": c_c, "validity": validity}
    _write_json(Path(args.out) / "report.json", {
        "schema_version": SCHEMA_VERSION, "formula": formula,
        "inputs": given, **result})
    return EXIT_CERTIFIED


def _cmd_stabilize(args) -> int:
    return _stabilize_system(args, _load_lti(args), {}, args.horizon,
                             args.grid)


def _cmd_periodic(args, samples=PERIODIC_SAMPLES) -> int:
    modes = args.modes
    sys_p = per.build_multiplexed_system(modes, args.series_terms)
    out = Path(args.out)
    energies = [(n + 1, per.periodic_observation_energy(
        sys_p, 1, np.eye(modes)[n])) for n in range(modes)]
    _write_csv(out / "energies.csv", ["mode", "energy_one_period"], energies)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "claim": "periodic-weak-observability",
        "modes": modes,
        "alpha_series": sys_p.alpha_series,
        "tail_bound": sys_p.tail_bound,
        "seed": args.seed,
    }
    if args.refute_null_controllability:
        n, lhs, rhs = per.noncontrollability_witness(sys_p, args.m, args.C)
        payload.update({
            "claim": "null-controllability-refutation",
            "witness": {"m": args.m, "C": args.C, "mode": n,
                        "free_adjoint_norm": lhs,
                        "scaled_energy": rhs},
            "verdict": weakobs.REFUTED,
        })
        _write_json(out / "report.json", payload)
        return EXIT_REFUTED        # refuting null controllability succeeded

    k_grid = [int(v) for v in args.k_grid.split(",")]
    certs = [per.multiplexed_stabilizability_check(sys_p, k, samples=samples,
                                                   seed=args.seed)
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


def _cmd_example(args) -> int:
    name, c = args.name, args.c
    intervals = None if args.intervals is None else json.loads(args.intervals)
    if name == "periodic-l2":
        return _cmd_periodic(args, PERIODIC_SAMPLES if args.samples is None
                             else args.samples)
    extra = {}
    if name == "point-heat":
        if args.x0 == "cf":
            cf = sysmod.continued_fraction_point(args.depth)
            x0 = cf.x0
            last = cf.convergents[-1]
            extra["x0"] = {
                "source": "continued-fraction",
                "depth": args.depth,
                "value": x0,
                "convergent": f"{last.numerator}/{last.denominator}",
                "partial_quotients": list(cf.partial_quotients),
            }
        else:
            x0 = float(args.x0)
            extra["x0"] = {"source": "literal", "value": x0}
        spec = sysmod.point_control_heat(x0, 5.0 if c is None else c,
                                         args.modes)
    elif name == "fractional-heat":
        spec = sysmod.fractional_heat(
            args.s, 2.0 if c is None else c,
            [[0.3, 0.8]] if intervals is None else intervals, args.modes)
    else:
        spec = sysmod.hermite_heat(
            1.0 if c is None else c,
            [[0.0, math.inf]] if intervals is None else intervals,
            args.modes)
    lti = sysmod.truncate(spec, spec.n)
    if args.check == "stabilize":
        return _stabilize_system(args, lti, extra, STABILIZE_HORIZON,
                                 STABILIZE_GRID)
    return _run_weakobs(args, lti, extra=extra)


def _stabilize_system(args, lti, extra, horizon, grid):
    mu = args.mu
    out = Path(args.out)
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


def _cmd_verify_all(args) -> int:
    results = verification.run_all(args.seed)
    for r in results:
        print(r.line)
    _write_json(Path(args.out) / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": "acceptance-suite",
        "seed": args.seed,
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

    def weakobs_flags(p, **samples):
        p.add_argument("--alpha-grid", default="")
        p.add_argument("--t-grid", default="")
        p.add_argument("--c-alpha", default="1.0",
                       help="residual constant C(alpha): number or JSON "
                            "table")
        p.add_argument("--samples", type=int, **samples)
        p.add_argument("--t0", type=float, default=0.0)

    def periodic_flags(p):
        p.add_argument("--series-terms", type=int, default=12)
        p.add_argument("--k-grid", default="1,2,3,4,5")
        p.add_argument("--refute-null-controllability", action="store_true")
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--C", type=float, default=10.0)

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
    weakobs_flags(p, default=WEAKOBS_SAMPLES)
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
    p.add_argument("--horizon", type=float, default=STABILIZE_HORIZON)
    p.add_argument("--grid", type=int, default=STABILIZE_GRID)
    p.add_argument("--modes", type=int, default=None)

    p = sub.add_parser("periodic", help="periodic benchmark certificates "
                                        "or refutation witness")
    common(p)
    p.add_argument("--modes", type=int, default=10)
    periodic_flags(p)

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
    weakobs_flags(p, default=None,
                  help=f"random states searched (default {WEAKOBS_SAMPLES}; "
                       f"{PERIODIC_SAMPLES} for periodic-l2)")
    periodic_flags(p)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    common(p)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; IO/parse failures and usage errors exit 3."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:         # --help exits 0, usage errors nonzero
        return EXIT_ERROR if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    _sys.exit(main())
