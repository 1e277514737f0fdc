"""Command-line front end: load system specs, run analyses, write reports.

Each subcommand's handler reads its flags from the parsed argparse
namespace.  A process builds one parser per command it runs, on first
use, and reuses it for every later `main` call: argparse keeps no state
between `parse_args` calls, each of which fills a fresh namespace, and the
`example` sweep flags default to `argparse.SUPPRESS`, so a reused parser
parses as a fresh one does.  In-process callers that run many commands (a
dense sweep's benchmark runs one `main` call per job) build each parser
once.  A default is stated once: in the parser, or as a module
constant where a handler must agree with a flag that one of its commands
lacks (the `--horizon`/`--grid` of `example --check stabilize`) or must
tell a flag given from one left unset (the sweep flags of `example`).
Each `example` takes only the flags it reads.

Reports are deterministic machine-readable JSON (sorted keys, no
timestamps: a fixed seed reproduces byte-identical output) plus plot-ready
CSV files with 17-significant-digit floats.  A report's `verdict` sets
the exit code through one table, `_STATUS_EXIT`: 0 certified or
synthesized, 1 refuted or unstabilizable, 2 inconclusive or
missed-target.  IO or parse failures, command-line usage errors and
numerical breakdowns (`ArithmeticError`) exit 3.
"""

import argparse
import functools
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

# every report `verdict` -> its exit code
_STATUS_EXIT = {
    weakobs.CERTIFIED: EXIT_CERTIFIED,
    weakobs.REFUTED: EXIT_REFUTED,
    weakobs.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    "synthesized": EXIT_CERTIFIED,
    "unstabilizable": EXIT_REFUTED,
    "missed-target": EXIT_INCONCLUSIVE,
}

# random states searched by a weakobs sweep
WEAKOBS_SAMPLES = 120
# the rate and decay curve of `stabilize`, and of `example --check
# stabilize`
STABILIZE_MU = 1.0
STABILIZE_HORIZON = 10.0
STABILIZE_GRID = 200
# the weakobs sweep flags' defaults, by argparse dest
_SWEEP_DEFAULTS = {"alpha_grid": "", "t_grid": "", "c_alpha": "1.0",
                   "samples": WEAKOBS_SAMPLES, "seed": 0}

# `constants` inputs a formula falls back on; alpha_k, c_k and c_k_t0
# have none, so a formula that needs one is refused without it
_CONSTANTS_DEFAULTS = {
    "m_big": 1.0, "delta0": 0.0, "m_k": 1.0, "b_norm": 1.0, "alpha": 1.0,
    "t0": 1.0, "gamma": 0.25, "rho0": 0.0, "c_gamma": 1.0, "horizon": 1.0,
}
_CONSTANTS_REQUIRED = {"spectral": ("alpha_k", "c_k"),
                       "truncated": ("alpha_k", "c_k_t0"),
                       "unbounded": ("c_k_t0",), "admissibility": ()}


def _fmt(x):
    return f"{float(x):.17g}"


def _write_json(path: Path, payload: dict):
    """Strict JSON (RFC 8259): a NaN or an infinity in `payload` raises
    ValueError, which exits 3, before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


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
        modes = obj.n if args.modes is None else args.modes
        return sysmod.truncate(obj, modes)
    if args.modes is not None:
        raise ValueError("--modes truncates spectral specs only")
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
    gram = result.matrix
    # lambda_min(R^T R) = sigma_min(R)^2 >= 0; eigvalsh of the formed G
    # rounds a tiny eigenvalue to either sign
    sigma_min = np.linalg.svd(result.factor, compute_uv=False).min()
    out = Path(args.out)
    _write_csv(out / "gramian.csv", [f"g{j}" for j in range(gram.shape[1])],
               gram.tolist())
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": "observability-gramian",
        "system": lti.label,
        "horizon": args.horizon,
        "trace": float(np.trace(gram)),
        "min_eigenvalue": float(sigma_min) ** 2,
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
    fam = weakobs.sweep_alpha(lti, alphas, horizons,
                              residual_rule=residual, samples=args.samples,
                              seed=args.seed)
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
             if v is not None and k not in ("command", "out", "formula")}
    missing = [k for k in _CONSTANTS_REQUIRED[formula] if k not in given]
    if missing:
        raise ValueError(f"--formula {formula} requires "
                         + ", ".join("--" + k.replace("_", "-")
                                     for k in missing))
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
    # NaN and Infinity are not JSON (RFC 8259)
    values = {k: result[k] for k in ("D", "C", "value") if k in result}
    if not all(map(math.isfinite, values.values())):
        raise ValueError(f"constants are not finite: {values}")
    # an infinite input (alpha_k = inf: the projection discards nothing)
    # is echoed as the string "inf" or "-inf"
    inputs = {k: str(v) if math.isinf(v) else v for k, v in given.items()}
    _write_json(Path(args.out) / "report.json", {
        "schema_version": SCHEMA_VERSION, "formula": formula,
        "inputs": inputs, **result})
    return EXIT_CERTIFIED


def _cmd_stabilize(args) -> int:
    return _stabilize_system(args, _load_lti(args), {}, args.mu,
                             args.horizon, args.grid)


def _cmd_periodic(args) -> int:
    modes = args.modes
    sys_p = per.build_multiplexed_system(modes, args.series_terms)
    out = Path(args.out)
    energies = [(n + 1, per.periodic_observation_energy(
        sys_p, 1, np.eye(modes)[n])) for n in range(modes)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "claim": "periodic-weak-observability",
        "modes": modes,
        "alpha_series": sys_p.alpha_series,
        "tail_bound": sys_p.tail_bound,
    }
    if args.refute_null_controllability:
        # refuting null controllability succeeded: the verdict is refuted
        n, lhs, rhs = per.noncontrollability_witness(sys_p, args.m, args.C)
        payload.update({
            "claim": "null-controllability-refutation",
            "witness": {"m": args.m, "C": args.C, "mode": n,
                        "free_adjoint_norm": lhs,
                        "scaled_energy": rhs},
            "verdict": weakobs.REFUTED,
        })
    else:
        # each certificate is over the benchmark's one period, n_k = 1
        k_grid = [int(v) for v in args.k_grid.split(",")]
        certs = [per.multiplexed_stabilizability_check(sys_p, k)
                 for k in k_grid]
        payload["certificates"] = [{
            "k": k, "n_k": 1, "C": c.d_const, "status": c.status,
            "margin": c.margin,
        } for k, c in zip(k_grid, certs)]
        payload["verdict"] = weakobs.family_verdict(
            [c.status for c in certs])
    # nothing is written before the witness or the certificates stand
    _write_csv(out / "energies.csv", ["mode", "energy_one_period"], energies)
    _write_json(out / "report.json", payload)
    return _STATUS_EXIT[payload["verdict"]]


def _cmd_example(args) -> int:
    name = args.name
    if name == "periodic-l2":
        return _cmd_periodic(args)
    if args.mu is not None and args.check != "stabilize":
        raise ValueError("--mu is read only by --check stabilize")
    swept = [dest for dest in _SWEEP_DEFAULTS if dest in vars(args)]
    if swept and args.check == "stabilize":
        raise ValueError("sweep flags are read only by --check weakobs: "
                         + ", ".join("--" + dest.replace("_", "-")
                                     for dest in swept))
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
        spec = sysmod.point_control_heat(x0, args.c, args.modes)
    elif name == "fractional-heat":
        spec = sysmod.fractional_heat(args.s, args.c,
                                      json.loads(args.intervals), args.modes)
    else:
        spec = sysmod.hermite_heat(args.c, json.loads(args.intervals),
                                   args.modes)
    lti = sysmod.truncate(spec, spec.n)
    if args.check == "stabilize":
        mu = STABILIZE_MU if args.mu is None else args.mu
        return _stabilize_system(args, lti, extra, mu, STABILIZE_HORIZON,
                                 STABILIZE_GRID)
    args = argparse.Namespace(**{**_SWEEP_DEFAULTS, **vars(args)})
    return _run_weakobs(args, lti, extra=extra)


def _stabilize_system(args, lti, extra, mu, horizon, grid):
    # the decay curve's usage errors exit 3 before the synthesis, whether
    # or not the pair can be stabilized
    if not 0.0 <= horizon < math.inf:
        raise ValueError("propagation time must be finite and nonnegative")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    out = Path(args.out)
    report = {"schema_version": SCHEMA_VERSION,
              "claim": "rapid-decay-feedback", "system": lti.label, "mu": mu}
    try:
        result = fb.solve_shifted_riccati(lti, mu)
    except fb.UnstabilizableError as exc:
        report.update({"verdict": "unstabilizable",
                       "offending_eigenvalue": [exc.eigenvalue.real,
                                                exc.eigenvalue.imag]})
    except RuntimeError as exc:
        if not hasattr(exc, "measured_rate"):
            raise
        report.update({"verdict": "missed-target",
                       "measured_rate": exc.measured_rate})
    else:
        a_cl = lti.a_matrix + lti.b_matrix @ result.gain_k
        closed = LtiSystem(a_cl, lti.b_matrix, label="closed-loop")
        norms = grid_norms(closed, horizon, grid)
        times = np.linspace(0.0, horizon, grid)
        rate = result.measured_rate
        # a norm below the smallest normal float carries no digits
        overshoot = float(max(_scaled_norm(norm, rate * t)
                              for t, norm in zip(times.tolist(), norms)
                              if norm >= np.finfo(float).tiny))
        _write_csv(out / "gain.csv",
                   [f"k{j}" for j in range(result.gain_k.shape[1])],
                   result.gain_k.tolist())
        _write_csv(out / "decay" / "decay.csv", ["t", "norm"],
                   zip(times, norms))
        report.update({"verdict": "synthesized",
                       "measured_rate": rate,
                       "measured_overshoot": overshoot,
                       "riccati_residual": result.residual})
    report.update(extra)
    _write_json(out / "report.json", report)
    return _STATUS_EXIT[report["verdict"]]


def _scaled_norm(norm, exponent):
    """norm * e^exponent, in log space where e^exponent overflows."""
    try:
        return norm * math.exp(exponent)
    except OverflowError:
        return math.exp(math.log(norm) + exponent)


def _cmd_verify_all(args) -> int:
    results = verification.run_all(args.seed)
    for r in results:
        print(r.line)
    _write_json(Path(args.out) / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "claim": "acceptance-suite",
        "seed": args.seed,
        "results": [{"name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    })
    return EXIT_CERTIFIED if all(r.passed for r in results) else EXIT_REFUTED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _common(p):
    p.add_argument("--out", default="stabcert-out",
                   help="output directory for report.json and CSVs")


def _seeded(p):
    """`_common` and `--seed`, for the commands whose reports depend on it."""
    _common(p)
    p.add_argument("--seed", type=int, default=0)


def _sweep_flags(p, given_only=False):
    """The weakobs sweep flags, the seed of its random states included;
    with `given_only`, one not given sets no attribute, and
    `_SWEEP_DEFAULTS` fills it in."""
    def default(dest):
        return argparse.SUPPRESS if given_only else _SWEEP_DEFAULTS[dest]

    p.add_argument("--alpha-grid", default=default("alpha_grid"))
    p.add_argument("--t-grid", default=default("t_grid"))
    p.add_argument("--c-alpha", default=default("c_alpha"),
                   help="residual constant C(alpha): number or JSON table")
    p.add_argument("--samples", type=int, default=default("samples"))
    p.add_argument("--seed", type=int, default=default("seed"))


def _periodic_flags(p):
    p.add_argument("--series-terms", type=int, default=12)
    p.add_argument("--k-grid", default="1,2,3,4,5")
    p.add_argument("--refute-null-controllability", action="store_true")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--C", type=float, default=10.0)


def _gramian_parser(p):
    _common(p)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="quadrature relative tolerance")
    p.add_argument("--system", required=True,
                   help="path to a JSON system spec, or inline JSON")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--modes", type=int, default=None)


def _weakobs_parser(p):
    _common(p)
    p.add_argument("--system", required=True)
    _sweep_flags(p)
    p.add_argument("--modes", type=int, default=None)


def _constants_parser(p):
    _common(p)
    p.add_argument("--formula", required=True,
                   choices=["spectral", "truncated", "unbounded",
                            "admissibility"])
    for flag in ("m-big", "delta0", "m-k", "alpha-k", "c-k", "b-norm",
                 "alpha", "t0", "c-k-t0", "gamma", "rho0", "c-gamma",
                 "horizon"):
        p.add_argument(f"--{flag}", type=float, default=None)


def _stabilize_parser(p):
    _common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--mu", type=float, default=STABILIZE_MU)
    p.add_argument("--horizon", type=float, default=STABILIZE_HORIZON)
    p.add_argument("--grid", type=int, default=STABILIZE_GRID)
    p.add_argument("--modes", type=int, default=None)


def _periodic_parser(p):
    _common(p)
    p.add_argument("--modes", type=int, default=10)
    _periodic_flags(p)


# heat example -> (help, default --c, default --intervals; None for the
# point control, which takes --x0 and --depth instead)
_HEAT_EXAMPLES = {
    "point-heat": ("heat equation on (0, 1) controlled at one point",
                   5.0, None),
    "hermite-heat": ("harmonic-oscillator heat equation observed on "
                     "intervals", 1.0, "[[0.0, Infinity]]"),
    "fractional-heat": ("fractional heat equation on (0, 1) observed on "
                        "intervals", 2.0, "[[0.3, 0.8]]"),
}


def _example_parser(p):
    # each example takes only the flags it reads: any other is a usage
    # error, not a flag silently ignored
    names = p.add_subparsers(dest="name", required=True)
    for name, (help_text, c, intervals) in _HEAT_EXAMPLES.items():
        q = names.add_parser(name, help=help_text)
        _common(q)
        q.add_argument("--modes", type=int, default=8)
        if intervals is None:
            q.add_argument("--x0", default="cf",
                           help="control point, or cf for a "
                                "continued-fraction point")
            q.add_argument("--depth", type=int, default=3)
        else:
            if name == "fractional-heat":
                q.add_argument("--s", type=float, default=0.5)
            q.add_argument("--intervals", default=intervals,
                           help="JSON list of [a, b] interval pairs")
        q.add_argument("--c", type=float, default=c)
        q.add_argument("--check", default="weakobs",
                       choices=["weakobs", "stabilize"])
        q.add_argument("--mu", type=float, default=None,
                       help="rate of --check stabilize (default "
                            f"{STABILIZE_MU:g})")
        # given with --check stabilize, a sweep flag is a usage error
        _sweep_flags(q, given_only=True)
    q = names.add_parser("periodic-l2",
                         help="periodic benchmark certificates or "
                              "refutation witness")
    _common(q)
    q.add_argument("--modes", type=int, default=8)
    q.add_argument("--seed", type=int, default=0,
                   help="accepted for scripts that pass every example a "
                        "seed; it does not affect the periodic claim")
    _periodic_flags(q)


# command -> (handler, help, flag builder), in `stabcert --help` order
_COMMANDS = {
    "gramian": (_cmd_gramian, "observability Gramian dump", _gramian_parser),
    "weakobs": (_cmd_weakobs, "sweep weak-observability certificates over "
                              "(alpha, T)", _weakobs_parser),
    "constants": (_cmd_constants, "evaluate certificate-constant formulas",
                  _constants_parser),
    "stabilize": (_cmd_stabilize, "synthesize rate-mu feedback",
                  _stabilize_parser),
    "periodic": (_cmd_periodic, "periodic benchmark certificates or "
                                "refutation witness", _periodic_parser),
    "example": (_cmd_example, "run a bundled benchmark end to end",
                _example_parser),
    "verify-all": (_cmd_verify_all, "run the acceptance suite", _seeded),
}


@functools.cache
def _build_parser(command=None):
    """The parser of one command, or of every command when `command` is None.

    Each `add_argument` builds a help formatter, so a run builds only the
    subparser it dispatches to.  Its usage line still lists every command.
    One parser per command is built per process and reused, since parsing
    leaves no state in it: the cache holds at most eight, one per command
    and the full one.
    """
    parser = argparse.ArgumentParser(
        prog="stabcert",
        description="Weak-observability certificates and rapid-decay "
                    "feedback for finite control-system truncations.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name, (_, help_text, add_flags) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    """Run one subcommand; IO/parse failures, usage errors and numerical
    breakdowns exit 3."""
    argv = _sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:         # --help exits 0, usage errors nonzero
        return EXIT_ERROR if exc.code else 0
    try:
        return _COMMANDS[args.command][0](args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            TypeError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    _sys.exit(main())
