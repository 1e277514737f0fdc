"""Seeded inputs, the timed job of each workload, and its correctness check.

Every job's check is computed here, independently of the package: pair
classes come from a PBH rank test, Gramians from Van Loan's block
exponential, closed-loop spectra from `numpy.linalg.eigvals`.  A check
returns an `Outcome`: "ok", "inconclusive" or "failed" with the kinds of
failure seen.  Failure kinds listed in `KNOWN_DEFECTS` were present when the
benchmark was written; any other kind marks the run incorrect.

Only the timed `run_*` functions call the package, always through module
attributes, so a traced run sees every call.
"""

import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from stabcert import cli, feedback, lrconstants, systems

ALPHAS = (1.0, 2.0, 4.0, 8.0)
HORIZONS = (0.5, 1.0, 2.0, 4.0)
SWEEP_SAMPLES = 60
FEEDBACK_RATES = (1.0, 2.0, 4.0)
STEER = {"beta": 1.0, "t_seg": 1.0, "eps_seg": math.exp(-2.0),
         "segments": 4}

# (workload, failure kind) pairs reproduced at the commit that introduced
# the benchmark.  They count as failures; only other kinds mark a run
# incorrect, so that fixing one never breaks the benchmark.
KNOWN_DEFECTS = {
    # sweep falls back to D = 1 on an ill-conditioned Gramian and refutes it
    ("dense-sweep", "refuted-controllable"),
    # refutation margin below the Gramian's rounding error: the witness
    # does not re-violate with an independently computed Gramian
    ("dense-sweep", "witness-fails"),
    # adaptive Gramian quadrature stops short of its tolerance on some
    # controllable n = 8, m = 1 pairs and the sweep raises
    ("dense-sweep", "raised:QuadratureError"),
    # shifted Riccati at n = 20: Schur/SVD breakdown or missed rate
    ("feedback-synthesis", "riccati:LinAlgError"),
    ("feedback-synthesis", "riccati:RuntimeError"),
    ("feedback-synthesis", "steer:SteeringError"),
}

_EXIT_OF_VERDICT = {"certified": 0, "refuted": 1, "inconclusive": 2}


@dataclass(frozen=True)
class Job:
    label: str          # human-readable description for failure logs
    inputs: dict        # everything the timed call receives
    expect: str         # expected answer, from the benchmark's own analysis


@dataclass(frozen=True)
class Outcome:
    status: str         # "ok", "inconclusive" or "failed"
    verdict: str        # compact, deterministic summary for the digest
    kinds: tuple = ()   # failure kinds
    report_bytes: int = 0


def _outcome(verdict, kinds=(), inconclusive=False, report_bytes=0):
    status = ("failed" if kinds else
              "inconclusive" if inconclusive else "ok")
    return Outcome(status, verdict, tuple(kinds), report_bytes)


def failed_outcome(exc):
    """Outcome of a job whose timed call raised."""
    kind = f"raised:{type(exc).__name__}"
    return Outcome("failed", kind, (kind,))


# ---------------------------------------------------------------------------
# independent linear algebra
# ---------------------------------------------------------------------------

def uncontrollable_modes(a, b, rtol=1e-8):
    """Eigenvalues of A failing the PBH rank test rank[lam I - A, B] = n."""
    n = a.shape[0]
    scale = np.linalg.norm(a, 2) + np.linalg.norm(b, 2)
    bad = []
    for lam in np.linalg.eigvals(a):
        pencil = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        if np.linalg.svd(pencil, compute_uv=False)[-1] <= rtol * scale:
            bad.append(complex(lam))
    return bad


def classify_pair(a, b):
    modes = uncontrollable_modes(a, b)
    if not modes:
        return "controllable"
    if any(lam.real >= 0.0 for lam in modes):
        return "unstabilizable"
    return "stabilizable"


def van_loan_gramian(a, b, horizon):
    """int_0^T e^{A s} B B^T e^{A^T s} ds from one block exponential."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = b @ b.T
    block[n:, n:] = a.T
    e = expm(block * horizon)
    g = e[n:, n:].T @ e[:n, n:]
    return 0.5 * (g + g.T)


# ---------------------------------------------------------------------------
# dense-sweep
# ---------------------------------------------------------------------------

def _dense_pair(rng, kind, n, m):
    # A ~ N(0, 1/n) keeps ||e^{AT}|| near e^T at every n.  With N(0, 1)
    # entries about one n = 5..8 pair in twenty grows like e^{4 sqrt(n)}
    # and its refutation quadrature runs 5-20 s, which leaves a run's
    # throughput to chance.
    if kind in ("dense", "ill"):
        return (rng.standard_normal((n, n)) / math.sqrt(n),
                rng.standard_normal((n, m)))
    # engineered: eigenvalue +1 whose left eigenvector annihilates B
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[1.0], rng.uniform(-3.0, -0.5, size=n - 1)])
    a = q @ np.diag(lam) @ q.T
    b = rng.standard_normal((n, m))
    v = q[:, 0]
    return a, b - np.outer(v, v @ b)


def _grid(values):
    return ",".join(f"{v:g}" for v in values)


def dense_jobs(seed, count):
    """Jobs cycle dense, ill, dense, engineered; sizes cycle within class.

    Dense pairs run through every (n, m) with n = 2..8 and m = 1, 2 in turn
    rather than drawing m: the slowest sweeps are refutations of n >= 6,
    m = 1 pairs, and a drawn m made their number, and so a run's times,
    vary from seed to seed.

    Each job is one `stabcert weakobs` run on the pair, i.e. one
    `weakobs.sweep_alpha` with C(alpha) = 1 and 60 samples.
    """
    jobs = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        kind = ("dense", "ill", "dense", "engineered")[k % 4]
        n = {"dense": 2 + (k // 2) % 7, "ill": 10,
             "engineered": (4, 6, 8)[(k // 4) % 3]}[kind]
        m = 1 + (k // 14) % 2 if kind == "dense" else 2
        a, b = _dense_pair(rng, kind, n, m)
        spec = json.dumps({"kind": "matrix", "a": a.tolist(),
                           "b": b.tolist()})
        argv = ["weakobs", "--system", spec, "--alpha-grid", _grid(ALPHAS),
                "--t-grid", _grid(HORIZONS), "--c-alpha", "1.0",
                "--samples", str(SWEEP_SAMPLES),
                "--seed", str(int(rng.integers(2**31)))]
        jobs.append(Job(label=f"{kind} n={n} m={b.shape[1]}",
                        inputs={"a": a, "b": b, "argv": argv},
                        expect=classify_pair(a, b)))
    return jobs


def run_cli(job, workdir):
    """One in-process CLI run writing into a fresh directory of `workdir`."""
    out = tempfile.mkdtemp(dir=workdir)
    return out, cli.main(job.inputs["argv"] + ["--out", out])


def _collect_report(out):
    """(report.json contents or {}, bytes written); removes `out`."""
    try:
        size = sum(p.stat().st_size for p in Path(out).rglob("*")
                   if p.is_file())
        report_path = Path(out) / "report.json"
        report = (json.loads(report_path.read_text())
                  if report_path.is_file() else {})
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return report, size


def _certificate_violated(adj, d_const, residual, gram, rng, states=256):
    """Sampled re-test of one certified inequality with the given Gramian."""
    phi = rng.standard_normal((adj.shape[0], states))
    phi /= np.linalg.norm(phi, axis=0)
    lhs = np.linalg.norm(adj @ phi, axis=0)
    energy = np.maximum(np.einsum("ij,ij->j", phi, gram @ phi), 0.0)
    rhs = d_const * np.sqrt(energy) + residual
    return bool(np.any(lhs > rhs + 1e-9 * (1.0 + lhs)))


def _witness_fails(adj, d_const, residual, gram, witness):
    phi = np.asarray(witness) / np.linalg.norm(witness)
    lhs = np.linalg.norm(adj @ phi)
    rhs = d_const * math.sqrt(max(float(phi @ gram @ phi), 0.0)) + residual
    return not lhs > rhs * (1.0 - 1e-9)


def check_dense(job, result):
    out, code = result
    report, size = _collect_report(out)
    a, b = job.inputs["a"], job.inputs["b"]
    verdict = report.get("verdict", "missing")
    certs = report.get("certificates", [])
    kinds = []
    if _EXIT_OF_VERDICT.get(verdict) != code:
        kinds.append("exit-mismatch")
    if job.expect == "controllable" and verdict == "refuted":
        kinds.append("refuted-controllable")
    if job.expect == "unstabilizable" and verdict == "certified":
        kinds.append("certified-unstabilizable")
    grams = {t: van_loan_gramian(a, b, t) for t in HORIZONS}
    adjoints = {t: expm(a.T * t) for t in HORIZONS}
    argv = job.inputs["argv"]
    rng = np.random.default_rng(int(argv[argv.index("--seed") + 1]))
    for c in certs:
        t = c["T"]
        residual = c["C"] * math.exp(-c["alpha"] * t)
        if c["status"] == "certified" and _certificate_violated(
                adjoints[t], c["D"], residual, grams[t], rng):
            kinds.append("certificate-violated")
        if c["status"] == "refuted" and _witness_fails(
                adjoints[t], c["D"], residual, grams[t], c["witness"]):
            kinds.append("witness-fails")
    summary = verdict + ":" + "".join(c["status"][0] for c in certs)
    return _outcome(summary, sorted(set(kinds)),
                    inconclusive=verdict == "inconclusive",
                    report_bytes=size)


# ---------------------------------------------------------------------------
# spectral-cli
# ---------------------------------------------------------------------------

_POINT_HEAT = ["example", "point-heat", "--x0", "cf", "--depth", "3",
               "--c", "5"]
SPECTRAL_CASES = (
    [(_POINT_HEAT + ["--modes", str(m)], "certified") for m in (8, 16, 30)]
    + [(["example", "hermite-heat", "--modes", str(m)], "certified")
       for m in (6, 12, 20)]
    + [(["example", "fractional-heat", "--modes", str(m)], "certified")
       for m in (8, 16)]
    + [(["example", "periodic-l2", "--modes", "10"], "certified"),
       (["example", "periodic-l2", "--modes", "10",
         "--refute-null-controllability", "--m", "1", "--C", "10"],
        "refuted")])


def spectral_jobs(seed, count):
    """Passes over the family list in a seeded order and CLI seed."""
    jobs = []
    for p in range(-(-count // len(SPECTRAL_CASES))):
        rng = np.random.default_rng([seed, p])
        for i in rng.permutation(len(SPECTRAL_CASES)):
            argv, expect = SPECTRAL_CASES[i]
            argv = argv + ["--seed", str(int(rng.integers(2**31)))]
            jobs.append(Job(label=" ".join(argv[1:]),
                            inputs={"argv": argv}, expect=expect))
    return jobs[:count]


def check_spectral(job, result):
    out, code = result
    report, size = _collect_report(out)
    verdict = report.get("verdict", "missing")
    kinds = []
    if _EXIT_OF_VERDICT.get(verdict) != code:
        kinds.append("exit-mismatch")
    if verdict not in (job.expect, "inconclusive"):
        kinds.append("wrong-verdict")
    if verdict == "refuted":
        # the free adjoint norm of mode n over m periods is exactly e^{-nm}
        w = report.get("witness", {})
        exact = math.exp(-w.get("mode", 0) * w.get("m", 0))
        if not (w and w["free_adjoint_norm"] > w["scaled_energy"] and
                abs(w["free_adjoint_norm"] - exact) <= 1e-12 * exact):
            kinds.append("witness-fails")
    return _outcome(f"{code}:{verdict}", kinds,
                    inconclusive=verdict == "inconclusive",
                    report_bytes=size)


# ---------------------------------------------------------------------------
# feedback-synthesis
# ---------------------------------------------------------------------------

def feedback_jobs(seed, count):
    """n cycles 5, 10, 20 with m = 2; A has N(0, 1/n) entries."""
    jobs = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        n = (5, 10, 20)[k % 3]
        a = rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal((n, 2))
        jobs.append(Job(label=f"n={n} m=2",
                        inputs={"a": a, "b": b,
                                "y0": rng.standard_normal(n)},
                        expect="synthesized"))
    return jobs


def run_feedback(job, workdir=None):
    """Envelope fit, rate-mu synthesis per mu, then concatenated steering.

    A step that raises is recorded by exception type and the job goes on,
    so every step of every job is attempted.
    """
    lti = systems.build_system(job.inputs["a"], job.inputs["b"])
    steps = {}
    try:
        steps["fit"] = lrconstants.fit_semigroup_bound(lti)
    except Exception as exc:  # noqa: BLE001 - recorded as a failure kind
        steps["fit"] = exc
    for mu in FEEDBACK_RATES:
        try:
            steps[mu] = feedback.solve_shifted_riccati(lti, mu)
        except Exception as exc:  # noqa: BLE001
            steps[mu] = exc
    try:
        steps["steer"] = feedback.concatenated_control(
            lti, y0=job.inputs["y0"], **STEER)
    except Exception as exc:  # noqa: BLE001
        steps["steer"] = exc
    return steps


def _envelope_violated(a, bound, t_max=10.0, n_grid=200, probes=5):
    if bound.delta0 < max(0.0, float(np.linalg.eigvals(a).real.max())):
        return True
    for t in np.linspace(0.0, t_max, n_grid)[::n_grid // probes]:
        norm = np.linalg.norm(expm(a * t), 2)
        if norm > bound.m_big * math.exp(bound.delta0 * t) * (1.0 + 1e-9):
            return True
    return False


def _steering_violated(a, b, y0, signal, report):
    """Replays the first segment from y0: y1 = e^{AT} y0 - G eta1.

    Forming y1 loses about u (||e^{AT} y0|| + ||G|| ||eta1||) to rounding,
    and eta grows with the Gramian's condition number, so agreement is
    required only to a thousand times that floor.  Later segments start
    from states the report gives only by norm; their contraction is read
    from those norms.
    """
    t_seg, eps = STEER["t_seg"], STEER["eps_seg"]
    unit = 1e3 * np.finfo(float).eps
    z = expm(a * t_seg) @ y0
    gram = van_loan_gramian(a, b, t_seg)
    eta = signal.segments[0].eta
    y1 = float(np.linalg.norm(z - gram @ eta))
    tol = unit * (np.linalg.norm(z)
                  + np.linalg.norm(gram, 2) * np.linalg.norm(eta))
    norms = report.state_norms
    return (y1 > eps * np.linalg.norm(y0) + tol
            or abs(y1 - norms[1]) > tol
            or any(after > eps * before * (1.0 + 1e-9)
                   for before, after in zip(norms, norms[1:])))


def check_feedback(job, steps):
    a, b = job.inputs["a"], job.inputs["b"]
    kinds, parts = [], [job.label]
    for key, value in steps.items():
        name = f"mu{key:g}" if isinstance(key, float) else key
        if isinstance(value, Exception):
            step = "riccati" if isinstance(key, float) else key
            kinds.append(f"{step}:{type(value).__name__}")
            parts.append(f"{name}:{type(value).__name__}")
            continue
        parts.append(f"{name}:ok")
        if key == "fit":
            if _envelope_violated(a, value):
                kinds.append("fit:envelope-violated")
        elif key == "steer":
            signal, report = value
            if _steering_violated(a, b, job.inputs["y0"], signal, report):
                kinds.append("steer:contraction-violated")
        else:
            abscissa = float(np.linalg.eigvals(a + b @ value.gain_k).real
                             .max())
            if not abscissa < -key:
                kinds.append("riccati:closed-loop-right-of-mu")
    return _outcome(" ".join(parts), sorted(set(kinds)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_jobs: object   # (seed, count) -> list of Job
    run: object         # (job, workdir) -> result; the timed call
    check: object       # (job, result) -> Outcome
    pool: int           # jobs generated at set-up; a run does each once,
                        # then repeats the pool until its time is up
    cycle: int          # consecutive jobs that make up one turn of the mix


WORKLOADS = {w.name: w for w in (
    Workload("dense-sweep", dense_jobs, run_cli, check_dense, 64, 4),
    Workload("spectral-cli", spectral_jobs, run_cli, check_spectral,
             30, len(SPECTRAL_CASES)),
    Workload("feedback-synthesis", feedback_jobs, run_feedback,
             check_feedback, 180, 3),
)}
