"""stabcert benchmark: closed-loop jobs, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 45 \
        --trace 0
    python3 perfbench/run.py --headroom

One client runs jobs back to back (closed loop): each job of the seed's
pool once, then repeats of the pool until `--seconds` have passed, with
`sweep_alpha(workers=1)`, `STABCERT_THREADS` unset and one BLAS thread.
Every job is checked by benchmark code (see workloads.py).  With
`--trace 0` the last line carries the end-to-end metrics; with `--trace 1`
every job runs once untraced and once traced, followed by the thread-pool
probe, and the last line carries the per-layer metrics.  `--headroom` times each acceptance criterion once
against its budget.  The last line of stdout is always one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10            # samples the tail percentile must leave above it
POOL_PROBE_JOBS = 4
# Job time metrics are reported in calibrated seconds: each job's wall time
# scaled by REF_NOMINAL_S / (time of the reference kernel run just before
# it).  On a 2-core shared VM the speed of identical work varied by up to
# 2.3x within seven minutes; the median over a 50-s window of job time over
# the adjacent reference time varied by 12 % between windows, against 57 %
# for the median wall time.  REF_NOMINAL_S is the kernel's typical time on
# that VM, so calibrated seconds read close to wall seconds there.
REF_NOMINAL_S = 0.025
REF_WARMUP_SAMPLES = 3
WORKLOAD_NAMES = ("dense-sweep", "spectral-cli", "feedback-synthesis")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _bootstrap():
    """Pin threads, then import stabcert from this checkout's sources.

    Returns the caller's STABCERT_THREADS value, which is recorded and then
    removed so the CLI sweeps run serially.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    threads = os.environ.pop("STABCERT_THREADS", None)
    if not (SRC / "stabcert" / "__init__.py").is_file():
        raise BenchError(f"no stabcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stabcert
    if Path(stabcert.__file__).resolve().parent != SRC / "stabcert":
        raise BenchError(f"imported stabcert from {stabcert.__file__}, "
                         f"not from {SRC}")
    return threads


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    threads = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed, stabcert_threads):
    import platform

    import numpy
    import scipy
    vendors = {}
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendors[mod.__name__] = f"{blas.get('name')} {blas.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendors,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "STABCERT_THREADS": stabcert_threads,
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# closed-loop measurement
# ---------------------------------------------------------------------------

def run_job(workload, jobs, k, workdir, tracer=None):
    """Job k of the pool; returns (k, latency, Outcome).

    Only the workload's `run` call is timed; the tracer is installed before
    and removed after the clock runs, and the check runs after it stops.
    """
    from workloads import failed_outcome

    job = jobs[k % len(jobs)]
    if tracer is not None:
        tracer.install()
        tracer.begin_job()
    start = perf_counter()
    try:
        result = workload.run(job, workdir)
    except Exception as exc:  # noqa: BLE001 - a job failure, not ours
        result = exc
    latency = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.end_job(latency)
    outcome = (failed_outcome(result) if isinstance(result, Exception)
               else workload.check(job, result))
    return k, latency, outcome


def reference_time():
    """Seconds for a fixed reference kernel: the best of three rounds of
    small dense linear algebra (`expm`, `eigvals`, `solve`) plus a plain
    Python loop of about the same length, the two kinds of work the jobs
    do.  Their sum followed job times more closely than either part alone.
    Uses no stabcert code, so no change to the package moves it."""
    import numpy as np
    from scipy.linalg import expm

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((n, n)) / n ** 0.5 for n in (4, 8, 16)]

    def linear_algebra():
        start = perf_counter()
        for i in range(40):
            for m in mats:
                e = expm(m * (1.0 + i / 40))
                np.linalg.eigvals(e)
                np.linalg.solve(e, m)
        return perf_counter() - start

    best = min(linear_algebra() for _ in range(3))
    start = perf_counter()
    total = 0.0
    for i in range(200000):
        total += i * 0.5
    return best + perf_counter() - start


def measure(workload, jobs, workdir, seconds):
    """Run every job of the pool once, then go on through the pool again
    until `seconds` have passed.  The reference kernel runs a few times
    first, then before every job, outside the job timings.  Returns the
    records and, for each, the reference time measured just before it."""
    for _ in range(REF_WARMUP_SAMPLES):
        reference_time()
    deadline = perf_counter() + seconds
    records, refs = [], []
    while len(records) < len(jobs) or perf_counter() < deadline:
        refs.append(reference_time())
        records.append(run_job(workload, jobs, len(records), workdir))
    return records, refs


def measure_paired(workload, jobs, workdir, seconds, tracer):
    """Each job untraced and traced, in alternating order: the whole pool
    once, then on until `seconds` have passed.

    Pairing the same job, with the order flipped every other job, keeps
    drift in machine speed out of the traced-versus-untraced comparison.
    """
    deadline = perf_counter() + seconds
    untraced, traced = [], []
    k = 0
    while k < len(jobs) or perf_counter() < deadline:
        for use in ((None, tracer) if k % 2 == 0 else (tracer, None)):
            record = run_job(workload, jobs, k, workdir, use)
            (untraced if use is None else traced).append(record)
        k += 1
    return untraced, traced


def first_pass(records, pool):
    """The records of the first pass over the pool: one per distinct job.

    Later passes repeat the same jobs for timing; their verdicts are held
    to the first pass's by `determinism`, so the counts of attempted and
    failed jobs depend on the seed alone, not on the machine's speed.
    """
    return [record for record in records if record[0] < pool]


def tail_latency(latencies):
    """(value, percentile, samples) at the highest percentile that leaves
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def batch_rates(latencies, cycle):
    """Jobs per second of each run of `cycle` consecutive jobs (one turn of
    the workload's job mix); an incomplete last batch is left out."""
    return [cycle / sum(latencies[i:i + cycle])
            for i in range(0, len(latencies) - cycle + 1, cycle)]


def job_medians(records, latencies, pool):
    """Median latency of each job of the pool over its timed runs."""
    by_job = {}
    for (k, _, _), latency in zip(records, latencies):
        by_job.setdefault(k % pool, []).append(latency)
    return [statistics.median(runs) for runs in by_job.values()]


def time_metrics(records, latencies, pool, cycle):
    """Job time metrics from one latency per record.

    The median over job-mix batches makes `jobs_per_s` robust to a single
    slow job and to bursts of interference on a shared machine.  The tail
    is taken over each job's median latency, so its percentile is set by
    the pool size, not by how many jobs the machine got through.
    """
    rates = batch_rates(latencies, cycle) or [len(latencies) / sum(latencies)]
    return {
        "jobs_per_s": statistics.median(rates),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_latency(job_medians(records, latencies, pool))[0],
    }


def end_to_end(records, refs, pool, setup_samples, cycle):
    """Job times come from every record, in calibrated seconds (see
    REF_NOMINAL_S), and set-up in wall seconds; the fractions come from the
    first pass over the pool."""
    import resource

    calibrated = [latency * REF_NOMINAL_S / ref
                  for (_, latency, _), ref in zip(records, refs)]
    times = time_metrics(records, calibrated, pool, cycle)
    counted = first_pass(records, pool)
    attempted = len(counted)
    failed = sum(o.status == "failed" for _, _, o in counted)
    inconclusive = sum(o.status == "inconclusive" for _, _, o in counted)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (times["jobs_per_s"], "1/cal_s"),
        "job_p50_s": (times["job_p50_s"], "cal_s"),
        "job_tail_s": (times["job_tail_s"], "cal_s"),
        "correct_frac": (1.0 - failed / attempted, "fraction"),
        "decided_frac": (1.0 - inconclusive / attempted, "fraction"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, untraced, traced, probe):
    jobs = tracer.jobs
    untraced_s = sum(lat for _, lat, _ in untraced)
    self_total = sum(tracer.self_s.values())
    calls = tracer.span_calls
    gram_calls = calls["semigroup.observability_gramian"]
    per_job = "count/job"
    return {
        "semigroup.gramian_s": (tracer.group_s["gramian"] / jobs, "s/job"),
        "semigroup.gramian_calls": (gram_calls / jobs, per_job),
        "semigroup.gramian_useful_ratio": (
            tracer.distinct_gramians / gram_calls if gram_calls else 1.0,
            "ratio"),
        "semigroup.expm_calls": (
            tracer.counts["semigroup.expm_calls"] / jobs, per_job),
        "semigroup.energy_s": (tracer.group_s["energy"] / jobs, "s/job"),
        "semigroup.energy_calls": (
            calls["semigroup.observation_energy"] / jobs, per_job),
        "semigroup.transition_s": (
            tracer.group_s["transition"] / jobs, "s/job"),
        "semigroup.transition_calls": (
            calls["semigroup.transition_matrix"] / jobs, per_job),
        "semigroup.self_s": (tracer.self_s["semigroup"] / jobs, "s/job"),
        "weakobs.self_s": (tracer.self_s["weakobs"] / jobs, "s/job"),
        "weakobs.bracket_calls": (
            calls["weakobs.optimal_d_bracket"] / jobs, per_job),
        "weakobs.check_calls": (
            calls["weakobs.check_certificate"] / jobs, per_job),
        "weakobs.certs_decided": (
            tracer.counts["weakobs.certs_decided"] / jobs, per_job),
        "lrconstants.s": (tracer.layer_outer_s["lrconstants"] / jobs,
                          "s/job"),
        "lrconstants.calls": (tracer.calls("lrconstants.") / jobs, per_job),
        "lrconstants.self_s": (tracer.self_s["lrconstants"] / jobs, "s/job"),
        "feedback.rate_s": (tracer.group_s["rate"] / jobs, "s/job"),
        "feedback.riccati_s": (tracer.group_self_s["riccati"] / jobs,
                               "s/job"),
        "feedback.steer_s": (tracer.group_s["steer"] / jobs, "s/job"),
        "feedback.calls": (tracer.calls("feedback.") / jobs, per_job),
        "feedback.self_s": (tracer.self_s["feedback"] / jobs, "s/job"),
        "systems.build_s": (tracer.layer_outer_s["systems"] / jobs, "s/job"),
        "systems.build_calls": (tracer.calls("systems.") / jobs, per_job),
        "systems.self_s": (tracer.self_s["systems"] / jobs, "s/job"),
        "periodic.s": (tracer.layer_outer_s["periodic"] / jobs, "s/job"),
        "periodic.calls": (tracer.calls("periodic.") / jobs, per_job),
        "periodic.self_s": (tracer.self_s["periodic"] / jobs, "s/job"),
        "cli.self_s": (tracer.self_s["cli"] / jobs, "s/job"),
        "cli.report_bytes": (
            sum(o.report_bytes for _, _, o in traced) / jobs, "B/job"),
        "trace.wall_s": (tracer.wall_s / jobs, "s/job"),
        "trace.unattributed_frac": (1.0 - self_total / tracer.wall_s,
                                    "fraction"),
        "trace.overhead_frac": (tracer.wall_s / untraced_s - 1.0,
                                "fraction"),
        "pool.w1_s": (probe[1] / POOL_PROBE_JOBS, "s/job"),
        "pool.w2_s": (probe[2] / POOL_PROBE_JOBS, "s/job"),
        "pool.speedup": (probe[1] / probe[2], "ratio"),
    }


def pool_probe(seed, workdir):
    """dense-sweep jobs with STABCERT_THREADS=1 and =2, in ABBA order.

    The CLI hands that value to `sweep_alpha(workers=...)`.  Returns total
    seconds per side and the jobs whose verdicts differ.
    """
    from workloads import WORKLOADS

    spec = WORKLOADS["dense-sweep"]
    jobs = spec.make_jobs(seed, POOL_PROBE_JOBS)
    totals = {1: 0.0, 2: 0.0}
    mismatched = []
    try:
        for k in range(POOL_PROBE_JOBS):
            verdicts = {}
            for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
                os.environ["STABCERT_THREADS"] = str(workers)
                _, latency, outcome = run_job(spec, jobs, k, workdir)
                totals[workers] += latency
                verdicts[workers] = outcome.verdict
            if verdicts[1] != verdicts[2]:
                mismatched.append(k)
    finally:
        os.environ.pop("STABCERT_THREADS", None)
    return totals, mismatched


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def inputs_digest(jobs):
    """Digest of the package sources and the generated inputs, so stored
    verdicts are compared only against runs of the same code on the same
    inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "stabcert").rglob("*.py")):
        h.update(path.read_bytes())
    for job in jobs:
        for key in sorted(job.inputs):
            value = job.inputs[key]
            h.update(key.encode())
            h.update(value.tobytes() if hasattr(value, "tobytes")
                     else repr(value).encode())
    return h.hexdigest()[:16]


def determinism(workload, seed, jobs, records):
    """Digest of job verdicts, and job indices whose verdict disagrees with
    another run of the same job: earlier in this run (a repeat of the pool,
    or the traced replay) or in an earlier run of the same code and inputs
    in this checkout (kept in WORK/digests.json)."""
    pool = len(jobs)
    verdicts, mismatched = {}, set()
    for k, _, outcome in records:
        seen = verdicts.setdefault(k % pool, outcome.verdict)
        if seen != outcome.verdict:
            mismatched.add(k % pool)
    ordered = [verdicts[k] for k in sorted(verdicts)]
    store_path = WORK / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{workload}/{seed}/{inputs_digest(jobs)}"
    earlier = store.get(key, [])
    mismatched.update(k for k, (a, b) in enumerate(zip(earlier, ordered))
                      if a != b)
    store[key] = max(earlier, ordered, key=len)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    tmp.replace(store_path)
    digest = hashlib.sha256("\n".join(ordered).encode()).hexdigest()
    return digest, len(ordered), sorted(mismatched)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def setup_probe(workload, seed):
    """Child process: import stabcert and generate the workload inputs."""
    start = perf_counter()
    _bootstrap()
    from workloads import WORKLOADS
    spec = WORKLOADS[workload]
    spec.make_jobs(seed, spec.pool)
    print(json.dumps({"setup_s": perf_counter() - start}))


def _measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


class _NativeOutputToStderr:
    """Sends file descriptor 1 to stderr while jobs run.

    LAPACK error handlers print through C stdio; left on stdout they could
    land after the result line.
    """

    def __enter__(self):
        sys.stdout.flush()
        self._saved = os.dup(1)
        os.dup2(2, 1)

    def __exit__(self, *exc):
        import ctypes
        ctypes.CDLL(None).fflush(None)
        sys.stdout.flush()
        os.dup2(self._saved, 1)
        os.close(self._saved)


def _run(args, spec, jobs, workdir, setup_samples):
    """Warm up, then the timed phases of one run.

    Returns (records reported, records checked for determinism, metrics,
    jobs whose verdict differed between pool sizes, calibration summary).
    """
    from spans import Tracer

    run_job(spec, jobs, 0, workdir)                         # warm-up
    if not args.trace:
        records, refs = measure(spec, jobs, workdir, args.seconds)
        metrics = end_to_end(records, refs, len(jobs), setup_samples,
                             spec.cycle)
        calibration = {
            "reference_median_s": statistics.median(refs),
            "wall": time_metrics(records, [lat for _, lat, _ in records],
                                 len(jobs), spec.cycle)}
        return records, records, metrics, [], calibration
    tracer = Tracer()
    untraced, traced = measure_paired(spec, jobs, workdir, args.seconds,
                                      tracer)
    probe, probe_mismatch = pool_probe(args.seed, workdir)
    return (traced, untraced + traced,
            per_layer(tracer, untraced, traced, probe), probe_mismatch, None)


def benchmark(args):
    threads = _bootstrap()
    from workloads import KNOWN_DEFECTS, WORKLOADS

    spec = WORKLOADS[args.workload]
    setup_samples = ([] if args.trace else
                     _measure_setup(args.workload, args.seed))
    # A traced run times every job twice, so it takes half the pool.
    jobs = spec.make_jobs(args.seed,
                          spec.pool // 2 if args.trace else spec.pool)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        with _NativeOutputToStderr():
            records, checked, metrics, probe_mismatch, calibration = _run(
                args, spec, jobs, workdir, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest, digest_jobs, mismatched = determinism(
        args.workload, args.seed, jobs, checked)
    counted = first_pass(records, len(jobs))
    for k, _, outcome in counted:
        if outcome.status == "failed":
            print(f"failure job={k} [{jobs[k].label}]: "
                  f"{', '.join(outcome.kinds)}")
    unknown = {kind for _, _, outcome in checked for kind in outcome.kinds
               if (args.workload, kind) not in KNOWN_DEFECTS}
    attempted = len(counted)
    failed = sum(o.status == "failed" for _, _, o in counted)
    tail, percentile, samples = tail_latency(job_medians(
        records, [lat for _, lat, _ in records], len(jobs)))
    print("env " + json.dumps(environment(args.seed, threads),
                              sort_keys=True))
    print("report " + json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "jobs": attempted,
        "timed_runs": len(records),
        "failed_frac": failed / attempted,
        "inconclusive_frac": sum(o.status == "inconclusive"
                                 for _, _, o in counted) / attempted,
        "failure_kinds_unknown": sorted(unknown),
        "job_tail": {"percentile": percentile, "samples": samples,
                     "value_s": tail},
        "setup_samples_s": setup_samples,
        "calibration": calibration,
        "verdict_digest": digest,
        "digest_jobs": digest_jobs,
        "determinism_mismatch_jobs": mismatched,
        "pool_verdict_mismatch_jobs": probe_mismatch,
    }, sort_keys=True))
    correct = not unknown and not mismatched and not probe_mismatch
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def headroom(seed):
    """Each acceptance criterion once, against its unchanged budget."""
    threads = _bootstrap()
    from stabcert import verification

    metrics, failed = {}, 0
    for name, budget, _ in verification.ALL_CRITERIA:
        result = verification.run_one(name, seed)
        failed += not result.passed
        print(result.line)
        metrics[f"headroom.{name}_s"] = {"value": result.duration,
                                         "unit": "s"}
        metrics[f"headroom.{name}_share"] = {
            "value": result.duration / budget, "unit": "fraction"}
    print("env " + json.dumps(environment(seed, threads), sort_keys=True))
    return {"correct": failed == 0,
            "attempted": len(verification.ALL_CRITERIA),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        default=WORKLOAD_NAMES[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--headroom", action="store_true",
                        help="time the acceptance criteria once and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.headroom:
            result = headroom(args.seed)
        else:
            result = benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
