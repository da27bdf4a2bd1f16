#!/usr/bin/env python3
"""Benchmark caldesign's solvers end to end, or per layer with ``--trace 1``.

Run from the repository root:

    python3 perfbench/run.py --workload fptas-acc3 --seed 1 --seconds 10 --trace 0

Workloads (inputs and checks are in ``workloads.py``):

- ``fptas-acc3``: ``fptas_solve(delta=0.1)`` on the first 25 instances of
  acceptance 3's list (seed 1003).  Wide, shallow plan LPs.
- ``exact-golden-sweep``: ``caldesign sweep`` on ``tests/data/golden.json``
  over 81 budgets (0 to 0.8), called in process.  Many tiny LPs.
- ``exact-ladder``: ``solve_exact`` on 24 random instances with n = m in
  {6, 7, 8} and t in {1, inf}.  Square LPs that stall the tableau today.

Each run is a closed loop in this process, one solve at a time.  It warms up
with one untimed solve, then repeats whole passes over the workload's inputs
(``--seed`` orders each pass) until ``--seconds`` have passed; one pass of
fptas-acc3 or exact-ladder already takes longer than that.  Inputs that solve
in under CHEAP_S are solved again in rounds: one round after any job that
ends ROUND_EVERY_S or more after the last round, so that the rounds spread
over the whole pass, and more rounds after the passes, of the inputs that
have fewer than MIN_SAMPLES solves, until none has.  Each input's latency is the mean of its solves
without the fastest and slowest tenth.  Every ROUND_EVERY_S the loop also
runs one set-up probe, until it has run SETUP_PROBES.  Outputs are checked
after the loop, independently of the solver.

End-to-end metrics (``--trace 0``):

- ``setup_s``: median wall time of fresh interpreters that import
  ``caldesign`` and ``caldesign.cli`` and build the inputs.
- ``solves_per_s``: passing solves over the summed per-input latency.
- ``solve_s.p50``, ``solve_s.tail``: median and 11th-largest per-input
  latency, i.e. the highest percentile with ten samples above it (the
  percentile and sample count are printed).  A sweep call's latency is
  shared among its 81 budgets; each budget counts as one solve.
- ``ok_share``: solves that returned and passed every check, over solves
  attempted (one minus the failed share, which is printed with the failures
  by error code).
- ``payoff_ratio.min``: lowest passing payoff over its reference: the exact
  optimum (fptas-acc3), acceptance 2's formula (exact-golden-sweep), the
  truthful predictor (exact-ladder).
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the same passes untraced and then traced, every layer
wrapped in spans (see ``tracer.py``), with one solve per input, and reports
the per-layer metrics and ``trace.overhead_s``, the traced wall time minus
the untraced one; the spans are written to ``.perfbench/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits with code 2, printing no result, when the
repository sources are missing.
"""

import os

# One BLAS / OpenMP thread in this process and every child it starts; set
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = (ROOT / "src" / "caldesign" / "__init__.py",
           ROOT / "tests" / "data" / "golden.json")
OUT_DIR = ROOT / ".perfbench"

# Set-up is probed this many times, one probe per round of the timed loop
# (see below) and any left over after it, so that the median spans the
# host's changing speed over the whole run.
SETUP_PROBES = 8
# Untraced runs re-solve the inputs that took under CHEAP_S in rounds spread
# over the run, and take the trimmed mean of each input's solves.  On a
# shared 2-core host the speed of one 25 ms solve changes by up to 40% from
# one stretch of a few seconds to the next, so its fastest or median solve
# jumps to whichever speed a few samples caught, while a mean over samples
# from the whole run moves with the share of time spent at each speed.
CHEAP_S = 0.25
ROUND_EVERY_S = 1.5
MIN_SAMPLES = 10
TRIM = 0.1
# No job starts after this many seconds of a loop, so that a much slower
# program still finishes its run instead of being killed.
HARD_CAP_S = 60.0
WORKLOADS = ("fptas-acc3", "exact-golden-sweep", "exact-ladder")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders each pass over the inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="draw another instance list (random workloads)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load():
    """Import caldesign from this checkout, then the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import caldesign
    import caldesign.cli  # noqa: F401 -- part of the measured set-up

    if Path(caldesign.__file__).resolve().parent != SOURCES[0].parent:
        raise ImportError(f"caldesign imported from {caldesign.__file__}")
    import tracer
    import workloads
    return caldesign, workloads, tracer


def measure_setup(args, count):
    """Wall times of fresh interpreters that import and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.instance_seed is not None:
        cmd += ["--instance-seed", str(args.instance_seed)]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return times


def environment(caldesign):
    import numpy as np

    from caldesign import lp_core
    active = getattr(lp_core, "active_kernel", None)
    kernels = sys.modules.get("caldesign._simplex_kernels")
    have_numba = getattr(kernels, "HAVE_NUMBA", None)
    if have_numba is None:
        have_numba = importlib.util.find_spec("numba") is not None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_imports": bool(have_numba),
        "lp_backend": active()[0] if active else "unknown",
        "machine": platform.machine(),
    }


@dataclass
class Record:
    job: object
    samples: list
    output: object
    error: str | None

    @property
    def seconds(self):
        """Mean solve time without the fastest and slowest TRIM share."""
        cut = int(TRIM * len(self.samples))
        kept = sorted(self.samples)[cut:len(self.samples) - cut]
        return sum(kept) / len(kept)


@dataclass
class Loop:
    records: list
    passes: int
    wall: float
    capped: bool


def _error_code(exc, seen):
    code = getattr(exc, "code", None) or type(exc).__name__
    if not hasattr(exc, "code") and code not in seen:
        seen.add(code)
        traceback.print_exc(file=sys.stderr)
    return code


def time_job(wl, job, tracer, seen):
    """One solve; returns (seconds, output, error code)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run(job)
        else:
            with tracer.span("job"):
                output = wl.run(job)
    except Exception as exc:  # noqa: BLE001 -- a failure is counted
        return time.perf_counter() - t0, None, _error_code(exc, seen)
    return time.perf_counter() - t0, output, None


def run_loop(wl, seed, seconds=None, passes=None, tracer=None, tick=None):
    """Closed loop over whole passes until ``seconds`` (or ``passes``).

    With ``tick``, rounds run between jobs (see CHEAP_S): each re-solves the
    cheap inputs and calls ``tick()``.  ``Loop.wall`` counts the passes only.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    records = {}
    cheap = []
    seen = set()
    done = 0
    capped = False
    start = last_round = time.perf_counter()
    in_rounds = 0.0
    solve_id = 0

    def cheap_round(recs):
        nonlocal last_round, in_rounds
        t0 = time.perf_counter()
        for rec in recs:
            rec.samples.append(time_job(wl, rec.job, None, seen)[0])
        tick()
        last_round = time.perf_counter()
        in_rounds += last_round - t0

    while not capped:
        for job in wl.pass_jobs(rng):
            if time.perf_counter() - start > HARD_CAP_S:
                capped = True
                break
            if tracer is not None:
                tracer.solve_id = solve_id
                solve_id += 1
            elapsed, output, error = time_job(wl, job, tracer, seen)
            rec = records.get(job)
            if rec is not None:
                rec.samples.append(elapsed)
            else:
                if error is None:
                    output = wl.collect(job, output)
                rec = records[job] = Record(job, [elapsed], output, error)
                if tick and wl.retime and elapsed < CHEAP_S:
                    cheap.append(rec)
            if tick and time.perf_counter() - last_round >= ROUND_EVERY_S:
                cheap_round(cheap)
        else:
            done += 1
        if (passes is not None and done >= passes) or \
                (passes is None and time.perf_counter() - start >= seconds):
            break
    wall = time.perf_counter() - start - in_rounds
    while time.perf_counter() - start <= HARD_CAP_S:
        short = [rec for rec in cheap if len(rec.samples) < MIN_SAMPLES]
        if not short:
            break
        cheap_round(short)
    return Loop(list(records.values()), done, wall, capped)


def check_loop(wl, loop):
    """Check every output; returns (solves, failed, failure codes, lowest
    payoff ratio, whether every wrong output is a known one)."""
    solves = failed = 0
    codes = collections.Counter()
    ratios = []
    correct = True
    for rec in loop.records:
        if rec.error is not None:
            solves += wl.solves_per_job
            failed += wl.solves_per_job
            codes[rec.error] += wl.solves_per_job
            continue
        checked = wl.check(rec.job, rec.output)
        solves += checked.solves
        failed += checked.failed
        codes.update(checked.codes)
        wrong = {c for c in checked.codes if c.startswith("CHECK_")}
        if wrong - wl.known_wrong.get(rec.job, set()):
            correct = False
        if checked.ratio is not None:
            ratios.append(checked.ratio)
    return (solves, failed, codes, min(ratios) if ratios else float("nan"),
            correct)


def latency_stats(wl, loop):
    """Median and tail per-solve latency.  The tail is the highest percentile
    with at least ten samples above it (the 11th-largest sample)."""
    samples = sorted(rec.seconds / wl.solves_per_job for rec in loop.records)
    count = len(samples)
    if count > 10:
        tail, pct = samples[count - 11], 100.0 * (count - 10) / count
    else:
        tail, pct = samples[-1], 100.0
    return statistics.median(samples), tail, pct, count


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.is_file()]
    if missing:
        print(f"error: run from a caldesign checkout; missing {missing}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _, workloads, _ = load()
        workloads.make_workload(args.workload, ROOT, OUT_DIR, args.instance_seed)
        print("ready", flush=True)
        return 0

    setup = []
    caldesign, workloads, tracer_mod = load()
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make_workload(args.workload, ROOT, OUT_DIR,
                                 args.instance_seed)
    env = environment(caldesign)

    try:
        wl.run(wl.warmup_job())
    except Exception:  # noqa: BLE001 -- the timed loop counts failures
        pass

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.extend(measure_setup(args, 1))

    plain = run_loop(wl, args.seed, seconds=args.seconds,
                     tick=None if args.trace else probe)
    loop = plain
    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        patches = tracer_mod.instrument(tracer, caldesign)
        try:
            loop = run_loop(wl, args.seed, passes=max(plain.passes, 1),
                            tracer=tracer)
        finally:
            patches.restore()
    else:
        setup += measure_setup(args, SETUP_PROBES - len(setup))

    solves, failed, codes, ratio, correct = check_loop(wl, loop)
    ok = solves - failed
    p50, tail, pct, samples = latency_stats(wl, loop)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solves_per_s": (ok / sum(r.seconds for r in loop.records), "1/s"),
            "solve_s.p50": (p50, "s"),
            "solve_s.tail": (tail, "s"),
            "ok_share": (ok / solves, "ratio"),
            "payoff_ratio.min": (ratio, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        notes = {"setup_probes_s": setup}
    else:
        metrics, bases = tracer_mod.layer_metrics(tracer)
        metrics["trace.overhead_s"] = (loop.wall - plain.wall, "s")
        lp_share = metrics["lp_core.solve.self_s"][0] / bases["self_s.total"]
        notes = {"ratio_bases": bases, "lp_core.solve.self_share": lp_share,
                 "untraced_wall_s": plain.wall, "traced_wall_s": loop.wall}
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": env, "spans": tracer.to_records()}, fh)
        notes["trace_file"] = str(trace_path.relative_to(ROOT))

    summary = {
        "workload": args.workload, "seed": args.seed,
        "instance_seed": args.instance_seed, "trace": args.trace,
        "passes": loop.passes, "capped": loop.capped, "wall_s": loop.wall,
        "solves": solves, "failed": failed,
        "failures_by_code": dict(sorted(codes.items())),
        "failed_share": failed / solves,
        "solve_s.tail": {"percentile": pct, "samples": samples,
                         "beyond": min(10, samples - 1)},
        "environment": env, **notes,
    }
    print(json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": solves, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
