"""Benchmark for monpoincare: run one workload (or all four) and report metrics.

    python3 perfbench/run.py --workload resolve --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seeds
    python3 perfbench/run.py --workload lattice --trace 1

Closed loop, one client: a fresh child interpreter (child.py) runs the
workload's job list back to back through ``monpoincare.cli.main`` with
``--format json``; only one child runs at a time.  Before it, SETUP_RUNS
set-up-only children measure set-up time alone.  Job, pass and set-up times
are scaled to a reference host speed (see hostspeed.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Details (per-job times, output digests, the
known-defect cases) go to ``.bench_results/``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, calibrate  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

RUN_SECONDS = 25
SETUP_RUNS = 7  # set-up-only children; setup_s is the median of their set-up times
CALIBRATION_SAMPLES = 8  # hostspeed.work() calls before, between and after them
RUN_TIMEOUT = 170  # seconds for all children of one workload; a run must end within 180
RESULTS = ROOT / ".bench_results"
END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}


class RunError(Exception):
    """The benchmark itself could not run (as opposed to a job failing)."""


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_child(workload, seed, seconds, trace, workdir, deadline, spans=None, setup_only=False):
    """(set-up seconds, the child's result or None) for one child process,
    killed at `deadline` (a time.monotonic() value)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunError(f"child exited {code} during {'its run' if ready else 'set-up'}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise RunError("child printed no result")
    return setup_s, json.loads(lines[-1])


def measure_setups(name, seed, seconds, workdir, deadline):
    """(measured, normalised) set-up seconds of SETUP_RUNS set-up-only
    children; each is scaled by the calibration runs just before and just
    after it."""
    calibrations = [calibrate(CALIBRATION_SAMPLES)]
    measured = []
    for _ in range(SETUP_RUNS):
        measured.append(run_child(name, seed, seconds, 0, workdir, deadline, setup_only=True)[0])
        calibrations.append(calibrate(CALIBRATION_SAMPLES))
    normalised = [s * REFERENCE_S / statistics.median(before + after)
                  for s, before, after in zip(measured, calibrations, calibrations[1:])]
    return measured, normalised


def run_workload(name, seed, seconds, trace) -> dict:
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    tag = f"{name}-seed{seed}-trace{trace}"
    spans = RESULTS / f"{tag}-spans.json.gz" if trace else None
    RESULTS.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT
    try:
        # set-up time is an end-to-end metric, so a traced run skips these
        raw_setups, setups = (([], []) if trace else
                              measure_setups(name, seed, seconds, workdir, deadline))
        run_setup_s, res = run_child(name, seed, seconds, trace, workdir, deadline, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # each job's median over the passes, so that one pass or three give the
    # same kind of number
    per_job = {job: statistics.median(times[i] for times in res["job_times"])
               for i, job in enumerate(res["jobs"])}
    wall = statistics.median(res["walls"])
    if trace:
        units = metric_units()
        values = dict(res["layers"])
        units["trace.overhead_frac"] = "frac"
        values["trace.overhead_frac"] = statistics.median(res["traced_walls"]) / wall - 1
    else:
        units = END_TO_END
        values = {
            "wall_s": wall,
            "job_p50_s": statistics.median(per_job.values()),
            "job_p90_s": nearest_rank(per_job.values(), 0.9),
            "peak_rss_mb": res["rss_kb"] / 1024,
            "setup_s": statistics.median(setups),
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    summary = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(res["walls"]),
        "traced_passes": len(res["traced_walls"]),
        "jobs_per_pass": len(res["jobs"]),
        "job_samples": sum(len(times) for times in res["job_times"]),
        "correct": res["failed"] == 0 and all(k["status"] != "wrong" for k in res["known"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "known": res["known"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "run_child_setup_s": run_setup_s,
        "pass_walls": res["walls"],
        "raw_pass_walls": res["raw_walls"],
        "host_speed": (REFERENCE_S / statistics.median(res["speed_samples"])
                       if res["speed_samples"] else None),
        "traced_walls": res["traced_walls"],
        "job_median_s": per_job,
        "outputs": res["outputs"],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(summary, indent=1))
    return summary


def report(summary):
    """Human-readable lines for one workload run."""
    s = summary
    print(f"{s['workload']} seed {s['seed']}: {s['passes']} pass(es) of {s['jobs_per_pass']} "
          f"jobs, {s['job_samples']} job samples"
          + (f", {s['traced_passes']} traced pass(es)" if s["trace"] else ""))
    if not s["trace"]:
        print(f"  host speed     {s['host_speed']:.3g} x reference; times are at reference speed")
        for name, m in s["metrics"].items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    else:
        print(f"  {len(s['metrics'])} per-layer metrics; trace.overhead_frac "
              f"{s['metrics']['trace.overhead_frac']['value']:.4g}")
    print(f"  failed_frac    {s['failed'] / s['attempted']:.6g} ({s['failed']}/{s['attempted']})")
    for job, reason in sorted(s["failures"].items()):
        print(f"  FAILED {job}: {reason}")
    for case in s["known"]:
        print(f"  known defect, untimed: {case['job']}: {case['status']} ({case['detail']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monpoincare" / "cli.py").is_file():
        print(f"error: no monpoincare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            summaries.append(run_workload(name, seed, args.seconds, args.trace))
            report(summaries[-1])
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
        (RESULTS / f"all-trace{args.trace}.json").write_text(json.dumps(summaries, indent=1))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
