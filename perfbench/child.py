"""One benchmark run inside a fresh interpreter.

Sets up a workload (imports monpoincare from the checkout's src/, generates
the inputs, writes the ideal files), prints ``ready``, then runs the job list
back to back through ``monpoincare.cli.main`` until the time is used up
(at least one pass),
checks every output and prints one JSON line of measurements.  Untraced
passes run under ``hostspeed.SpeedSampler``: job and pass times are given at
the reference host speed, with the measured ones beside them.  run.py starts
it; by hand:

    python3 perfbench/child.py --workload resolve --seed 0 --seconds 25 \
        --trace 0 --workdir .bench_work/manual

With ``--trace 1`` it alternates untraced and traced passes; the traced ones
give the per-layer numbers.  With ``--setup-only`` it stops after ``ready``.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_outputs, key_digests, load_reference
from hostspeed import SpeedSampler
from tracer import JOB_SPAN, Tracer
from workloads import KNOWN_EXPECTED, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """monpoincare.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import monpoincare.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"monpoincare was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload_name, seed, workdir: Path):
    cli = import_cli()
    workload = build(workload_name, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in workload.ideals.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return cli, workload, paths


def run_job(main, argv):
    """(seconds, exit code, stdout, stderr) of one CLI call, in process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaping error fails the job, not the run
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(main, jobs, argvs, tracer=None, sampler=None):
    """Wall time of the job list run once, and each job's run_job result.
    With a SpeedSampler, the time its handler took is taken out of both, and
    each job's (start, end) is appended to the result for normalising later."""
    if tracer is not None:
        main = tracer.wrap(JOB_SPAN, main)
    results = []
    stolen_at_start = sampler.stolen if sampler else 0.0
    start = time.perf_counter()
    for jid, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = jid
        if sampler is None:
            results.append(run_job(main, argvs[job.name]))
        else:
            stolen, job_start = sampler.stolen, time.perf_counter()
            seconds, *rest = run_job(main, argvs[job.name])
            results.append((seconds - (sampler.stolen - stolen), *rest,
                            (job_start, time.perf_counter())))
        if tracer is not None:
            tracer.add("cli.output_bytes", len(results[-1][2]))
    stolen = sampler.stolen - stolen_at_start if sampler else 0.0
    return time.perf_counter() - start - stolen, results


def first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


def classify_known(case, result) -> dict:
    """A known-defect case is a 'known failure' while it exits non-zero, 'fixed'
    once it prints the expected verdict, and 'wrong' if it prints another."""
    _, code, out, err = result
    if code != 0:
        return {"job": case.name, "status": "known failure",
                "detail": f"exit {code}: {first_line(err)}"}
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        doc = {}
    ok = all(doc.get(k) == v for k, v in KNOWN_EXPECTED.items())
    return {"job": case.name, "status": "fixed" if ok else "wrong",
            "detail": f"exit 0: {json.dumps({k: doc.get(k) for k in KNOWN_EXPECTED})}"}


def measure(cli, workload, paths, seconds: float, trace: bool, spans_path: Path | None):
    argvs = {job.name: job.argv(paths) for job in workload.jobs}
    raw_walls, untraced, traced_walls, layer_runs = [], [], [], []
    executions = []  # every run_job result, pass by pass
    tracer = None
    # end-to-end times are normalised to the reference host speed; a traced
    # run reports no end-to-end metric and runs without the sampler
    sampler = None if trace else SpeedSampler()
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            wall, results = run_pass(cli.main, workload.jobs, argvs, sampler=sampler)
            raw_walls.append(wall)
            untraced.append(results)
            executions.append(results)
            if len(raw_walls) == 1:
                # after one pass: later passes grow the heap through allocator
                # fragmentation, so the peak would depend on how many passes fit
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if trace:
                tracer = Tracer()
                with tracer:
                    wall, results = run_pass(cli.main, workload.jobs, argvs, tracer)
                traced_walls.append(wall)
                layer_runs.append(tracer.summary(len(workload.jobs)))
                executions.append(results)
            # another round only if it should end within half a round of the limit
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(raw_walls) / 2 > seconds:
                break
    if sampler is None:
        times, walls = [[r[0] for r in results] for results in untraced], raw_walls
    else:
        times = [[r[0] * sampler.factor(*r[4]) for r in results] for results in untraced]
        walls = [math.fsum(pass_times) for pass_times in times]

    # the first pass is checked in full; every later pass must print the same
    failures, docs, outputs = {}, {}, {}
    for job, (_, code, out, err, *_) in zip(workload.jobs, executions[0]):
        if code != 0:
            failures[job.name] = f"exit {code}: {first_line(err)}"
            continue
        try:
            docs[job.name] = json.loads(out)
        except json.JSONDecodeError as exc:
            failures[job.name] = f"output is not JSON: {exc}"
            continue
        outputs[job.name] = key_digests(docs[job.name])
    failures.update(check_outputs(workload, docs, load_reference(workload)))
    first = [hashlib.sha256(r[2].encode()).digest() for r in executions[0]]
    wrong = set(failures)
    failed = 0
    for results in executions:
        for job, digest, (_, code, out, err, *_) in zip(workload.jobs, first, results):
            if job.name in wrong:
                failed += 1
            elif code != 0 or hashlib.sha256(out.encode()).digest() != digest:
                failures.setdefault(job.name, f"a later pass exited {code} or printed "
                                              f"other output: {first_line(err)}")
                failed += 1

    known = [classify_known(case, run_job(cli.main, case.argv(paths)))
             for case in workload.known_cases]
    layers = None
    if trace:
        layers = {name: statistics.fmean(run[name] for run in layer_runs) for name in layer_runs[0]}
        if spans_path is not None:
            with gzip.open(spans_path, "wt") as fh:
                json.dump({"jobs": [job.name for job in workload.jobs],
                           "spans": tracer.spans}, fh)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "jobs": [job.name for job in workload.jobs],
        "walls": walls,
        "job_times": times,
        "raw_walls": raw_walls,
        "speed_samples": sampler.durations if sampler else [],
        "traced_walls": traced_walls,
        "layers": layers,
        "attempted": sum(len(results) for results in executions),
        "failed": failed,
        "failures": failures,
        "outputs": outputs,
        "known": known,
        "rss_kb": rss_kb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write the last traced pass's spans here (gzip JSON)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cli, workload, paths = setup(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(cli, workload, paths, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
