"""Write reference/<workload>.json from the outputs of the current program.

    python3 perfbench/make_reference.py [workload ...]

Runs each job of each named workload (default: all four) once at the
workload's default seed and stores, per job, a digest of every top-level
key of its JSON output.  Fixed-input workloads get ``"seed": null``: their
reference holds for every seed.  Rerun it only when outputs change on
purpose, and say so in the change.
"""
from __future__ import annotations

import json
import shutil
import sys

from checks import key_digests, reference_path
from child import ROOT, run_job, setup
from workloads import DEFAULT_SEEDS, FIXED_INPUTS, WORKLOADS


def main(names) -> int:
    for name in names or WORKLOADS:
        workdir = ROOT / ".bench_work" / f"reference-{name}"
        try:
            cli, workload, paths = setup(name, DEFAULT_SEEDS[name], workdir)
            jobs = {}
            for job in workload.jobs:
                _, code, out, err = run_job(cli.main, job.argv(paths))
                if code != 0:
                    print(f"error: {name}: {job.name} exited {code}: {err.strip()}", file=sys.stderr)
                    return 1
                jobs[job.name] = key_digests(json.loads(out))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        seed = None if name in FIXED_INPUTS else workload.seed
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": seed, "jobs": jobs}, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(jobs)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
