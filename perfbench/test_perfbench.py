"""Tests for the benchmark's input generators, tracer, host-speed sampler and
output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import importlib
import itertools
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from child import import_cli, run_pass  # noqa: E402
from workloads import Job, Workload  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEEDS[name], 7):
            assert workloads.build(name, seed) == workloads.build(name, seed)
    for name in ("corpus", "lattice"):
        assert workloads.build(name, 1).ideals != workloads.build(name, 2).ideals
    for name in workloads.FIXED_INPUTS:
        assert workloads.build(name, 1).ideals == workloads.build(name, 2).ideals


def test_corpus_generator_is_the_tests_corpus():
    from helpers import random_corpus

    corpus = random_corpus()
    stream = workloads.corpus_stream(workloads.CORPUS_SEED)
    assert list(itertools.islice(stream, len(corpus))) == corpus
    light = [i for i in corpus if workloads.slack_cells(i) <= workloads.CORPUS_MAX_CELLS]
    assert workloads.corpus_ideals(workloads.CORPUS_SEED) == light


def test_lattice_inputs_stay_in_the_size_window():
    lo, hi = workloads.LATTICE_SIZE_RANGE
    for seed in (1, 2, 3):
        triples = workloads.lattice_inputs(seed)
        assert len(triples) == workloads.LATTICE_IDEALS
        for gens, permuted, perm in triples:
            assert len(set(gens)) == workloads.LATTICE_GENS
            assert lo <= len(checks._lattice(gens)) <= hi
            assert permuted == [tuple(g[p] for p in perm) for g in gens]


def _bindings():
    """Every name in the package's modules and in the traced classes."""
    from monpoincare.complexes import FreeComplex
    from monpoincare.linalg import EchelonSpace

    mods = [importlib.import_module("monpoincare")]
    mods += [importlib.import_module(f"monpoincare.{m}") for m in tracer.MODULES]
    out = {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}
    for cls in (FreeComplex, EchelonSpace):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_restores_every_patched_name():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            during = _bindings()
            raise RuntimeError("restore must run on the way out")
    changed = {k for k in before if during[k] is not before[k]}
    # where callers bind them, on their class, and at the home module of the
    # names that series imports inside its functions
    for key in [("monpoincare.resolution", "kernel_basis"), ("monpoincare.complexes", "rank_of"),
                ("monpoincare.cli", "verify_lcm_coefficients"), ("EchelonSpace", "add"),
                ("FreeComplex", "validate"), ("monpoincare.lattice", "build_lcm_lattice"),
                ("monpoincare.resolution", "resolve_residue_field")]:
        assert key in changed, key
    traced = {during[k].__name__ for k in changed}
    assert traced == {name.split(".")[-1] for name in tracer.span_names()[1:]}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


SMALL = Workload("small", 0, {
    "I": {"vars": ["x1", "x2", "x3"], "gens": [[2, 0, 0], [0, 2, 1]]},
    "J": {"vars": ["x1", "x2", "x3"], "gens": [[1, 2, 0], [1, 0, 2]]},
    "K": {"vars": ["x1", "x2", "x3"], "gens": [[0, 2, 0], [2, 0, 1]]},  # I with x1, x2 swapped
    "G": {"vars": ["x1", "x2", "x3"], "gens": [[2, 1, 0], [0, 2, 1], [1, 0, 2]]},
}, (
    Job("q I", "q", ("I",), ("--check",)),
    Job("golod I", "golod", ("I",)),
    Job("candidates G", "candidates", ("G",)),
    Job("scarf G", "scarf", ("G",)),
    Job("polarize G", "polarize", ("G",), ("--check",)),
    Job("lattice-iso I K", "lattice-iso", ("I", "K"), ("--transport",)),
    Job("poincare J", "poincare", ("J",), ("--check", "--char", "2")),
    Job("betti G", "betti", ("G",), ("--check",)),
    Job("eagon G", "eagon", ("G",), ("--imax", "3", "--check")),
    Job("deviations J", "deviations", ("J",), ("--nmax", "4", "--check")),
))


@pytest.fixture(scope="module")
def traced_small(tmp_path_factory):
    cli = import_cli()
    work = tmp_path_factory.mktemp("ideals")
    paths = {}
    for name, doc in SMALL.ideals.items():
        paths[name] = str(work / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    tr = tracer.Tracer()
    with tr:
        _, results = run_pass(cli.main, SMALL.jobs, {j.name: j.argv(paths) for j in SMALL.jobs}, tr)
    return tr, results


def test_traced_jobs_succeed_and_pass_the_checks(traced_small):
    _, results = traced_small
    assert [code for _, code, _, _ in results] == [0] * len(SMALL.jobs)
    docs = {job.name: json.loads(out) for job, (_, _, out, _) in zip(SMALL.jobs, results)}
    assert checks.check_outputs(SMALL, docs, None) == {}
    broken = dict(docs)
    broken["q I"] = {**docs["q I"], "terms": docs["q I"]["terms"][1:]}
    assert set(checks.check_outputs(SMALL, broken, None)) == {"q I"}


def test_self_times_are_never_negative(traced_small):
    tr, _ = traced_small
    assert len(tr.spans) > len(SMALL.jobs)
    assert min(tr.self_times()) >= 0


def test_self_times_add_up_to_each_job_time(traced_small):
    tr, _ = traced_small
    own = tr.self_times()
    for jid in range(len(SMALL.jobs)):
        roots = [s for s in tr.spans if s[4] == jid and s[0] == tracer.JOB_SPAN]
        assert len(roots) == 1
        job_time = roots[0][2] - roots[0][1]
        total = math.fsum(t for s, t in zip(tr.spans, own) if s[4] == jid)
        assert total == pytest.approx(job_time, rel=1e-9, abs=1e-12)


def test_summary_reports_every_per_layer_metric(traced_small):
    tr, _ = traced_small
    summary = tr.summary(len(SMALL.jobs))
    assert set(summary) == set(tracer.metric_units())
    assert len(summary) == 117
    assert summary["cli.job.calls"] == len(SMALL.jobs)
    assert summary["resolution.resolves_per_job"] > 0


def test_reference_check_allows_extra_keys_only():
    doc = {"a": 1, "b": [1, 2]}
    ref = checks.key_digests(doc)
    assert checks.compare_to_reference(ref, {**doc, "version": "0.2"}) is None
    assert "missing" in checks.compare_to_reference(ref, {"a": 1})
    assert "differs" in checks.compare_to_reference(ref, {"a": 1, "b": [2, 1]})


def test_speed_sampler_restores_the_alarm_and_counts_its_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * hostspeed.INTERVAL:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.stolen == pytest.approx(math.fsum(sampler.durations))
    inside = [d for e, d in zip(sampler.ends, sampler.durations) if start <= e <= end]
    assert len(inside) >= hostspeed.MIN_SAMPLES
    assert sampler.factor(start, end) == hostspeed.REFERENCE_S / statistics.fmean(inside)
    # an interval with no sample inside borrows the nearest ones
    assert sampler.factor(end + 1, end + 2) == (
        hostspeed.REFERENCE_S / statistics.fmean(sampler.durations[-hostspeed.MIN_SAMPLES:]))


def test_calibrate_times_each_call():
    durations = hostspeed.calibrate(3)
    assert len(durations) == 3 and min(durations) > 0


def test_sampled_pass_takes_the_handler_time_out_of_each_job(tmp_path):
    cli = import_cli()
    paths = {}
    for name, doc in SMALL.ideals.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    with hostspeed.SpeedSampler() as sampler:
        wall, results = run_pass(cli.main, SMALL.jobs,
                                 {j.name: j.argv(paths) for j in SMALL.jobs}, sampler=sampler)
    assert [r[1] for r in results] == [0] * len(SMALL.jobs)
    for seconds, _, _, _, (start, end) in results:
        assert 0 <= seconds <= end - start
    assert math.fsum(r[0] for r in results) <= wall
