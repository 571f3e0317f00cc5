"""Checks on the JSON that each job prints.

Two kinds of check:

* Reference: for the seeds in ``reference/<workload>.json`` (the default
  seeds; every seed for the fixed-input workloads), each reference top-level
  key must be present in the job's output with an equal value.  Values are
  compared by digest, so the references stay small.  Extra top-level keys are
  allowed, so that fields added to the output on purpose do not fail.
* Invariants, on every seed: facts the paper or the input construction fix,
  worked out here without the package (the ideal echo, Q's low-degree terms
  and lattice support, Golod consistency, candidate singletons, Scarf
  atoms, depolarization, the expected lattice isomorphisms).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_digests(doc: dict) -> dict:
    return {key: digest(value) for key, value in doc.items()}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload) -> dict | None:
    """{job name: {key: digest}} if the workload's reference covers its seed."""
    path = reference_path(workload.name)
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref["seed"] is not None and ref["seed"] != workload.seed:
        return None
    return ref["jobs"]


def compare_to_reference(expected: dict, doc: dict) -> str | None:
    missing = sorted(k for k in expected if k not in doc)
    if missing:
        return f"missing keys {missing}"
    wrong = sorted(k for k, d in expected.items() if digest(doc[k]) != d)
    if wrong:
        return f"differs from the reference in {wrong}"
    return None


def _gens(workload, name):
    return [tuple(g) for g in workload.ideals[name]["gens"]]


def _join(a, b):
    return tuple(map(max, a, b))


def _top(gens):
    top = (0,) * len(gens[0])
    for g in gens:
        top = _join(top, g)
    return top


def _lattice(gens) -> set:
    """All subset lcms, the bottom 0 included."""
    lcms = {(0,) * len(gens[0])}
    for g in gens:
        lcms |= {_join(m, g) for m in lcms}
    return lcms


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _monomial(m, names) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
    return "*".join(parts) or "1"


def _check_q(job, doc, workload, docs):
    gens = _gens(workload, job.ideals[0])
    top = _top(gens)
    zero = (0,) * len(top)
    terms = {(t["t"], tuple(t["y"])): t["c"] for t in doc["terms"]}
    if terms.get((0, zero)) != 1:
        return "constant term of Q is not 1"
    if any(t <= 1 and (t, y) != (0, zero) for (t, y) in terms):
        return "Q has a term of t-degree 0 or 1 besides the constant"
    if {y: c for (t, y), c in terms.items() if t == 2} != {g: -1 for g in gens}:
        return "the t^2 part of Q is not minus the sum of the generators"
    lattice = _lattice(gens)
    if any(y not in lattice or y == zero for (t, y) in terms if t >= 1):
        return "a Q multidegree is not a nonzero subset lcm"
    if any(t > sum(top) for (t, _) in terms):
        return "Q has t-degree above deg m_I"
    return None


def _check_golod(job, doc, workload, docs):
    name = job.ideals[0]
    gens = _gens(workload, name)
    top = _top(gens)
    if doc["tmax"] != sum(top) + 2 or doc["bound"] != [x + 1 for x in top]:
        return "unexpected default truncation"
    verdict = doc["golod_certified_to_truncation"]
    if not isinstance(verdict, bool):
        return "verdict is not a boolean"
    if len(gens) == 1 and not verdict:
        return "a hypersurface ring is Golod, yet the verdict is false"
    if len(gens) > 1 and verdict and all(
            _coprime(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]):
        return "a complete intersection of two or more generators is not Golod"
    q = docs.get(f"q {name}")
    if verdict and q and any(t["c"] >= 0 for t in q["terms"] if t["t"] >= 1):
        return "certified Golod, but Q has a nonnegative coefficient (Golod Q is 1 - ...)"
    return None


def _check_candidates(job, doc, workload, docs):
    gens = _gens(workload, job.ideals[0])
    rows = {(c["sign"], c["t"], tuple(c["y"])) for c in doc["candidates"]}
    if {row for row in rows if row[1] == 2} != {(-1, 2, g) for g in gens}:
        return "the t = 2 candidates are not the negated generators"
    lattice = _lattice(gens)
    zero = (0,) * len(gens[0])
    if any(s not in (1, -1) or not 2 <= t <= 2 * len(gens) or y not in lattice or y == zero
           for s, t, y in rows):
        return "a candidate has a bad sign, t-degree or multidegree"
    return None


def _check_scarf(job, doc, workload, docs):
    gens = _gens(workload, job.ideals[0])
    mods = [[tuple(m) for m in mod["multidegrees"]] for mod in doc["modules"]]
    if mods[0] != [(0,) * len(gens[0])] or mods[1] != sorted(gens, key=lambda g: (sum(g), g)):
        return "Scarf degrees 0 and 1 are not the unit and the generators"
    if any(mod["rank"] != len(mod["multidegrees"]) for mod in doc["modules"]):
        return "rank does not match the listed multidegrees"
    lattice = _lattice(gens)
    if any(m not in lattice for mod in mods for m in mod):
        return "a Scarf multidegree is not a subset lcm"
    return None


def _check_polarize(job, doc, workload, docs):
    gens = _gens(workload, job.ideals[0])
    arities = [max([1] + [g[i] for g in gens]) for i in range(len(gens[0]))]
    if doc["arities"] != arities:
        return "wrong polarization arities"
    pol = [tuple(g) for g in doc["polarized"]["gens"]]
    if any(x not in (0, 1) for g in pol for x in g):
        return "polarized ideal is not squarefree"
    back = set()
    for g in pol:
        pos, image = 0, []
        for d in arities:
            image.append(sum(g[pos:pos + d]))
            pos += d
        back.add(tuple(image))
    if back != set(gens) or len(pol) != len(gens):
        return "depolarization does not give back the generators"
    return None


def _check_lattice_iso(job, doc, workload, docs):
    """The target's file lists the images of A's generators in A's order, so
    that atom pairing must be found, GCD-preserving.  Both targets are
    isomorphic to A, so they admit equally many isomorphisms (|Aut L_A|)."""
    src, dst = (workload.ideals[name] for name in job.ideals)
    expected = [[_monomial(a, src["vars"]), _monomial(b, dst["vars"])]
                for a, b in zip(src["gens"], dst["gens"])]
    if not any(iso["atoms"] == expected and iso["gcd_preserving"] for iso in doc["isomorphisms"]):
        return "the isomorphism induced by the construction is missing"
    if doc["count"] != len(doc["isomorphisms"]):
        return "count does not match the listed isomorphisms"
    counts = {docs[j.name]["count"] for j in workload.jobs
              if j.command == "lattice-iso" and j.ideals[0] == job.ideals[0] and j.name in docs}
    if len(counts) > 1:
        return "isomorphic targets admit different numbers of isomorphisms"
    return None


INVARIANTS = {
    "q": _check_q,
    "golod": _check_golod,
    "candidates": _check_candidates,
    "scarf": _check_scarf,
    "polarize": _check_polarize,
    "lattice-iso": _check_lattice_iso,
}


def check_outputs(workload, docs: dict, reference: dict | None) -> dict:
    """{job name: problem} for the jobs whose parsed output `docs[name]` is wrong.

    Jobs missing from `docs` (non-zero exit or unparsable output) are the
    caller's failures already and are skipped here."""
    problems = {}
    for job in workload.jobs:
        doc = docs.get(job.name)
        if doc is None:
            continue
        if reference is not None:
            if job.name not in reference:
                problems[job.name] = "no reference output for this job"
                continue
            problem = compare_to_reference(reference[job.name], doc)
            if problem:
                problems[job.name] = problem
                continue
        if "ideal" in doc and len(job.ideals) == 1:
            ideal = workload.ideals[job.ideals[0]]
            echo = {"vars": ideal["vars"],
                    "gens": sorted(ideal["gens"], key=lambda g: (sum(g), g))}
            if doc["ideal"] != echo:
                problems[job.name] = "output names another ideal"
                continue
        check = INVARIANTS.get(job.command)
        try:
            problem = check(job, doc, workload, docs) if check else None
        except (KeyError, TypeError, IndexError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
        if problem:
            problems[job.name] = problem
    return problems
