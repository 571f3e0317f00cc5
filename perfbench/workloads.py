"""Seeded inputs and job lists for the benchmark workloads.

Each workload is a list of CLI jobs over a set of named ideals.  Inputs are
generated here from the workload seed; the program only ever sees the ideal
files written from them.  ``resolve`` and ``gf2-check`` run fixed ideals, so
their seed changes nothing and their output references hold for every seed.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

CORPUS_SEED = 20240817
LATTICE_SEED = 1
DEFAULT_SEEDS = {"corpus": CORPUS_SEED, "resolve": 0, "gf2-check": 0, "lattice": LATTICE_SEED}
WORKLOADS = tuple(DEFAULT_SEEDS)
FIXED_INPUTS = ("resolve", "gf2-check")  # the seed does not change their inputs

# corpus: the generation rule of tests/helpers.random_corpus
CORPUS_SIZE = 200
MAX_TOP_DEGREE = 6
# corpus ideals whose slack box (m_I + 1) has more cells than this are left
# out: the few 4-variable degree-6 ideals would dominate the pass and make
# its time depend on how many of them a seed happens to draw
CORPUS_MAX_CELLS = 100
CORPUS_MAX_DRAWS = 50_000

# lattice: LATTICE_IDEALS antichains of LATTICE_GENS degree-LATTICE_DEGREE
# monomials in LATTICE_VARS variables, each redrawn until |L_I| falls in
# LATTICE_SIZE_RANGE.  The lattice jobs cost about |L|^2 (join tables), and
# |L| ranges from under 100 to over 600 across seeds; the window keeps the
# work per seed alike.  The isomorphism search still costs up to half as much
# again on one antichain as on another of the same |L|, so a pass runs
# several and a seed's luck averages out.
LATTICE_IDEALS = 3
LATTICE_VARS = 5
LATTICE_GENS = 14
LATTICE_DEGREE = 4
LATTICE_SIZE_RANGE = (150, 175)


@dataclass(frozen=True)
class Job:
    """One CLI call: ``<command> <ideal files...> <options...> --format json``."""

    name: str
    command: str
    ideals: tuple
    options: tuple = ()

    def argv(self, paths: dict) -> list:
        return [self.command, *(paths[i] for i in self.ideals), *self.options,
                "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ideals: dict  # name -> {"vars": [...], "gens": [[...], ...]}
    jobs: tuple
    known_cases: tuple = ()  # untimed jobs with a known defect, see KNOWN_CASES


def ideal_doc(gens, names=None) -> dict:
    n = len(gens[0])
    return {"vars": list(names or (f"x{i + 1}" for i in range(n))),
            "gens": [list(g) for g in gens]}


def cycle_edges(n: int):
    """Edge ideal of the n-cycle: x_i x_{i+1}, indices mod n."""
    return [tuple(1 if k in (i, (i + 1) % n) else 0 for k in range(n)) for i in range(n)]


# the hemi-icosahedron: the 6-vertex triangulation of the real projective plane
RP2_FACETS = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))


def rp2_nonfaces():
    """Stanley-Reisner generators of RP^2_6: the 10 triples that are not facets."""
    facets = {frozenset(f) for f in RP2_FACETS}
    return [tuple(1 if v in t else 0 for v in range(1, 7))
            for t in itertools.combinations(range(1, 7), 3) if frozenset(t) not in facets]


D10 = ((3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2))

FIXED_IDEALS = {
    "C5": ideal_doc(cycle_edges(5)),
    "C6": ideal_doc(cycle_edges(6)),
    "D10": ideal_doc(D10),
    "RP2": ideal_doc(rp2_nonfaces()),
}

# golod on RP^2 with an explicit --tmax exits 2 ("key (t=tmax+1, ...) outside
# truncation box"): golod_series_match passes Koszul terms above P.tmax to
# series_from_terms.  The truncated verdict is true in both cases.
KNOWN_CASES = (
    Job("golod RP2 --tmax 4 --char 2", "golod", ("RP2",), ("--tmax", "4", "--char", "2")),
    Job("golod RP2 --tmax 3", "golod", ("RP2",), ("--tmax", "3")),
)
KNOWN_EXPECTED = {"golod_certified_to_truncation": True}


def corpus_stream(seed: int):
    """Distinct small ideals in the order tests/helpers.random_corpus draws them:
    <= 4 variables, <= 4 generators, exponents <= 3, deg m_I <= 6."""
    from monpoincare.core import minimalize, total_degree

    rng = random.Random(seed)
    seen = set()
    while True:
        n = rng.choice([1, 2, 2, 3, 3, 3, 4, 4])
        gens = set()
        for _ in range(rng.randint(1, 4)):
            g = [0] * n
            for _ in range(rng.choice([2, 2, 2, 3, 3, 4])):
                i = rng.randrange(n)
                if g[i] < 3:
                    g[i] += 1
            if sum(g) >= 2:
                gens.add(tuple(g))
        if not gens:
            continue
        ideal = minimalize(gens, n)
        if total_degree(ideal.top_lcm()) > MAX_TOP_DEGREE:
            continue
        key = (n, ideal.generators)
        if key not in seen:
            seen.add(key)
            yield ideal


def slack_cells(ideal) -> int:
    return math.prod(x + 2 for x in ideal.top_lcm())


def _stratum(ideal):
    return ideal.num_vars, ideal.num_generators, sum(ideal.top_lcm())


def corpus_quotas() -> dict:
    """Ideals per (variables, generators, deg m_I) among the light ideals of
    the default-seed corpus.  Every seed fills the same quotas, so the pass
    does the same kind of work whatever the seed."""
    quotas = {}
    for ideal in itertools.islice(corpus_stream(CORPUS_SEED), CORPUS_SIZE):
        if slack_cells(ideal) <= CORPUS_MAX_CELLS:
            key = _stratum(ideal)
            quotas[key] = quotas.get(key, 0) + 1
    return quotas


def corpus_ideals(seed: int):
    """The first light ideals of the seed's stream that fill corpus_quotas().
    At the default seed these are all light ideals of the tests' corpus."""
    need = corpus_quotas()
    left = sum(need.values())
    picked = []
    for draws, ideal in enumerate(corpus_stream(seed)):
        if draws >= CORPUS_MAX_DRAWS:
            raise RuntimeError(f"corpus seed {seed}: quotas not filled in {draws} ideals")
        key = _stratum(ideal)
        if need.get(key) and slack_cells(ideal) <= CORPUS_MAX_CELLS:
            need[key] -= 1
            picked.append(ideal)
            left -= 1
            if not left:
                return picked


def _lcm_lattice_size(gens) -> int:
    lcms = {(0,) * len(gens[0])}
    for g in gens:
        lcms |= {tuple(map(max, m, g)) for m in lcms}
    return len(lcms)


def lattice_inputs(seed: int):
    """LATTICE_IDEALS triples (A, A with variables permuted, the permutation),
    A a seeded antichain."""
    rng = random.Random(seed)
    monomials = [m for m in itertools.product(range(LATTICE_DEGREE + 1), repeat=LATTICE_VARS)
                 if sum(m) == LATTICE_DEGREE]
    lo, hi = LATTICE_SIZE_RANGE
    triples = []
    while len(triples) < LATTICE_IDEALS:
        gens = sorted(rng.sample(monomials, LATTICE_GENS))
        if not lo <= _lcm_lattice_size(gens) <= hi:
            continue
        perm = list(range(LATTICE_VARS))
        rng.shuffle(perm)
        permuted = [tuple(g[perm[k]] for k in range(LATTICE_VARS)) for g in gens]
        triples.append((gens, permuted, perm))
    return triples


def build(name: str, seed: int | None = None) -> Workload:
    """The workload's ideals and job list for a seed (default: its own)."""
    if seed is None:
        seed = DEFAULT_SEEDS[name]
    if name == "corpus":
        ideals, jobs = {}, []
        for k, ideal in enumerate(corpus_ideals(seed)):
            key = f"c{k:03d}"
            ideals[key] = ideal.to_dict()
            jobs += [Job(f"q {key}", "q", (key,)), Job(f"golod {key}", "golod", (key,))]
        return Workload(name, seed, ideals, tuple(jobs))
    if name == "resolve":
        jobs = (
            Job("q C5", "q", ("C5",)),
            Job("deviations C5", "deviations", ("C5",)),
            Job("q C6", "q", ("C6",)),
            Job("q D10", "q", ("D10",)),
            Job("golod D10", "golod", ("D10",)),
            Job("deviations D10 --nmax 10", "deviations", ("D10",), ("--nmax", "10")),
        )
        return Workload(name, seed, {k: FIXED_IDEALS[k] for k in ("C5", "C6", "D10")}, jobs)
    if name == "gf2-check":
        gf2 = ("--char", "2", "--check")
        jobs = (
            *(Job(f"{c} C5", c, ("C5",), gf2) for c in ("q", "poincare", "golod", "deviations")),
            Job("poincare RP2 --tmax 4", "poincare", ("RP2",), ("--tmax", "4", *gf2)),
            Job("q D10", "q", ("D10",), gf2),
            Job("golod-generic D10", "golod-generic", ("D10",), gf2),
            Job("eagon D10 --imax 5", "eagon", ("D10",), ("--imax", "5", *gf2)),
            Job("betti D10", "betti", ("D10",), gf2),
        )
        ideals = {k: FIXED_IDEALS[k] for k in ("C5", "D10", "RP2")}
        return Workload(name, seed, ideals, jobs, KNOWN_CASES)
    if name == "lattice":
        from monpoincare.core import minimalize, polarize

        # Bk and Pk list the images of Ak's generators in Ak's order; the
        # lattice-iso check relies on it
        ideals, jobs = {}, []
        for k, (gens, permuted, _) in enumerate(lattice_inputs(seed), 1):
            pol = polarize(minimalize(gens, LATTICE_VARS))
            a, b, p = f"A{k}", f"B{k}", f"P{k}"
            ideals |= {a: ideal_doc(gens), b: ideal_doc(permuted),
                       p: ideal_doc([pol.forward(g) for g in gens], pol.ideal.var_names)}
            jobs += [
                Job(f"candidates {a}", "candidates", (a,)),
                Job(f"scarf {a}", "scarf", (a,)),
                Job(f"polarize {a} --check", "polarize", (a,), ("--check",)),
                Job(f"lattice-iso {a} {b}", "lattice-iso", (a, b)),
                Job(f"lattice-iso {a} {p}", "lattice-iso", (a, p)),
            ]
        return Workload(name, seed, ideals, tuple(jobs))
    raise ValueError(f"unknown workload {name!r}")
