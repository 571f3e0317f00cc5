"""Per-layer spans and size counters, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in SPANS with timing
wrappers.  The package binds names with ``from .x import y``, so a function
is replaced under every name in every ``monpoincare`` module that holds it
(``monpoincare.resolution.kernel_basis``, ``monpoincare.cli.denominator``,
...), and the lazy in-function imports read the patched module attribute.
Methods are replaced on their class.  Per-element primitives (``divides``,
``mdeg_add``, ``Ring.kills``) are left alone: a wrapper would cost more than
their body.

Spans are kept in memory as (name, start, end, parent index, job id) and
summarized at the end; ``restore`` puts every replaced name back.
"""
from __future__ import annotations

import functools
import importlib
import math
import time

MODULES = ("core", "linalg", "series", "complexes", "resolution", "lattice", "cli")

# layer -> public functions (Class.method for methods) that get a span
SPANS = {
    "core": ("load_ideal", "box_multidegrees", "lcm_of_subset", "connected_components_lJ",
             "polarize"),
    "linalg": ("kernel_basis", "EchelonSpace.add", "rank_of"),
    "series": ("series_inverse", "series_mul", "denominator_from_poincare", "deviations",
               "series_from_deviations", "candidate_terms", "verify_lcm_coefficients"),
    "complexes": ("homology", "FreeComplex.d_squared_violations", "FreeComplex.validate",
                  "taylor_complex", "minimize", "scarf_faces", "is_taylor_minimal",
                  "koszul_complex"),
    "resolution": ("resolve_residue_field", "is_golod_truncated", "golod_denominator",
                   "is_golod_generic", "eagon_resolution"),
    "lattice": ("build_lcm_lattice", "find_lattice_isomorphisms",
                "lattice_map_from_atom_bijection", "polarization_lattice_map"),
}
JOB_SPAN = "cli.job"
RESOLVE_SPAN = "resolution.resolve_residue_field"

# size counters, summed over the calls of a pass except max_bits (a maximum)
COUNTERS = {
    "cli.output_bytes": "bytes",
    "core.box_multidegrees.cells": "count",
    "linalg.kernel_basis.entries": "count",
    "linalg.kernel_basis.kernel_dim": "count",
    "linalg.kernel_basis.max_bits": "bits",
    "linalg.EchelonSpace.add.accepted": "count",
    "series.series_inverse.work": "count",
    "series.series_mul.pairs": "count",
    "series.P_terms": "count",
    "series.Q_terms": "count",
    "complexes.homology.cells": "count",
    "resolution.resolve_residue_field.cells": "count",
    "resolution.resolve_residue_field.generators": "count",
    "resolution.kernel_vectors": "count",
    "lattice.build_lcm_lattice.elements": "count",
    "lattice.find_lattice_isomorphisms.found": "count",
}
# computed from the counters above once a pass is summarized
DERIVED = {
    "resolution.min_gen_ratio": "ratio",
    "resolution.resolves_per_job": "ratio",
}


def span_names():
    return [JOB_SPAN] + [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


def _cells(bound) -> int:
    return math.prod(b + 1 for b in bound)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_kernel_basis(tr, args, kwargs, basis):
    rows, ncols = _arg(args, kwargs, 0, "rows"), _arg(args, kwargs, 1, "ncols")
    tr.add("linalg.kernel_basis.entries", len(rows) * ncols)
    tr.add("linalg.kernel_basis.kernel_dim", len(basis))
    if not _arg(args, kwargs, 2, "char", 0):
        bits = max((abs(x).bit_length() for v in basis for x in v), default=0)
        tr.maximum("linalg.kernel_basis.max_bits", bits)
    if any(name == RESOLVE_SPAN for _, name in tr.open):
        tr.add("resolution.kernel_vectors", len(basis))


def _count_series_inverse(tr, args, kwargs, result):
    a = args[0]
    tr.add("series.series_inverse.work", _cells(a.ybound) * (a.tmax + 1) * (len(a.coeffs) - 1))


def _count_denominator_from_poincare(tr, args, kwargs, Q):
    tr.add("series.P_terms", len(_arg(args, kwargs, 0, "P").coeffs))
    tr.add("series.Q_terms", len(Q.coeffs))


def _count_resolve(tr, args, kwargs, res):
    tr.add("resolution.resolve_residue_field.cells", _cells(res.bound))
    tr.add("resolution.resolve_residue_field.generators",
           sum(len(m) for m in res.complex.modules))


COUNT_HOOKS = {
    "core.box_multidegrees":
        lambda tr, a, k, cells: tr.add("core.box_multidegrees.cells", len(cells)),
    "linalg.kernel_basis": _count_kernel_basis,
    "linalg.EchelonSpace.add":
        lambda tr, a, k, grew: tr.add("linalg.EchelonSpace.add.accepted", int(grew)),
    "series.series_inverse": _count_series_inverse,
    "series.series_mul":
        lambda tr, a, k, r: tr.add("series.series_mul.pairs", len(a[0].coeffs) * len(a[1].coeffs)),
    "series.denominator_from_poincare": _count_denominator_from_poincare,
    "complexes.homology":
        lambda tr, a, k, r: tr.add("complexes.homology.cells", _cells(_arg(a, k, 1, "bound"))),
    "resolution.resolve_residue_field": _count_resolve,
    "lattice.build_lcm_lattice":
        lambda tr, a, k, L: tr.add("lattice.build_lcm_lattice.elements", len(L.elements)),
    "lattice.find_lattice_isomorphisms":
        lambda tr, a, k, found: tr.add("lattice.find_lattice_isomorphisms.found", len(found)),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.open = []  # (span index, name) of the spans not yet closed
        self.counters = {}
        self.job = None
        self._patched = []  # (owner, attribute, original)

    def add(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name, n):
        self.counters[name] = max(self.counters.get(name, 0), n)

    def wrap(self, name, fn):
        """fn with a span around every call and its count hook after it."""
        spans, opened, clock = self.spans, self.open, time.perf_counter
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = opened[-1][0] if opened else -1
            opened.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        mods = [importlib.import_module("monpoincare")]
        mods += [importlib.import_module(f"monpoincare.{m}") for m in MODULES]
        for layer, fns in SPANS.items():
            home = importlib.import_module(f"monpoincare.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    self._replace(cls, meth, self.wrap(name, vars(cls)[meth]))
                    continue
                original = getattr(home, fn)
                traced = self.wrap(name, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, traced)

    def _replace(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def summary(self, jobs: int) -> dict:
        """Every per-layer metric for what was traced, over `jobs` jobs."""
        out = {}
        for name in span_names():
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        vectors = out["resolution.kernel_vectors"]
        out["resolution.min_gen_ratio"] = (
            out["resolution.resolve_residue_field.generators"] / vectors if vectors else 0.0)
        out["resolution.resolves_per_job"] = out[f"{RESOLVE_SPAN}.calls"] / jobs if jobs else 0.0
        return out
