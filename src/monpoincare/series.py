"""Truncated bigraded power series with exact integer coefficients.

A series lives in Z[y_1..y_n][t] truncated at a t-degree ``tmax`` and a
componentwise multidegree bound ``ybound``.  Both truncations are quotient
maps (multidegree keys only ever grow under multiplication), so arithmetic
inside the box is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import (
    InputError,
    InternalInconsistencyError,
    MonomialIdeal,
    Multidegree,
    box_multidegrees,
    connected_components_lJ,
    divides,
    mask_subset,
    mdeg_add,
    mdeg_sub,
    monomial_str,
    subset_lcms,
    total_degree,
    unit_mdeg,
    zero_mdeg,
)


@dataclass(frozen=True)
class BigradedSeries:
    num_vars: int
    tmax: int
    ybound: Multidegree
    coeffs: dict  # (t, multidegree) -> nonzero int; do not mutate

    def __post_init__(self):
        for (t, j) in self.coeffs:
            if t > self.tmax or not divides(j, self.ybound):
                raise InputError(f"key (t={t}, y={j}) outside truncation box")

    def _compatible(self, other: "BigradedSeries"):
        if (self.num_vars, self.tmax, self.ybound) != (other.num_vars, other.tmax, other.ybound):
            raise InputError("series truncation parameters differ")

    def coefficient(self, t: int, j: Multidegree) -> int:
        return self.coeffs.get((t, tuple(j)), 0)

    @property
    def constant_term(self) -> int:
        return self.coeffs.get((0, zero_mdeg(self.num_vars)), 0)

    def terms(self):
        """Terms in canonical order: by t-degree, then lexicographic multidegree."""
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def t_degree(self) -> int:
        return max((t for (t, _) in self.coeffs), default=0)

    def __eq__(self, other):
        if not isinstance(other, BigradedSeries):
            return NotImplemented
        return (self.num_vars, self.tmax, self.ybound, self.coeffs) == (
            other.num_vars, other.tmax, other.ybound, other.coeffs)

    def __add__(self, other):
        self._compatible(other)
        coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            new = coeffs.get(key, 0) + c
            if new:
                coeffs[key] = new
            else:
                coeffs.pop(key, None)
        return BigradedSeries(self.num_vars, self.tmax, self.ybound, coeffs)

    def __neg__(self):
        return BigradedSeries(self.num_vars, self.tmax, self.ybound,
                              {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BigradedSeries(self.num_vars, self.tmax, self.ybound, {})
            return BigradedSeries(self.num_vars, self.tmax, self.ybound,
                                  {k: c * other for k, c in self.coeffs.items()})
        return series_mul(self, other)

    __rmul__ = __mul__

    def restrict(self, tmax: int, ybound: Multidegree) -> "BigradedSeries":
        """Tighten the truncation box, discarding keys that fall outside."""
        coeffs = {(t, j): c for (t, j), c in self.coeffs.items()
                  if t <= tmax and divides(j, ybound)}
        return BigradedSeries(self.num_vars, tmax, tuple(ybound), coeffs)

    def map_multidegrees(self, mapping, num_vars: int, ybound: Multidegree) -> "BigradedSeries":
        """Apply a multidegree map to every y-key, keeping t and coefficients."""
        coeffs = {}
        for (t, j), c in self.coeffs.items():
            coeffs[(t, mapping(j))] = c
        if len(coeffs) != len(self.coeffs):
            raise InternalInconsistencyError("multidegree map collapsed distinct terms")
        return BigradedSeries(num_vars, self.tmax, tuple(ybound), coeffs)

    def render(self, names=None) -> str:
        if names is None:
            names = tuple(f"y{i + 1}" for i in range(self.num_vars))
        if self.is_zero():
            return "0"
        parts = []
        for (t, j), c in self.terms():
            mono = monomial_str(j, names)
            if t == 1:
                mono = "t" if mono == "1" else f"t*{mono}"
            elif t > 1:
                mono = f"t^{t}" if mono == "1" else f"t^{t}*{mono}"
            if mono == "1":
                body = str(abs(c))
            else:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {"tmax": self.tmax, "ybound": list(self.ybound),
                "terms": [{"t": t, "y": list(j), "c": c} for (t, j), c in self.terms()]}


def series_one(num_vars: int, tmax: int, ybound: Multidegree) -> BigradedSeries:
    return BigradedSeries(num_vars, tmax, tuple(ybound), {(0, zero_mdeg(num_vars)): 1})


def series_from_terms(num_vars: int, tmax: int, ybound, terms) -> BigradedSeries:
    """Build a series from (t, multidegree, coefficient) triples inside the box."""
    coeffs = {}
    for t, j, c in terms:
        key = (t, tuple(j))
        new = coeffs.get(key, 0) + c
        if new:
            coeffs[key] = new
        else:
            coeffs.pop(key, None)
    return BigradedSeries(num_vars, tmax, tuple(ybound), coeffs)


def series_mul(a: BigradedSeries, b: BigradedSeries) -> BigradedSeries:
    a._compatible(b)
    coeffs = {}
    ybound = a.ybound
    for (t1, j1), c1 in a.coeffs.items():
        for (t2, j2), c2 in b.coeffs.items():
            t = t1 + t2
            if t > a.tmax:
                continue
            j = mdeg_add(j1, j2)
            if not divides(j, ybound):
                continue
            key = (t, j)
            new = coeffs.get(key, 0) + c1 * c2
            if new:
                coeffs[key] = new
            else:
                del coeffs[key]
    return BigradedSeries(a.num_vars, a.tmax, a.ybound, coeffs)


def series_inverse(a: BigradedSeries) -> BigradedSeries:
    """Multiplicative inverse within the truncation box; needs constant term 1.

    Solves a*b = 1 by the convolution recurrence in graded key order, so the
    cost is (box size) x (number of nonzero terms of a).
    """
    if a.constant_term != 1:
        raise InputError("series inverse needs constant term 1")
    origin = (0, zero_mdeg(a.num_vars))
    tail = [(t, j, c) for (t, j), c in a.coeffs.items() if (t, j) != origin]
    inv = {origin: 1}
    for j in box_multidegrees(a.ybound):
        for t in range(a.tmax + 1):
            if (t, j) == origin:
                continue
            s = 0
            for t1, j1, c1 in tail:
                if t1 <= t and divides(j1, j):
                    b = inv.get((t - t1, mdeg_sub(j, j1)))
                    if b:
                        s += c1 * b
            if s:
                inv[(t, j)] = -s
    return BigradedSeries(a.num_vars, a.tmax, a.ybound, inv)


def variables_product(num_vars: int, tmax: int, ybound) -> BigradedSeries:
    """The numerator prod_i (1 + t*y_i), truncated."""
    out = series_one(num_vars, tmax, tuple(ybound))
    for i in range(num_vars):
        factor = series_from_terms(num_vars, tmax, ybound,
                                   [(0, zero_mdeg(num_vars), 1), (1, unit_mdeg(num_vars, i), 1)])
        out = out * factor
    return out


def binomial_factor_power(num_vars: int, tmax: int, ybound, sign: int, n: int,
                          j: Multidegree, exponent: int) -> BigradedSeries:
    """(1 + sign*y^j*t^n)^exponent expanded in the box; exponent may be negative."""
    terms = []
    k = 0
    while k * n <= tmax:
        kj = tuple(k * x for x in j)
        if not divides(kj, ybound):
            break
        binom = comb(exponent, k) if exponent >= 0 else (-1) ** k * comb(-exponent + k - 1, k)
        terms.append((k * n, kj, binom * sign ** k))
        k += 1
    return series_from_terms(num_vars, tmax, ybound, terms)


@dataclass(frozen=True)
class DeviationTable:
    """Exponents e_{n,j} of the infinite-product decomposition of a series."""

    num_vars: int
    nmax: int
    entries: dict  # (n, multidegree) -> nonzero int

    def get(self, n: int, j) -> int:
        return self.entries.get((n, tuple(j)), 0)

    def rows(self):
        return sorted(self.entries.items())


def deviations(P: BigradedSeries, nmax: int) -> DeviationTable:
    """Factor P as a product of (1 +/- y^j t^n)^(e_{n,j}) factors, inductively.

    Step n matches the t^n slice of P by multiplying (odd n) or dividing
    (even n) the running product, which pins e_{n,j} uniquely.
    """
    if P.constant_term != 1 or any(t == 0 and any(j) for (t, j) in P.coeffs):
        raise InputError("deviations need a series of the form 1 + (terms of t-degree >= 1)")
    if nmax > P.tmax:
        raise InputError(f"nmax {nmax} exceeds series truncation {P.tmax}")
    running = series_one(P.num_vars, P.tmax, P.ybound)
    entries = {}
    for n in range(1, nmax + 1):
        diff = P - running
        sign = 1 if n % 2 else -1
        for (t, j), e in sorted(diff.coeffs.items()):
            if t != n:
                continue
            entries[(n, j)] = e
            # odd n: multiply by (1+y^j t^n)^e; even n: divide by (1-y^j t^n)^e
            running = running * binomial_factor_power(
                P.num_vars, P.tmax, P.ybound, sign, n, j, e if n % 2 else -e)
    return DeviationTable(P.num_vars, nmax, entries)


def series_from_deviations(table: DeviationTable, num_vars: int, tmax: int,
                           ybound) -> BigradedSeries:
    """Expand prod (1+y^j t^n)^e [n odd] / prod (1-y^j t^n)^e [n even]."""
    out = series_one(num_vars, tmax, tuple(ybound))
    for (n, j), e in table.rows():
        if n > tmax:
            continue
        sign = 1 if n % 2 else -1
        exponent = e if n % 2 else -e
        out = out * binomial_factor_power(num_vars, tmax, ybound, sign, n, j, exponent)
    return out


def candidate_terms(ideal: MonomialIdeal):
    """The signed lcm terms {((-1)^l_J, |J|+l_J, m_J)} over nonempty subsets J."""
    out = set()
    for mask, m in enumerate(subset_lcms(ideal.generators, ideal.num_vars)):
        if mask:
            face = mask_subset(mask)
            l = connected_components_lJ(ideal, face)
            out.add(((-1) ** l, len(face) + l, m))
    return out


def verify_lcm_coefficients(Q: BigradedSeries, ideal: MonomialIdeal) -> bool:
    """Every y-multidegree of a t-degree >= 1 term of Q is a subset lcm (nonbottom)."""
    from .lattice import build_lcm_lattice

    lattice = build_lcm_lattice(ideal)
    elements = set(lattice.elements) - {zero_mdeg(ideal.num_vars)}
    return all(j in elements for (t, j) in Q.coeffs if t >= 1)


def denominator_from_poincare(P: BigradedSeries, ideal: MonomialIdeal) -> BigradedSeries:
    """Extract Q = prod(1+t*y_i)/P from an already computed Poincare series.

    P must be truncated at a box containing m_I and at a t-degree at least
    deg(m_I).  The result is the polynomial part: t-degree at most deg(m_I),
    every y-multidegree dividing m_I.  Violations of those two bounds are
    theorems, so finding one raises InternalInconsistencyError.
    """
    top = ideal.top_lcm()
    degree_bound = total_degree(top)
    if P.tmax < degree_bound or not divides(top, P.ybound):
        raise InputError("Poincare series truncation too small to extract the denominator")
    numerator = variables_product(ideal.num_vars, P.tmax, P.ybound)
    Q = numerator * series_inverse(P)
    for (t, j), c in Q.coeffs.items():
        if t > degree_bound:
            raise InternalInconsistencyError(
                f"denominator term {c}*y^{j}*t^{t} beyond t-degree bound {degree_bound}")
        if not divides(j, top):
            raise InternalInconsistencyError(
                f"denominator multidegree {j} does not divide m_I = {top}")
    return Q.restrict(degree_bound, top)


def denominator(ideal: MonomialIdeal, tmax: int | None = None, char: int = 0) -> BigradedSeries:
    """Q with P = prod(1+t*y_i)/Q, computed from the resolution of the residue field."""
    from .resolution import resolve_residue_field

    degree_bound = total_degree(ideal.top_lcm())
    if tmax is None:
        tmax = degree_bound + 1
    if tmax < degree_bound:
        raise InputError(
            f"tmax {tmax} is below deg m_I = {degree_bound}; denominator would be truncated")
    bound = mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars)
    res = resolve_residue_field(ideal, tmax, bound, char)
    return denominator_from_poincare(res.poincare_series(), ideal)
