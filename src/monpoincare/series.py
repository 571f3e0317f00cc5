"""Truncated bigraded power series with exact integer coefficients.

A series lives in Z[y_1..y_n][t] truncated at a t-degree ``tmax`` and a
componentwise multidegree bound ``ybound``.  Both truncations are quotient
maps (multidegree keys only ever grow under multiplication), so arithmetic
inside the box is exact.

Q (``denominator``) and the Betti numbers of S/I (``betti_numbers``), which
give the Golod denominator, are read off the Taylor strands of the lcm
lattice (generator subsets grouped by lcm); neither builds a complex over R.

The deviations e_{n,j} (``deviations``) are the exponents of
P = prod (1+y^j t^n)^e [n odd] / prod (1-y^j t^n)^e [n even] (Avramov,
"Infinite free resolutions", 1998, section 7).  They come from one division
by the sparse Q, not by the dense P: G = t*dP/dt / P = sum_i t*y_i/(1+t*y_i)
- t*dQ/dt / Q, and in increasing n, e_{n,j} is (G_{n,j} minus the pushes of
the entries (n/k, j/k), k >= 2) / n, kept in an ``owed`` map that each entry
pushes forward to its multiples in the box.
``series_from_deviations``, the one expansion of a product of binomial factors,
gives P back from a table (``deviations --check``) and prod(1+t*y_i).

``series_div``, behind P, Q from P and the deviations, packs each key (t, j)
of its box into one int (``_packing``): t in the lowest field, and each
coordinate in a field one bit wider than its bound b needs.  Two in-box keys
sum to at most 2b in each field, below the field's top, so no carry crosses
fields: the int sum is the packed key sum, and one mask test on it decides
whether the sum lies in the box.  The keys are unpacked once, at the end.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add, le

from .core import (
    InputError,
    InternalInconsistencyError,
    MonomialIdeal,
    Multidegree,
    divides,
    in_lcm_lattice,
    monomial_str,
    total_degree,
    unit_mdeg,
    zero_mdeg,
)
from .linalg import rank_of


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

    def restrict(self, tmax: int, ybound: Multidegree) -> "BigradedSeries":
        """The series in the box (tmax, ybound), discarding keys that fall outside."""
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

    def render(self, names) -> str:
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


def first_difference(a: BigradedSeries, b: BigradedSeries):
    """(t, j, a's coefficient, b's coefficient) at the first key in (t, lex)
    order where a and b differ, or None if they agree."""
    if a.coeffs == b.coeffs:
        return None
    t, j = min(key for key in a.coeffs.keys() | b.coeffs.keys()
               if a.coeffs.get(key, 0) != b.coeffs.get(key, 0))
    return t, j, a.coefficient(t, j), b.coefficient(t, j)


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
            j = tuple(map(add, j1, j2))
            if not all(map(le, j, ybound)):
                continue
            key = (t, j)
            new = coeffs.get(key, 0) + c1 * c2
            if new:
                coeffs[key] = new
            else:
                del coeffs[key]
    return BigradedSeries(a.num_vars, a.tmax, a.ybound, coeffs)


def _packing(tmax: int, ybound: Multidegree):
    """(pack, unpack, tmask, adjust, guard) for keys (t, j) of the box
    (tmax, ybound), packed into one int each.

    Each coordinate, t in the lowest field, gets a field of w + 1 bits, where
    w is the bit length of its bound b.  A sum of two packed in-box keys is
    the packed sum of the keys: each field's sum is at most 2b < 2^(w+1), so
    no carry crosses fields.  Lifting each field by 2^w - 1 - b (``adjust``)
    sets its top bit exactly when the field's sum exceeds b, so the sum lies
    in the box iff (sum + adjust) & guard == 0, ``guard`` holding each
    field's top bit.  ``tmask`` reads t off a packed key.
    """
    fields, shift, adjust, guard = [], 0, 0, 0
    for b in (tmax, *ybound):
        w = b.bit_length()
        fields.append((shift, (1 << (w + 1)) - 1))
        adjust |= ((1 << w) - 1 - b) << shift
        guard |= 1 << (shift + w)
        shift += w + 1
    (_, tmask), *yfields = fields

    def pack(t, j):
        for x, (s, _) in zip(j, yfields):
            t += x << s
        return t

    def unpack(k):
        return k & tmask, tuple([(k >> s) & m for s, m in yfields])

    return pack, unpack, tmask, adjust, guard


def series_div(num: BigradedSeries, den: BigradedSeries) -> BigradedSeries:
    """num / den within their common truncation box; den needs constant term 1.

    Every other term of den has weight t + |j| >= 1, so the quotient term at
    a key is final once all keys of lower weight are settled.  Keys are
    settled weight by weight, and each quotient term is pushed once against
    the other terms of den: the cost is (quotient terms) x (den terms), not
    the size of the box.  Keys are packed ints (``_packing``), so a push is
    one add, one mask test for the box and one dict update; the tail of den
    is sorted by t, and a push stops once it would pass tmax.
    """
    num._compatible(den)
    if den.constant_term != 1:
        raise InputError("series division needs a denominator with constant term 1")
    tmax, ybound = num.tmax, num.ybound
    pack, unpack, tmask, adjust, guard = _packing(tmax, ybound)
    origin = (0, zero_mdeg(num.num_vars))
    tail = [(t, pack(t, j), c, t + sum(j)) for (t, j), c in sorted(den.coeffs.items())
            if (t, j) != origin]
    pending = {}  # weight -> {packed key: coefficient still owed to the quotient}
    for (t, j), c in num.coeffs.items():
        pending.setdefault(t + sum(j), {})[pack(t, j)] = c
    quotient = {}
    for weight in range(tmax + sum(ybound) + 1):
        for key, c in pending.pop(weight, {}).items():
            if not c:
                continue
            quotient[key] = c
            room = tmax - (key & tmask)
            for t1, k1, c1, w1 in tail:
                if t1 > room:
                    break  # tail is sorted by t
                k = key + k1
                if not (k + adjust) & guard:
                    bucket = pending.setdefault(weight + w1, {})
                    bucket[k] = bucket.get(k, 0) - c * c1
    return BigradedSeries(num.num_vars, tmax, ybound,
                          {unpack(key): c for key, c in quotient.items()})


def series_inverse(a: BigradedSeries) -> BigradedSeries:
    """Multiplicative inverse within the truncation box; needs constant term 1.

    This is series_div(1, a), so it costs (terms of the inverse) x (terms of a).
    """
    return series_div(series_one(a.num_vars, a.tmax, a.ybound), a)


def variables_product(num_vars: int, tmax: int, ybound) -> BigradedSeries:
    """The numerator prod_i (1 + t*y_i), truncated: ``series_from_deviations``
    of e_1 = 1 at each variable.

    A variable whose bound is 0 (one that no generator uses, in box m_I)
    contributes its truncation, the factor 1.
    """
    table = {(1, unit_mdeg(num_vars, i)): 1 for i in range(num_vars)}
    return series_from_deviations(table, num_vars, tmax, ybound)


def poincare_from_denominator(Q: BigradedSeries, tmax: int, ybound) -> BigradedSeries:
    """P = prod(1+t*y_i)/Q in the box (tmax, ybound).  Truncation to the box
    is a quotient map, so Q's terms outside it cannot change P in it."""
    if tmax < 0:
        raise InputError("tmax must be non-negative")
    return series_div(variables_product(Q.num_vars, tmax, ybound), Q.restrict(tmax, ybound))


def deviations(Q: BigradedSeries, nmax: int, ybound) -> dict:
    """The exponents e_{n,j} of P = prod(1+t*y_i)/Q = prod (1+y^j t^n)^e [n
    odd] / prod (1-y^j t^n)^e [n even], as {(n, multidegree): e_{n,j}} in the
    box (nmax, ybound), zeros omitted: for Q_R, the deviations (Avramov, 1998,
    section 7).  Q is 1 plus terms of t-degree >= 1, as ``denominator`` gives
    it; as in ``poincare_from_denominator``, its terms outside the box drop.

    G = t*dP/dt / P = sum_i t*y_i/(1+t*y_i) - t*dQ/dt / Q, one ``series_div``.
    The factor of (n, j) adds n*s_k*e_{n,j} to G at (k*n, k*j) for all k >= 1,
    s_k = (-1)^(k+1) for odd n and 1 for even n.  So, in increasing n, e_{n,j}
    is what G at (n, j) still owes after the entries of lower t-degree, over n
    (exactly).  ``owed`` is seeded from G; each entry pushes -n*s_k*e to every
    multiple (k*n, k*j), k >= 2, in the box, even where G is 0.
    """
    if Q.constant_term != 1 or any(t == 0 and any(j) for (t, j) in Q.coeffs):
        raise InputError("deviations need a denominator of the form 1 + (terms of t-degree >= 1)")
    Q, ybound = Q.restrict(nmax, ybound), tuple(ybound)
    num = {(t, j): -t * c for (t, j), c in Q.coeffs.items() if t}  # -t*dQ/dt
    owed = {k: {tuple(k * x for x in unit_mdeg(Q.num_vars, i)): (-1) ** (k + 1)  # n -> {j: G}
                for i, b in enumerate(ybound) if k <= b} for k in range(1, nmax + 1)}
    for (t, j), c in series_div(BigradedSeries(Q.num_vars, nmax, ybound, num), Q).coeffs.items():
        owed[t][j] = owed[t].get(j, 0) + c
    entries = {}
    for n in range(1, nmax + 1):
        for j, c in sorted(owed.pop(n, {}).items()):
            e, rest = divmod(c, n)
            if rest:
                raise InternalInconsistencyError(
                    f"deviation at n={n}, y^{j}: t*dP/dt / P owes {c} there, "
                    f"which is not a multiple of {n}")
            if not e:
                continue
            entries[(n, j)] = e
            for k in range(2, nmax // n + 1):
                kj = tuple(k * x for x in j)
                if not all(map(le, kj, ybound)):
                    break
                bucket = owed.setdefault(k * n, {})
                bucket[kj] = bucket.get(kj, 0) - (-n if n % 2 and not k % 2 else n) * e
    return entries


def series_from_deviations(table: dict, num_vars: int, tmax: int,
                           ybound) -> BigradedSeries:
    """Expand prod (1+y^j t^n)^e [n odd] / prod (1-y^j t^n)^e [n even] over the
    {(n, multidegree): e} table of ``deviations``, in the box (tmax, ybound):
    each factor (1 + s*y^j t^n)^E, (s, E) = (1, e) for odd n and (-1, -e) for
    even n, adds its terms C(E, k)*(s*y^j t^n)^k, k >= 1, times a snapshot of
    one {(t, j): c} dict to that dict.  No term outside the box is formed."""
    ybound = tuple(ybound)
    coeffs = {(0, zero_mdeg(num_vars)): 1}
    for (n, j), e in sorted(table.items()):
        s, E = (1, e) if n % 2 else (-1, -e)
        powers, b, kj = [], 1, j  # (k*n, k*j, C(E, k)*s^k) for k >= 1 in the box
        for k in range(1, tmax // n + 1):
            b = b * s * (E - k + 1) // k  # exact: C(E, k) = C(E, k-1)*(E-k+1)/k
            if not b or not all(map(le, kj, ybound)):
                break  # past the box, or C(E, k) = 0 for all k > E >= 0
            powers.append((k * n, kj, b))
            kj = tuple(map(add, kj, j))
        for (t, m), c in list(coeffs.items()):
            for tk, jk, ck in powers:
                if t + tk > tmax:
                    break
                key = (t + tk, tuple(map(add, m, jk)))
                if not all(map(le, key[1], ybound)):
                    break
                coeffs[key] = coeffs.get(key, 0) + c * ck
    return BigradedSeries(num_vars, tmax, ybound, {key: c for key, c in coeffs.items() if c})


def _fewest_connected(atoms) -> dict:
    """Each connected lcm alpha (the lcm of a generator subset whose GCD graph
    is connected), as a staircase mask, mapped to kc(alpha), the fewest
    generators in such a subset, given the generators' masks ``atoms``.

    Breadth first: step k joins each mask first reached at step k - 1 with
    every atom that meets it.  The atoms joined on the way to a mask form a
    connected subset with that lcm, and a connected subset can be listed so
    that each member meets an earlier one, so alpha is first reached at step
    kc(alpha).
    """
    fewest = dict.fromkeys(atoms, 1)
    level, k = list(fewest), 1
    while level:
        k += 1
        grown = []
        for m in level:
            for g in atoms:
                if g & m and (u := g | m) not in fewest:
                    fewest[u] = k
                    grown.append(u)
        level = grown
    return fewest


def candidate_terms(ideal: MonomialIdeal):
    """The signed lcm terms {((-1)^l_J, |J|+l_J, m_J)} over nonempty subsets J,
    from the lcm lattice L_I (``lattice_masks``) and the generators' staircase
    masks, with no 2^r table.  Two masks meet exactly when their monomials
    share a variable, so coprime means disjoint.  Two facts reduce the
    subsets to L_I.

    * Components are coprime families.  The GCD-graph components J_1..J_l of
      J are connected subsets whose lcms alpha_i are pairwise coprime (a
      shared variable would join two of them), and m_J is their product.
      Conversely connected subsets with pairwise coprime lcms are the
      components of their union.  So the terms at m are
      ((-1)^l, sum (|J_i| + 1), m) over such families with product m.
    * Connected sizes form an interval.  If J is connected with lcm alpha,
      a generator that divides alpha shares a variable with it, so adding it
      keeps J connected and the lcm alpha.  So the sizes of connected
      subsets with lcm alpha run from kc(alpha) (``_fewest_connected``) to
      |A(alpha)|, A(alpha) being the atoms below alpha, with no gap: one
      component adds sign -1 and t in [kc(alpha) + 1, |A(alpha)| + 1].

    Each J with m_J = m has one first component, the one holding m's lowest
    bit: its lcm alpha is connected, and the rest of J has lcm beta = m ^ alpha
    in L_I or 0, coprime to alpha, with one component fewer.  Conversely each
    connected alpha and each beta of L_I or 0, coprime to alpha and with no
    bit below alpha's lowest, join to such a family.  So m's (sign, t) set,
    kept as two t-bitsets, is the union over these pairs of alpha's interval
    plus beta's set.  The pairs with beta = 0 are the connected alpha
    themselves.  The others are listed from beta: in increasing order, so
    that beta's set is complete (every pair into it has a smaller beta), each
    beta of L_I minus 0 walks the connected alpha coprime to it with a bit
    below its lowest, breadth first from the atoms g with g & beta = 0 and
    such a bit (a prefix of the atoms in order of lowest bit), joining the
    atoms coprime to beta that meet the current mask (a connected
    subset can be listed from any member so that each member meets an
    earlier one, and its members are coprime to beta when alpha is).  Each
    step of a walk is a new pair, and distinct pairs come from distinct
    subsets J, so the work is about (|L_I| + pairs) * r, at most
    (|L_I| + 2^r) * r.  Each m is decoded once.
    """
    codec, below = ideal.codec, ideal.lattice_masks
    atoms = codec.atoms
    single = {alpha: ((1 << (below[alpha].bit_count() - k + 1)) - 1) << (k + 1)
              for alpha, k in _fewest_connected(atoms).items()}  # sign -1 t-bitset
    # mask -> (t-bitset of sign +1, t-bitset of sign -1); the pairs with
    # beta = 0 are the connected alpha themselves
    sets = {alpha: (0, ts) for alpha, ts in single.items()}
    # by lowest bit: the atoms with a bit below beta's lowest are a prefix
    by_low = sorted(atoms, key=lambda g: g & -g)
    lows = [g & -g for g in by_low]
    for beta in sorted(below)[1:]:  # 0 comes first
        level = [g for g in by_low[:bisect_left(lows, beta & -beta)] if not g & beta]
        if not level:
            continue
        plus, minus = sets[beta]
        coprime = [g for g in atoms if not g & beta]
        seen = set(level)
        while level:
            grown = []
            for alpha in level:
                m, ts = alpha | beta, single[alpha]
                p, n = sets.get(m, (0, 0))
                while ts:  # one more component: the sign flips
                    low = ts & -ts
                    p, n, ts = p | minus * low, n | plus * low, ts ^ low
                sets[m] = p, n
                for g in coprime:
                    if g & alpha and (u := g | alpha) not in seen:
                        seen.add(u)
                        grown.append(u)
            level = grown
    terms = set()
    for m, (plus, minus) in sets.items():
        j = codec.decode(m)
        for sign, ts in ((1, plus), (-1, minus)):
            while ts:
                low = ts & -ts
                terms.add((sign, low.bit_length() - 1, j))
                ts ^= low
    return terms


def _off_lattice_terms(Q: BigradedSeries, ideal: MonomialIdeal) -> list:
    """The terms of t-degree >= 1 whose multidegree is not in L_I minus 0."""
    return [(t, j, c) for (t, j), c in sorted(Q.coeffs.items())
            if t >= 1 and not (any(j) and in_lcm_lattice(ideal, j))]


def _require_on_lattice(Q: BigradedSeries, ideal: MonomialIdeal):
    bad = _off_lattice_terms(Q, ideal)
    if bad:
        t, j, c = bad[0]
        raise InternalInconsistencyError(
            f"denominator term {c}*y^{j}*t^{t} has a multidegree outside L_I minus 0")


def verify_lcm_coefficients(Q: BigradedSeries, ideal: MonomialIdeal) -> bool:
    """Every y-multidegree of a t-degree >= 1 term of Q is a subset lcm (nonbottom).

    Each term costs r joins (``in_lcm_lattice``); the lattice is not built.
    """
    return not _off_lattice_terms(Q, ideal)


def denominator_from_poincare(P: BigradedSeries, ideal: MonomialIdeal) -> BigradedSeries:
    """Extract Q = prod(1+t*y_i)/P from an already computed Poincare series:
    the tests' Q-level oracle.  --check compares P instead, the resolution's
    with prod(1+t*y_i)/Q, which is as strong (``cli._resolve_against``).

    P's box must contain m_I.  Q is a polynomial with t-degree at most
    deg(m_I) whose terms of t-degree >= 1 sit on L_I minus 0, so it is read
    off P restricted to box m_I, up to t = min(P.tmax, deg m_I); below
    deg m_I the result is Q mod t^(P.tmax+1), and its tmax says so.  Two
    theorem checks follow, and a violation raises InternalInconsistencyError:
    every term of t-degree >= 1 lies on L_I minus 0 (r joins a term), and
    when P's box is larger than box m_I, prod(1+t*y_i)/Q reproduces all of P,
    i.e. Q has no term outside box m_I or above t^deg(m_I).
    """
    top = ideal.top_lcm()
    if not divides(top, P.ybound):
        raise InputError("Poincare series truncation too small to extract the denominator")
    tmax = min(P.tmax, total_degree(top))
    tight = P.restrict(tmax, top)
    Q = series_div(variables_product(ideal.num_vars, tmax, top), tight)
    _require_on_lattice(Q, ideal)
    if (P.tmax, P.ybound) != (tmax, top):
        diff = first_difference(poincare_from_denominator(Q, P.tmax, P.ybound), P)
        if diff:
            t, j, expanded, given = diff
            raise InternalInconsistencyError(
                f"prod(1+t*y_i)/Q with Q read in box m_I = {top} does not reproduce the "
                f"Poincare series in box {P.ybound} up to t^{P.tmax}: it gives "
                f"{expanded}*y^{j}*t^{t}, where P has {given}*y^{j}*t^{t}")
    return Q


def _strand_polynomial(cells, char: int) -> dict:
    """c_alpha(t) = -sum_k h_k t^(k+1) as {t: coefficient}, where h_k is the
    homology in size k of the connected Taylor strand with basis ``cells``
    (the subset masks J with m_J = alpha and a connected GCD graph).

    The boundary of J keeps the faces J minus {i} that are again cells, with
    sign (-1)^(position of i in J); ranks are taken in characteristic char.
    """
    by_size = {}
    for J in cells:
        by_size.setdefault(J.bit_count(), []).append(J)
    position = {J: i for same in by_size.values() for i, J in enumerate(same)}
    rank = {}  # k -> rank of the boundary from size k to size k - 1
    for k, upper in by_size.items():
        ncols = len(by_size.get(k - 1, ()))
        rows = []
        for J in upper:
            row, sign, rest = {}, 1, J
            while rest:
                low = rest & -rest
                i = position.get(J ^ low)
                if i is not None:
                    row[i] = sign
                sign, rest = -sign, rest ^ low
            if row:
                rows.append(row)
        rank[k] = rank_of(rows, ncols, char) if rows else 0
    homology = {k: len(upper) - rank[k] - rank.get(k + 1, 0) for k, upper in by_size.items()}
    return {k + 1: -h for k, h in homology.items() if h}


def _lcm_strands(ideal: MonomialIdeal, connected: bool):
    """The Taylor strands {m_J: [J, ...]} of every subset mask J, read off the
    ideal's tables, or, when ``connected``, only of those with l_J = 1."""
    components = ideal.subset_components if connected else None
    strands = {}
    for J, m in enumerate(ideal.subset_lcms):
        if not connected or components[J] == 1:
            strands.setdefault(m, []).append(J)
    return strands


def betti_numbers(ideal: MonomialIdeal, char: int = 0) -> dict:
    """{(i, alpha): dim Tor_i^S(S/I, k)_alpha}, zeros omitted: each Betti number
    is the homology in size i of the full Taylor strand {J : m_J = alpha}
    (Gasharov-Peeva-Welker), from ``_strand_polynomial``; the empty set gives
    (0, 0) -> 1.  ``resolution.koszul_homology_dims`` is the oracle."""
    strands = _lcm_strands(ideal, connected=False)
    return {(t - 1, ideal.codec.decode(alpha)): -c for alpha, cells in strands.items()
            for t, c in _strand_polynomial(cells, char).items()}


def denominator(ideal: MonomialIdeal, char: int = 0) -> BigradedSeries:
    """Q with P = prod(1+t*y_i)/Q, from the lcm lattice alone.

    For alpha in L_I minus 0, U_alpha is the set of generator subsets J with
    m_J = alpha whose GCD graph is connected, and c_alpha(t) comes from the
    homology of the Taylor strand on U_alpha (``_strand_polynomial``).  Q is
    the sum over all families of pairwise coprime alpha_1..alpha_l of
    prod c_alpha_i(t) y^alpha_i, the empty family giving 1.  It is built in
    one pass over the alpha, in any order: each alpha adds c_alpha y^alpha
    times the terms so far whose multidegree is coprime to alpha, so each
    family is formed once, by its members in loop order.  The subset lcms,
    the l_J and the coprimality test all run on staircase masks.  A linear
    generator x_i splits off (S/I is S'/I' with x_i dropped), so its c_alpha
    is t, the factor 1 + t*y_i.

    No resolution is made.  Q lives in box m_I with t-degree <= deg m_I.
    Two theorem checks raise InternalInconsistencyError: no term lies above
    t^deg(m_I), and every term of t-degree >= 1 lies on L_I minus 0.  The
    independent oracle is a resolution of k over R, whose Betti numbers
    --check compares with prod(1+t*y_i)/Q (``cli._resolve_against``).
    """
    top = ideal.top_lcm()
    degree_bound = total_degree(top)
    codec, strands = ideal.codec, _lcm_strands(ideal, connected=True)
    terms = {0: {0: 1}}  # mask -> {t: coefficient}
    for alpha, cells in strands.items():
        c = {1: 1} if alpha.bit_count() == 1 else _strand_polynomial(cells, char)
        if not c:
            continue
        for m, poly in [(m, poly) for m, poly in terms.items() if not m & alpha]:
            out = terms.setdefault(m | alpha, {})
            for t1, c1 in poly.items():
                for t2, c2 in c.items():
                    out[t1 + t2] = out.get(t1 + t2, 0) + c1 * c2
    coeffs = {(t, codec.decode(m)): c for m, poly in terms.items() for t, c in poly.items() if c}
    high = sorted(key for key in coeffs if key[0] > degree_bound)
    if high:
        t, j = high[0]
        raise InternalInconsistencyError(
            f"denominator term {coeffs[t, j]}*y^{j}*t^{t} lies above t^deg(m_I) = t^{degree_bound}")
    Q = BigradedSeries(ideal.num_vars, degree_bound, top, coeffs)
    _require_on_lattice(Q, ideal)
    return Q
