"""Shared test utilities: the randomized ideal corpus and independent oracles.

The homology oracle rebuilds every multigraded component from the raw
differential data and takes ranks with sympy's exact rational elimination,
so it shares no linear algebra with the package; the d o d oracle multiplies
dense matrices of the same stored scalars.  The subset oracles
enumerate generator subsets with ``combinations`` and take each lcm on its
own, the definition the package's shared subset-lcm table replaces;
``table_candidate_terms`` is the package's former candidate-term formula,
one pass over the two 2^r subset tables, where ``series.candidate_terms``
works on the lcm lattice; the
lattice isomorphism oracle is the package's former definition, m_J ->
m'_sigma(J) for every subset J over all r! atom bijections, where
``lattice`` compares atom sets; the GCD-graph oracle compares every pair of
lattice elements on multidegrees.
The denominator oracle reads Q off a minimal resolution of k over R in box
m_I, so it shares nothing with the lattice formula of ``series.denominator``;
the Golod-denominator oracle builds the Golod formula from the Koszul
homology of R, not from the lcm-lattice strands of ``series.betti_numbers``.
The Golod-series oracle divides prod(1+t*y_i) by the Golod denominator and
compares the quotient with a resolution's Poincare series, where
``is_golod_truncated`` compares denominators.
The dense kernel oracle is the package's former linear algebra: dense rows in
(unreduced) echelon form and a ``Fraction`` back-substitution per kernel
vector, against which the sparse reduced-echelon ``linalg`` is compared.
The deviation oracle is the package's former factorization: it multiplies a
running product by one binomial series per entry (``binomial_factor_power``,
with ``series_mul``), where ``series.deviations`` reads every exponent off
one division by Q; ``factorwise_product`` is the same factor-by-factor
product for a whole table, the oracle of the in-place expansion
``series.series_from_deviations``.
The quadratic oracle is Froberg's closed form for Koszul rings: for an
ideal generated in degree <= 2, Q = sum over all generator subsets J of
(-1)^(|J|+|m_J|) t^|m_J| y^(m_J), with each m_J taken here on tuples, where
``series.denominator`` ranks Taylor strands.
The stable oracle is the Eliahou-Kervaire resolution: for a strongly stable
ideal (closed under Borel moves, tested here move by move), beta_{i,alpha}
counts the pairs (u, F), u a minimal generator and F a subset of the indices
below max(u), with |F| = i - 1 and u + e_F = alpha, and since such rings are
Golod (Herzog-Reiner-Welker), Q = 1 - sum over those pairs of
t^(|F|+2) y^(u+e_F) when I lies in m^2; ``series`` reads both off strands.
The division oracle ``tuple_series_div`` is the package's former
``series_div`` on tuple keys and plain dicts, where ``series.series_div``
packs each key into one int.
"""
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd
from operator import add, le

from monpoincare.core import (
    box_multidegrees,
    connected_components_lJ,
    coprime,
    divides,
    lcm_of_subset,
    minimalize,
    total_degree,
)
from monpoincare.complexes import scarf_faces
from monpoincare.resolution import (golod_denominator, koszul_homology_dims,
                                   resolve_residue_field)
from monpoincare.series import (denominator_from_poincare, series_div, series_from_terms,
                                series_mul, series_one, variables_product)

CORPUS_SEED = 20240817
CORPUS_SIZE = 200

# caps: <= 4 variables, <= 4 generators, exponents <= 3 (per the acceptance
# corpus), generators of total degree >= 2, and deg m_I <= 6 to keep the
# suite fast (polarizations live in 2^deg-cell boxes)
MAX_TOP_DEGREE = 6


def random_corpus(count=CORPUS_SIZE, seed=CORPUS_SEED):
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
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
            out.append(ideal)
    return out


def random_antichain(num_gens, num_vars, degree, seed):
    """num_gens distinct monomials of one degree (so an antichain), seeded."""
    monomials = [m for m in product(range(degree + 1), repeat=num_vars) if sum(m) == degree]
    return minimalize(random.Random(seed).sample(monomials, num_gens), num_vars)


def resolver_denominator(ideal, char=0):
    """Q read off the resolution of k over R in box m_I up to t = deg m_I."""
    top = ideal.top_lcm()
    res = resolve_residue_field(ideal, total_degree(top), top, char)
    return denominator_from_poincare(res.poincare_series(), ideal)


def koszul_golod_denominator(ideal, char=0):
    """1 - sum over i >= 1 of dim H_i(Koszul over R)_j y^j t^(i+1), in box m_I
    up to t = deg m_I: the Golod denominator from the Koszul homology of R."""
    top = ideal.top_lcm()
    terms = [(0, (0,) * ideal.num_vars, 1)]
    terms += [(i + 1, j, -d) for (i, j), d in koszul_homology_dims(ideal, char).items() if i]
    return series_from_terms(ideal.num_vars, total_degree(top), top, terms)


def golod_series_match(P, ideal, char=0):
    """Does a computed Poincare series equal prod(1+t*y_i)/golod_denominator
    within its own truncation box?"""
    # terms above t^tmax cannot change P mod t^(tmax+1)
    Qg = golod_denominator(ideal, char=char).restrict(P.tmax, P.ybound)
    return series_div(variables_product(ideal.num_vars, P.tmax, P.ybound), Qg) == P


def inductive_deviations(P, nmax):
    """The {(n, multidegree): e} table of ``series.deviations``, found by
    factoring P inductively: step n matches the t^n slice of P by
    multiplying (odd n) or dividing (even n) a running product by one
    (1 +/- y^j t^n)^e series per entry, which pins e_{n,j} uniquely."""
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
            running = series_mul(running, binomial_factor_power(
                P.num_vars, P.tmax, P.ybound, sign, n, j, e if n % 2 else -e))
    return entries


def binomial_factor_power(num_vars, tmax, ybound, sign, n, j, exponent):
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


def factorwise_product(table, num_vars, tmax, ybound):
    """prod (1+y^j t^n)^e [n odd] / prod (1-y^j t^n)^e [n even] over a
    {(n, multidegree): e} table: one ``binomial_factor_power`` per entry,
    multiplied into a running product with ``series_mul``."""
    running = series_one(num_vars, tmax, ybound)
    for (n, j), e in sorted(table.items()):
        if n <= tmax:
            running = series_mul(running, binomial_factor_power(
                num_vars, tmax, ybound, 1 if n % 2 else -1, n, j, e if n % 2 else -e))
    return running


def koszul_quadratic_denominator(ideal):
    """Q = sum over generator subsets J of (-1)^(|J|+|m_J|) t^|m_J| y^(m_J),
    in box m_I up to t = deg m_I: Froberg's closed form, for ideals generated
    in degree <= 2 (Koszul rings, Math. Scand. 1975).  The lcms m_J are
    folded subset by subset on tuples, each from the subset without its
    last generator."""
    lcms = [(0,) * ideal.num_vars]  # lcms[J], J a bitmask of the generators seen so far
    for g in ideal.generators:
        lcms += [tuple(map(max, m, g)) for m in lcms]
    top = ideal.top_lcm()
    return series_from_terms(ideal.num_vars, total_degree(top), top,
                             [(sum(m), m, (-1) ** (J.bit_count() + sum(m)))
                              for J, m in enumerate(lcms)])


def tuple_series_div(num, den, tmax, ybound):
    """num / den as {(t, j): c} dicts in the box (tmax, ybound), den with
    constant term 1: the package's former tuple-key ``series_div``, settling
    keys weight by weight and pushing each quotient term against the t-sorted
    tail of den."""
    origin = (0, (0,) * len(ybound))
    tail = sorted((t, j, c, t + sum(j)) for (t, j), c in den.items() if (t, j) != origin)
    pending = {}  # weight -> {key: coefficient still owed to the quotient}
    for (t, j), c in num.items():
        pending.setdefault(t + sum(j), {})[(t, j)] = c
    quotient = {}
    for weight in range(tmax + sum(ybound) + 1):
        for (t, j), c in pending.pop(weight, {}).items():
            if not c:
                continue
            quotient[(t, j)] = c
            for t1, j1, c1, w1 in tail:
                if t + t1 > tmax:
                    break  # tail is sorted by t
                key = (t + t1, tuple(map(add, j, j1)))
                if all(map(le, key[1], ybound)):
                    bucket = pending.setdefault(weight + w1, {})
                    bucket[key] = bucket.get(key, 0) - c * c1
    return quotient


def _borel_moves(u):
    """x_i u / x_j for each x_j dividing u and each i < j."""
    for j, x in enumerate(u):
        if x:
            for i in range(j):
                yield tuple(y + (k == i) - (k == j) for k, y in enumerate(u))


def is_strongly_stable(ideal):
    """Is I closed under Borel moves?  The minimal generators suffice: a move
    on g*m lands in g*(I's monomials) or in (the move of g)*m."""
    return all(any(divides(g, v) for g in ideal.generators)
               for u in ideal.generators for v in _borel_moves(u))


def borel_closure(monomials, num_vars):
    """The smallest strongly stable ideal containing ``monomials``."""
    seen, todo = set(monomials), list(monomials)
    while todo:
        for v in _borel_moves(todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return minimalize(seen, num_vars)


def _eliahou_kervaire_pairs(ideal):
    """(|F|, u + e_F) for each minimal generator u and each subset F of the
    indices below max(u), the largest index of a variable dividing u."""
    for u in ideal.generators:
        top = max(i for i, x in enumerate(u) if x)
        for size in range(top + 1):
            for F in combinations(range(top), size):
                yield size, tuple(x + (i in F) for i, x in enumerate(u))


def eliahou_kervaire_betti(ideal):
    """{(i, alpha): beta_{i,alpha}(S/I)} of a strongly stable ideal (Eliahou-
    Kervaire, J. Algebra 1990), with (0, 0) -> 1."""
    betti = Counter((size + 1, alpha) for size, alpha in _eliahou_kervaire_pairs(ideal))
    betti[(0, (0,) * ideal.num_vars)] = 1
    return dict(betti)


def stable_denominator(ideal):
    """Q = 1 - sum over the Eliahou-Kervaire pairs of t^(|F|+2) y^(u+e_F), in
    box m_I up to t = deg m_I: the Golod denominator of a strongly stable
    ideal in m^2 (Herzog-Reiner-Welker, Michigan Math. J. 1999)."""
    top = ideal.top_lcm()
    return series_from_terms(ideal.num_vars, total_degree(top), top,
                             [(0, (0,) * ideal.num_vars, 1)]
                             + [(size + 2, alpha, -1)
                                for size, alpha in _eliahou_kervaire_pairs(ideal)])


def cycle_ideal(n):
    """Edge ideal of the n-cycle: x_i x_{i+1}, indices mod n (non-Golod for n >= 4)."""
    return minimalize([tuple(1 if k in (i, (i + 1) % n) else 0 for k in range(n))
                       for i in range(n)], n)


# ideals with a linear generator, which splits off the factor 1 + t*y_i;
# the third is Taylor-minimal
LINEAR = [minimalize(gens, len(gens[0])) for gens in (
    [(1,)], [(1, 0), (0, 1)], [(1, 0, 0), (0, 2, 0), (0, 1, 1)],
    [(1, 0, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])]


# a generic, non-Golod ideal whose slack box m_I + (1,..,1) has 400 cells
D10_GENERATORS = ((3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2))


# the 6-vertex triangulation of the real projective plane
RP2_FACETS = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))


def rp2_generators():
    """Stanley-Reisner generators of RP^2_6: its 10 non-face triples."""
    facets = {frozenset(f) for f in RP2_FACETS}
    return [tuple(1 if v in t else 0 for v in range(1, 7))
            for t in combinations(range(1, 7), 3) if frozenset(t) not in facets]


def wide_lattice_cases():
    """C5-C8, RP^2 and ten seeded antichains of 8-10 generators: lattice
    oracle cases past the corpus's four generators."""
    return [*(cycle_ideal(n) for n in range(5, 9)), minimalize(rp2_generators(), 6),
            *(random_antichain(8 + seed % 3, 4, 3, seed) for seed in range(10))]


def oracle_homology(C, bound, char=0):
    """Brute-force per-multidegree homology: dense matrices, ranked by sympy
    over Q (char 0) or by ``dense_rank_of`` over GF(char).

    Independent reconstruction: alive bases are derived from generator degrees
    and the relation set, matrix entries read off the stored scalars, ranks
    taken by sympy or the dense echelon oracle.  Returns the same {i: {mdeg:
    dim}} shape as monpoincare.complexes.homology with zeros omitted.
    """
    from sympy import Matrix

    rels = C.ring.generators
    top = C.top_degree

    def dead(mu):
        return any(all(r[k] <= mu[k] for k in range(len(mu))) for r in rels)

    result = {i: {} for i in range(top + 1)}
    for j in box_multidegrees(bound):
        alive = []
        for module in C.modules:
            basis = []
            for g, deg in enumerate(module):
                mu = tuple(a - b for a, b in zip(j, deg))
                if all(x >= 0 for x in mu) and not dead(mu):
                    basis.append(g)
            alive.append(basis)
        ranks = [0] * (top + 2)
        for i in range(1, top + 1):
            rows, cols = alive[i - 1], alive[i]
            if rows and cols:
                M = [[C.diffs[i][c].get(r, 0) for c in cols] for r in rows]
                ranks[i] = dense_rank_of(M, len(cols), char) if char else Matrix(M).rank()
        for i in range(top + 1):
            h = len(alive[i]) - ranks[i] - ranks[i + 1]
            if h:
                result[i][j] = h
    return result


def oracle_d_squared_violations(C):
    """Every (i, row, col) where the dense product d_{i-1} d_i has an entry
    that is nonzero (mod the characteristic) on a monomial the ring keeps."""
    rels = C.ring.generators
    out = []
    for i in range(2, len(C.modules)):
        top, mid, low = C.modules[i], C.modules[i - 1], C.modules[i - 2]
        upper = [[C.diffs[i][c].get(m, 0) for c in range(len(top))] for m in range(len(mid))]
        lower = [[C.diffs[i - 1][m].get(r, 0) for m in range(len(mid))] for r in range(len(low))]
        for r in range(len(low)):
            for c in range(len(top)):
                total = sum(lower[r][m] * upper[m][c] for m in range(len(mid)))
                if C.char:
                    total %= C.char
                mu = tuple(a - b for a, b in zip(top[c], low[r]))
                if total and not any(all(x <= y for x, y in zip(rel, mu)) for rel in rels):
                    out.append((i, r, c))
    return out


def standard_monomial_table(ideal, bound):
    """Multidegrees <= bound of monomials outside the ideal (basis of S/I)."""
    return {j: 1 for j in box_multidegrees(bound)
            if not any(divides(g, j) for g in ideal.generators)}


def eagon_rank_formula(ideal, imax):
    """Ranks of the Eagon modules from the direct-sum description: tensor words
    in the Scarf modules times exterior powers of the variables."""
    sizes = Counter(len(f) for f in scarf_faces(ideal) if f)
    words = {0: 1}
    for w in range(1, imax + 1):
        words[w] = sum(cnt * words.get(w - (t + 1), 0) for t, cnt in sizes.items())
    n = ideal.num_vars
    return [sum(comb(n, k) * words.get(i - k, 0) for k in range(min(i, n) + 1))
            for i in range(imax + 1)]


def all_subsets(r):
    """Every subset of range(r), ordered by (size, lex)."""
    return [f for size in range(r + 1) for f in combinations(range(r), size)]


def brute_scarf_faces(ideal):
    faces = all_subsets(ideal.num_generators)
    lcms = Counter(lcm_of_subset(ideal, f) for f in faces)
    return [f for f in faces if lcms[lcm_of_subset(ideal, f)] == 1]


def brute_is_taylor_minimal(ideal):
    faces = all_subsets(ideal.num_generators)
    return len({lcm_of_subset(ideal, f) for f in faces}) == len(faces)


def brute_candidate_terms(ideal):
    out = set()
    for f in all_subsets(ideal.num_generators)[1:]:
        l = connected_components_lJ(ideal, f)
        out.add(((-1) ** l, len(f) + l, lcm_of_subset(ideal, f)))
    return out


def table_candidate_terms(ideal):
    """((-1)^l_J, |J|+l_J, m_J) for every nonempty subset mask J, read off the
    ideal's two 2^r tables (``subset_lcms``, ``subset_components``)."""
    terms = {(-1 if l & 1 else 1, J.bit_count() + l, m)
             for J, (m, l) in enumerate(zip(ideal.subset_lcms, ideal.subset_components)) if J}
    return {(sign, t, ideal.codec.decode(m)) for sign, t, m in terms}


def subset_lcm_isomorphisms(I1, I2):
    """(atom_map, element_map, gcd_preserving) for each of the r! atom
    bijections sigma, in lex order, whose map m_J -> m'_sigma(J) over all
    generator subsets J (each lcm from ``lcm_of_subset``) is well defined,
    injective and onto L_{I2}; the flag comes from every pair of elements."""
    r = I1.num_generators
    if r != I2.num_generators:
        return []
    subsets = all_subsets(r)
    size2 = len({lcm_of_subset(I2, J) for J in subsets})
    found = []
    for sigma in permutations(range(r)):
        element_map = {}
        for J in subsets:
            image = lcm_of_subset(I2, [sigma[i] for i in J])
            if element_map.setdefault(lcm_of_subset(I1, J), image) != image:
                break
        else:
            if len(element_map) == len(set(element_map.values())) == size2:
                found.append((sigma, element_map, oracle_gcd_preserving(element_map)))
    return found


def oracle_gcd_preserving(element_map):
    """Does the element map keep coprimality of every pair of nonzero elements?"""
    items = [(a, b) for a, b in element_map.items() if any(a)]
    return all(coprime(a, b) == coprime(fa, fb)
               for (a, fa), (b, fb) in combinations(items, 2))


def _normalize(row):
    """Make an integer row primitive with positive leading entry (in place)."""
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        for i, x in enumerate(row):
            row[i] = x // g
    for x in row:
        if x > 0:
            return row
        if x < 0:
            return [-y for y in row]
    return row


class DenseEchelonSpace:
    """Incrementally built dense row space in echelon form (pivot = first nonzero)."""

    def __init__(self, ncols: int, char: int = 0):
        self.ncols = ncols
        self.char = char
        self.rows = []
        self.row_of_col = {}  # pivot column -> index into rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Return vec reduced against the stored pivots (a fresh list)."""
        p = self.char
        v = [x % p for x in vec] if p else list(vec)
        for j in range(self.ncols):
            if not v[j]:
                continue
            r = self.row_of_col.get(j)
            if r is None:
                break
            row = self.rows[r]
            if p:
                factor = (v[j] * pow(row[j], -1, p)) % p
                for k in range(j, self.ncols):
                    if row[k]:
                        v[k] = (v[k] - factor * row[k]) % p
            else:
                a, b = row[j], v[j]
                for k in range(self.ncols):
                    v[k] = v[k] * a - row[k] * b
                _normalize(v)
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec's residual; True if it enlarged the space."""
        v = self.reduce(vec)
        for j in range(self.ncols):
            if v[j]:
                self.row_of_col[j] = len(self.rows)
                self.rows.append(v if self.char else _normalize(v))
                return True
        return False


def dense_rank_of(rows, ncols: int, char: int = 0) -> int:
    space = DenseEchelonSpace(ncols, char)
    for row in rows:
        space.add(row)
    return space.dim


def dense_kernel_basis(rows, ncols: int, char: int = 0):
    """Basis of the right kernel {v : M v = 0} as primitive integer vectors.

    Deterministic: one vector per non-pivot column, in column order.
    """
    space = DenseEchelonSpace(ncols, char)
    for row in rows:
        space.add(row)
    pivot_cols = sorted(space.row_of_col)
    free_cols = [c for c in range(ncols) if c not in space.row_of_col]
    ordered = [(c, space.rows[space.row_of_col[c]]) for c in pivot_cols]
    basis = []
    for f in free_cols:
        if char:
            v = [0] * ncols
            v[f] = 1
            for p, row in reversed(ordered):
                s = sum(row[k] * v[k] for k in range(p + 1, ncols) if row[k] and v[k])
                v[p] = (-s * pow(row[p], -1, char)) % char
        else:
            w = [Fraction(0)] * ncols
            w[f] = Fraction(1)
            for p, row in reversed(ordered):
                s = sum(row[k] * w[k] for k in range(p + 1, ncols) if row[k] and w[k])
                w[p] = Fraction(-s, row[p])
            lcm = 1
            for x in w:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
            v = _normalize([int(x * lcm) for x in w])
        basis.append(v)
    return basis
