"""Monomials, multidegrees, monomial ideals and polarization.

A monomial is encoded by its exponent vector ("multidegree"), a tuple of
non-negative ints whose length is the number of ring variables.  All other
modules build on the operations here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product

Multidegree = tuple  # tuple[int, ...], length = number of variables


class InputError(ValueError):
    """Malformed user input (bad file, bad multidegree, violated precondition)."""


class InternalInconsistencyError(RuntimeError):
    """A theorem-guaranteed property failed; signals an implementation bug."""


def zero_mdeg(num_vars: int) -> Multidegree:
    return (0,) * num_vars


def unit_mdeg(num_vars: int, i: int) -> Multidegree:
    return tuple(1 if k == i else 0 for k in range(num_vars))


def mdeg_add(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(x + y for x, y in zip(a, b))


def mdeg_sub(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(x - y for x, y in zip(a, b))


def mdeg_join(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise max, i.e. the lcm of the two monomials."""
    return tuple(max(x, y) for x, y in zip(a, b))


def divides(a: Multidegree, b: Multidegree) -> bool:
    return all(x <= y for x, y in zip(a, b))


def strictly_divides(a: Multidegree, b: Multidegree) -> bool:
    """a strictly below b: a_i < b_i wherever b_i > 0, and a_i = 0 elsewhere."""
    return all(x < y if y else x == 0 for x, y in zip(a, b))


def total_degree(a: Multidegree) -> int:
    return sum(a)


def support(a: Multidegree) -> frozenset:
    return frozenset(i for i, x in enumerate(a) if x)


def coprime(a: Multidegree, b: Multidegree) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def is_squarefree(a: Multidegree) -> bool:
    return all(x <= 1 for x in a)


def box_multidegrees(bound: Multidegree):
    """All multidegrees <= bound componentwise, sorted by (total degree, lex)."""
    cells = list(product(*(range(b + 1) for b in bound)))
    cells.sort(key=lambda j: (sum(j), j))
    return cells


def monomial_str(m: Multidegree, names) -> str:
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _check_mdeg(m, num_vars) -> Multidegree:
    m = tuple(m)
    if len(m) != num_vars:
        raise InputError(f"multidegree {m} has length {len(m)}, expected {num_vars}")
    if not all(isinstance(x, int) and x >= 0 for x in m):
        raise InputError(f"multidegree {m} must consist of non-negative integers")
    return m


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating set of multidegrees.

    Construct through :func:`minimalize` (or ``from_dict``); the constructor
    assumes the generators are already minimal, deduplicated and sorted.
    """

    num_vars: int
    var_names: tuple
    generators: tuple  # tuple of Multidegree, divisibility-minimal, sorted

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError("need at least one variable")
        if len(self.var_names) != self.num_vars:
            raise InputError("var_names length must equal num_vars")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def top_lcm(self) -> Multidegree:
        """m_I, the lcm of all minimal generators (zero for the zero ideal)."""
        return lcm_of_subset(self, range(self.num_generators))

    def contains_monomial(self, m: Multidegree) -> bool:
        return any(divides(g, m) for g in self.generators)

    def generator_str(self, g: Multidegree) -> str:
        return monomial_str(g, self.var_names)

    def __str__(self):
        gens = ", ".join(self.generator_str(g) for g in self.generators)
        return f"({gens})" if gens else "(0)"

    def to_dict(self) -> dict:
        return {"vars": list(self.var_names), "gens": [list(g) for g in self.generators]}

    @classmethod
    def from_dict(cls, data) -> "MonomialIdeal":
        if not isinstance(data, dict) or "vars" not in data or "gens" not in data:
            raise InputError('ideal file must be {"vars": [...], "gens": [[...], ...]}')
        names = tuple(str(v) for v in data["vars"])
        if not names:
            raise InputError("need at least one variable")
        return minimalize(data["gens"], len(names), names)


def minimalize(raw_generators, num_vars: int, var_names=None) -> MonomialIdeal:
    """Build a MonomialIdeal from any generating set, dropping redundant generators.

    A generator is redundant when another one divides it (componentwise <=).
    """
    if var_names is None:
        var_names = tuple(f"x{i + 1}" for i in range(num_vars))
    else:
        var_names = tuple(var_names)
    gens = {_check_mdeg(g, num_vars) for g in raw_generators}
    for g in gens:
        if total_degree(g) == 0:
            raise InputError("generator 1 would give the unit ideal")
    minimal = [g for g in gens if not any(h != g and divides(h, g) for h in gens)]
    minimal.sort(key=lambda g: (total_degree(g), g))
    return MonomialIdeal(num_vars, var_names, tuple(minimal))


def load_ideal(path) -> MonomialIdeal:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return MonomialIdeal.from_dict(data)


def lcm_of_subset(ideal: MonomialIdeal, subset) -> Multidegree:
    """m_J: componentwise max of the selected generators; empty subset gives 0."""
    m = zero_mdeg(ideal.num_vars)
    for idx in subset:
        if not 0 <= idx < ideal.num_generators:
            raise InputError(f"generator index {idx} out of range")
        m = mdeg_join(m, ideal.generators[idx])
    return m


def in_lcm_lattice(ideal: MonomialIdeal, j: Multidegree) -> bool:
    """Is j in L_I, i.e. an lcm of some set of generators?

    Exactly when the lcm of the generators dividing j is j itself, so the
    test costs r joins and never builds the 2^r lattice.  The bottom 0 (the
    empty lcm) is in L_I.
    """
    m = zero_mdeg(ideal.num_vars)
    for g in ideal.generators:
        if divides(g, j):
            m = mdeg_join(m, g)
    return m == tuple(j)


def subset_lcms(gens, num_vars: int) -> list:
    """m_J for every subset J of ``gens``, indexed by bitmask (bit i set iff
    gens[i] is in J).

    The subsets holding gens[i] are those below it joined with gens[i], so the
    table doubles once per generator and each entry costs one join.
    """
    table = [zero_mdeg(num_vars)]
    for g in gens:
        table += [mdeg_join(m, g) for m in table]
    return table


def mask_subset(mask: int) -> tuple:
    """The generator indices of a subset bitmask, increasing."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def connected_components_lJ(ideal: MonomialIdeal, subset) -> int:
    """l_J: components of the graph on J joining generators that share a variable."""
    subset = sorted(set(subset))
    if not subset:
        raise InputError("l_J is undefined for the empty subset")
    for idx in subset:
        if not 0 <= idx < ideal.num_generators:
            raise InputError(f"generator index {idx} out of range")
    parent = {i: i for i in subset}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in combinations(subset, 2):
        if not coprime(ideal.generators[a], ideal.generators[b]):
            parent[find(a)] = find(b)
    return len({find(i) for i in subset})


def is_generic(ideal: MonomialIdeal) -> bool:
    """Genericity test: whenever two generators agree in some positive exponent,
    a third generator must strictly divide their lcm."""
    gens = ideal.generators
    for a, b in combinations(range(len(gens)), 2):
        ga, gb = gens[a], gens[b]
        if not any(x == y and x > 0 for x, y in zip(ga, gb)):
            continue
        m = mdeg_join(ga, gb)
        if not any(c not in (a, b) and strictly_divides(gens[c], m) for c in range(len(gens))):
            return False
    return True


@dataclass(frozen=True)
class Polarization:
    """Polarization of a monomial ideal into a squarefree one.

    Each variable x_i of arity d_i = max exponent among generators splits into
    d_i variables; x_i^a maps to the product of the first a of them.  The
    ``forward``/``backward`` maps realize the induced lattice isomorphism and
    its inverse on multidegrees.
    """

    source: MonomialIdeal
    ideal: MonomialIdeal  # the squarefree polarized ideal
    arities: tuple  # arity (block width) per source variable, each >= 1

    def forward(self, m: Multidegree) -> Multidegree:
        return _polarize_mdeg(m, self.arities)

    def backward(self, m: Multidegree) -> Multidegree:
        out = []
        pos = 0
        for d in self.arities:
            out.append(sum(m[pos:pos + d]))
            pos += d
        return tuple(out)


def _polarize_mdeg(m: Multidegree, arities) -> Multidegree:
    out = []
    for e, d in zip(m, arities):
        if e > d:
            raise InputError(f"exponent {e} exceeds polarization arity {d}")
        out.extend([1] * e + [0] * (d - e))
    return tuple(out)


def polarize(ideal: MonomialIdeal) -> Polarization:
    """Standard polarization; squarefree ideals come back unchanged."""
    arities = tuple(
        max([1] + [g[i] for g in ideal.generators]) for i in range(ideal.num_vars)
    )
    names = []
    for name, d in zip(ideal.var_names, arities):
        if d == 1:
            names.append(name)
        else:
            names.extend(f"{name}_{k + 1}" for k in range(d))
    gens = [_polarize_mdeg(g, arities) for g in ideal.generators]
    pol_ideal = minimalize(gens, sum(arities), names)
    if len(pol_ideal.generators) != len(ideal.generators):
        raise InternalInconsistencyError("polarization must preserve minimality")
    return Polarization(ideal, pol_ideal, arities)
