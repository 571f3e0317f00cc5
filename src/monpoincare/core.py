"""Monomials, multidegrees, monomial ideals and polarization.

A monomial is encoded by its exponent vector ("multidegree"), a tuple of
non-negative ints whose length is the number of ring variables.  All other
modules build on the operations here.

Loops over all 2^r subsets of an ideal's r generators use a second encoding,
the **staircase bitmask** (:class:`Staircase`): one int in which the block
for x_i is as wide as the largest exponent of x_i among the generators (0
bits for an unused variable), and x_i^e sets the lowest e bits of its block.
This is the polarization read as one integer.  On monomials dividing m_I the
lcm is ``a | b``, a divides c exactly when ``a & ~c == 0``, and a and b are
coprime exactly when ``a & b == 0``.  A :class:`MonomialIdeal` owns its
``codec``, its 2^r :func:`subset_table` of subset lcms (``subset_lcms``), its
table of l_J (``subset_components``) and the masks of its lcm lattice L_I,
each with the atoms below it (``lattice_masks``, by :func:`join_closure`, at
a cost of about |L_I| * r rather than 2^r), each built on first use and kept,
outside the fields, for the life of the object; all three refuse more than
``SUBSET_TABLE_MAX_GENERATORS`` generators before allocating.  Only the
Taylor strands (``series.denominator``, ``series.betti_numbers``, and through
them the Golod denominator) read the two 2^r tables; the candidate terms, the
Scarf faces, the Taylor-minimality test and the lattice maps read
``lattice_masks``.
"""
from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from operator import add, le, mul, sub

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
    return tuple(map(add, a, b))


def mdeg_sub(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(map(sub, a, b))


def mdeg_join(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise max, i.e. the lcm of the two monomials."""
    return tuple(map(max, a, b))


def divides(a: Multidegree, b: Multidegree) -> bool:
    return all(map(le, a, b))


def strictly_divides(a: Multidegree, b: Multidegree) -> bool:
    """a strictly below b: a_i < b_i wherever b_i > 0, and a_i = 0 elsewhere."""
    return all(x < y if y else x == 0 for x, y in zip(a, b))


def total_degree(a: Multidegree) -> int:
    return sum(a)


def coprime(a: Multidegree, b: Multidegree) -> bool:
    """No variable in both: each product x*y is 0, as for ints it is exactly
    when x or y is 0."""
    return not any(map(mul, a, b))


def box_multidegrees(bound: Multidegree):
    """All multidegrees <= bound componentwise, sorted by (total degree, lex)."""
    cells = list(product(*(range(b + 1) for b in bound)))
    cells.sort(key=lambda j: (sum(j), j))
    return cells


class Box:
    """The cells j <= bound, each named by one int code: the mixed-radix index
    sum_k j_k * strides[k], where strides[k] is the product of bound_l + 1
    over l > k.

    ``codes`` lists the cells in ``box_multidegrees`` order, (total degree,
    lex), and ``decode[code]`` is the cell's multidegree.  The last variable
    has stride 1, so lex order on cells is numeric order on codes.  Inside the
    box, adding multidegrees adds codes: no coordinate carries into the next.
    """

    def __init__(self, bound: Multidegree):
        self.bound = bound = tuple(bound)
        strides, step = [], 1
        for b in reversed(bound):
            strides.append(step)
            step *= b + 1
        self.strides = strides = strides[::-1]
        cells = box_multidegrees(bound)
        self.codes = [sum(map(mul, j, strides)) for j in cells]
        self.decode = sorted(cells)  # lex order, i.e. code order

    def code(self, j: Multidegree) -> int | None:
        """The code of cell j, or None if j is not <= bound."""
        if not divides(j, self.bound):
            return None
        return sum(map(mul, j, self.strides))


def monomial_str(m: Multidegree, names) -> str:
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _check_mdeg(m, num_vars) -> Multidegree:
    if not isinstance(m, (list, tuple)):
        raise InputError(f"multidegree {m!r} must be a list of exponents")
    m = tuple(m)
    if len(m) != num_vars:
        raise InputError(f"multidegree {m} has length {len(m)}, expected {num_vars}")
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in m):
        raise InputError(f"multidegree {m} must consist of non-negative integers")
    return m


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating set of multidegrees.

    Construct through :func:`minimalize` (or ``from_dict``); the constructor
    assumes the generators are already minimal, deduplicated and sorted.
    An ideal I also stands for the ring S/I, and the zero ideal
    ``MonomialIdeal(n, names, ())`` for S itself.
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
        """m_I, the lcm of all minimal generators (zero for the zero ideal):
        the block widths of the staircase ``codec``, so it is built once."""
        return self.codec.widths

    def kills(self, m: Multidegree) -> bool:
        """Is x^m in the ideal, that is, zero in S/I?"""
        return any(divides(g, m) for g in self.generators)

    @cached_property
    def codec(self) -> Staircase:
        return staircase(self.generators, self.num_vars)

    @cached_property
    def subset_lcms(self) -> list:  # indexed by subset bitmask; do not mutate
        return subset_table(self.codec.atoms)

    @cached_property
    def subset_components(self) -> list:  # indexed by subset bitmask; do not mutate
        return subset_components(self.codec.atoms)

    @cached_property
    def lattice_masks(self) -> dict:  # element of L_I -> atoms below it; do not mutate
        return join_closure(self.codec.atoms)

    def generator_str(self, g: Multidegree) -> str:
        return monomial_str(g, self.var_names)

    def __str__(self):
        gens = ", ".join(self.generator_str(g) for g in self.generators)
        return f"({gens})" if gens else "(0)"

    def to_dict(self) -> dict:
        return {"vars": list(self.var_names), "gens": [list(g) for g in self.generators]}

    @classmethod
    def from_dict(cls, data) -> "MonomialIdeal":
        if not (isinstance(data, dict) and isinstance(data.get("vars"), list)
                and isinstance(data.get("gens"), list)):
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
    """m_J: componentwise max of the selected generators; empty subset gives 0.

    One subset at a time; ``ideal.subset_lcms`` holds every m_J at once, encoded.
    """
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


# a 2^22-entry (about 4M) subset table of ints takes about 200 MB, and each
# further generator doubles it
SUBSET_TABLE_MAX_GENERATORS = 22


class Staircase(namedtuple("Staircase", "widths offsets atoms")):
    """The staircase bitmask codec of a generator set (see the module docstring).

    ``widths[i]`` is the largest exponent of x_i among the generators and
    ``offsets[i]`` the first bit of x_i's block; ``atoms`` holds the
    generators' masks, in order.  Only monomials dividing the generators' lcm
    have a mask.
    """

    __slots__ = ()

    def encode(self, m: Multidegree) -> int:
        mask = 0
        for e, off, w in zip(m, self.offsets, self.widths):
            if e > w:
                raise InputError(f"exponent {e} exceeds staircase width {w}")
            mask |= ((1 << e) - 1) << off
        return mask

    def decode(self, mask: int) -> Multidegree:
        return tuple([(mask >> off & ((1 << w) - 1)).bit_length()
                      for off, w in zip(self.offsets, self.widths)])


def staircase(gens, num_vars: int) -> Staircase:
    """The staircase codec whose blocks fit ``gens`` exactly."""
    widths = tuple(map(max, zip(*gens))) if gens else zero_mdeg(num_vars)
    offsets = tuple(sum(widths[:i]) for i in range(num_vars))
    codec = Staircase(widths, offsets, ())
    return codec._replace(atoms=tuple(codec.encode(g) for g in gens))


def _refuse_oversized(r: int):
    """The one refusal of both builders, so every command words it alike."""
    if r > SUBSET_TABLE_MAX_GENERATORS:
        raise InputError(
            f"{r} generators need a subset table of 2^{r} entries; the limit is "
            f"{SUBSET_TABLE_MAX_GENERATORS} generators (2^{SUBSET_TABLE_MAX_GENERATORS} entries)")


def subset_table(masks) -> list:
    """The union of ``masks[i]`` over i in J, for every subset J, indexed by
    bitmask (bit i set iff i is in J).

    On staircase masks of generators this is m_J.  The subsets holding
    masks[i] are those below it joined with masks[i], so the table doubles once
    per mask and each entry costs one ``|``.  Refuses more than
    ``SUBSET_TABLE_MAX_GENERATORS`` masks before allocating.
    """
    _refuse_oversized(len(masks))
    table = [0]
    for g in masks:
        table += [m | g for m in table]
    return table


def join_closure(masks) -> dict:
    """Each distinct union u of a subset of ``masks`` (the empty union 0
    included), mapped to the bitmask (bit i for ``masks[i]``) of the masks
    inside u.

    On staircase masks of generators the keys are the elements of L_I and the
    values the atoms below each.  Each mask joins every union found so far, so
    the cost is about |result| per mask, not 2^r.  A union's value gathers
    every subset that reaches it, and the masks inside u form the largest such
    subset, so no inclusion test is made.  The result may still hold 2^r
    unions, so this refuses more than ``SUBSET_TABLE_MAX_GENERATORS`` masks
    before allocating.
    """
    _refuse_oversized(len(masks))
    joins = {0: 0}
    for i, g in enumerate(masks):
        bit = 1 << i
        for m, below in list(joins.items()):
            joins[m | g] = joins.get(m | g, 0) | below | bit
    return joins


def subset_components(masks) -> list:
    """l_J for every subset J of the staircase masks ``masks``, indexed by
    bitmask; l of the empty subset is 0.

    Two generators are adjacent when their masks meet.  N[S], the generators
    adjacent to some member of S, is a :func:`subset_table` of the neighbour
    masks.  The component C of J's lowest member is the fixed point of
    c -> N[c] & J, and l[J] = 1 + l[J minus C], a smaller index.
    """
    reach = subset_table([sum(1 << k for k, b in enumerate(masks) if a & b) for a in masks])
    counts = [0] * len(reach)
    for J in range(1, len(reach)):
        c = J & -J
        while (grown := reach[c] & J) != c:
            c = grown
        counts[J] = counts[J & ~c] + 1
    return counts


def mask_subset(mask: int) -> tuple:
    """The generator indices of a subset bitmask, increasing."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def connected_components_lJ(ideal: MonomialIdeal, subset) -> int:
    """l_J: components of the graph on J joining generators that share a variable.

    One subset at a time; ``ideal.subset_components`` holds every l_J at once.
    """
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
    arities = tuple(max(1, w) for w in ideal.top_lcm())
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
