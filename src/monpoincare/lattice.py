"""LCM lattices, isomorphism search and denominator transport."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    InputError,
    MonomialIdeal,
    Multidegree,
    Polarization,
    coprime,
    mask_subset,
)
from .series import BigradedSeries


@dataclass(frozen=True)
class LcmLattice:
    """The lcm lattice L_I: the lcms of all subsets of an ideal's generators,
    each once, ordered by divisibility.

    ``elements`` is sorted by (total degree, lex); the bottom 0 comes first and
    the top m_I last.  The lattice is atomic, its atoms being the generators,
    so an element is fixed by the atoms below it: ``closed[k]`` is the bitmask
    (bit i for ``atoms[i]``) of the atoms dividing ``elements[k]``, and
    ``elements[j]`` divides ``elements[k]`` exactly when ``closed[j]`` is a
    subset of ``closed[k]``.
    """

    num_vars: int
    atoms: tuple  # generator multidegrees, in the ideal's order
    elements: tuple
    closed: tuple  # closed[k]: bitmask of the atoms dividing elements[k]

    @property
    def top(self) -> Multidegree:
        return self.elements[-1]


def build_lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    """L_I from the ideal's ``lattice_masks``, the join closure of its atoms,
    which also gives each element's ``closed`` atoms.

    Costs about |L_I| * r joins, with no 2^r subset table; like that table it
    refuses more than ``SUBSET_TABLE_MAX_GENERATORS`` generators before
    allocating.
    """
    decode = ideal.codec.decode
    # a staircase mask has one bit per unit of total degree; the elements are
    # distinct, so the sort never compares two closed sets
    ordered = sorted((m.bit_count(), decode(m), closed)
                     for m, closed in ideal.lattice_masks.items())
    return LcmLattice(ideal.num_vars, ideal.generators, tuple(e for _, e, _ in ordered),
                      tuple(c for _, _, c in ordered))


@dataclass(frozen=True)
class LatticeMap:
    """A lattice isomorphism induced by a bijection of the atoms."""

    source: LcmLattice
    target: LcmLattice
    atom_map: tuple  # source atom index -> target atom index
    element_map: dict  # source element -> target element
    gcd_preserving: bool

    def apply(self, m: Multidegree) -> Multidegree:
        try:
            return self.element_map[m]
        except KeyError:
            raise InputError(f"{m} is not an element of the source lattice") from None


def _lattice_map(L1: LcmLattice, L2: LcmLattice, atom_map):
    """The LatticeMap induced by ``atom_map`` (r distinct target atoms for
    L1's r atoms), or None if it induces no lattice isomorphism.

    It induces one exactly when |L1| = |L2| and it maps the atom set of every
    element of L1 onto the atom set of an element of L2: distinct atom sets
    have distinct images, the sizes make the map onto, and inclusion of atom
    sets is kept both ways.  Coprimality of nonzero elements is coprimality
    of every pair of atoms below them, so the r^2 atom pairs decide
    ``gcd_preserving``.
    """
    if len(L1.elements) != len(L2.elements):
        return None
    targets = dict(zip(L2.closed, L2.elements))
    element_map = {}
    for m, c in zip(L1.elements, L1.closed):
        image = targets.get(sum(1 << k for i, k in enumerate(atom_map) if c >> i & 1))
        if image is None:
            return None
        element_map[m] = image
    pairs = [(a, L2.atoms[k]) for a, k in zip(L1.atoms, atom_map)]
    gcd_preserving = all(coprime(a, b) == coprime(fa, fb)
                         for (a, fa), (b, fb) in combinations(pairs, 2))
    return LatticeMap(L1, L2, tuple(atom_map), element_map, gcd_preserving)


def _atom_bijections(candidates, checks, targets, prefix=()):
    """Each injective choice of one entry from every list of ``candidates``,
    depth first, in list order, that maps each atom set in ``checks[k]``
    onto a member of ``targets`` as soon as entry k is chosen."""
    k = len(prefix)
    if k == len(candidates):
        yield prefix
        return
    for t in candidates[k]:
        if t not in prefix:
            p = prefix + (t,)
            if all(sum(1 << p[i] for i in atoms) in targets for atoms in checks[k]):
                yield from _atom_bijections(candidates, checks, targets, p)


def find_lattice_isomorphisms(I1: MonomialIdeal, I2: MonomialIdeal):
    """All atom bijections inducing a lattice isomorphism L_{I1} -> L_{I2}.

    Every lattice isomorphism maps atoms to atoms, so enumerating atom
    bijections is exhaustive.  An atom may only go to an atom with as many
    elements above it (an order-isomorphism invariant, read off ``closed``).
    Partial maps are pruned: once atom k is placed, every element of L1 whose
    highest atom is k must map onto an atom set of L2.  An isomorphism maps
    every element so, so none is lost, and the search order, hence the output
    order, is that of the unpruned search.  Each surviving bijection is
    decided on atom sets by ``_lattice_map``, and each map found carries a
    flag saying whether it also induces an isomorphism of the GCD graphs.
    """
    L1 = build_lcm_lattice(I1)
    L2 = build_lcm_lattice(I2)
    r = len(L1.atoms)
    if len(L1.elements) != len(L2.elements) or r != len(L2.atoms):
        return []
    up1, up2 = ([sum(c >> i & 1 for c in L.closed) for i in range(r)] for L in (L1, L2))
    candidates = [[k for k in range(r) if up2[k] == up1[i]] for i in range(r)]
    checks = [[] for _ in range(r)]
    for c in L1.closed:
        if c:
            checks[c.bit_length() - 1].append(mask_subset(c))
    return [m for atom_map in _atom_bijections(candidates, checks, set(L2.closed))
            if (m := _lattice_map(L1, L2, atom_map)) is not None]


def lattice_map_from_atom_bijection(I1: MonomialIdeal, I2: MonomialIdeal, atom_map):
    """The LatticeMap for a given atom bijection, or None if it is not one.

    ``atom_map[i]`` is the target atom of I1's generator i.  A map of the
    wrong length or with an index outside I2's generators raises InputError;
    unequal generator counts, a repeated target or a map that does not induce
    a lattice isomorphism give None.
    """
    atom_map = tuple(atom_map)
    r1, r2 = I1.num_generators, I2.num_generators
    if len(atom_map) != r1:
        raise InputError(f"atom map has {len(atom_map)} entries for {r1} generators")
    if any(not (isinstance(k, int) and 0 <= k < r2) for k in atom_map):
        raise InputError(f"atom map {atom_map} has an index outside range({r2})")
    if r1 != r2 or len(set(atom_map)) != r1:
        return None
    return _lattice_map(build_lcm_lattice(I1), build_lcm_lattice(I2), atom_map)


def polarization_lattice_map(pol: Polarization) -> LatticeMap:
    """The isomorphism L_I -> L_{I_pol} induced by polarization."""
    lmap = lattice_map_from_atom_bijection(pol.source, pol.ideal,
                                           _polarization_atom_bijection(pol))
    if lmap is None:
        raise InputError("polarization did not induce a lattice isomorphism")
    return lmap


def _polarization_atom_bijection(pol: Polarization):
    targets = list(pol.ideal.generators)
    return tuple(targets.index(pol.forward(g)) for g in pol.source.generators)


def transport_denominator(Q: BigradedSeries, lmap: LatticeMap) -> BigradedSeries:
    """Rewrite a denominator over the target ring by applying the lattice map
    to every y-multidegree; t-degrees and coefficients are untouched."""
    return Q.map_multidegrees(lmap.apply, lmap.target.num_vars, lmap.target.top)
