"""LCM lattices, isomorphism search and denominator transport.

The isomorphism search and test read only each ideal's ``lattice_masks``
(the join closure: each element of L_I as a staircase mask, with the set of
atoms below it) and its atom masks, so they decode no element and sort
nothing.  The decoded view of L_I, :class:`LcmLattice`, is built by
:func:`build_lcm_lattice` only when read: by a map's ``source``, ``target``,
``element_map`` or ``apply``, hence by :func:`transport_denominator`
(``lattice-iso --transport``), and by the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

from .core import (
    InputError,
    MonomialIdeal,
    Multidegree,
    Polarization,
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

    This is the decoded view of the ideal's ``lattice_masks``, built by
    :func:`build_lcm_lattice` for the readers of elements; the isomorphism
    search does not build it.
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


class LatticeMap:
    """A lattice isomorphism L_{I1} -> L_{I2} induced by a bijection of the
    atoms, found and decided on the ideals' ``lattice_masks``.

    ``atom_map`` and ``gcd_preserving`` are set when the map is found.  The
    decoded lattices ``source`` and ``target`` (by :func:`build_lcm_lattice`,
    once for all the maps of one search) and ``element_map`` (source element
    -> target element), which ``apply`` reads, are built on first read, so a
    map that is only listed decodes nothing.
    """

    def __init__(self, decoded, atom_map: tuple, gcd_preserving: bool):
        self._decoded = decoded  # () -> (source, target), see _decoder
        self.atom_map = atom_map  # source atom index -> target atom index
        self.gcd_preserving = gcd_preserving

    @property
    def source(self) -> LcmLattice:
        return self._decoded()[0]

    @property
    def target(self) -> LcmLattice:
        return self._decoded()[1]

    @cached_property
    def element_map(self) -> dict:
        targets = dict(zip(self.target.closed, self.target.elements))
        return {m: targets[_image(c, self.atom_map)]
                for m, c in zip(self.source.elements, self.source.closed)}

    def apply(self, m: Multidegree) -> Multidegree:
        try:
            return self.element_map[m]
        except KeyError:
            raise InputError(f"{m} is not an element of the source lattice") from None


def _image(c: int, atom_map) -> int:
    """The atom set ``c`` (bit i for atom i) mapped by ``atom_map``, one step
    per set bit."""
    image = 0
    while c:
        low = c & -c
        image |= 1 << atom_map[low.bit_length() - 1]
        c ^= low
    return image


def _decoder(I1: MonomialIdeal, I2: MonomialIdeal):
    """A function giving (L_{I1}, L_{I2}), decoded on its first call and kept."""
    return cache(lambda: (build_lcm_lattice(I1), build_lcm_lattice(I2)))


def _lattice_map(I1: MonomialIdeal, I2: MonomialIdeal, atom_map, decoded):
    """The LatticeMap induced by ``atom_map`` (r distinct target atoms for
    I1's r atoms), or None if it induces no isomorphism L_{I1} -> L_{I2}.
    The map reads its decoded lattices through ``decoded``, a ``_decoder``
    of the two ideals that the maps of one search share.

    It induces one exactly when |L_{I1}| = |L_{I2}| and it maps the atom set
    of every element of L_{I1} onto the atom set of an element of L_{I2}:
    distinct atom sets have distinct images, the sizes make the map onto, and
    inclusion of atom sets is kept both ways.  Coprimality of nonzero
    elements is coprimality of every pair of atoms below them, and staircase
    masks are coprime exactly when they do not meet, so the r^2 pairs of atom
    masks decide ``gcd_preserving``.
    """
    closed1, closed2 = I1.lattice_masks.values(), set(I2.lattice_masks.values())
    if len(closed1) != len(closed2):
        return None
    if not all(_image(c, atom_map) in closed2 for c in closed1):
        return None
    pairs = [(a, I2.codec.atoms[k]) for a, k in zip(I1.codec.atoms, atom_map)]
    gcd_preserving = all((a & b == 0) == (fa & fb == 0)
                         for (a, fa), (b, fb) in combinations(pairs, 2))
    return LatticeMap(decoded, tuple(atom_map), gcd_preserving)


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


def _elements_above(closed, r: int) -> list:
    """For each of the r atoms, the number of atom sets in ``closed`` that
    hold it, in one pass over their set bits."""
    up = [0] * r
    for c in closed:
        while c:
            low = c & -c
            up[low.bit_length() - 1] += 1
            c ^= low
    return up


def find_lattice_isomorphisms(I1: MonomialIdeal, I2: MonomialIdeal):
    """All atom bijections inducing a lattice isomorphism L_{I1} -> L_{I2}.

    Every lattice isomorphism maps atoms to atoms, so enumerating atom
    bijections is exhaustive.  The search reads only the atom sets of the
    elements (the values of ``lattice_masks``) and the atom masks; it decodes
    no element and sorts nothing (see :class:`LatticeMap` for what is decoded
    later, on demand).  An atom may only go to an atom with as many elements
    above it (an order-isomorphism invariant).  Partial maps are pruned: once
    atom k is placed, every element of L1 whose highest atom is k must map
    onto an atom set of L2.  An isomorphism maps every element so, so none is
    lost, and the search order, hence the output order, is that of the
    unpruned search, whatever the order of the elements.  Each surviving
    bijection is decided on atom sets by ``_lattice_map``, and each map found
    carries a flag saying whether it also induces an isomorphism of the GCD
    graphs.
    """
    closed1, closed2 = I1.lattice_masks.values(), set(I2.lattice_masks.values())
    r = I1.num_generators
    if len(closed1) != len(closed2) or r != I2.num_generators:
        return []
    up1, up2 = _elements_above(closed1, r), _elements_above(closed2, r)
    candidates = [[k for k in range(r) if up2[k] == up1[i]] for i in range(r)]
    checks = [[] for _ in range(r)]
    for c in closed1:
        if c:
            checks[c.bit_length() - 1].append(mask_subset(c))
    decoded = _decoder(I1, I2)
    return [m for atom_map in _atom_bijections(candidates, checks, closed2)
            if (m := _lattice_map(I1, I2, atom_map, decoded)) is not None]


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
    return _lattice_map(I1, I2, atom_map, _decoder(I1, I2))


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
