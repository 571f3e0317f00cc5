"""LCM lattices, isomorphism search and denominator transport."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import (
    InputError,
    MonomialIdeal,
    Multidegree,
    Polarization,
    Staircase,
    subset_table,
    total_degree,
)
from .series import BigradedSeries


@dataclass(frozen=True)
class LcmLattice:
    """All subset lcms of an ideal's generators, ordered by divisibility.

    ``elements`` is sorted by (total degree, lex); the bottom 0 comes first and
    the top m_I last.  Internally an element is its staircase bitmask under
    ``codec`` (see :mod:`monpoincare.core`): ``masks[k]`` encodes
    ``elements[k]``, joins are ``|``, divisibility is ``a & ~b == 0`` and
    coprimality ``a & b == 0``.  ``codec`` and ``lcms`` are the ideal's own
    ``codec`` and ``subset_lcms`` (the mask of m_J for every generator subset
    J, indexed by bitmask), shared and not copied.
    """

    num_vars: int
    atoms: tuple  # generator multidegrees, in the ideal's order
    elements: tuple
    codec: Staircase
    masks: tuple  # masks[k] encodes elements[k]
    lcms: list = field(compare=False)  # the ideal's subset_lcms; do not mutate

    @property
    def bottom(self) -> Multidegree:
        return self.elements[0]

    @property
    def top(self) -> Multidegree:
        return self.elements[-1]


def build_lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    codec, lcms = ideal.codec, ideal.subset_lcms
    decoded = sorted(((codec.decode(m), m) for m in set(lcms)),
                     key=lambda em: (total_degree(em[0]), em[0]))
    return LcmLattice(ideal.num_vars, ideal.generators, tuple(e for e, _ in decoded), codec,
                      tuple(m for _, m in decoded), lcms)


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


def _induced_element_map(L1: LcmLattice, L2: LcmLattice, atom_map):
    """The mask map m_J -> m'_{sigma(J)} if well defined and injective, else None.

    ``atom_map`` must list r distinct target atoms for L1's r atoms; then the
    image is all of L2 and an injective map is a lattice isomorphism.
    """
    target_lcms = subset_table([L2.codec.atoms[k] for k in atom_map])
    pairs = set(zip(L1.lcms, target_lcms))
    # well defined: one image per source element; injective: one preimage per image
    if not len(pairs) == len(L1.masks) == len(set(target_lcms)):
        return None
    return dict(pairs)


def _gcd_preserving(fwd, atoms) -> bool:
    """Does the isomorphism ``fwd`` (masks) keep coprimality of every pair of
    nonzero elements?

    Elements a and b are coprime iff every atom below a is coprime to every
    atom below b, and an isomorphism maps the atoms below a onto the atoms
    below fwd[a]; so the r^2 pairs of the atom masks ``atoms`` decide it.
    """
    pairs = [(a, fwd[a]) for a in atoms]
    return all((a & b == 0) == (fa & fb == 0)
               for (a, fa), (b, fb) in combinations(pairs, 2))


def _lattice_map(L1: LcmLattice, L2: LcmLattice, atom_map, fwd) -> LatticeMap:
    elements1 = dict(zip(L1.masks, L1.elements))
    elements2 = dict(zip(L2.masks, L2.elements))
    element_map = {elements1[a]: elements2[b] for a, b in fwd.items()}
    return LatticeMap(L1, L2, tuple(atom_map), element_map,
                      _gcd_preserving(fwd, L1.codec.atoms))


def find_lattice_isomorphisms(I1: MonomialIdeal, I2: MonomialIdeal):
    """All atom bijections inducing a lattice isomorphism L_{I1} -> L_{I2}.

    Every lattice isomorphism maps atoms to atoms, so enumerating atom
    bijections is exhaustive.  Candidates are pruned by matching up-set sizes
    (an order-isomorphism invariant); each map carries a flag saying whether it
    also induces an isomorphism of the GCD graphs.
    """
    L1 = build_lcm_lattice(I1)
    L2 = build_lcm_lattice(I2)
    if len(L1.elements) != len(L2.elements) or len(L1.atoms) != len(L2.atoms):
        return []

    def upset_sizes(L):
        return [sum(1 for m in L.masks if a & ~m == 0) for a in L.codec.atoms]

    up1, up2 = upset_sizes(L1), upset_sizes(L2)
    r = len(L1.atoms)
    candidates = [[k for k in range(r) if up2[k] == up1[i]] for i in range(r)]
    found = []

    def backtrack(i, used, current):
        if i == r:
            fwd = _induced_element_map(L1, L2, current)
            if fwd is not None:
                found.append(_lattice_map(L1, L2, current, fwd))
            return
        for k in candidates[i]:
            if k not in used:
                used.add(k)
                backtrack(i + 1, used, current + [k])
                used.remove(k)

    backtrack(0, set(), [])
    # the closure refers to itself; dropping it frees the lattices now, not at the next gc
    del backtrack
    return found


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
    L1 = build_lcm_lattice(I1)
    L2 = build_lcm_lattice(I2)
    fwd = _induced_element_map(L1, L2, atom_map)
    if fwd is None:
        return None
    return _lattice_map(L1, L2, atom_map, fwd)


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
