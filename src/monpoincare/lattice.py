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
    divides,
    subset_lcms,
    total_degree,
)
from .series import BigradedSeries


@dataclass(frozen=True)
class LcmLattice:
    """All subset lcms of an ideal's generators, ordered by divisibility.

    ``elements`` is sorted by (total degree, lex); the bottom 0 comes first and
    the top m_I last.  ``lcms`` is the 2^r table of :func:`subset_lcms`: m_J
    for every generator subset J, indexed by bitmask.
    """

    num_vars: int
    atoms: tuple  # generator multidegrees, in the ideal's order
    elements: tuple
    lcms: tuple

    @property
    def bottom(self) -> Multidegree:
        return self.elements[0]

    @property
    def top(self) -> Multidegree:
        return self.elements[-1]


def build_lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    lcms = tuple(subset_lcms(ideal.generators, ideal.num_vars))
    elements = tuple(sorted(set(lcms), key=lambda m: (total_degree(m), m)))
    return LcmLattice(ideal.num_vars, ideal.generators, elements, lcms)


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

    def inverse(self) -> "LatticeMap":
        inv_atoms = [0] * len(self.atom_map)
        for i, k in enumerate(self.atom_map):
            inv_atoms[k] = i
        return LatticeMap(self.target, self.source, tuple(inv_atoms),
                          {v: k for k, v in self.element_map.items()}, self.gcd_preserving)


def _induced_element_map(L1: LcmLattice, L2: LcmLattice, atom_map):
    """Element map m_J -> m'_{sigma(J)} if well defined and bijective, else None."""
    target_lcms = subset_lcms([L2.atoms[k] for k in atom_map], L2.num_vars)
    fwd = {}
    images = set()
    for src, dst in zip(L1.lcms, target_lcms):
        seen = fwd.get(src)
        if seen is None:
            if dst in images:
                return None  # not injective
            fwd[src] = dst
            images.add(dst)
        elif seen != dst:
            return None  # not well defined
    return fwd


def _gcd_preserving(element_map) -> bool:
    items = [(a, b) for a, b in element_map.items() if any(a)]
    for (a, fa), (b, fb) in combinations(items, 2):
        if coprime(a, b) != coprime(fa, fb):
            return False
    return True


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
        return [sum(1 for m in L.elements if divides(a, m)) for a in L.atoms]

    up1, up2 = upset_sizes(L1), upset_sizes(L2)
    r = len(L1.atoms)
    candidates = [[k for k in range(r) if up2[k] == up1[i]] for i in range(r)]
    found = []

    def backtrack(i, used, current):
        if i == r:
            fwd = _induced_element_map(L1, L2, current)
            if fwd is not None:
                found.append(LatticeMap(L1, L2, tuple(current), fwd, _gcd_preserving(fwd)))
            return
        for k in candidates[i]:
            if k not in used:
                used.add(k)
                backtrack(i + 1, used, current + [k])
                used.remove(k)

    backtrack(0, set(), [])
    return found


def lattice_map_from_atom_bijection(I1: MonomialIdeal, I2: MonomialIdeal, atom_map):
    """The LatticeMap for a given atom bijection, or None if it is not one."""
    L1 = build_lcm_lattice(I1)
    L2 = build_lcm_lattice(I2)
    fwd = _induced_element_map(L1, L2, tuple(atom_map))
    if fwd is None:
        return None
    return LatticeMap(L1, L2, tuple(atom_map), fwd, _gcd_preserving(fwd))


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
