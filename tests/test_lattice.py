import gc
from collections import defaultdict
from itertools import combinations, permutations

import pytest

from monpoincare import lattice
from monpoincare.core import InputError, mdeg_join, minimalize, polarize
from monpoincare.lattice import (
    build_lcm_lattice,
    find_lattice_isomorphisms,
    lattice_map_from_atom_bijection,
    polarization_lattice_map,
    transport_denominator,
)
from monpoincare.series import denominator, series_from_terms, series_one

from helpers import (cycle_ideal, oracle_gcd_preserving, random_antichain, random_corpus,
                     resolver_denominator, rp2_generators, subset_lcm_isomorphisms,
                     wide_lattice_cases)

CLOSING_I = [(2, 0, 0), (0, 2, 1)]
CLOSING_IP = [(1, 2, 0), (1, 0, 2)]


def test_build_lattice_closing_examples():
    L = build_lcm_lattice(minimalize(CLOSING_I, 3))
    assert set(L.elements) == {(0, 0, 0), (2, 0, 0), (0, 2, 1), (2, 2, 1)}
    assert L.elements[0] == (0, 0, 0)
    assert L.top == (2, 2, 1)
    Lp = build_lcm_lattice(minimalize(CLOSING_IP, 3))
    assert set(Lp.elements) == {(0, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)}


def test_closed_lists_the_atoms_below_each_element():
    L = build_lcm_lattice(minimalize(CLOSING_I, 3))
    assert list(zip(L.elements, L.closed)) == [((0, 0, 0), 0b00), ((2, 0, 0), 0b01),
                                               ((0, 2, 1), 0b10), ((2, 2, 1), 0b11)]
    again = build_lcm_lattice(minimalize(CLOSING_I, 3))
    assert L == again and hash(L) == hash(again)
    # the triangle xy, yz, xz: any two atoms lie below the top alone
    triangle = build_lcm_lattice(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3))
    assert triangle.closed == (0b000, 0b001, 0b010, 0b100, 0b111)


def test_lattice_empty_ideal():
    L = build_lcm_lattice(minimalize([], 2))
    assert L.elements == ((0, 0),)


def test_lattice_size_bound_and_atom_join_generation():
    for ideal in random_corpus(20, seed=51):
        L = build_lcm_lattice(ideal)
        assert len(L.elements) <= 2 ** ideal.num_generators
        spanned = {L.elements[0]}
        for size in range(1, ideal.num_generators + 1):
            for sub in combinations(L.atoms, size):
                m = L.elements[0]
                for a in sub:
                    m = mdeg_join(m, a)
                spanned.add(m)
        assert spanned == set(L.elements)


def test_lattice_is_the_decoded_subset_table():
    for ideal in wide_lattice_cases():
        L = build_lcm_lattice(ideal)
        codec = ideal.codec
        expected = sorted({codec.decode(m) for m in ideal.subset_lcms},
                          key=lambda e: (sum(e), e))
        assert list(L.elements) == expected, ideal
        assert L.closed == tuple(sum(1 << i for i, g in enumerate(ideal.generators)
                                     if all(x <= y for x, y in zip(g, e))) for e in expected)


def test_find_isomorphisms_closing_pair():
    isos = find_lattice_isomorphisms(minimalize(CLOSING_I, 3), minimalize(CLOSING_IP, 3))
    assert len(isos) == 2
    assert all(not m.gcd_preserving for m in isos)


def test_find_isomorphisms_self_identity():
    I = minimalize(CLOSING_I, 3)
    isos = find_lattice_isomorphisms(I, I)
    identity = [m for m in isos if m.atom_map == (0, 1)]
    assert identity and identity[0].gcd_preserving
    for m in isos:
        assert m.element_map[(0, 0, 0)] == (0, 0, 0)


def test_isomorphisms_preserve_joins():
    for ideal in random_corpus(10, seed=57):
        for m in find_lattice_isomorphisms(ideal, ideal):
            L = m.source
            for a in L.elements:
                for b in L.elements:
                    assert m.apply(mdeg_join(a, b)) == mdeg_join(m.apply(a), m.apply(b))


def test_isomorphisms_different_sizes_empty():
    assert find_lattice_isomorphisms(minimalize([(2,)], 1),
                                     minimalize([(1, 1), (0, 2)], 2)) == []


def test_polarization_map_is_gcd_preserving_iso():
    I = minimalize(CLOSING_I, 3)
    pol = polarize(I)
    lmap = polarization_lattice_map(pol)
    assert lmap.gcd_preserving
    found = find_lattice_isomorphisms(I, pol.ideal)
    assert lmap.atom_map in {m.atom_map for m in found}


def test_gcd_flag_invariant_under_gcd_automorphisms():
    I = minimalize(CLOSING_IP, 3)
    autos = [m for m in find_lattice_isomorphisms(I, I) if m.gcd_preserving]
    isos = find_lattice_isomorphisms(minimalize(CLOSING_I, 3), I)
    by_atom_map = {m.atom_map: m.gcd_preserving for m in isos}
    for m in isos:
        for a in autos:
            composed = tuple(a.atom_map[k] for k in m.atom_map)
            assert by_atom_map[composed] == m.gcd_preserving


def test_lattice_map_from_atom_bijection_rejects_non_isomorphism():
    A = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)  # triangle: lattice of 5
    B = minimalize([(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0)], 4)  # path: lattice of 8
    assert lattice_map_from_atom_bijection(A, B, (0, 1, 2)) is None  # 5 into 8 elements
    assert lattice_map_from_atom_bijection(B, A, (0, 1, 2)) is None  # 8 onto 5 elements
    # every atom set of the triangle is one of (x, y, z), but its lattice has 8
    xyz = minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert lattice_map_from_atom_bijection(A, xyz, (0, 1, 2)) is None


def test_lattice_map_from_atom_bijection_requires_a_permutation():
    I, Ip = minimalize(CLOSING_I, 3), minimalize(CLOSING_IP, 3)
    assert lattice_map_from_atom_bijection(I, Ip, (1, 0)).gcd_preserving is False
    with pytest.raises(InputError):
        lattice_map_from_atom_bijection(I, Ip, (0,))  # too short
    with pytest.raises(InputError):
        lattice_map_from_atom_bijection(I, Ip, (0, 2))  # no generator 2
    assert lattice_map_from_atom_bijection(I, Ip, (0, 0)) is None  # not a permutation
    xy = minimalize([(1, 0), (0, 1)], 2)
    xyz = minimalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert lattice_map_from_atom_bijection(xy, xyz, (0, 1)) is None  # 4 into 8 elements


def test_the_search_finds_what_the_subset_lcm_definition_finds():
    corpus = random_corpus() + [cycle_ideal(5)]
    corpus += [random_antichain(5, 3, 3, seed) for seed in range(20)]
    by_shape = defaultdict(list)
    for ideal in corpus:
        by_shape[ideal.num_generators, len(build_lcm_lattice(ideal).elements)].append(ideal)
    pairs = [(ideal, polarize(ideal).ideal) for ideal in corpus[::3]]
    pairs += [(ideal, partner) for ideal in corpus for partner in
              by_shape[ideal.num_generators, len(build_lcm_lattice(ideal).elements)][:4]]
    found = rejected = 0
    for ideal, partner in pairs:
        expected = subset_lcm_isomorphisms(ideal, partner)
        assert [(m.atom_map, m.element_map, m.gcd_preserving)
                for m in find_lattice_isomorphisms(ideal, partner)] == expected, (ideal, partner)
        by_atom_map = {sigma: (e, g) for sigma, e, g in expected}
        for sigma in permutations(range(ideal.num_generators)):
            m = lattice_map_from_atom_bijection(ideal, partner, sigma)
            assert (m and (m.element_map, m.gcd_preserving)) == by_atom_map.get(sigma)
            found, rejected = found + (m is not None), rejected + (m is None)
    assert found > 500 and rejected > 500


def test_gcd_flag_matches_all_element_pairs():
    corpus = random_corpus()
    by_shape = defaultdict(list)
    for ideal in corpus:
        by_shape[ideal.num_generators, len(build_lcm_lattice(ideal).elements)].append(ideal)
    flags = []
    for ideal in corpus[:120]:
        for partner in by_shape[ideal.num_generators, len(build_lcm_lattice(ideal).elements)][:15]:
            for m in find_lattice_isomorphisms(ideal, partner):
                assert m.gcd_preserving == oracle_gcd_preserving(m.element_map), (ideal, partner)
                flags.append(m.gcd_preserving)
    assert flags.count(False) > 100 and flags.count(True) > 100


@pytest.mark.parametrize("ideal, count", [(minimalize(rp2_generators(), 6), 60),
                                          (cycle_ideal(9), 18)], ids=["RP2", "C9"])
def test_pruned_search_decides_each_map_found_once(ideal, count, monkeypatch):
    # the prune checks every element of L1, so each full bijection it lets
    # through induces an isomorphism, and _lattice_map rejects none
    calls = []
    real = lattice._lattice_map

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(lattice, "_lattice_map", counted)
    found = find_lattice_isomorphisms(ideal, ideal)
    assert len(found) == count and len(calls) == count
    assert [m.atom_map for m in found] == calls
    assert all(m.gcd_preserving for m in found)
    assert [m.atom_map for m in found] == sorted(m.atom_map for m in found)


def test_transport_denominator_terms():
    I = minimalize(CLOSING_I, 3)
    Ip = minimalize(CLOSING_IP, 3)
    iso = find_lattice_isomorphisms(I, Ip)[0]
    Q = denominator(I)
    T = transport_denominator(Q, iso)
    assert T.coefficient(0, (0, 0, 0)) == 1
    # coefficients and t-degrees survive, multidegrees are relabeled
    assert sorted(c for (_, _), c in T.coeffs.items()) == \
           sorted(c for (_, _), c in Q.coeffs.items())
    assert {t for (t, _) in T.coeffs} == {t for (t, _) in Q.coeffs}
    assert all(j in iso.target.elements for (_, j) in T.coeffs)


def test_transported_resolver_q_is_the_lattice_q_of_the_target():
    # one side is read off a resolution, so the lattice formula of
    # series.denominator is never compared with itself
    corpus = random_corpus()
    for ideal in corpus[:60]:
        pol = polarize(ideal)
        T = transport_denominator(resolver_denominator(ideal), polarization_lattice_map(pol))
        assert T == denominator(pol.ideal), ideal
    by_shape = defaultdict(list)
    for ideal in corpus:
        by_shape[ideal.num_generators, len(build_lcm_lattice(ideal).elements)].append(ideal)
    checked = 0
    for ideal in corpus[:60]:
        Q = resolver_denominator(ideal)
        for partner in by_shape[ideal.num_generators, len(build_lcm_lattice(ideal).elements)]:
            for m in find_lattice_isomorphisms(ideal, partner):
                if m.gcd_preserving and partner != ideal:
                    # deg m_I, and so the t-truncation, may differ
                    assert transport_denominator(Q, m).coeffs == denominator(partner).coeffs
                    checked += 1
    assert checked > 100
    # isomorphic lattices, no GCD-preserving map: the closing pair's Q differ
    I, Ip = minimalize(CLOSING_I, 3), minimalize(CLOSING_IP, 3)
    for m in find_lattice_isomorphisms(I, Ip):
        assert transport_denominator(resolver_denominator(I), m) != denominator(Ip)


def test_transport_single_atom_and_unit():
    I = minimalize([(2, 1)], 2)
    iso = find_lattice_isomorphisms(I, I)[0]
    one = series_one(2, 3, (2, 1))
    assert transport_denominator(one, iso).coeffs == one.coeffs
    Q = series_from_terms(2, 3, (2, 1), [(0, (0, 0), 1), (2, (2, 1), -1)])
    T = transport_denominator(Q, iso)
    assert T.coeffs == Q.coeffs


def test_transport_rejects_non_lattice_multidegrees():
    I = minimalize(CLOSING_I, 3)
    iso = find_lattice_isomorphisms(I, I)[0]
    bad = series_from_terms(3, 2, (2, 2, 1), [(0, (0, 0, 0), 1), (1, (1, 0, 0), -1)])
    with pytest.raises(InputError):
        transport_denominator(bad, iso)


def test_find_isomorphisms_leaves_no_reference_cycle():
    # a cycle would keep both lattices and every map found alive until the
    # next cyclic garbage collection
    I = minimalize(CLOSING_IP, 3)
    gc.collect()
    gc.disable()
    try:
        found = find_lattice_isomorphisms(I, I)
        del found
        assert gc.collect() == 0
    finally:
        gc.enable()
