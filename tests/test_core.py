import json
import random

import pytest

from monpoincare.core import (
    SUBSET_TABLE_MAX_GENERATORS,
    Box,
    InputError,
    MonomialIdeal,
    box_multidegrees,
    connected_components_lJ,
    coprime,
    divides,
    in_lcm_lattice,
    is_generic,
    join_closure,
    lcm_of_subset,
    load_ideal,
    mask_subset,
    mdeg_add,
    mdeg_join,
    mdeg_sub,
    minimalize,
    polarize,
    staircase,
    subset_components,
    subset_table,
)

from monpoincare import core

from helpers import cycle_ideal, random_antichain, random_corpus, rp2_generators


def staircase_cases():
    """40 corpus ideals (several with an unused variable), C5-C8, RP^2 and a
    seeded 14-generator antichain, after the zero ideal."""
    return [minimalize([], 2), *random_corpus(40, seed=71),
            *(cycle_ideal(n) for n in range(5, 9)), minimalize(rp2_generators(), 6),
            random_antichain(14, 5, 4, seed=1)]


def test_minimalize_divisibility():
    # {x^2, x^3} in k[x] -> {x^2}
    I = minimalize([(2,), (3,)], 1)
    assert I.generators == ((2,),)


def test_minimalize_keeps_closing_example():
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    assert set(I.generators) == {(2, 0, 0), (0, 2, 1)}


def test_minimalize_empty():
    I = minimalize([], 2)
    assert I.generators == ()
    assert I.top_lcm() == (0, 0)


def test_minimalize_idempotent():
    for ideal in random_corpus(25, seed=5):
        again = minimalize(ideal.generators, ideal.num_vars, ideal.var_names)
        assert again.generators == ideal.generators


def test_minimalize_rejects_bad_input():
    with pytest.raises(InputError):
        minimalize([(1, 0)], 1)  # wrong length
    with pytest.raises(InputError):
        minimalize([(-1,)], 1)
    with pytest.raises(InputError):
        minimalize([(0, 0)], 2)  # the unit


def test_lcm_of_subset():
    I = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    assert lcm_of_subset(I, [0, 1]) == (1, 2, 2)
    assert lcm_of_subset(I, [0]) == I.generators[0]
    assert lcm_of_subset(I, []) == (0, 0, 0)
    I2 = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    assert lcm_of_subset(I2, [0, 1]) == (2, 2, 1)
    with pytest.raises(InputError):
        lcm_of_subset(I, [2])


def _decoded_subset_lcms(ideal):
    """m_J for every subset J, indexed by bitmask, decoded from the staircase
    subset table."""
    codec = staircase(ideal.generators, ideal.num_vars)
    return [codec.decode(m) for m in subset_table(codec.atoms)]


def test_subset_lcms_matches_lcm_of_subset():
    for ideal in [minimalize([], 2), *random_corpus(40, seed=71)]:
        r = ideal.num_generators
        table = _decoded_subset_lcms(ideal)
        assert len(table) == 2 ** r
        for mask, m in enumerate(table):
            assert m == lcm_of_subset(ideal, [i for i in range(r) if mask & (1 << i)])


def test_box_codes_name_the_cells_in_box_order():
    rng = random.Random(5)
    for bound in [(0,), (3,), (2, 0, 1), (1, 2, 3), (4, 4, 3, 3), (0, 0), (2, 1, 1, 2, 1)]:
        box = Box(bound)
        cells = box_multidegrees(bound)
        assert sorted(box.codes) == list(range(len(cells)))
        assert [box.decode[c] for c in box.codes] == cells
        assert [box.code(j) for j in cells] == box.codes
        for _ in range(50):
            a, b = rng.choice(cells), rng.choice(cells)
            total = mdeg_add(a, b)
            assert box.code(total) == (box.code(a) + box.code(b) if divides(total, bound)
                                       else None), (bound, a, b)
        assert box.code(tuple(x + 1 for x in bound)) is None


def test_staircase_codec_matches_multidegree_operations():
    unused_variable = 0
    for ideal in staircase_cases():
        codec = staircase(ideal.generators, ideal.num_vars)
        assert codec.atoms == tuple(codec.encode(g) for g in ideal.generators)
        unused_variable += 0 in codec.widths
        cells = box_multidegrees(ideal.top_lcm())
        if len(cells) > 100:
            cells = random.Random(3).sample(cells, 100)
        masks = [codec.encode(c) for c in cells]
        for a, ma in zip(cells, masks):
            assert codec.decode(ma) == a
            for b, mb in zip(cells, masks):
                assert codec.decode(ma | mb) == mdeg_join(a, b)
                assert (ma & ~mb == 0) == divides(a, b)
                assert (ma & mb == 0) == coprime(a, b)
    assert unused_variable >= 3
    codec = staircase([(2, 0, 0), (0, 2, 1)], 3)
    assert codec.widths == (2, 2, 1) and codec.atoms == (0b00011, 0b11100)
    with pytest.raises(InputError):
        codec.encode((3, 0, 0))


def test_multidegree_primitives_match_their_elementwise_definitions():
    # mdeg_sub hands validate negative entries, so the tuples range below 0
    rng = random.Random(29)
    pairs = [((0,) * 6, (0,) * 6), ((1,), (0,)), ((0,), (-3,)), ((), ())]
    for _ in range(2000):
        n = rng.randint(1, 7)
        lo = rng.choice((0, -3))
        pairs.append((tuple(rng.randint(lo, 3) for _ in range(n)),
                      tuple(rng.randint(lo, 3) for _ in range(n))))
    for a, b in pairs:
        assert mdeg_add(a, b) == tuple(x + y for x, y in zip(a, b))
        assert mdeg_sub(a, b) == tuple(x - y for x, y in zip(a, b))
        assert mdeg_join(a, b) == tuple(max(x, y) for x, y in zip(a, b))
        assert divides(a, b) is all(x <= y for x, y in zip(a, b))
        assert coprime(a, b) is all(x == 0 or y == 0 for x, y in zip(a, b))
    assert sum(coprime(a, b) for a, b in pairs) > 100
    assert sum(divides(a, b) for a, b in pairs) > 100


def test_subset_components_match_connected_components_lJ():
    for ideal in staircase_cases():
        counts = subset_components(staircase(ideal.generators, ideal.num_vars).atoms)
        assert len(counts) == 2 ** ideal.num_generators and counts[0] == 0
        for mask in range(1, len(counts)):
            assert counts[mask] == connected_components_lJ(ideal, mask_subset(mask)), \
                (ideal, mask)


def test_the_codec_and_the_tables_are_cached_on_the_ideal_object(monkeypatch):
    calls = []
    real = core.staircase

    def counted(gens, num_vars):
        calls.append(gens)
        return real(gens, num_vars)

    monkeypatch.setattr(core, "staircase", counted)
    gens = [(2, 0, 0), (0, 2, 1), (1, 1, 1)]
    built, fresh = minimalize(gens, 3), minimalize(gens, 3)
    assert built.subset_lcms is built.subset_lcms
    assert built.subset_components is built.subset_components
    assert built.subset_lcms == subset_table(real(built.generators, 3).atoms)
    assert built.subset_components == subset_components(built.codec.atoms)
    assert len(calls) == 1
    # an equal but distinct ideal builds its own
    assert fresh.subset_lcms == built.subset_lcms and fresh.subset_lcms is not built.subset_lcms
    assert len(calls) == 2
    # the cache is not part of the value
    other = minimalize(gens, 3)
    assert built == other and hash(built) == hash(other) and repr(built) == repr(other)
    assert built.to_dict() == other.to_dict() == {"vars": ["x1", "x2", "x3"],
                                                  "gens": [list(g) for g in other.generators]}
    assert len(calls) == 2


def test_subset_table_refuses_oversized_generator_sets():
    limit = SUBSET_TABLE_MAX_GENERATORS
    with pytest.raises(InputError, match=f"{limit + 1} generators.*limit is {limit}"):
        subset_table([1 << i for i in range(limit + 1)])
    with pytest.raises(InputError, match=f"limit is {limit}"):
        subset_components([1 << i for i in range(limit + 1)])
    assert len(subset_table([1, 2, 4])) == 8


def test_join_closure_is_the_set_of_subset_table_entries():
    for ideal in staircase_cases():
        atoms = ideal.codec.atoms
        joins = join_closure(atoms)
        assert set(joins) == set(subset_table(atoms)), ideal
        assert joins == {m: sum(1 << i for i, a in enumerate(atoms) if a & ~m == 0)
                         for m in joins}, ideal
        assert ideal.lattice_masks is ideal.lattice_masks
        assert ideal.lattice_masks == joins
    limit = SUBSET_TABLE_MAX_GENERATORS
    with pytest.raises(InputError, match=f"{limit + 1} generators.*limit is {limit}"):
        join_closure([1 << i for i in range(limit + 1)])
    # masks inside a union count whether or not a subset reaching it used them
    assert join_closure([1, 2, 3]) == {0: 0, 1: 0b001, 2: 0b010, 3: 0b111}


def test_lcm_monotone():
    for ideal in random_corpus(20, seed=11):
        r = ideal.num_generators
        full = lcm_of_subset(ideal, range(r))
        for k in range(r):
            sub = lcm_of_subset(ideal, range(k))
            assert all(a <= b for a, b in zip(sub, full))


def test_connected_components():
    coprime_pair = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    assert connected_components_lJ(coprime_pair, [0, 1]) == 2
    sharing = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    assert connected_components_lJ(sharing, [0, 1]) == 1
    assert connected_components_lJ(sharing, [0]) == 1
    with pytest.raises(InputError):
        connected_components_lJ(sharing, [])


def test_connected_components_pairwise_sharing():
    # if all pairs share a variable the graph is complete, so l_J = 1
    I = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    assert connected_components_lJ(I, [0, 1, 2]) == 1


def test_is_generic():
    assert is_generic(minimalize([(3, 0), (1, 1), (0, 2)], 2))
    assert not is_generic(minimalize([(1, 2, 0), (1, 0, 2)], 3))  # equal x1 exponents
    assert is_generic(minimalize([(2,)], 1))  # no pairs
    assert is_generic(minimalize([(2, 0), (0, 2)], 2))  # no equal positive exponent
    # equal positive exponent pair rescued by a strictly dividing third generator
    assert is_generic(minimalize([(3, 1, 0), (0, 1, 3), (1, 0, 1)], 3))


def test_polarize_one_variable():
    pol = polarize(minimalize([(2,)], 1, ("x",)))
    assert pol.ideal.generators == ((1, 1),)
    assert pol.ideal.var_names == ("x_1", "x_2")
    assert pol.forward((2,)) == (1, 1)
    assert pol.backward((1, 1)) == (2,)


def test_polarize_closing_example():
    pol = polarize(minimalize([(2, 0, 0), (0, 2, 1)], 3))
    assert set(pol.ideal.generators) == {(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)}
    assert pol.ideal.num_vars == 5


def test_polarize_squarefree_identity():
    I = minimalize([(1, 1, 0), (0, 1, 1)], 3, ("x", "y", "z"))
    pol = polarize(I)
    assert pol.ideal == I
    assert pol.forward((1, 1, 0)) == (1, 1, 0)


def test_polarize_depolarize_roundtrip():
    for ideal in random_corpus(25, seed=23):
        pol = polarize(ideal)
        assert all(max(g) <= 1 for g in pol.ideal.generators)
        back = minimalize([pol.backward(g) for g in pol.ideal.generators],
                          ideal.num_vars, ideal.var_names)
        assert back.generators == ideal.generators


def test_ideal_file_roundtrip(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": ["x1", "x2", "x3"], "gens": [[2, 0, 0], [0, 2, 1]]}))
    ideal = load_ideal(path)
    assert ideal.var_names == ("x1", "x2", "x3")
    assert set(ideal.generators) == {(2, 0, 0), (0, 2, 1)}
    assert MonomialIdeal.from_dict(ideal.to_dict()) == ideal


def test_load_ideal_errors(tmp_path):
    with pytest.raises(InputError):
        load_ideal(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_ideal(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"gens": [[1]]}))
    with pytest.raises(InputError):
        load_ideal(wrong)


def test_in_lcm_lattice_matches_subset_lcms():
    for ideal in [minimalize([], 2), *random_corpus(30, seed=83)]:
        lattice = set(_decoded_subset_lcms(ideal))
        for j in box_multidegrees(ideal.top_lcm()):
            assert in_lcm_lattice(ideal, j) == (j in lattice), (ideal, j)
