from dataclasses import replace

import pytest

from monpoincare import complexes, core
from monpoincare.core import (Box, InternalInconsistencyError, MonomialIdeal, box_multidegrees,
                              is_generic, mdeg_add, minimalize, total_degree)
from monpoincare.complexes import (
    FreeComplex,
    alive_basis,
    alive_index,
    homology,
    is_taylor_minimal,
    koszul_complex,
    minimize,
    scarf_complex,
    scarf_faces,
    standard_monomials,
    taylor_complex,
)
from monpoincare.resolution import eagon_resolution, resolve_residue_field

from helpers import (
    brute_is_taylor_minimal,
    brute_scarf_faces,
    cycle_ideal,
    oracle_d_squared_violations,
    oracle_homology,
    random_corpus,
    rp2_generators,
    standard_monomial_table,
    wide_lattice_cases,
)


def test_taylor_two_variables():
    I = minimalize([(1, 0), (0, 1)], 2, ("x", "y"))
    T = taylor_complex(I)
    assert T.ranks() == [1, 2, 1]
    # generators sort as (y, x); with the Koszul sign (-1)^(a+1),
    # d(T_{yx}) = y T_x - x T_y
    assert I.generators == ((0, 1), (1, 0))
    assert T.diffs[2] == [{0: -1, 1: 1}]
    assert T.entry_monomial(2, 0, 0) == (1, 0)
    assert T.entry_monomial(2, 1, 0) == (0, 1)
    assert not T.d_squared_violations()


def test_taylor_single_generator():
    T = taylor_complex(minimalize([(2, 1)], 2))
    assert T.ranks() == [1, 1]
    assert T.modules[1] == [(2, 1)]


def test_taylor_top_multidegree_closing_example():
    T = taylor_complex(minimalize([(1, 2, 0), (1, 0, 2)], 3))
    assert T.modules[2] == [(1, 2, 2)]


def test_taylor_d_squared_random():
    for ideal in random_corpus(15, seed=31):
        T = taylor_complex(ideal)
        T.validate()
        assert not T.d_squared_violations()


def test_scarf_faces_and_ranks():
    I = minimalize([(3, 0), (1, 1), (0, 2)], 2)
    assert scarf_faces(I) == [(), (0,), (1,), (2,), (0, 1), (1, 2)]
    assert scarf_complex(I).ranks() == [1, 3, 2]
    I2 = minimalize([(2, 0), (1, 1), (0, 2)], 2)
    assert scarf_complex(I2).ranks() == [1, 3, 2]
    assert {f for f in scarf_faces(I2) if len(f) == 2} == {(0, 1), (1, 2)}


def test_scarf_of_single_generator_is_taylor():
    I = minimalize([(3,)], 1)
    assert scarf_complex(I).ranks() == taylor_complex(I).ranks()


def test_scarf_faces_subset_of_taylor():
    for ideal in random_corpus(15, seed=37):
        faces = set(scarf_faces(ideal))
        S = scarf_complex(ideal)
        S.validate()
        assert not S.d_squared_violations()
        assert all(f in faces for lab in S.labels for f in lab)


def test_is_taylor_minimal():
    assert is_taylor_minimal(minimalize([(2, 0, 0), (0, 2, 1)], 3))
    assert not is_taylor_minimal(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3))
    assert is_taylor_minimal(minimalize([(4,)], 1))


def test_scarf_and_taylor_minimal_match_brute_force(monkeypatch):
    """Both read the lcm lattice and build no 2^r subset table."""
    triangle = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    # the edge ideal of a 5-leaf star, x0*x_i: Taylor-minimal, |L_I| = 2^5
    star = minimalize([tuple(int(v in (0, i)) for v in range(6)) for i in range(1, 6)], 6)
    tables = []
    real = core.subset_table
    monkeypatch.setattr(core, "subset_table", lambda masks: tables.append(masks) or real(masks))
    for ideal in [minimalize([], 2), triangle, star, *random_corpus(40, seed=71)]:
        assert scarf_faces(ideal) == brute_scarf_faces(ideal)
        assert is_taylor_minimal(ideal) == brute_is_taylor_minimal(ideal)
    assert is_taylor_minimal(star) and not tables


def test_scarf_faces_match_brute_force_past_four_generators():
    cases = wide_lattice_cases()
    assert max(ideal.num_generators for ideal in cases) == 10
    for ideal in cases:
        assert scarf_faces(ideal) == brute_scarf_faces(ideal), ideal


def test_koszul_conventions():
    K = koszul_complex(MonomialIdeal(2, ("x", "y"), ()))
    assert K.ranks() == [1, 2, 1]
    # d(e1 ^ e2) = x1 e2 - x2 e1
    assert K.diffs[2] == [{1: 1, 0: -1}]
    assert not K.d_squared_violations()


def test_koszul_over_quotient_kills_entries():
    I = minimalize([(1, 0)], 2)  # x itself in the ideal
    K = koszul_complex(I)
    # d(e_x) = x = 0 in R, so no entry in column of e_x
    assert 0 not in K.diffs[1][0]
    K.validate()


def test_koszul_d_squared_four_variables():
    I = minimalize([(2, 1, 0, 0), (0, 1, 1, 1)], 4)
    K = koszul_complex(I)
    K.validate()
    assert not K.d_squared_violations()


def test_homology_koszul_hypersurface():
    K = koszul_complex(minimalize([(2,)], 1))
    H = homology(K, (3,))
    assert H[0] == {(0,): 1}
    assert H[1] == {(2,): 1}


def test_homology_taylor_resolves_quotient():
    # Taylor over S is a resolution: H_0 = S/I, H_{>0} = 0
    for ideal in random_corpus(8, seed=41):
        T = taylor_complex(ideal)
        bound = mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars)
        H = homology(T, bound)
        assert H[0] == standard_monomial_table(ideal, bound)
        assert all(not H[i] for i in range(1, T.top_degree + 1))


def test_homology_zero_complex():
    from monpoincare.complexes import FreeComplex

    C = FreeComplex(MonomialIdeal(2, ("x", "y"), ()), [[]], [{}])
    assert homology(C, (1, 1)) == {0: {}}


def test_homology_matches_oracle_small():
    # the slack-box resolutions of C5 and RP^2 and the Koszul complex of RP^2
    # give the smaller-side sparse ranks non-square matrices of both shapes
    # over many steps, in char 0 and over GF(2), where the rows are bitmasks;
    # a char-2 resolution is ranked in char 2 only, since over Q its
    # differentials need not compose to zero
    I, c5 = minimalize([(2, 0), (1, 1), (0, 2)], 2), cycle_ideal(5)
    rp2 = minimalize(rp2_generators(), 6)
    both = [(I, taylor_complex(I)), (I, scarf_complex(I)), (I, koszul_complex(I)),
            (c5, resolve_residue_field(c5, 4).complex), (rp2, koszul_complex(rp2))]
    cases = [(ideal, C, char) for char in (0, 2) for ideal, C in both]
    cases += [(ideal, resolve_residue_field(ideal, 4, char=2).complex, 2) for ideal in (c5, rp2)]
    for ideal, C, char in cases:
        bound = mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars)
        assert homology(C, bound, char) == oracle_homology(C, bound, char), (ideal, char)
    # the Koszul homology of RP^2 depends on the characteristic
    K, slack = koszul_complex(rp2), mdeg_add(rp2.top_lcm(), (1,) * 6)
    H0, H2 = homology(K, slack, 0), homology(K, slack, 2)
    assert (sum(H0[3].values()), sum(H0[4].values())) == (6, 0)
    assert (sum(H2[3].values()), sum(H2[4].values())) == (7, 1)


def test_homology_ranks_the_smaller_side(monkeypatch):
    calls = []
    real = complexes.rank_of

    def recorded(vectors, ncols, char=0):
        calls.append((len(vectors), ncols))
        return real(vectors, ncols, char)

    monkeypatch.setattr(complexes, "rank_of", recorded)
    c5, rp2 = cycle_ideal(5), minimalize(rp2_generators(), 6)
    for ideal, C in ((c5, resolve_residue_field(c5, 4).complex),
                     (rp2, koszul_complex(rp2))):
        calls.clear()
        homology(C, mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars))
        assert calls, ideal
        assert all(k <= ncols for k, ncols in calls), ideal


def test_homology_ranks_rows_and_columns_on_the_c5_resolution(monkeypatch):
    # each cell ranks the alive rows of d_i over its alive columns where it
    # has more columns than rows, and the columns over the rows otherwise;
    # the slack-box resolution of C5 has cells of both kinds
    calls = []
    real = complexes.rank_of

    def recorded(vectors, ncols, char=0):
        calls.append((len(vectors), ncols))
        return real(vectors, ncols, char)

    monkeypatch.setattr(complexes, "rank_of", recorded)
    c5 = cycle_ideal(5)
    slack = mdeg_add(c5.top_lcm(), (1,) * c5.num_vars)
    for char in (0, 2, 3):
        C = resolve_residue_field(c5, 4, slack, char).complex
        expected, sides = [], set()
        for j in box_multidegrees(slack):
            alive = [alive_basis(C, i, j) for i in range(C.top_degree + 1)]
            for i in range(1, C.top_degree + 1):
                cols, rows = len(alive[i]), len(alive[i - 1])
                if cols and rows:
                    sides.add("rows" if cols > rows else "columns")
                    expected.append((min(cols, rows), max(cols, rows)))
        calls.clear()
        assert homology(C, slack) == oracle_homology(C, slack, char), char
        assert calls == expected and sides == {"rows", "columns"}, char


def test_homology_skips_generators_outside_the_box():
    # the Eagon resolution of D10 has generators such as (0, 0, 4, 2) that do
    # not divide the slack bound (4, 4, 3, 3): they are alive at no cell
    d10 = minimalize([(3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)], 4)
    slack = mdeg_add(d10.top_lcm(), (1,) * d10.num_vars)
    assert slack == (4, 4, 3, 3)
    for char in (0, 2):
        C = eagon_resolution(d10, 5, char)
        assert (0, 0, 4, 2) in C.modules[4], char
        assert homology(C, slack) == oracle_homology(C, slack, char), char


def test_validate_raises_on_each_planted_violation():
    ring = minimalize([(2, 0)], 2, ("x", "y"))  # k[x,y]/(x^2)
    modules = [[(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (1, 1)]]
    # x, x and y: two entries share the monomial x, and none is killed
    good = [{0: 1}, {1: 1}, {1: -1}]
    empty = [{}, {}, {}]
    FreeComplex(ring, modules, [empty, good]).validate()
    planted = [((0, 2, 0), r"stored zero entry at degree 1 \(0,2\)"),
               ((2, 0, 1), r"inhomogeneous entry at degree 1 \(2,0\): monomial \(1, -1\)"),
               ((0, 1, 1), r"entry at degree 1 \(0,1\) should have been reduced to zero")]
    for (r, c, s), message in planted:
        diff = [dict(column) for column in good]
        diff[c][r] = s
        C = FreeComplex(ring, modules, [empty, diff])
        with pytest.raises(InternalInconsistencyError, match=message):
            C.validate()
    for diffs, message in (([empty], "modules/diffs length mismatch"),
                           ([empty, good[:2]], "degree 1 has 3 generators and 2 columns"),
                           ([[{}, {}], good], "degree 0 has 3 generators and 2 columns")):
        with pytest.raises(InternalInconsistencyError, match=message):
            FreeComplex(ring, modules, diffs).validate()


def test_a_subset_complex_with_a_missing_face_is_refused():
    ring = minimalize([], 2)
    atoms = [(1, 0), (0, 1)]
    complexes._subset_complex(ring, atoms, [[()], [(0,), (1,)], [(0, 1)]]).validate()
    with pytest.raises(InternalInconsistencyError,
                       match=r"face \(1,\) missing below \(0, 1\); subset complex not closed"):
        complexes._subset_complex(ring, atoms, [[()], [(0,)], [(0, 1)]])


def test_every_builder_stores_one_column_per_generator():
    corpus = random_corpus(25, seed=89)
    assert sum(is_generic(ideal) for ideal in corpus) >= 5
    # on this corpus minimize cancels nothing below a degree that survives; on
    # these five generators it does (ranks 1, 5, 6, 2), and renumbers the rows
    # of the differential above
    renumbered = minimalize([(0, 1, 0, 2), (0, 2, 0, 1), (2, 1, 1, 0), (2, 2, 0, 0),
                             (1, 2, 2, 0)], 4)
    for ideal in [*corpus, renumbered]:
        taylor = taylor_complex(ideal)
        built = [taylor, scarf_complex(ideal), koszul_complex(ideal),
                 minimize(taylor), minimize(replace(taylor, char=2)),
                 *(resolve_residue_field(ideal, 4, char=char).complex for char in (0, 2))]
        if is_generic(ideal):
            built.append(eagon_resolution(ideal, 4))
        for C in built:
            C.validate()
            assert [len(diff) for diff in C.diffs] == C.ranks(), ideal
            assert not any(C.diffs[0]) and not C.d_squared_violations(), ideal


def test_homology_char_two_agrees_here():
    I = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    K = koszul_complex(I)
    assert homology(K, I.top_lcm(), char=2) == homology(K, I.top_lcm())


def test_minimize_generic_gives_scarf_ranks():
    I = minimalize([(3, 0), (1, 1), (0, 2)], 2)
    assert minimize(taylor_complex(I)).ranks() == scarf_complex(I).ranks()


def test_minimize_triangle():
    # two of the three pair-lcms coincide at xyz, so rank drops 3 -> 2
    I = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    E = minimize(taylor_complex(I))
    assert E.ranks() == [1, 3, 2]
    E.validate()
    assert not E.d_squared_violations()
    bound = (2, 2, 2)
    HE, HT = homology(E, bound), homology(taylor_complex(I), bound)
    assert all(HE.get(i, {}) == HT.get(i, {}) for i in range(4))


def test_minimize_already_minimal():
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    T = taylor_complex(I)
    E = minimize(T)
    assert E.ranks() == T.ranks()
    assert E.diffs[1] == T.diffs[1]


def test_minimize_agrees_with_koszul_homology():
    # Tor symmetry: Betti numbers of S/I over S = H(Koszul over R) per multidegree
    for ideal in random_corpus(8, seed=43):
        E = minimize(taylor_complex(ideal))
        betti = {}
        for i, module in enumerate(E.modules):
            for j in module:
                betti[(i, j)] = betti.get((i, j), 0) + 1
        K = koszul_complex(ideal)
        H = homology(K, ideal.top_lcm())
        koszul_dims = {(i, j): d for i, dims in H.items() for j, d in dims.items()}
        assert {k: v for k, v in betti.items() if k[0] >= 1} == \
               {k: v for k, v in koszul_dims.items() if k[0] >= 1}


def _assert_index_is_alive_basis(C, bound):
    """alive_index of every module, read through the box's decode, agrees
    with alive_basis on every cell of the box (a missing key is an empty
    basis); returns the code-keyed indexes."""
    cells = box_multidegrees(bound)
    box = Box(bound)
    standard = standard_monomials(C.ring, box)
    assert {box.decode[s] for s in standard} == {j for j in cells if not C.ring.kills(j)}
    indexes = [alive_index(module, box, standard) for module in C.modules]
    for i, index in enumerate(indexes):
        decoded = {box.decode[code]: gens for code, gens in index.items()}
        assert len(decoded) == len(index) and set(decoded) <= set(cells), i
        for j in cells:
            assert decoded.get(j, []) == alive_basis(C, i, j), (i, j)
    return indexes


def test_alive_index_matches_alive_basis():
    corpus = random_corpus(20, seed=53)
    assert sum(0 in ideal.top_lcm() for ideal in corpus) >= 3  # unused variables
    c5, rp2 = cycle_ideal(5), minimalize(rp2_generators(), 6)
    for ideal in [*corpus, c5, rp2]:
        top = ideal.top_lcm()
        slack = mdeg_add(top, (1,) * ideal.num_vars)
        _assert_index_is_alive_basis(koszul_complex(ideal), slack)
        _assert_index_is_alive_basis(taylor_complex(ideal), slack)
        if is_generic(ideal):
            _assert_index_is_alive_basis(eagon_resolution(ideal, 4), slack)
        # the slack box of C5 and RP^2 is resolved only to t = 4, as in the
        # tight-versus-slack test, to keep the suite fast
        full = ideal not in (c5, rp2)
        for char in (0, 2):
            for bound, tmax in ((top, total_degree(top)),
                                (slack, total_degree(top) + 1 if full else 4)):
                res = resolve_residue_field(ideal, tmax, bound, char)
                fresh = _assert_index_is_alive_basis(res.complex, bound)
                assert res.complex.alive_memo == {bound: fresh}, (ideal, char, bound)


def test_homology_reads_the_resolver_index(monkeypatch):
    ideal = cycle_ideal(4)
    res = resolve_residue_field(ideal, 4, char=2)
    plain = replace(res.complex)
    assert plain.alive_memo == {} and plain == res.complex  # the memo is not compared
    expected = homology(plain, res.bound)
    assert expected == oracle_homology(plain, res.bound)

    def no_rebuild(*args):
        raise AssertionError("homology rebuilt an index the resolver left")

    monkeypatch.setattr(complexes, "alive_index", no_rebuild)
    assert homology(res.complex, res.bound) == expected
    with pytest.raises(AssertionError, match="rebuilt"):
        homology(res.complex, ideal.top_lcm())  # another box builds its own


def _perturbed(C, i, key):
    """C with the scalar of d_i at key = (row, col) moved by one (dropped if
    it becomes 0)."""
    r, c = key
    diffs = [[dict(column) for column in d] for d in C.diffs]
    new = C.diffs[i][c].get(r, 0) + 1
    if C.char:
        new %= C.char
    if new:
        diffs[i][c][r] = new
    else:
        del diffs[i][c][r]
    return replace(C, diffs=diffs)


def test_d_squared_violations_match_dense_oracle():
    triangle = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    closing = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    four = minimalize([(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)], 3)
    for char in (0, 2):
        taylor = replace(taylor_complex(four), char=char)
        resolutions = [resolve_residue_field(ideal, 4, char=char).complex
                       for ideal in (triangle, closing)]
        for C in (taylor, *resolutions):
            assert C.d_squared_violations() == [] == oracle_d_squared_violations(C)
            for i in range(2, len(C.modules)):
                for key in sorted((r, c) for c, column in enumerate(C.diffs[i])
                                  for r in column):
                    broken = _perturbed(C, i, key)
                    bad = broken.d_squared_violations()
                    assert sorted(bad) == sorted(oracle_d_squared_violations(broken)), (
                        char, i, key)
                    # over S nothing is killed; over R, d_1 of a row of d_2 is
                    # a variable, so the change survives on a standard column
                    if C is taylor or (i == 2 and not C.ring.kills(C.modules[2][key[1]])):
                        assert bad, (char, i, key)
