import pytest

from monpoincare.core import mdeg_add, minimalize
from monpoincare.complexes import (
    Ring,
    homology,
    is_taylor_minimal,
    koszul_complex,
    minimize,
    scarf_complex,
    scarf_faces,
    taylor_complex,
)

from helpers import (
    brute_is_taylor_minimal,
    brute_scarf_faces,
    oracle_homology,
    random_corpus,
    standard_monomial_table,
)


def test_taylor_two_variables():
    I = minimalize([(1, 0), (0, 1)], 2, ("x", "y"))
    T = taylor_complex(I)
    assert T.ranks() == [1, 2, 1]
    # generators sort as (y, x); d(T_{xy}) = x T_y - y T_x, which is the
    # expected y T_x - x T_y up to the global sign of the convention
    assert I.generators == ((0, 1), (1, 0))
    assert T.diffs[2] == {(0, 0): 1, (1, 0): -1}
    assert T.entry_monomial(2, 0, 0) == (1, 0)
    assert T.entry_monomial(2, 1, 0) == (0, 1)
    assert T.is_complex()


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
        assert T.is_complex()


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
        assert S.is_complex()
        assert all(f in faces for lab in S.labels for f in lab)


def test_is_taylor_minimal():
    assert is_taylor_minimal(minimalize([(2, 0, 0), (0, 2, 1)], 3))
    assert not is_taylor_minimal(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3))
    assert is_taylor_minimal(minimalize([(4,)], 1))


def test_scarf_and_taylor_minimal_match_brute_force():
    triangle = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    for ideal in [minimalize([], 2), triangle, *random_corpus(40, seed=71)]:
        assert scarf_faces(ideal) == brute_scarf_faces(ideal)
        assert is_taylor_minimal(ideal) == brute_is_taylor_minimal(ideal)


def test_koszul_conventions():
    ring = Ring(2, ("x", "y"))
    K = koszul_complex(ring)
    assert K.ranks() == [1, 2, 1]
    # d(e1 ^ e2) = x1 e2 - x2 e1
    assert K.diffs[2] == {(1, 0): 1, (0, 0): -1}
    assert K.is_complex()


def test_koszul_over_quotient_kills_entries():
    I = minimalize([(1, 0)], 2)  # x itself in the ideal
    K = koszul_complex(Ring.quotient(I))
    # d(e_x) = x = 0 in R, so no entry in column of e_x
    assert (0, 0) not in K.diffs[1]
    K.validate()


def test_koszul_d_squared_four_variables():
    I = minimalize([(2, 1, 0, 0), (0, 1, 1, 1)], 4)
    K = koszul_complex(Ring.quotient(I))
    K.validate()
    assert K.is_complex()


def test_homology_koszul_hypersurface():
    K = koszul_complex(Ring.quotient(minimalize([(2,)], 1)))
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

    C = FreeComplex(Ring(2, ("x", "y")), [[]], [{}])
    assert homology(C, (1, 1)) == {0: {}}


def test_homology_matches_oracle_small():
    I = minimalize([(2, 0), (1, 1), (0, 2)], 2)
    for C in (taylor_complex(I), scarf_complex(I), koszul_complex(Ring.quotient(I))):
        bound = mdeg_add(I.top_lcm(), (1, 1))
        assert homology(C, bound) == oracle_homology(C, bound)


def test_homology_char_two_agrees_here():
    I = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    K = koszul_complex(Ring.quotient(I))
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
    assert E.is_complex()
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
        K = koszul_complex(Ring.quotient(ideal))
        H = homology(K, ideal.top_lcm())
        koszul_dims = {(i, j): d for i, dims in H.items() for j, d in dims.items()}
        assert {k: v for k, v in betti.items() if k[0] >= 1} == \
               {k: v for k, v in koszul_dims.items() if k[0] >= 1}
