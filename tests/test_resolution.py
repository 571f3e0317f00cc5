import gc

import pytest

from monpoincare import linalg, resolution
from monpoincare.core import (InputError, InternalInconsistencyError, is_generic, mdeg_add,
                              minimalize, total_degree)
from monpoincare.complexes import alive_basis, homology, koszul_complex, scarf_faces
from monpoincare.resolution import (
    eagon_resolution,
    golod_denominator,
    is_golod_generic,
    is_golod_truncated,
    koszul_homology_dims,
    resolve_residue_field,
)
from monpoincare.series import (
    betti_numbers,
    denominator,
    denominator_from_poincare,
    poincare_from_denominator,
    series_from_terms,
    series_mul,
    variables_product,
)

from helpers import (
    D10_GENERATORS,
    LINEAR,
    DenseEchelonSpace,
    cycle_ideal,
    dense_kernel_basis,
    eagon_rank_formula,
    golod_series_match,
    koszul_golod_denominator,
    random_corpus,
    rp2_generators,
)


def test_resolve_zero_ideal_is_koszul():
    I = minimalize([], 2)
    res = resolve_residue_field(I, 2, (1, 1))
    assert res.betti() == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1, (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }


def test_resolve_hypersurface_periodic():
    I = minimalize([(2,)], 1)
    res = resolve_residue_field(I, 5, (5,))
    assert res.betti() == {(i, (i,)): 1 for i in range(6)}
    res.complex.validate()
    assert not res.complex.d_squared_violations()


def test_resolve_is_minimal_and_exact():
    for ideal in random_corpus(6, seed=61):
        res = resolve_residue_field(ideal, 4)
        C = res.complex
        C.validate()
        assert not C.d_squared_violations()
        # minimal: no entry between equal multidegrees
        for i in range(1, len(C.modules)):
            for c, column in enumerate(C.diffs[i]):
                for r in column:
                    assert C.modules[i][c] != C.modules[i - 1][r]
        H = homology(C, res.bound)
        assert H[0] == {(0,) * ideal.num_vars: 1}
        for i in range(1, res.tmax):
            assert not H[i], f"not exact at degree {i}"


def test_resolve_closing_example_matches_paper_series():
    # P_R for I' = (x1 x2^2, x1 x3^2) equals prod(1+t y_i)/Q' with the printed Q'
    I = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    res = resolve_residue_field(I, 4)
    P = res.poincare_series()
    Q = series_from_terms(3, 4, res.bound, [
        (0, (0, 0, 0), 1),
        (2, (1, 2, 0), -1), (2, (1, 0, 2), -1),
        (3, (1, 2, 2), -1),
    ])
    assert series_mul(Q, P) == variables_product(3, 4, res.bound)


def test_resolve_tor1_units_and_tor2_content():
    for ideal in random_corpus(6, seed=67):
        res = resolve_residue_field(ideal, 2)
        betti = res.betti()
        n = ideal.num_vars
        units = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
        assert {j for (i, j) in betti if i == 1} == units
        # Tor_2: one generator per minimal generator plus the squarefree pairs
        expected = {}
        for g in ideal.generators:
            expected[g] = expected.get(g, 0) + 1
        for a in range(n):
            for b in range(a + 1, n):
                pair = tuple(1 if k in (a, b) else 0 for k in range(n))
                expected[pair] = expected.get(pair, 0) + 1
        assert {j: c for (i, j), c in betti.items() if i == 2} == expected


def test_resolve_refuses_bad_bound():
    I = minimalize([(2, 0), (0, 2)], 2)
    with pytest.raises(InputError):
        resolve_residue_field(I, 3, (1, 1))


def test_koszul_homology_dims_closing_example():
    # closing example: H_1 at (1,2,0) and (1,0,2), H_2 at (1,2,2), each of dim 1
    I = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    assert koszul_homology_dims(I) == {
        (0, (0, 0, 0)): 1,
        (1, (1, 2, 0)): 1, (1, (1, 0, 2)): 1,
        (2, (1, 2, 2)): 1,
    }
    assert koszul_homology_dims(minimalize([], 2)) == {(0, (0, 0)): 1}


def test_betti_numbers_and_golod_denominator_match_the_koszul_homology():
    # Tor symmetry: the full Taylor strands of the lcm lattice against the
    # Koszul homology of R, cell by cell in box m_I
    cases = [*random_corpus(), *(cycle_ideal(n) for n in range(4, 9)),
             minimalize(rp2_generators(), 6), minimalize(D10_GENERATORS, 4), minimalize([], 3)]
    for ideal in cases + LINEAR:
        for char in (0, 2):
            assert betti_numbers(ideal, char) == koszul_homology_dims(ideal, char), (ideal, char)
            if ideal in LINEAR:
                with pytest.raises(InputError, match="is linear"):
                    golod_denominator(ideal, char)
            else:
                assert golod_denominator(ideal, char) == koszul_golod_denominator(ideal, char), (
                    ideal, char)


def test_golod_denominator_values():
    Ip = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    Q = golod_denominator(Ip)
    assert Q.coeffs == {
        (0, (0, 0, 0)): 1,
        (2, (1, 2, 0)): -1, (2, (1, 0, 2)): -1,
        (3, (1, 2, 2)): -1,
    }
    assert golod_denominator(minimalize([(2,)], 1)).coeffs == {
        (0, (0,)): 1, (2, (2,)): -1}
    assert golod_denominator(minimalize([], 2)).coeffs == {(0, (0, 0)): 1}


def test_is_golod_truncated():
    assert is_golod_truncated(minimalize([(1, 2, 0), (1, 0, 2)], 3), 5)
    # complete intersection of two coprime monomials: fails at t^4
    assert not is_golod_truncated(minimalize([(2, 0, 0), (0, 2, 1)], 3), 5)
    assert is_golod_truncated(minimalize([(3, 1)], 2), 4)
    with pytest.raises(InputError):
        is_golod_truncated(minimalize([(2,)], 1), 1)
    # the test is stated for I inside m^2; k[y]/(y^2) = S/(x, y^2) is Golod
    with pytest.raises(InputError, match="x1 is linear"):
        is_golod_truncated(minimalize([(1, 0), (0, 2)], 2), 4)


def _assert_tight_box_matches_slack_box(ideal, char, slack_tmax):
    """Q in box m_I, from the lcm lattice, agrees with one resolution in box
    m_I + (1,..,1) up to slack_tmax: the same Q, the same P, and the same
    Golod verdicts as the truncated Poincare series certificate."""
    top = ideal.top_lcm()
    degree_bound = total_degree(top)
    slack = mdeg_add(top, (1,) * ideal.num_vars)
    P = resolve_residue_field(ideal, slack_tmax, slack, char).poincare_series()
    Q = denominator(ideal, char=char)
    assert denominator_from_poincare(P, ideal) == Q.restrict(
        min(slack_tmax, degree_bound), top), (ideal, char)
    assert poincare_from_denominator(Q, slack_tmax, slack) == P, (ideal, char)
    for tmax in {2, 3, 4, degree_bound, degree_bound + 2}:
        if 2 <= tmax <= slack_tmax:
            assert is_golod_truncated(ideal, tmax, char, Q) == golod_series_match(
                P.restrict(tmax, slack), ideal, char), (ideal, char, tmax)


def test_tight_box_matches_slack_box_on_corpus():
    corpus = random_corpus(40, seed=7)
    assert sum(0 in ideal.top_lcm() for ideal in corpus) >= 5  # unused variables
    for ideal in corpus:
        for char in (0, 2):
            _assert_tight_box_matches_slack_box(
                ideal, char, total_degree(ideal.top_lcm()) + 2)


def test_tight_box_matches_slack_box_on_c5_and_rp2():
    # C5 is not Golod; RP^2's Q has two more terms in char 2 than in char 0,
    # the first at t^4.  RP^2's slack box up to deg m_I = 6 is too slow for
    # the suite, so it is compared mod t^5.
    C5 = cycle_ideal(5)
    RP2 = minimalize(rp2_generators(), 6)
    for char in (0, 2):
        _assert_tight_box_matches_slack_box(C5, char, total_degree(C5.top_lcm()) + 2)
        _assert_tight_box_matches_slack_box(RP2, char, 4)
    top = RP2.top_lcm()
    assert (denominator(RP2, char=2) - denominator(RP2)).coeffs == {
        (4, top): -1, (5, top): -1}


def test_is_golod_generic():
    assert is_golod_generic(minimalize([(3, 0), (1, 1), (0, 2)], 2))
    assert not is_golod_generic(minimalize([(2, 0), (0, 2)], 2))
    assert is_golod_generic(minimalize([(3, 2)], 2))
    with pytest.raises(InputError):
        is_golod_generic(minimalize([(1, 2, 0), (1, 0, 2)], 3))  # not generic
    with pytest.raises(InputError, match="x1 is linear"):
        is_golod_generic(minimalize([(1, 0), (0, 2)], 2))
    # the Scarf criterion against the exact certificate, Q = the Golod denominator
    generic = [I for I in random_corpus() if is_generic(I)] + [minimalize(D10_GENERATORS, 4)]
    verdicts = [(is_golod_generic(I), is_golod_truncated(I, total_degree(I.top_lcm())))
                for I in generic]
    assert len(verdicts) >= 100 and 0 < sum(v for v, _ in verdicts) < len(verdicts)
    assert all(v == exact for v, exact in verdicts)
    # and against every bipartition of every Scarf face, read off the lcm table
    assert [v for v, _ in verdicts] == [_golod_by_bipartitions(I) for I in generic]


def _golod_by_bipartitions(ideal):
    """The Scarf criterion by brute force: no face F has a nonempty proper
    part B with m_{F minus B} and m_B coprime (masks in ``subset_lcms``)."""
    lcms = ideal.subset_lcms
    for face in scarf_faces(ideal):
        F = sum(1 << i for i in face)
        for B in range(1, F):
            if B & F == B != F and not lcms[F ^ B] & lcms[B]:
                return False
    return True


def test_golod_q_equals_denominator_for_golod_ring():
    I = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    assert denominator(I) == golod_denominator(I)


def test_eagon_requires_generic():
    with pytest.raises(InputError):
        eagon_resolution(minimalize([(1, 2, 0), (1, 0, 2)], 3), 3)


def test_eagon_rank_structure():
    # Y_0 = 1, Y_1 = n, Y_2 = C(n,2) + #generators
    I = minimalize([(3, 0), (1, 1), (0, 2)], 2)
    Y = eagon_resolution(I, 3)
    assert Y.ranks() == [1, 2, 4, 8]
    assert Y.ranks() == eagon_rank_formula(I, 3)


def test_eagon_matches_resolution_for_golod_generic():
    # the ring is Golod, so the Eagon resolution is minimal and its generator
    # multidegrees within the box are the Betti numbers of k
    I = minimalize([(3, 0), (1, 1), (0, 2)], 2)
    Y = eagon_resolution(I, 5)
    res = resolve_residue_field(I, 5)
    from monpoincare.core import divides

    eagon_betti = {}
    for i, module in enumerate(Y.modules):
        for j in module:
            if divides(j, res.bound):
                eagon_betti[(i, j)] = eagon_betti.get((i, j), 0) + 1
    assert eagon_betti == res.betti()


def test_eagon_principal_is_periodic():
    Y = eagon_resolution(minimalize([(2,)], 1), 6)
    assert Y.ranks() == [1] * 7
    Y.validate()
    assert not Y.d_squared_violations()
    H = homology(Y, (7,))
    assert H[0] == {(0,): 1}
    assert all(not H[i] for i in range(1, 6))


def test_eagon_d_squared_and_acyclicity():
    for gens in ([(3, 0), (1, 1), (0, 2)], [(2, 0), (1, 1), (0, 2)],
                 [(2, 2), (1, 3)], [(3, 1, 0), (0, 1, 3), (1, 0, 1)]):
        I = minimalize(gens, len(gens[0]))
        assert is_generic_or_skip(I)
        Y = eagon_resolution(I, 5)
        Y.validate()
        assert not Y.d_squared_violations()
        bound = mdeg_add(I.top_lcm(), (1,) * I.num_vars)
        H = homology(Y, bound)
        assert H[0] == {(0,) * I.num_vars: 1}
        for i in range(1, 5):
            assert not H[i], f"Eagon not exact at {i} for {gens}"


def is_generic_or_skip(ideal):
    from monpoincare.core import is_generic

    return is_generic(ideal)


def test_eagon_on_random_generic_ideals():
    # regression for representative coherence: greedy attainment choices broke
    # d^2 = 0 on ideals like (x2 x3, x1 x2^2)
    from monpoincare.core import is_generic

    checked = 0
    for ideal in random_corpus(60, seed=777):
        if not is_generic(ideal) or ideal.num_generators < 2:
            continue
        checked += 1
        Y = eagon_resolution(ideal, 4)
        Y.validate()
        assert not Y.d_squared_violations(), ideal
        bound = mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars)
        H = homology(Y, bound)
        assert all(not H.get(i) for i in range(1, 4)), ideal
    assert checked >= 10


def test_eagon_regression_pair_with_shifted_attainment():
    I = minimalize([(0, 1, 1), (1, 2, 0)], 3)
    Y = eagon_resolution(I, 5)
    assert not Y.d_squared_violations()
    H = homology(Y, mdeg_add(I.top_lcm(), (1, 1, 1)))
    assert all(not H.get(i) for i in range(1, 5))


def test_verify_class_rep_raises_on_each_planted_representative():
    # K is the Koszul complex of D10 = (z^2w, xw^2, y^3z, x^3y) over R; its
    # H_2 at (3, 1, 2, 1), the lcm of the Scarf face {z^2w, x^3y}, is
    # spanned by e_{x,z}
    K, j = koszul_complex(minimalize(D10_GENERATORS, 4)), (3, 1, 2, 1)
    resolution._verify_class_rep(K, 2, j, {(0, 2): -1}, 0)
    alive = set(alive_basis(K, 2, j))
    top = K.labels[3].index((0, 1, 3))
    boundary = {K.labels[2][r]: s for r, s in K.diffs[3][top].items() if r in alive}
    assert len(boundary) == 2
    # no row is alive where H(K) is one-dimensional, so every chain there is
    # a cycle; over (xz, xy), H_2 at xyz is spanned by e_{y,z}, and
    # d(e_{x,y}) reaches the alive row e_x
    L = koszul_complex(minimalize([(1, 0, 1), (1, 1, 0)], 3))
    resolution._verify_class_rep(L, 2, (1, 1, 1), {(1, 2): 1}, 0)
    planted = [(K, 1, (1, 0, 0, 0), {(0,): 1},
                r"H_1\(K\)_\(1, 0, 0, 0\) has dimension 0, expected 1 for a Scarf face"),
               (K, 2, j, {(0, 1): 1}, r"representative at \(3, 1, 2, 1\) is zero over the ring"),
               (K, 2, j, boundary, r"representative at \(3, 1, 2, 1\) is a boundary"),
               (L, 2, (1, 1, 1), {(0, 1): 1}, r"representative at \(1, 1, 1\) is not a cycle")]
    for C, i, cell, cycle, message in planted:
        for char in (0, 2):
            with pytest.raises(InternalInconsistencyError, match=message):
                resolution._verify_class_rep(C, i, cell, cycle, char)


def test_residue_field_resolution_char2_matches_char0_small():
    I = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    b0 = resolve_residue_field(I, 3).betti()
    b2 = resolve_residue_field(I, 3, char=2).betti()
    assert b0 == b2


def test_every_kernel_basis_the_resolver_computes_yields_a_generator(monkeypatch):
    # the kernel dimension is counted, not ranked: a cell whose kernel is
    # zero, or already covered by the earlier generators alive there,
    # computes no kernel basis, so there is one call per (module,
    # multidegree) that gains a generator, and no matrix is ranked
    calls = []
    kernel_basis = resolution.kernel_basis

    def counted(*args):
        calls.append(args)
        return kernel_basis(*args)

    def no_rank(*args):
        raise AssertionError("the resolver ranked a matrix")

    monkeypatch.setattr(resolution, "kernel_basis", counted)
    monkeypatch.setattr(resolution, "rank_of", no_rank)
    for ideal in (cycle_ideal(5), minimalize(D10_GENERATORS, 4)):
        for char in (0, 2, 3):
            calls.clear()
            res = resolve_residue_field(ideal, total_degree(ideal.top_lcm()) + 1, char=char)
            modules = res.complex.modules
            assert len(calls) == sum(len(set(module)) for module in modules[2:]) > 0


def test_the_gf2_resolver_packs_each_column_once(monkeypatch):
    # the columns of d_1 are packed into bitmasks once; every later column is
    # a kernel vector, which kernel_basis returns packed, and a packed column
    # is masked at every later cell where it is alive, so nothing else is
    # packed
    packs = []
    bits = linalg._bits

    def counted_bits(vec):
        packs.append(vec)
        return bits(vec)

    monkeypatch.setattr(linalg, "_bits", counted_bits)
    for ideal, tmax in ((cycle_ideal(5), 6), (minimalize(rp2_generators(), 6), 4)):
        packs.clear()
        res = resolve_residue_field(ideal, tmax, char=2)
        assert packs == res.complex.diffs[1] and packs, ideal


def _dense(vec, ncols):
    return [vec.get(c, 0) for c in range(ncols)]


class _DenseSpace(DenseEchelonSpace):
    """The dense oracle taking the resolver's packed rows: {column: entry}
    dicts, or over GF(2) ints whose set bits c are decoded into {c: 1}.
    Built as ``EchelonSpace(char)``, with no width, it widens its rows with
    zero columns to the widest vector added, which keeps them in echelon
    form."""

    def __init__(self, char=0):
        super().__init__(0, char)

    def extend(self, vecs, limit):
        for vec in vecs:
            if self.dim >= limit:
                return
            self.add(vec)

    def add(self, vec):
        if isinstance(vec, int):
            vec = {c: 1 for c in range(vec.bit_length()) if vec >> c & 1}
        width = max(vec, default=-1) + 1
        if width > self.ncols:
            self.rows = [row + [0] * (width - self.ncols) for row in self.rows]
            self.ncols = width
        return super().add(_dense(vec, self.ncols))


def _dense_kernel(columns, nrows, char=0):
    """The dense oracle under ``kernel_basis``'s contract: the packed columns
    decoded into a dense matrix on the rows they hold (a zero row changes no
    kernel), each kernel vector packed back over the column labels."""
    labels = list(columns)
    cols = [linalg.unpack(col) for col in columns.values()]
    rows = sorted(set().union(*cols))
    assert len(rows) <= nrows
    M = [[col.get(r, 0) for col in cols] for r in rows]
    return [linalg.pack({labels[c]: x for c, x in enumerate(v) if x}, char)
            for v in dense_kernel_basis(M, len(labels), char)]


def test_the_resolver_matches_the_dense_linear_algebra(monkeypatch):
    # GF(2) columns are bitmasks and other fields' are dicts in linalg; the
    # same resolution must come out of the dense list-row oracle, generator
    # for generator, in each characteristic
    cases = [(cycle_ideal(5), 6), (minimalize(rp2_generators(), 6), 4),
             (minimalize(D10_GENERATORS, 4), 11)]
    for char in (2, 0, 3):
        expected = [resolve_residue_field(ideal, tmax, char=char).complex
                    for ideal, tmax in cases]
        with monkeypatch.context() as patch:
            patch.setattr(resolution, "EchelonSpace", _DenseSpace)
            patch.setattr(resolution, "kernel_basis", _dense_kernel)
            for (ideal, tmax), C in zip(cases, expected):
                oracle = resolve_residue_field(ideal, tmax, char=char).complex
                assert oracle.modules == C.modules, (ideal, char)
                assert oracle.diffs == C.diffs, (ideal, char)


def test_eagon_resolution_leaves_no_reference_cycle():
    # a cycle through the Scarf representative search would keep the ring
    # and the candidate tables alive until the next cyclic collection
    D10 = minimalize(D10_GENERATORS, 4)
    gc.collect()
    gc.disable()
    try:
        Y = eagon_resolution(D10, 5)
        del Y
        assert gc.collect() == 0
    finally:
        gc.enable()
