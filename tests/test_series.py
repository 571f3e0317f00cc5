import random
import re
from itertools import combinations, product

import pytest

from monpoincare.core import (InputError, InternalInconsistencyError, connected_components_lJ,
                              coprime, divides, lcm_of_subset, mdeg_add, minimalize, polarize,
                              total_degree, unit_mdeg)
from monpoincare.lattice import build_lcm_lattice
from monpoincare.series import (
    BigradedSeries,
    _packing,
    betti_numbers,
    candidate_terms,
    denominator,
    denominator_from_poincare,
    deviations,
    poincare_from_denominator,
    series_div,
    series_from_deviations,
    series_from_terms,
    series_inverse,
    series_mul,
    series_one,
    variables_product,
    verify_lcm_coefficients,
)

from monpoincare import series
from helpers import (
    LINEAR,
    all_subsets,
    borel_closure,
    brute_candidate_terms,
    cycle_ideal,
    eliahou_kervaire_betti,
    factorwise_product,
    inductive_deviations,
    is_strongly_stable,
    koszul_quadratic_denominator,
    random_antichain,
    random_corpus,
    resolver_denominator,
    rp2_generators,
    stable_denominator,
    table_candidate_terms,
    tuple_series_div,
    wide_lattice_cases,
)

D10 = minimalize([(3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)], 4)


def _random_unit_series(rng, tmax=4, ybound=(3, 3), nterms=6, tmin=0, constant=1):
    """A random series in len(ybound) variables with the given constant term."""
    n = len(ybound)
    terms = [(0, (0,) * n, constant)]
    for _ in range(nterms):
        t = rng.randint(tmin, tmax)
        j = tuple(rng.randint(0, b) for b in ybound)
        if t + sum(j) > 0:
            terms.append((t, j, rng.randint(-3, 3)))
    return series_from_terms(n, tmax, ybound, terms)


def test_mul_two_linear_factors():
    # (1+t*y1)(1+t*y2) = 1 + t(y1+y2) + t^2 y1 y2
    P = variables_product(2, 3, (2, 2))
    assert P.coeffs == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1,
        (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }


def test_inverse_geometric():
    a = series_from_terms(1, 6, (6,), [(0, (0,), 1), (2, (2,), -1)])
    inv = series_inverse(a)
    assert inv.coeffs == {(0, (0,)): 1, (2, (2,)): 1, (4, (4,)): 1, (6, (6,)): 1}


def test_inverse_property_random():
    rng = random.Random(17)
    one = series_one(2, 4, (3, 3))
    for _ in range(30):
        a = _random_unit_series(rng)
        assert series_mul(a, series_inverse(a)) == one


def test_inverse_requires_unit():
    with pytest.raises(InputError):
        series_inverse(series_from_terms(1, 2, (2,), [(0, (0,), 2)]))


def test_series_div_times_divisor_is_numerator():
    # series_mul is the oracle; numerators with any constant term, and boxes
    # in which some variable is bounded by 0
    rng = random.Random(31)
    for ybound in [(3, 3), (2, 0), (0, 0), (2, 0, 1)]:
        for _ in range(20):
            num = _random_unit_series(rng, ybound=ybound, nterms=8,
                                      constant=rng.randint(-3, 3))
            den = _random_unit_series(rng, ybound=ybound)
            assert series_mul(series_div(num, den), den) == num


PACKING_BOUNDS = (0, 1, 2, 3, 4, 7, 8)  # 2^w - 1 and 2^w, where the guard is tight
PACKING_TMAXES = (0, 1, 2, 5, 8)


def _packing_boxes():
    """Every bound with every tmax in one variable; every pair of bounds in two
    variables, and seven triples that put each bound in each position."""
    bounds, tmaxes = PACKING_BOUNDS, PACKING_TMAXES
    yield from ((tmax, (b,)) for b in bounds for tmax in tmaxes)
    yield from ((tmaxes[(i + k) % 5], (b1, b2))
                for i, b1 in enumerate(bounds) for k, b2 in enumerate(bounds))
    yield from ((tmaxes[i % 5], (bounds[i], bounds[(i + 3) % 7], bounds[(i + 5) % 7]))
                for i in range(7))


def test_packed_keys_add_and_test_the_box_exactly():
    # for every pair of in-box keys a, b: the guard passes exactly the b with
    # a + b in the box (b <= bound - a, listed in the same lex order), and
    # then the packed sum unpacks to a + b
    pairs = 0
    for tmax, ybound in _packing_boxes():
        pack, unpack, tmask, adjust, guard = _packing(tmax, ybound)
        bound = (tmax, *ybound)
        packed = {key: pack(key[0], key[1:]) for key in product(*(range(b + 1) for b in bound))}
        for a, pa in packed.items():
            assert unpack(pa) == (a[0], a[1:]) and pa & tmask == a[0]
            inside = [b for b, pb in packed.items() if not (pa + pb + adjust) & guard]
            assert inside == list(product(*(range(x - y + 1) for x, y in zip(bound, a))))
            for b in inside:
                total = tuple(map(sum, zip(a, b)))
                assert unpack(pa + packed[b]) == (total[0], total[1:])
            pairs += len(packed)
    assert pairs == 1127786


def _random_terms(rng, tmax, ybound, big):
    """Up to 10 random (t, j, c) in the box, with |c| <= big."""
    return [(rng.randint(0, tmax), tuple(rng.randint(0, b) for b in ybound),
             rng.randint(-big, big)) for _ in range(rng.randint(0, 10))]


def test_series_div_matches_the_tuple_key_division():
    # zero bounds, power-of-two bounds, tmax 0, and coefficients up to 10^30
    rng = random.Random(1998)
    boxes = [(0, (2,)), (0, (0, 0)), (3, (0, 0)), (4, (2, 0, 4)), (8, (8,)), (5, (1, 2, 4)),
             (6, (3, 7)), (2, (16, 1)), (7, (1, 1, 1, 1))]
    for tmax, ybound in boxes:
        for big in (3, 10 ** 30):
            for _ in range(12):
                num = series_from_terms(len(ybound), tmax, ybound,
                                        _random_terms(rng, tmax, ybound, big))
                den = series_from_terms(len(ybound), tmax, ybound, [
                    (t, j, c) for t, j, c in _random_terms(rng, tmax, ybound, big) if t + sum(j)]
                    + [(0, (0,) * len(ybound), 1)])
                expected = tuple_series_div(num.coeffs, den.coeffs, tmax, ybound)
                assert series_div(num, den).coeffs == expected, (num, den)


def test_series_div_requires_unit_constant_term():
    num = series_one(1, 2, (2,))
    for c in (2, -1, 0):
        with pytest.raises(InputError):
            series_div(num, series_from_terms(1, 2, (2,), [(0, (0,), c), (1, (1,), 1)]))
    with pytest.raises(InputError):
        series_div(num, series_one(1, 3, (2,)))  # boxes differ


def test_variables_product_skips_zero_bounds():
    # a variable bounded by 0 (unused by every generator, in box m_I) gives 1
    P = variables_product(3, 3, (1, 0, 2))
    assert P.coeffs == {
        (0, (0, 0, 0)): 1,
        (1, (1, 0, 0)): 1,
        (1, (0, 0, 1)): 1,
        (2, (1, 0, 1)): 1,
    }
    assert variables_product(2, 0, (1, 1)) == series_one(2, 0, (1, 1))


def test_mul_requires_same_box():
    a = series_one(1, 2, (2,))
    b = series_one(1, 3, (2,))
    with pytest.raises(InputError):
        series_mul(a, b)


def test_truncation_box_enforced():
    with pytest.raises(InputError):
        BigradedSeries(1, 2, (2,), {(3, (0,)): 1})
    with pytest.raises(InputError):
        BigradedSeries(1, 2, (2,), {(1, (3,)): 1})


def _denominator_of(P):
    """Q = prod(1+t*y_i)/P in P's box: the denominator that ``deviations`` takes for P."""
    return series_div(variables_product(P.num_vars, P.tmax, P.ybound), P)


def test_deviations_product_of_linear_factors():
    P = variables_product(2, 4, (3, 3))
    table = deviations(_denominator_of(P), 4, (3, 3))
    assert table == {(1, (1, 0)): 1, (1, (0, 1)): 1}


def test_deviations_hypersurface():
    # k[x]/(x^2): P = (1+ty)/(1-t^2y^2); eps_1=(1), eps_2=(2), nothing else
    numer = variables_product(1, 6, (7,))
    P = series_mul(numer, series_inverse(
        series_from_terms(1, 6, (7,), [(0, (0,), 1), (2, (2,), -1)])))
    table = deviations(_denominator_of(P), 6, (7,))
    assert table == {(1, (1,)): 1, (2, (2,)): 1}
    assert series_from_deviations(table, 1, 6, (7,)) == P


def test_deviations_roundtrip_random():
    # the decomposition applies to series of the form 1 + (t-degree >= 1 terms)
    rng = random.Random(23)
    for _ in range(15):
        P = _random_unit_series(rng, tmin=1)
        table = deviations(_denominator_of(P), 4, (3, 3))
        assert series_from_deviations(table, 2, 4, (3, 3)) == P


def _slack_box_series(ideal, nmax, char):
    """(Q, box m_I + (1,..,1), P = prod(1+t*y_i)/Q up to t^nmax in that box):
    ``deviations`` gets Q and the box, ``inductive_deviations`` P."""
    Q, bound = denominator(ideal, char=char), mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars)
    return Q, bound, poincare_from_denominator(Q, nmax, bound)


# P = 1 + 2y1t^2 + 2y1^2y2^2t^2 - 2y1^3y2t^2 + y1t^4 + 2y1^2t^4 - 2y1^3y2^2t^4: its
# t*dP/dt / P is 0 at (4, (2, 0)), where the exponent is -1
OWED_WHERE_G_VANISHES = series_from_terms(2, 4, (3, 3), [
    (0, (0, 0), 1), (2, (1, 0), 2), (2, (2, 2), 2), (2, (3, 1), -2),
    (4, (1, 0), 1), (4, (2, 0), 2), (4, (3, 2), -2)])


@pytest.mark.parametrize("char", [0, 2, 3])
def test_deviations_match_the_inductive_factorization(char):
    m4 = minimalize([(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)], 3)
    named = [(cycle_ideal(n), 5) for n in range(4, 9)]
    named += [(minimalize(rp2_generators(), 6), 5), (D10, 10), (m4, 5), (D10, 0)]
    named += [(minimalize([], 3), 4), (minimalize([(1, 0), (0, 2)], 2), 5)]  # 0 and (x1, x2^2)
    for ideal, nmax in [(I, 4) for I in random_corpus()] + named:
        Q, bound, P = _slack_box_series(ideal, nmax, char)
        assert deviations(Q, nmax, bound) == inductive_deviations(P, nmax), (ideal, nmax)


@pytest.mark.parametrize("char", [0, 2])
def test_low_deviations_have_their_closed_form(char):
    """For I inside m^2, e_1 is 1 at each variable and e_2 is 1 at each minimal
    generator, 0 elsewhere (Avramov, "Infinite free resolutions", 1998,
    section 7), and no deviation is negative."""
    ideals = [I for I in random_corpus() if all(total_degree(g) > 1 for g in I.generators)]
    assert len(ideals) >= 100
    ideals += [cycle_ideal(n) for n in range(5, 10)] + [minimalize(rp2_generators(), 6)]
    for ideal in ideals:
        Q, bound, _ = _slack_box_series(ideal, 4, char)
        table = deviations(Q, 4, bound)
        n = ideal.num_vars
        assert {j: e for (k, j), e in table.items() if k == 1} == {
            unit_mdeg(n, i): 1 for i in range(n)}, ideal
        assert {j: e for (k, j), e in table.items() if k == 2} == dict.fromkeys(
            ideal.generators, 1), ideal
        assert min(table.values()) >= 0, ideal


def test_deviations_match_the_inductive_factorization_on_random_series():
    rng = random.Random(41)
    for _ in range(60):
        tmax = rng.randint(1, 6)
        P = _random_unit_series(rng, tmax=tmax, ybound=(3, 2), nterms=rng.randint(1, 8),
                                tmin=1)
        for nmax in {tmax, rng.randint(0, tmax - 1)}:  # nmax < P.tmax as well
            assert deviations(_denominator_of(P), nmax, P.ybound) == inductive_deviations(
                P, nmax), (P, nmax)


def test_deviations_visit_keys_where_the_logarithmic_derivative_vanishes():
    P = OWED_WHERE_G_VANISHES
    dP = BigradedSeries(2, 4, (3, 3), {(t, j): t * c for (t, j), c in P.coeffs.items() if t})
    assert series_div(dP, P).coefficient(4, (2, 0)) == 0
    table = deviations(_denominator_of(P), 4, (3, 3))
    assert table[(4, (2, 0))] == -1
    assert table == inductive_deviations(P, 4)
    assert series_from_deviations(table, 2, 4, (3, 3)) == P


def test_deviations_reject_t0_terms():
    bad = series_from_terms(2, 3, (2, 2), [(0, (0, 0), 1), (0, (1, 0), 2), (2, (1, 1), -1)])
    with pytest.raises(InputError):
        deviations(bad, 3, (2, 2))


def test_series_from_deviations_trivial():
    empty = deviations(_denominator_of(series_one(2, 3, (2, 2))), 3, (2, 2))
    assert empty == {}
    assert series_from_deviations(empty, 2, 3, (2, 2)) == series_one(2, 3, (2, 2))


def test_series_from_unit_deviations():
    table = deviations(_denominator_of(variables_product(3, 3, (1, 1, 1))), 3, (1, 1, 1))
    P = series_from_deviations(table, 3, 3, (1, 1, 1))
    assert P == variables_product(3, 3, (1, 1, 1))


def test_series_from_deviations_matches_the_factorwise_product():
    # random tables with exponents of both signs, entries of t-degree past
    # tmax, multidegrees outside the box and one multidegree at several n
    rng = random.Random(2207)
    for _ in range(150):
        num_vars = rng.randint(1, 3)
        tmax = rng.randint(0, 7)
        ybound = tuple(rng.randint(0, 3) for _ in range(num_vars))
        table = {}
        for _ in range(rng.randint(0, 7)):
            j = tuple(rng.randint(0, b + 1) for b in ybound)
            for n in rng.sample(range(1, tmax + 3), min(tmax + 2, rng.choice([1, 1, 2, 3]))):
                table[(n, j)] = rng.choice([-3, -2, -1, 1, 1, 2, 3])
        expected = factorwise_product(table, num_vars, tmax, ybound)
        assert series_from_deviations(table, num_vars, tmax, ybound) == expected, table


def test_series_from_deviations_builds_one_series_and_multiplies_none(monkeypatch):
    Q, bound, P = _slack_box_series(minimalize(rp2_generators(), 6), 7, 0)
    table = deviations(Q, 7, bound)
    calls = {"built": 0, "series_mul": 0}
    real_check = BigradedSeries.__post_init__

    def counted_check(self):
        calls["built"] += 1
        real_check(self)

    def counted_mul(*args):
        calls["series_mul"] += 1
        return series_mul(*args)
    monkeypatch.setattr(BigradedSeries, "__post_init__", counted_check)
    monkeypatch.setattr(series, "series_mul", counted_mul)
    assert series_from_deviations(table, 6, 7, P.ybound) == P
    assert calls == {"built": 1, "series_mul": 0}


def test_candidate_terms_closing_examples():
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    assert candidate_terms(I) == {
        (-1, 2, (2, 0, 0)),
        (-1, 2, (0, 2, 1)),
        (1, 4, (2, 2, 1)),
    }
    Ip = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    assert candidate_terms(Ip) == {
        (-1, 2, (1, 2, 0)),
        (-1, 2, (1, 0, 2)),
        (-1, 3, (1, 2, 2)),
    }
    principal = minimalize([(2, 1)], 2)
    assert candidate_terms(principal) == {(-1, 2, (2, 1))}


def test_candidate_terms_match_brute_force():
    for ideal in [minimalize([], 2), *random_corpus(40, seed=71)]:
        assert candidate_terms(ideal) == brute_candidate_terms(ideal)


def _block_ideal(seed):
    """Generators in 3 or 4 disjoint blocks of 2 or 3 variables, each block
    holding at least one, so the GCD graph has at least 3 components."""
    rng = random.Random(seed)
    sizes = [rng.choice([2, 3]) for _ in range(rng.choice([3, 4]))]
    n, gens, start = sum(sizes), [], 0
    for size in sizes:
        for _ in range(rng.randint(1, 3)):
            g = [0] * n
            for _ in range(rng.randint(1, 3)):
                g[start + rng.randrange(size)] += 1
            gens.append(g)
        start += size
    return minimalize(gens, n)


def _star(k, centre):
    """The edge ideal of a star: x_centre * x_i for the k other variables."""
    return minimalize([tuple(int(v in (centre, i)) for v in range(k + 1))
                       for i in range(k + 1) if i != centre], k + 1)


def test_candidate_terms_match_the_subset_tables():
    # the stars and the polarized powers are Taylor-minimal or squarefree in
    # many variables: every subset of their generators is connected

    powers = [minimalize([m for m in product(range(d + 1), repeat=k) if sum(m) == d], k)
              for k, d in ((3, 2), (3, 3), (3, 4), (5, 2))]
    blocks = [_block_ideal(seed) for seed in range(30)]
    for ideal in blocks:
        assert connected_components_lJ(ideal, range(ideal.num_generators)) >= 3, ideal
    cases = [*wide_lattice_cases(), *(random_antichain(14, 5, 4, seed) for seed in range(5)),
             *(cycle_ideal(n) for n in range(4, 17)), minimalize(rp2_generators(), 6), D10,
             *LINEAR, *powers, minimalize([], 3), minimalize([(2, 1)], 2), *blocks,
             _star(10, 0), _star(10, 10), polarize(powers[2]).ideal, polarize(powers[3]).ideal]
    for ideal in cases:
        assert candidate_terms(ideal) == table_candidate_terms(ideal), ideal


def _first_component(ideal, J):
    """The GCD-graph component of J holding a generator in the lowest
    variable of m_J."""
    gens = ideal.generators
    v = min(i for i, e in enumerate(lcm_of_subset(ideal, J)) if e)
    comp = {i for i in J if gens[i][v]}
    while grown := {i for i in J if i not in comp
                    and any(not coprime(gens[i], gens[k]) for k in comp)}:
        comp |= grown
    return sorted(comp)


def test_candidate_term_lemmas_on_all_subsets():
    # the facts behind candidate_terms: connected sizes form an interval,
    # and the first component splits off, coprime to the rest
    cases = [*random_corpus(), *(cycle_ideal(n) for n in range(5, 9)),
             minimalize(rp2_generators(), 6)]
    for ideal in cases:
        gens, r = ideal.generators, ideal.num_generators
        sizes, lcms = {}, {}
        for J in all_subsets(r)[1:]:
            m = lcms[J] = lcm_of_subset(ideal, J)
            if connected_components_lJ(ideal, J) == 1:
                sizes.setdefault(m, set()).add(len(J))
        fewest = {ideal.codec.decode(a): k
                  for a, k in series._fewest_connected(ideal.codec.atoms).items()}
        assert fewest == {alpha: min(ks) for alpha, ks in sizes.items()}, ideal
        for alpha, ks in sizes.items():
            below = sum(divides(g, alpha) for g in gens)
            assert ks == set(range(min(ks), below + 1)), (ideal, alpha)
        for J, m in lcms.items():
            first = _first_component(ideal, J)
            alpha = lcms[tuple(first)]
            assert connected_components_lJ(ideal, first) == 1
            # m restricted to the support of alpha is alpha
            assert all(x == a for x, a in zip(m, alpha) if a), (ideal, J)
            rest = [i for i in J if i not in first]
            if rest:
                assert (connected_components_lJ(ideal, rest)
                        == connected_components_lJ(ideal, J) - 1), (ideal, J)
                assert coprime(lcms[tuple(rest)], alpha), (ideal, J)


def test_verify_lcm_coefficients():
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    assert verify_lcm_coefficients(denominator(I), I)
    assert verify_lcm_coefficients(series_one(3, 2, (2, 2, 1)), I)  # Q = 1, vacuous
    fake = series_from_terms(3, 3, (2, 2, 1), [(0, (0, 0, 0), 1), (2, (1, 1, 1), -1)])
    assert not verify_lcm_coefficients(fake, I)


def test_denominator_trivial_and_errors():
    Q = denominator(minimalize([], 2))
    assert Q.coeffs == {(0, (0, 0)): 1}
    # a Poincare series whose box does not reach m_I = (2, 2, 1) holds too
    # little to extract Q from
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    P = poincare_from_denominator(denominator(I), 5, (2, 2, 1)).restrict(5, (2, 2, 0))
    with pytest.raises(InputError, match="too small to extract"):
        denominator_from_poincare(P, I)


def test_denominator_matches_the_resolver_in_box_m_I():
    # the lattice formula against Q read off a resolution of k over R; C8's
    # resolution takes seconds in char 0, so it runs in char 2 only
    cases = [*random_corpus(), *(cycle_ideal(n) for n in range(4, 9)),
             minimalize(rp2_generators(), 6), D10, *LINEAR]
    for ideal in cases:
        for char in (0, 2):
            if ideal.num_vars == 8 and char == 0:
                continue
            assert denominator(ideal, char=char) == resolver_denominator(ideal, char), (ideal, char)


def _random_graph_with_linear_generators(rng):
    """The edges of a random graph on 3-7 vertices, plus x_v for one or two
    of its vertices (their edges drop out when minimalized)."""
    n = rng.randint(3, 7)
    gens = [tuple(1 if k in e else 0 for k in range(n))
            for e in combinations(range(n), 2) if rng.random() < 0.5]
    gens += [tuple(1 if k == v else 0 for k in range(n))
             for v in rng.sample(range(n), rng.randint(1, 2))]
    return minimalize(gens, n)


def test_quadratic_denominators_have_the_koszul_closed_form():
    # ideals generated in degree <= 2 are Koszul (Froberg), so Q does not
    # depend on the field
    rng = random.Random(1975)
    cases = [*(cycle_ideal(n) for n in range(4, 13)),
             *(I for I in random_corpus() if all(total_degree(g) == 2 for g in I.generators)),
             *(_random_graph_with_linear_generators(rng) for _ in range(40))]
    assert len(cases) == 109
    for ideal in cases:
        expected = koszul_quadratic_denominator(ideal)
        for char in (0, 2, 3):
            assert denominator(ideal, char=char) == expected, (ideal, char)


def _power_of_m(num_vars, degree):
    return minimalize([m for m in product(range(degree + 1), repeat=num_vars)
                       if sum(m) == degree], num_vars)


def test_the_stability_test_makes_borel_moves():
    assert is_strongly_stable(_power_of_m(3, 2))
    assert is_strongly_stable(minimalize([(2, 0), (1, 1)], 2))
    assert not is_strongly_stable(minimalize([(0, 2)], 2))  # x1*x2 is missing
    assert not is_strongly_stable(minimalize([(2, 0, 0), (0, 1, 1)], 3))
    assert borel_closure([(0, 2)], 2) == _power_of_m(2, 2)
    assert borel_closure([(0, 1, 1)], 3).generators == ((0, 1, 1), (0, 2, 0), (1, 0, 1),
                                                        (1, 1, 0), (2, 0, 0))


def test_stable_ideals_have_the_eliahou_kervaire_closed_form():
    # strongly stable ideals in m^2: Eliahou-Kervaire Betti numbers, and the
    # Golod denominator (Herzog-Reiner-Welker); neither depends on the field
    rng = random.Random(1990)
    cases = {(n, d): _power_of_m(n, d) for n, d in [*((2, d) for d in range(2, 11)),
                                                    (3, 2), (3, 3), (4, 2)]}
    while len(cases) < 52:  # and 40 distinct closures with at most 12 generators
        n = rng.randint(2, 4)
        monomials = []
        for _ in range(rng.randint(1, 3)):
            m = [0] * n
            for _ in range(rng.randint(2, 5)):
                m[rng.randrange(n)] += 1
            monomials.append(tuple(m))
        ideal = borel_closure(monomials, n)
        if len(ideal.generators) <= 12:
            cases.setdefault((n, ideal.generators), ideal)
    for ideal in cases.values():
        assert is_strongly_stable(ideal), ideal
        expected_q, expected_betti = stable_denominator(ideal), eliahou_kervaire_betti(ideal)
        for char in (0, 2):
            assert denominator(ideal, char=char) == expected_q, (ideal, char)
            assert betti_numbers(ideal, char=char) == expected_betti, (ideal, char)


def _restrictions(ideal):
    """(alpha, I_{<=alpha}) for each alpha in L_I minus 0, where I_{<=alpha} is
    generated by the generators of I that divide alpha."""
    for alpha in build_lcm_lattice(ideal).elements[1:]:
        yield alpha, minimalize([g for g in ideal.generators if divides(g, alpha)],
                                ideal.num_vars)


RESTRICTION_CASES = [*random_corpus(), minimalize(rp2_generators(), 6),
                     *(cycle_ideal(n) for n in range(5, 10))]


@pytest.mark.parametrize("char", [0, 2])
def test_q_restricts_to_the_ideal_below_each_lattice_element(char):
    """The y^alpha coefficient of Q(I), a polynomial in t, is that of
    Q(I_{<=alpha}) for every alpha in L_I minus 0."""
    def at(Q, alpha):
        return {t: c for (t, j), c in Q.terms() if j == alpha}

    for ideal in RESTRICTION_CASES:
        Q = denominator(ideal, char=char)
        for alpha, below in _restrictions(ideal):
            assert at(Q, alpha) == at(denominator(below, char=char), alpha), (ideal, alpha)


@pytest.mark.parametrize("char", [0, 2])
def test_deviations_restrict_to_the_ideal_below_each_lattice_element(char):
    """e_{n,beta}(I) = e_{n,beta}(I_{<=alpha}) for every beta dividing alpha
    and n <= 5; I's table is taken once in box m_I, I_{<=alpha}'s in box alpha."""
    for ideal in RESTRICTION_CASES:
        Q = denominator(ideal, char=char)
        table = deviations(Q, 5, Q.ybound)
        for alpha, below in _restrictions(ideal):
            assert deviations(denominator(below, char=char), 5, alpha) == {
                (n, j): e for (n, j), e in table.items() if divides(j, alpha)}, (ideal, alpha)


def test_denominator_terms_are_candidate_terms():
    # observed, not a theorem the code relies on: every term of t-degree >= 1
    # is ((-1)^l_J, |J| + l_J, m_J) for some subset J
    cases = [*random_corpus(), *(cycle_ideal(n) for n in range(4, 10)),
             minimalize(rp2_generators(), 6)]
    checked = 0
    for ideal in cases:
        cands = candidate_terms(ideal)
        for char in (0, 2):
            for (t, j), c in denominator(ideal, char=char).coeffs.items():
                if t >= 1:
                    assert (1 if c > 0 else -1, t, j) in cands, (ideal, char, t, j, c)
                    checked += 1
    assert checked > 1000


def test_denominator_flags_terms_the_theorems_forbid(monkeypatch):
    I = minimalize([(1, 2, 0), (1, 0, 2)], 3)
    with monkeypatch.context() as patch:
        patch.setattr(series, "in_lcm_lattice", lambda ideal, j: j != (1, 2, 2))
        with pytest.raises(InternalInconsistencyError,
                           match=r"-1\*y\^\(1, 2, 2\)\*t\^3 has a multidegree outside L_I"):
            denominator(I)
    monkeypatch.setattr(series, "_strand_polynomial", lambda cells, char: {6: -1})
    with pytest.raises(InternalInconsistencyError, match=r"-1\*y\^\(1, 0, 2\)\*t\^6 lies above"):
        denominator(I)


def test_denominator_against_numerator_identity():
    # Q * P == prod(1+t y_i) inside the box, for a couple of small ideals
    from monpoincare.resolution import resolve_residue_field
    from monpoincare.core import mdeg_add

    for gens, n in [([(2,)], 1), ([(1, 1), (0, 2)], 2), ([(2, 0, 0), (0, 2, 1)], 3)]:
        I = minimalize(gens, n)
        bound = mdeg_add(I.top_lcm(), (1,) * n)
        tmax = sum(I.top_lcm()) + 1
        P = resolve_residue_field(I, tmax, bound).poincare_series()
        Q = denominator(I)
        Qwide = series_from_terms(n, tmax, bound,
                                  [(t, j, c) for (t, j), c in Q.coeffs.items()])
        assert series_mul(Qwide, P) == variables_product(n, tmax, bound)


def test_denominator_from_poincare_flags_off_lattice_term():
    # (1,1,1) is no lcm of (x1^2, x2^2 x3): a Q carrying it breaks the theorem
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    Q = denominator(I)
    fake = Q + series_from_terms(3, Q.tmax, Q.ybound, [(3, (1, 1, 1), -1)])
    P = poincare_from_denominator(fake, Q.tmax, Q.ybound)
    with pytest.raises(InternalInconsistencyError, match=r"-1\*y\^\(1, 1, 1\)\*t\^3"):
        denominator_from_poincare(P, I)


def test_denominator_from_poincare_flags_term_outside_box_m_I():
    # in the slack box, a term outside box m_I or above t^deg(m_I) keeps
    # prod(1+t*y_i)/Q from reproducing P
    I = minimalize([(2, 0, 0), (0, 2, 1)], 3)
    Q = denominator(I)
    tmax, slack = 6, mdeg_add(I.top_lcm(), (1, 1, 1))
    for extra in [(4, (2, 2, 2)), (6, (2, 2, 1))]:
        terms = [(t, j, c) for (t, j), c in Q.coeffs.items()] + [(*extra, 1)]
        P = poincare_from_denominator(series_from_terms(3, tmax, slack, terms), tmax, slack)
        t, j = extra
        with pytest.raises(InternalInconsistencyError,
                           match=rf"does not reproduce .*: it gives 0\*y\^{re.escape(str(j))}"
                                 rf"\*t\^{t}, where P has -1\*y\^"):
            denominator_from_poincare(P, I)
    assert denominator_from_poincare(poincare_from_denominator(Q, tmax, slack), I) == Q
