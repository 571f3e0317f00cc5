"""Command-line interface: one binary, subcommand per operation.

Each subcommand is declared once, in ``_COMMANDS`` (handler, help, number of
ideal files, options), from which ``build_parser`` builds the parser.  Every
subcommand takes --format; all but candidates take --check; --char (default
0) is taken by all but candidates, taylor, scarf, koszul and polarize, which
compute nothing over a field.  An option a subcommand does not take exits 2.
``main`` parses, refuses a --char that is not 0 or a prime below 3.3e24
(Miller-Rabin), loads the ideal files and calls ``handler(args, *ideals)``.

The denominator Q comes from the lcm lattice alone (``series.denominator``,
no resolution of k over R); the deviations and Golod verdicts follow from Q,
and P = prod(1+t*y_i)/Q is built only by ``poincare`` and under --check,
once per call.  The Betti numbers of S/I and the Golod denominator come
from the same lattice (``series.betti_numbers``).  Only --check resolves k
over R, once per ideal, in the slack box m_I + (1,..,1): an independent
oracle whose Betti numbers must be those of P there (``_resolve_against``);
no Q is read back off it.  Only ``koszul``, ``eagon`` and ``betti --check``
build a complex over R.  The 2^r subset tables are built only for the
strands (Q, the Betti numbers and the Golod denominator); ``candidates``,
``scarf``, ``lattice-iso``, ``polarize``, the verdict of ``golod-generic``
and the Taylor-minimality test of ``q --check`` read the lcm lattice alone,
and ``lattice-iso`` and ``polarize`` decode its elements only for
--transport.

Besides that resolution, --check compares: for ``q``, Q's terms with the
candidate terms on Taylor-minimal and Golod rings; for ``golod``, the same
when the verdict is exact and Golod (the verdict, Q against the Golod
denominator, is itself the certificate); for ``golod-generic``, the Scarf
criterion with that verdict; for ``poincare``, the resolution's d o d and
exactness; for ``deviations``, the series they expand to with the
resolution's P; for ``betti``, the strands with the Koszul homology of R;
for the complex commands, d o d (and exactness for ``eagon``); for
``polarize``, the depolarization and the GCD-graph isomorphism.  That Q's
terms lie on L_I minus 0 is checked on every call, with or without --check,
and so are the theorems on low deviations for ``deviations``
(``_check_deviation_identities``).

Exit codes: 0 success, 1 verification failure (a requested check did not
hold), 2 input error (bad file, bad arguments, violated precondition), 3
internal error (a theorem-guaranteed property failed, i.e. a bug), 141
(128 + SIGPIPE) stdout closed before all output was written.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import (
    InputError,
    InternalInconsistencyError,
    coprime,
    load_ideal,
    mdeg_add,
    monomial_str,
    polarize,
    total_degree,
    unit_mdeg,
)
from .complexes import (
    homology,
    is_taylor_minimal,
    koszul_complex,
    scarf_complex,
    taylor_complex,
)
from .lattice import (
    find_lattice_isomorphisms,
    polarization_lattice_map,
    transport_denominator,
)
from .resolution import (
    eagon_resolution,
    golod_denominator,
    is_golod_generic,
    is_golod_truncated,
    koszul_homology_dims,
    resolve_residue_field,
)
from .series import (
    betti_numbers,
    candidate_terms,
    denominator,
    deviations,
    first_difference,
    poincare_from_denominator,
    series_from_deviations,
    verify_lcm_coefficients,
)


class VerificationFailure(Exception):
    """A --check (or verify-style subcommand) found a violated property."""


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _print_series(Q, ideal, fmt, title):
    names = tuple(f"y{i + 1}" for i in range(ideal.num_vars))
    if fmt == "json":
        _emit_json({"ideal": ideal.to_dict(), **Q.to_json_dict()})
        return
    print(f"{title} = {Q.render(names)}")
    print(f"{'t':>3}  {'coeff':>6}  y-multidegree")
    for (t, j), c in Q.terms():
        print(f"{t:>3}  {c:>6}  {monomial_str(j, names)} {list(j)}")


def _print_betti(table, ideal, fmt, what):
    rows = sorted(table.items())
    if fmt == "json":
        _emit_json({"ideal": ideal.to_dict(), "what": what,
                    "table": [{"i": i, "y": list(j), "dim": d} for (i, j), d in rows]})
        return
    print(f"{what} ({ideal})")
    print(f"{'i':>3}  {'dim':>4}  multidegree")
    for (i, j), d in rows:
        print(f"{i:>3}  {d:>4}  {monomial_str(j, ideal.var_names)} {list(j)}")


def _ranks_payload(C):
    return [{"i": i, "rank": len(m),
             "multidegrees": sorted(list(d) for d in m)} for i, m in enumerate(C.modules)]


def _print_complex(C, ideal, fmt, what):
    if fmt == "json":
        _emit_json({"ideal": ideal.to_dict(), "what": what, "modules": _ranks_payload(C)})
        return
    print(f"{what}: ranks {C.ranks()}")
    for i, module in enumerate(C.modules):
        degs = ", ".join(monomial_str(j, C.ring.var_names) for j in module)
        print(f"  degree {i} (rank {len(module)}): {degs if degs else '-'}")


def _default_tmax(ideal, extra=1):
    return total_degree(ideal.top_lcm()) + extra


def _slack_bound(ideal):
    return mdeg_add(ideal.top_lcm(), (1,) * ideal.num_vars)


def _resolve_once(ideal, args, slack_tmax):
    """Q from the lcm lattice, and under --check the one resolution of k over
    R that a command makes.

    Without --check: (Q, None), and nothing is resolved.  With --check: (Q,
    the resolution that ``_resolve_against`` compares with prod(1+t*y_i)/Q
    in the slack box m_I + (1,..,1) up to ``slack_tmax``).
    """
    Q = denominator(ideal, char=args.char)
    if not args.check:
        return Q, None
    return Q, _resolve_against(ideal, args.char,
                               poincare_from_denominator(Q, slack_tmax, _slack_bound(ideal)))


def _resolve_against(ideal, char, P):
    """The resolution of k over R in P's box (every caller's is the slack box
    m_I + (1,..,1)) up to P's t-degree, whose Betti numbers must be those of
    P = prod(1+t*y_i)/Q; a difference is an internal error naming the first
    one in (t, lex) order.

    This is as strong as reading a second Q off the resolution.  The map
    P -> prod(1+t*y_i)/P is a bijection on series with constant term 1, and
    truncation to a box is a quotient map, so the resolution's P is
    prod(1+t*y_i)/Q in the slack box exactly when the Q read off that P in
    box m_I equals the lattice Q through t^min(P.tmax, deg m_I) and
    reproduces all of P.  At the first key where the two P differ, their
    difference is minus that of the two Q, so the term named is the one where
    the two Q first differ.
    """
    res = resolve_residue_field(ideal, P.tmax, P.ybound, char)
    diff = first_difference(P, res.poincare_series())
    if diff:
        t, j, expected, resolved = diff
        raise InternalInconsistencyError(
            f"prod(1+t*y_i)/Q with Q from the lcm lattice has {expected}*y^{j}*t^{t}, but "
            f"the resolution in box {res.bound} has rank {resolved} in homological degree "
            f"{t}, multidegree {j}")
    return res


def _exact_denominator(ideal, args, tmax=None):
    """The whole of Q, for q, verify-lcm and lattice-iso.  ``tmax`` (the
    --tmax of q and verify-lcm; lattice-iso has none) may not be below
    deg m_I, and it only sets how far --check resolves: to deg m_I + 1 when
    it is None."""
    degree_bound = _default_tmax(ideal, 0)
    if tmax is not None and tmax < degree_bound:
        raise InputError(
            f"tmax {tmax} is below deg m_I = {degree_bound}; denominator would be truncated")
    return _resolve_once(ideal, args, tmax if tmax is not None else degree_bound + 1)[0]


def _check_complex(C, what):
    C.validate()
    bad = C.d_squared_violations()
    if bad:
        raise VerificationFailure(f"{what}: d o d != 0 at {bad[:5]}")


def _check_candidate_terms(Q, ideal):
    """Every term of Q of t-degree >= 1 coprime to the linear generators (Q of
    the ideal with them split off, where the statement holds) is a candidate."""
    cands = candidate_terms(ideal)
    linear = [g for g in ideal.generators if total_degree(g) == 1]
    for (t, j), c in Q.terms():
        if (t >= 1 and all(coprime(j, g) for g in linear)
                and ((1 if c > 0 else -1), t, j) not in cands):
            raise VerificationFailure(f"term {c} t^{t} y^{j} not a candidate term")


def cmd_q(args, ideal):
    Q = _exact_denominator(ideal, args, args.tmax)
    _print_series(Q, ideal, args.format, "Q")
    if args.check:
        # stated for Taylor-minimal and Golod rings; Golodness is tested in m^2 only
        in_m_squared = all(total_degree(g) > 1 for g in ideal.generators)
        if is_taylor_minimal(ideal) or in_m_squared and is_golod_truncated(
                ideal, _default_tmax(ideal, 2), args.char, Q):
            _check_candidate_terms(Q, ideal)
    return 0


def cmd_poincare(args, ideal):
    tmax = args.tmax if args.tmax is not None else _default_tmax(ideal, 2)
    bound = _slack_bound(ideal)
    # dim Tor_i^R(k,k)_j is the coefficient of t^i y^j in P; --check
    # compares the resolution with this same P
    P = poincare_from_denominator(denominator(ideal, char=args.char), tmax, bound)
    res = _resolve_against(ideal, args.char, P) if args.check else None
    _print_betti(P.coeffs, ideal, args.format,
                 f"Tor^R(k,k) to t-degree {tmax}, multidegrees <= {list(bound)}")
    if args.check:
        _check_complex(res.complex, "residue field resolution")
        H = homology(res.complex, res.bound, args.char)
        for i in range(1, tmax):
            if H.get(i):
                raise VerificationFailure(f"resolution not exact at degree {i}: {H[i]}")
    return 0


def _check_deviation_identities(table, ideal, nmax):
    """The theorems on low deviations (Avramov, "Infinite free resolutions",
    1998, section 7), each for n <= nmax: every e_{n,j} >= 0; e_1 is 1
    exactly at the variables that are not linear generators; e_2 is 1
    exactly at the non-linear minimal generators, those of I with its linear
    generators split off.  A violation is an internal error naming n, the
    multidegree and the value."""
    linear = {g for g in ideal.generators if total_degree(g) == 1}
    units = [unit_mdeg(ideal.num_vars, i) for i in range(ideal.num_vars)]
    want = {(n, j): 1 for n, js in ((1, units), (2, ideal.generators)) if n <= nmax
            for j in js if j not in linear}
    where = {1: "the variables that are not linear generators",
             2: "the non-linear minimal generators"}
    for n, j in sorted(table.keys() | want.keys()):
        e = table.get((n, j), 0)
        if e < 0:
            raise InternalInconsistencyError(f"deviation at n={n}, y^{j} is {e} < 0")
        if n in where and e != want.get((n, j), 0):
            raise InternalInconsistencyError(
                f"deviation at n={n}, y^{j} is {e}, but e_{n} is 1 exactly at {where[n]}")


def cmd_deviations(args, ideal):
    nmax = args.nmax
    if nmax < 0:
        raise InputError(f"--nmax must be non-negative, got {nmax}")
    bound = _slack_bound(ideal)
    Q, res = _resolve_once(ideal, args, nmax)
    table = deviations(Q, nmax, bound)
    _check_deviation_identities(table, ideal, nmax)
    rows = sorted(table.items())
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(), "nmax": nmax,
                    "deviations": [{"n": n, "y": list(j), "e": e} for (n, j), e in rows]})
    else:
        print(f"multigraded deviations to order {nmax} ({ideal})")
        print(f"{'n':>3}  {'e':>4}  multidegree")
        for (n, j), e in rows:
            print(f"{n:>3}  {e:>4}  {monomial_str(j, ideal.var_names)} {list(j)}")
    if args.check:
        # the resolution's Betti table, which _resolve_once found to be P
        diff = first_difference(series_from_deviations(table, ideal.num_vars, nmax, bound),
                                res.poincare_series())
        if diff:
            t, j, expanded, given = diff
            raise VerificationFailure(f"deviations do not reproduce the Poincare series at "
                                      f"t^{t}*y^{j}: they give {expanded}, P has {given}")
    return 0


def cmd_candidates(args, ideal):
    rows = sorted(candidate_terms(ideal), key=lambda x: (x[1], x[2], x[0]))
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(),
                    "candidates": [{"sign": s, "t": t, "y": list(j)} for s, t, j in rows]})
    else:
        print(f"candidate denominator terms ({ideal})")
        print(f"{'sign':>4}  {'t':>3}  multidegree")
        for s, t, j in rows:
            print(f"{s:>4}  {t:>3}  {monomial_str(j, ideal.var_names)} {list(j)}")
    return 0


def cmd_verify_lcm(args, ideal):
    Q = _exact_denominator(ideal, args, args.tmax)
    ok = verify_lcm_coefficients(Q, ideal)
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(), "all_terms_are_subset_lcms": ok})
    else:
        print("all denominator multidegrees are subset lcms" if ok
              else "FAIL: some denominator multidegree is not a subset lcm")
    if not ok:
        raise VerificationFailure("verify-lcm failed")
    return 0


def _complex_command(args, ideal, C, what):
    _print_complex(C, ideal, args.format, what)
    if args.check:
        _check_complex(C, what)
    return 0


def cmd_taylor(args, ideal):
    return _complex_command(args, ideal, taylor_complex(ideal), "Taylor complex over S")


def cmd_scarf(args, ideal):
    return _complex_command(args, ideal, scarf_complex(ideal), "Scarf complex over S")


def cmd_koszul(args, ideal):
    return _complex_command(args, ideal, koszul_complex(ideal), "Koszul complex over R")


def cmd_betti(args, ideal):
    table = betti_numbers(ideal, args.char)
    _print_betti(table, ideal, args.format, "multigraded Betti numbers of S/I over S")
    # Tor_i^S(S/I, k)_j = H_i(Koszul complex over R)_j, all inside the box m_I
    if args.check and koszul_homology_dims(ideal, args.char) != table:
        raise VerificationFailure("the Betti numbers from the lcm-lattice strands disagree "
                                  "with the Koszul homology of R")
    return 0


def cmd_golod(args, ideal):
    tmax = args.tmax if args.tmax is not None else _default_tmax(ideal, 2)
    bound = _slack_bound(ideal)
    # golod_denominator refuses a linear generator, and a tmax below 2 is
    # refused here, both before --check resolves anything
    Qg = golod_denominator(ideal, char=args.char)
    if tmax < 2:
        raise InputError("a Golod certificate needs tmax >= 2")
    # the slack resolution must reach t = deg m_I + 1 to check Q's t-degree
    Q, _ = _resolve_once(ideal, args, max(tmax, _default_tmax(ideal)))
    verdict = is_golod_truncated(ideal, tmax, args.char, Q, Qg)
    exact = tmax >= _default_tmax(ideal, 0)
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(), "tmax": tmax, "bound": list(bound),
                    "golod_certified_to_truncation": verdict})
    else:
        state = "IS" if verdict else "is NOT"
        scope = "exact" if exact else "certificate is truncation-bounded"
        print(f"R {state} Golod up to t-degree {tmax}, multidegrees <= {list(bound)} ({scope})")
    # the candidate-term property is stated for Golod rings, which a
    # truncation-bounded verdict does not establish
    if args.check and verdict and exact:
        _check_candidate_terms(Q, ideal)
    return 0


def cmd_golod_generic(args, ideal):
    verdict = is_golod_generic(ideal)
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(), "golod": verdict})
    else:
        print(f"generic ideal; R {'IS' if verdict else 'is NOT'} Golod")
    if args.check:
        tmax = _default_tmax(ideal, 2)
        Q, _ = _resolve_once(ideal, args, tmax)
        if verdict != is_golod_truncated(ideal, tmax, args.char, Q):
            raise VerificationFailure("generic criterion disagrees with truncated certificate")
    return 0


def cmd_eagon(args, ideal):
    Y = eagon_resolution(ideal, args.imax, args.char)
    ideal_names = ideal.var_names
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(), "imax": args.imax, "modules": _ranks_payload(Y)})
    else:
        print(f"Eagon-style resolution of k over R = S/{ideal}, ranks {Y.ranks()}")
        for i, lab in enumerate(Y.labels):
            pretty = ["e[{}]*{}".format(
                ",".join(ideal_names[v] for v in S) or "1",
                "@".join("T" + str(list(f)) for f in chain) or "1") for S, chain in lab]
            print(f"  degree {i}: {'; '.join(pretty)}")
    if args.check:
        _check_complex(Y, "Eagon resolution")
        H = homology(Y, _slack_bound(ideal), args.char)
        for i in range(1, args.imax):
            if H.get(i):
                raise VerificationFailure(f"Eagon resolution not exact at degree {i}: {H[i]}")
    return 0


def cmd_lattice_iso(args, A, B):
    isos = find_lattice_isomorphisms(A, B)
    payload = []
    for m in isos:
        pairing = [[A.generator_str(A.generators[i]), B.generator_str(B.generators[k])]
                   for i, k in enumerate(m.atom_map)]
        payload.append({"atoms": pairing, "gcd_preserving": m.gcd_preserving})
    transported_out = []
    mismatch = None
    if args.transport and isos:
        QA = _exact_denominator(A, args)
        QB = _exact_denominator(B, args)
        linear_A, linear_B = ({k for k, g in enumerate(I.generators) if total_degree(g) == 1}
                              for I in (A, B))
        for idx, (m, item) in enumerate(zip(isos, payload)):
            T = transport_denominator(QA, m)
            transported_out.append(T)
            # Q is transported only where the linear generators, which split
            # off the factors 1 + t*y_i, correspond; deg m_I, Q's
            # t-truncation, may differ between the two ideals
            item["transport_compared"] = compared = (
                m.gcd_preserving and {m.atom_map[i] for i in linear_A} == linear_B)
            if mismatch is None and compared and T.coeffs != QB.coeffs:
                mismatch = idx
    if args.format == "json":
        doc = {"count": len(isos), "isomorphisms": payload}
        if args.transport:
            doc["transported"] = [T.to_json_dict() for T in transported_out]
        _emit_json(doc)
    else:
        print(f"{len(isos)} lattice isomorphism(s) from L_{A} to L_{B}")
        for k, item in enumerate(payload):
            arrows = ", ".join(f"{a} -> {b}" for a, b in item["atoms"])
            skipped = "" if item.get("transport_compared", True) else " (not compared)"
            print(f"  [{k}] {arrows}   gcd_preserving={item['gcd_preserving']}{skipped}")
            if args.transport:
                names = tuple(f"y{i+1}" for i in range(B.num_vars))
                print(f"      transported Q = {transported_out[k].render(names)}")
    if mismatch is not None:
        raise VerificationFailure(
            f"isomorphism [{mismatch}] preserves GCD graphs but transported Q differs")
    return 0


def cmd_polarize(args, ideal):
    pol = polarize(ideal)
    if args.format == "json":
        _emit_json({"ideal": ideal.to_dict(), "polarized": pol.ideal.to_dict(),
                    "arities": list(pol.arities)})
    else:
        print(f"polarization of {ideal}: {pol.ideal}")
        print(f"  variables: {', '.join(pol.ideal.var_names)}")
    if args.check:
        from .core import minimalize
        back = minimalize([pol.backward(g) for g in pol.ideal.generators],
                          ideal.num_vars, ideal.var_names)
        if back.generators != ideal.generators:
            raise VerificationFailure("depolarization does not recover the ideal")
        if not polarization_lattice_map(pol).gcd_preserving:
            raise VerificationFailure("polarization map is not a GCD-graph isomorphism")
    return 0


# Miller-Rabin with these bases decides primality exactly below the limit
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Miller-Rabin with every one of _PRIME_BASES as a witness; exact for
    p < _PRIME_LIMIT, in O(log p) multiplications per base."""
    if p < 2:
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if p != a and x != 1 and all(pow(x, 1 << k, p) != p - 1 for k in range(s)):
            return False
    return True


_EXACT_TMAX = {"--tmax": {"type": int, "help": "t-degree bound, at least deg m_I (default: "
                          "deg m_I; --check resolves to deg m_I + 1, or to a larger tmax)"}}
_TMAX = {"--tmax": {"type": int, "help": "t-degree bound (default: deg m_I + 2)"}}
_CHECK = {"--check": {"action": "store_true",
                      "help": "also run the invariant suite for this operation"}}
_CHAR_CHECK = {"--char": {"type": int, "help": "coefficient field characteristic (0 or a prime)"},
               **_CHECK}
# name -> (handler, help, number of ideal files, {option flag: add_argument
# keywords}); main calls handler(args, *ideals) with the loaded files
_COMMANDS = {
    "q": (cmd_q, "denominator Q_R(y,t) of the Poincare series", 1,
          _EXACT_TMAX | _CHAR_CHECK),
    "poincare": (cmd_poincare, "multigraded Betti numbers of k over R", 1, _TMAX | _CHAR_CHECK),
    "deviations": (cmd_deviations, "multigraded deviations from the Poincare series", 1,
                   {"--nmax": {"type": int, "default": 6,
                               "help": "largest n of e_{n,j} (default: %(default)s)"},
                    **_CHAR_CHECK}),
    "candidates": (cmd_candidates, "signed subset-lcm candidate terms for Q", 1, {}),
    "verify-lcm": (cmd_verify_lcm, "check every Q multidegree is a subset lcm", 1,
                   _EXACT_TMAX | _CHAR_CHECK),
    "taylor": (cmd_taylor, "Taylor complex of S/I over S", 1, _CHECK),
    "scarf": (cmd_scarf, "Scarf complex of I over S", 1, _CHECK),
    "koszul": (cmd_koszul, "Koszul complex over R = S/I", 1, _CHECK),
    "betti": (cmd_betti, "multigraded Betti numbers of S/I over S", 1, _CHAR_CHECK),
    "golod": (cmd_golod, "Golod certificate: Q against the Golod denominator to t-degree tmax",
              1, _TMAX | _CHAR_CHECK),
    "golod-generic": (cmd_golod_generic,
                      "Golod criterion for generic ideals (Scarf splittings)", 1, _CHAR_CHECK),
    "eagon": (cmd_eagon, "Eagon-style resolution of k over R for generic I", 1,
              {"--imax": {"type": int, "default": 6,
                          "help": "homological degree bound (default: %(default)s)"},
               **_CHAR_CHECK}),
    "lattice-iso": (cmd_lattice_iso, "lattice isomorphisms between two ideals' LCM lattices", 2,
                    {"--transport": {"action": "store_true", "help": "also transport the "
                                     "denominator along each isomorphism"},
                     **_CHAR_CHECK}),
    "polarize": (cmd_polarize, "polarization to a squarefree ideal", 1, _CHECK),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (a parser is reusable)."""
    parser = argparse.ArgumentParser(
        prog="monpoincare",
        description="Poincare series denominators, deviations, Golod certificates and "
                    "resolutions for monomial quotient rings (exact arithmetic).")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, helptext, nfiles, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(char=0, check=False)  # main and the handlers read both
        p.add_argument("paths", nargs=nfiles, metavar="IDEAL.json",
                       help='ideal file: {"vars": [...], "gens": [[...], ...]}')
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", "-f", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    """Parse, check --char, load the ideal files and run the subcommand's
    handler; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.char >= _PRIME_LIMIT:
            raise InputError(f"characteristic {args.char} is too large; the limit is "
                             f"{_PRIME_LIMIT}")
        if args.char and not _is_prime(args.char):
            raise InputError(f"characteristic must be 0 or a prime, got {args.char}")
        code = _COMMANDS[args.subcommand][0](args, *map(load_ideal, args.paths))
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:  # the flush at exit then writes to devnull, and cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
