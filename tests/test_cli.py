import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from monpoincare import cli, resolution, series
from monpoincare.cli import build_parser, main
from monpoincare.core import (SUBSET_TABLE_MAX_GENERATORS, InternalInconsistencyError,
                              minimalize)
from monpoincare.series import series_from_terms

from helpers import D10_GENERATORS, LINEAR, cycle_ideal, rp2_generators


@pytest.fixture
def ideal_file(tmp_path):
    def write(name, vars_, gens):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vars": vars_, "gens": gens}))
        return str(path)
    return write


@pytest.fixture
def closing_pair(ideal_file):
    a = ideal_file("I", ["x1", "x2", "x3"], [[2, 0, 0], [0, 2, 1]])
    b = ideal_file("Ip", ["x1", "x2", "x3"], [[1, 2, 0], [1, 0, 2]])
    return a, b


@pytest.fixture
def rp2(ideal_file):
    """Stanley-Reisner ideal of RP^2_6: its 10 non-face triples."""
    return ideal_file("rp2", [f"x{v}" for v in range(1, 7)],
                      [list(g) for g in rp2_generators()])


def test_q_closing_example_table(closing_pair, capsys):
    _, b = closing_pair
    assert main(["q", b]) == 0
    out = capsys.readouterr().out
    assert "Q = 1 - t^2*y1*y3^2 - t^2*y1*y2^2 - t^3*y1*y2^2*y3^2" in out


def test_q_empty_ideal(ideal_file, capsys):
    path = ideal_file("empty", ["x", "y"], [])
    assert main(["q", path]) == 0
    assert "Q = 1" in capsys.readouterr().out


def test_q_json_stable(closing_pair, capsys):
    a, _ = closing_pair
    assert main(["q", a, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["q", a, "-f", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert {"t": 4, "y": [2, 2, 1], "c": 1} in doc["terms"]


def test_q_check_passes(closing_pair):
    a, b = closing_pair
    assert main(["q", a, "--check"]) == 0
    assert main(["q", b, "--check"]) == 0


def test_lattice_iso_closing_pair(closing_pair, capsys):
    a, b = closing_pair
    assert main(["lattice-iso", a, b, "--transport"]) == 0
    out = capsys.readouterr().out
    assert "2 lattice isomorphism(s)" in out
    assert "gcd_preserving=False" in out
    assert "gcd_preserving=True" not in out


def test_lattice_iso_json(closing_pair, capsys):
    a, b = closing_pair
    assert main(["lattice-iso", a, b, "-f", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert all(not iso["gcd_preserving"] for iso in doc["isomorphisms"])


def test_lattice_iso_transport_consistency_self(closing_pair):
    a, _ = closing_pair
    # identity isomorphism is gcd-preserving; transported Q must match
    assert main(["lattice-iso", a, a, "--transport"]) == 0


def test_poincare_and_deviations(closing_pair, capsys):
    _, b = closing_pair
    assert main(["poincare", b, "--tmax", "4", "--check"]) == 0
    out = capsys.readouterr().out
    assert "Tor^R(k,k)" in out
    assert main(["deviations", b, "--nmax", "4", "--check"]) == 0


def test_candidates_and_verify_lcm(closing_pair, capsys):
    a, _ = closing_pair
    assert main(["candidates", a]) == 0
    out = capsys.readouterr().out
    assert "candidate denominator terms" in out
    assert main(["verify-lcm", a]) == 0


def test_complex_subcommands(closing_pair, ideal_file, capsys):
    a, _ = closing_pair
    for sub in ("taylor", "scarf", "koszul", "betti"):
        assert main([sub, a, "--check"]) == 0, sub
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    assert main(["scarf", gen]) == 0
    assert "ranks [1, 3, 2]" in capsys.readouterr().out


def test_golod_subcommands(closing_pair, ideal_file, capsys):
    a, b = closing_pair
    assert main(["golod", b, "--check"]) == 0
    assert "IS Golod" in capsys.readouterr().out
    assert main(["golod", a]) == 0
    assert "is NOT Golod" in capsys.readouterr().out
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    assert main(["golod-generic", gen, "--check"]) == 0
    # non-generic input is a precondition violation: exit 2
    assert main(["golod-generic", b]) == 2


def test_golod_explicit_tmax_on_rp2(rp2, capsys):
    # the Golod denominator has terms above t^3; they cannot change P mod t^4
    assert main(["golod", rp2, "--tmax", "3", "-f", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["golod_certified_to_truncation"]


@pytest.mark.parametrize("char", ["0", "2"])
def test_q_check_on_rp2_resolves_the_slack_box(rp2, char, capsys):
    # RP^2 is not Golod and its Q depends on the characteristic; --check
    # resolves k over R in the 729-cell slack box up to t^6
    assert main(["q", rp2, "--tmax", "6", "--char", char, "--check"]) == 0
    assert "Q = 1" in capsys.readouterr().out


def test_betti_depends_on_the_characteristic(rp2, capsys):
    tables = {}
    for p in ("0", "2"):
        assert main(["betti", rp2, "--char", p, "--check", "-f", "json"]) == 0
        tables[p] = {(e["i"], tuple(e["y"])): e["dim"]
                     for e in json.loads(capsys.readouterr().out)["table"]}
    # Hochster: H~_1 and H~_2 of RP^2 vanish over Q and are k over GF(2)
    ones = (1,) * 6
    assert len(tables["0"]) == 32
    assert tables["2"] == {**tables["0"], (3, ones): 1, (4, ones): 1}


def test_betti_check_compares_the_strands_with_the_koszul_homology(closing_pair, monkeypatch,
                                                                   capsys):
    a, _ = closing_pair
    real = cli.betti_numbers
    monkeypatch.setattr(cli, "betti_numbers",
                        lambda ideal, char=0: {**real(ideal, char), (2, (2, 2, 1)): 2})
    assert main(["betti", a, "--check"]) == 1
    assert "disagree with the Koszul homology" in capsys.readouterr().err
    assert main(["betti", a]) == 0  # only --check consults the oracle
    capsys.readouterr()


def _linear_ideal_files(ideal_file):
    """(x), (x, y), (x, y^2) and the LINEAR ideals of the tests, as files."""
    ideals = [([1],), ([1, 0], [0, 1]), ([1, 0], [0, 2])]
    ideals += [tuple(list(g) for g in ideal.generators) for ideal in LINEAR]
    return [ideal_file(f"linear{k}", [f"x{i + 1}" for i in range(len(gens[0]))], list(gens))
            for k, gens in enumerate(ideals)]


@pytest.mark.parametrize("char", ["0", "2"])
def test_q_check_on_ideals_with_a_linear_generator(ideal_file, char, capsys):
    # a linear generator x_i splits off the factor 1 + t*y_i, which is no
    # candidate term; the terms coprime to it still are
    for path in _linear_ideal_files(ideal_file):
        assert main(["q", path, "--check", "--char", char]) == 0, path
    capsys.readouterr()


def test_golod_tests_refuse_a_linear_generator(ideal_file, capsys):
    # the Golod tests are stated for I inside m^2: exit 2 naming the generator
    for path in _linear_ideal_files(ideal_file)[:3]:
        for argv in (["golod", path], ["golod-generic", path]):
            for flag in ([], ["--check"]):
                assert main(argv + flag) == 2, argv + flag
                assert "Golod tests need I in m^2; x" in capsys.readouterr().err, argv + flag


@pytest.fixture
def resolve_calls(monkeypatch):
    """Every resolution of k over R as (tmax, bound), whichever binding is used."""
    from monpoincare import resolution, series

    calls = []
    real = resolution.resolve_residue_field

    def counted(ideal, tmax, bound=None, char=0):
        res = real(ideal, tmax, bound, char)
        calls.append((tmax, res.bound))
        return res

    for mod in (cli, resolution, series):
        monkeypatch.setattr(mod, "resolve_residue_field", counted, raising=False)
    return calls


@pytest.mark.parametrize("check", [False, True])
def test_each_command_resolves_at_most_once(closing_pair, ideal_file, resolve_calls, check,
                                            capsys):
    a, b = closing_pair
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    # the slack box m_I + (1,..,1); m_I = x1^2 x2^2 x3, x1 x2^2 x3^2 or x^3 y^2
    slack = {a: (3, 3, 2), b: (2, 3, 3), gen: (4, 3)}
    flag = ["--check"] if check else []
    for argv in (["q", a], ["q", b], ["verify-lcm", a], ["golod", a], ["golod", b],
                 ["golod", b, "--tmax", "3"], ["deviations", b, "--nmax", "4"],
                 ["poincare", b, "--tmax", "4"], ["golod-generic", gen],
                 ["lattice-iso", a, b, "--transport"]):
        resolve_calls.clear()
        assert main(argv + flag) == 0, argv
        # Q comes from the lattice; only --check resolves, once per ideal
        ideals = argv[1:3] if argv[0] == "lattice-iso" else argv[1:2]
        assert [bound for _, bound in resolve_calls] == (
            [slack[path] for path in ideals] if check else []), argv
    capsys.readouterr()


def _check_flag(command, check):
    """["--check"] where asked for and the subcommand declares it."""
    return ["--check"] if check and "--check" in cli._COMMANDS[command][3] else []


@pytest.mark.parametrize("check", [False, True])
def test_only_koszul_eagon_and_betti_check_build_the_koszul_complex(closing_pair, ideal_file,
                                                                    monkeypatch, check, capsys):
    from monpoincare import complexes, resolution

    calls = []
    real = complexes.koszul_complex

    def counted(ring):
        calls.append(ring)
        return real(ring)

    for mod in (cli, complexes, resolution):
        monkeypatch.setattr(mod, "koszul_complex", counted)
    a, b = closing_pair
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    builders = {"koszul", "eagon", "betti"} if check else {"koszul", "eagon"}
    for command in cli._COMMANDS:
        paths = [a, b] if command == "lattice-iso" else [gen if "golod" in command
                                                         or command == "eagon" else b]
        calls.clear()
        assert main([command, *paths, *_check_flag(command, check)]) == 0, command
        assert bool(calls) == (command in builders), command
    capsys.readouterr()


def test_q_tmax_above_deg_m_I_changes_nothing(closing_pair, resolve_calls, capsys):
    a, _ = closing_pair
    assert main(["q", a, "-f", "json"]) == 0
    plain = capsys.readouterr().out
    assert main(["q", a, "--tmax", "40", "-f", "json"]) == 0
    assert capsys.readouterr().out == plain
    assert resolve_calls == []


def test_golod_check_keeps_the_truncated_certificate_as_oracle(closing_pair, ideal_file,
                                                               monkeypatch, capsys):
    a, b = closing_pair
    for path, tmax in [(a, "3"), (a, "4"), (b, "2"), (b, "7")]:
        assert main(["golod", path, "--tmax", tmax, "--check"]) == 0
    capsys.readouterr()
    assert main(["golod", b, "-f", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["tmax"], doc["bound"]) == (7, [2, 3, 3])  # deg m_I + 2, m_I + 1
    # golod-generic --check holds the Scarf criterion against is_golod_truncated
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    real = cli.is_golod_truncated
    monkeypatch.setattr(cli, "is_golod_truncated", lambda *args: not real(*args))
    assert main(["golod-generic", gen, "--check"]) == 1
    assert "disagrees with truncated certificate" in capsys.readouterr().err
    assert main(["golod-generic", gen]) == 0  # only --check consults the certificate


def test_golod_check_passes_below_and_above_deg_m_I(ideal_file, capsys):
    # below deg m_I, Q and the Golod denominator agree only through t^tmax on
    # these non-Golod rings; --check must not ask for Q to equal it
    c5, c6, d10 = (ideal_file(name, list(I.var_names), [list(g) for g in I.generators])
                   for name, I in (("C5", cycle_ideal(5)), ("C6", cycle_ideal(6)),
                                   ("D10", minimalize(D10_GENERATORS, 4))))
    for argv in ([c5, "--tmax", "2"], [c5, "--tmax", "3"], [c6, "--tmax", "2", "--char", "2"],
                 [d10, "--tmax", "2"]):
        assert main(["golod", *argv, "--check"]) == 0, argv
        out = capsys.readouterr().out
        assert "R IS Golod" in out and "(certificate is truncation-bounded)" in out, argv


@pytest.fixture
def golod_denominator_calls(monkeypatch):
    """Every computation of the Golod denominator, whichever binding is used."""
    from monpoincare import resolution

    calls = []
    real = resolution.golod_denominator

    def counted(ideal, char=0):
        calls.append(char)
        return real(ideal, char)

    for mod in (cli, resolution):
        monkeypatch.setattr(mod, "golod_denominator", counted)
    return calls


def test_golod_check_computes_the_golod_denominator_once(closing_pair, golod_denominator_calls,
                                                         capsys):
    a, b = closing_pair  # (x1^2, x2^2 x3) is a complete intersection, not Golod
    for path, golod in ((a, False), (b, True)):
        for extra in ([], ["--char", "2"], ["--tmax", "3"]):
            golod_denominator_calls.clear()
            assert main(["golod", path, "--check", "-f", "json"] + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["golod_certified_to_truncation"] == golod, (path, extra)
            assert len(golod_denominator_calls) == 1, (path, extra)


def test_eagon_subcommand(ideal_file):
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    assert main(["eagon", gen, "--imax", "5", "--check"]) == 0


def test_polarize_subcommand(closing_pair, capsys):
    a, _ = closing_pair
    assert main(["polarize", a, "--check", "-f", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["polarized"]["vars"] == ["x1_1", "x1_2", "x2_1", "x2_2", "x3"]


def test_exit_codes(ideal_file, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["q", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["q", str(bad)]) == 2
    a = ideal_file("a", ["x"], [[2]])
    assert main(["q", a, "--char", "4"]) == 2  # not a prime
    assert main(["q", a, "--tmax", "1"]) == 2  # below deg m_I
    capsys.readouterr()


@pytest.mark.parametrize("doc, message", [
    ({"vars": ["x", "y"], "gens": 5}, "ideal file must be"),
    ({"vars": 5, "gens": [[1, 0]]}, "ideal file must be"),
    ({"vars": "xy", "gens": [[1, 0]]}, "ideal file must be"),
    ({"vars": ["x", "y"], "gens": [5]}, "multidegree 5 must be a list of exponents"),
    ({"vars": ["x", "y"], "gens": [[True, 0]]}, "must consist of non-negative integers"),
], ids=["gens-not-a-list", "vars-not-a-list", "vars-a-string", "generator-not-a-list",
        "bool-exponent"])
def test_a_malformed_ideal_file_exits_2_with_a_message(tmp_path, doc, message, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["q", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, nfiles",
                         [("candidates", 1), ("scarf", 1), ("lattice-iso", 2), ("q", 1)])
def test_oversized_subset_table_refused_before_allocating(ideal_file, command, nfiles, capsys):
    r = SUBSET_TABLE_MAX_GENERATORS + 1
    big = ideal_file("big", [f"x{i + 1}" for i in range(r)],
                     [[1 if k == i else 0 for k in range(r)] for i in range(r)])
    tracemalloc.start()
    try:
        assert main([command] + [big] * nfiles) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 2^r-entry list alone would take 8 * 2^r bytes
    assert peak < 2 ** r
    err = capsys.readouterr().err
    assert f"{r} generators" in err and f"limit is {SUBSET_TABLE_MAX_GENERATORS}" in err


@pytest.fixture
def table_builds(monkeypatch):
    """Calls of core.staircase and core.subset_table (the subset_components
    neighbour table included), whichever module's binding is used."""
    from monpoincare import complexes, core, lattice

    calls = Counter()
    for name in ("staircase", "subset_table"):
        def counted(*args, name=name, real=getattr(core, name)):
            calls[name] += 1
            return real(*args)

        for mod in (core, series, complexes, lattice):
            monkeypatch.setattr(mod, name, counted, raising=False)
    return calls


@pytest.mark.parametrize("check", [False, True])
def test_each_command_builds_one_codec_per_ideal(closing_pair, ideal_file, table_builds, check,
                                                 capsys):
    a, b = closing_pair
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    for command in cli._COMMANDS:
        argv = ([a, b, "--transport"] if command == "lattice-iso" else
                [gen if command in ("scarf", "eagon", "golod-generic") else b])
        table_builds.clear()
        assert main([command, *argv, *_check_flag(command, check)]) == 0, command
        # polarize --check also builds the lattice of the polarized ideal
        ideals = 2 if command == "lattice-iso" or command == "polarize" and check else 1
        assert table_builds["staircase"] <= ideals, command
        # an lcm table and a neighbour table per ideal
        assert table_builds["subset_table"] <= 2 * ideals, command
    capsys.readouterr()


def test_q_and_golod_build_the_lcm_table_once(closing_pair, ideal_file, table_builds, capsys):
    _, b = closing_pair
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    # one codec, one lcm table and the neighbour table inside
    # subset_components, shared by every consumer of the call
    for argv in (["q", b, "--check"], ["golod", b], ["golod", b, "--check"],
                 ["golod-generic", gen, "--check"]):
        table_builds.clear()
        assert main(argv) == 0, argv
        assert table_builds == {"staircase": 1, "subset_table": 2}, argv
    capsys.readouterr()


def test_lattice_commands_build_no_subset_table(closing_pair, ideal_file, rp2, table_builds,
                                               monkeypatch, capsys):
    from monpoincare import core

    a, b = closing_pair
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    closures, components = [], []
    real, real_components = core.join_closure, core.subset_components
    monkeypatch.setattr(core, "join_closure", lambda masks: closures.append(masks) or real(masks))
    monkeypatch.setattr(core, "subset_components",
                        lambda masks: components.append(masks) or real_components(masks))
    # one lcm lattice per ideal, by join closure; polarize --check also
    # builds the lattice of the polarized ideal
    d10 = ideal_file("d10", ["x1", "x2", "x3", "x4"], [list(g) for g in D10_GENERATORS])
    for argv, ideals in ((["candidates", gen], 1), (["candidates", rp2], 1),
                         (["scarf", gen], 1), (["scarf", rp2, "--check"], 1),
                         (["golod-generic", gen], 1), (["golod-generic", d10], 1),
                         (["lattice-iso", a, b], 2), (["lattice-iso", rp2, rp2], 2),
                         (["polarize", b, "--check"], 2), (["polarize", rp2, "--check"], 2)):
        table_builds.clear()
        closures.clear()
        assert main(argv) == 0, argv
        assert table_builds["subset_table"] == 0 and not components, argv
        assert len(closures) == ideals, argv
    capsys.readouterr()


def test_lattice_commands_decode_nothing(closing_pair, rp2, monkeypatch, capsys):
    # the isomorphism search and the GCD flag read atom masks; only the
    # transport decodes, through the lattices it applies the maps to
    from monpoincare import core, lattice

    calls = Counter()
    real_decode, real_build = core.Staircase.decode, lattice.build_lcm_lattice

    def counted_decode(codec, mask):
        calls["decode"] += 1
        return real_decode(codec, mask)

    def counted_build(ideal):
        calls["build_lcm_lattice"] += 1
        return real_build(ideal)

    monkeypatch.setattr(core.Staircase, "decode", counted_decode)
    monkeypatch.setattr(lattice, "build_lcm_lattice", counted_build)
    a, b = closing_pair
    for argv in (["lattice-iso", a, b], ["lattice-iso", rp2, rp2],
                 ["polarize", b, "--check"], ["polarize", rp2, "--check"]):
        calls.clear()
        assert main(argv) == 0, argv
        assert calls == Counter(), argv
    assert main(["lattice-iso", a, b, "--transport"]) == 0
    assert calls["decode"] > 0 and calls["build_lcm_lattice"] == 2
    capsys.readouterr()


def test_lattice_iso_finds_the_60_automorphisms_of_rp2(rp2, capsys):
    capsys.readouterr()
    assert main(["lattice-iso", rp2, rp2, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 60 == len(doc["isomorphisms"])
    assert all(item["gcd_preserving"] for item in doc["isomorphisms"])


@pytest.mark.parametrize("lines_read", [1, 0])
def test_a_closed_stdout_exits_141_without_a_traceback(ideal_file, rp2, lines_read):
    # after one line: the candidate table of C14 (about 0.4 MB) is far larger
    # than a pipe buffer, so the command is still printing when the reader
    # closes; before any: Q of RP^2 (2 kB) waits in the stdout buffer and
    # meets the closed pipe only when flushed
    if lines_read:
        ideal = cycle_ideal(14)
        argv = ["candidates", ideal_file("C14", list(ideal.var_names),
                                         [list(g) for g in ideal.generators])]
    else:
        argv = ["q", rp2]
    # stdout buffered, as in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "monpoincare.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        if lines_read:
            assert proc.stdout.readline().startswith(b"candidate denominator terms")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_q_check_names_the_first_term_the_resolution_contradicts(closing_pair, monkeypatch,
                                                                 capsys):
    _, b = closing_pair  # Q = 1 - t^2 y^(1,2,0) - t^2 y^(1,0,2) - t^3 y^(1,2,2)
    real = cli.denominator
    extra = []

    def wrong(ideal, char=0):
        Q = real(ideal, char)
        return Q + series_from_terms(Q.num_vars, Q.tmax, Q.ybound, extra)

    monkeypatch.setattr(cli, "denominator", wrong)
    extra[:] = [(3, (1, 2, 2), 1), (2, (1, 2, 0), 1)]
    assert main(["q", b, "--check"]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err
    assert ("has 0*y^(1, 2, 0)*t^2, but the resolution in box (2, 3, 3) has rank 1 in "
            "homological degree 2, multidegree (1, 2, 0)") in err and "t^3" not in err
    extra[:] = [(3, (1, 2, 2), 1)]
    assert main(["q", b, "--check"]) == 3
    assert ("has 0*y^(1, 2, 2)*t^3, but the resolution in box (2, 3, 3) has rank 1 in "
            "homological degree 3, multidegree (1, 2, 2)") in capsys.readouterr().err
    # Q is compared mod t^(tmax+1) when the resolution stops below deg m_I
    assert main(["poincare", b, "--tmax", "2", "--check"]) == 0
    assert main(["q", b]) == 0  # without --check nothing contradicts it
    capsys.readouterr()


def test_check_names_a_generator_the_resolver_planted(closing_pair, monkeypatch, capsys):
    """A resolution with one generator too many, in homological degree 2 at
    y^(1,1,1), contradicts prod(1+t*y_i)/Q there."""
    _, b = closing_pair
    real = cli.resolve_residue_field

    def planted(ideal, tmax, bound=None, char=0):
        res = real(ideal, tmax, bound, char)
        res.complex.modules[2].append((1, 1, 1))
        return res

    monkeypatch.setattr(cli, "resolve_residue_field", planted)
    for argv in (["q", b], ["poincare", b]):
        assert main(argv + ["--check"]) == 3, argv
        assert ("internal error: prod(1+t*y_i)/Q with Q from the lcm lattice has "
                "0*y^(1, 1, 1)*t^2, but the resolution in box (2, 3, 3) has rank 1 in "
                "homological degree 2, multidegree (1, 1, 1)") in capsys.readouterr().err, argv
        assert main(argv) == 0, argv  # without --check nothing is resolved
    capsys.readouterr()


def test_q_check_resolves_the_cube_of_the_maximal_ideal(ideal_file, capsys):
    # (x1,x2,x3)^3, ten generators: a hard ring for the slack-box resolver
    # (the 125 cells of box (4,4,4), up to t = 10), run in both characteristics
    gens = [[a, b, 3 - a - b] for a in range(4) for b in range(4 - a)]
    cube = ideal_file("m3", ["x1", "x2", "x3"], gens)
    for char in ("0", "2"):
        assert main(["q", cube, "--char", char, "--check"]) == 0, char
    capsys.readouterr()


def test_q_check_reports_a_kernel_the_exactness_count_contradicts(ideal_file, monkeypatch,
                                                                  capsys):
    C5 = cycle_ideal(5)
    c5 = ideal_file("c5", list(C5.var_names), [list(g) for g in C5.generators])
    real = resolution.kernel_basis
    monkeypatch.setattr(resolution, "kernel_basis", lambda *args: real(*args)[:-1])
    for char in ("2", "0", "3"):
        assert main(["q", c5, "--char", char, "--check"]) == 3, char
        assert ("internal error: step 2 at multidegree (0, 0, 0, 1, 1): the kernel has "
                "dimension 1, exactness counts 2") in capsys.readouterr().err, char
        assert main(["q", c5, "--char", char]) == 0  # without --check nothing is resolved
    capsys.readouterr()


def test_lattice_iso_transport_marks_the_compared_isomorphisms(closing_pair, ideal_file,
                                                              capsys):
    # (x, y^3) to itself: [1] swaps the linear generator x with y^3; no
    # isomorphism of the closing pair preserves the GCD graph
    lin = ideal_file("lin", ["x", "y"], [[1, 0], [0, 3]])
    a, b = closing_pair
    for pair, compared in (((lin, lin), [True, False]), ((a, b), [False, False])):
        assert main(["lattice-iso", *pair, "--transport", "-f", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [iso["transport_compared"] for iso in doc["isomorphisms"]] == compared
        assert main(["lattice-iso", *pair, "--transport"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  [")]
        assert [not l.endswith(" (not compared)") for l in lines] == compared
        assert main(["lattice-iso", *pair, "-f", "json"]) == 0
        assert all(iso.keys() == {"atoms", "gcd_preserving"}
                   for iso in json.loads(capsys.readouterr().out)["isomorphisms"])
    assert main(["lattice-iso", lin, lin]) == 0
    assert capsys.readouterr().out == (
        "2 lattice isomorphism(s) from L_(x, y^3) to L_(x, y^3)\n"
        "  [0] x -> x, y^3 -> y^3   gcd_preserving=True\n"
        "  [1] x -> y^3, y^3 -> x   gcd_preserving=True\n")


def test_lattice_iso_transport_compares_coefficients_not_boxes(ideal_file, capsys):
    # (x^2, y^3) and (x^2, y^2): GCD-preserving isomorphisms, the same Q
    # coefficients, but deg m_I is 5 and 4
    a = ideal_file("a", ["x", "y"], [[2, 0], [0, 3]])
    b = ideal_file("b", ["x", "y"], [[2, 0], [0, 2]])
    assert main(["lattice-iso", a, b, "--transport"]) == 0
    assert main(["lattice-iso", b, a, "--transport", "--check"]) == 0
    capsys.readouterr()


def test_main_builds_the_parser_once(closing_pair, monkeypatch, capsys):
    a, b = closing_pair
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["q", a]) == 0
    first = len(built)  # the top-level parser and one per subcommand
    assert first == 1 + len(cli._COMMANDS)
    assert main(["golod", b]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["q", a, "--tmax", "many"])
    assert exc.value.code == 2
    assert main(["q", b, "-f", "json"]) == 0  # a failed parse leaves the parser usable
    assert len(built) == first
    capsys.readouterr()


def test_char_option_runs(closing_pair, capsys):
    _, b = closing_pair
    assert main(["q", b, "--char", "2"]) == 0
    out = capsys.readouterr().out
    assert "t^3*y1*y2^2*y3^2" in out


def test_internal_error_exit_code(closing_pair, monkeypatch, capsys):
    def broken(args, ideal):
        raise InternalInconsistencyError("d o d != 0 at degree 2")

    monkeypatch.setitem(cli._COMMANDS, "q", (broken, *cli._COMMANDS["q"][1:]))
    assert main(["q", closing_pair[0]]) == 3
    assert "internal error: d o d != 0 at degree 2" in capsys.readouterr().err


def test_parser_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_runconfig_validation(closing_pair, capsys):
    a, _ = closing_pair
    assert main(["q", a, "--char", "6"]) == 2
    assert "characteristic must be 0 or a prime, got 6" in capsys.readouterr().err
    for argv in (["q", a, "--format", "yaml"], ["nonsense", a]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def _fails_check(argv, capsys, message):
    """``main(argv)`` exits 1 and reports ``message`` as the failed check."""
    assert main(argv) == 1, argv
    captured = capsys.readouterr()
    assert f"verification failed: {message}" in captured.err, captured.err
    return captured.out


def test_complex_check_reports_a_nonzero_d_squared(closing_pair, monkeypatch, capsys):
    a, _ = closing_pair
    real = cli.taylor_complex

    def one_sign_flipped(ideal):
        T = real(ideal)
        column = T.diffs[2][0]
        row = min(column)
        column[row] = -column[row]
        return T

    monkeypatch.setattr(cli, "taylor_complex", one_sign_flipped)
    _fails_check(["taylor", a, "--check"], capsys,
                 "Taylor complex over S: d o d != 0 at [(2, 0, 0)]")
    assert main(["taylor", a]) == 0  # only --check composes the differentials
    capsys.readouterr()


def test_q_check_reports_a_term_that_is_no_candidate(closing_pair, monkeypatch, capsys):
    _, b = closing_pair  # Taylor-minimal: every subset lcm is distinct
    monkeypatch.setattr(cli, "candidate_terms", lambda ideal: set())
    _fails_check(["q", b, "--check"], capsys, "term -1 t^2 y^(1, 0, 2) not a candidate term")


def test_poincare_check_reports_a_resolution_that_is_not_exact(closing_pair, monkeypatch,
                                                                capsys):
    _, b = closing_pair
    monkeypatch.setattr(cli, "homology", lambda C, bound, char: {1: {(1, 0, 0): 1}})
    _fails_check(["poincare", b, "--tmax", "3", "--check"], capsys,
                 "resolution not exact at degree 1: {(1, 0, 0): 1}")


def test_deviations_check_reports_a_series_other_than_P(closing_pair, monkeypatch, capsys):
    _, b = closing_pair
    real = cli.series_from_deviations

    def perturbed(table, num_vars, tmax, ybound):
        P = real(table, num_vars, tmax, ybound)
        return P + series_from_terms(num_vars, tmax, ybound, [(2, (1, 0, 2), 3)])

    monkeypatch.setattr(cli, "series_from_deviations", perturbed)
    _fails_check(["deviations", b, "--nmax", "3", "--check"], capsys,
                 "deviations do not reproduce the Poincare series at t^2*y^(1, 0, 2): "
                 "they give 4, P has 1")


def test_deviations_report_an_inexact_division(closing_pair, monkeypatch, capsys):
    _, b = closing_pair
    real = series.series_div

    def off_by_one(num, den):  # the one division, t*dQ/dt / Q, owes 1 more at t^2*y3^2
        G = real(num, den)
        return G + series_from_terms(G.num_vars, G.tmax, G.ybound, [(2, (0, 0, 2), 1)])

    monkeypatch.setattr(series, "series_div", off_by_one)
    assert main(["deviations", b, "--nmax", "3"]) == 3
    assert ("internal error: deviation at n=2, y^(0, 0, 2): t*dP/dt / P owes 1 there, "
            "which is not a multiple of 2") in capsys.readouterr().err


def test_deviations_divide_once_by_Q_and_build_P_only_under_check(ideal_file, monkeypatch,
                                                                   capsys):
    """Without --check, ``deviations C5 --nmax 6`` makes one ``series_div``, by
    Q, and builds no P: no ``poincare_from_denominator``, ``variables_product``
    or ``series_mul`` call.  With --check the command builds P once; the
    resolution's own check (``denominator_from_poincare``) is not counted."""
    C5 = cycle_ideal(5)
    c5 = ideal_file("c5", list(C5.var_names), [list(g) for g in C5.generators])
    divisors, built = [], Counter()
    real_div = series.series_div

    def counted_div(num, den):
        divisors.append(den)
        return real_div(num, den)

    monkeypatch.setattr(series, "series_div", counted_div)
    for module, name in ((cli, "poincare_from_denominator"), (series, "poincare_from_denominator"),
                         (series, "variables_product"), (series, "series_mul")):
        def counted(*args, _real=getattr(module, name), _name=f"{module.__name__}.{name}"):
            built[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    assert main(["deviations", c5, "--nmax", "6", "-f", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["deviations"]) == 71
    assert [den.coeffs for den in divisors] == [series.denominator(C5).coeffs]
    assert built == Counter()
    assert main(["deviations", c5, "--nmax", "6", "--check", "-f", "json"]) == 0
    capsys.readouterr()
    assert built["monpoincare.cli.poincare_from_denominator"] == 1
    assert built["monpoincare.series.series_mul"] == 0


def test_poincare_builds_P_once_with_and_without_check(ideal_file, monkeypatch, capsys):
    # the table and the comparison with the resolution read one P
    C5 = cycle_ideal(5)
    c5 = ideal_file("c5", list(C5.var_names), [list(g) for g in C5.generators])
    built = []
    real = cli.poincare_from_denominator

    def counted(Q, tmax, ybound):
        built.append((tmax, tuple(ybound)))
        return real(Q, tmax, ybound)

    monkeypatch.setattr(cli, "poincare_from_denominator", counted)
    for flags in (["--check", "--char", "2"], ["--char", "2"], []):
        built.clear()
        assert main(["poincare", c5, *flags]) == 0, flags
        assert built == [(7, (2, 2, 2, 2, 2))], flags
    capsys.readouterr()


# the deviations of R = S/(x1*x2^2, x1*x3^2) up to n = 2: the variables and the generators
CLOSING_LOW_DEVIATIONS = {(1, (1, 0, 0)): 1, (1, (0, 1, 0)): 1, (1, (0, 0, 1)): 1,
                          (2, (1, 2, 0)): 1, (2, (1, 0, 2)): 1}


@pytest.mark.parametrize("planted, named", [
    ({**CLOSING_LOW_DEVIATIONS, (3, (1, 2, 2)): -1}, "n=3, y^(1, 2, 2) is -1 < 0"),
    ({**CLOSING_LOW_DEVIATIONS, (1, (0, 1, 0)): 2}, "n=1, y^(0, 1, 0) is 2, but e_1 is 1"),
    ({k: e for k, e in CLOSING_LOW_DEVIATIONS.items() if k != (2, (1, 0, 2))},
     "n=2, y^(1, 0, 2) is 0, but e_2 is 1 exactly at the non-linear minimal generators"),
    ({**CLOSING_LOW_DEVIATIONS, (2, (0, 2, 0)): 1}, "n=2, y^(0, 2, 0) is 1, but e_2 is 1"),
])
def test_deviations_flag_a_table_the_theorems_forbid(closing_pair, monkeypatch, capsys,
                                                     planted, named):
    _, b = closing_pair
    monkeypatch.setattr(cli, "deviations", lambda Q, nmax, ybound: planted)
    assert main(["deviations", b, "--nmax", "3", "-f", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # checked before any output
    assert f"internal error: deviation at {named}" in captured.err


def test_deviation_identities_hold_only_up_to_nmax(closing_pair, monkeypatch, capsys):
    _, b = closing_pair
    table = {k: e for k, e in CLOSING_LOW_DEVIATIONS.items() if k[0] == 1}
    monkeypatch.setattr(cli, "deviations", lambda Q, nmax, ybound: table)
    assert main(["deviations", b, "--nmax", "1", "-f", "json"]) == 0
    assert main(["deviations", b, "--nmax", "0", "-f", "json"]) == 3  # no e_1 at nmax 0
    monkeypatch.setattr(cli, "deviations", lambda Q, nmax, ybound: {})
    assert main(["deviations", b, "--nmax", "0", "-f", "json"]) == 0


def test_deviations_skip_the_variable_of_a_linear_generator(ideal_file, capsys):
    # R = k[x2]/(x2^2): P = (1 + t*y2) / (1 - t^2*y2^2)
    path = ideal_file("lin", ["x1", "x2"], [[1, 0], [0, 2]])
    for char in ("0", "2"):
        assert main(["deviations", path, "--nmax", "5", "--char", char, "-f", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["deviations"]
        assert {(r["n"], tuple(r["y"])): r["e"] for r in rows} == {(1, (0, 1)): 1,
                                                                   (2, (0, 2)): 1}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_lcm_reports_a_term_off_the_lattice(closing_pair, monkeypatch, fmt, capsys):
    a, _ = closing_pair
    monkeypatch.setattr(cli, "verify_lcm_coefficients", lambda Q, ideal: False)
    out = _fails_check(["verify-lcm", a, "-f", fmt], capsys, "verify-lcm failed")
    if fmt == "json":
        assert json.loads(out)["all_terms_are_subset_lcms"] is False
    else:
        assert out == "FAIL: some denominator multidegree is not a subset lcm\n"


def test_eagon_exits_3_on_a_scarf_representative_that_is_a_boundary(ideal_file, monkeypatch,
                                                                    capsys):
    # a representative search that settles on the zero chain for every face:
    # the always-on check of each class representative refuses it
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])

    def zero_chains(k, order, candidates, assigned, pair_identity_holds):
        assigned.update(dict.fromkeys(order, {}))
        return True

    monkeypatch.setattr(resolution, "_assign_cycles", zero_chains)
    assert main(["eagon", gen, "--imax", "3"]) == 3
    assert "internal error: representative at (0, 2) is a boundary" in capsys.readouterr().err


def test_eagon_check_reports_a_resolution_that_is_not_exact(ideal_file, monkeypatch, capsys):
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    monkeypatch.setattr(cli, "homology", lambda C, bound, char: {2: {(1, 1): 1}})
    _fails_check(["eagon", gen, "--imax", "4", "--check"], capsys,
                 "Eagon resolution not exact at degree 2: {(1, 1): 1}")


def test_lattice_iso_reports_a_transported_Q_that_differs(closing_pair, monkeypatch, capsys):
    a, _ = closing_pair
    real = cli.transport_denominator

    def shifted(Q, m):
        T = real(Q, m)
        return T + series_from_terms(T.num_vars, T.tmax, T.ybound, [(1, (1, 0, 0), 1)])

    monkeypatch.setattr(cli, "transport_denominator", shifted)
    message = "isomorphism [0] preserves GCD graphs but transported Q differs"
    for fmt in ("table", "json"):
        out = _fails_check(["lattice-iso", a, a, "--transport", "-f", fmt], capsys, message)
        assert "t*y1" in out if fmt == "table" else json.loads(out)["transported"]
    assert main(["lattice-iso", a, a]) == 0  # nothing is transported without --transport
    capsys.readouterr()


def test_lattice_iso_transport_pairs_linear_generators_with_linear_ones(ideal_file, monkeypatch,
                                                                        capsys):
    # swapping x and y^3 preserves the GCD graph, but Q gives x the factor
    # 1 + t*y1 and y^3 the term -t^2*y2^3: Q is compared only along the maps
    # that send the linear generators onto the linear generators
    lin = ideal_file("lin", ["x", "y"], [[1, 0], [0, 3]])
    assert main(["lattice-iso", lin, lin, "--transport"]) == 0
    assert "[1] x -> y^3, y^3 -> x   gcd_preserving=True" in capsys.readouterr().out
    # x -> x, y^3 -> y sends the one linear generator to a linear one, but
    # the target has two
    assert main(["lattice-iso", lin, ideal_file("xy", ["x", "y"], [[1, 0], [0, 1]]),
                 "--transport"]) == 0
    for path in _linear_ideal_files(ideal_file):
        doc = json.loads(Path(path).read_text())
        flipped = ideal_file(Path(path).stem + "_flipped", doc["vars"],
                             [g[::-1] for g in doc["gens"]])
        assert main(["lattice-iso", path, flipped, "--transport"]) == 0, path
    real = cli.transport_denominator

    def shifted(Q, m):
        T = real(Q, m)
        return T + series_from_terms(T.num_vars, T.tmax, T.ybound, [(1, (0, 1), 1)])

    monkeypatch.setattr(cli, "transport_denominator", shifted)
    _fails_check(["lattice-iso", lin, lin, "--transport"], capsys,
                 "isomorphism [0] preserves GCD graphs but transported Q differs")


def test_options_that_no_handler_reads_are_refused(closing_pair, capsys):
    a, _ = closing_pair
    for command, *option in (["candidates", "--char", "2"], ["candidates", "--check"],
                             ["taylor", "--char", "2"], ["scarf", "--char", "2"],
                             ["koszul", "--char", "2"], ["polarize", "--char", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([command, a, *option])
        assert exc.value.code == 2, command
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert main([command, a]) == 0, command
    capsys.readouterr()


def test_polarize_check_reports_a_wrong_depolarization(closing_pair, monkeypatch, capsys):
    a, b = closing_pair
    real = cli.polarize
    other = real(cli.load_ideal(b))
    monkeypatch.setattr(cli, "polarize", lambda ideal: other)
    _fails_check(["polarize", a, "--check"], capsys, "depolarization does not recover the ideal")
    monkeypatch.setattr(cli, "polarize", real)
    monkeypatch.setattr(cli, "polarization_lattice_map",
                        lambda pol: argparse.Namespace(gcd_preserving=False))
    _fails_check(["polarize", a, "--check"], capsys,
                 "polarization map is not a GCD-graph isomorphism")
    assert main(["polarize", a]) == 0  # only --check consults the lattice map
    capsys.readouterr()


def test_golod_generic_json(ideal_file, capsys):
    gen = ideal_file("gen", ["x", "y"], [[3, 0], [1, 1], [0, 2]])
    assert main(["golod-generic", gen, "-f", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ideal": {"vars": ["x", "y"], "gens": [[0, 2], [1, 1], [3, 0]]},
                   "golod": True}
    assert main(["golod-generic", gen]) == 0
    assert capsys.readouterr().out == "generic ideal; R IS Golod\n"


def _timed_main(argv):
    """(exit code, seconds) of one ``main(argv)`` call."""
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_char_is_tested_for_primality_without_trial_division(closing_pair, capsys):
    _, b = closing_pair
    assert main(["q", b]) == 0
    over_Q = capsys.readouterr().out
    p = 10 ** 18 + 3  # 19 digits; trial division up to its square root took minutes
    code, seconds = _timed_main(["q", b, "--char", str(p)])
    assert code == 0 and seconds < 0.5
    assert capsys.readouterr().out == over_Q
    for bad in (9999999967 * 9999999943, 1, -7, 561, 3317044064679887385961979):
        code, seconds = _timed_main(["q", b, "--char", str(bad)])
        assert code == 2 and seconds < 0.5, bad
        assert f"characteristic must be 0 or a prime, got {bad}" in capsys.readouterr().err
    code, seconds = _timed_main(["q", b, "--char", str(10 ** 25 + 13)])
    assert code == 2 and seconds < 0.5
    assert "is too large; the limit is 3317044064679887385961981" in capsys.readouterr().err


def test_bad_bounds_are_refused_before_the_work(closing_pair, rp2, capsys):
    # --check would first resolve RP^2's slack box for seconds
    code, seconds = _timed_main(["golod", rp2, "--tmax", "1", "--check", "--char", "2"])
    assert code == 2 and seconds < 0.5
    assert "a Golod certificate needs tmax >= 2" in capsys.readouterr().err
    _, b = closing_pair
    for flag in ([], ["--check"]):
        assert main(["deviations", b, "--nmax", "-1", *flag]) == 2, flag
        assert "error: --nmax must be non-negative, got -1" in capsys.readouterr().err, flag
        assert main(["poincare", b, "--tmax", "-1", *flag]) == 2, flag
        assert "error: tmax must be non-negative" in capsys.readouterr().err, flag
    assert main(["eagon", b, "--imax", "-1"]) == 2
    assert "error: imax must be non-negative" in capsys.readouterr().err
