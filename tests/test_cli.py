"""Tests for the `sharpq` command line tool."""

import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpq.cli
import sharpq.compilepipe
from sharpq.cli import main
from sharpq.compilepipe import (
    _seeded_structures,
    _summands,
    _union_or_kept,
    compile_flat,
    count_sentence,
    minimize_ep,
)
from sharpq.epquery import Or, _has_or, oracle_count, pair_to_pp, parse_query, serialize_query
from sharpq.errors import CapExceeded
from sharpq.relstore import parse_structure, serialize_structure
from sharpq.sharpcore import (
    check_represents,
    eval_sentence,
    naive_representation,
    parse_sharp,
    serialize_sharp,
    validate,
    width,
)

from tests.conftest import (
    QUERY_A,
    QUERY_B,
    SIG_E,
    random_ep_query,
    random_structure,
    star_pair,
    three_block_pair,
)
from tests.helpers import reference_read_back
from tests.test_one_liberal_route import _refuse

THETA2_EPQ = "query theta2(x1,x2): U1(x1) & U2(x2)\n"
THETA2_REL = "signature U1/1 U2/1\nuniverse a b\nU1(a)\nU1(b)\nU2(b)\n"
FOLD_EPQ = "query fold(x): exists y . exists z . E(x,y) & E(x,z)\n"
UNION_EPQ = "query d(x,y,z): E(x,y) | F(y,z)\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_both_engines_agree(tmp_path, capsys):
    q = _write(tmp_path, "t.epq", THETA2_EPQ)
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--engine", "both")
    assert code == 0
    assert out == "2\nengines agree\n"


def test_count_empty_relation_gives_zero(tmp_path, capsys):
    q = _write(tmp_path, "t.epq", THETA2_EPQ)
    d = _write(tmp_path, "t.rel", "signature U1/1 U2/1\nuniverse a b\nU1(a)\n")
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d)
    assert code == 0
    assert out == "0\n"


def test_count_json_prints_decimal_string(tmp_path, capsys):
    q = _write(tmp_path, "t.epq", THETA2_EPQ)
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "2"
    assert payload["engine"] == "compiled"


def _path_query(k):
    xs = [f"x{i}" for i in range(k + 1)]
    prefix = "".join(f"exists {x} . " for x in xs[1:])
    body = " & ".join(f"E({a},{b})" for a, b in zip(xs, xs[1:]))
    return f"query path(x0): {prefix}{body}\n"


def test_count_of_a_30_edge_path(tmp_path, capsys):
    # the path's primal graph has 31 vertices but an empty simplicial kernel,
    # so the default 24-vertex treewidth cap does not refuse it
    text = _path_query(30)
    q = _write(tmp_path, "path30.epq", text)
    rng = random.Random(30)
    for i in range(6):
        b = random_structure(rng, SIG_E, max_size=3, density=0.4)
        d = _write(tmp_path, f"small{i}.rel", serialize_structure(b))
        want = oracle_count(parse_query(text), b, max_enum=3**32)
        assert _run(capsys, "count", "-q", q, "-d", d) == (0, f"{want}\n", "")
    n = 500
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(1200)}
    alive = set(range(n))  # vertices that start a walk of the current length
    for _ in range(30):
        alive = {u for u, v in edges if v in alive}
    rel = "signature E/2\nuniverse " + " ".join(f"e{i}" for i in range(n)) + "\n"
    rel += "".join(f"E(e{u},e{v})\n" for u, v in sorted(edges))
    d = _write(tmp_path, "large.rel", rel)
    assert 0 < len(alive) < n
    assert _run(capsys, "count", "-q", q, "-d", d) == (0, f"{len(alive)}\n", "")


def test_count_oracle_engine(tmp_path, capsys):
    q = _write(tmp_path, "u.epq", UNION_EPQ)
    d = _write(
        tmp_path, "u.rel", "signature E/2 F/2\nuniverse a b\nE(a,b)\nF(b,b)\nF(a,b)\n"
    )
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--engine", "oracle")
    assert code == 0
    assert out == "5\n"


STAR3_EPQ = "query s(a,b,c): exists h . E(a,h) & E(b,h) & E(c,h)\n"


@pytest.mark.parametrize(
    "query",
    [
        "query p(x0): exists x1 . exists x2 . exists x3 . E(x0,x1) & E(x1,x2) & E(x2,x3)\n",
        "query s(a,b): exists h . E(a,h) & E(b,h)\n",
        STAR3_EPQ,
        "query t(x,z): exists y . E(x,y) & E(y,z)\n",
        "query e(x,y): E(x,y)\n",
        "query l(x): exists y . E(x,y) & E(y,y)\n",
        "query u(x): (exists y . E(x,y)) | (exists y . E(y,x))\n",
        "query v(x): A0(x) | A1(x) | A2(x)\n",
    ],
    ids=["path-3", "star-2", "star-3", "two-walk", "edge", "loop", "union", "unary-union"],
)
def test_count_reads_a_canonical_rel_without_building_fact_tuples(
    tmp_path, capsys, monkeypatch, query
):
    # the scan keeps each relation as its argument columns, and the compiled
    # route reads only those: the tuple sets are never built. The oracle
    # reads tuples, and both engines still agree.
    structures = []

    def parse_and_keep(text):
        structures.append(parse_structure(text))
        return structures[-1]

    monkeypatch.setattr(sharpq.cli, "parse_structure", parse_and_keep)
    rng = random.Random(1818)
    b = random_structure(rng, parse_query(query).sig, max_size=9, min_size=9, density=0.2)
    code, out, err = _count(capsys, tmp_path, query, serialize_structure(b))
    assert (code, err) == (0, "") and int(out) > 0
    assert structures[0]._relations == {}
    both = _count(capsys, tmp_path, query, serialize_structure(b), "--engine", "both")
    assert both == (0, out + "engines agree\n", "")
    assert structures[1]._relations


def _hub_rel(spokes):
    """Hubs h0, h1, ...: hub i has `spokes[i]` in-neighbours of its own."""
    edges = sorted((f"s{i}_{j}", f"h{i}") for i, n in enumerate(spokes) for j in range(n))
    universe = sorted({v for e in edges for v in e})
    facts = "".join(f"E({a},{h})\n" for a, h in edges)
    return f"signature E/2\nuniverse {' '.join(universe)}\n{facts}"


@pytest.mark.parametrize(
    "spokes, max_rows, expected",
    [
        ([2, 2, 2], "12", (0, "24\n", "")),
        # the inner join E(a,h) & E(b,h) would hold 4 rows per hub: the cap
        # trips between two hubs, or at the total after the last one
        ([2, 2, 2], "7", (3, "", "error: table would hold more than 7 rows\n")),
        ([2, 2, 2], "11", (3, "", "error: table would hold 12 > 11 rows\n")),
        ([2, 2], "7", (3, "", "error: table would hold 8 > 7 rows\n")),
        # one hub's rows alone exceed the cap
        ([3], "8", (3, "", "error: table would hold more than 8 rows\n")),
        ([3], "9", (0, "27\n", "")),
    ],
)
def test_a_product_join_over_max_rows_exits_three(tmp_path, capsys, spokes, max_rows, expected):
    # the join's size is summed per hub before any row exists, with the
    # messages of a table refused as it grows
    rel = _hub_rel(spokes)
    assert _count(capsys, tmp_path, STAR3_EPQ, rel, "--max-rows", max_rows) == expected


def test_a_max_rows_refusal_does_not_follow_the_hash_seed(tmp_path):
    # the built join that drops y walks its keys in set order, which follows
    # PYTHONHASHSEED: the refusal must read the same under every seed
    rng = random.Random(7)
    elems = [f"e{i}" for i in range(30)]
    pairs = [(a, b) for a in elems for b in elems]
    facts = [f"{sym}({a},{b})\n" for sym in "EF" for a, b in rng.sample(pairs, 90)]
    d = _write(tmp_path, "t.rel", f"signature E/2 F/2\nuniverse {' '.join(elems)}\n{''.join(facts)}")
    q = _write(tmp_path, "t.epq", "query q(x,z): (exists y . E(x,y) & E(y,z)) | (exists y . F(x,y) & F(y,z))\n")
    src = os.path.dirname(os.path.dirname(sharpq.cli.__file__))
    runs = {
        subprocess.run(
            [sys.executable, "-m", "sharpq.cli", "count", "-q", q, "-d", d, "--max-rows", "210"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True,
        ).stderr
        for seed in ("0", "1", "8")
    }
    assert runs == {"error: table would hold more than 210 rows\n"}


# ---------------------------------------------------------------------------
# count on unions: one table union, or inclusion-exclusion
# ---------------------------------------------------------------------------


def _unary_union(k):
    return "query u(x): " + " | ".join(f"A{i}(x)" for i in range(k)) + "\n"


def _binary_union(k):
    parts = [f"(exists y{i} . E{i % 3}(x,y{i}))" for i in range(k)]
    return "query e(x): " + " | ".join(parts) + "\n"


@pytest.fixture
def ie_route(monkeypatch):
    """The names of the queries that `count` sends to inclusion-exclusion:
    those whose count_sentence builds inclusion-exclusion terms."""
    names, counting = [], []
    real_count, real_terms = sharpq.cli.count_sentence, sharpq.compilepipe._ie_terms

    def count_spy(q, **kwargs):
        counting.append(q.name)
        try:
            return real_count(q, **kwargs)
        finally:
            counting.pop()

    def terms_spy(*args):
        names.extend(counting)
        return real_terms(*args)

    monkeypatch.setattr(sharpq.cli, "count_sentence", count_spy)
    monkeypatch.setattr(sharpq.compilepipe, "_ie_terms", terms_spy)
    return names


def _count(capsys, tmp_path, query_text, rel_text, *flags):
    q = _write(tmp_path, "q.epq", query_text)
    d = _write(tmp_path, "d.rel", rel_text)
    return _run(capsys, "count", "-q", q, "-d", d, *flags)


@pytest.mark.parametrize("k", [10, 11, 12, 40])
def test_unions_count_like_the_oracle_and_like_set_unions(tmp_path, capsys, ie_route, k):
    rng = random.Random(k)
    for text, arity, symbols in (
        (_unary_union(k), 1, [f"A{i}" for i in range(k)]),
        (_binary_union(k), 2, ["E0", "E1", "E2"]),
    ):
        q = parse_query(text)
        for _ in range(3):
            b = random_structure(rng, q.sig, min_size=2, max_size=4, density=0.3)
            # the oracle's cap counts |B|^(1 + k) assignments; its search prunes
            expected = oracle_count(q, b, max_enum=4 ** (k + 1))
            assert _count(capsys, tmp_path, text, serialize_structure(b)) == (0, f"{expected}\n", "")
        # 2,000 elements, each relation holding about 100 facts
        universe = [f"b{i}" for i in range(2000)]
        rels = {s: {tuple(rng.sample(universe, arity)) for _ in range(100)} for s in symbols}
        facts = [f"{s}({','.join(t)})" for s in symbols for t in sorted(rels[s])]
        rel_text = "\n".join([f"signature {' '.join(f'{s}/{arity}' for s in symbols)}",
                              "universe " + " ".join(universe), *facts]) + "\n"
        used = {s for s, _ in q.sig.symbols}
        expected = len({t[0] for s in used for t in rels[s]})
        assert _count(capsys, tmp_path, text, rel_text) == (0, f"{expected}\n", "")
    assert ie_route == []


@pytest.mark.parametrize("text", [QUERY_A, QUERY_B], ids=["wider-cast", "wider-uncored"])
def test_one_liberal_unions_wider_than_their_cores_take_one_cast(tmp_path, capsys, ie_route, text):
    q = parse_query(text)
    sentence = count_sentence(q)
    # one cast over the union of the disjuncts, as narrow as minimize's terms
    assert isinstance(sentence.child.ep, Or)
    assert width(sentence) == minimize_ep(q)[1] < width(naive_representation(q))
    rng = random.Random(7)
    for _ in range(5):
        b = random_structure(rng, q.sig, min_size=2, max_size=4, density=0.4)
        old_route = eval_sentence(minimize_ep(q)[0], b)
        code, out, err = _count(
            capsys, tmp_path, text, serialize_structure(b), "--engine", "both", "--json"
        )
        assert (code, json.loads(out)["count"], err) == (0, str(old_route), "")
    assert ie_route == []


def test_disjunction_free_queries_keep_their_route(tmp_path, capsys, ie_route):
    assert _count(capsys, tmp_path, THETA2_EPQ, THETA2_REL) == (0, "2\n", "")
    assert ie_route == ["theta2"]


def test_random_unions_count_alike_on_both_engines(tmp_path, capsys, ie_route):
    rng = random.Random(20261018)
    checked = 0
    while checked < 200:
        q = random_ep_query(rng, max_vars=4, max_atoms=5, max_disjunctions=2)
        if not _has_or(q.formula):
            continue
        b = random_structure(rng, q.sig, max_size=3)
        code, out, err = _count(
            capsys, tmp_path, serialize_query(q), serialize_structure(b),
            "--engine", "both", "--json",
        )
        assert (code, json.loads(out)["engines_agree"], err) == (0, True, ""), serialize_query(q)
        checked += 1
    # both routes ran
    assert 20 < len(ie_route) < 180


def test_count_never_runs_compiles_per_term_route(tmp_path, capsys, monkeypatch):
    # any query, with or without `|`, with one liberal variable or more
    _refuse(monkeypatch, ("flatten", "compile_flat"))
    rng = random.Random(20261020)
    for _ in range(200):
        q = random_ep_query(rng, max_vars=5, max_atoms=5, max_disjunctions=2)
        b = random_structure(rng, q.sig, max_size=3)
        code, out, err = _count(
            capsys, tmp_path, serialize_query(q), serialize_structure(b), "--engine", "both"
        )
        assert (code, out.splitlines()[-1:], err) == (0, ["engines agree"], ""), serialize_query(q)


def test_union_table_over_max_rows_exits_three(tmp_path, capsys, ie_route):
    # each atom table holds at most 2 rows, the union 5
    rel = "signature A0/1 A1/1 A2/1\nuniverse a b c d e\nA0(a)\nA0(b)\nA1(c)\nA1(d)\nA2(e)\n"
    text = _unary_union(3)
    assert _count(capsys, tmp_path, text, rel, "--max-rows", "5") == (0, "5\n", "")
    assert _count(capsys, tmp_path, text, rel, "--max-rows", "4") == (
        3, "", "error: table would hold 5 > 4 rows\n"
    )
    assert ie_route == []


def test_a_union_the_table_route_refuses_is_one_cast_and_its_1023_term_sum_evaluates(
    tmp_path, capsys, ie_route
):
    # naive width 3 exceeds the disjuncts' qaw 2: `count` casts the ten
    # disjuncts at width 2, and `compile` sums 2^10 - 1 inclusion-exclusion
    # terms, a Plus chain far deeper than the recursion limit
    k = 10
    text = "query f(x): " + " | ".join(
        f"(exists y . exists z . E{i}(x,y) & E{i}(y,z))" for i in range(k)
    ) + "\n"
    rels = {f"E{i}": {("a", "b")} for i in range(k)}
    rels["E7"] = {("a", "a"), ("a", "b")}
    rel = "signature " + " ".join(f"{s}/2" for s in rels) + "\nuniverse a b\n" + "".join(
        f"{s}({u},{v})\n" for s, facts in rels.items() for u, v in sorted(facts)
    )
    # x is an answer when some E_i holds a walk of two steps from x
    expected = len({x for facts in rels.values() for x, y in facts for y2, _ in facts if y2 == y})
    assert expected == 1
    assert _count(capsys, tmp_path, text, rel, "--engine", "both") == (
        0, f"{expected}\nengines agree\n", ""
    )
    assert ie_route == []
    q = parse_query(text)
    sentence = count_sentence(q)
    assert (width(sentence), serialize_sharp(sentence).count(" | ")) == (2, k - 1)
    flat, w, _ = compile_flat(q)
    assert (w, serialize_sharp(flat).count(" + ")) == (2, 2**k - 2)
    assert eval_sentence(flat, parse_structure(rel)) == expected


@pytest.mark.parametrize("command", ["minimize", "compile"])
def test_a_ten_atom_unary_union_compiles_to_1023_terms(tmp_path, capsys, command):
    # every walk over the 1,023-term sum (rename, width, serialize,
    # the self-check) is a fold, so the default recursion limit holds
    q = _write(tmp_path, "u10.epq", _unary_union(10))
    code, out, err = _run(capsys, command, "-q", q, "--json")
    report = json.loads(out)
    assert (code, err, report["terms"], report["width"], report["qaw"]) == (0, "", 1023, 1, 1)
    assert validate(parse_sharp(report["sentence"])).ok


def test_count_of_a_400_edge_path_on_a_directed_triangle(tmp_path, capsys):
    # every element starts a walk of every length round the cycle
    q = _write(tmp_path, "path400.epq", _path_query(400))
    d = _write(tmp_path, "cycle.rel", "signature E/2\nuniverse a b c\nE(a,b)\nE(b,c)\nE(c,a)\n")
    assert _run(capsys, "count", "-q", q, "-d", d) == (0, "3\n", "")


def test_the_oracle_and_the_self_check_answer_a_400_conjunct_chain(tmp_path, capsys):
    # 400 conjuncts run as one flat list of tests, which nests no level
    text = "query q(x): " + " & ".join(f"A{i % 3}(x)" for i in range(400)) + "\n"
    rel = "signature A0/1 A1/1 A2/1\nuniverse a b\nA0(a)\nA1(a)\nA2(a)\nA2(b)\n"
    for engine in ("compiled", "oracle", "both"):
        code, out, _ = _count(capsys, tmp_path, text, rel, "--engine", engine)
        assert (code, out.split("\n")[0]) == (0, "1")
    q = _write(tmp_path, "chain.epq", text)
    for command in (["minimize"], ["compile"], ["compile", "--strategy", "naive"]):
        assert _run(capsys, *command, "-q", q)[0] == 0


def _exists_chains(levels):
    """A query whose `exists` chains nest `levels` deep, each `&` beside the next."""
    body = f"U(y{levels})"
    for i in range(levels, 0, -1):
        body = f"exists y{i} . E({f'y{i - 1}' if i > 1 else 'x'},y{i}) & {body}"
    return f"query q(x): {body}\n"


def test_the_oracle_answers_at_its_depth_cap_and_refuses_past_it(tmp_path, capsys):
    # through the whole command line, at the default recursion limit; one
    # element keeps the 201 variables within the enumeration cap
    rel = "signature E/2 U/1\nuniverse a\nE(a,a)\nU(a)\n"
    assert _count(capsys, tmp_path, _exists_chains(200), rel, "--engine", "both") == (
        0, "1\nengines agree\n", ""
    )
    assert _count(capsys, tmp_path, _exists_chains(201), rel, "--engine", "oracle") == (
        3, "", "error: oracle_count refuses a formula whose tests nest 201 > 200 levels deep; "
        "each `|` and each `exists` chain nests one level\n"
    )


def _path20_files(tmp_path, nodes):
    atoms = " & ".join(f"E(v{i},v{i+1})" for i in range(20))
    binders = " ".join(f"exists v{i} ." for i in range(1, 21))
    q = _write(tmp_path, "path20.epq", f"query path20(v0): {binders} {atoms}\n")
    rng = random.Random(7)
    uni = [f"n{i}" for i in range(nodes)]
    edges = {(rng.choice(uni), rng.choice(uni)) for _ in range(3 * nodes)}
    rel = (
        "signature E/2\nuniverse "
        + " ".join(uni)
        + "\n"
        + "\n".join(f"E({a},{b})" for a, b in sorted(edges))
        + "\n"
    )
    d = _write(tmp_path, "graph.rel", rel)
    return q, d


def test_count_long_path_compiled_completes_oracle_refuses(tmp_path, capsys):
    q, d = _path20_files(tmp_path, 25)
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--engine", "compiled")
    assert code == 0
    assert int(out) >= 0
    code, _, err = _run(capsys, "count", "-q", q, "-d", d, "--engine", "oracle")
    assert code == 3
    assert "refuses" in err


# ---------------------------------------------------------------------------
# compile / minimize
# ---------------------------------------------------------------------------


def test_compile_output_reparses_and_represents(tmp_path, capsys):
    q_path = _write(tmp_path, "u.epq", UNION_EPQ)
    code, out, _ = _run(capsys, "compile", "-q", q_path)
    assert code == 0
    sentence_text, report_text = out.splitlines()
    sentence = parse_sharp(sentence_text)
    assert validate(sentence).ok
    q = parse_query(UNION_EPQ)
    ok, _ = check_represents(sentence, q, _seeded_structures(q.sig))
    assert ok
    report = json.loads(report_text)
    assert set(report) == {"width", "sharp_width", "terms", "qaw", "core_size"}
    assert report["terms"] == 3
    assert report["core_size"] is None


def test_compile_naive_strategy(tmp_path, capsys):
    q_path = _write(tmp_path, "t.epq", THETA2_EPQ)
    code, out, _ = _run(capsys, "compile", "-q", q_path, "--strategy", "naive")
    assert code == 0
    sentence_text, report_text = out.splitlines()
    assert sentence_text == "P{x1,x2} C[U1(x1) & U2(x2); {x1,x2}]"
    report = json.loads(report_text)
    assert report["width"] == 2
    assert report["qaw"] is None and report["core_size"] is None


def test_compile_theta3_width_one(tmp_path, capsys):
    q_path = _write(
        tmp_path, "t3.epq", "query theta3(x1,x2,x3): U1(x1) & U2(x2) & U3(x3)\n"
    )
    code, out, _ = _run(capsys, "compile", "-q", q_path, "--json")
    assert code == 0
    assert json.loads(out)["width"] == 1


def test_minimize_three_block_width_four(tmp_path, capsys):
    q_path = _write(
        tmp_path, "tb.epq", serialize_query(pair_to_pp(three_block_pair()))
    )
    code, out, _ = _run(capsys, "minimize", "-q", q_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["width"] == 4
    assert report["qaw"] == 4
    sentence = parse_sharp(report["sentence"])
    assert validate(sentence).ok


def test_minimize_theta2_reports_core(tmp_path, capsys):
    q_path = _write(tmp_path, "t.epq", THETA2_EPQ)
    code, out, _ = _run(capsys, "minimize", "-q", q_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["width"] == 1
    assert report["terms"] == 1
    assert report["core_size"] == 2


def _corpus(source):
    """The golden `.epq` corpus, or 60 seeded random queries."""
    if source == "golden":
        golden = pathlib.Path(__file__).parent / "golden"
        return [path.read_text() for path in sorted(golden.glob("*.epq"))]
    rng = random.Random(24)
    return [serialize_query(random_ep_query(rng, max_vars=5, max_atoms=5)) for _ in range(60)]


@pytest.mark.parametrize("source", ["golden", "random"])
def test_minimize_core_size_equals_the_read_back_cores(source, tmp_path, capsys):
    # core_size counts each basic part's variables; reading each part back
    # into a pair (the tests' reference) and counting its elements gives the
    # same number
    refused = 0
    for i, text in enumerate(_corpus(source)):
        code, out, _ = _run(capsys, "minimize", "-q", _write(tmp_path, f"{i}.epq", text), "--json")
        if code != 0:
            refused += 1
            continue
        report = json.loads(out)
        basics = [b for _, _, b, _ in _summands(parse_sharp(report["sentence"])) if b is not None]
        assert report["core_size"] == sum(
            len(reference_read_back(basic).struct.universe) for basic in basics
        )
    assert refused == 0


# ---------------------------------------------------------------------------
# width / qaw / core / equiv / flatten / decompose
# ---------------------------------------------------------------------------


def test_width_command(tmp_path, capsys):
    s = _write(tmp_path, "t.shq", "P{x1,x2} C[U1(x1) & U2(x2); {x1,x2}]\n")
    code, out, _ = _run(capsys, "width", "-s", s)
    assert code == 0
    assert out == "width: 2\nsharp-width: 2\n"


def test_width_rejects_malformed_formula(tmp_path, capsys):
    s = _write(tmp_path, "bad.shq", "(C[U(x); {x}] * C[V(y); {y}])\n")
    code, _, err = _run(capsys, "width", "-s", s)
    assert code == 2
    assert "ill-formed" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # the fault is the end of the cast text, at the ';' on line 3
        ("P{x}\n  C[E(x) & \n F(x,; {x}]", "line 3, column 6: inside cast: "
         "expected a variable name, got end of cast"),
        ("P{x}\n  C[E(x) & \n F(x) y ; {x}]", "line 3, column 7: inside cast: "
         "trailing input after expression: 'y'"),
        ("P{x}\n  C[E(x) &\n  ? ; {x}]", "line 3, column 3: inside cast: "
         "unexpected character '?'"),
        # an atom without arguments is reported at the atom, not at the cast
        ("P{x}\n  C[E(x) & F(); {x}]", "line 2, column 12: inside cast: "
         "relation 'F' needs at least one argument"),
    ],
    ids=["end-of-cast", "trailing", "character", "empty-atom"],
)
def test_cast_parse_errors_count_lines_and_columns_from_the_file(tmp_path, capsys, text, message):
    s = _write(tmp_path, "bad.shq", text)
    code, out, err = _run(capsys, "width", "-s", s)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_qaw_command_with_dump(tmp_path, capsys):
    q_path = _write(tmp_path, "star3.epq", serialize_query(pair_to_pp(star_pair(3))))
    td_path = tmp_path / "td.txt"
    code, out, _ = _run(capsys, "qaw", "-q", q_path, "--dump-td", str(td_path))
    assert code == 0
    assert out == "qaw: 4\n"
    dumped = td_path.read_text()
    assert "parent none" in dumped and dumped.startswith("node ")


def test_qaw_of_a_400_edge_path(tmp_path, capsys):
    # 400 `exists` binders in a row: the parser reads the prefix in a loop,
    # so the default recursion limit suffices
    q = _write(tmp_path, "path400.epq", _path_query(400))
    code, out, err = _run(capsys, "qaw", "-q", q, "--json")
    assert (code, json.loads(out), err) == (0, {"qaw": 2}, "")


def test_core_command(tmp_path, capsys):
    q_path = _write(tmp_path, "fold.epq", FOLD_EPQ)
    code, out, _ = _run(capsys, "core", "-q", q_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "core size: 2"
    core_q = parse_query(lines[1])
    assert core_q.liberal == ("x",)


def test_equiv_counting_mode(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x,y): E(x,y)\n")
    b = _write(tmp_path, "b.epq", "query b(v,u): E(v,u)\n")
    code, out, _ = _run(capsys, "equiv", "-q", a, "-r", b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counting-equivalent: yes"
    assert lines[1].startswith("forward: ") and lines[2].startswith("backward: ")


def test_equiv_logical_mode(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x): exists y . E(x,y)\n")
    b = _write(tmp_path, "b.epq", "query b(x): exists y . exists z . E(x,y) & E(x,z)\n")
    code, out, _ = _run(capsys, "equiv", "-q", a, "-r", b, "--mode", "logical")
    assert code == 0
    assert out.splitlines()[0] == "logically-equivalent: yes"


def test_equiv_reports_inequivalence(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x): U(x)\n")
    b = _write(tmp_path, "b.epq", "query b(x): V(x)\n")
    code, out, _ = _run(capsys, "equiv", "-q", a, "-r", b)
    assert code == 0
    assert out == "counting-equivalent: no\n"


def test_equiv_refuses_a_symbol_with_two_arities(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x,y): E(x,y)\n")
    b = _write(tmp_path, "b.epq", "query b(x,y): exists z . E(x,y,z)\n")
    for mode in ("counting", "logical"):
        assert _run(capsys, "equiv", "-q", a, "-r", b, "--mode", mode) == (
            1, "", "error: relation E has conflicting arities 2 and 3\n"
        )


def test_flatten_command(tmp_path, capsys):
    s = _write(tmp_path, "u.shq", "P{x,y,z} C[E(x,y) | F(y,z); {x,y,z}]\n")
    code, out, _ = _run(capsys, "flatten", "-s", s)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "terms: 3"
    assert validate(parse_sharp(lines[0])).ok


def test_decompose_command_with_dump(tmp_path, capsys):
    q_path = _write(tmp_path, "fold.epq", FOLD_EPQ)
    td_path = tmp_path / "td.txt"
    code, out, _ = _run(capsys, "decompose", "-q", q_path, "--dump-td", str(td_path))
    assert code == 0
    assert out == "treewidth: 1\n"
    assert "parent none" in td_path.read_text()


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------


def test_parse_error_exits_two(tmp_path, capsys):
    bad = _write(tmp_path, "bad.epq", "query broken(: nope\n")
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, _, err = _run(capsys, "count", "-q", bad, "-d", d)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("query q(x,\n  exists): E(x,x)\n", "line 2, column 3: expected a variable name, got 'exists'"),
        ("query q(x):\n  exists true . E(x,x)\n", "line 2, column 10: expected a variable after 'exists', got 'true'"),
        ("query q(x): E(x,\n   true)\n", "line 2, column 4: expected a variable name, got 'true'"),
        ("query q(x): E(x,", "line 1, column 17: expected a variable name, got end of input"),
        ("query q(x): (E(x)\n", "line 1, column 18: expected ')', got end of input"),
        ("query q(x): E(x,x) &\n F()\n", "line 2, column 2: relation 'F' needs at least one argument"),
        ("query q(x): E(x) & )\n", "line 1, column 20: expected an atom, 'true', 'exists' or '(', got ')'"),
        # header faults are reported at the offending token
        ("query exists(x): E(x)\n", "line 1, column 7: expected a query name after 'query'"),
        ("query q(): E(x)\n", "line 1, column 9: the liberal list must name at least one variable"),
        ("query q(x,\n  x): E(x)\n", "line 2, column 3: duplicate variable in the liberal list"),
    ],
    ids=["liberal-variable", "exists-binder", "atom-argument", "end-of-input", "unclosed", "empty-atom",
         "no-factor", "keyword-name", "empty-liberal-list", "duplicate-liberal"],
)
def test_epq_parse_errors_report_their_position(tmp_path, capsys, text, message):
    q = _write(tmp_path, "bad.epq", text)
    code, out, err = _run(capsys, "minimize", "-q", q)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_non_ascii_digit_arity_exits_two_with_its_position(tmp_path, capsys):
    # '²' is a digit to str.isdigit but not a decimal int() reads
    assert _count(capsys, tmp_path, "query q(x): E(x)\n", "signature E/\u00b2\nuniverse a\n") == (
        2, "", "error: line 1, column 11: arity must be an integer in 'E/\u00b2'\n"
    )


def test_missing_file_is_an_error(tmp_path, capsys):
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, _, err = _run(capsys, "count", "-q", str(tmp_path / "nope.epq"), "-d", d)
    assert code == 1
    assert "cannot read" in err


def test_dnf_cap_exits_three(tmp_path, capsys):
    q = _write(
        tmp_path, "big.epq", "query d(x): (U(x) | V(x)) & (U(x) | W(x)) & (V(x) | W(x))\n"
    )
    code, _, err = _run(capsys, "compile", "-q", q, "--max-dnf", "3")
    assert code == 3
    assert "disjuncts" in err


def test_inclusion_exclusion_cap_exits_three_before_any_term(tmp_path, capsys):
    q = _write(tmp_path, "u20.epq", _unary_union(20))
    for cmd in ("compile", "minimize"):
        assert _run(capsys, cmd, "-q", q) == (
            3, "", "error: inclusion-exclusion over 20 disjuncts needs 1048575 > 4096 terms\n"
        )


def test_count_caps_the_terms_left_after_dropping_contained_disjuncts(tmp_path, capsys):
    d = _write(
        tmp_path, "d.rel",
        "signature A0/1 A1/1 A2/1 A3/1 A4/1 A5/1 A6/1 B/1 E/2\n"
        "universe a b c\nA0(a)\nA1(b)\nB(a)\nE(a,a)\nE(b,c)\n",
    )
    # one liberal variable: the kept disjuncts are counted without any
    # inclusion-exclusion term to cap, also where a kept 13-element path
    # trips minimize_ep's core cap
    unary = " | ".join(f"A{i}(x)" for i in range(6))
    q = _write(
        tmp_path, "q.epq",
        f"query q(x): {unary} | (A0(x) & "
        "exists y . exists z . exists w . E(y,z) & E(z,w) & E(w,y) & E(y,y))\n",
    )
    assert _run(capsys, "count", "-q", q, "-d", d, "--max-dnf", "100", "--engine", "both") == (
        0, "2\nengines agree\n", ""
    )
    path = " & ".join(
        f"exists y{i} . E({'x' if i == 1 else f'y{i - 1}'},y{i})" for i in range(1, 13)
    )
    unary = " | ".join(f"A{i}(x)" for i in range(5))
    text = f"query q(x): {unary} | ({path}) | (A0(x) & B(x))\n"
    q = _write(tmp_path, "p.epq", text)
    with pytest.raises(CapExceeded, match="core search limited to 12 elements"):
        minimize_ep(parse_query(text), max_dnf=100)
    assert _run(capsys, "count", "-q", q, "-d", d, "--max-dnf", "100", "--engine", "both") == (
        0, "2\nengines agree\n", ""
    )
    # two liberal variables: the cap counts the 7 disjuncts kept once A0(x) &
    # B(x), contained in A0(x), is dropped, not all 8 (255 terms); the
    # two-edge walk, wider as a naive cast than as a core, keeps the
    # table-union route out
    text = (
        f"query q(x,v): {unary} | (exists y . exists z . E(x,y) & E(y,z) & A5(x)) "
        "| (A0(x) & B(x)) | A6(v)\n"
    )
    q = _write(tmp_path, "v.epq", text)
    assert _run(capsys, "count", "-q", q, "-d", d, "--max-dnf", "100") == (
        3, "", "error: inclusion-exclusion over 7 disjuncts needs 127 > 100 terms\n"
    )
    assert _run(capsys, "count", "-q", q, "-d", d, "--max-dnf", "127", "--engine", "both") == (
        0, "6\nengines agree\n", ""
    )


def test_count_drops_a_contained_disjunct_before_the_table_union_guard(
    tmp_path, capsys, monkeypatch
):
    # the second disjunct's answers lie inside the first's: the naive cast of
    # the whole query has width 3, while the first disjunct alone compiles at
    # width 2, and alone it is no union
    text = (
        "query c(x): (exists y . E(x,y)) | "
        "(exists y . (E(x,y) & exists z . exists w . E(y,z) & E(z,w) & E(w,y)))\n"
    )
    q = parse_query(text)
    assert width(naive_representation(q)) == 3 and minimize_ep(q)[1] == 2
    assert _union_or_kept(q, 4096, 24)[0] is None
    widths = []

    def spy(sentence, b, **kwargs):
        widths.append(width(sentence))
        return eval_sentence(sentence, b, **kwargs)

    monkeypatch.setattr(sharpq.cli, "eval_sentence", spy)
    rng = random.Random(1919)
    for _ in range(5):
        b = random_structure(rng, q.sig, min_size=2, max_size=5, density=0.4)
        expected = f"{oracle_count(q, b)}\nengines agree\n"
        assert _count(capsys, tmp_path, text, serialize_structure(b), "--engine", "both") == (
            0, expected, ""
        )
    assert widths == [2] * 5


def test_unknown_engine_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["count", "-q", "x", "-d", "y", "--engine", "fast"])
    assert exc.value.code == 2


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    q = _write(tmp_path, "u.epq", UNION_EPQ)
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "minimize", "-q", q, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(
    tmp_path, capsys, monkeypatch
):
    q = _write(tmp_path, "u.epq", UNION_EPQ)
    argv = ["minimize", "-q", q, "--json"]
    seeds = []
    seeded = sharpq.cli._seeded_structures
    monkeypatch.setattr(
        sharpq.cli,
        "_seeded_structures",
        lambda sig, seed: seeds.append(seed) or seeded(sig, seed=seed),
    )
    sharpq.cli.build_parser.cache_clear()
    first = _run(capsys, *argv)
    assert first[0] == 0
    parser = sharpq.cli.build_parser()
    assert _run(capsys, *argv, "--seed", "5")[0] == 0
    assert _run(capsys, *argv) == first
    assert seeds == [0, 5, 0]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-dnf", "0"])
    assert exc.value.code == 2
    assert sharpq.cli.build_parser() is parser


# ---------------------------------------------------------------------------
# Wide and deep inputs: an exit code, never a traceback
# ---------------------------------------------------------------------------

_DEEP_REL = (
    "signature A0/1 A1/1 A2/1 E/2\nuniverse a b c\n"
    "A0(a)\nA1(b)\nA2(a)\nA2(c)\nE(a,b)\nE(b,c)\nE(c,a)\nE(a,a)\n"
)


@st.composite
def _deep_epq(draw):
    n = draw(st.integers(1, 400))
    atoms = [f"A{draw(st.integers(0, 2))}(x)" for _ in range(min(n, 40))] * (n // 40 + 1)
    shape = draw(st.sampled_from(["and", "or", "mixed", "prefix", "nested", "parens"]))
    if shape in ("and", "or"):
        body = f" {'&' if shape == 'and' else '|'} ".join(atoms[:n])
    elif shape == "mixed":
        ops = draw(st.lists(st.sampled_from(["&", "|"]), min_size=n - 1, max_size=n - 1))
        body = atoms[0] + "".join(f" {op} {a}" for op, a in zip(ops, atoms[1:n]))
    elif shape == "prefix":  # a path: one long `exists` prefix
        body = "".join(f"exists y{i} . " for i in range(1, n)) + " & ".join(
            f"E({'x' if i == 0 else f'y{i}'},y{i + 1})" for i in range(n - 1)
        ) if n > 1 else "A0(x)"
    elif shape == "nested":  # an `exists` after every `&`
        body = "A0(x)" + "".join(
            f" & exists y{i} . E({'x' if i == 1 else f'y{i - 1}'},y{i})" for i in range(1, n)
        )
    else:  # nested parentheses, some unbalanced
        depth = n * draw(st.integers(1, 8))
        body = "(" * depth + "A0(x) | A1(x)" + ")" * (depth - draw(st.integers(0, 1)))
    return f"query deep(x): {body}\n"


@st.composite
def _deep_shq(draw):
    n = draw(st.integers(1, 1500))
    term = draw(st.sampled_from(["P{x} C[A0(x); {x}]", "P{x} C[A1(x) | A2(x); {x}]", "3"]))
    shape = draw(st.sampled_from(["left", "right", "prefix", "times"]))
    if shape == "left":
        return "(" * (n - 1) + term + "".join(f" + {term})" for _ in range(n - 1)) + "\n"
    if shape == "right":
        return "".join(f"({term} + " for _ in range(n - 1)) + term + ")" * (n - 1) + "\n"
    if shape == "prefix":  # distinct projections of variables the cast never mentions
        return "".join(f"P{{v{i}}} " for i in range(n)) + "C[A0(a); {a}]\n"
    return "(" * (n - 1) + "2" + " * 2)" * (n - 1) + "\n"


def _exit_code(argv):
    """cli.main's exit code; any exception but SharpqError escapes it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=30, deadline=None)
@given(st.one_of(_deep_epq(), _deep_shq()))
def test_wide_and_deep_inputs_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.epq" if text.startswith("query") else "in.shq")
        with open(path, "w") as fh:
            fh.write(text)
        if text.startswith("query"):
            data = os.path.join(tmp, "d.rel")
            with open(data, "w") as fh:
                fh.write(_DEEP_REL)
            codes = [_exit_code(["count", "-q", path, "-d", data, "--engine", "compiled"])]
        else:
            codes = [_exit_code([command, "-s", path]) for command in ("width", "flatten")]
    assert all(code in range(6) for code in codes), codes
