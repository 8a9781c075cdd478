"""The route `count` takes for a disjunction-free query with one liberal
variable: one width-bounded cast of its folded pair, cored within the core
cap, with no inclusion-exclusion term, canonical labeling or fallback."""

import random
from pathlib import Path

import pytest

import sharpq.cli
import sharpq.compilepipe as compilepipe
from sharpq.cli import main
from sharpq.compilepipe import (
    _fold_quantified,
    compile_flat,
    count_sentence,
    flatten,
    minimize_ep,
)
from sharpq.decomp import compute_qaw
from sharpq.epquery import _has_or, parse_query, pp_to_pair, serialize_query
from sharpq.equiv import core_of
from sharpq.errors import CapExceeded
from sharpq.relstore import serialize_structure
from sharpq.sharpcore import naive_representation, serialize_sharp, width

from tests.conftest import random_ep_query, random_structure

GOLDEN = Path(__file__).resolve().parent / "golden"


def _path(k):
    xs = [f"x{i}" for i in range(k + 1)]
    body = " & ".join(f"E({xs[i]},{xs[i + 1]})" for i in range(k))
    return f"query path{k}({xs[0]}): {''.join(f'exists {x} . ' for x in xs[1:])}{body}\n"


# a liberal variable in no atom, a `true` body, an isolated quantified
# variable, and a 13-element pair whose fold (z onto y1) leaves 12 elements
EDGE_CASES = (
    "query nowhere(x): exists y . E(y,y)\n",
    "query top(x): true\n",
    "query isolated(x): A(x) & exists z . B(z)\n",
    "query fold13(x): exists z . E(x,z) & "
    + " & ".join(f"exists y{i} . E({'x' if i == 1 else f'y{i - 1}'},y{i})" for i in range(1, 12))
    + "\n",
)


def _random_one_liberal(n, seed):
    rng = random.Random(seed)
    texts = []
    while len(texts) < n:
        q = random_ep_query(rng, max_vars=6, max_atoms=6, max_disjunctions=0)
        if len(q.liberal) == 1:
            texts.append(serialize_query(q))
    return texts


def _one_liberal_corpus():
    golden = [p.read_text() for p in sorted(GOLDEN.glob("*.epq"))]
    golden = [t for t in golden if len((q := parse_query(t)).liberal) == 1 and not _has_or(q.formula)]
    assert len(golden) >= 10
    return golden + [_path(k) for k in range(1, 31)] + list(EDGE_CASES) + _random_one_liberal(60, 30)


CORPUS = _one_liberal_corpus()


@pytest.fixture
def no_other_route(monkeypatch):
    """Every step of the union, minimize and fallback routes fails when run."""

    def refuse(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} ran on the one-liberal route")

        return run

    for name in ("_union_or_kept", "_minimize_kept", "flatten", "canonical_lc",
                 "compute_qaw", "pp_to_basic_sharp"):
        monkeypatch.setattr(compilepipe, name, refuse(name))
    for name in ("compile_flat", "flatten"):
        monkeypatch.setattr(sharpq.cli, name, refuse(name))


def test_count_agrees_with_the_oracle_on_every_one_liberal_conjunctive_query(
    tmp_path, capsys, no_other_route
):
    rng = random.Random(2030)
    query, data = tmp_path / "q.epq", tmp_path / "d.rel"
    for text in CORPUS:
        query.write_text(text)
        q = parse_query(text)
        # the oracle refuses more than 10^8 assignments of x0 and the binders
        size = max(n for n in range(1, 5) if n ** (1 + len(pp_to_pair(q).quantified)) <= 10**8)
        for _ in range(3):
            b = random_structure(rng, q.sig, min_size=1, max_size=size, density=0.4)
            data.write_text(serialize_structure(b))
            code = main(["count", "-q", str(query), "-d", str(data), "--engine", "both"])
            out, err = capsys.readouterr()
            assert (code, out.splitlines()[-1:], err) == (0, ["engines agree"], ""), text


def test_paths_count_the_starts_of_walks(tmp_path, capsys, no_other_route):
    # on graphs too large for the oracle: the vertices that start a walk of
    # k edges, found by k rounds of predecessors
    rng = random.Random(2031)
    query, data = tmp_path / "q.epq", tmp_path / "d.rel"
    for k in range(1, 31):
        query.write_text(_path(k))
        universe = [f"b{i}" for i in range(12)]
        edges = {(rng.choice(universe), rng.choice(universe)) for _ in range(14)}
        starts = set(universe)
        for _ in range(k):
            starts = {a for a, b in edges if b in starts}
        data.write_text(
            "signature E/2\nuniverse " + " ".join(universe) + "\n"
            + "".join(f"E({a},{b})\n" for a, b in sorted(edges))
        )
        assert main(["count", "-q", str(query), "-d", str(data)]) == 0
        assert capsys.readouterr() == (f"{len(starts)}\n", "")


def _expected_width(q):
    """compute_qaw of the folded pair's core, or of the folded pair itself
    when it is over the 12-element core cap."""
    pair = _fold_quantified(pp_to_pair(q))
    if len(pair.struct.universe) <= 12:
        pair = core_of(pair)
    return compute_qaw(pair)[0]


def test_the_cast_has_the_qaw_of_the_core_and_is_never_wider_than_before():
    over_cap = 0
    for text in CORPUS:
        q = parse_query(text)
        w = width(count_sentence(q))
        assert w == _expected_width(q), text
        fallback = compile_flat(flatten(naive_representation(q)))[1]
        assert w <= fallback, text
        try:
            assert w == minimize_ep(q)[1], text
        except CapExceeded:
            over_cap += 1
    # path-9 trips canon_cap, and path-12 onwards the core cap
    assert over_cap >= 20


def test_paths_cast_at_width_two_as_one_exists_chain():
    for k in range(1, 31):
        s = count_sentence(parse_query(_path(k)))
        assert width(s) == 2
        chain = "".join(f"(exists x{i} . E(x{i - 1},x{i}) & " for i in range(1, k))
        assert serialize_sharp(s) == (
            f"P{{x0}} C[{chain}(exists x{k} . E(x{k - 1},x{k})){')' * (k - 1)}; {{x0}}]"
        )


def test_edge_cases_build_the_expected_casts():
    texts = dict(zip(("nowhere", "top", "isolated", "fold13"), EDGE_CASES))
    sentences = {name: serialize_sharp(count_sentence(parse_query(t))) for name, t in texts.items()}
    assert sentences["nowhere"] == "P{x} C[(exists y . E(y,y)); {x}]"
    assert sentences["top"] == "P{x} C[true; {x}]"
    assert sentences["isolated"] == "P{x} C[A(x) & (exists z . B(z)); {x}]"
    assert width(count_sentence(parse_query(texts["fold13"]))) == 2


def test_a_fold_that_brings_the_pair_under_the_core_cap_lets_the_core_run(monkeypatch):
    q = parse_query(EDGE_CASES[3])
    assert len(pp_to_pair(q).struct.universe) == 13
    cored = []

    def spy(p, *args, **kwargs):
        cored.append(len(p.struct.universe))
        return core_of(p, *args, **kwargs)

    monkeypatch.setattr(compilepipe, "core_of", spy)
    count_sentence(q)
    assert cored == [12]
    cored.clear()
    count_sentence(parse_query(_path(12)))  # 13 elements, none folds
    assert cored == []


def test_the_cast_does_not_follow_set_order():
    # a 4-cycle through x with a pendant edge, a triangle hung off x by a
    # path, and a query whose core drops a and c: the root bag and the
    # nesting come from the decomposition's node order, never a set's order
    texts = (
        "query c4(x): exists a . exists b . exists c . exists d . "
        "E(x,a) & E(a,b) & F(a,c) & E(c,d) & F(x,d)\n",
        "query c3(x): exists a . exists b . exists c . exists d . "
        "E(a,b) & E(b,c) & E(c,a) & F(x,d) & F(d,a)\n",
        "query s(x): exists a . exists b . exists c . exists d . exists e . "
        "E(x,a) & E(x,b) & E(a,c) & F(b,d) & E(b,e) & F(e,x)\n",
    )
    assert [serialize_sharp(count_sentence(parse_query(t))) for t in texts] == [
        "P{x} C[(exists a . (exists c . E(x,a) & F(a,c) & (exists b . E(a,b)) "
        "& (exists d . E(c,d) & F(x,d)))); {x}]",
        "P{x} C[(exists d . F(x,d) & (exists a . F(d,a) & (exists b . (exists c . "
        "E(a,b) & E(b,c) & E(c,a))))); {x}]",
        "P{x} C[(exists b . (exists e . E(b,e) & E(x,b) & F(e,x) & (exists d . F(b,d)))); {x}]",
    ]
