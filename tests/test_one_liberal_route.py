"""The route `count` takes for a query with one liberal variable that the
table union does not take: one width-bounded cast of the folded pairs of the
disjuncts no other disjunct contains, each cored within the core cap, with
no inclusion-exclusion term or canonical labeling."""

import itertools
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
    minimize_ep,
)
from sharpq.decomp import compute_qaw, validate_td
from sharpq.epquery import (
    Exists,
    Graph,
    _has_or,
    parse_query,
    pp_to_pair,
    serialize_query,
    subformulas,
)
from sharpq.equiv import core_of
from sharpq.errors import CapExceeded, SharpqError
from sharpq.relstore import make_structure, serialize_structure
from sharpq.sharpcore import eval_sentence, naive_representation, serialize_sharp, width

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


def _random_one_liberal(n, seed, max_disjunctions=0):
    """n random queries with one liberal variable, with `|` when
    max_disjunctions allows it."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < n:
        q = random_ep_query(rng, max_vars=6, max_atoms=6, max_disjunctions=max_disjunctions)
        if len(q.liberal) == 1 and _has_or(q.formula) == (max_disjunctions > 0):
            texts.append(serialize_query(q))
    return texts


def _one_liberal_corpus():
    golden = [p.read_text() for p in sorted(GOLDEN.glob("*.epq"))]
    golden = [t for t in golden if len((q := parse_query(t)).liberal) == 1 and not _has_or(q.formula)]
    assert len(golden) >= 10
    return golden + [_path(k) for k in range(1, 31)] + list(EDGE_CASES) + _random_one_liberal(60, 30)


CORPUS = _one_liberal_corpus()


def _refuse(monkeypatch, names):
    """Make each named step of compilepipe, and of the cli where it looks the
    step up, fail when run."""

    def refuse(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} ran on a route that does not use it")

        return run

    for name in names:
        for module in (compilepipe, sharpq.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))


# the steps of inclusion-exclusion and of compile's per-term route
TERM_STEPS = ("_ie_terms", "canonical_lc", "pp_to_basic_sharp", "flatten", "compile_flat")


@pytest.fixture
def no_other_route(monkeypatch):
    """Every step of the table-union guard, inclusion-exclusion and compile's
    per-term route fails when run; _union_or_kept runs, and finds no
    disjunction."""
    _refuse(monkeypatch, ("naive_representation", "compute_qaw", *TERM_STEPS))


@pytest.fixture
def no_terms(monkeypatch):
    """Every step of inclusion-exclusion and of compile's per-term route
    fails when run; the table-union guard runs."""
    _refuse(monkeypatch, TERM_STEPS)


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
        assert w <= compile_flat(q)[1], text
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


# ---------------------------------------------------------------------------
# one-liberal unions: one cast of the kept disjuncts
# ---------------------------------------------------------------------------


WALK2 = "(exists y . exists z . E(x,y) & E(y,z))"
PATH12 = "(" + " & ".join(
    f"exists y{i} . E({'x' if i == 1 else f'y{i - 1}'},y{i})" for i in range(1, 13)
) + ")"

# (query, width, disjuncts in the cast): the naive cast of each is wider than
# its disjuncts' cores (a two-edge walk casts at width 3 against qaw 2), or
# the core cap refuses the table-union guard, so none takes the table union
UNION_CASES = (
    # the second disjunct lies inside the first, the third duplicates it
    (f"query cd(x): {WALK2} | ({WALK2[1:-1]} & F(z)) | "
     "(exists u . exists v . E(x,u) & E(u,v))\n", 2, 1),
    (f"query top(x): {WALK2} | true\n", 1, 1),
    (f"query nowhere(x): {WALK2} | (exists y . F(y,y))\n", 2, 2),
    # a 13-element path, which no fold shrinks: the core cap refuses it
    (f"query overcap(x): A(x) | {PATH12}\n", 2, 2),
    ("query ei(x): " + " | ".join(
        f"(exists y . exists z . E{i}(x,y) & E{i}(y,z))" for i in range(10)) + "\n", 2, 10),
)


def _random_glued_unions(n, seed):
    """Unions of 2-4 random conjunctive queries over x0, whose disjuncts
    survive the drop more often than those of a random query with `|`;
    draws whose symbols clash in arity are skipped."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < n:
        bodies = []
        for _ in range(rng.randint(2, 4)):
            q = random_ep_query(rng, max_vars=6, max_atoms=5, max_disjunctions=0)
            if len(q.liberal) == 1:
                bodies.append(f"({serialize_query(q).split(': ', 1)[1].strip()})")
        text = f"query u(x0): {' | '.join(bodies)}\n"
        try:
            parse_query(text)
        except SharpqError:
            continue
        if len(bodies) > 1:
            texts.append(text)
    return texts


UNIONS = [
    *(text for text, _, _ in UNION_CASES),
    *_random_one_liberal(200, 33, max_disjunctions=3),
    *_random_glued_unions(100, 34),
]


def _oracle_size(q):
    """The largest structure size, at most 4, whose assignments of the
    liberal variable and every binder the oracle enumerates within 10^8."""
    binders = sum(isinstance(node, Exists) for node in subformulas(q.formula))
    return max(n for n in range(1, 5) if n ** (1 + binders) <= 10**8)


def test_count_agrees_with_the_oracle_on_one_liberal_unions_without_building_terms(
    tmp_path, capsys, no_terms
):
    rng = random.Random(2033)
    query, data = tmp_path / "q.epq", tmp_path / "d.rel"
    for text in UNIONS:
        query.write_text(text)
        q = parse_query(text)
        for _ in range(3):
            b = random_structure(rng, q.sig, min_size=1, max_size=_oracle_size(q), density=0.4)
            data.write_text(serialize_structure(b))
            code = main(["count", "-q", str(query), "-d", str(data), "--engine", "both"])
            out, err = capsys.readouterr()
            assert (code, out.splitlines()[-1:], err) == (0, ["engines agree"], ""), text


def test_one_liberal_unions_are_never_wider_than_compile_flat():
    casts = multi = 0
    for text in UNIONS:
        q = parse_query(text)
        sentence = count_sentence(q)
        if sentence != naive_representation(q):
            casts += 1
            multi += " | " in serialize_sharp(sentence)
        assert width(sentence) <= compile_flat(q)[1], text
    # the union cases and most random unions take the cast, and some casts
    # keep two or more disjuncts
    assert casts >= 150 and multi >= 20


@pytest.mark.parametrize("text, w, k", UNION_CASES, ids=[t.split("(")[0][6:] for t, _, _ in UNION_CASES])
def test_a_union_the_table_route_refuses_is_one_cast_of_its_kept_disjuncts(no_terms, text, w, k):
    q = parse_query(text)
    sentence = count_sentence(q)
    assert (width(sentence), serialize_sharp(sentence).count(" | ") + 1) == (w, k)
    assert serialize_sharp(sentence).startswith("P{x} C[")
    assert width(naive_representation(q)) > w or text.startswith("query overcap")


def test_the_ten_disjunct_walk_union_counts_on_2000_elements_as_one_cast(no_terms):
    # each E_i holds 100 random edges; x is an answer when some E_i holds a
    # walk of two edges from x
    rng = random.Random(2034)
    q = parse_query(UNION_CASES[-1][0])
    universe = [f"b{i}" for i in range(2000)]
    rels = {f"E{i}": {tuple(rng.sample(universe, 2)) for _ in range(100)} for i in range(10)}
    b = make_structure(q.sig, universe, rels)
    expected = len({x for edges in rels.values() for x, y in edges
                    for y2, _ in edges if y2 == y})
    assert eval_sentence(count_sentence(q), b) == expected


def test_the_cast_cores_each_kept_disjunct_once(monkeypatch):
    # the ten disjuncts share one shape: the table-union guard cores the
    # first and refuses, and the cast takes that core and cores the other
    # nine, with the text it had when it cored all ten again
    cored = []

    def spy(p, *args, **kwargs):
        cored.append(p)
        return core_of(p, *args, **kwargs)

    monkeypatch.setattr(compilepipe, "core_of", spy)
    sentence = count_sentence(parse_query(UNION_CASES[-1][0]))
    assert len(cored) == len({id(p) for p in cored}) == 10
    names = [("y", "z")] + [(f"y${2 * i - 1}", f"z${2 * i}") for i in range(1, 10)]
    assert serialize_sharp(sentence) == "P{x} C[" + " | ".join(
        f"(exists {y} . E{i}(x,{y}) & (exists {z} . E{i}({y},{z})))"
        for i, (y, z) in enumerate(names)
    ) + "; {x}]"


def test_union_casts_do_not_follow_set_order():
    # the kept disjuncts in query order, each nested along its decomposition
    assert [serialize_sharp(count_sentence(parse_query(t))) for t, _, _ in UNION_CASES[:3]] == [
        "P{x} C[(exists y . E(x,y) & (exists z . E(y,z))); {x}]",
        "P{x} C[true; {x}]",
        "P{x} C[(exists y . E(x,y) & (exists z . E(y,z))) | (exists y$1 . F(y$1,y$1)); {x}]",
    ]


def test_every_decomposition_the_cast_nests_along_is_valid_and_rooted_at_y(monkeypatch):
    # count checks no decomposition on this route: each disjunct is nested
    # along exact_treewidth's decomposition of its pair's primal graph,
    # rerooted at a bag holding y. Here each one is checked against a graph
    # built from the facts _nest is handed, and its root bag must hold y
    inside, nested, reached = [False], [], set()
    real_sentence, real_nest = compilepipe._one_liberal_sentence, compilepipe._nest

    def sentence_spy(liberal, pairs, tw_cap):
        inside[0] = True
        try:
            return real_sentence(liberal, pairs, tw_cap)
        finally:
            inside[0] = False

    def nest_spy(td, walk, facts, quantified):
        facts = list(facts)
        if inside[0]:
            nested.append((td, facts, quantified))
        return real_nest(td, walk, facts, quantified)

    monkeypatch.setattr(compilepipe, "_one_liberal_sentence", sentence_spy)
    monkeypatch.setattr(compilepipe, "_nest", nest_spy)
    for text in CORPUS + UNIONS:
        q = parse_query(text)
        (y,) = q.liberal
        nested.clear()
        count_sentence(q)
        for td, facts, quantified in nested:
            edges = {frozenset(e) for _, tup in facts for e in itertools.combinations(set(tup), 2)}
            g = Graph(frozenset(quantified | {y}), frozenset(edges))
            assert validate_td(td, g) == [], text
            assert y in td.bags[td.root], text
        if nested:
            reached.add(text)
    assert len(reached) >= 200
