"""Tests for sharpq.epquery: parsing, oracle counting, DNF, pair views, graphs."""

import itertools
import random

import pytest

from sharpq import epquery
from sharpq.compilepipe import _seeded_structures
from sharpq.epquery import (
    TOP,
    And,
    Atom,
    Exists,
    Graph,
    LiberalQuery,
    Or,
    PpPair,
    Top,
    _contract_graph,
    _exists_components,
    free_variables,
    oracle_count,
    pair_to_pp,
    parse_query,
    pp_to_pair,
    primal_graph,
    render_ep,
    serialize_pair,
    serialize_query,
    subformulas,
    to_dnf_pp,
)
from sharpq.errors import CapExceeded, ParseError, SharpqError
from sharpq.relstore import Signature, Structure, make_structure
from tests.conftest import (
    SIG_E,
    SIG_EF,
    brute_ep_count,
    ep_width,
    path_structure,
    random_ep_query,
    random_structure,
    triangle_structure,
)
from tests.helpers import components, reference_oracle_count, strip_nonliberal_components

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_conjunction():
    q = parse_query("query phi(x,y,z): E(x,y) & F(y,z)")
    assert q.name == "phi"
    assert q.liberal == ("x", "y", "z")
    assert q.formula == And(Atom("E", ("x", "y")), Atom("F", ("y", "z")))
    assert q.sig == Signature((("E", 2), ("F", 2)))


def test_and_binds_tighter_than_or():
    q = parse_query("query q(x,y,z): E(x,y) | E(y,z) & E(z,x)")
    assert q.formula == Or(
        Atom("E", ("x", "y")), And(Atom("E", ("y", "z")), Atom("E", ("z", "x")))
    )


def test_exists_extends_maximally_right():
    q = parse_query("query q(x): E(x,x) & exists v . F(v,x) | F(x,v)")
    want = And(
        Atom("E", ("x", "x")),
        Exists("v", Or(Atom("F", ("v", "x")), Atom("F", ("x", "v")))),
    )
    assert q.formula == want


def test_parens_override_precedence():
    q = parse_query("query q(x,y,z): (E(x,y) | E(y,z)) & E(z,x)")
    assert isinstance(q.formula, And)
    assert isinstance(q.formula.left, Or)


def test_parse_true():
    q = parse_query("query q(x): true")
    assert q.formula == TOP
    assert q.sig == Signature(())


def test_free_variable_not_in_header_is_error():
    with pytest.raises(ParseError, match="z"):
        parse_query("query phi(x,y): E(x,y) & F(y,z)")


def test_header_variable_quantified_is_error():
    with pytest.raises(ParseError, match="header"):
        parse_query("query q(x): exists x . E(x,x)")


def test_duplicate_header_variable_is_error():
    with pytest.raises(ParseError, match="duplicate"):
        parse_query("query q(x,x): E(x,x)")


def test_arity_conflict_is_error():
    with pytest.raises(ParseError, match="arities"):
        parse_query("query q(x,y): E(x,y) & E(x,x,y)")


def test_rename_apart_parallel_binders():
    q = parse_query("query q(x): (exists u . E(x,u)) & (exists u . F(x,u))")
    left, right = q.formula.left, q.formula.right
    assert isinstance(left, Exists) and isinstance(right, Exists)
    assert left.var != right.var
    assert free_variables(q.formula) == {"x"}
    # round-trips through the serializer
    assert parse_query(serialize_query(q)).formula == q.formula


def test_rename_apart_nested_shadowing():
    q = parse_query("query q(x): exists u . E(x,u) & exists u . F(u,u)")
    outer = q.formula
    assert isinstance(outer, Exists) and outer.var == "u"
    inner = outer.body.right
    assert isinstance(inner, Exists) and inner.var != "u"
    # the shadowed occurrences follow the inner binder
    assert inner.body == Atom("F", (inner.var, inner.var))


def test_unused_header_variable_is_fine():
    q = parse_query("query q(x,y): E(x,x)")
    assert q.liberal == ("x", "y")
    assert free_variables(q.formula) == {"x"}


def test_parse_error_reports_location():
    with pytest.raises(ParseError, match=r"line 2"):
        parse_query("query q(x):\n  E(x,x) % F(x,x)")


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("query q(x,\n  exists): E(x,x)", 2, 3),
        ("query q(x, y): E(x,y) & exists (", 1, 32),
        ("query q(x):\n  E(x,x) & exists x . E(x,x)", 2, 19),
        ("query q(x): E(x,\n  x, true)", 2, 6),
        ("query q(x):\n  E(x,x)  % F(x,x)", 2, 11),
    ],
    ids=["liberal-variable", "exists-binder", "quantified-header-variable", "atom-argument",
         "unexpected-character"],
)
def test_variable_errors_report_their_position(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_trailing_input_is_error():
    with pytest.raises(ParseError, match="trailing"):
        parse_query("query q(x): true (")


def test_comments_are_stripped():
    q = parse_query("# heading\nquery q(x): E(x,x) # a loop\n")
    assert q.formula == Atom("E", ("x", "x"))


def test_epq_and_shq_comments_follow_the_rel_rule():
    # as in `.rel`, a '#' begins a comment at a line's start or after
    # whitespace, and a '#' glued to a token is refused where it stands
    from sharpq.sharpcore import parse_sharp, serialize_sharp

    assert parse_query("query q(x): E(x,x)\t# tab\n# line\n").formula == Atom("E", ("x", "x"))
    assert serialize_sharp(parse_sharp("P{x} C[E(x,x); {x}] # c\n# d\n")) == "P{x} C[E(x,x); {x}]"
    for parse, text, message in (
        (parse_query, "query q(x): E(x,x)#glued\n", "line 1, column 19: unexpected character '#'"),
        (parse_sharp, "P{x} C[E(x,x); {x}]#c\n", "line 1, column 20: trailing input: '#'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def test_empty_header_is_error():
    with pytest.raises(ParseError, match="at least one"):
        parse_query("query q(): true")


def test_serialize_round_trip_fixed():
    q = parse_query("query q(x,y): (E(x,y) | (exists v . E(x,v) & E(v,y)))")
    canonical = "query q(x,y): E(x,y) | (exists v . E(x,v) & E(v,y))\n"
    assert serialize_query(q) == canonical
    assert parse_query(serialize_query(q)) == q


def test_serialize_round_trip_random():
    rng = random.Random(101)
    for _ in range(100):
        q = random_ep_query(rng)
        back = parse_query(serialize_query(q))
        assert back.formula == q.formula
        assert back.liberal == q.liberal
        assert back.name == q.name
        # the serializer re-infers the signature from atoms actually used
        assert set(back.sig.symbols) <= set(q.sig.symbols)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_two_unary_relations():
    # |q(B)| = |U1| * |U2| = 2 * 1, checked by hand
    sig = Signature((("U1", 1), ("U2", 1)))
    b = make_structure(sig, ["a", "b"], {"U1": {("a",), ("b",)}, "U2": {("b",)}})
    q = parse_query("query t(x1,x2): U1(x1) & U2(x2)")
    assert oracle_count(q, b) == 2


def test_oracle_exists_on_path():
    # x has an out-neighbour on a0->a1->a2 iff x in {a0, a1}
    q = parse_query("query q(x): exists y . E(x,y)")
    assert oracle_count(q, path_structure(2)) == 2


def test_oracle_top_counts_universe():
    q = parse_query("query q(x): true")
    assert oracle_count(q, path_structure(4)) == 5


def test_oracle_disjunction_single_edge():
    b = make_structure(Signature((("E", 2),)), ["a", "b"], {"E": {("a", "b")}})
    q = parse_query("query q(x,y): E(x,y) | E(y,x)")
    assert oracle_count(q, b) == 2  # (a,b) and (b,a)


def test_oracle_chain_single_witness():
    sig = SIG_EF
    b = make_structure(sig, ["a", "b", "c"], {"E": {("a", "b")}, "F": {("b", "c")}})
    q = parse_query("query q(x,y,z): E(x,y) & F(y,z)")
    assert oracle_count(q, b) == 1


def test_oracle_restores_a_shadowed_binder():
    # built by hand (the parser renames binders apart): the inner y shadows
    # the outer one, which E(x,y) reads after the inner binder is done
    from sharpq.sharpcore import Cast, Project, eval_sentence

    f = Exists("y", And(Exists("y", Atom("E", ("y", "x"))), Atom("E", ("x", "y"))))
    q = LiberalQuery(name="q", formula=f, liberal=("x",), sig=Signature((("E", 2),)))
    # x needs an in- and an out-neighbour on a0->a1->a2->a3: a1 and a2
    assert oracle_count(q, path_structure(3)) == 2
    assert eval_sentence(Project({"x"}, Cast(f, ("x",))), path_structure(3)) == 2


def test_oracle_matches_independent_brute_force():
    rng = random.Random(202)
    for _ in range(60):
        q = random_ep_query(rng, max_vars=4, max_atoms=4)
        b = random_structure(rng, q.sig, max_size=3)
        assert oracle_count(q, b) == brute_ep_count(q, b)


def test_oracle_guard_refuses_large_enumeration():
    q = parse_query("query q(x,y,z): exists u . exists v . E(x,u) & E(y,v) & E(z,u)")
    b = random_structure(random.Random(3), Signature((("E", 2),)), max_size=4, min_size=4)
    # 4^(3+2) = 1024 assignments > 1000
    with pytest.raises(CapExceeded, match="1024"):
        oracle_count(q, b, max_enum=1000)


def test_oracle_refuses_at_the_same_sizes_with_the_same_message():
    for n in range(1, 5):
        for n_lib in range(1, 4):
            for n_bound in range(4):
                lib = [f"x{i}" for i in range(n_lib)]
                chain = lib + [f"w{i}" for i in range(n_bound)]
                body = TOP
                for a, c in zip(chain, chain[1:]):
                    body = And(body, Atom("E", (a, c)))
                for w in reversed(chain[n_lib:]):
                    body = Exists(w, body)
                q = LiberalQuery(name="q", formula=body, liberal=tuple(lib), sig=SIG_E)
                b = path_structure(n - 1)
                for cap in (1, 8, 27, 64, 100, 729, 1000):
                    if n ** (n_lib + n_bound) > cap:
                        with pytest.raises(CapExceeded) as want:
                            reference_oracle_count(q, b, max_enum=cap)
                        with pytest.raises(CapExceeded) as got:
                            oracle_count(q, b, max_enum=cap)
                        assert str(got.value) == str(want.value)
                    else:
                        assert oracle_count(q, b, max_enum=cap) == reference_oracle_count(
                            q, b, max_enum=cap
                        )


def _oracle_bound(q, b):
    """The number of assignments oracle_count bounds its work on b by."""
    with pytest.raises(CapExceeded) as refused:
        oracle_count(q, b, max_enum=0)
    return int(str(refused.value).split()[2])


def test_oracle_bound_sums_the_branches_of_a_union():
    # on 3 elements, per value of x: A(x) once or 3 values of y; 13
    # branches of 3^2 values of y and z each, not 3^26 values of 26 binders
    facts = {"A": [("a",)], "E": [("a", "b"), ("b", "c")]}
    b = make_structure(Signature((("A", 1), ("E", 2))), ["a", "b", "c"], facts)
    q = parse_query("query q(x): A(x) | exists y . E(x,y)")
    assert _oracle_bound(q, b) == (1 + 3) * 3
    assert oracle_count(q, b, max_enum=12) == 2
    with pytest.raises(CapExceeded, match=r"^oracle_count refuses 12 > 11 enumerations; "):
        oracle_count(q, b, max_enum=11)
    walks = parse_query("query u(x): " + " | ".join(
        f"(exists y . exists z . E{i}(x,y) & E{i}(y,z))" for i in range(13)))
    walks_b = make_structure(walks.sig, ["a", "b", "c"], {"E0": [("a", "b"), ("b", "c")]})
    assert _oracle_bound(walks, walks_b) == 13 * 3**2 * 3
    assert oracle_count(walks, walks_b) == 1
    # `&` multiplies its sides' bounds, `exists` multiplies by |B|
    both = parse_query("query q(x): exists y . (A(y) | E(x,y)) & ((exists z . E(y,z)) | A(x))")
    assert _oracle_bound(both, b) == 3 * (1 + 1) * (3 + 1) * 3


class _LoggedUniverse(tuple):
    """A universe whose every iterator logs "new" at its first draw and
    "value" at each value it yields."""

    def __iter__(self):
        self.log.append("new")
        for e in tuple.__iter__(self):
            self.log.append("value")
            yield e


class _Logged:
    """b with a _LoggedUniverse, for a search run straight from its plan."""

    def __init__(self, b, log):
        self.universe = _LoggedUniverse(b.universe)
        self.universe.log = log
        self.tuples = b.tuples


def test_oracle_bound_is_never_below_the_assignments_the_search_visits():
    # an assignment is visited where the search binds a variable and goes no
    # deeper: no search below it draws a value before the next one is bound.
    # Few liberal variables leave room for binders, and sparse relations
    # make the chains search on
    rng = random.Random(3839)
    seen = 0
    while seen < 300:
        q = random_ep_query(rng, max_vars=6, max_atoms=6, max_disjunctions=3)
        if not epquery._has_or(q.formula) or len(q.liberal) > 2:
            continue
        density = rng.choice((0, 0.2, 0.5))
        b = random_structure(rng, q.sig, min_size=2, max_size=3, density=density)
        log = []
        assert epquery._oracle_plan(q)[0]({}, _Logged(b, log)) == oracle_count(q, b)
        visited = sum(e == "value" and later != "new" for e, later in zip(log, log[1:] + [None]))
        assert visited <= _oracle_bound(q, b), serialize_query(q)
        seen += 1


def test_oracle_matches_the_nested_loop_reference_on_random_queries():
    rng = random.Random(5151)
    for _ in range(500):
        q = random_ep_query(rng, max_vars=6, max_atoms=6)
        b = random_structure(rng, q.sig, max_size=4)
        assert oracle_count(q, b) == reference_oracle_count(q, b)


SIG_EU = Signature((("E", 2), ("U", 1)))


def _E(a, c):
    return Atom("E", (a, c))


def _U(a):
    return Atom("U", (a,))


def _hand_query(liberal, formula):
    return LiberalQuery(name="q", formula=formula, liberal=liberal, sig=SIG_EU)


# hand-built formulas (the parsers rename binders apart, so none of them
# reaches the oracle from text)
@pytest.mark.parametrize(
    "liberal, formula",
    [
        # the inner y shadows the outer one, which E(x,y) reads after it
        (("x",), Exists("y", And(Exists("y", _E("y", "x")), _E("x", "y")))),
        # the inner y runs once the outer y and z are bound; E(y,z) then
        # reads the outer y
        (("x",), Exists("y", Exists("z", And(
            And(_E("x", "y"), Exists("y", _E("z", "y"))), _E("y", "z"))))),
        # a binder shadows a liberal variable that E(x,y) reads after it
        (("x", "y"), And(Exists("y", _E("y", "x")), _E("x", "y"))),
        # one name bound twice in one chain: U(y) and E(y,w) read the inner y
        (("x",), Exists("y", Exists("y", Exists("w", And(
            And(_U("y"), _E("y", "w")), _E("w", "x")))))),
        # vacuous binders, before and after a used one
        (("x",), Exists("z", Exists("y", _E("x", "y")))),
        (("x",), Exists("y", Exists("z", _E("x", "y")))),
        (("x",), Exists("z", _U("x"))),
        # or under exists, exists inside or
        (("x",), Exists("y", Or(_E("x", "y"), And(_U("y"), _E("y", "x"))))),
        (("x",), Or(_U("x"), Exists("y", And(_E("y", "x"), _E("x", "y"))))),
        # true as a conjunct, as a body and beside an exists
        (("x",), Exists("y", And(TOP, _E("x", "y")))),
        (("x",), Exists("y", TOP)),
        (("x",), And(TOP, Exists("y", _E("y", "y")))),
        # repeated-variable atoms
        (("x",), Exists("y", And(_E("y", "y"), _E("x", "y")))),
        # a conjunct over liberal variables only, under a chain
        (("x", "z"), Exists("y", And(_E("y", "z"), And(_E("x", "z"), _U("y"))))),
    ],
    ids=[
        "shadowed-binder", "shadowed-bound-binder", "shadowed-liberal", "bound-twice",
        "vacuous-outer", "vacuous-inner", "vacuous-only", "or-under-exists", "exists-in-or",
        "top-conjunct", "top-body", "top-beside-exists", "repeated-variable",
        "liberal-only-conjunct",
    ],
)
def test_oracle_hand_cases_match_the_nested_loop_reference(liberal, formula):
    q = _hand_query(liberal, formula)
    rng = random.Random(8)
    for _ in range(60):
        b = random_structure(rng, SIG_EU, max_size=4, density=0.4)
        assert oracle_count(q, b) == reference_oracle_count(q, b)


def _shadowing_query(rng):
    """A random query whose binders come from a pool of four names that the
    liberal variables share, so a chain may bind one name twice and a
    binder may shadow an outer or liberal one; with true, repeated atom
    arguments and or under exists."""
    liberal = ("x", "y")[: rng.randint(1, 2)]

    def gen(scope, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.2:
            if rng.random() < 0.15:
                return TOP
            v = rng.choice(scope)
            if rng.random() < 0.3:
                return _U(v)
            return _E(v, v if rng.random() < 0.25 else rng.choice(scope))
        if roll < 0.55:
            binders = [rng.choice("xyzw") for _ in range(rng.randint(1, 3))]
            f = gen(scope + binders, depth - 1)
            for v in reversed(binders):
                f = Exists(v, f)
            return f
        if roll < 0.7:
            return Or(gen(scope, depth - 1), gen(scope, depth - 1))
        return And(gen(scope, depth - 1), gen(scope, depth - 1))

    return _hand_query(liberal, gen(list(liberal), rng.randint(2, 4)))


def _features(f):
    """The features of f among those _shadowing_query aims for."""
    found = set()
    for node in subformulas(f):
        if isinstance(node, Top):
            found.add("top")
        if isinstance(node, Atom) and len(set(node.args)) < len(node.args):
            found.add("repeated-argument")
        if isinstance(node, Exists):
            chain, body = [node.var], node.body
            while isinstance(body, Exists):
                chain.append(body.var)
                body = body.body
            if len(set(chain)) < len(chain):
                found.add("bound-twice-in-a-chain")
            if any(isinstance(g, Or) for g in subformulas(body)):
                found.add("or-under-exists")
    return found


def test_oracle_matches_the_reference_on_shadowing_queries_and_seeded_samples():
    # random renamed-apart queries and shadowing ones, each counted on the
    # 20 seeded samples of the self-check: the search compiled on the first
    # sample serves all the others
    rng = random.Random(1818)
    queries = [random_ep_query(rng, max_vars=4, max_atoms=4) for _ in range(40)]
    queries += [_shadowing_query(rng) for _ in range(80)]
    seen = set()
    for q in queries:
        seen |= _features(q.formula)
        for b in _seeded_structures(q.sig, seed=rng.randrange(100)):
            assert oracle_count(q, b) == reference_oracle_count(q, b), render_ep(q.formula)
    assert seen == {"top", "repeated-argument", "bound-twice-in-a-chain", "or-under-exists"}


def test_oracle_reads_the_innermost_of_two_binders_of_one_name():
    # U(y) and E(y,w) must see the same y: U holds only at a, which has no
    # out-edge, so no x qualifies (had U read an outer y, y = b, w = c would
    # let x = a through)
    b = make_structure(SIG_EU, ["a", "b", "c"], {"U": {("a",)}, "E": {("b", "c"), ("c", "a")}})
    f = Exists("y", Exists("y", Exists("w", And(And(_U("y"), _E("y", "w")), _E("w", "x")))))
    assert oracle_count(_hand_query(("x",), f), b) == 0


def test_oracle_checks_each_conjunct_as_soon_as_it_is_bound(monkeypatch):
    # exists y . exists z . E(x,y) & E(y,z) on E = {(a,b)}: E(x,y) is looked
    # up once per y; E(y,z) three times (once per z) after y = b passes, for
    # x = a only: 3 + 3 + 3 + 3 lookups
    lookups = []
    tuples = Structure.tuples

    def counted(self, name):
        lookups.append(name)
        return tuples(self, name)

    b = make_structure(SIG_E, ["a", "b", "c"], {"E": {("a", "b")}})
    q = parse_query("query q(x): exists y . exists z . E(x,y) & E(y,z)")
    monkeypatch.setattr(Structure, "tuples", counted)
    assert oracle_count(q, b) == 0
    assert len(lookups) == 12


def test_oracle_binds_first_the_liberal_variables_that_complete_a_conjunct(monkeypatch):
    # U(z) needs one variable and E(x,y) two, so z is bound first and, with
    # U empty, the search ends after one U lookup per z and no E lookup
    lookups = []
    tuples = Structure.tuples

    def counted(self, name):
        lookups.append(name)
        return tuples(self, name)

    b = make_structure(SIG_EU, ["a", "b", "c"], {"U": set(), "E": {("a", "b")}})
    q = parse_query("query q(x,y,z): E(x,y) & U(z)")
    monkeypatch.setattr(Structure, "tuples", counted)
    assert oracle_count(q, b) == 0
    assert lookups == ["U"] * 3


@pytest.mark.parametrize(
    "uses, liberal, order",
    [
        # the one-variable conjunct first, then the other in header order
        ([{"x", "y"}, {"z"}], ("x", "y", "z"), ["z", "x", "y"]),
        # a tie goes to the conjunct whose first unbound variable comes first
        # in the header; a variable no conjunct uses comes last
        ([{"a", "b"}, {"b", "c"}], ("w", "c", "b", "a"), ["c", "b", "a", "w"]),
        # once x is bound, E(x,y) needs only y
        ([{"x", "y"}, {"y", "z"}, {"z", "u"}], ("u", "z", "y", "x"), ["u", "z", "y", "x"]),
        ([{"x"}, {"x", "y"}, {"y", "z"}, {"z", "u"}], ("u", "z", "y", "x"), ["x", "y", "z", "u"]),
    ],
)
def test_oracle_liberal_order_completes_conjuncts_earliest(uses, liberal, order):
    assert epquery._liberal_order([frozenset(u) for u in uses], liberal) == order


def _balanced_and(conjuncts):
    while len(conjuncts) > 1:
        pairs = zip(conjuncts[::2], conjuncts[1::2])
        conjuncts = [And(a, c) for a, c in pairs] + conjuncts[len(conjuncts) // 2 * 2 :]
    return conjuncts[0]


def test_oracle_on_many_liberal_variables_needs_no_deep_stack():
    # 1,000 liberal variables in one atom, and 500 conjuncts over distinct
    # liberal variables as a balanced `&` tree: on one element the search
    # binds them all from its explicit stack
    names = tuple(f"x{i}" for i in range(1000))
    sig = Signature((("R", 1000),))
    wide = LiberalQuery(name="q", formula=Atom("R", names), liberal=names, sig=sig)
    many = LiberalQuery(
        name="q", formula=_balanced_and([Atom("U", (v,)) for v in names[:500]]),
        liberal=names[:500], sig=Signature((("U", 1),)),
    )
    for q, full in ((wide, ("a",) * 1000), (many, ("a",))):
        symbol = q.sig.symbols[0][0]
        for facts in ({full}, set()):
            b = make_structure(q.sig, ["a"], {symbol: facts})
            assert oracle_count(q, b) == reference_oracle_count(q, b) == len(facts)


def test_oracle_search_counts_the_passing_assignments_checking_each_conjunct_once_bound():
    # conjuncts over x, y, z and over none, and w in no conjunct: the search
    # counts what brute force counts, w as a factor |B|, and reaches each
    # test only with all of its variables bound; with `first` it returns at
    # the first passing assignment in order, which it leaves in h
    premature = []

    def conjunct(used, holds):
        def test(h, b):
            premature.extend(set(used) - h.keys())
            return holds(h)

        return test, frozenset(used)

    rng = random.Random(2121)
    for n in (2, 3):
        universe = [f"a{i}" for i in range(n)]
        b = make_structure(SIG_EU, universe, {})
        for _ in range(20):
            tables = [
                (used, {vals for vals in itertools.product(universe, repeat=len(used))
                        if rng.random() < 0.6})
                for used in (("x", "y"), ("y", "z"), ("x",), ())
            ]
            conjuncts = [conjunct(used, lambda h, used=used, t=t: tuple(h[v] for v in used) in t)
                         for used, t in tables]
            order = ("x", "y", "z", "w")
            passing = [
                vals for vals in itertools.product(universe, repeat=len(order))
                if all(tuple(dict(zip(order, vals))[v] for v in used) in t for used, t in tables)
            ]
            assert epquery._backtrack(order, conjuncts)({}, b) == len(passing)
            h = {}
            assert bool(epquery._backtrack(order, conjuncts, first=True)(h, b)) == bool(passing)
            if passing:
                assert h == dict(zip(order[:3], passing[0]))
    assert premature == []


def test_oracle_chain_stops_at_its_first_assignment_and_restores_shadowed_values(monkeypatch):
    # exists x . exists y . E(x,y) on E = {(c,a)}: x = a and x = b each fail
    # three lookups, x = c passes at y = a, so 7 of the 9 pairs are looked up
    lookups = []
    tuples = Structure.tuples

    def counted(self, name):
        lookups.append(name)
        return tuples(self, name)

    f = Exists("x", Exists("y", _E("x", "y")))
    ((chain, used),) = epquery._conjunct_list(epquery.fold(f, epquery._ORACLE_STEPS))
    assert used == frozenset()
    b = make_structure(SIG_EU, ["a", "b", "c"], {"E": {("c", "a")}})
    monkeypatch.setattr(Structure, "tuples", counted)
    for h in ({"x": "b", "y": "c", "z": "a"}, {"y": "a"}, {}):
        before = dict(h)
        lookups.clear()
        assert chain(h, b)
        assert len(lookups) == 7
        assert h == before


def _nested(levels, shape):
    """A formula with free variable x whose compiled tests nest `levels`
    deep: `|` levels `U(x) | (E(x,x) & ...)`, or `exists` chains
    `exists y1 . E(x,y1) & exists y2 . E(y1,y2) & ...`, around U(x) or
    U(y<levels>). The `&`s nest no level."""
    if shape == "|":
        f = _U("x")
        for _ in range(levels):
            f = Or(_U("x"), And(_E("x", "x"), f))
        return f
    f = _U(f"y{levels}")
    for i in range(levels, 0, -1):
        f = Exists(f"y{i}", And(_E(f"y{i - 1}" if i > 1 else "x", f"y{i}"), f))
    return f


@pytest.mark.parametrize("shape", ["|", "exists"])
def test_oracle_answers_at_its_depth_cap_and_refuses_one_level_deeper(shape, monkeypatch):
    import sys

    from sharpq.sharpcore import Cast, Project, eval_sentence

    assert sys.getrecursionlimit() == 1000
    at_cap = _nested(epquery._ORACLE_DEPTH, shape)
    assert sum(epquery.fold(at_cap, epquery._DEPTH_STEPS)) == 200 == epquery._ORACLE_DEPTH
    q = _hand_query(("x",), at_cap)
    # on E's loop with U empty every level runs down to the innermost atom
    for facts in itertools.product((set(), {("a",)}), (set(), {("a", "a")})):
        b = make_structure(SIG_EU, ["a"], dict(zip("UE", facts)))
        assert oracle_count(q, b) == eval_sentence(Project({"x"}, Cast(at_cap, ("x",))), b)
    deeper = _hand_query(("x",), _nested(epquery._ORACLE_DEPTH + 1, shape))

    def search(*args):
        raise AssertionError("a search was compiled")

    monkeypatch.setattr(epquery, "_backtrack", search)
    with pytest.raises(CapExceeded) as refused:
        oracle_count(deeper, b)
    assert str(refused.value) == (
        "oracle_count refuses a formula whose tests nest 201 > 200 levels deep; "
        "each `|` and each `exists` chain nests one level"
    )


def test_and_nests_no_level_of_the_oracle_depth():
    # 400 conjuncts are one flat list; each maximal exists chain is one
    # level, however many binders it has
    chain = _U("x")
    for _ in range(399):
        chain = And(chain, _U("x"))
    prefix = Exists("y", Exists("z", And(_E("x", "y"), And(_E("y", "z"), chain))))
    for f, levels in ((chain, 0), (prefix, 1), (Or(prefix, chain), 2), (And(prefix, prefix), 1)):
        assert sum(epquery.fold(f, epquery._DEPTH_STEPS)) == levels
    b = make_structure(SIG_EU, ["a", "b"], {"U": {("a",)}, "E": {("a", "b"), ("b", "b")}})
    q = _hand_query(("x",), chain)
    assert oracle_count(q, b) == reference_oracle_count(q, b) == 1


def test_oracle_signature_mismatch():
    q = parse_query("query q(x,y): E(x,y)")
    b = make_structure(Signature((("E", 1),)), ["a"], {"E": {("a",)}})
    with pytest.raises(SharpqError, match="arity"):
        oracle_count(q, b)
    b2 = make_structure(Signature((("F", 2),)), ["a"], {})
    with pytest.raises(SharpqError, match="lacks"):
        oracle_count(q, b2)


# ---------------------------------------------------------------------------
# DNF
# ---------------------------------------------------------------------------


def test_dnf_distributes_and_over_or():
    q = parse_query("query q(x,y,z): E(x,y) & (F(y,z) | E(y,z))")
    parts = to_dnf_pp(q)
    assert [p.formula for p in parts] == [
        And(Atom("E", ("x", "y")), Atom("F", ("y", "z"))),
        And(Atom("E", ("x", "y")), Atom("E", ("y", "z"))),
    ]
    assert all(p.liberal == q.liberal for p in parts)
    assert len({p.name for p in parts}) == 2


def test_dnf_removes_duplicate_disjuncts():
    q = parse_query("query q(x): (E(x,x) | E(x,x)) & true")
    assert len(to_dnf_pp(q)) == 1


def test_dnf_pushes_exists_inside():
    q = parse_query("query q(x): exists v . E(x,v) | F(x,v)")
    parts = to_dnf_pp(q)
    assert [p.formula for p in parts] == [
        Exists("v", Atom("E", ("x", "v"))),
        Exists("v", Atom("F", ("x", "v"))),
    ]


def test_dnf_guard():
    q = parse_query(
        "query q(x): (E(x,x) | F(x,x)) & (E(x,x) | F(x,x)) & (E(x,x) | F(x,x))"
    )
    with pytest.raises(CapExceeded):
        to_dnf_pp(q, max_disjuncts=3)


def _satisfying_set(q, b):
    out = set()
    for vals in itertools.product(b.universe, repeat=len(q.liberal)):
        single = LiberalQuery(name="s", formula=q.formula, liberal=q.liberal, sig=q.sig)
        # count one assignment by pinning it through a 1-point check
        h = dict(zip(q.liberal, vals))
        if _holds(q.formula, h, b):
            out.add(vals)
    return out


def _holds(f, h, b):
    if isinstance(f, Atom):
        return tuple(h[a] for a in f.args) in b.tuples(f.symbol)
    if isinstance(f, And):
        return _holds(f.left, h, b) and _holds(f.right, h, b)
    if isinstance(f, Or):
        return _holds(f.left, h, b) or _holds(f.right, h, b)
    if isinstance(f, Exists):
        return any(_holds(f.body, {**h, f.var: v}, b) for v in b.universe)
    if isinstance(f, Top):
        return True
    raise TypeError(f)


def test_dnf_preserves_satisfying_assignments():
    rng = random.Random(303)
    for _ in range(40):
        q = random_ep_query(rng, max_vars=4, max_atoms=4)
        b = random_structure(rng, q.sig, max_size=3)
        parts = to_dnf_pp(q)
        union = set()
        for p in parts:
            union |= _satisfying_set(p, b)
        assert union == _satisfying_set(q, b)


def test_dnf_never_increases_width():
    rng = random.Random(404)
    for _ in range(60):
        q = random_ep_query(rng, max_vars=5, max_atoms=4)
        w = ep_width(q.formula)
        for p in to_dnf_pp(q):
            assert ep_width(p.formula) <= w


def test_dnf_outputs_are_disjunction_free():
    rng = random.Random(505)

    def has_or(f):
        if isinstance(f, Or):
            return True
        if isinstance(f, And):
            return has_or(f.left) or has_or(f.right)
        if isinstance(f, Exists):
            return has_or(f.body)
        return False

    for _ in range(40):
        q = random_ep_query(rng)
        assert not any(has_or(p.formula) for p in to_dnf_pp(q))


# ---------------------------------------------------------------------------
# pair view
# ---------------------------------------------------------------------------

MIXED = "query phi(u,v,w,x): E(u,v) & exists y . F(w,y)"


def test_pair_view_universe_and_relations():
    p = pp_to_pair(parse_query(MIXED))
    assert p.struct.universe == ("u", "v", "w", "x", "y")
    assert p.struct.tuples("E") == {("u", "v")}
    assert p.struct.tuples("F") == {("w", "y")}
    assert p.liberal == ("u", "v", "w", "x")
    assert p.quantified == ("y",)


def test_pair_requires_disjunction_free():
    q = parse_query("query q(x): E(x,x) | F(x,x)")
    with pytest.raises(SharpqError, match="disjunction-free"):
        pp_to_pair(q)


def test_pair_collapses_duplicate_atoms():
    q = parse_query("query q(x,y): E(x,y) & E(x,y)")
    p = pp_to_pair(q)
    assert p.struct.tuples("E") == {("x", "y")}


def test_pair_of_pure_top():
    q = parse_query("query q(x): true")
    p = pp_to_pair(q)
    assert p.struct.universe == ("x",)
    assert p.liberal == ("x",)


def test_pair_round_trip_is_a_fixpoint():
    # one round trip may reorder quantified elements and drop isolated ones;
    # after that the representation is stable
    rng = random.Random(606)
    for _ in range(50):
        q = random_ep_query(rng, max_disjunctions=0)
        p = pp_to_pair(q)
        p2 = pp_to_pair(pair_to_pp(p))
        p3 = pp_to_pair(pair_to_pp(p2))
        assert serialize_pair(p3) == serialize_pair(p2)
        assert p2.liberal == p.liberal
        assert p2.struct.relations == p.struct.relations


def test_pair_round_trip_preserves_counts():
    rng = random.Random(707)
    for _ in range(40):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=0)
        b = random_structure(rng, q.sig, max_size=3)
        back = pair_to_pp(pp_to_pair(q))
        assert oracle_count(back, b) == oracle_count(q, b) == brute_ep_count(q, b)


def test_pair_to_pp_quantifies_non_liberal():
    p = pp_to_pair(parse_query(MIXED))
    q = pair_to_pp(p)
    assert q.liberal == ("u", "v", "w", "x")
    assert isinstance(q.formula, Exists) and q.formula.var == "y"
    assert free_variables(q.formula) == {"u", "v", "w"}


# ---------------------------------------------------------------------------
# graphs of a pair
# ---------------------------------------------------------------------------


def test_primal_graph_edges():
    p = pp_to_pair(parse_query(MIXED))
    g = primal_graph(p)
    assert g.vertices == frozenset("uvwxy")
    assert g.edges == {frozenset("uv"), frozenset("wy")}


def test_primal_graph_ignores_repeated_variables():
    q = parse_query("query q(x): E(x,x)")
    g = primal_graph(pp_to_pair(q))
    assert g.vertices == frozenset("x")
    assert g.edges == frozenset()


def test_components_split_in_three():
    p = pp_to_pair(parse_query(MIXED))
    comps = components(p)
    assert len(comps) == 3
    assert [c.struct.universe for c in comps] == [("u", "v"), ("w", "y"), ("x",)]
    assert [c.liberal for c in comps] == [("u", "v"), ("w",), ("x",)]
    assert comps[0].struct.tuples("E") == {("u", "v")}
    assert comps[1].struct.tuples("F") == {("w", "y")}
    assert list(comps[2].struct.all_facts()) == []


def test_component_counts_multiply():
    rng = random.Random(808)
    for _ in range(40):
        q = random_ep_query(rng, max_vars=5, max_atoms=4, max_disjunctions=0)
        b = random_structure(rng, q.sig, max_size=3)
        p = pp_to_pair(q)
        prod = 1
        for c in components(p):
            prod *= oracle_count(pair_to_pp(c), b)
        assert prod == oracle_count(q, b)


def test_exists_components_fixed():
    p = pp_to_pair(parse_query(MIXED))
    assert _exists_components(primal_graph(p), p.liberal_set) == [frozenset({"w", "y"})]


def _star_query(n):
    atoms = " & ".join(f"E(z,x{i})" for i in range(1, n + 1))
    header = ",".join(f"x{i}" for i in range(1, n + 1))
    return parse_query(f"query s({header}): exists z . {atoms}")


def test_star_has_one_exists_component_and_clique_contract():
    p = pp_to_pair(_star_query(3))
    primal, lib = primal_graph(p), p.liberal_set
    comps = _exists_components(primal, lib)
    assert comps == [frozenset({"z", "x1", "x2", "x3"})]
    # primal graph is a tree, yet the contract graph is a triangle
    assert primal.edges == {
        frozenset({"z", "x1"}),
        frozenset({"z", "x2"}),
        frozenset({"z", "x3"}),
    }
    g = _contract_graph(primal, lib, comps)
    assert g.vertices == frozenset({"x1", "x2", "x3"})
    assert len(g.edges) == 3


def test_contract_graph_of_three_overlapping_blocks():
    # three arity-4 atoms, each with its own quantified variable; the contract
    # graph glues a triangle per block, 9 edges in total
    q = parse_query(
        "query q(x0,x1,x2,y0,y1,y2): "
        "(exists z0 . T0(x0,x1,y0,z0)) & (exists z1 . T1(x1,x2,y1,z1)) "
        "& (exists z2 . T2(x2,x0,y2,z2))"
    )
    primal, lib = primal_graph(pp_to_pair(q)), frozenset(q.liberal)
    g = _contract_graph(primal, lib, _exists_components(primal, lib))
    assert g.vertices == frozenset({"x0", "x1", "x2", "y0", "y1", "y2"})
    triangles = [("x0", "x1", "y0"), ("x1", "x2", "y1"), ("x2", "x0", "y2")]
    want = set()
    for tri in triangles:
        want |= {frozenset(e) for e in itertools.combinations(tri, 2)}
    assert g.edges == frozenset(want)
    assert len(g.edges) == 9


def test_contract_without_quantifiers_is_liberal_primal():
    q = parse_query("query q(x,y,z): E(x,y) & F(y,z)")
    primal, lib = primal_graph(pp_to_pair(q)), frozenset(q.liberal)
    assert _exists_components(primal, lib) == []
    assert _contract_graph(primal, lib, []).edges == primal.edges


def test_strip_nonliberal_components():
    q = parse_query("query q(x): E(x,x) & exists u . exists v . E(u,v)")
    p = strip_nonliberal_components(pp_to_pair(q))
    assert p.struct.universe == ("x",)
    assert p.struct.tuples("E") == {("x", "x")}
    assert p.liberal == ("x",)


def test_strip_everything_is_error():
    q = parse_query("query q(x): exists u . E(u,u)")
    p = pp_to_pair(q)
    # x is isolated and liberal, so it survives; build a sentence pair instead
    sentence = PpPair(struct=p.struct, liberal=())
    with pytest.raises(SharpqError, match="non-liberal"):
        strip_nonliberal_components(sentence)


def test_graph_helpers():
    g = Graph(frozenset("abc"), frozenset({frozenset("ab")}))
    assert g.neighbors("a") == {"b"}
    assert g.induced({"a", "c"}).edges == frozenset()
    assert g.with_clique("abc").edges == {
        frozenset("ab"), frozenset("ac"), frozenset("bc")
    }
    assert g.induced(g.vertices - {"b"}).vertices == frozenset("ac")
    assert [sorted(c) for c in g.connected_components()] == [["a", "b"], ["c"]]


# --- the oracle's work bound, folded with its search, against its own fold ---


def _reference_times(p1, p2):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p1.items(), p2.items()):
        out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


# the bound as a fold of its own: |B| per binder, `&` multiplies, `|` adds
_REFERENCE_BOUND_STEPS = {
    **dict.fromkeys((Atom, Top), lambda node: {0: 1}),
    Exists: lambda node, body: {e + 1: c for e, c in body.items()},
    And: lambda node, left, right: _reference_times(left, right),
    Or: lambda node, left, right: {e: left.get(e, 0) + right.get(e, 0) for e in left | right},
}


def test_the_oracle_bound_equals_its_own_fold():
    rng = random.Random(3901)
    checked = 0
    while checked < 500:
        q = random_ep_query(rng, max_vars=5, max_atoms=6, max_disjunctions=3)
        if not any(isinstance(node, Or) for node in subformulas(q.formula)):
            continue
        want = epquery.fold(q.formula, _REFERENCE_BOUND_STEPS)
        assert epquery._oracle_plan(q)[1] == want
        checked += 1
