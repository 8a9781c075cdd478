"""Tests for sharpq.epquery: parsing, oracle counting, DNF, pair views, graphs."""

import itertools
import random

import pytest

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
    components,
    contract_graph,
    exists_components,
    free_variables,
    oracle_count,
    pair_to_pp,
    parse_query,
    pp_to_pair,
    primal_graph,
    serialize_pair,
    serialize_query,
    strip_nonliberal_components,
    to_dnf_pp,
)
from sharpq.errors import CapExceeded, ParseError, SharpqError
from sharpq.relstore import Signature, make_structure
from tests.conftest import (
    SIG_EF,
    brute_ep_count,
    ep_width,
    path_structure,
    random_ep_query,
    random_structure,
    triangle_structure,
)

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
    ],
    ids=["liberal-variable", "exists-binder", "quantified-header-variable", "atom-argument"],
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
    assert exists_components(p) == [frozenset({"w", "y"})]


def _star_query(n):
    atoms = " & ".join(f"E(z,x{i})" for i in range(1, n + 1))
    header = ",".join(f"x{i}" for i in range(1, n + 1))
    return parse_query(f"query s({header}): exists z . {atoms}")


def test_star_has_one_exists_component_and_clique_contract():
    p = pp_to_pair(_star_query(3))
    assert exists_components(p) == [frozenset({"z", "x1", "x2", "x3"})]
    # primal graph is a tree, yet the contract graph is a triangle
    assert primal_graph(p).edges == {
        frozenset({"z", "x1"}),
        frozenset({"z", "x2"}),
        frozenset({"z", "x3"}),
    }
    g = contract_graph(p)
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
    g = contract_graph(pp_to_pair(q))
    assert g.vertices == frozenset({"x0", "x1", "x2", "y0", "y1", "y2"})
    triangles = [("x0", "x1", "y0"), ("x1", "x2", "y1"), ("x2", "x0", "y2")]
    want = set()
    for tri in triangles:
        want |= {frozenset(e) for e in itertools.combinations(tri, 2)}
    assert g.edges == frozenset(want)
    assert len(g.edges) == 9


def test_contract_without_quantifiers_is_liberal_primal():
    q = parse_query("query q(x,y,z): E(x,y) & F(y,z)")
    p = pp_to_pair(q)
    assert contract_graph(p).edges == primal_graph(p).edges


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
    assert g.without_vertices({"b"}).vertices == frozenset("ac")
    assert [sorted(c) for c in g.connected_components()] == [["a", "b"], ["c"]]
