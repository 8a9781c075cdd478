"""Tests for sharpq.sharpcore: AST validity, width, .shq format, evaluation."""

import functools
import itertools
import random
import re
import sys
from collections import defaultdict

import pytest

from sharpq import epquery, relstore, sharpcore
from sharpq.compilepipe import _seeded_structures, compile_flat, flatten, minimize_ep
from sharpq.epquery import (
    TOP,
    And,
    Atom,
    Exists,
    Or,
    fold,
    oracle_count,
    parse_query,
    render_ep,
    serialize_query,
    subformulas,
)
from sharpq.errors import CapExceeded, ParseError, SharpqError
from sharpq.relstore import Signature, make_structure, serialize_structure
from sharpq.sharpcore import (
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    check_represents,
    eval_sentence,
    naive_representation,
    parse_sharp,
    serialize_sharp,
    sharp_width,
    validate,
    width,
)
from tests.conftest import (
    SIG_EF,
    brute_ep_count,
    ep_width,
    path_structure,
    random_ep_query,
    random_structure,
    text_with_a_repeated_line,
    triangle_structure,
)
from tests.helpers import evaluate

# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_projection_of_cast():
    f = parse_sharp("P{y} C[E(x,y); {x,y}]")
    assert f == Project(
        frozenset({"y"}), Cast(ep=Atom("E", ("x", "y")), liberal=("x", "y"))
    )
    report = validate(f)
    assert (report.free, report.closed) == ({"x"}, {"y"})


def test_parse_rejects_cast_missing_free_variable():
    with pytest.raises(ParseError, match="liberal set must contain"):
        parse_sharp("(C[E(x,y);{x}] * 3)")


def test_parse_sum_closing_same_variable_is_fine():
    f = parse_sharp("(P{y} C[E(x,y);{x,y}] + P{y} C[F(x,y);{x,y}])")
    report = validate(f)
    assert report.ok
    assert report.free == {"x"}
    assert report.closed == {"y"}


def test_product_closing_same_variable_is_violation():
    f = Times(
        Project(frozenset({"y"}), Cast(Atom("E", ("x", "y")), ("x", "y"))),
        Project(frozenset({"y"}), Cast(Atom("F", ("x", "y")), ("x", "y"))),
    )
    report = validate(f)
    assert not report.ok
    assert report.violations[0].path == "root"
    assert "disjoint closed" in report.violations[0].message


def test_product_free_mismatch_is_violation():
    f = Times(Cast(Atom("E", ("x", "y")), ("x", "y")), Const(3))
    report = validate(f)
    assert not report.ok
    assert "equal free sets" in report.violations[0].message


def test_violations_are_reported_bottom_up():
    f = Times(Cast(Atom("E", ("x", "y")), ("x",)), Const(3))
    report = validate(f)
    assert report.violations[0].path == "root.left"
    assert "liberal set" in report.violations[0].message


def test_projection_of_closed_variable_is_violation():
    f = Project(
        frozenset({"y"}),
        Project(frozenset({"y"}), Cast(Atom("E", ("x", "y")), ("x", "y"))),
    )
    report = validate(f)
    assert not report.ok
    assert "may not be closed" in report.violations[0].message


def test_expand_must_be_fresh():
    f = Expand(frozenset({"x"}), Cast(Atom("E", ("x", "y")), ("x", "y")))
    assert "fresh" in validate(f).violations[0].message
    g = Expand(
        frozenset({"y"}),
        Project(frozenset({"y"}), Cast(Atom("E", ("x", "y")), ("x", "y"))),
    )
    assert "fresh" in validate(g).violations[0].message


def test_parse_negative_constant():
    assert parse_sharp("-3") == Const(-3)
    assert parse_sharp("(C[true; {}] * -1)") == Times(
        Cast(TOP, ()), Const(-1)
    )


def test_parse_empty_varset():
    f = parse_sharp("P{} C[true; {}]")
    assert f == Project(frozenset(), Cast(TOP, ()))


def test_parse_allows_whitespace_inside_an_opener():
    f = parse_sharp("P {x} E\t{y} C\n[E(x,x); {x}]")
    assert serialize_sharp(f) == "P{x} E{y} C[E(x,x); {x}]"
    with pytest.raises(ParseError, match="column 1: expected 'C\\[', 'P\\{'"):
        parse_sharp("P (C[E(x,x); {x}])")


def test_parse_error_location():
    with pytest.raises(ParseError, match="line 2"):
        parse_sharp("P{x}\n  Q[E(x,x); {x}]")


def test_parse_missing_semicolon():
    with pytest.raises(ParseError, match=";"):
        parse_sharp("C[E(x,y) {x,y}]")


@pytest.mark.parametrize(
    "text, message",
    [
        ("C[E(x); {x}] x", "line 1, column 14: trailing input: 'x'"),
        ("C[E(x); {1}]", "line 1, column 10: expected a variable name"),
        ("C[E(x); {x y}]", "line 1, column 12: expected ',' or '}' in variable set"),
        ("(C[U(x); {x}] - C[V(x); {x}])", "line 1, column 15: expected '*' or '+'"),
        ("C[E(x); {x})", "line 1, column 12: expected ']'"),
    ],
    ids=["trailing", "variable-name", "variable-set", "operator", "cast-close"],
)
def test_parse_errors_name_the_fault_and_its_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse_sharp(text)
    assert str(exc.value) == message


def test_serialize_round_trip_fixed():
    text = "P{x} (P{y} C[E(x,y); {x,y}] * P{z} C[F(x,z); {x,z}])"
    f = parse_sharp(text)
    assert parse_sharp(serialize_sharp(f)) == f
    assert serialize_sharp(f) == text


def _random_sharp(rng, depth=3):
    """Random valid counting formula over variables x0..x3, symbols E,F."""
    vars_pool = ["x0", "x1", "x2", "x3"]

    def gen_cast():
        k = rng.randint(1, 3)
        lib = rng.sample(vars_pool, k)
        atoms = []
        for _ in range(rng.randint(1, 2)):
            sym = rng.choice(["E", "F"])
            atoms.append(f"{sym}({rng.choice(lib)},{rng.choice(lib)})")
        return parse_sharp(f"C[{' & '.join(atoms)}; {{{','.join(lib)}}}]")

    def gen(d):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            return gen_cast() if rng.random() < 0.8 else Const(rng.randint(-3, 5))
        if roll < 0.5:
            child = gen(d - 1)
            cl = validate(child).closed
            candidates = [v for v in vars_pool if v not in cl]
            if not candidates:
                return child
            return Project(frozenset(rng.sample(candidates, rng.randint(1, len(candidates)))), child)
        if roll < 0.65:
            child = gen(d - 1)
            report = validate(child)
            candidates = [v for v in vars_pool if v not in report.free | report.closed]
            if not candidates:
                return child
            return Expand(frozenset({rng.choice(candidates)}), child)
        left = gen(d - 1)
        right = gen(d - 1)
        fl, cll = validate(left).free, validate(left).closed
        frr, clr = validate(right).free, validate(right).closed
        # align free sets with expansions where legal, else give up on this shape
        def pad(node, have, have_closed, want):
            extra = want - have - have_closed
            if have | extra != want:
                return None
            return Expand(frozenset(extra), node) if extra else node
        want = fl | frr
        left2 = pad(left, fl, cll, want)
        right2 = pad(right, frr, clr, want)
        if left2 is None or right2 is None:
            return left
        if rng.random() < 0.5 and not (cll & clr):
            return Times(left2, right2)
        return Plus(left2, right2)

    return gen(depth)


def test_serialize_round_trip_random():
    rng = random.Random(111)
    produced = 0
    for _ in range(200):
        f = _random_sharp(rng)
        if not validate(f).ok:
            continue
        produced += 1
        assert parse_sharp(serialize_sharp(f)) == f
    assert produced > 150


# ---------------------------------------------------------------------------
# width
# ---------------------------------------------------------------------------


def _three_block_formula():
    casts = []
    for i in range(3):
        j = (i + 1) % 3
        ep = Exists(f"z{i}", Atom(f"T{i}", (f"x{i}", f"x{j}", f"y{i}", f"z{i}")))
        casts.append(
            Project(
                frozenset({f"y{i}"}),
                Cast(ep, (f"x0", f"x1", f"x2", f"y{i}")),
            )
        )
    return Times(Times(casts[0], casts[1]), casts[2])


def test_three_block_formula_free_closed_and_width():
    f = _three_block_formula()
    report = validate(f)
    assert report.ok
    assert report.free == {"x0", "x1", "x2"}
    assert report.closed == {"y0", "y1", "y2"}
    assert width(f) == 4
    assert sharp_width(f) == 4


def test_const_width_zero():
    assert width(Const(5)) == 0
    report = validate(Const(5))
    assert (report.free, report.closed) == (frozenset(), frozenset())


def test_width_counts_ep_subformulas():
    # the cast's liberal set has one variable, but the atom under the
    # quantifier mentions two
    f = Cast(Exists("y", Atom("E", ("x", "y"))), ("x",))
    assert width(f) == 2
    assert sharp_width(f) == 1


def test_naive_width_is_liberal_count():
    q = parse_query("query q(x,y,z): E(x,y) & F(y,z)")
    f = naive_representation(q)
    assert width(f) == 3
    assert sharp_width(f) == 3


def test_sharp_width_at_most_width_random():
    rng = random.Random(222)
    for _ in range(100):
        f = _random_sharp(rng)
        if validate(f).ok:
            assert sharp_width(f) <= width(f)


def _recursive_width(f, casts_inside=True):
    """width (casts_inside=True) or sharp_width by their recursive
    definitions: max |free| over the counting subformulas, and over the ep
    subformulas inside casts for width."""
    w = len(validate(f).free)
    if isinstance(f, Cast):
        return max(w, ep_width(f.ep)) if casts_inside else w
    if isinstance(f, (Project, Expand)):
        return max(w, _recursive_width(f.child, casts_inside))
    if isinstance(f, (Times, Plus)):
        return max(w, *(_recursive_width(g, casts_inside) for g in (f.left, f.right)))
    return w


def test_width_and_sharp_width_match_the_recursive_definitions():
    rng = random.Random(222)
    formulas = [_random_sharp(rng) for _ in range(100)]
    # casts of random ep queries hold Exists and Or
    formulas += [naive_representation(random_ep_query(rng)) for _ in range(100)]
    checked = 0
    for f in formulas:
        if validate(f).ok:
            checked += 1
            assert width(f) == _recursive_width(f)
            assert sharp_width(f) == _recursive_width(f, casts_inside=False)
    assert checked > 180
    # the minimized 9-disjunct unary union (8,444 nodes): its sum chain is
    # too deep for the recursive definitions at the default recursion limit
    union = parse_query("query u(x): " + " | ".join(f"A{i}(x)" for i in range(9)))
    f = minimize_ep(union)[0]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        want = _recursive_width(f), _recursive_width(f, casts_inside=False)
    finally:
        sys.setrecursionlimit(limit)
    assert (width(f), sharp_width(f)) == want == (1, 1)


def test_subformulas_visit_both_asts_in_pre_order_left_to_right():
    e_xy, u_x, e_yx = Atom("E", ("x", "y")), Atom("U", ("x",)), Atom("E", ("y", "x"))
    ex = Exists("y", e_xy)
    disj = Or(ex, u_x)
    cast1 = Cast(disj, ("x",))
    conj = And(e_xy, e_yx)
    cast2 = Cast(conj, ("x", "y"))
    proj = Project({"y"}, cast2)
    prod = Times(cast1, proj)
    const = Const(2)
    expand = Expand({"x"}, const)
    total = Plus(prod, expand)
    f = Project({"x"}, total)
    expected = [f, total, prod, cast1, disj, ex, e_xy, u_x, proj, cast2, conj, e_xy, e_yx,
                expand, const]
    got = subformulas(f)
    assert len(got) == len(expected)
    assert all(g is e for g, e in zip(got, expected))
    assert subformulas(e_xy) == [e_xy]


def test_fold_runs_in_post_order_left_to_right_with_contexts_top_down():
    e_xy, u_x = Atom("E", ("x", "y")), Atom("U", ("x",))
    shared = Cast(And(e_xy, u_x), ("x", "y"))
    f = Plus(Times(shared, Project({"z"}, Expand({"z"}, shared))), Const(1))
    seen = []
    classes = (Atom, And, Cast, Project, Expand, Times, Plus, Const)
    fold(f, dict.fromkeys(classes, lambda node, *kids: seen.append(node)))
    # the shared cast is folded once under each parent
    once = [e_xy, u_x, shared.ep, shared]
    assert seen == once + once + [f.left.right.child, f.left.right, f.left, f.right, f]
    # a context flows down: here, each node's depth; the deepest atoms are the
    # ones under Times -> Project -> Expand -> Cast -> And
    depths = fold(
        f,
        dict.fromkeys(classes, lambda node, depth, *kids: max([depth, *kids])),
        dict.fromkeys(classes, lambda node, d: [(getattr(node, k), d + 1) for k in node._kids]),
        0,
    )
    assert depths == 6


def test_a_node_shared_under_two_contexts_is_evaluated_under_each():
    # E(x,y) sits under `exists y` in one cast (y is dropped there) and free
    # in the other: sum over x of [some E(x,y)] * #{y : E(x,y)}
    e_xy = Atom("E", ("x", "y"))
    f = Project({"x"}, Times(
        Cast(Exists("y", e_xy), ("x",)), Project({"y"}, Cast(e_xy, ("x", "y")))
    ))
    rng = random.Random(11)
    for _ in range(30):
        b = random_structure(rng, Signature((("E", 2),)), max_size=4, density=0.4)
        edges = b.tuples("E")
        expected = sum(len({y for x2, y in edges if x2 == x}) for x in b.universe)
        assert eval_sentence(f, b) == expected


def test_deep_chains_pass_every_walk_at_the_default_recursion_limit():
    # a 5,000-deep sum of one shared sentence and a 2,000-deep conjunction:
    # validation, serialization, parsing, flattening and evaluation all fold
    term = Project({"x"}, Cast(Atom("A", ("x",)), ("x",)))
    deep_plus = functools.reduce(Plus, [term] * 5000)
    deep_and = Project(
        {"x"}, Cast(functools.reduce(And, [Atom(f"A{i % 7}", ("x",)) for i in range(2000)]), ("x",))
    )
    sig = Signature((("A", 1),) + tuple((f"A{i}", 1) for i in range(7)))
    rels = {"A": {("a",), ("b",)}, **{f"A{i}": {("a",)} for i in range(7)}}
    b = make_structure(sig, ["a", "b", "c"], rels)
    for f, count, terms in ((deep_plus, 10000, 5000), (deep_and, 1, 1)):
        assert validate(f).ok
        assert parse_sharp(serialize_sharp(f)) == f
        assert eval_sentence(f, b) == count
        assert len(flatten(f).terms) == terms


def test_deep_formulas_compare_hash_and_print_through_their_text(monkeypatch):
    term = Project({"x"}, Cast(Atom("A", ("x",)), ("x",)))
    deep_plus = functools.reduce(Plus, [term] * 5000)
    deep_and = functools.reduce(And, [Atom(f"A{i % 7}", ("x",)) for i in range(5000)])
    for f, text, parse in (
        (deep_plus, serialize_sharp, parse_sharp),
        (deep_and, render_ep, lambda text: parse_query(f"query q(x): {text}").formula),
    ):
        g = parse(text(f))
        assert g is not f and g == f and not g != f
        assert hash(g) == hash(f)
        assert repr(f) == f"<{type(f).__name__} {text(f)}>"
        assert f != type(f)(f.left, f.left)
    assert len({deep_plus, parse_sharp(serialize_sharp(deep_plus)), term}) == 2
    assert Cast(TOP, ()) != TOP and TOP != Cast(TOP, ())
    # nodes of different classes are unequal before any text is rendered
    rendered = []
    monkeypatch.setattr(sharpcore, "serialize_sharp", rendered.append)
    assert deep_plus != Const(0) and rendered == []


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_two_projected_casts():
    # counts assignments {x,y,z} -> B with E(x,y) and F(x,z)
    text = "P{x} (P{y} C[E(x,y); {x,y}] * P{z} C[F(x,z); {x,z}])"
    f = parse_sharp(text)
    rng = random.Random(7)
    q = parse_query("query q(x,y,z): E(x,y) & F(x,z)")
    for _ in range(20):
        b = random_structure(rng, SIG_EF, max_size=4)
        assert eval_sentence(f, b) == oracle_count(q, b)


def test_eval_projection_of_absent_variable():
    b = random_structure(random.Random(1), SIG_EF, max_size=4, min_size=4)
    assert eval_sentence(parse_sharp("P{v} 1"), b) == 4


def test_eval_expand_then_project():
    b = path_structure(2)  # 3 elements
    assert eval_sentence(parse_sharp("P{x} E{x} 7"), b) == 21


def test_eval_negative_constant():
    assert eval_sentence(Const(-3), triangle_structure()) == -3


def test_eval_sum_with_negatives_cancels():
    b = triangle_structure()
    f = parse_sharp("(C[E(x,y); {x,y}] + (C[E(x,y); {x,y}] * E{x,y} -1))")
    t = evaluate(f, b)
    assert t.data == {}
    assert t.value({"x": "t0", "y": "t1"}) == 0


def test_eval_requires_sentence():
    with pytest.raises(SharpqError, match="free"):
        eval_sentence(parse_sharp("C[E(x,y); {x,y}]"), triangle_structure())


def test_eval_rejects_invalid_formula():
    f = Times(Cast(Atom("E", ("x", "y")), ("x", "y")), Const(3))
    with pytest.raises(SharpqError, match="invalid"):
        evaluate(f, triangle_structure())


def test_eval_signature_mismatch():
    f = parse_sharp("C[G(x); {x}]")
    with pytest.raises(SharpqError, match="lacks"):
        evaluate(f, triangle_structure())


def test_eval_table_guard():
    f = parse_sharp("C[E(x,y); {x,y}]")
    with pytest.raises(CapExceeded, match="rows"):
        evaluate(f, triangle_structure(), max_rows=3)
    # exists over a conjunction: y is projected inside the join, so the
    # largest table is the 9-row answer over (x,z), never the 12 walks
    # over (x,y,z); the cap still fires on that join
    g = parse_sharp("C[exists y . E(x,y) & E(y,z); {x,z}]")
    stats = {}
    assert evaluate(g, triangle_structure(), stats=stats).n_rows == 9
    assert stats["peak_rows"] == 9
    stats = {}
    with pytest.raises(CapExceeded, match="rows"):
        evaluate(g, triangle_structure(), max_rows=8, stats=stats)
    assert stats["peak_rows"] == 6


def test_eval_cast_keeps_padding_implicit():
    # the extension over liberal variables beyond free(ep) must not blow up
    # the stored table
    ep = Atom("E", ("x", "y"))
    f = Cast(ep, ("x", "y", "u1", "u2", "u3"))
    b = triangle_structure()
    stats = {}
    t = evaluate(f, b, stats=stats)
    assert set(t.wildcard) == {"u1", "u2", "u3"}
    assert t.n_rows == 6
    assert stats["peak_rows"] == 6
    # but the table still answers point queries over the padded variables
    assert t.value({"x": "t0", "y": "t1", "u1": "t2", "u2": "t0", "u3": "t1"}) == 1


def test_eval_wildcard_projection_factor():
    # P over a wildcard variable multiplies by |B| without materializing
    f = parse_sharp("P{u} C[E(x,y); {x,y,u}]")
    b = triangle_structure()
    t = evaluate(f, b)
    assert t.value({"x": "t0", "y": "t1"}) == 3
    assert t.n_rows == 6


def test_eval_projecting_every_cast_column_counts_rows():
    # every explicit column of the cast is summed: 6 edges times |B| for the
    # padding variable u; the unsummed padding variable w stays a wildcard
    f = parse_sharp("P{x,y,u} C[E(x,y); {x,y,u,w}]")
    stats = {}
    t = evaluate(f, triangle_structure(), stats=stats)
    assert (t.explicit, t.wildcard) == ((), ("w",))
    assert [val for _, val in t.sorted_rows()] == [18, 18, 18]
    assert stats["peak_rows"] == 6


def test_project_expand_inverse():
    rng = random.Random(333)
    checked = 0
    for _ in range(80):
        f = _random_sharp(rng)
        report = validate(f)
        if not report.ok:
            continue
        fresh = [v for v in ["u0", "u1"] if v not in report.free | report.closed]
        if not fresh:
            continue
        V = frozenset(fresh)
        g = Project(V, Expand(V, f))
        b = random_structure(rng, SIG_EF, max_size=3)
        t1 = evaluate(g, b)
        t0 = evaluate(f, b)
        assert t0.wildcard == tuple(sorted(report.free - set(t0.explicit)))
        scale = len(b.universe) ** len(V)
        checked += 1
        for h, val in t0.sorted_rows():
            assert t1.value(h) == scale * val
        for h, val in t1.sorted_rows():
            assert t0.value(h) * scale == val
    assert checked > 40


def test_times_and_plus_commute():
    rng = random.Random(444)
    checked = 0
    for _ in range(120):
        f = _random_sharp(rng)
        if not isinstance(f, (Times, Plus)):
            continue
        if not validate(f).ok:
            continue
        swapped = type(f)(f.right, f.left)
        b = random_structure(rng, SIG_EF, max_size=3)
        checked += 1
        assert evaluate(f, b) == evaluate(swapped, b)
    assert checked > 10
    # products of counts whose sides have different explicit columns: the
    # right side's a strict subset of the left's, then each side with the
    # shared x and a column of its own
    for text, columns in (
        ("(P{w} C[E(x,w) & E(w,y); {x,y,w}] * E{y} P{v} C[F(x,v); {x,v}])", ("x",)),
        ("(E{z} P{w} C[E(x,w) & E(w,y); {x,y,w}] * E{y} P{v} C[F(x,v) & F(v,z); {x,z,v}])",
         ("x", "z")),
    ):
        f, larger = parse_sharp(text), 0
        for _ in range(10):
            b = random_structure(rng, SIG_EF, min_size=3, max_size=4, density=0.5)
            t, t1, t2 = evaluate(f, b), evaluate(f.left, b), evaluate(f.right, b)
            assert (t1.explicit, t2.explicit) == (("x", "y"), columns)
            assert evaluate(Times(f.right, f.left), b) == t
            for values in itertools.product(b.universe, repeat=3):
                h = dict(zip(("x", "y", "z"), values))
                assert t.value(h) == t1.value(h) * t2.value(h)
            larger += any(val > 1 for _, val in t.sorted_rows())
        assert larger > 3


def test_values_nonnegative_without_plus_or_negatives():
    rng = random.Random(555)
    checked = 0
    for _ in range(80):
        f = _random_sharp(rng)
        if not validate(f).ok:
            continue

        def clean(node):
            if isinstance(node, Plus):
                return False
            if isinstance(node, Const):
                return node.n >= 0
            if isinstance(node, (Project, Expand)):
                return clean(node.child)
            if isinstance(node, Times):
                return clean(node.left) and clean(node.right)
            return True

        if not clean(f):
            continue
        b = random_structure(rng, SIG_EF, max_size=3)
        checked += 1
        for _h, val in evaluate(f, b).sorted_rows():
            assert val >= 0
    assert checked > 20


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def test_naive_representation_of_two_unary_relations():
    sig = Signature((("U1", 1), ("U2", 1)))
    b = make_structure(sig, ["a", "b"], {"U1": {("a",), ("b",)}, "U2": {("b",)}})
    q = parse_query("query t(x1,x2): U1(x1) & U2(x2)")
    f = naive_representation(q)
    assert width(f) == 2
    assert eval_sentence(f, b) == 2


def test_naive_representation_matches_oracle():
    rng = random.Random(666)
    for _ in range(50):
        q = random_ep_query(rng, max_vars=4, max_atoms=4)
        b = random_structure(rng, q.sig, max_size=3)
        f = naive_representation(q)
        assert eval_sentence(f, b) == oracle_count(q, b) == brute_ep_count(q, b)


def test_check_represents_passes_and_fails():
    q = parse_query("query q(x,y): E(x,y)")
    samples = [path_structure(2), triangle_structure()]
    ok, witness = check_represents(naive_representation(q), q, samples)
    assert ok and witness is None
    ok, witness = check_represents(Const(0), q, samples)
    assert not ok
    assert witness is samples[0]


def test_check_represents_checks_each_distinct_sample_once(monkeypatch):
    # out-neighbours counted by the sentence of in-neighbours: the seeded
    # samples of one binary symbol hold 14 distinct structures in 20, and
    # the first counterexample, the eighth sample, is the same whether the
    # list repeats samples or not
    q = parse_query("query q(x): exists y . E(x,y)")
    wrong = naive_representation(parse_query("query q(x): exists y . E(y,x)"))
    samples = _seeded_structures(q.sig)
    unique = []
    for b in samples:
        if b not in unique:
            unique.append(b)
    copies = [make_structure(b.sig, b.universe, b.relations) for b in samples]
    repeated = [b for pair in zip(samples, copies) for b in pair] + samples
    first = check_represents(wrong, q, unique)
    assert first == (False, samples[7])
    assert check_represents(wrong, q, samples)[1] is first[1]
    assert check_represents(wrong, q, repeated)[1] is first[1]
    calls = []
    counted = epquery.oracle_count

    def spy(q, b):
        calls.append(b)
        return counted(q, b)

    monkeypatch.setattr(epquery, "oracle_count", spy)
    assert check_represents(naive_representation(q), q, repeated) == (True, None)
    assert len(unique) == 14 and calls == unique


def test_check_represents_plans_the_sentence_once(monkeypatch):
    # the sentence's plan and every join plan in it are made before the
    # first sample: 14 distinct samples make as many as one
    q = parse_query("query q(x): exists y . exists z . E(x,y) & E(y,z) & E(z,x)")
    sentence = minimize_ep(q)[0]
    samples = list(dict.fromkeys(_seeded_structures(q.sig)))
    calls = []

    def spy(name, run):
        def counted(*args):
            calls.append(name)
            return run(*args)

        return counted

    monkeypatch.setattr(sharpcore, "_join_plan", spy("join", sharpcore._join_plan))
    monkeypatch.setattr(
        sharpcore._Evaluator, "_make_plan", spy("plan", sharpcore._Evaluator._make_plan)
    )
    counts = []
    for some in (samples[:1], samples):
        calls.clear()
        assert check_represents(sentence, q, some) == (True, None)
        counts.append(sorted(calls))
    assert len(samples) == 14 and counts[0] == counts[1]
    assert counts[0].count("plan") == 1 and "join" in counts[0]


def _value_or_refusal(run):
    try:
        return run()
    except CapExceeded as exc:
        return f"refused: {exc}"


def test_one_evaluator_over_many_structures_and_two_formulas_matches_fresh_ones():
    # one evaluator runs a formula's plan on each structure and plans
    # again when the formula changes: its values,
    # largest tables and cap refusals are those of a fresh evaluator per call
    rng = random.Random(1919)
    refused = 0
    for _ in range(25):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=1)
        formulas = [naive_representation(q), minimize_ep(q)[0]]
        structures = [random_structure(rng, q.sig, max_size=3) for _ in range(4)]
        calls = [(f, b) for f in formulas for b in structures]
        calls += [(f, b) for b in structures for f in formulas]
        for max_rows in (3, 10**7):
            stats = {}
            evaluator = sharpcore._Evaluator(max_rows, stats)
            for f, b in calls:
                stats["peak_rows"] = 0
                sig = sharpcore._sentence_signature(f)
                got = _value_or_refusal(lambda: sharpcore._sentence_value(f, sig, b, evaluator))
                fresh = {}
                want = _value_or_refusal(lambda: eval_sentence(f, b, max_rows, fresh))
                assert (got, stats["peak_rows"]) == (want, fresh["peak_rows"]), serialize_sharp(f)
                refused += str(want).startswith("refused")
    assert refused > 50


# ---------------------------------------------------------------------------
# semijoin chains: a repeated key set reuses the rows it filtered
# ---------------------------------------------------------------------------


def _chain_query(symbols):
    """The walks that spell `symbols`, one edge each, from the liberal x0."""
    xs = [f"x{i}" for i in range(len(symbols) + 1)]
    body = " & ".join(f"{s}({xs[i]},{xs[i + 1]})" for i, s in enumerate(symbols))
    return parse_query(f"query q(x0): {''.join(f'exists {x} . ' for x in xs[1:])}{body}")


def _chain_sentence(q):
    # the sentence `count` evaluates for a long path, whose core search is
    # refused: each level a semijoin of one relation with the level below
    return compile_flat(q)[0]


def _graph(sig, facts):
    universe = sorted({e for tuples in facts.values() for t in tuples for e in t})
    return make_structure(sig, universe, facts)


def _spy_on_filter_passes(monkeypatch):
    """The sizes of the key sets a relation is filtered by, in turn."""
    passes = []
    filtered = sharpcore._semijoin

    def spy(t, at, keys):
        passes.append(len(keys))
        return filtered(t, at, keys)

    monkeypatch.setattr(sharpcore, "_semijoin", spy)
    return passes


def test_a_semijoin_chain_at_its_fixpoint_filters_the_relation_a_few_times(monkeypatch):
    # walks of 40 edges on a 3-cycle with a tail: the walk starts fall from
    # 5 vertices to 3 in two levels and then stay, so the 39 semijoins
    # filter E three times
    q = _chain_query("E" * 40)
    b = _graph(q.sig, {"E": {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)}})
    sentence = _chain_sentence(q)
    passes = _spy_on_filter_passes(monkeypatch)
    assert eval_sentence(sentence, b) == 3 == oracle_count(q, b, max_enum=6**41)
    assert passes == [5, 4, 3]


@pytest.mark.parametrize(
    "symbols, facts, passes",
    [
        # E keeps its sources' key set {0, 1} while F shrinks it to {0}: rows
        # held for E and handed to F would count 2 starts, not 0; the chain
        # is empty after 4 filters
        ("EF" * 6, {"E": {(0, 0), (1, 1)}, "F": {(0, 1), (1, 2)}}, 4),
        # a DAG whose walk starts lose a vertex at every level: no key set
        # repeats, so each of the 7 semijoins filters
        ("E" * 8, {"E": {(i, i + 1) for i in range(10)} | {(0, 2), (3, 5), (6, 8)}}, 7),
    ],
)
def test_a_semijoin_chain_whose_key_sets_repeat_or_shrink_counts_as_the_oracle(
    monkeypatch, symbols, facts, passes
):
    q = _chain_query(symbols)
    b = _graph(q.sig, facts)
    sentence = _chain_sentence(q)
    filtered = _spy_on_filter_passes(monkeypatch)
    want = oracle_count(q, b, max_enum=len(b.universe) ** (len(symbols) + 1))
    assert eval_sentence(sentence, b) == want
    assert len(filtered) == passes


def test_one_evaluator_on_two_structures_in_turn_shares_no_semijoin_rows():
    # check_represents runs one evaluator over its samples: the cycle's walk
    # starts {0, 1, 2} are the line's first key set, so rows held past an
    # evaluation would count the line's walks of 6 edges as 3, not 0
    q = _chain_query("E" * 6)
    sentence = _chain_sentence(q)
    cycle = _graph(q.sig, {"E": {(0, 1), (1, 2), (2, 0)}})
    line = _graph(q.sig, {"E": {(0, 1), (1, 2), (2, 3)}})
    sig, stats = sharpcore._sentence_signature(sentence), {}
    evaluator = sharpcore._Evaluator(10**7, stats)
    for b in (cycle, line, cycle, line):
        stats["peak_rows"], fresh = 0, {}
        got = sharpcore._sentence_value(sentence, sig, b, evaluator)
        want = eval_sentence(sentence, b, stats=fresh)
        assert (got, stats["peak_rows"]) == (want, fresh["peak_rows"])
        assert got == oracle_count(q, b) == (3 if b is cycle else 0)


def test_eval_disjunction_and_exists_inside_cast():
    rng = random.Random(777)
    for _ in range(40):
        q = random_ep_query(rng, max_vars=4, max_atoms=4)
        b = random_structure(rng, q.sig, max_size=3)
        assert eval_sentence(naive_representation(q), b) == brute_ep_count(q, b)


# ---------------------------------------------------------------------------
# single casts over raw ep formulas
# ---------------------------------------------------------------------------


def test_single_cast_over_random_ep_formulas_matches_oracle():
    rng = random.Random(888)
    with_or = 0
    for _ in range(150):
        q = random_ep_query(rng, max_vars=5, max_atoms=5, max_disjunctions=2)
        b = random_structure(rng, q.sig, max_size=4)
        with_or += any(isinstance(node, Or) for node in subformulas(q.formula))
        assert eval_sentence(naive_representation(q), b) == oracle_count(q, b)
    assert with_or > 20


@pytest.mark.parametrize(
    "text",
    [
        "query q(x): E(x,x)",
        "query q(x,y): R(x,y,x)",
        "query q(x): exists y . R(x,y,x) & E(y,y)",
        "query q(x): exists y . exists z . E(x,y) & E(y,z) & E(z,x)",
        "query q(x,z): exists y . E(x,y) & E(y,z)",
        "query q(x): exists y . E(x,x)",
        "query q(x): exists y . (E(x,y) & exists y . E(y,x))",
        "query q(x,z): exists y . (E(x,y) | E(y,z))",
        "query q(x): exists y . (E(x,y) | E(y,y)) & E(y,x)",
        "query q(x): exists y . (E(x,y) | exists z . E(y,z))",
    ],
)
def test_single_cast_hand_cases_match_oracle(text):
    q = parse_query(text)
    rng = random.Random(text)
    for _ in range(12):
        b = random_structure(rng, q.sig, max_size=4, density=rng.choice([0.2, 0.5]))
        assert eval_sentence(naive_representation(q), b) == oracle_count(q, b) == brute_ep_count(q, b)


def test_shadowed_binder_in_a_raw_cast():
    # the parser renames binders apart; built by hand, the inner y shadows
    # the outer one: exists y . (E(x,y) & exists y . E(y,x))
    raw = Exists("y", And(Atom("E", ("x", "y")), Exists("y", Atom("E", ("y", "x")))))
    f = Project({"x"}, Cast(raw, ("x",)))
    q = parse_query("query q(x): exists y . (E(x,y) & exists y . E(y,x))")
    assert eval_sentence(f, path_structure(3)) == 2
    rng = random.Random(999)
    for _ in range(20):
        b = random_structure(rng, q.sig, max_size=4)
        assert eval_sentence(f, b) == oracle_count(q, b)


# ---------------------------------------------------------------------------
# grouped joins, the relation-index memo and the counted root
# ---------------------------------------------------------------------------


def _under_binders(f):
    while isinstance(f, Exists):
        f = f.body
    return f


def test_counted_root_matches_the_answer_table_and_the_oracle(monkeypatch):
    # P L C[phi; L] counts the last join of a conjunction without building
    # it; the table of C[phi; L] builds it
    products = []
    count_union = sharpcore._count_union

    def spy(*args):
        products.append(args)
        return count_union(*args)

    monkeypatch.setattr(sharpcore, "_count_union", spy)
    rng = random.Random(1212)
    conjunctions = 0
    for _ in range(250):
        q = random_ep_query(rng, max_vars=5, max_atoms=5, max_disjunctions=1)
        b = random_structure(rng, q.sig, max_size=4)
        rows = evaluate(Cast(q.formula, q.liberal), b).sorted_rows()
        assert all(val == 1 for _, val in rows)
        assert eval_sentence(naive_representation(q), b) == len(rows) == oracle_count(q, b)
        conjunctions += isinstance(_under_binders(q.formula), And)
    assert conjunctions > 80 and len(products) > 30


# Counted joins of many sides: stars of m spokes on one hub, left-deep,
# right-deep and balanced, a key of two columns, repeated variables, an atom
# with no column of its own, and a hub that stays a column. Each shape's
# largest table on its structures, as the evaluator reported it when it still
# regrouped a held join into pair rows to count them.
_COUNTED_SHAPES = {
    "star-2": ("query q(x0,x1): exists h . E(x0,h) & E(x1,h)",
               (10, 2, 1, 1, 6, 2, 10, 5, 89)),
    "star-3 left-deep": ("query q(x0,x1,x2): exists h . ((E(x0,h) & E(x1,h)) & E(x2,h))",
                         (2, 5, 9, 1, 7, 3, 2, 1, 418)),
    "star-3 right-deep": ("query q(x0,x1,x2): exists h . (E(x0,h) & (E(x1,h) & E(x2,h)))",
                          (18, 6, 1, 8, 2, 10, 13, 18, 380)),
    "star-4 left-deep": (
        "query q(x0,x1,x2,x3): exists h . (((E(x0,h) & E(x1,h)) & E(x2,h)) & E(x3,h))",
        (1, 2, 1, 38, 57, 17, 10, 17, 1731)),
    "star-4 right-deep": (
        "query q(x0,x1,x2,x3): exists h . (E(x0,h) & (E(x1,h) & (E(x2,h) & E(x3,h))))",
        (56, 9, 25, 1, 18, 28, 37, 1, 1873)),
    "star-4 balanced": (
        "query q(x0,x1,x2,x3): exists h . ((E(x0,h) & E(x1,h)) & (E(x2,h) & E(x3,h)))",
        (1, 1, 1, 6, 15, 21, 2, 22, 406)),
    "key of two columns": (
        "query q(x0,x1,x2): exists h . exists g . ((R(x0,h,g) & R(g,x1,h)) & R(h,g,x2))",
        (29, 5, 2, 20, 31, 2, 28, 6, 100)),
    "repeated variables": (
        "query q(x0,x1,x2): exists h . ((R(x0,x0,h) & R(x1,h,h)) & (E(h,h) & R(x2,h,x2)))",
        (5, 4, 3, 14, 1, 2, 7, 2, 6)),
    "no column of its own": ("query q(x0,x1): exists h . ((E(x0,h) & E(x1,h)) & V(h))",
                             (9, 12, 10, 8, 1, 1, 24, 1, 447)),
    "no column of its own first": (
        "query q(x0,x1,x2): exists h . (((V(h) & E(x0,h)) & E(x1,h)) & E(x2,h))",
        (1, 5, 4, 7, 4, 3, 3, 1, 92)),
    "hub kept": ("query q(x0,x1,h): (E(x0,h) & E(x1,h)) & E(h,h)",
                 (5, 24, 17, 4, 1, 5, 6, 12, 409)),
    "hub kept and counted": ("query q(x0,x1,x2,h): (E(x0,h) & E(x1,h)) & E(x2,h)",
                             (2, 1, 9, 1, 10, 2, 16, 2, 371)),
}

_COUNTED_SIG = Signature((("E", 2), ("R", 3), ("V", 1)))


def _counted_structures(shape):
    """Eight random structures of 2 to 5 elements, then a sparse one of 25
    whose hubs share spokes, so that parts lie under several keys."""
    rng = random.Random(shape)
    out = []
    for i in range(9):
        n = rng.randint(2, 5) if i < 8 else 25
        universe = [f"b{j}" for j in range(n)]
        density = rng.choice((0.25, 0.45)) if i < 8 else 0.16
        rels = {}
        for name, arity in _COUNTED_SIG.symbols:
            k = arity if i < 8 else min(arity, 2)
            rels[name] = {
                tuple(rng.choice(universe) for _ in range(arity))
                for _ in range(int(density * n ** k))
            }
        out.append(make_structure(_COUNTED_SIG, universe, rels))
    return out


@pytest.mark.parametrize("shape", list(_COUNTED_SHAPES))
def test_counted_joins_count_the_rows_they_never_build(monkeypatch, shape):
    # the counted join counts its rows from its sides' groups, a held join
    # giving its own sides; the count is the size of the table that builds
    # them and the oracle's, and the largest table noted is unchanged
    text, peaks = _COUNTED_SHAPES[shape]
    q = parse_query(text)
    sides = []
    count_union = sharpcore._count_union

    def spy(keys, groups):
        sides.append(len(groups))
        return count_union(keys, groups)

    monkeypatch.setattr(sharpcore, "_count_union", spy)
    for b, peak in zip(_counted_structures(shape), peaks):
        stats = {}
        counted = eval_sentence(naive_representation(q), b, stats=stats)
        rows = evaluate(Cast(q.formula, q.liberal), b).sorted_rows()
        assert counted == len(rows) and all(val == 1 for _, val in rows)
        if len(b.universe) <= 5:
            assert counted == oracle_count(q, b)
        assert stats["peak_rows"] == peak
    if shape.startswith("star"):  # every spoke is a side of the last join
        assert max(sides) == int(shape[5])
    elif shape == "hub kept and counted":
        assert sides == [3] * len(peaks)


def test_counted_union_of_random_sides_matches_the_built_union():
    # |U_k S_1[k] x ... x S_n[k]| against the union built; parts under
    # several keys, keys whose sides repeat, and a side of empty parts
    rng = random.Random(2323)
    for _ in range(400):
        keys = list(range(rng.randint(1, 6)))
        sides = [
            {k: {() if width == 0 else rng.choice("abcd") for _ in range(rng.randint(1, 4))}
             for k in keys}
            for width in [rng.choice((0, 1, 1, 1)) for _ in range(rng.randint(2, 4))]
        ]
        built = {row for k in keys for row in itertools.product(*[side[k] for side in sides])}
        assert sharpcore._count_union(set(keys), sides) == len(built)


def test_counted_union_of_two_sides_matches_a_brute_force_union():
    # two sides are split at the top level alone; parts under the same key
    # list and sides whose keys are disjoint are among the cases
    rng = random.Random(3131)
    same_keys = disjoint = 0
    for _ in range(400):
        sides = [
            {k: set(rng.sample("abcdef", rng.randint(1, 3)))
             for k in rng.sample(range(5), rng.randint(1, 4))}
            for _ in range(2)
        ]
        keys = set(sides[0]) & set(sides[1])
        brute = {row for k in keys for row in itertools.product(sides[0][k], sides[1][k])}
        assert sharpcore._count_union(keys, sides) == len(brute)
        disjoint += not keys
        for side in sides:
            keys_of = defaultdict(list)
            for k in sorted(keys):
                for a in side[k]:
                    keys_of[a].append(k)
            same_keys += len(set(map(tuple, keys_of.values()))) < len(keys_of)
    assert same_keys >= 50 and disjoint >= 50


def _graph_with_twin_hubs(rng, n, m):
    """A random directed graph on n vertices with about m edges, in which
    every third hub gets the in-neighbours of another hub as well, so that
    hubs with the same in-neighbour set occur."""
    universe = [f"v{i}" for i in range(n)]
    edges = {(rng.choice(universe), rng.choice(universe)) for _ in range(m)}
    for h in universe[::3]:
        twin = rng.choice(universe)
        edges |= {(a, twin) for a, b in edges if b == h}
        edges |= {(a, h) for a, b in edges if b == twin}
    return make_structure(Signature((("E", 2),)), universe, {"E": edges})


@pytest.mark.parametrize("m", [2, 3])
def test_counted_stars_match_a_brute_force_count_on_random_graphs(monkeypatch, m):
    # star-m counts the m-tuples of vertices that all point at one hub: the
    # union over hubs of (in-neighbours)^m, built here tuple by tuple
    spokes = [f"x{i}" for i in range(m)]
    body = " & ".join(f"E({x},h)" for x in spokes)
    q = parse_query(f"query star({','.join(spokes)}): exists h . {body}")
    f = naive_representation(q)
    sides = []
    count_union = sharpcore._count_union

    def spy(keys, groups):
        sides.append(len(groups))
        return count_union(keys, groups)

    monkeypatch.setattr(sharpcore, "_count_union", spy)
    rng = random.Random(4242 + m)
    twins = 0
    for _ in range(12):
        b = _graph_with_twin_hubs(rng, rng.randint(3, 30), rng.randint(2, 90))
        into = defaultdict(set)
        for a, h in b.tuples("E"):
            into[h].add(a)
        twins += len({frozenset(s) for s in into.values()}) < len(into)
        brute = {t for spokes in into.values() for t in itertools.product(spokes, repeat=m)}
        assert eval_sentence(f, b) == len(brute)
    assert twins >= 6 and set(sides) == {m}


def _liberal_permuted(q, rng):
    """q with its liberal variables x0.. permuted: the same relations, used
    at other argument positions."""
    perm = list(q.liberal)
    rng.shuffle(perm)
    text = re.sub(r"\bx(\d+)\b", lambda m: perm[int(m.group(1))], serialize_query(q))
    return parse_query(text)


def test_casts_sharing_relation_indices_match_separate_evaluations():
    # every cast and term of one evaluation shares the groupings of the
    # structure's relations; tables and counts must equal those of casts
    # evaluated on their own
    rng = random.Random(1313)
    for _ in range(80):
        q = random_ep_query(rng, max_vars=4, max_atoms=5, max_disjunctions=1)
        q2 = _liberal_permuted(q, rng)
        b = random_structure(rng, q.sig, max_size=3)
        lib = frozenset(q.liberal)
        c1, c2 = Cast(q.formula, q.liberal), Cast(q2.formula, q.liberal)
        t1, t2 = evaluate(c1, b), evaluate(c2, b)
        t = evaluate(Plus(Times(c1, c2), Times(c2, c2)), b)
        for vals in itertools.product(b.universe, repeat=len(lib)):
            h = dict(zip(q.liberal, vals))
            assert t.value(h) == t1.value(h) * t2.value(h) + t2.value(h) ** 2
        both = sum(t1.value(h) * t2.value(h) for h, _ in t1.sorted_rows())
        s = Plus(Project(lib, c1), Plus(Project(lib, c2), Project(lib, Times(c1, c2))))
        assert eval_sentence(s, b) == oracle_count(q, b) + oracle_count(q2, b) + both


def _star3_sentence():
    return parse_sharp("P{a,b,c} C[exists h . E(a,h) & E(b,h) & E(c,h); {a,b,c}]")


def _hub_structure(spokes):
    """Hubs h0, h1, ...: hub i has `spokes[i]` in-neighbours of its own."""
    edges = {(f"s{i}_{j}", f"h{i}") for i, n in enumerate(spokes) for j in range(n)}
    universe = sorted({v for e in edges for v in e})
    return make_structure(Signature((("E", 2),)), universe, {"E": edges})


def test_counted_star_materialises_only_the_inner_join():
    # three hubs with two spokes each: the inner two-spoke join E(a,h) &
    # E(b,h) has 3 * 2^2 = 12 rows, the answers number 3 * 2^3 = 24
    b = _hub_structure([2, 2, 2])
    stats = {}
    assert eval_sentence(_star3_sentence(), b, max_rows=12, stats=stats) == 24
    assert stats["peak_rows"] == 12
    # below the inner join the cap fires; every hub's 4 rows fit, so the
    # table grows past 7 between two keys
    stats = {}
    with pytest.raises(CapExceeded, match=r"^table would hold more than 7 rows$"):
        eval_sentence(_star3_sentence(), b, max_rows=7, stats=stats)
    assert stats["peak_rows"] == 6
    # one hub whose rows alone exceed the cap is refused before it is built
    with pytest.raises(CapExceeded, match=r"^table would hold more than 8 rows$"):
        eval_sentence(_star3_sentence(), _hub_structure([3]), max_rows=8)
    assert eval_sentence(_star3_sentence(), _hub_structure([3]), max_rows=9) == 27


def _random_tree_query(rng, shape):
    """A conjunctive query whose atoms form a path, a star (hub x0) or a
    random tree over x0..x{n-1}, each edge E or F in a random direction, with
    one to three liberal variables and the rest bound."""
    n = rng.randint(2, 6)
    names = [f"x{i}" for i in range(n)]
    atoms = []
    for i in range(1, n):
        j = {"path": i - 1, "star": 0}.get(shape, rng.randrange(i))
        ends = (names[j], names[i]) if rng.random() < 0.5 else (names[i], names[j])
        atoms.append(f"{rng.choice('EF')}({ends[0]},{ends[1]})")
    liberal = sorted(rng.sample(names, rng.randint(1, min(3, n))))
    prefix = "".join(f"exists {v} . " for v in names if v not in liberal)
    return parse_query(f"query t({','.join(liberal)}): {prefix}{' & '.join(atoms)}\n")


def test_bare_value_joins_match_the_answer_table_and_the_oracle():
    # a row of a one-column table is its bare value in every atom, join part,
    # semijoin, cast and projection; the answer table of the cast, the count
    # of its flat prefix form and of the compiled one (binders nested) agree
    # with the oracle
    rng = random.Random(1414)
    one_column = 0
    for shape in ("path", "star", "tree") * 40:
        q = _random_tree_query(rng, shape)
        b = random_structure(rng, SIG_EF, max_size=4, density=0.35)
        table = evaluate(Cast(q.formula, q.liberal), b)
        counts = [eval_sentence(s, b) for s in (naive_representation(q), minimize_ep(q)[0])]
        assert counts == [oracle_count(q, b)] * 2, render_ep(q.formula)
        assert len(table.sorted_rows()) == table.n_rows == counts[0]
        assert all(len(key) == len(table.explicit) for key in table.data)
        one_column += len(q.liberal) == 1
    assert one_column > 30


def test_star3_root_join_regroups_no_table_larger_than_the_relation(monkeypatch):
    # the inner join E(a,h) & E(b,h) hands its groups by h to the root join,
    # which keys on h too: only the relation itself is grouped row by row,
    # twice (the left side keeps h in its parts), and the root's E(c,h)
    # reuses the second grouping, whether E was built as a tuple set
    # (make_structure, the line loop) or as argument columns (the canonical
    # scan): every structure answers in columns
    grouped = []
    group = sharpcore._group

    def spy(keys, parts):
        keys, parts = list(keys), list(parts)
        grouped.append(len(keys))
        return group(keys, parts)

    monkeypatch.setattr(sharpcore, "_group", spy)
    rng = random.Random(1515)
    edges = {(f"v{rng.randrange(40)}", f"v{rng.randrange(40)}") for _ in range(300)}
    b = make_structure(Signature((("E", 2),)), sorted({v for e in edges for v in e}), {"E": edges})
    spokes = defaultdict(set)
    for a, h in edges:
        spokes[h].add(a)
    answers = set().union(*(itertools.product(s, s, s) for s in spokes.values()))
    text = serialize_structure(b)
    structures = [b, relstore._parse_lines(text), relstore._scan_canonical(text)]
    for s in structures:
        columns = s.columns("E")
        assert len(columns) == 2 and s.columns("E") is columns
        assert sorted(zip(*columns)) == sorted(edges)
        grouped.clear()
        stats = {}
        assert eval_sentence(_star3_sentence(), s, stats=stats) == len(answers)
        assert stats["peak_rows"] > len(edges)  # the inner join's table, never regrouped
        assert grouped == [len(edges)] * 2


def test_a_product_join_regroups_like_its_rows():
    # the groups a product join hands on, projected to any part, equal the
    # grouping of its rows by the shared columns, one row at a time; a side
    # part of one column (b in the second pair) is a bare value
    rng = random.Random(1616)
    evaluator = sharpcore._Evaluator(10**7, None)
    evaluator.eval(parse_sharp("P{x} C[E(x,x); {x}]"), triangle_structure())
    for cols1, cols2 in ((("a", "h", "k"), ("h", "b", "k", "c")), (("a", "h"), ("h", "b"))):
        for _ in range(30):
            sides = [
                (cols, sharpcore._Rows(len(cols), {
                    tuple(rng.choice("pqr") for _ in cols) for _ in range(rng.randint(1, 12))
                }))
                for cols in (cols1, cols2)
            ]
            explicit, join = evaluator._join(cols1, cols2, frozenset())
            rows = join(*[table for _, table in sides])
            handoff, built = rows.handoff, rows.distinct()
            key = sharpcore._row_of(len(explicit), handoff)
            for n in range(len(explicit) + 1):
                for part_at in itertools.combinations(range(len(explicit)), n):
                    part = sharpcore._row_of(len(explicit), part_at)
                    expected = sharpcore._group(map(key, built), map(part, built))
                    assert rows.grouped((handoff, part_at)) == expected, (built, part_at)


def test_scanned_looped_and_built_structures_evaluate_alike():
    # the same facts held as argument columns (the canonical scan) or as
    # tuple sets (the line loop, make_structure) give the same counts and
    # the same largest table; symbols share prefixes, arities are 1 to 3,
    # and now and then one fact line is written twice
    rng = random.Random(1717)
    names = {"R0": "E", "R1": "E2", "R2": "E_"}
    repeated = 0
    for _ in range(80):
        q = random_ep_query(rng, max_vars=5, max_atoms=5, max_disjunctions=1)
        q = parse_query(re.sub(r"\bR\d", lambda m: names[m.group()], serialize_query(q)))
        b = random_structure(rng, q.sig, max_size=4, density=0.35)
        text = text_with_a_repeated_line(rng, b)
        repeated += text.count("\n") > serialize_structure(b).count("\n")
        structures = [relstore._scan_canonical(text), relstore._parse_lines(text), b]
        for f in (naive_representation(q), minimize_ep(q)[0]):
            results = []
            for s in structures:
                stats = {}
                results.append((eval_sentence(f, s, stats=stats), stats["peak_rows"]))
            assert results == [results[0]] * 3, (text, render_ep(q.formula))
            assert results[0][0] == oracle_count(q, b)
    assert repeated > 20
