"""Tests for sharpq.sharpcore: AST validity, width, .shq format, evaluation."""

import random

import pytest

from sharpq.epquery import (
    And,
    Atom,
    Exists,
    Or,
    oracle_count,
    parse_ep_expression,
    parse_query,
    subformulas,
)
from sharpq.errors import CapExceeded, ParseError, SharpqError
from sharpq.relstore import Signature, make_structure
from sharpq.sharpcore import (
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    check_represents,
    eval_sentence,
    evaluate,
    free_closed,
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
    triangle_structure,
)

# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_projection_of_cast():
    f = parse_sharp("P{y} C[E(x,y); {x,y}]")
    assert f == Project(
        frozenset({"y"}), Cast(ep=parse_ep_expression("E(x,y)"), liberal=("x", "y"))
    )
    assert free_closed(f) == (frozenset({"x"}), frozenset({"y"}))


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
        Project(frozenset({"y"}), Cast(parse_ep_expression("E(x,y)"), ("x", "y"))),
        Project(frozenset({"y"}), Cast(parse_ep_expression("F(x,y)"), ("x", "y"))),
    )
    report = validate(f)
    assert not report.ok
    assert report.violations[0].path == "root"
    assert "disjoint closed" in report.violations[0].message


def test_product_free_mismatch_is_violation():
    f = Times(Cast(parse_ep_expression("E(x,y)"), ("x", "y")), Const(3))
    report = validate(f)
    assert not report.ok
    assert "equal free sets" in report.violations[0].message


def test_violations_are_reported_bottom_up():
    f = Times(Cast(parse_ep_expression("E(x,y)"), ("x",)), Const(3))
    report = validate(f)
    assert report.violations[0].path == "root.left"
    assert "liberal set" in report.violations[0].message


def test_projection_of_closed_variable_is_violation():
    f = Project(
        frozenset({"y"}),
        Project(frozenset({"y"}), Cast(parse_ep_expression("E(x,y)"), ("x", "y"))),
    )
    report = validate(f)
    assert not report.ok
    assert "may not be closed" in report.violations[0].message


def test_expand_must_be_fresh():
    f = Expand(frozenset({"x"}), Cast(parse_ep_expression("E(x,y)"), ("x", "y")))
    assert "fresh" in validate(f).violations[0].message
    g = Expand(
        frozenset({"y"}),
        Project(frozenset({"y"}), Cast(parse_ep_expression("E(x,y)"), ("x", "y"))),
    )
    assert "fresh" in validate(g).violations[0].message


def test_parse_negative_constant():
    assert parse_sharp("-3") == Const(-3)
    assert parse_sharp("(C[true; {}] * -1)") == Times(
        Cast(parse_ep_expression("true"), ()), Const(-1)
    )


def test_parse_empty_varset():
    f = parse_sharp("P{} C[true; {}]")
    assert f == Project(frozenset(), Cast(parse_ep_expression("true"), ()))


def test_parse_error_location():
    with pytest.raises(ParseError, match="line 2"):
        parse_sharp("P{x}\n  Q[E(x,x); {x}]")


def test_parse_missing_semicolon():
    with pytest.raises(ParseError, match=";"):
        parse_sharp("C[E(x,y) {x,y}]")


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
        return Cast(parse_ep_expression(" & ".join(atoms)), tuple(lib))

    def gen(d):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            return gen_cast() if rng.random() < 0.8 else Const(rng.randint(-3, 5))
        if roll < 0.5:
            child = gen(d - 1)
            fr, cl = free_closed(child)
            candidates = [v for v in vars_pool if v not in cl]
            if not candidates:
                return child
            return Project(frozenset(rng.sample(candidates, rng.randint(1, len(candidates)))), child)
        if roll < 0.65:
            child = gen(d - 1)
            fr, cl = free_closed(child)
            candidates = [v for v in vars_pool if v not in fr | cl]
            if not candidates:
                return child
            return Expand(frozenset({rng.choice(candidates)}), child)
        left = gen(d - 1)
        right = gen(d - 1)
        fl, cll = free_closed(left)
        frr, clr = free_closed(right)
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
        ep = parse_ep_expression(f"exists z{i} . T{i}(x{i},x{j},y{i},z{i})")
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
    assert free_closed(Const(5)) == (frozenset(), frozenset())


def test_width_counts_ep_subformulas():
    # the cast's liberal set has one variable, but the atom under the
    # quantifier mentions two
    f = Cast(parse_ep_expression("exists y . E(x,y)"), ("x",))
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
    w = len(free_closed(f)[0])
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
    f = Times(Cast(parse_ep_expression("E(x,y)"), ("x", "y")), Const(3))
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
    ep = parse_ep_expression("E(x,y)")
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
        with_or += "Or(" in repr(q.formula)
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
