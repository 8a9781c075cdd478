"""Tests for the compilation pipeline."""

import random

import pytest

from sharpq.compilepipe import (
    FlatSharp,
    LinearCombination,
    _read_constant,
    as_formula,
    basic_sharp_to_pp,
    canonical_lc,
    cast_ep,
    flatten,
    lc_evaluate,
    minimize_ep,
    minimize_pp,
    pp_to_basic_sharp,
    reduce_to_basic,
    rewrite_width_bounded,
)
from sharpq.decomp import TreeDecomposition, compute_qaw, exact_treewidth
from sharpq.epquery import (
    And,
    Atom,
    Exists,
    LiberalQuery,
    PpPair,
    contract_graph,
    oracle_count,
    pair_to_pp,
    parse_ep_expression,
    parse_query,
    pp_to_pair,
    primal_graph,
    render_ep,
    serialize_pair,
    subformulas,
)
from sharpq.epquery import _all_variables, _rename_apart
from sharpq.equiv import counting_equivalent, logically_equivalent
from sharpq.errors import CapExceeded, SharpqError
from sharpq.relstore import Signature, make_structure, parse_structure
from sharpq.sharpcore import (
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
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
    brute_homomorphisms,
    ep_width,
    random_ep_query,
    random_pp_pair,
    random_structure,
    star_pair,
    three_block_pair,
)
from tests.test_sharpcore import _random_sharp

SIG_E = Signature((("E", 2),))


def _structures_for(rng, q, n, max_size=4):
    return [random_structure(rng, q.sig, max_size=max_size) for _ in range(n)]


# ---------------------------------------------------------------------------
# rewrite_width_bounded
# ---------------------------------------------------------------------------


def test_rewrite_star_single_bag():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0,), parent={0: None}, bags={0: frozenset({"x1", "x2", "z"})}
    )
    out = rewrite_width_bounded(p, td)
    assert render_ep(out) == "(exists z . E(x1,z) & E(x2,z))"


def test_rewrite_path_example_nests_quantifiers():
    q = parse_query("query p(x,y): exists u . exists v . E(x,u) & E(u,v) & E(v,y)")
    p = pp_to_pair(q)
    td = TreeDecomposition(
        nodes=(0, 1, 2),
        parent={0: None, 1: 0, 2: 1},
        bags={
            0: frozenset({"x", "u"}),
            1: frozenset({"u", "v"}),
            2: frozenset({"v", "y"}),
        },
    )
    out = rewrite_width_bounded(p, td)
    assert render_ep(out) == "(exists u . E(x,u) & (exists v . E(u,v) & E(v,y)))"
    # Every quantified block keeps to 2 free variables.  (The audit over all
    # subformulas only comes down to the bag size when the root bag covers
    # the liberal variables, which this decomposition does not.)
    from sharpq.epquery import Exists, free_variables

    blocks = [out]
    stack = [out]
    while stack:
        node = stack.pop()
        if isinstance(node, Exists):
            blocks.append(node)
        for attr in ("left", "right", "body"):
            if hasattr(node, attr):
                stack.append(getattr(node, attr))
    assert max(len(free_variables(b)) for b in blocks) == 2


def test_rewrite_rejects_mismatched_decomposition():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0,), parent={0: None}, bags={0: frozenset({"x1", "x2"})}
    )
    with pytest.raises(SharpqError):
        rewrite_width_bounded(p, td)


def test_rewrite_is_logically_faithful_on_random_pairs(rng):
    checked = 0
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=5, max_atoms=5)
        _, td = exact_treewidth(primal_graph(p))
        out = rewrite_width_bounded(p, td)
        q1 = LiberalQuery(name="orig", formula=pair_to_pp(p).formula,
                          liberal=tuple(p.liberal), sig=p.struct.sig)
        q2 = LiberalQuery(name="rew", formula=out, liberal=tuple(p.liberal), sig=p.struct.sig)
        for _ in range(2):
            b = random_structure(rng, p.struct.sig, max_size=3)
            assert oracle_count(q1, b) == oracle_count(q2, b)
        checked += 1
    assert checked == 40


def test_rewrite_width_bound_for_sentences(rng):
    # With no liberal variables the root trivially covers them, so every
    # subformula fits inside a bag.
    for _ in range(25):
        p0 = random_pp_pair(rng, max_vars=5, max_atoms=5)
        p = PpPair(struct=p0.struct, liberal=())
        w, td = exact_treewidth(primal_graph(p))
        out = rewrite_width_bounded(p, td)
        assert ep_width(out) <= w + 1


# ---------------------------------------------------------------------------
# pp_to_basic_sharp
# ---------------------------------------------------------------------------


def _compile_pair(p):
    qaw, td = compute_qaw(p)
    return pp_to_basic_sharp(p, td), qaw


def test_compile_two_edge_path_counts_twelve_into_triangle():
    path = make_structure(SIG_E, ["a0", "a1", "a2"], {"E": {("a0", "a1"), ("a1", "a2")}})
    p = PpPair(struct=path, liberal=("a0", "a1", "a2"))
    sentence, _ = _compile_pair(p)
    triangle = make_structure(
        SIG_E,
        ["t0", "t1", "t2"],
        {"E": {(a, b) for a in ["t0", "t1", "t2"] for b in ["t0", "t1", "t2"] if a != b}},
    )
    assert eval_sentence(sentence, triangle) == 12


def test_compile_quantifier_free_equals_homomorphism_count(rng):
    for _ in range(25):
        p0 = random_pp_pair(rng, max_vars=5, max_atoms=5)
        p = PpPair(struct=p0.struct, liberal=tuple(p0.struct.universe))
        sentence, qaw = _compile_pair(p)
        b = random_structure(rng, p.struct.sig, max_size=4)
        assert eval_sentence(sentence, b) == brute_homomorphisms(p.struct, b)
        assert width(sentence) <= qaw


def test_compile_star_and_three_block_against_oracle(rng):
    for p in [star_pair(3), three_block_pair()]:
        sentence, qaw = _compile_pair(p)
        assert width(sentence) <= qaw
        q = pair_to_pp(p)
        for _ in range(3):
            b = random_structure(rng, p.struct.sig, max_size=3)
            assert eval_sentence(sentence, b) == oracle_count(q, b)


def test_compile_random_pairs_against_oracle(rng):
    checked = 0
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=6, max_atoms=5)
        sentence, qaw = _compile_pair(p)
        report = validate(sentence)
        assert report.ok and not report.free
        assert width(sentence) <= qaw
        q = pair_to_pp(p)
        for _ in range(2):
            b = random_structure(rng, p.struct.sig, max_size=3)
            assert eval_sentence(sentence, b) == oracle_count(q, b)
        checked += 1
    assert checked == 40


def test_compile_sharp_width_bounded_by_contract_width(rng):
    # The counting part of the compiled sentence lives on the contract graph.
    for _ in range(25):
        p = random_pp_pair(rng, max_vars=6, max_atoms=5)
        sentence, _ = _compile_pair(p)
        tw_contract, _ = exact_treewidth(contract_graph(p))
        assert sharp_width(sentence) <= tw_contract + 1


def test_compile_rejects_unaware_decomposition():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0, 1, 2),
        parent={0: None, 1: 0, 2: 1},
        bags={0: frozenset(), 1: frozenset({"x1", "z"}), 2: frozenset({"z", "x2"})},
    )
    with pytest.raises(SharpqError, match="quantifier-aware"):
        pp_to_basic_sharp(p, td)


def test_compile_rejects_nonempty_root():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0,), parent={0: None}, bags={0: frozenset({"x1", "x2", "z"})}
    )
    with pytest.raises(SharpqError, match="root"):
        pp_to_basic_sharp(p, td)


def test_compile_isolated_liberal_variable_multiplies_by_universe_size():
    struct = make_structure(SIG_E, ["x", "y"], {"E": {("x", "x")}})
    p = PpPair(struct=struct, liberal=("x", "y"))
    sentence, _ = _compile_pair(p)
    b = parse_structure("signature E/2\nuniverse a b c\nE(a,a)\nE(b,b)\n")
    assert eval_sentence(sentence, b) == 2 * 3


# ---------------------------------------------------------------------------
# basic_sharp_to_pp
# ---------------------------------------------------------------------------


def test_read_back_theta_sentence(rng):
    f = parse_sharp("P{x} (P{y} C[E(x,y); {x,y}] * P{z} C[F(x,z); {x,z}])")
    p = basic_sharp_to_pp(f)
    assert set(p.liberal) == {"x", "y", "z"}
    assert set(p.struct.universe) == {"x", "y", "z"}
    q = pair_to_pp(p)
    for _ in range(4):
        b = random_structure(rng, q.sig, max_size=3)
        assert oracle_count(q, b) == eval_sentence(f, b)


def test_read_back_true_sentence_counts_one():
    p = basic_sharp_to_pp(parse_sharp("C[true; {}]"))
    assert p.liberal == ()
    b = parse_structure("signature E/2\nuniverse a b\nE(a,b)\n")
    assert oracle_count(pair_to_pp(p), b) == 1


def test_read_back_expansion_padding_counts_universe():
    f = parse_sharp("P{u} E{u} C[true; {}]")
    p = basic_sharp_to_pp(f)
    assert p.liberal == ("u",)
    b = parse_structure("signature E/2\nuniverse a b c\nE(a,b)\n")
    assert oracle_count(pair_to_pp(p), b) == 3 == eval_sentence(f, b)


def test_read_back_vacuous_projection_counts_universe():
    # P{w} over a child that does not mention w multiplies by |B|.
    f = Project(frozenset({"w"}), parse_sharp("C[true; {}]"))
    p = basic_sharp_to_pp(f)
    b = parse_structure("signature E/2\nuniverse a b c\nE(a,b)\n")
    assert eval_sentence(f, b) == 3
    assert oracle_count(pair_to_pp(p), b) == 3


def test_read_back_round_trip_preserves_counts_and_width(rng):
    for _ in range(25):
        p = random_pp_pair(rng, max_vars=5, max_atoms=5)
        sentence, qaw = _compile_pair(p)
        back = basic_sharp_to_pp(sentence)
        q1, q2 = pair_to_pp(p), pair_to_pp(back)
        for _ in range(2):
            b = random_structure(rng, p.struct.sig, max_size=3)
            assert oracle_count(q1, b) == oracle_count(q2, b)
        back_qaw, _ = compute_qaw(back)
        assert back_qaw <= width(sentence)
        tw_contract, _ = exact_treewidth(contract_graph(back))
        assert tw_contract + 1 <= sharp_width(sentence)


def test_read_back_rejects_non_basic_and_open_inputs():
    with pytest.raises(SharpqError, match="basic"):
        basic_sharp_to_pp(parse_sharp("(C[true; {}] + C[true; {}])"))
    with pytest.raises(SharpqError, match="sentence"):
        basic_sharp_to_pp(parse_sharp("C[E(x,y); {x,y}]"))
    with pytest.raises(SharpqError, match="disjunction-free"):
        basic_sharp_to_pp(parse_sharp("P{x} C[U(x) | V(x); {x}]"))


def _read_back_reference(f):
    """basic_sharp_to_pp's pair derived node by node, for a valid basic
    sentence: the liberal set is every free set of free_closed plus the
    projection variables the child never mentions, and the atoms and binders
    come from a stack walk over each renamed-apart cast."""
    ever_free, casts, pads = set(), [], []

    def walk(node):
        ever_free.update(free_closed(node)[0])
        if isinstance(node, Cast):
            casts.append(node)
        elif isinstance(node, (Project, Expand)):
            if isinstance(node, Project):
                pads.extend(sorted(node.vars - free_closed(node.child)[0]))
            walk(node.child)
        elif isinstance(node, Times):
            walk(node.left)
            walk(node.right)

    walk(f)
    used = ever_free | set(pads)
    atoms, bound_order = [], []
    for cast in casts:
        body = _rename_apart(cast.ep, frozenset(used))
        used |= _all_variables(body)
        stack = [body]
        while stack:
            node = stack.pop(0)
            if isinstance(node, Atom):
                atoms.append(node)
            elif isinstance(node, And):
                stack[:0] = [node.left, node.right]
            elif isinstance(node, Exists):
                bound_order.append(node.var)
                stack.insert(0, node.body)
    liberal = tuple(sorted(ever_free | set(pads)))
    rels = {}
    for a in atoms:
        rels.setdefault(a.symbol, set()).add(a.args)
    sig = Signature(tuple(sorted({a.symbol: len(a.args) for a in atoms}.items())))
    universe = list(liberal) + bound_order or ["pad$1"]
    return PpPair(struct=make_structure(sig, universe, rels), liberal=liberal)


def _random_basic_sentence(rng):
    """A random basic sentence whose casts reuse binder names (so they clash
    across casts and with projected variables), with vacuous projections
    and expansions; None when the drawn shape is not valid."""
    pool = ["x0", "x1", "x2", "w1", "w2"]

    def ep(scope, depth):
        roll = rng.random()
        if depth > 0 and roll < 0.3:
            w = rng.choice(["w1", "w2"])
            return f"(exists {w} . {ep(scope + [w], depth - 1)})"
        if depth > 0 and roll < 0.6:
            return f"({ep(scope, depth - 1)} & {ep(scope, depth - 1)})"
        if not scope or roll > 0.9:
            return "true"
        sym, arity = rng.choice([("E", 2), ("U", 1)])
        return f"{sym}({','.join(rng.choice(scope) for _ in range(arity))})"

    def gen(depth):
        if depth <= 0 or rng.random() < 0.3:
            lib = rng.sample(["x0", "x1", "x2"], rng.randint(0, 2))
            return Cast(parse_ep_expression(ep(lib, 3)), tuple(lib))
        roll = rng.random()
        child = gen(depth - 1)
        free, closed = free_closed(child)
        if roll < 0.35:
            options = [v for v in pool if v not in closed]
            if not options:
                return child
            k = min(len(options), rng.randint(1, 2))
            return Project(frozenset(rng.sample(options, k)), child)
        if roll < 0.55:
            options = [v for v in pool if v not in free | closed]
            return Expand(frozenset(rng.sample(options, 1)), child) if options else child
        right = gen(depth - 1)
        free_r, closed_r = free_closed(right)
        want = free | free_r
        if (want - free) & closed or (want - free_r) & closed_r:
            return child
        left = Expand(want - free, child) if want - free else child
        right = Expand(want - free_r, right) if want - free_r else right
        return Times(left, right)

    f = gen(4)
    free, _ = free_closed(f)
    f = Project(free, f) if free else f
    return f if validate(f).ok else None


def test_read_back_matches_the_node_by_node_derivation():
    rng = random.Random(404)
    checked = vacuous = expanded = 0
    while checked < 300:
        f = _random_basic_sentence(rng)
        if f is None:
            continue
        checked += 1
        nodes = subformulas(f)
        vacuous += any(
            isinstance(n, Project) and n.vars - free_closed(n.child)[0] for n in nodes
        )
        expanded += any(isinstance(n, Expand) for n in nodes)
        assert basic_sharp_to_pp(f) == _read_back_reference(f)
    assert vacuous > 50 and expanded > 50


# ---------------------------------------------------------------------------
# minimize_pp
# ---------------------------------------------------------------------------


def test_minimize_pp_drops_duplicated_branch():
    q = parse_query("query fold(x): exists y . exists z . E(x,y) & E(x,z)")
    sentence, w = minimize_pp(q)
    assert w == 2
    b = parse_structure("signature E/2\nuniverse a b\nE(a,b)\nE(b,a)\nE(a,a)\n")
    assert eval_sentence(sentence, b) == oracle_count(q, b) == 2


def test_minimize_pp_theta_width_one(rng):
    q = parse_query("query t(x1,x2,x3): U1(x1) & U2(x2) & U3(x3)")
    sentence, w = minimize_pp(q)
    assert w == 1
    b = random_structure(rng, q.sig, max_size=4)
    want = (
        len(b.tuples("U1")) * len(b.tuples("U2")) * len(b.tuples("U3"))
    )
    assert eval_sentence(sentence, b) == want


def test_minimize_pp_three_block_width_four(rng):
    q = pair_to_pp(three_block_pair())
    sentence, w = minimize_pp(q)
    assert w == 4
    b = random_structure(rng, q.sig, max_size=2)
    assert eval_sentence(sentence, b) == oracle_count(q, b)


def test_minimize_pp_random_queries_match_oracle(rng):
    for _ in range(30):
        q = random_ep_query(rng, max_vars=5, max_atoms=4, max_disjunctions=0)
        sentence, w = minimize_pp(q)
        assert width(sentence) <= w
        for _ in range(2):
            b = random_structure(rng, q.sig, max_size=3)
            assert eval_sentence(sentence, b) == oracle_count(q, b)


def test_minimize_pp_rejects_disjunction():
    q = parse_query("query d(x): U(x) | V(x)")
    with pytest.raises(SharpqError):
        minimize_pp(q)


# ---------------------------------------------------------------------------
# cast_ep
# ---------------------------------------------------------------------------


def test_cast_ep_single_disjunct_shape():
    q = parse_query("query s(x,y): E(x,y)")
    f = cast_ep(q)
    assert isinstance(f, Times)
    assert f.left == Expand(frozenset({"x", "y"}), Const(1))
    assert isinstance(f.right, Cast)


def test_cast_ep_deduplicates_syntactic_disjuncts(rng):
    q = parse_query("query d(x): U(x) | U(x)")
    f = cast_ep(q)
    assert isinstance(f, Times)  # one inclusion-exclusion term, not a sum
    for _ in range(3):
        b = random_structure(rng, q.sig, max_size=3)
        assert evaluate(f, b) == evaluate(Cast(ep=q.formula, liberal=q.liberal), b)


def test_cast_ep_matches_direct_cast_pointwise(rng):
    checked = 0
    for _ in range(40):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=2)
        f = cast_ep(q)
        direct = Cast(ep=q.formula, liberal=tuple(q.liberal))
        assert width(f) <= width(direct)
        for _ in range(2):
            b = random_structure(rng, q.sig, max_size=3)
            assert evaluate(f, b) == evaluate(direct, b)
        checked += 1
    assert checked == 40


def test_cast_ep_respects_dnf_cap():
    q = parse_query(
        "query d(x): (U(x) | V(x)) & (U(x) | W(x)) & (V(x) | W(x))"
    )
    with pytest.raises(CapExceeded):
        cast_ep(q, max_dnf=3)


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------


def test_flatten_disjunction_gives_three_signed_terms():
    q = parse_query("query d(x,y,z): E(x,y) | F(y,z)")
    fs = flatten(naive_representation(q))
    assert len(fs.terms) == 3
    assert [_read_constant(c)[0] for c, _ in fs.terms] == [1, 1, -1]
    assert fs.free == frozenset()


def test_flatten_keeps_already_flat_terms():
    basic = parse_sharp("P{x} C[E(x,x); {x}]")
    f = Times(Expand(frozenset(), Project(frozenset(), Const(3))), basic)
    fs = flatten(f)
    assert len(fs.terms) == 1
    const, kept = fs.terms[0]
    assert _read_constant(const) == (3, 0)
    assert kept == basic


def test_flatten_is_pointwise_equal_and_width_bounded(rng):
    gen = random.Random(4242)
    produced = 0
    while produced < 60:
        f = _random_sharp(gen)
        if not validate(f).ok:
            continue
        produced += 1
        fs = flatten(f)
        g = as_formula(fs)
        assert validate(g).ok
        assert width(g) <= width(f)
        b = random_structure(rng, Signature((("E", 2), ("F", 2))), max_size=3)
        assert evaluate(g, b) == evaluate(f, b)


def test_flatten_terms_are_well_shaped(rng):
    gen = random.Random(911)
    produced = 0
    while produced < 30:
        f = _random_sharp(gen)
        if not validate(f).ok:
            continue
        produced += 1
        fs = flatten(f)
        for const, basic in fs.terms:
            _read_constant(const)  # raises unless in normal form
            assert validate(Times(const, basic)).ok


def test_flatten_open_formula_keeps_free_set(rng):
    f = parse_sharp("(C[E(x,y); {x,y}] * E{x,y} 2)")
    fs = flatten(f)
    assert fs.free == frozenset({"x", "y"})
    b = random_structure(rng, SIG_E, max_size=3)
    assert evaluate(as_formula(fs), b) == evaluate(f, b)


# ---------------------------------------------------------------------------
# canonical_lc
# ---------------------------------------------------------------------------


def test_canonical_lc_of_union_query():
    q = parse_query("query d(x): U(x) | V(x)")
    lc = canonical_lc(flatten(naive_representation(q)))
    assert [c for c, _ in lc.entries] == [1, 1, -1]
    assert [sum(len(ts) for ts in p.struct.relations.values()) for _, p in lc.entries] == [1, 1, 2]
    for _, p in lc.entries:
        assert p.liberal == ("l0",)


def test_canonical_lc_merges_counting_equivalent_terms():
    # x.E(x,y) + y.E(x,y) are the same term up to renaming: coefficients add.
    left = parse_sharp("P{x} P{y} C[E(x,y); {x,y}]")
    right = parse_sharp("P{u} P{w} C[E(u,w); {u,w}]")
    lc = canonical_lc(flatten(Plus(left, right)))
    assert len(lc.entries) == 1
    assert lc.entries[0][0] == 2


def test_canonical_lc_drops_cancelled_terms():
    f = parse_sharp("P{x} C[U(x); {x}]")
    g = Plus(f, Times(Const(-1), parse_sharp("P{w} C[U(w); {w}]")))
    assert canonical_lc(flatten(g)).entries == ()


def test_canonical_lc_absorbs_powers_as_fresh_liberal_elements(rng):
    # 2 * |B| * count(E) via an explicit P-over-constant.
    f = Times(
        Expand(frozenset(), Project(frozenset({"pad"}), Const(2))),
        parse_sharp("P{x} P{y} C[E(x,y); {x,y}]"),
    )
    lc = canonical_lc(flatten(f))
    assert len(lc.entries) == 1
    coeff, pair = lc.entries[0]
    assert coeff == 2
    assert len(pair.liberal) == 3  # x, y and one absorbed power
    for _ in range(3):
        b = random_structure(rng, SIG_E, max_size=3)
        assert lc_evaluate(lc, b, "oracle") == eval_sentence(f, b)


def test_canonical_lc_identical_across_representations(rng):
    agreeing = 0
    for _ in range(12):
        q = random_ep_query(rng, max_vars=4, max_atoms=3, max_disjunctions=1)
        naive = naive_representation(q)
        lc1 = canonical_lc(flatten(naive))
        noise = Plus(naive, Times(Const(0), naive))
        lc2 = canonical_lc(flatten(noise))
        compiled, _ = minimize_ep(q)
        lc3 = canonical_lc(flatten(compiled))
        assert lc1 == lc2 == lc3
        agreeing += 1
    assert agreeing == 12


def test_canonical_lc_entries_pairwise_inequivalent(rng):
    for _ in range(10):
        q = random_ep_query(rng, max_vars=4, max_atoms=3, max_disjunctions=2)
        lc = canonical_lc(flatten(naive_representation(q)))
        entries = lc.entries
        for i in range(len(entries)):
            assert entries[i][0] != 0
            for j in range(i + 1, len(entries)):
                eq, _ = counting_equivalent(entries[i][1], entries[j][1])
                assert not eq
        assert list(entries) == sorted(
            entries,
            key=lambda e: (
                len(e[1].liberal),
                sum(len(ts) for ts in e[1].struct.relations.values()),
                serialize_pair(e[1]),
            ),
        )


def test_canonical_lc_rejects_open_input():
    fs = flatten(parse_sharp("C[E(x,y); {x,y}]"))
    with pytest.raises(SharpqError, match="sentence"):
        canonical_lc(fs)


# ---------------------------------------------------------------------------
# lc_evaluate
# ---------------------------------------------------------------------------


def test_lc_evaluate_theta_example():
    q = parse_query("query t(x1,x2): U1(x1) & U2(x2)")
    lc = canonical_lc(flatten(naive_representation(q)))
    b = parse_structure("signature U1/1 U2/1\nuniverse a b\nU1(a)\nU1(b)\nU2(b)\n")
    assert lc_evaluate(lc, b) == 2
    assert lc_evaluate(lc, b, "oracle") == 2
    assert lc_evaluate(lc, b, "both") == 2


def test_lc_evaluate_engines_agree(rng):
    for _ in range(10):
        q = random_ep_query(rng, max_vars=4, max_atoms=3, max_disjunctions=2)
        lc = canonical_lc(flatten(naive_representation(q)))
        b = random_structure(rng, q.sig, max_size=3)
        assert lc_evaluate(lc, b, "both") == oracle_count(q, b)


def test_lc_evaluate_rejects_unknown_engine():
    lc = LinearCombination(entries=())
    b = parse_structure("signature E/2\nuniverse a\n")
    with pytest.raises(SharpqError, match="engine"):
        lc_evaluate(lc, b, "fast")
    assert lc_evaluate(lc, b) == 0


# ---------------------------------------------------------------------------
# reduce_to_basic
# ---------------------------------------------------------------------------


def test_reduce_to_basic_strips_noise_and_keeps_query_names(rng):
    q = parse_query("query fold(x): exists y . exists z . E(x,y) & E(x,z)")
    f = naive_representation(q)
    noisy = Plus(f, Times(Const(0), f))
    out = reduce_to_basic(noisy, q)
    assert width(out) <= width(noisy)
    assert sharp_width(out) <= sharp_width(noisy)
    assert "x" in serialize_sharp(out)
    for _ in range(4):
        b = random_structure(rng, q.sig, max_size=3)
        assert eval_sentence(out, b) == oracle_count(q, b)


def test_reduce_to_basic_never_increases_widths(rng):
    checked = 0
    for _ in range(20):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=0)
        f = naive_representation(q)
        if rng.random() < 0.5:
            f = Plus(f, Times(Const(0), naive_representation(q)))
        out = reduce_to_basic(f, q)
        assert width(out) <= width(f)
        assert sharp_width(out) <= sharp_width(f)
        b = random_structure(rng, q.sig, max_size=3)
        assert eval_sentence(out, b) == oracle_count(q, b)
        checked += 1
    assert checked == 20


def test_reduce_to_basic_rejects_non_representation():
    q = parse_query("query u(x): U(x)")
    f = naive_representation(q)
    doubled = Plus(f, naive_representation(q))
    with pytest.raises(SharpqError, match="does not represent"):
        reduce_to_basic(doubled, q)


def test_reduce_to_basic_single_unit_assertion():
    # With an empty sample list the representation precheck is vacuous, so the
    # canonical-form assertion is what fires.
    qu = parse_query("query u(x): U(x)")
    qv = parse_query("query v(x): V(x)")
    f = Plus(naive_representation(qu), naive_representation(qv))
    with pytest.raises(SharpqError, match="single unit term"):
        reduce_to_basic(f, qu, samples=())


# ---------------------------------------------------------------------------
# minimize_ep
# ---------------------------------------------------------------------------


def test_minimize_ep_union_query_three_summands(rng):
    q = parse_query("query d(x): U(x) | V(x)")
    f, w = minimize_ep(q)
    assert w == 1

    def leaves(node):
        if isinstance(node, Plus):
            return leaves(node.left) + leaves(node.right)
        return [node]

    assert len(leaves(f)) == 3
    for _ in range(4):
        b = random_structure(rng, q.sig, max_size=3)
        assert eval_sentence(f, b) == oracle_count(q, b)


def test_minimize_ep_agrees_with_minimize_pp_on_pp_input(rng):
    for _ in range(10):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=0)
        f_ep, w_ep = minimize_ep(q)
        _, w_pp = minimize_pp(q)
        assert w_ep == w_pp
        b = random_structure(rng, q.sig, max_size=3)
        assert eval_sentence(f_ep, b) == oracle_count(q, b)


def test_minimize_ep_random_queries_match_oracle(rng):
    checked = 0
    for _ in range(30):
        q = random_ep_query(rng, max_vars=5, max_atoms=4, max_disjunctions=2)
        f, w = minimize_ep(q)
        assert width(f) <= max(w, 0)
        for _ in range(2):
            b = random_structure(rng, q.sig, max_size=3)
            assert eval_sentence(f, b) == oracle_count(q, b)
        checked += 1
    assert checked == 30


def test_minimize_ep_respects_dnf_cap():
    q = parse_query(
        "query d(x): (U(x) | V(x)) & (U(x) | W(x)) & (V(x) | W(x))"
    )
    with pytest.raises(CapExceeded):
        minimize_ep(q, max_dnf=3)


def test_minimize_ep_output_is_valid_and_renamed_apart(rng):
    q = parse_query("query d(x,y): E(x,y) | F(y,x)")
    f, _ = minimize_ep(q)
    report = validate(f)
    assert report.ok and not report.free
    assert parse_sharp(serialize_sharp(f)) == f
