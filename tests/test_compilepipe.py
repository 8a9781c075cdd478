"""Tests for the compilation pipeline."""

import itertools
import random
from collections import Counter

import pytest

import sharpq.cli
from sharpq import compilepipe
from sharpq.compilepipe import (
    FlatSharp,
    LinearCombination,
    _FreshNames,
    _nest,
    _sharp_variables,
    _union_or_kept,
    as_formula,
    canonical_lc,
    compile_flat,
    count_sentence,
    flatten,
    minimize_ep,
    pp_to_basic_sharp,
)
from sharpq.decomp import TreeDecomposition, _walk, compute_qaw, exact_treewidth
from sharpq.epquery import (
    TOP,
    Atom,
    Exists,
    LiberalQuery,
    PpPair,
    _contract_graph,
    _exists_components,
    fold,
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
from sharpq.epquery import _has_or
from sharpq.equiv import core_of, counting_equivalent, logically_equivalent
from sharpq.errors import CapExceeded, SharpqError
from sharpq.relstore import Signature, make_structure, parse_structure, serialize_structure
from sharpq.sharpcore import (
    _EP_NODES,
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    _require_valid,
    eval_sentence,
    naive_representation,
    parse_sharp,
    serialize_sharp,
    sharp_width,
    validate,
    width,
)

from tests.conftest import (
    QUERY_A,
    QUERY_B,
    brute_homomorphisms,
    ep_width,
    random_ep_query,
    random_pp_pair,
    random_structure,
    star_pair,
    three_block_pair,
)
from tests.helpers import (
    evaluate,
    flat_lc,
    lc_evaluate,
    read_constant,
    reduce_to_basic,
    reference_read_back,
)
from tests.test_one_liberal_route import _refuse
from tests.test_sharpcore import _random_sharp

SIG_E = Signature((("E", 2),))


def _structures_for(rng, q, n, max_size=4):
    return [random_structure(rng, q.sig, max_size=max_size) for _ in range(n)]


# ---------------------------------------------------------------------------
# _nest
# ---------------------------------------------------------------------------


def _nested(p, td):
    """p's facts nested along td with its quantified elements bound."""
    return _nest(td, _walk(td), p.struct.all_facts(), set(p.struct.universe) - p.liberal_set)


def test_rewrite_star_single_bag():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0,), parent={0: None}, bags={0: frozenset({"x1", "x2", "z"})}
    )
    out = _nested(p, td)
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
    out = _nested(p, td)
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


def test_rewrite_is_logically_faithful_on_random_pairs(rng):
    checked = 0
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=5, max_atoms=5)
        _, td = exact_treewidth(primal_graph(p))
        out = _nested(p, td)
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
        out = _nested(p, td)
        assert ep_width(out) <= w + 1


# ---------------------------------------------------------------------------
# pp_to_basic_sharp
# ---------------------------------------------------------------------------


def test_compile_two_edge_path_counts_twelve_into_triangle():
    path = make_structure(SIG_E, ["a0", "a1", "a2"], {"E": {("a0", "a1"), ("a1", "a2")}})
    p = PpPair(struct=path, liberal=("a0", "a1", "a2"))
    sentence, _ = pp_to_basic_sharp(p)
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
        sentence, qaw = pp_to_basic_sharp(p)
        b = random_structure(rng, p.struct.sig, max_size=4)
        assert eval_sentence(sentence, b) == brute_homomorphisms(p.struct, b)
        assert width(sentence) <= qaw


def test_compile_star_and_three_block_against_oracle(rng):
    for p in [star_pair(3), three_block_pair()]:
        sentence, qaw = pp_to_basic_sharp(p)
        assert width(sentence) <= qaw
        q = pair_to_pp(p)
        for _ in range(3):
            b = random_structure(rng, p.struct.sig, max_size=3)
            assert eval_sentence(sentence, b) == oracle_count(q, b)


def test_compile_random_pairs_against_oracle(rng):
    checked = 0
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=6, max_atoms=5)
        sentence, qaw = pp_to_basic_sharp(p)
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
        sentence, _ = pp_to_basic_sharp(p)
        g, lib = primal_graph(p), p.liberal_set
        tw_contract, _ = exact_treewidth(_contract_graph(g, lib, _exists_components(g, lib)))
        assert sharp_width(sentence) <= tw_contract + 1


def test_pp_to_basic_sharp_builds_nothing_beyond_compute_qaws_witness(monkeypatch, rng):
    # each term is compiled along compute_qaw's witness, checked once where
    # it is built: outside compute_qaw, pp_to_basic_sharp builds no
    # structure, pair or decomposition, validates nothing and walks the
    # witness once. minimize_ep of path-5 walks child lists at most four
    # times and validates once, in compute_qaw
    from sharpq import decomp, relstore

    inside, calls = [False], Counter()

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name, inside[0]] += 1
            return fn(*args, **kwargs)
        return spy

    def qaw_spy(*args, **kwargs):
        inside[0] = True
        try:
            return compute_qaw(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(compilepipe, "compute_qaw", qaw_spy)
    monkeypatch.setattr(decomp, "validate_td", counted("validate_td", decomp.validate_td))
    monkeypatch.setattr(relstore, "_init_structure", counted("structure", relstore._init_structure))
    for cls, name in ((PpPair, "pair"), (TreeDecomposition, "decomposition")):
        monkeypatch.setattr(cls, "__init__", counted(name, cls.__init__))
    monkeypatch.setattr(TreeDecomposition, "children", counted("children", TreeDecomposition.children))

    pairs = [star_pair(3), three_block_pair()]
    pairs += [random_pp_pair(rng, max_vars=6, max_atoms=5) for _ in range(20)]
    for p in pairs:
        calls.clear()
        pp_to_basic_sharp(p)
        assert calls["validate_td", True] == 1
        outside = {name: n for (name, within), n in calls.items() if not within}
        assert outside == {"children": 1}

    calls.clear()
    xs = [f"x{i}" for i in range(6)]
    path5 = parse_query(
        "query p(x0): " + "".join(f"exists {x} . " for x in xs[1:])
        + " & ".join(f"E({a},{b})" for a, b in zip(xs, xs[1:]))
    )
    minimize_ep(path5)
    assert calls["children", False] + calls["children", True] <= 4
    assert calls["validate_td", False] + calls["validate_td", True] == 1


def test_pp_to_basic_sharp_returns_its_qaw_and_passes_its_cap_to_compute_qaw():
    # the 4-cycle through x keeps all four vertices once simplicial ones go
    cycle = pp_to_pair(parse_query(
        "query c(x): exists b . exists c . exists d . E(x,b) & E(b,c) & E(c,d) & E(d,x)"
    ))
    assert pp_to_basic_sharp(cycle)[1] == compute_qaw(cycle)[0] == 3
    assert pp_to_basic_sharp(cycle, 4)[1] == 3
    with pytest.raises(CapExceeded, match="limited to 3 vertices"):
        pp_to_basic_sharp(cycle, 3)


def test_compile_isolated_liberal_variable_multiplies_by_universe_size():
    struct = make_structure(SIG_E, ["x", "y"], {"E": {("x", "x")}})
    p = PpPair(struct=struct, liberal=("x", "y"))
    sentence, _ = pp_to_basic_sharp(p)
    b = parse_structure("signature E/2\nuniverse a b c\nE(a,a)\nE(b,b)\n")
    assert eval_sentence(sentence, b) == 2 * 3


# ---------------------------------------------------------------------------
# reference_read_back: the tests' read-back of a basic sentence as a pair
# ---------------------------------------------------------------------------


def test_read_back_theta_sentence(rng):
    f = parse_sharp("P{x} (P{y} C[E(x,y); {x,y}] * P{z} C[F(x,z); {x,z}])")
    p = reference_read_back(f)
    assert set(p.liberal) == {"x", "y", "z"}
    assert set(p.struct.universe) == {"x", "y", "z"}
    q = pair_to_pp(p)
    for _ in range(4):
        b = random_structure(rng, q.sig, max_size=3)
        assert oracle_count(q, b) == eval_sentence(f, b)


def test_read_back_true_sentence_counts_one():
    p = reference_read_back(parse_sharp("C[true; {}]"))
    assert p.liberal == ()
    b = parse_structure("signature E/2\nuniverse a b\nE(a,b)\n")
    assert oracle_count(pair_to_pp(p), b) == 1


def test_read_back_expansion_padding_counts_universe():
    f = parse_sharp("P{u} E{u} C[true; {}]")
    p = reference_read_back(f)
    assert p.liberal == ("u",)
    b = parse_structure("signature E/2\nuniverse a b c\nE(a,b)\n")
    assert oracle_count(pair_to_pp(p), b) == 3 == eval_sentence(f, b)


def test_read_back_vacuous_projection_counts_universe():
    # P{w} over a child that does not mention w multiplies by |B|.
    f = Project(frozenset({"w"}), parse_sharp("C[true; {}]"))
    p = reference_read_back(f)
    b = parse_structure("signature E/2\nuniverse a b c\nE(a,b)\n")
    assert eval_sentence(f, b) == 3
    assert oracle_count(pair_to_pp(p), b) == 3


def test_read_back_round_trip_preserves_counts_and_width(rng):
    for _ in range(25):
        p = random_pp_pair(rng, max_vars=5, max_atoms=5)
        sentence, qaw = pp_to_basic_sharp(p)
        back = reference_read_back(sentence)
        q1, q2 = pair_to_pp(p), pair_to_pp(back)
        for _ in range(2):
            b = random_structure(rng, p.struct.sig, max_size=3)
            assert oracle_count(q1, b) == oracle_count(q2, b)
        back_qaw, _ = compute_qaw(back)
        assert back_qaw <= width(sentence)
        g, lib = primal_graph(back), back.liberal_set
        tw_contract, _ = exact_treewidth(_contract_graph(g, lib, _exists_components(g, lib)))
        assert tw_contract + 1 <= sharp_width(sentence)


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
            return parse_sharp(f"C[{ep(lib, 3)}; {{{','.join(lib)}}}]")
        roll = rng.random()
        child = gen(depth - 1)
        free, closed = validate(child).free, validate(child).closed
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
        free_r, closed_r = validate(right).free, validate(right).closed
        want = free | free_r
        if (want - free) & closed or (want - free_r) & closed_r:
            return child
        left = Expand(want - free, child) if want - free else child
        right = Expand(want - free_r, right) if want - free_r else right
        return Times(left, right)

    f = gen(4)
    free = validate(f).free
    f = Project(free, f) if free else f
    return f if validate(f).ok else None


def test_read_back_matches_the_node_by_node_derivation():
    # casts that reuse binder names, projections of variables the child
    # never mentions and expansions all read back to a pair of equal count
    rng = random.Random(404)
    sig = Signature((("E", 2), ("U", 1)))
    checked = vacuous = expanded = 0
    while checked < 300:
        f = _random_basic_sentence(rng)
        if f is None:
            continue
        checked += 1
        nodes = subformulas(f)
        vacuous += any(
            isinstance(n, Project) and n.vars - validate(n.child).free for n in nodes
        )
        expanded += any(isinstance(n, Expand) for n in nodes)
        q = pair_to_pp(reference_read_back(f))
        for _ in range(2):
            b = random_structure(rng, sig, max_size=3)
            assert oracle_count(q, b) == eval_sentence(f, b), serialize_sharp(f)
    assert vacuous > 50 and expanded > 50


# ---------------------------------------------------------------------------
# minimize_ep on disjunction-free queries
# ---------------------------------------------------------------------------


def test_minimize_ep_drops_duplicated_branch():
    q = parse_query("query fold(x): exists y . exists z . E(x,y) & E(x,z)")
    sentence, w = minimize_ep(q)
    assert w == 2
    b = parse_structure("signature E/2\nuniverse a b\nE(a,b)\nE(b,a)\nE(a,a)\n")
    assert eval_sentence(sentence, b) == oracle_count(q, b) == 2


def test_minimize_ep_theta_width_one(rng):
    q = parse_query("query t(x1,x2,x3): U1(x1) & U2(x2) & U3(x3)")
    sentence, w = minimize_ep(q)
    assert w == 1
    b = random_structure(rng, q.sig, max_size=4)
    want = (
        len(b.tuples("U1")) * len(b.tuples("U2")) * len(b.tuples("U3"))
    )
    assert eval_sentence(sentence, b) == want


def test_minimize_ep_three_block_width_four(rng):
    q = pair_to_pp(three_block_pair())
    sentence, w = minimize_ep(q)
    assert w == 4
    b = random_structure(rng, q.sig, max_size=2)
    assert eval_sentence(sentence, b) == oracle_count(q, b)


def test_minimize_ep_random_pp_queries_match_oracle(rng):
    for _ in range(30):
        q = random_ep_query(rng, max_vars=5, max_atoms=4, max_disjunctions=0)
        sentence, w = minimize_ep(q)
        assert width(sentence) <= w
        for _ in range(2):
            b = random_structure(rng, q.sig, max_size=3)
            assert eval_sentence(sentence, b) == oracle_count(q, b)


# ---------------------------------------------------------------------------
# flatten's cast step: inclusion-exclusion over the disjuncts
# ---------------------------------------------------------------------------


def test_flatten_single_disjunct_cast_shape():
    cast = parse_sharp("C[E(x,y); {x,y}]")
    ((const, basic),) = flatten(cast).terms
    assert const == Expand(frozenset({"x", "y"}), Project(frozenset(), Const(1)))
    assert basic == cast


def test_flatten_cast_terms_are_signed_products_over_subsets_smallest_first():
    a, b, c = (Cast(Atom(f"A{i}", ("x",)), ("x",)) for i in range(3))
    fs = flatten(parse_sharp("C[A0(x) | A1(x) | A2(x); {x}]"))
    assert [read_constant(const) for const, _ in fs.terms] == [
        (1, 0), (1, 0), (1, 0), (-1, 0), (-1, 0), (-1, 0), (1, 0)
    ]
    assert [basic for _, basic in fs.terms] == [
        a, b, c, Times(a, b), Times(a, c), Times(b, c), Times(Times(a, b), c)
    ]


def test_flatten_deduplicates_syntactic_disjuncts(rng):
    q = parse_query("query d(x): U(x) | U(x)")
    direct = Cast(ep=q.formula, liberal=q.liberal)
    fs = flatten(direct)
    assert len(fs.terms) == 1  # one inclusion-exclusion term, not a sum
    for _ in range(3):
        b = random_structure(rng, q.sig, max_size=3)
        assert evaluate(as_formula(fs), b) == evaluate(direct, b)


def test_flatten_of_a_cast_matches_the_cast_pointwise(rng):
    checked = 0
    for _ in range(40):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=2)
        direct = Cast(ep=q.formula, liberal=tuple(q.liberal))
        f = as_formula(flatten(direct))
        assert width(f) <= width(direct)
        for _ in range(2):
            b = random_structure(rng, q.sig, max_size=3)
            assert evaluate(f, b) == evaluate(direct, b)
        checked += 1
    assert checked == 40


def test_flatten_respects_dnf_cap():
    q = parse_query(
        "query d(x): (U(x) | V(x)) & (U(x) | W(x)) & (V(x) | W(x))"
    )
    with pytest.raises(CapExceeded):
        flatten(Cast(q.formula, q.liberal), max_dnf=3)


def test_flatten_caps_its_terms_before_building_any(monkeypatch):
    f = parse_sharp("P{x} C[A0(x) | A1(x) | A2(x); {x}]")
    assert len(flatten(f, max_dnf=7).terms) == 7
    with pytest.raises(CapExceeded, match="3 disjuncts needs 7 > 6 terms"):
        flatten(f, max_dnf=6)

    def no_terms(*args, **kwargs):
        raise AssertionError("a term was built")

    for k in (13, 40):
        wide = parse_sharp("C[" + " | ".join(f"A{i}(x)" for i in range(k)) + "; {x}]")
        with monkeypatch.context() as patch:
            # a term of two or more casts is a Times; the cast step looks
            # Cast up as its key, so Cast itself stays
            for name in ("Times", "Expand"):
                patch.setattr(compilepipe, name, no_terms)
            with pytest.raises(CapExceeded, match=f"{2**k - 1} > 4096 terms"):
                flatten(wide)


# ---------------------------------------------------------------------------
# The table-union route of `count` on unions (count_sentence through
# _union_or_kept, with the caps `count` passes: max_dnf 4096, tw_cap 24)
# ---------------------------------------------------------------------------


def test_table_union_route_is_taken_when_the_naive_cast_is_no_wider():
    # width equals the widest disjunct core's qaw: 1 and 2
    for text, w in (
        ("query u(x): A0(x) | A1(x) | A2(x)", 1),
        ("query e(x): (exists y0 . E0(x,y0)) | (exists y1 . E1(x,y1))", 2),
    ):
        q = parse_query(text)
        assert count_sentence(q) == naive_representation(q)
        assert width(naive_representation(q)) == w


def test_table_union_route_refuses_wider_casts_and_uncored_widths():
    for text in (QUERY_A, QUERY_B):
        assert _union_or_kept(parse_query(text), 4096, 24)[0] is None
    core_qaws = [
        compute_qaw(core_of(pp_to_pair(d)))[0] for d in to_dnf_pp(parse_query(QUERY_B))
    ]
    uncored_qaws = [compute_qaw(pp_to_pair(d))[0] for d in to_dnf_pp(parse_query(QUERY_B))]
    assert (core_qaws, uncored_qaws) == ([1, 1], [3, 1])


def test_table_union_route_is_only_for_disjunctions():
    for text in (
        "query p(x): exists y . E(x,y)",
        "query u(x): A0(x)",
        "query t(x,y): E(x,y) & F(y,x)",
    ):
        q = parse_query(text)
        # the width test alone would admit each of them
        assert width(naive_representation(q)) <= compute_qaw(pp_to_pair(q))[0]
        assert _union_or_kept(q, 4096, 24)[0] is None


def test_table_union_route_is_refused_when_a_cap_stops_the_guard():
    # directed paths of 12 and 13 elements, nested so that their casts have
    # width 2: no element folds, so the longer one's core search meets the
    # 12-element core cap
    for n, taken in ((11, True), (12, False)):
        q = parse_query(f"query c(y0): F(y0) | exists y1 . ({_nested_path('E', n)})")
        assert width(naive_representation(q)) == 2
        assert (_union_or_kept(q, 4096, 24)[0] == naive_representation(q)) == taken
    # the treewidth cap counts the vertices no simplicial deletion removes:
    # all four of each disjunct's directed 4-cycle
    cycles = parse_query("query e(x): " + " | ".join(
        f"(exists y{i} . E{i}(x,y{i}) & exists z{i} . E{i}(y{i},z{i}) & "
        f"exists w{i} . E{i}(z{i},w{i}) & E{i}(w{i},x))"
        for i in (0, 1)
    ))
    assert _union_or_kept(cycles, 4096, 4)[0] == naive_representation(cycles)
    assert _union_or_kept(cycles, 4096, 3)[0] is None
    binary = parse_query("query e(x): (exists y0 . E0(x,y0)) | (exists y1 . E1(x,y1))")
    with pytest.raises(CapExceeded, match="DNF"):
        _union_or_kept(binary, 1, 24)


def _table_union_per_disjunct(q, *, tw_cap=24):
    """The reference for the table-union route: a core and a qaw for every
    disjunct that _drop_contained keeps, none shared."""
    q = compilepipe._drop_contained(q, max_dnf=4096)[0]
    if not _has_or(q.formula):
        return None
    naive = naive_representation(q)
    try:
        qaw = max(
            compute_qaw(core_of(compilepipe._fold_quantified(pp_to_pair(d))), cap=tw_cap)[0]
            for d in to_dnf_pp(q)
        )
    except CapExceeded:
        return None
    return naive if width(naive) <= qaw else None


def _nested_path(symbol, n):
    """`E(y0,y1) & exists y2 . (E(y1,y2) & ...)`: n edges over n + 1
    elements, no two folding together, nested so that the cast has width 2."""
    path = f"{symbol}(y{n - 1},y{n})"
    for i in range(n - 1, 0, -1):
        path = f"{symbol}(y{i - 1},y{i}) & exists y{i + 1} . ({path})"
    return path


def test_one_core_per_disjunct_shape_routes_as_one_per_disjunct():
    gen = random.Random(20261018)
    routes = []
    for _ in range(200):
        # a random query, and its union with a copy over renamed symbols:
        # the copy's disjuncts are isomorphic to the original's
        text = serialize_query(random_ep_query(gen, max_disjunctions=2))
        head, body = text.rstrip("\n").split(": ", 1)
        union = f"{head}: ({body}) | ({body.replace('R', 'S')})"
        for q in (parse_query(text), parse_query(union)):
            for tw_cap in (24, 2):
                route = _union_or_kept(q, 4096, tw_cap)[0]
                assert route == _table_union_per_disjunct(q, tw_cap=tw_cap), (text, tw_cap)
                routes.append(route is None)
    assert 100 < routes.count(False) and 100 < routes.count(True)
    # two isomorphic disjuncts over the core cap, a cap met only by the
    # second shape, and a treewidth cap
    def twins(n):
        return parse_query(f"query c(y0): exists y1 . ({_nested_path('E0', n)}) | "
                           f"exists y1 . ({_nested_path('E1', n)})")

    def second(n):
        return parse_query(f"query c(y0): F(y0) | exists y1 . ({_nested_path('E', n)})")

    cycles = parse_query("query e(x): " + " | ".join(
        f"(exists y{i} . E{i}(x,y{i}) & exists z{i} . E{i}(y{i},z{i}) & "
        f"exists w{i} . E{i}(z{i},w{i}) & E{i}(w{i},x))"
        for i in (0, 1)
    ))
    for q, tw_cap, taken in (
        (twins(12), 24, False), (twins(11), 24, True),
        (second(12), 24, False), (second(11), 24, True),
        (cycles, 3, False), (cycles, 4, True),
    ):
        route = _union_or_kept(q, 4096, tw_cap)[0]
        assert route == _table_union_per_disjunct(q, tw_cap=tw_cap)
        assert (route is not None) == taken


def _isomorphic(p, q):
    """Brute force: a bijection of elements keeping the liberal tuple and
    one of the nonempty relations mapping p's facts onto q's."""
    if (len(p.liberal), len(p.struct.universe)) != (len(q.liberal), len(q.struct.universe)):
        return False
    if len(p.struct.relations) != len(q.struct.relations):
        return False
    for rest in itertools.permutations(q.quantified):
        ren = dict(zip(p.liberal + p.quantified, q.liberal + rest))
        image = [{tuple(map(ren.get, t)) for t in ts} for ts in p.struct.relations.values()]
        if any(
            all(a == q.struct.relations[b] for a, b in zip(image, names))
            for names in itertools.permutations(q.struct.relations)
        ):
            return True
    return False


def test_pairs_of_one_shape_are_isomorphic():
    gen = random.Random(1501)
    pairs = []
    for _ in range(300):
        p = random_pp_pair(gen, max_vars=3, max_atoms=3, max_arity=2)
        # a copy over other element and symbol names, in the same universe order
        ren = {e: f"{e}'" for e in p.struct.universe}
        sig = Signature(tuple((f"S{n}", a) for n, a in p.struct.sig.symbols))
        copy = PpPair(
            struct=make_structure(sig, [ren[e] for e in p.struct.universe], {
                f"S{n}": [tuple(map(ren.get, t)) for t in ts] for n, ts in p.struct.relations.items()
            }),
            liberal=tuple(map(ren.get, p.liberal)),
        )
        assert compilepipe._shape(copy) == compilepipe._shape(p)
        pairs.append(p)
    by_shape = {}
    for p in pairs:
        by_shape.setdefault(compilepipe._shape(p), []).append(p)
    assert len(pairs) - len(by_shape) > 100  # pairs that share a shape with an earlier one
    for group in by_shape.values():
        assert all(_isomorphic(group[0], p) for p in group[1:])
    # an element in no fact and not liberal counts too
    loop = {"E": {("x", "x")}}
    alone, beside_y = (PpPair(make_structure(SIG_E, u, loop), ("x",)) for u in (["x"], ["x", "y"]))
    assert compilepipe._shape(alone) != compilepipe._shape(beside_y)


def test_isomorphic_disjuncts_are_solved_once(monkeypatch):
    calls = []
    for name in ("core_of", "compute_qaw"):
        real = getattr(compilepipe, name)
        monkeypatch.setattr(
            compilepipe, name,
            lambda *args, _name=name, _real=real, **kwargs: calls.append(_name) or _real(*args, **kwargs),
        )
    unary = parse_query("query u(x): " + " | ".join(f"A{i}(x)" for i in range(11)))
    binary = parse_query(
        "query e(x): " + " | ".join(f"(exists y{i} . E{i}(x,y{i}))" for i in range(11))
    )
    for q in (unary, binary):
        calls.clear()
        assert count_sentence(q) == naive_representation(q)
        assert calls == ["core_of", "compute_qaw"]


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------


def test_flatten_disjunction_gives_three_signed_terms():
    q = parse_query("query d(x,y,z): E(x,y) | F(y,z)")
    fs = flatten(naive_representation(q))
    assert len(fs.terms) == 3
    assert [read_constant(c)[0] for c, _ in fs.terms] == [1, 1, -1]
    assert fs.free == frozenset()


def test_flatten_keeps_already_flat_terms():
    basic = parse_sharp("P{x} C[E(x,x); {x}]")
    f = Times(Expand(frozenset(), Project(frozenset(), Const(3))), basic)
    fs = flatten(f)
    assert len(fs.terms) == 1
    const, kept = fs.terms[0]
    assert read_constant(const) == (3, 0)
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
            read_constant(const)  # raises unless in normal form
            assert validate(Times(const, basic)).ok


def test_flatten_open_formula_keeps_free_set(rng):
    f = parse_sharp("(C[E(x,y); {x,y}] * E{x,y} 2)")
    fs = flatten(f)
    assert fs.free == frozenset({"x", "y"})
    b = random_structure(rng, SIG_E, max_size=3)
    assert evaluate(as_formula(fs), b) == evaluate(f, b)


# A three-stage flatten (inclusion-exclusion on every cast, then every sum
# lifted to the top, then each summand split into its constant and basic
# parts), kept as the reference that the one-fold flatten must match term by
# term, fresh names included. Its first stage replaces each cast by the sum
# that flatten gives for that cast alone, whose terms the tests above check
# one by one and pointwise, so this checks how the one fold carries them
# through sums, products, projections and expansions.

_EP_AS_IS = dict.fromkeys(_EP_NODES, lambda node, *kids: node)


def _ref_cast_all(f, max_dnf):
    return fold(f, {
        **_EP_AS_IS,
        Cast: lambda node, ep: as_formula(flatten(node, max_dnf=max_dnf)),
        **dict.fromkeys((Project, Expand), lambda node, child: type(node)(node.vars, child)),
        **dict.fromkeys((Times, Plus), lambda node, left, right: type(node)(left, right)),
        Const: lambda node: node,
    })


def _ref_lift_sums(f):
    return fold(f, {
        **_EP_AS_IS,
        Cast: lambda node, ep: [node],
        Const: lambda node: [node],
        Plus: lambda node, lefts, rights: lefts + rights,
        **dict.fromkeys((Project, Expand), lambda node, subs: [
            type(node)(node.vars, s) for s in subs
        ]),
        Times: lambda node, lefts, rights: [Times(a, b) for a in lefts for b in rights],
    })


def _ref_normmult_project(node, child):
    n, pow_, basic, free = child
    if basic is None:
        return n, pow_ + len(node.vars), None, free - node.vars
    return n, pow_, Project(node.vars, basic), free - node.vars


def _ref_normmult_expand(node, child):
    n, pow_, basic, free = child
    return n, pow_, None if basic is None else Expand(node.vars, basic), free | node.vars


def _ref_normmult_times(node, left, right):
    (nl, pl, bl, free), (nr, pr, br, _) = left, right
    basic = br if bl is None else bl if br is None else Times(bl, br)
    return nl * nr, pl + pr, basic, free


def _ref_normmult(f):
    return fold(f, {
        **_EP_AS_IS,
        Const: lambda node: (node.n, 0, None, frozenset()),
        Cast: lambda node, ep: (1, 0, node, frozenset(node.liberal)),
        Project: _ref_normmult_project,
        Expand: _ref_normmult_expand,
        Times: _ref_normmult_times,
    })


def _reference_flatten(f, max_dnf=4096):
    report = _require_valid(f)
    staged = _ref_cast_all(f, max_dnf)
    summands = _ref_lift_sums(staged)
    names = _FreshNames(_sharp_variables(staged) | _sharp_variables(f))
    terms = []
    for s in summands:
        n, pow_, basic, free = _ref_normmult(s)
        v2 = frozenset(names.take(pow_))
        const = Expand(free, Project(v2, Const(n)))
        if basic is None:
            basic = Cast(ep=TOP, liberal=tuple(sorted(free)))
        terms.append((const, basic))
    return FlatSharp(terms=tuple(terms), free=report.free)


def _flat_text(fs):
    return fs.free, [(serialize_sharp(c), serialize_sharp(b)) for c, b in fs.terms]


def _random_cast_formula(gen):
    """A cast, or a sum, product or projection of two casts, over random ep
    queries with disjunctions."""
    q1, q2 = random_ep_query(gen, max_vars=4), random_ep_query(gen, max_vars=4)
    lib = tuple(sorted(set(q1.liberal) | set(q2.liberal)))
    c1, c2 = Cast(q1.formula, lib), Cast(q2.formula, lib)
    shape = gen.choice([c1, Times(c1, c2), Plus(c1, c2), Plus(Times(c1, c2), c2)])
    if gen.random() < 0.5:
        return Project(gen.sample(lib, gen.randint(1, len(lib))), shape)
    return shape


def _union_cast(k, liberal="x"):
    """A cast of k disjuncts, alternating unary atoms and out-edges."""
    parts = [f"U{i}(x)" if i % 2 else f"(exists y . E{i}(x,y))" for i in range(k)]
    return parse_sharp(f"C[{' | '.join(parts)}; {{{liberal}}}]")


def test_flatten_matches_the_three_stage_reference():
    gen = random.Random(5150)
    formulas = []
    while len(formulas) < 160:
        f = _random_sharp(gen)
        if validate(f).ok:
            formulas.append(f)
    formulas += [_random_cast_formula(gen) for _ in range(160)]
    for k in range(1, 7):
        c, d = _union_cast(k), _union_cast(7 - k)
        formulas += [c, Plus(c, d), Times(c, d), Project({"x"}, Times(c, Plus(d, c))),
                     Project({"x"}, Plus(c, Expand({"x"}, Const(k))))]
    for f in formulas:
        assert _flat_text(flatten(f)) == _flat_text(_reference_flatten(f))


def test_flatten_refuses_where_the_reference_refuses():
    f = Times(_union_cast(6), _union_cast(3))
    for flat in (flatten, _reference_flatten):
        with pytest.raises(CapExceeded, match="inclusion-exclusion over 6 disjuncts needs 63 > 40"):
            flat(f, max_dnf=40)


# ---------------------------------------------------------------------------
# canonical_lc
# ---------------------------------------------------------------------------


def test_canonical_lc_of_union_query():
    q = parse_query("query d(x): U(x) | V(x)")
    lc = flat_lc(flatten(naive_representation(q)))
    assert [c for c, _ in lc.entries] == [1, 1, -1]
    assert [sum(len(ts) for ts in p.struct.relations.values()) for _, p in lc.entries] == [1, 1, 2]
    for _, p in lc.entries:
        assert p.liberal == ("l0",)


def test_canonical_lc_merges_counting_equivalent_terms():
    # x.E(x,y) + y.E(x,y) are the same term up to renaming: coefficients add.
    left = parse_sharp("P{x} P{y} C[E(x,y); {x,y}]")
    right = parse_sharp("P{u} P{w} C[E(u,w); {u,w}]")
    lc = flat_lc(flatten(Plus(left, right)))
    assert len(lc.entries) == 1
    assert lc.entries[0][0] == 2


def test_canonical_lc_serializes_each_term_once(monkeypatch):
    # a term's merge key is also its sort key: the 8-atom unary union's 255
    # terms, none of which merge, are serialized 255 times, and the entries
    # stay in (liberal count, fact count, text) order
    q = parse_query("query u(x): " + " | ".join(f"A{i}(x)" for i in range(8)))
    fs = flatten(naive_representation(q))
    serialize, texts = compilepipe.serialize_pair, []

    def spy(pair):
        texts.append(serialize(pair))
        return texts[-1]

    monkeypatch.setattr(compilepipe, "serialize_pair", spy)
    lc = flat_lc(fs)
    assert len(fs.terms) == len(lc.entries) == len(texts) == 255
    keys = [(len(p.liberal), compilepipe._fact_count(p), serialize(p)) for _, p in lc.entries]
    assert keys == sorted(keys)


def test_canonical_lc_drops_cancelled_terms():
    f = parse_sharp("P{x} C[U(x); {x}]")
    g = Plus(f, Times(Const(-1), parse_sharp("P{w} C[U(w); {w}]")))
    assert flat_lc(flatten(g)).entries == ()


def test_canonical_lc_absorbs_powers_as_fresh_liberal_elements(rng):
    # 2 * |B| * count(E) via an explicit P-over-constant.
    f = Times(
        Expand(frozenset(), Project(frozenset({"pad"}), Const(2))),
        parse_sharp("P{x} P{y} C[E(x,y); {x,y}]"),
    )
    lc = flat_lc(flatten(f))
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
        lc1 = flat_lc(flatten(naive))
        noise = Plus(naive, Times(Const(0), naive))
        lc2 = flat_lc(flatten(noise))
        compiled, _ = minimize_ep(q)
        lc3 = flat_lc(flatten(compiled))
        assert lc1 == lc2 == lc3
        agreeing += 1
    assert agreeing == 12


def test_canonical_lc_refuses_a_term_over_the_core_cap_before_any_search(monkeypatch):
    q = parse_query("query u(x): U(x) | exists y . exists z . E(x,y) & E(y,z)\n")
    fs = flatten(naive_representation(q))
    sizes = [
        len(compilepipe._fold_quantified(reference_read_back(basic)).struct.universe)
        for _, basic in fs.terms
    ]
    assert sizes[0] <= 2 < max(sizes)
    calls = []

    def counted(name):
        real = getattr(compilepipe, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("core_of", "_canonical_pair"):
        monkeypatch.setattr(compilepipe, name, counted(name))
    with pytest.raises(CapExceeded, match=f"core search limited to 2 elements, got {max(sizes)}"):
        flat_lc(fs, core_cap=2)
    assert calls == []
    assert len(flat_lc(fs, core_cap=3).entries) == 3
    assert calls.count("_canonical_pair") == 3


def test_canonical_lc_entries_pairwise_inequivalent(rng):
    for _ in range(10):
        q = random_ep_query(rng, max_vars=4, max_atoms=3, max_disjunctions=2)
        lc = flat_lc(flatten(naive_representation(q)))
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
        flat_lc(fs)


# ---------------------------------------------------------------------------
# lc_evaluate
# ---------------------------------------------------------------------------


def test_lc_evaluate_theta_example():
    q = parse_query("query t(x1,x2): U1(x1) & U2(x2)")
    lc = flat_lc(flatten(naive_representation(q)))
    b = parse_structure("signature U1/1 U2/1\nuniverse a b\nU1(a)\nU1(b)\nU2(b)\n")
    assert lc_evaluate(lc, b) == 2
    assert lc_evaluate(lc, b, "oracle") == 2
    assert lc_evaluate(lc, b, "both") == 2


def test_lc_evaluate_engines_agree(rng):
    for _ in range(10):
        q = random_ep_query(rng, max_vars=4, max_atoms=3, max_disjunctions=2)
        lc = flat_lc(flatten(naive_representation(q)))
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


def test_minimize_ep_on_pp_input_has_the_qaw_of_the_core(rng):
    for _ in range(10):
        q = random_ep_query(rng, max_vars=4, max_atoms=4, max_disjunctions=0)
        f_ep, w_ep = minimize_ep(q)
        assert w_ep == compute_qaw(core_of(pp_to_pair(q)))[0]
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


def test_minimize_ep_drops_contained_disjuncts_without_changing_its_output(rng, monkeypatch):
    # the canonical linear combination is unique, so dropping disjuncts whose
    # terms cancel must give the entries, and the sentence, of the unpruned
    # inclusion-exclusion
    lcs = []

    def spy(*args, **kwargs):
        lcs.append(canonical_lc(*args, **kwargs))
        return lcs[-1]

    monkeypatch.setattr(compilepipe, "canonical_lc", spy)
    checked = pruned = 0
    while checked < 200:
        q = random_ep_query(rng, max_vars=6, max_atoms=6, max_disjunctions=3)
        if not _has_or(q.formula):
            continue
        lcs.clear()
        sentence, _ = minimize_ep(q)
        want = flat_lc(flatten(naive_representation(q)))
        assert lcs[0].entries == want.entries
        reference = (
            compilepipe._compile_terms(want.entries, 24)[0]
            if want.entries else Const(0)
        )
        assert serialize_sharp(sentence) == serialize_sharp(reference)
        checked += 1
        pruned += compilepipe._drop_contained(q, max_dnf=4096, core_cap=12)[0] is not q
    assert pruned >= 50


def test_minimize_ep_builds_terms_of_only_the_disjuncts_not_contained_in_another(
    rng, monkeypatch
):
    q = parse_query(
        "query c(x): (exists y . E(x,y)) | "
        "(exists y . (E(x,y) & exists z . exists w . E(y,z) & E(z,w) & E(w,y)))"
    )
    assert len(flatten(naive_representation(q)).terms) == 3
    term_lists = []

    def spy(terms, **kwargs):
        term_lists.append(list(terms))
        return canonical_lc(term_lists[-1], **kwargs)

    monkeypatch.setattr(compilepipe, "canonical_lc", spy)
    sentence, w = minimize_ep(q)
    assert [len(terms) for terms in term_lists] == [1]
    assert w == 2
    for _ in range(4):
        b = random_structure(rng, q.sig, max_size=4)
        assert eval_sentence(sentence, b) == oracle_count(q, b)


def test_minimize_ep_caps_the_terms_left_after_dropping_contained_disjuncts():
    # 7 disjuncts need 127 > 100 terms; without the contained last one, 63
    q = parse_query(
        "query q(x): A0(x) | A1(x) | A2(x) | A3(x) | A4(x) | A5(x) | (A0(x) & B(x))"
    )
    with pytest.raises(CapExceeded, match="127 > 100"):
        flatten(naive_representation(q), max_dnf=100)
    f, w = minimize_ep(q, max_dnf=100)
    assert w == 1
    assert len(flatten(f).terms) == 63


def test_drop_contained_skips_its_comparisons_over_max_dnf(monkeypatch):
    # the second disjunct lies inside the first; 3 disjuncts need 3 * 2 = 6
    # comparisons, so at max_dnf 5 none is made and q comes back as it is
    q = parse_query(
        "query c(x): (exists y . E(x,y)) | (exists y . E(x,y) & E(y,x)) | F(x)"
    )
    kept, pairs = compilepipe._drop_contained(q, max_dnf=6)
    assert kept.formula == parse_query("query c(x): (exists y . E(x,y)) | F(x)").formula
    assert len(pairs) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("a comparison was made")

    monkeypatch.setattr(compilepipe, "homomorphism_search", refuse)
    kept, pairs = compilepipe._drop_contained(q, max_dnf=5)
    assert kept is q and len(pairs) == 3


def _compiles_per_source(monkeypatch):
    """How often compilepipe.homomorphism_search compiles each source
    structure, by the structure's id (the disjuncts' pairs hold them)."""
    compiles = Counter()
    search = compilepipe.homomorphism_search

    def spy(src, pin):
        compiles[id(src)] += 1
        return search(src, pin)

    monkeypatch.setattr(compilepipe, "homomorphism_search", spy)
    return compiles


def test_drop_contained_compiles_each_compared_source_once(monkeypatch, rng):
    # the plain disjunct contains the other eight: it is the source of eight
    # comparisons, and its search is compiled once for all of them
    compiles = _compiles_per_source(monkeypatch)
    spokes = " | ".join(f"(exists y . E(x,y) & F{i}(y))" for i in range(8))
    q = parse_query(f"query u(x): {spokes} | (exists y . E(x,y))")
    kept, pairs = compilepipe._drop_contained(q, max_dnf=4096)
    assert [list(p.struct.relations) for p in pairs] == [["E"]]
    assert kept is not q and list(compiles.values()) == [1]
    compared = 0
    for _ in range(60):
        compiles.clear()
        q = random_ep_query(rng, max_vars=4, max_atoms=5, max_disjunctions=3)
        compilepipe._drop_contained(q, max_dnf=4096)
        assert set(compiles.values()) <= {1}
        compared += len(compiles)
    assert compared >= 30


def test_a_flat_sentence_with_no_terms_is_zero():
    assert serialize_sharp(as_formula(FlatSharp(terms=(), free=frozenset({"x"})))) == "E{x} 0"
    assert compilepipe._compile_terms((), 24) == (Const(0), 0)


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


# ---------------------------------------------------------------------------
# count's unmerged terms: when a core or labeling cap refuses canonical_lc,
# count_sentence compiles the inclusion-exclusion terms as they are
# ---------------------------------------------------------------------------


ALL_LIBERAL_PATH10 = "query p10({}): {}\n".format(
    ",".join(f"x{i}" for i in range(10)),
    " & ".join(f"E(x{i},x{i + 1})" for i in range(9)),
)
# the three walks of four edges from x glue into a 14-element term
WALKS4 = "query w(x,v): " + " | ".join(
    "(" + "".join(f"exists y{i}{j} . " for j in range(4))
    + " & ".join(f"E{i}({'x' if j == 0 else f'y{i}{j - 1}'},y{i}{j})" for j in range(4))
    + ")" for i in range(3)
) + " | F(v)\n"


@pytest.mark.parametrize("text, cap, w, n_terms", [
    (ALL_LIBERAL_PATH10, "canonical labeling over 10!*0! orderings", 2, 1),
    (WALKS4, "core search limited to 12 elements, got 14", 2, 15),
], ids=["all-liberal-path-10", "walks-over-the-core-cap"])
def test_unmerged_terms_count_like_the_oracle_without_flatten(
    tmp_path, capsys, monkeypatch, text, cap, w, n_terms
):
    q = parse_query(text)
    flat_width = compile_flat(q)[1]
    refused = []
    real_lc = compilepipe.canonical_lc

    def lc_spy(terms, **kwargs):
        try:
            return real_lc(terms, **kwargs)
        except CapExceeded as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(compilepipe, "canonical_lc", lc_spy)
    _refuse(monkeypatch, ("flatten", "compile_flat"))
    sentence = count_sentence(q)
    assert len(refused) == 1 and refused[0].startswith(cap)
    assert (width(sentence), len(compilepipe._summands(sentence))) == (w, n_terms)
    assert w <= flat_width
    query, data = tmp_path / "q.epq", tmp_path / "d.rel"
    query.write_text(text)
    rng = random.Random(2035)
    for _ in range(3):
        b = random_structure(rng, q.sig, min_size=2, max_size=3, density=0.4)
        data.write_text(serialize_structure(b))
        code = sharpq.cli.main(["count", "-q", str(query), "-d", str(data), "--engine", "both"])
        out, err = capsys.readouterr()
        assert (code, out.splitlines()[-1:], err) == (0, ["engines agree"], ""), text
    assert len(refused) == 4
