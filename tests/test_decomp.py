"""Tests for exact treewidth, nice decompositions, and quantifier-aware width."""

import itertools
import random

import pytest

from sharpq.decomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _block_anchors,
    _qaw_witness,
    compute_qaw,
    exact_treewidth,
    is_quantifier_aware,
    make_nice,
    qaw_bounds,
    serialize_td,
    validate_nice,
    validate_td,
)
from sharpq.epquery import (
    Graph,
    PpPair,
    exists_components,
    parse_query,
    pp_to_pair,
    primal_graph,
)
from sharpq.errors import CapExceeded, SharpqError
from sharpq.relstore import Signature, make_structure

from tests.conftest import (
    brute_qaw,
    brute_treewidth,
    random_graph,
    random_pp_pair,
    star_pair,
    three_block_pair,
)


def _graph(edges, extra_vertices=()):
    vs = {v for e in edges for v in e} | set(extra_vertices)
    return Graph(frozenset(vs), frozenset(frozenset(e) for e in edges))


def _cycle(n):
    return _graph([(f"c{i}", f"c{(i + 1) % n}") for i in range(n)])


def _complete(n):
    return _graph(list(itertools.combinations([f"k{i}" for i in range(n)], 2)))


# --- exact treewidth ----------------------------------------------------------


def test_treewidth_of_complete_graphs():
    for n in range(2, 6):
        w, td = exact_treewidth(_complete(n))
        assert w == n - 1
        assert validate_td(td, _complete(n)) == []


def test_treewidth_of_trees_is_one():
    path = _graph([(f"p{i}", f"p{i+1}") for i in range(6)])
    star = _graph([("hub", f"s{i}") for i in range(5)])
    for g in (path, star):
        w, td = exact_treewidth(g)
        assert w == 1
        assert validate_td(td, g) == []


def test_treewidth_of_cycles_is_two():
    for n in (3, 4, 6):
        w, td = exact_treewidth(_cycle(n))
        assert w == 2
        assert validate_td(td, _cycle(n)) == []


def test_treewidth_edge_cases():
    w, td = exact_treewidth(Graph(frozenset(), frozenset()))
    assert w == -1
    assert td.bags[td.root] == frozenset()
    w, td = exact_treewidth(Graph(frozenset({"a"}), frozenset()))
    assert w == 0
    assert validate_td(td, Graph(frozenset({"a"}), frozenset())) == []


def test_treewidth_of_disconnected_graph():
    g = _graph(
        list(itertools.combinations(["a0", "a1", "a2"], 2))
        + list(itertools.combinations(["b0", "b1", "b2"], 2)),
        extra_vertices=["lone"],
    )
    w, td = exact_treewidth(g)
    assert w == 2
    assert validate_td(td, g) == []


def test_treewidth_matches_brute_force_on_random_graphs(rng):
    for _ in range(40):
        g = random_graph(rng, max_vertices=8)
        w, td = exact_treewidth(g)
        assert w == brute_treewidth(g)
        assert validate_td(td, g) == []


def test_treewidth_vertex_cap():
    g = _graph([(f"v{i}", f"v{i+1}") for i in range(25)])
    with pytest.raises(CapExceeded, match="24"):
        exact_treewidth(g)
    w, _ = exact_treewidth(g, cap=26)
    assert w == 1


def test_treewidth_is_deterministic(rng):
    for _ in range(10):
        g = random_graph(rng, max_vertices=7)
        w1, td1 = exact_treewidth(g)
        w2, td2 = exact_treewidth(g)
        assert w1 == w2
        assert serialize_td(td1) == serialize_td(td2)


# --- decomposition plumbing ---------------------------------------------------


def test_serialize_td_format():
    td = TreeDecomposition(
        nodes=(0, 1),
        parent={1: None, 0: 1},
        bags={0: frozenset({"a", "b"}), 1: frozenset({"b"})},
    )
    assert serialize_td(td) == (
        "node 0 parent 1 kind - bag {a,b}\n"
        "node 1 parent none kind - bag {b}\n"
    )


def test_validate_td_catches_breakage():
    g = _graph([("a", "b"), ("b", "c")])
    td = TreeDecomposition(
        nodes=(0, 1),
        parent={0: None, 1: 0},
        bags={0: frozenset({"a", "b"}), 1: frozenset({"c"})},
    )
    assert any("edge" in p for p in validate_td(td, g))
    disconnected = TreeDecomposition(
        nodes=(0, 1, 2),
        parent={0: None, 1: 0, 2: 1},
        bags={0: frozenset({"a", "b"}), 1: frozenset({"b", "c"}), 2: frozenset({"a"})},
    )
    assert any("disconnected" in p for p in validate_td(disconnected, g))


# --- nice form ----------------------------------------------------------------


def test_make_nice_on_random_graphs(rng):
    for _ in range(100):
        g = random_graph(rng, max_vertices=8)
        w, td = exact_treewidth(g)
        nice = make_nice(td)
        assert isinstance(nice, NiceTreeDecomposition)
        assert validate_nice(nice, g) == []
        assert nice.width == w


def test_make_nice_force_empty_root(rng):
    for _ in range(30):
        g = random_graph(rng, max_vertices=7, min_vertices=1)
        w, td = exact_treewidth(g)
        nice = make_nice(td, force_empty_root=True)
        assert nice.bags[nice.root] == frozenset()
        assert validate_nice(nice, g) == []
        assert nice.width == w


def test_make_nice_respects_chosen_root():
    g = _graph([("a", "b"), ("b", "c"), ("c", "d")])
    _, td = exact_treewidth(g)
    for t in td.nodes:
        nice = make_nice(td, root=t)
        assert nice.bags[nice.root] == td.bags[t]
        assert validate_nice(nice, g) == []


def test_make_nice_kinds_partition_the_tree():
    g = _cycle(5)
    w, td = exact_treewidth(g)
    nice = make_nice(td, force_empty_root=True)
    kids = nice.children()
    leaves = [t for t in nice.nodes if not kids[t]]
    assert all(nice.kinds[t] == "leaf" for t in leaves)
    # every vertex is introduced at least once and forgotten exactly once
    forgotten = []
    for t in nice.nodes:
        if nice.kinds[t] == "forget":
            (child,) = kids[t]
            forgotten.extend(nice.bags[child] - nice.bags[t])
    assert sorted(forgotten) == sorted(g.vertices)


# --- quantifier awareness -----------------------------------------------------


def test_single_bag_decomposition_is_quantifier_aware():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0,), parent={0: None}, bags={0: frozenset({"x1", "x2", "z"})}
    )
    ok, violation = is_quantifier_aware(td, p)
    assert ok and violation is None


def test_path_decomposition_rooted_at_one_end_is_not_quantifier_aware():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0, 1),
        parent={0: None, 1: 0},
        bags={0: frozenset({"x1", "z"}), 1: frozenset({"z", "x2"})},
    )
    ok, violation = is_quantifier_aware(td, p)
    assert not ok
    x, y, comp = violation
    assert (x, y) == ("z", "x2")
    assert comp == frozenset({"x1", "x2", "z"})


def test_quantifier_free_decompositions_are_always_aware(rng):
    q = parse_query("query q(x,y,z): E(x,y) & E(y,z) & E(z,x)")
    p = pp_to_pair(q)
    _, td = exact_treewidth(primal_graph(p))
    for t in td.nodes:
        ok, _ = is_quantifier_aware(make_nice(td, root=t), p)
        assert ok


def test_quantifier_awareness_requires_a_valid_decomposition():
    p = star_pair(2)
    td = TreeDecomposition(nodes=(0,), parent={0: None}, bags={0: frozenset({"z"})})
    with pytest.raises(SharpqError, match="primal"):
        is_quantifier_aware(td, p)


# --- quantifier-aware width ---------------------------------------------------


def test_qaw_of_stars_is_number_of_spokes_plus_one():
    for n in range(1, 6):
        p = star_pair(n)
        qaw, nice = compute_qaw(p)
        assert qaw == n + 1
        tw, _ = exact_treewidth(primal_graph(p))
        assert tw == 1  # the primal graph alone is a tree
        assert validate_nice(nice, primal_graph(p)) == []
        ok, _ = is_quantifier_aware(nice, p)
        assert ok
        assert nice.bags[nice.root] == frozenset()


def test_qaw_of_quantifier_free_pair_is_treewidth_plus_one():
    q = parse_query("query q(u,v,w,x): E(u,v) & E(v,w) & E(w,x) & E(x,u)")
    p = pp_to_pair(q)
    qaw, nice = compute_qaw(p)
    assert qaw == 3  # 4-cycle has treewidth 2
    ok, _ = is_quantifier_aware(nice, p)
    assert ok


def test_qaw_of_three_block_pair():
    p = three_block_pair()
    qaw, nice = compute_qaw(p)
    assert qaw == 4
    assert validate_nice(nice, primal_graph(p)) == []
    ok, _ = is_quantifier_aware(nice, p)
    assert ok


def test_qaw_of_sentence_pair():
    # no liberal variables: any decomposition is quantifier-aware, so the
    # value degenerates to treewidth + 1
    q = parse_query("query q(x): E(x,x)")  # placeholder header; pair below is closed
    p = pp_to_pair(q)
    from sharpq.epquery import PpPair

    closed = PpPair(struct=pp_to_pair(
        parse_query("query t(a): exists u . exists v . E(a,u) & E(u,v) & E(v,a)")
    ).struct, liberal=())
    qaw, nice = compute_qaw(closed)
    tw, _ = exact_treewidth(primal_graph(closed))
    assert qaw == tw + 1
    assert nice.bags[nice.root] == frozenset()
    del p


def test_qaw_against_brute_force_on_small_pairs(rng):
    checked = 0
    for _ in range(60):
        p = random_pp_pair(rng, max_vars=5, max_atoms=4)
        if len(p.struct.universe) > 6:
            continue
        qaw, nice = compute_qaw(p)
        assert qaw == brute_qaw(p), serialize_td(nice)
        checked += 1
    assert checked >= 30


def test_qaw_witness_invariants_on_random_pairs(rng):
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=7, max_atoms=6)
        qaw, nice = compute_qaw(p)
        assert validate_nice(nice, primal_graph(p)) == []
        ok, violation = is_quantifier_aware(nice, p)
        assert ok, violation
        assert nice.width + 1 == qaw
        lo, hi = qaw_bounds(p)
        assert lo <= qaw <= hi


def test_qaw_exceeds_primal_treewidth_when_blocks_exist(rng):
    from sharpq.epquery import exists_components

    seen = 0
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=6, max_atoms=5)
        if not exists_components(p):
            continue
        qaw, _ = compute_qaw(p)
        tw, _ = exact_treewidth(primal_graph(p))
        assert qaw >= tw + 1
        seen += 1
    assert seen >= 10


def test_qaw_bounds_of_star():
    assert qaw_bounds(star_pair(3)) == (3, 4)


def test_qaw_is_deterministic(rng):
    for _ in range(10):
        p = random_pp_pair(rng, max_vars=6, max_atoms=5)
        qaw1, nice1 = compute_qaw(p)
        qaw2, nice2 = compute_qaw(p)
        assert qaw1 == qaw2
        assert serialize_td(nice1) == serialize_td(nice2)


# --- the anchor search stops at the block's floor ------------------------------


def _qaw_trying_every_anchor(p, cap=24):
    """qaw, block anchors and witness when every anchor of every block is
    solved, without the memo."""
    g = primal_graph(p)
    s = p.liberal_set
    comps = sorted(exists_components(p), key=lambda c: sorted(c))
    winners = {}
    for comp in comps:
        base = g
        for other in comps:
            if other is not comp:
                base = base.without_vertices(other - s).with_clique(sorted(other & s))
        winners[comp] = min(
            (exact_treewidth(base.with_clique(sorted((comp & s) | {x})), cap)[0], x)
            for x in comp - s
        )[1]
    qaw, nice = _qaw_witness(p, g, comps, winners, lambda graph: exact_treewidth(graph, cap))
    return qaw, winners, nice


def _grid_pair(rows, cols):
    cell = [[f"g{i}_{j}" for j in range(cols)] for i in range(rows)]
    atoms = [
        f"E({cell[i][j]},{cell[i + di][j + dj]})"
        for i in range(rows)
        for j in range(cols)
        for di, dj in ((0, 1), (1, 0))
        if i + di < rows and j + dj < cols
    ]
    lib = [cell[0][0], cell[rows - 1][cols - 1]]
    bound = "".join(f"exists {c} . " for row in cell for c in row if c not in lib)
    return pp_to_pair(parse_query(f"query q({','.join(lib)}): {bound}{' & '.join(atoms)}"))


def _assert_same_as_every_anchor(p):
    qaw, nice = compute_qaw(p)
    ref_qaw, ref_winners, ref_nice = _qaw_trying_every_anchor(p)
    comps = sorted(exists_components(p), key=lambda c: sorted(c))
    winners = _block_anchors(
        primal_graph(p), p.liberal_set, comps, lambda graph: exact_treewidth(graph)
    )
    assert winners == ref_winners
    assert qaw == ref_qaw
    assert serialize_td(nice) == serialize_td(ref_nice)


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (3, 4), (4, 3)])
def test_anchor_stop_rule_matches_every_anchor_on_grids(rows, cols):
    _assert_same_as_every_anchor(_grid_pair(rows, cols))


def _random_graph_pair(rng):
    """A random E-graph on 4-9 elements with 1-3 liberal ones: blocks with
    several interior vertices, so several anchors each."""
    universe = [f"v{i}" for i in range(rng.randint(4, 9))]
    density = rng.uniform(0.2, 0.5)
    edges = {(a, b) for a, b in itertools.combinations(universe, 2) if rng.random() < density}
    struct = make_structure(Signature((("E", 2),)), universe, {"E": edges})
    return PpPair(struct=struct, liberal=tuple(rng.sample(universe, rng.randint(1, 3))))


def test_anchor_stop_rule_matches_every_anchor_on_random_pairs():
    rng = random.Random(31)
    checked = several_anchors = 0
    for i in range(400):
        p = random_pp_pair(rng, max_vars=8, max_atoms=8) if i % 2 else _random_graph_pair(rng)
        comps = exists_components(p)
        if comps:
            _assert_same_as_every_anchor(p)
            checked += 1
            several_anchors += any(len(c - p.liberal_set) > 1 for c in comps)
    for p in (star_pair(3), three_block_pair()):
        _assert_same_as_every_anchor(p)
    assert checked >= 200 and several_anchors >= 100
