"""Tests for exact treewidth, nice decompositions, and quantifier-aware width."""

import itertools
import random
import time

import pytest

from sharpq import decomp, epquery
from sharpq.decomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _adjacency,
    _block_anchors,
    _minor_min_width,
    _quantifier_aware,
    _qaw_witness,
    _reroot,
    compute_qaw,
    exact_treewidth,
    make_nice,
    serialize_td,
    validate_td,
)
from sharpq.epquery import (
    Graph,
    PpPair,
    _exists_components,
    parse_query,
    pp_to_pair,
    primal_graph,
)
from sharpq.compilepipe import pp_to_basic_sharp
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
from tests.helpers import qaw_bounds, validate_nice


def _graph(edges, extra_vertices=()):
    vs = {v for e in edges for v in e} | set(extra_vertices)
    return Graph(frozenset(vs), frozenset(frozenset(e) for e in edges))


def _cycle(n):
    return _graph([(f"c{i}", f"c{(i + 1) % n}") for i in range(n)])


def _complete(n):
    return _graph(list(itertools.combinations([f"k{i}" for i in range(n)], 2)))


def _grid_graph(rows, cols):
    cell = [[f"g{i}_{j}" for j in range(cols)] for i in range(rows)]
    edges = [
        (cell[i][j], cell[i + di][j + dj])
        for i in range(rows)
        for j in range(cols)
        for di, dj in ((0, 1), (1, 0))
        if i + di < rows and j + dj < cols
    ]
    return _graph(edges, extra_vertices=[c for row in cell for c in row])


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


def test_treewidth_vertex_cap(monkeypatch):
    # the cap counts the simplicial kernel: the 5x5 grid has no simplicial
    # vertex, so all 25 vertices count, and it is refused before any search
    grid = _grid_graph(5, 5)
    searched = []

    def spy(verts, adj):
        searched.append(len(verts))
        return 5, None

    monkeypatch.setattr(decomp, "_exact_treewidth_connected", spy)
    with pytest.raises(CapExceeded, match="24"):
        exact_treewidth(grid)
    assert searched == []
    assert exact_treewidth(grid, cap=25) == (5, None)
    assert searched == [25]
    monkeypatch.undo()
    # a path's kernel is empty: path-25 is no longer refused
    path = _graph([(f"v{i}", f"v{i+1}") for i in range(25)])
    w, td = exact_treewidth(path)
    assert w == 1
    assert validate_td(td, path) == []


def test_treewidth_is_deterministic(rng):
    for _ in range(10):
        g = random_graph(rng, max_vertices=7)
        w1, td1 = exact_treewidth(g)
        w2, td2 = exact_treewidth(g)
        assert w1 == w2
        assert serialize_td(td1) == serialize_td(td2)


# --- the minor-min-width bound ------------------------------------------------


def _mmw(g):
    verts, adj = _adjacency(g)
    return _minor_min_width(adj, len(verts))


def _degeneracy(adj, n):
    """Lower bound on treewidth: max over the removal process of min degree."""
    removed = 0
    best = 0
    for _ in range(n):
        live = [v for v in range(n) if not (1 << v) & removed]
        v = min(live, key=lambda u: ((adj[u] & ~removed).bit_count(), u))
        best = max(best, (adj[v] & ~removed).bit_count())
        removed |= 1 << v
    return best


def _degeneracy_of(g):
    verts, adj = _adjacency(g)
    return _degeneracy(adj, len(verts))


def test_minor_min_width_is_a_lower_bound(rng):
    for _ in range(300):
        g = random_graph(rng, max_vertices=8, density=rng.uniform(0.2, 0.8), min_vertices=1)
        assert _mmw(g) <= brute_treewidth(g)


def test_minor_min_width_is_never_below_the_degeneracy():
    # the search starts at MMD+ alone: until MMD+ contracts a vertex of a
    # subgraph H of minimum degree d, every branch set holds at most one
    # vertex of H, so that vertex still has degree at least d
    rng = random.Random(2011)
    for _ in range(2000):
        g = random_graph(rng, max_vertices=12, density=rng.uniform(0.1, 0.8), min_vertices=1)
        assert _mmw(g) >= _degeneracy_of(g)


def test_minor_min_width_is_exact_on_complete_graphs_cycles_and_grids():
    for n in range(2, 9):
        assert _mmw(_complete(n)) == n - 1
    for n in range(3, 11):
        assert _mmw(_cycle(n)) == 2
    # exact while the shorter side is at most 4; on the 5x5 grid it is 4,
    # one below the treewidth
    for rows in range(1, 5):
        for cols in range(2, 8):
            assert _mmw(_grid_graph(rows, cols)) == min(rows, cols)
            assert _mmw(_grid_graph(cols, rows)) == min(rows, cols)


def _degeneracy_search_connected(g):
    """The connected-graph search started at the degeneracy bound alone: the
    reference for the widths and witnesses of the raised bound."""
    verts, adj = _adjacency(g)
    n = len(verts)
    full = (1 << n) - 1

    ub_width, ub_order = decomp._greedy_min_fill(adj, n)
    lb = _degeneracy(adj, n)
    best_width, best_order = ub_width, ub_order

    if lb < best_width:
        memo = {}
        order_buf = []

        def dfs(elim, cur_width):
            nonlocal best_width, best_order
            if cur_width >= best_width:
                return
            if elim == full:
                best_width = cur_width
                best_order = list(order_buf)
                return
            prev = memo.get(elim)
            if prev is not None and prev <= cur_width:
                return
            memo[elim] = cur_width
            live = [v for v in range(n) if not (1 << v) & elim]
            nbs = {v: decomp._fill_neighbors(adj, v, elim) for v in live}
            for v in live:
                nb = nbs[v]
                if all(nb & ~nbs[u] & ~(1 << u) == 0 for u in decomp._vertices(nb)):
                    order_buf.append(v)
                    dfs(elim | (1 << v), max(cur_width, nb.bit_count()))
                    order_buf.pop()
                    return
            if len(live) - 1 <= cur_width:
                best_width = cur_width
                best_order = list(order_buf) + live
                return
            for v in sorted(live, key=lambda u: (nbs[u].bit_count(), u)):
                order_buf.append(v)
                dfs(elim | (1 << v), max(cur_width, nbs[v].bit_count()))
                order_buf.pop()

        dfs(0, lb)

    return best_width, decomp._td_from_order(adj, n, best_order, verts)


def _degeneracy_search(g):
    width, combined = -1, None
    for comp in g.connected_components():
        w, td = _degeneracy_search_connected(g.induced(comp))
        width = max(width, w)
        combined = td if combined is None else decomp._graft(combined, td, combined.root)
    return width, combined


def test_raised_lower_bound_keeps_widths_and_witnesses():
    rng = random.Random(4711)
    raised = 0
    for _ in range(2000):
        g = random_graph(rng, max_vertices=12, density=rng.uniform(0.15, 0.7), min_vertices=1)
        w, td = exact_treewidth(g)
        ref_w, ref_td = _degeneracy_search(g)
        assert w == ref_w
        assert serialize_td(td) == serialize_td(ref_td)
        raised += _mmw(g) > _degeneracy_of(g)
    assert raised >= 200


# --- the vertex cap counts the simplicial kernel -----------------------------


def _path_pair(k):
    xs = [f"v{i}" for i in range(k + 1)]
    prefix = "".join(f"exists {x} . " for x in xs[1:])
    body = " & ".join(f"E({a},{b})" for a, b in zip(xs, xs[1:]))
    return pp_to_pair(parse_query(f"query path(v0): {prefix}{body}"))


def test_qaw_of_a_100_edge_path_under_the_default_cap():
    p = _path_pair(100)
    start = time.perf_counter()
    qaw, nice = compute_qaw(p)
    assert time.perf_counter() - start < 1.0
    assert qaw == 2
    assert validate_nice(nice, primal_graph(p)) == []


def test_simplicial_kernel_of_chordal_and_irreducible_graphs():
    def kernel(g):
        verts, adj = _adjacency(g)
        return {verts[i] for i in decomp._vertices(decomp._simplicial_kernel(adj, len(verts)))}

    assert kernel(_complete(6)) == set()
    assert kernel(_graph([(f"p{i}", f"p{i+1}") for i in range(30)])) == set()
    assert kernel(_cycle(5)) == _cycle(5).vertices
    assert kernel(_grid_graph(3, 3)) == _grid_graph(3, 3).vertices
    # trees hanging off a cycle are deleted; the cycle is left
    trees = _graph([("c0", "t0"), ("t0", "t1"), ("t0", "t2"), ("c2", "u0")])
    both = Graph(_cycle(4).vertices | trees.vertices, _cycle(4).edges | trees.edges)
    assert kernel(both) == _cycle(4).vertices


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


def _td(parent, bags):
    return TreeDecomposition(
        nodes=tuple(parent), parent=parent, bags={t: frozenset(b) for t, b in bags.items()}
    )


@pytest.mark.parametrize(
    "td, problems",
    [
        (TreeDecomposition(nodes=(0, 0), parent={0: None}, bags={0: frozenset("abc")}),
         ["duplicate node ids"]),
        (_td({0: None, 1: None}, {0: "abc", 1: "a"}), ["expected one root, found 2"]),
        (_td({0: 1, 1: 0}, {0: "abc", 1: "a"}), ["expected one root, found 0"]),
        (_td({0: None, 1: 7}, {0: "abc", 1: "a"}),
         ["node 1 has parent 7 outside the decomposition"]),
        # a cycle below the root is never reached from it
        (_td({0: None, 1: 2, 2: 1}, {0: "abc", 1: "a", 2: "a"}),
         ["nodes unreachable from the root", "occurrences of a are disconnected"]),
        (_td({0: None, 1: 0}, {0: "ab", 1: "b"}),
         ["vertex c is in no bag", "edge ['b', 'c'] is in no bag"]),
        (_td({0: None, 1: 0}, {0: "ab", 1: "c"}), ["edge ['b', 'c'] is in no bag"]),
        (_td({0: None, 1: 0, 2: 1}, {0: "ab", 1: "bc", 2: "a"}),
         ["occurrences of a are disconnected"]),
        (TreeDecomposition(nodes=(0,), parent={}, bags={0: frozenset("abc")}),
         ["node 0 is missing from parent"]),
        (TreeDecomposition(nodes=(0,), parent={0: None}, bags={}),
         ["node 0 is missing from bags"]),
    ],
    ids=["duplicate-ids", "two-roots", "no-root", "parent-outside", "unreachable",
         "uncovered", "edge", "disconnected", "no-parent-entry", "no-bag"],
)
def test_validate_td_catches_breakage(td, problems):
    assert validate_td(td, _graph([("a", "b"), ("b", "c")])) == problems


def test_a_parent_outside_the_decomposition_is_refused_as_a_decomposition():
    p = pp_to_pair(parse_query("query q(x): exists y . E(x,y)"))
    td = _td({0: None, 1: 7}, {0: "", 1: "xy"})
    message = "node 1 has parent 7 outside the decomposition"
    g = primal_graph(p)
    with pytest.raises(SharpqError, match=message):
        _quantifier_aware(td, g, p.liberal_set, _exists_components(g, p.liberal_set))
    with pytest.raises(SharpqError, match=message):
        pp_to_basic_sharp(p, td)


# --- nice form ----------------------------------------------------------------


def test_make_nice_on_random_graphs(rng):
    for _ in range(100):
        g = random_graph(rng, max_vertices=8)
        w, td = exact_treewidth(g)
        nice = make_nice(td, frozenset())
        assert isinstance(nice, NiceTreeDecomposition)
        assert validate_nice(nice, g) == []
        assert nice.width == w


def test_make_nice_empties_the_root_and_forgets_quantified_variables_first(rng):
    for _ in range(30):
        g = random_graph(rng, max_vertices=7, min_vertices=1)
        w, td = exact_treewidth(g)
        quantified = frozenset(v for v in g.vertices if rng.random() < 0.5)
        nice = make_nice(td, quantified)
        assert nice.bags[nice.root] == frozenset()
        assert validate_nice(nice, g) == []
        assert nice.width == w
    # one bag: its forget chain up to the empty root, bottom to top, forgets
    # the quantified variables first, each part in name order
    td = _td({0: None}, {0: "dbca"})
    for quantified in ("", "c", "bd", "abcd"):
        nice = make_nice(td, frozenset(quantified))
        kids = nice.children()
        forgotten, t = [], nice.root
        while nice.kinds[t] == "forget":
            (child,) = kids[t]
            forgotten += nice.bags[child] - nice.bags[t]
            t = child
        assert forgotten[::-1] == [v for v in "abcd" if v in quantified] + [
            v for v in "abcd" if v not in quantified
        ]


def test_make_nice_kinds_partition_the_tree():
    g = _cycle(5)
    w, td = exact_treewidth(g)
    nice = make_nice(td, frozenset())
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
    g = primal_graph(p)
    ok, violation = _quantifier_aware(td, g, p.liberal_set, _exists_components(g, p.liberal_set))
    assert ok and violation is None


def test_path_decomposition_rooted_at_one_end_is_not_quantifier_aware():
    p = star_pair(2)
    td = TreeDecomposition(
        nodes=(0, 1),
        parent={0: None, 1: 0},
        bags={0: frozenset({"x1", "z"}), 1: frozenset({"z", "x2"})},
    )
    g = primal_graph(p)
    ok, violation = _quantifier_aware(td, g, p.liberal_set, _exists_components(g, p.liberal_set))
    assert not ok
    x, y, comp = violation
    assert (x, y) == ("z", "x2")
    assert comp == frozenset({"x1", "x2", "z"})


def test_quantifier_free_decompositions_are_always_aware(rng):
    q = parse_query("query q(x,y,z): E(x,y) & E(y,z) & E(z,x)")
    p = pp_to_pair(q)
    g = primal_graph(p)
    assert _exists_components(g, p.liberal_set) == []
    _, td = exact_treewidth(g)
    for t in td.nodes:
        ok, _ = _quantifier_aware(make_nice(_reroot(td, t), frozenset()), g, p.liberal_set, [])
        assert ok


def test_quantifier_awareness_requires_a_valid_decomposition():
    p = star_pair(2)
    td = TreeDecomposition(nodes=(0,), parent={0: None}, bags={0: frozenset({"z"})})
    g = primal_graph(p)
    with pytest.raises(SharpqError, match="primal"):
        _quantifier_aware(td, g, p.liberal_set, _exists_components(g, p.liberal_set))


# --- quantifier-aware width ---------------------------------------------------


def test_qaw_of_stars_is_number_of_spokes_plus_one():
    for n in range(1, 6):
        p = star_pair(n)
        qaw, nice = compute_qaw(p)
        assert qaw == n + 1
        g = primal_graph(p)
        tw, _ = exact_treewidth(g)
        assert tw == 1  # the primal graph alone is a tree
        assert validate_nice(nice, g) == []
        ok, _ = _quantifier_aware(nice, g, p.liberal_set, _exists_components(g, p.liberal_set))
        assert ok
        assert nice.bags[nice.root] == frozenset()


def test_qaw_builds_the_primal_graph_once(monkeypatch):
    # the blocks, the contract graph and the awareness check of the witness
    # are all derived from the one primal graph compute_qaw builds
    built = []
    build = primal_graph

    def counted(p):
        built.append(p)
        return build(p)

    monkeypatch.setattr(decomp, "primal_graph", counted)
    monkeypatch.setattr(epquery, "primal_graph", counted)
    assert compute_qaw(star_pair(3))[0] == 4
    assert len(built) == 1


def test_qaw_of_quantifier_free_pair_is_treewidth_plus_one():
    q = parse_query("query q(u,v,w,x): E(u,v) & E(v,w) & E(w,x) & E(x,u)")
    p = pp_to_pair(q)
    qaw, nice = compute_qaw(p)
    assert qaw == 3  # 4-cycle has treewidth 2
    g = primal_graph(p)
    ok, _ = _quantifier_aware(nice, g, p.liberal_set, _exists_components(g, p.liberal_set))
    assert ok


def test_qaw_of_three_block_pair():
    p = three_block_pair()
    qaw, nice = compute_qaw(p)
    assert qaw == 4
    g = primal_graph(p)
    assert validate_nice(nice, g) == []
    ok, _ = _quantifier_aware(nice, g, p.liberal_set, _exists_components(g, p.liberal_set))
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
        g = primal_graph(p)
        assert validate_nice(nice, g) == []
        comps = _exists_components(g, p.liberal_set)
        ok, violation = _quantifier_aware(nice, g, p.liberal_set, comps)
        assert ok, violation
        assert nice.width + 1 == qaw
        lo, hi = qaw_bounds(p)
        assert lo <= qaw <= hi


def test_qaw_exceeds_primal_treewidth_when_blocks_exist(rng):
    seen = 0
    for _ in range(40):
        p = random_pp_pair(rng, max_vars=6, max_atoms=5)
        if not _exists_components(primal_graph(p), p.liberal_set):
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
    comps = sorted(_exists_components(primal_graph(p), p.liberal_set), key=lambda c: sorted(c))
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
    comps = sorted(_exists_components(primal_graph(p), p.liberal_set), key=lambda c: sorted(c))
    winners = _block_anchors(
        primal_graph(p), p.liberal_set, comps, lambda graph: exact_treewidth(graph)
    )
    assert winners == ref_winners
    assert qaw == ref_qaw
    assert serialize_td(nice) == serialize_td(ref_nice)


@pytest.mark.parametrize(
    "rows,cols",
    [(2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (3, 4), (4, 3), (3, 5), (5, 3), (4, 4)],
)
def test_anchor_stop_rule_matches_every_anchor_on_grids(rows, cols):
    _assert_same_as_every_anchor(_grid_pair(rows, cols))


def test_anchor_loop_solves_one_anchor_graph_on_the_3x5_grid(monkeypatch):
    p = _grid_pair(3, 5)
    g = primal_graph(p)
    (comp,) = _exists_components(primal_graph(p), p.liberal_set)
    boundary = sorted(comp & p.liberal_set)
    solved = []

    def treewidth(graph):
        solved.append(graph)
        return exact_treewidth(graph)

    winners = _block_anchors(g, p.liberal_set, [comp], treewidth)
    first = min(comp - p.liberal_set)
    assert winners == {comp: first}
    # the floor graph, then the first anchor's graph, which reaches it
    assert solved == [g.with_clique(boundary), g.with_clique(sorted({*boundary, first}))]

    calls = []
    solve = decomp.exact_treewidth
    monkeypatch.setattr(decomp, "exact_treewidth", lambda graph, cap: calls.append(1) or solve(graph, cap))
    assert compute_qaw(p)[0] == 5
    # floor, first anchor (also the augmented primal and region graph), contract graph
    assert len(calls) == 3


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
        comps = _exists_components(primal_graph(p), p.liberal_set)
        if comps:
            _assert_same_as_every_anchor(p)
            checked += 1
            several_anchors += any(len(c - p.liberal_set) > 1 for c in comps)
    for p in (star_pair(3), three_block_pair()):
        _assert_same_as_every_anchor(p)
    assert checked >= 200 and several_anchors >= 100
