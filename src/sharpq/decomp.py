"""Tree decompositions: exact treewidth, nice form, quantifier awareness, qaw.

The quantifier-aware width (qaw) of a pair is the least width+1 over tree
decompositions of its primal graph in which, for every block of quantified
vertices, the liberal neighbours of the block stay alive above the block's
interior. It is computed exactly by augmenting the primal graph per block and
taking exact treewidths of the augmented graphs.
"""

from __future__ import annotations

import itertools
from functools import reduce

from .errors import CapExceeded, InternalInvariant, SharpqError
from .epquery import _contract_graph, _exists_components, primal_graph
from .relstore import Record, _set

# ---------------------------------------------------------------------------
# Decomposition types
# ---------------------------------------------------------------------------


class TreeDecomposition(Record):
    """Rooted tree of bags; exactly one node has parent None."""

    __slots__ = _fields = ("nodes", "parent", "bags")

    def __init__(self, nodes, parent, bags):
        _set(self, "nodes", nodes)
        _set(self, "parent", parent)
        _set(self, "bags", bags)

    @property
    def root(self):
        roots = [t for t in self.nodes if self.parent[t] is None]
        if len(roots) != 1:
            raise SharpqError(f"decomposition must have exactly one root, got {len(roots)}")
        return roots[0]

    @property
    def width(self):
        return max((len(self.bags[t]) for t in self.nodes), default=0) - 1

    def children(self):
        out = {t: [] for t in self.nodes}
        for t in self.nodes:
            p = self.parent[t]
            if p is not None:
                out[p].append(t)
        for t in out:
            out[t].sort()
        return out


class NiceTreeDecomposition(TreeDecomposition):
    """Tree decomposition whose nodes are leaf/introduce/forget/join."""

    __slots__ = ("kinds",)
    _fields = (*TreeDecomposition._fields, "kinds")

    def __init__(self, nodes, parent, bags, kinds):
        super().__init__(nodes, parent, bags)
        _set(self, "kinds", kinds)


def _walk(td):
    """(child lists, BFS order from the root, topmost node of each variable,
    depth of each node) of td, from one walk. Parents come before children
    in BFS order, so a variable's first node there is its least deep; in a
    valid decomposition that node is unique."""
    kids = td.children()
    order, top, depth = [td.root], {}, {td.root: 0}
    for t in order:  # grows as it is read
        order.extend(kids[t])
        for c in kids[t]:
            depth[c] = depth[t] + 1
        for v in td.bags[t]:
            top.setdefault(v, t)
    return kids, order, top, depth


def validate_td(td, g):
    """List of violated decomposition invariants (empty iff valid for g)."""
    seen = set(td.nodes)
    if len(seen) != len(td.nodes):
        return ["duplicate node ids"]
    missing = [
        f"node {t} is missing from {name}"
        for name, table in (("parent", td.parent), ("bags", td.bags))
        for t in td.nodes if t not in table
    ]
    if missing:
        return missing
    roots = [t for t in td.nodes if td.parent.get(t) is None]
    if len(roots) != 1:
        return [f"expected one root, found {len(roots)}"]
    stray = next((t for t in td.nodes if t not in roots and td.parent[t] not in seen), None)
    if stray is not None:
        return [f"node {stray} has parent {td.parent[stray]!r} outside the decomposition"]
    # each node has one parent, so a cycle shows as nodes the root never reaches
    problems = []
    kids, reached, _, _ = _walk(td)
    if len(reached) != len(seen):
        problems.append("nodes unreachable from the root")
    occurrences = {}
    for t in td.nodes:
        for v in td.bags[t]:
            occurrences.setdefault(v, set()).add(t)
    for v in sorted(g.vertices):
        if v not in occurrences:
            problems.append(f"vertex {v} is in no bag")
    for e in sorted(g.edges, key=sorted):
        if not any(e <= td.bags[t] for t in td.nodes):
            problems.append(f"edge {sorted(e)} is in no bag")
    # connectivity of each vertex's occurrence set
    for v, occ in sorted(occurrences.items()):
        stack = [min(occ)]
        comp = set()
        while stack:
            t = stack.pop()
            if t in comp:
                continue
            comp.add(t)
            for u in kids[t]:
                if u in occ:
                    stack.append(u)
            p = td.parent[t]
            if p is not None and p in occ:
                stack.append(p)
        if comp != occ:
            problems.append(f"occurrences of {v} are disconnected")
    return problems


def serialize_td(td):
    """One line per node: `node <id> parent <id|none> kind <k|-> bag {..}`."""
    kinds = getattr(td, "kinds", {})
    lines = []
    for t in sorted(td.nodes):
        p = td.parent[t]
        k = kinds.get(t, "-")
        bag = ",".join(sorted(td.bags[t]))
        lines.append(f"node {t} parent {'none' if p is None else p} kind {k} bag {{{bag}}}")
    return "\n".join(lines) + "\n"


def _reroot(td, new_root):
    """Same decomposition rooted at new_root (parent links flipped on the path)."""
    parent = dict(td.parent)
    path = [new_root]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    for child, par in zip(path, path[1:]):
        parent[par] = child
    parent[new_root] = None
    return TreeDecomposition(nodes=td.nodes, parent=parent, bags=dict(td.bags))


def _relabel(td, start):
    """Copy of td with node ids start, start+1, ... (sorted-id order)."""
    mapping = {t: start + i for i, t in enumerate(sorted(td.nodes))}
    return TreeDecomposition(
        nodes=tuple(mapping[t] for t in sorted(td.nodes)),
        parent={mapping[t]: (None if td.parent[t] is None else mapping[td.parent[t]]) for t in td.nodes},
        bags={mapping[t]: td.bags[t] for t in td.nodes},
    )


def _graft(host, guest, at_node):
    """Attach guest (rooted) below host's node at_node; ids are made disjoint."""
    start = max(host.nodes) + 1
    guest = _relabel(guest, start)
    parent = dict(host.parent)
    parent.update(guest.parent)
    parent[guest.root] = at_node
    bags = dict(host.bags)
    bags.update(guest.bags)
    return TreeDecomposition(nodes=host.nodes + guest.nodes, parent=parent, bags=bags)


# ---------------------------------------------------------------------------
# Exact treewidth (branch-and-bound over elimination orders)
# ---------------------------------------------------------------------------


def _eliminate(nbs, v):
    """Eliminate v from the elimination graph nbs (vertex -> neighbour
    bitmask), in place: v goes and its neighbours become a clique, so each
    live vertex's neighbours are those it reaches through eliminated ones.
    Keys keep their order. Returns v's neighbourhood."""
    nb = nbs.pop(v)
    for u in _vertices(nb):
        nbs[u] = (nbs[u] | nb) & ~(1 << u | 1 << v)
    return nb


def _greedy_min_fill(adj, n):
    """Upper bound: eliminate the vertex adding fewest fill edges. Eliminating
    v joins its neighbours to each other, so only their neighbourhoods change,
    and only fill counts within distance two of v are recomputed."""
    nbs = dict(enumerate(adj))

    def score(v):
        fill = sum((nbs[v] & ~nbs[u] & ~(1 << u)).bit_count() for u in _vertices(nbs[v]))
        return fill // 2, nbs[v].bit_count(), v

    scores, stale = {}, (1 << n) - 1
    order, width = [], 0
    while nbs:
        for u in _vertices(stale):
            scores[u] = score(u)
        best = min(scores.values())[2]
        del scores[best]
        joined = _eliminate(nbs, best)
        width = max(width, joined.bit_count())
        order.append(best)
        stale = joined
        for u in _vertices(joined):
            stale |= nbs[u]
    return width, order


def _minor_min_width(adj, n):
    """Lower bound on treewidth (MMD+ with the min-d rule, Bodlaender & Koster,
    "Treewidth computations II. Lower bounds", 2011): max over the process of
    the min degree, where each step contracts a vertex of min degree into its
    neighbour of min degree. Every graph of the process is a minor of the
    input, and treewidth is at least the min degree of every minor."""
    adj = list(adj)
    live = (1 << n) - 1
    best = 0
    while live:
        v = min(_vertices(live), key=lambda u: (adj[u].bit_count(), u))
        nb = adj[v]
        best = max(best, nb.bit_count())
        live &= ~(1 << v)
        if not nb:
            continue
        u = min(_vertices(nb), key=lambda w: (adj[w].bit_count(), w))
        for w in _vertices(nb):
            adj[w] &= ~(1 << v)
        adj[u] |= nb & ~(1 << u)
        for w in _vertices(adj[u]):
            adj[w] |= 1 << u
    return best


def _simplicial_kernel(adj, n):
    """Bitmask of the vertices left after simplicial vertices (whose
    neighbourhood is a clique) are deleted until none is left. Deleting one
    adds no fill, so tw(G) = max(deg v, tw(G - v)); deleting a vertex keeps
    every other simplicial vertex simplicial, so the kernel is unique."""
    nbs = dict(enumerate(adj))
    todo = list(range(n))
    while todo:
        v = todo.pop()
        if v in nbs and _is_clique(nbs[v], nbs):
            todo.extend(_vertices(_eliminate(nbs, v)))
    return sum(1 << v for v in nbs)


def _adjacency(g):
    """Sorted vertices of g and its adjacency bitmasks over their indices."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for e in g.edges:
        a, b = sorted(e)
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    return verts, adj


def exact_treewidth(g, cap=24, floor=-1):
    """Exact treewidth and a witnessing decomposition.

    Solved per connected component (treewidth is the max over components;
    component decompositions are chained into one tree). Each component runs a
    branch-and-bound over elimination orders with memoization on the
    eliminated set (the filled graph depends only on the set), a greedy
    min-fill upper bound, the minor-min-width lower bound MMD+ (never below
    the degeneracy; no search runs when it meets the upper bound), and the
    simplicial-vertex rule. Each search node carries its elimination graph
    (live vertex -> neighbours, fill edges included) and hands a child a
    copy with one more vertex eliminated (`_eliminate`); a child no
    narrower than the best order or than the memo's width for its
    eliminated set is never entered. Deterministic.

    `cap` bounds the vertices left once simplicial vertices are deleted
    until none is left (the simplicial kernel, computed in polynomial time),
    and is checked before any search: trees and other chordal graphs have an
    empty kernel and are never refused, while graphs with no simplicial
    vertex, such as grids and cycles, count every vertex.

    `floor` is a known lower bound on the treewidth of g, such as that of a
    subgraph. On a connected g whose greedy bound it reaches, no search
    runs: the greedy order is optimal, and the search keeps an order only
    when it is strictly narrower, so it would return the greedy one too.
    """
    verts, adj = _adjacency(g)
    if len(verts) > cap:
        kernel = _simplicial_kernel(adj, len(verts)).bit_count()
        if kernel > cap:
            raise CapExceeded(
                f"exact treewidth limited to {cap} vertices once simplicial vertices "
                f"are removed, got {kernel}; no heuristic mode exists"
            )
    if not g.vertices:
        return -1, TreeDecomposition(nodes=(0,), parent={0: None}, bags={0: frozenset()})
    width = -1
    combined = None
    comps = g.connected_components()
    floor = floor if len(comps) == 1 else -1  # a floor bounds the widest component only
    for comp in comps:
        w, td = _exact_treewidth_connected(*_adjacency(g.induced(comp)), floor)
        width = max(width, w)
        combined = td if combined is None else _graft(combined, td, combined.root)
    return width, combined


def _exact_treewidth_connected(verts, adj, floor):
    n = len(verts)
    full = (1 << n) - 1

    ub_width, ub_order = _greedy_min_fill(adj, n)
    best_width, best_order = ub_width, ub_order
    lb = _minor_min_width(adj, n) if floor < ub_width else ub_width

    if lb < best_width:
        memo = {}
        order_buf = []

        def dfs(elim, cur_width, nbs):
            # called only on a node narrower than the best order and than
            # the memo's width for its eliminated set
            nonlocal best_width, best_order
            if elim == full:
                best_width = cur_width
                best_order = list(order_buf)
                return
            memo[elim] = cur_width
            # a simplicial vertex may always be eliminated first
            for v, nb in nbs.items():
                if _is_clique(nb, nbs):
                    children = [v]
                    break
            else:
                if len(nbs) - 1 <= cur_width:
                    # any completion keeps the width; take the deterministic one
                    best_width = cur_width
                    best_order = order_buf + list(nbs)
                    return
                children = sorted(nbs, key=lambda u: (nbs[u].bit_count(), u))
            for v in children:
                width = max(cur_width, nbs[v].bit_count())
                if width >= best_width:
                    break  # so is every later child
                child = elim | 1 << v
                if memo.get(child, best_width) <= width:
                    continue
                child_nbs = dict(nbs)
                _eliminate(child_nbs, v)
                order_buf.append(v)
                dfs(child, width, child_nbs)
                order_buf.pop()

        dfs(0, lb, dict(enumerate(adj)))

    td = _td_from_order(adj, n, best_order, verts)
    return best_width, td


def _vertices(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask &= mask - 1


def _is_clique(mask, adj):
    """Whether the vertices of mask are pairwise adjacent under adj (a
    symmetric relation, so each vertex is checked against the later ones)."""
    while mask:
        b = mask & -mask
        mask ^= b
        if mask & ~adj[b.bit_length() - 1]:
            return False
    return True


def _td_from_order(adj, n, order, verts):
    """Standard decomposition from an elimination order of a connected graph:
    one node per vertex, bag = vertex + its live fill-neighbourhood at
    elimination time, parent = the node of its first-eliminated live
    neighbour (every vertex but the last has one)."""
    pos = {v: i for i, v in enumerate(order)}
    nbs = dict(enumerate(adj))
    bag_mask = {v: _eliminate(nbs, v) | 1 << v for v in order}
    parent = {}
    for v in order:
        later = [u for u in _vertices(bag_mask[v] & ~(1 << v)) if pos[u] > pos[v]]
        parent[pos[v]] = pos[min(later, key=lambda u: pos[u])] if later else None
    bags = {
        pos[v]: frozenset(verts[u] for u in _vertices(bag_mask[v]))
        for v in order
    }
    return TreeDecomposition(nodes=tuple(range(n)), parent=parent, bags=bags)


# ---------------------------------------------------------------------------
# Nice form
# ---------------------------------------------------------------------------


def make_nice(td, quantified):
    """Equivalent nice decomposition (same width, same graph coverage) whose
    root bag is empty. Forget chains forget the `quantified` variables first,
    each part in name order."""

    def key(v):
        return 0 if v in quantified else 1, v

    kids = td.children()
    counter = itertools.count()
    nodes, parent, bags, kinds = [], {}, {}, {}

    def emit(kind, bag, children_ids):
        t = next(counter)
        nodes.append(t)
        bags[t] = frozenset(bag)
        kinds[t] = kind
        parent[t] = None
        for c in children_ids:
            parent[c] = t
        return t

    def chain_to(top_id, cur_bag, target_bag):
        for v in sorted(cur_bag - target_bag, key=key):
            cur_bag = cur_bag - {v}
            top_id = emit("forget", cur_bag, [top_id])
        for v in sorted(target_bag - cur_bag):
            cur_bag = cur_bag | {v}
            top_id = emit("introduce", cur_bag, [top_id])
        return top_id

    def finish(t, built):
        target = td.bags[t]
        if not built:
            if not target:
                return emit("leaf", frozenset(), [])
            pivot = min(target)
            top = emit("leaf", {pivot}, [])
            return chain_to(top, frozenset({pivot}), target)
        return reduce(lambda node, other: emit("join", target, [node, other]), built)

    # pre-order with the kids visited right to left; reversed, it is the
    # left-to-right post-order a recursive walk would emit in
    order, stack = [], [td.root]
    while stack:
        order.append(stack.pop())
        stack.extend(kids[order[-1]])
    chained = {}  # node -> top of its subtree, chained to its parent's bag
    for t in reversed(order):
        top = finish(t, [chained[c] for c in kids[t]])
        if t != td.root:
            chained[t] = chain_to(top, td.bags[t], td.bags[td.parent[t]])
    chain_to(top, td.bags[td.root], frozenset())
    return NiceTreeDecomposition(
        nodes=tuple(nodes), parent=parent, bags=bags, kinds=kinds
    )


# ---------------------------------------------------------------------------
# Quantifier awareness
# ---------------------------------------------------------------------------


def _quantifier_aware(td, g, lib, comps):
    """Is td quantifier-aware for a pair with primal graph g, liberal set lib
    and exists-components (blocks) comps? In every block C, every liberal
    y ∈ C must have top(y) on the path from top(x) to the root for every
    quantified x ∈ C. Returns (True, None) or (False, (x, y, C)) for the first
    violation, the blocks checked in order; InternalInvariant when td, always
    the program's own witness, is no decomposition of g."""
    problems = validate_td(td, g)
    if problems:
        raise InternalInvariant(f"not a decomposition of the pair's primal graph: {problems[0]}")
    # validate_td's walk found every vertex's nodes connected, so the topmost
    # one is the only one whose parent lacks the vertex: no second walk
    parent, bags = td.parent, td.bags
    top = {v: t for t in td.nodes for v in bags[t] if parent[t] is None or v not in bags[parent[t]]}
    for comp in comps:
        for x in sorted(comp - lib):
            ancestors = set()
            t = top[x]
            while t is not None:
                ancestors.add(t)
                t = td.parent[t]
            for y in sorted(comp & lib):
                if top[y] not in ancestors:
                    return False, (x, y, comp)
    return True, None


# ---------------------------------------------------------------------------
# Quantifier-aware width
# ---------------------------------------------------------------------------


def compute_qaw(p, cap=24):
    """Minimal quantifier-aware width and a witnessing nice decomposition.

    Per block C of quantified vertices: every other block is contracted
    (liberal part turned into a clique, interior deleted) and each choice of
    anchor x ∈ C's interior is tried, connecting x to C's liberal part and
    turning that part into a clique. Winning anchors are chosen independently
    per block (smallest augmented treewidth, then least variable); the primal
    graph augmented with all winning cliques has treewidth qaw−1. The witness
    glues exact decompositions of each block's augmented subgraph below an
    exact decomposition of the contract graph.

    Each distinct graph is solved once per call: treewidths are memoised by
    (vertices, edges), so the augmented primal graph and the region graph of
    a single block come from the memo. The anchor search stops at the first
    anchor that reaches the block's floor, the treewidth of the base graph
    with the block's liberal part made a clique (see `_block_anchors`); on
    the grids with two liberal corners that is the first anchor. The floor
    is passed into each anchor's treewidth, whose search it can skip. The
    anchors, the width and the witness are those of trying every anchor.
    `cap` bounds the simplicial kernel of each graph solved (see
    `exact_treewidth`) and is checked before its search starts.
    """
    memo = {}

    def treewidth(graph, floor=-1):
        key = (graph.vertices, graph.edges)
        if key not in memo:
            memo[key] = exact_treewidth(graph, cap, floor)
        return memo[key]

    g = primal_graph(p)
    comps = sorted(_exists_components(g, p.liberal_set), key=sorted)
    winners = _block_anchors(g, p.liberal_set, comps, treewidth)
    return _qaw_witness(p, g, comps, winners, treewidth)


def _block_anchors(g, s, comps, treewidth):
    """The winning anchor of each block: least augmented treewidth, then
    least variable.

    Every anchor's augmented graph is the block's base graph (the primal
    graph with every other block contracted) plus a clique on the block's
    liberal part and the anchor. It contains the base graph plus the clique
    on the liberal part alone, and treewidth is monotone under subgraphs, so
    the treewidth of that graph is a floor for every anchor. Anchors run in
    sorted order and the first one that reaches the floor wins, with no later
    anchor tried.
    """
    winners = {}
    for comp in comps:
        boundary = comp & s
        base = g
        for other in comps:
            if other is comp:
                continue
            base = base.without_vertices(other - s).with_clique(sorted(other & s))
        floor, _ = treewidth(base.with_clique(sorted(boundary)))
        best = None
        for x in sorted(comp - s):
            w, _ = treewidth(base.with_clique(sorted(boundary | {x})), floor)
            if best is None or (w, x) < best:
                best = (w, x)
            if w == floor:
                break
        winners[comp] = best[1]
    return winners


def _qaw_witness(p, g, comps, winners, treewidth):
    """qaw and a witnessing nice decomposition for the given block anchors."""
    s = p.liberal_set
    augmented_primal = g
    for comp in comps:
        augmented_primal = augmented_primal.with_clique(
            sorted((comp & s) | {winners[comp]})
        )
    qaw_width, _ = treewidth(augmented_primal)
    qaw = qaw_width + 1

    # witness: contract-graph spine with one block region grafted per block
    _, spine = treewidth(_contract_graph(g, s, comps))
    assembled = _relabel(spine, 0)
    # grafts hang below spine nodes, so the spine's BFS order is that of the
    # spine nodes of every assembled tree
    spine_order = _walk(assembled)[1]
    for comp in comps:
        boundary = comp & s
        anchor = winners[comp]
        region_graph = g.induced(comp).with_clique(sorted(boundary | {anchor}))
        _, region = treewidth(region_graph)
        hook = boundary | {anchor}
        r_star = min(t for t in region.nodes if hook <= region.bags[t])
        region = _reroot(region, r_star)
        t_star = next(t for t in spine_order if boundary <= assembled.bags[t])
        assembled = _graft(assembled, region, t_star)

    nice = make_nice(assembled, set(p.struct.universe) - s)
    if nice.width + 1 != qaw:
        raise InternalInvariant(
            f"witness decomposition width {nice.width + 1} != computed qaw {qaw}"
        )
    ok, violation = _quantifier_aware(nice, g, s, comps)
    if not ok:
        raise InternalInvariant(f"witness decomposition is not quantifier-aware: {violation}")
    return qaw, nice

