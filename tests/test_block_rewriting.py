"""pp_to_basic_sharp against a test-local reference of its per-block route.

The reference rewrites each existential block the long way: it builds a
sub-pair of the block's facts, cuts the decomposition down to the nodes
whose bags meet the block's interior, checks that cut-down decomposition
itself, and places each atom at the topmost node found by a scan over every
node. pp_to_basic_sharp instead nests each block's facts along the whole
of compute_qaw's witness, and finds an atom's node as the deepest of its
variables' topmost nodes. Along that witness both must give the same
sentence, text for text.

The reference takes nothing from sharpq but the formula, pair and structure
types: its child lists, orders, depths, blocks and the check of the cut-down
decomposition are computed in this file.
"""

import random
from functools import reduce

import pytest

from sharpq.compilepipe import _home, pp_to_basic_sharp
from sharpq.decomp import _reroot, _walk, compute_qaw, exact_treewidth
from sharpq.epquery import TOP, And, Atom, Exists, PpPair, Top, parse_query, pp_to_pair
from sharpq.relstore import make_structure
from sharpq.sharpcore import Cast, Expand, Project, Times, serialize_sharp
from tests.conftest import random_graph, random_pp_pair, star_pair, three_block_pair


def _tree(parent):
    """(sorted child lists, BFS order from the root, depth of each node)."""
    kids = {t: [] for t in parent}
    for t, p in parent.items():
        if p is not None:
            kids[p].append(t)
    for t in kids:
        kids[t].sort()
    order = [t for t, p in parent.items() if p is None]
    assert len(order) == 1
    depth = {order[0]: 0}
    i = 0
    while i < len(order):
        for c in kids[order[i]]:
            depth[c] = depth[order[i]] + 1
            order.append(c)
        i += 1
    return kids, order, depth


def _topmost(depth, nodes):
    return min(nodes, key=lambda t: (depth[t], t))


def _check(parent, bags, struct):
    """The cut-down tree decomposes the sub-pair: every element's nodes are
    connected (one of them has its parent outside) and every fact fits a bag."""
    for v in struct.universe:
        occ = {t for t in parent if v in bags[t]}
        assert len([t for t in occ if parent[t] not in occ]) == 1, v
    for _, tup in struct.all_facts():
        assert any(set(tup) <= bags[t] for t in parent), tup


def _rewrite(parent, bags, pair):
    """The sub-pair's prenex formula nested along the cut-down tree."""
    kids, order, depth = _tree(parent)
    quantified = set(pair.struct.universe) - set(pair.liberal)
    atoms_at = {t: [] for t in parent}
    for sym, tup in pair.struct.all_facts():
        home = _topmost(depth, [t for t in parent if set(tup) <= bags[t]])
        atoms_at[home].append(Atom(sym, tup))
    built = {}
    for t in reversed(order):
        parts = atoms_at[t] + [built[c] for c in kids[t] if not isinstance(built[c], Top)]
        if not parts:
            built[t] = TOP
            continue
        body = reduce(And, parts)
        for v in sorted(bags[t] & quantified, reverse=True):
            if _topmost(depth, [u for u in parent if v in bags[u]]) == t:
                body = Exists(v, body)
        built[t] = body
    return built[order[0]]


def _blocks(p):
    """(interior, boundary) of each block: the quantified elements joined
    through facts, and the liberal elements of those facts."""
    lib = set(p.liberal)
    rest = set(p.struct.universe) - lib
    facts = [tup for _, tup in p.struct.all_facts()]
    out = []
    while rest:
        interior, grown = set(), {min(rest)}
        while grown:
            interior |= grown
            touching = [tup for tup in facts if not interior.isdisjoint(tup)]
            grown = {v for tup in touching for v in tup if v not in lib} - interior
        rest -= interior
        out.append((interior, {v for tup in touching for v in tup if v in lib}))
    return sorted(out, key=lambda block: sorted(block[0] | block[1]))


def reference_pp_to_basic_sharp(p, td):
    lib = set(p.liberal)
    quantified = set(p.struct.universe) - lib
    kids, order, depth = _tree(td.parent)
    eff = {t: frozenset(td.bags[t]) - quantified for t in td.nodes}
    factors_at = {t: [] for t in td.nodes}
    for sym, tup in p.struct.all_facts():
        if quantified.isdisjoint(tup):
            home = _topmost(depth, [t for t in td.nodes if set(tup) <= td.bags[t]])
            factors_at[home].append(Cast(ep=Atom(sym, tup), liberal=tuple(sorted(eff[home]))))
    for interior, boundary in _blocks(p):
        rels = {}
        for sym, tup in p.struct.all_facts():
            if not interior.isdisjoint(tup):
                rels.setdefault(sym, set()).add(tup)
        if not rels:
            continue
        sub_pair = PpPair(
            struct=make_structure(p.struct.sig, sorted(boundary) + sorted(interior), rels),
            liberal=tuple(sorted(boundary)),
        )
        hosts = [t for t in td.nodes if td.bags[t] & interior]
        d = _topmost(depth, hosts)
        parent = {t: (td.parent[t] if td.parent[t] in hosts else None) for t in hosts}
        bags = {t: frozenset(td.bags[t]) & (interior | boundary) for t in hosts}
        _check(parent, bags, sub_pair.struct)
        cast = Cast(ep=_rewrite(parent, bags, sub_pair), liberal=tuple(sorted(boundary)))
        extra = eff[d] - boundary
        factors_at[d].append(Expand(extra, cast) if extra else cast)
    built = {}
    for t in reversed(order):
        factors = factors_at[t]
        for c in kids[t]:
            sub, drop, add = built[c], eff[c] - eff[t], eff[t] - eff[c]
            if not drop and isinstance(sub, Cast) and isinstance(sub.ep, Top):
                continue
            if drop:
                sub = Project(drop, sub)
            if add:
                sub = Expand(add, sub)
            factors.append(sub)
        built[t] = reduce(Times, factors) if factors else Cast(ep=TOP, liberal=tuple(sorted(eff[t])))
    return built[order[0]]


def _same_as_reference(p):
    """pp_to_basic_sharp and the reference along compute_qaw's witness."""
    _, witness = compute_qaw(p)
    expected = serialize_sharp(reference_pp_to_basic_sharp(p, witness))
    assert serialize_sharp(pp_to_basic_sharp(p)[0]) == expected


def test_block_rewriting_matches_the_reference_on_random_pairs():
    rng = random.Random(20261020)
    seen = {"multi-block": 0, "liberal-only atom": 0, "isolated quantified": 0,
            "repeated argument": 0}
    for i in range(320):
        p = random_pp_pair(rng, max_vars=5 + i % 4, max_atoms=3 + i % 6, max_arity=2 + i % 2)
        if i % 3 == 0:
            # a quantified element in no fact: a block of its own, true on
            # every universe
            p = PpPair(
                struct=make_structure(p.struct.sig, (*p.struct.universe, "iso"), p.struct.relations),
                liberal=p.liberal,
            )
        elif i % 3 == 1:
            # every other element liberal: most random pairs quantify
            # nothing, and this one is cut into several blocks
            p = PpPair(struct=p.struct, liberal=tuple(sorted(p.struct.universe)[1::2]))
        _same_as_reference(p)
        facts = [tup for _, tup in p.struct.all_facts()]
        lib = set(p.liberal)
        seen["multi-block"] += sum(
            any(not interior.isdisjoint(tup) for tup in facts) for interior, _ in _blocks(p)
        ) > 1
        seen["liberal-only atom"] += any(set(tup) <= lib for tup in facts)
        seen["isolated quantified"] += any(
            v not in lib and all(v not in tup for tup in facts) for v in p.struct.universe
        )
        seen["repeated argument"] += any(len(set(tup)) < len(tup) for tup in facts)
    assert all(n >= 30 for n in seen.values()), seen


@pytest.mark.parametrize("p", [star_pair(3), three_block_pair()], ids=["star-3", "three-block"])
def test_block_rewriting_matches_the_reference_on_fixed_pairs(p):
    _same_as_reference(p)


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (2, 4), (3, 3), (3, 4)])
def test_block_rewriting_matches_the_reference_on_grids(rows, cols):
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
    _same_as_reference(
        pp_to_pair(parse_query(f"query q({','.join(lib)}): {bound}{' & '.join(atoms)}"))
    )


def test_an_edges_home_is_the_deepest_top_of_its_ends():
    # subtrees that meet pairwise share a node, so the topmost node holding
    # both ends of an edge is the deeper of the two ends' topmost nodes
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, max_vertices=8, density=0.4, min_vertices=2)
        _, td = exact_treewidth(g)
        for root in td.nodes:
            rerooted = _reroot(td, root)
            walk = _walk(rerooted)
            depth = _tree(rerooted.parent)[2]
            for e in g.edges:
                holders = [t for t in rerooted.nodes if e <= rerooted.bags[t]]
                assert _home(walk, tuple(sorted(e))) == _topmost(depth, holders)
                checked += 1
    assert checked > 1000
