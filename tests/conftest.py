"""Shared test helpers: independent brute-force oracles and random generators.

The oracles here are deliberately naive (itertools over all maps, all
elimination orders, all assignments) and are kept independent from the package
implementations they cross-check.
"""

import itertools
import random

import pytest

from sharpq.relstore import Signature, make_structure


def brute_hom_maps(src, dst, pin=None):
    """Every homomorphism src -> dst extending pin, as a dict, by trying all
    |dst|^(unpinned elements) maps in itertools.product order."""
    pin = dict(pin or {})
    free = [e for e in src.universe if e not in pin]
    facts = list(src.all_facts())
    for values in itertools.product(dst.universe, repeat=len(free)):
        h = {**pin, **dict(zip(free, values))}
        if all(tuple(h[x] for x in tup) in dst.tuples(name) for name, tup in facts):
            yield h


def brute_homomorphisms(src, dst, pin=None):
    """Count homomorphisms by enumerating all maps."""
    return sum(1 for _ in brute_hom_maps(src, dst, pin))


def sum_of_products(sig, terms):
    """The disjoint union, over the terms, of the direct product of each
    term's structures over sig; the empty product is one element on which
    every relation holds. Term k's elements are named k:e1:...:ei."""
    universe, rels = [], {name: set() for name, _ in sig.symbols}
    for k, factors in enumerate(terms):
        for es in itertools.product(*(f.universe for f in factors)):
            universe.append(":".join((str(k), *es)))
        for name, arity in sig.symbols:
            for facts in itertools.product(*(f.tuples(name) for f in factors)):
                rels[name].add(tuple(":".join((str(k), *(t[j] for t in facts))) for j in range(arity)))
    return make_structure(sig, universe, rels)


def poly_structure(coeffs, b):
    """p(B) for p = sum of coeffs[i] * X^i: coeffs[i] copies of B^i, side by side."""
    return sum_of_products(b.sig, [[b] * i for i, c in enumerate(coeffs) for _ in range(c)])


def random_structure(rng, sig, max_size=4, min_size=1, density=0.5):
    """A random structure over sig with 1..max_size elements."""
    n = rng.randint(min_size, max_size)
    universe = [f"b{i}" for i in range(n)]
    rels = {}
    for name, arity in sig.symbols:
        tuples = set()
        for tup in itertools.product(universe, repeat=arity):
            if rng.random() < density:
                tuples.add(tup)
        rels[name] = tuples
    return make_structure(sig, universe, rels)


def text_with_a_repeated_line(rng, b):
    """b's canonical `.rel` text, half the time with one fact line written
    twice."""
    from sharpq.relstore import serialize_structure

    lines = serialize_structure(b).splitlines()
    if len(lines) > 2 and rng.random() < 0.5:
        lines.insert(rng.randrange(3, len(lines) + 1), rng.choice(lines[2:]))
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng():
    return random.Random(20260819)


SIG_E = Signature((("E", 2),))
SIG_EF = Signature((("E", 2), ("F", 2)))


def path_structure(n, sig=SIG_E):
    """Directed path with n edges: a0 -> a1 -> ... -> an."""
    universe = [f"a{i}" for i in range(n + 1)]
    edges = {(f"a{i}", f"a{i+1}") for i in range(n)}
    return make_structure(sig, universe, {"E": edges})


def triangle_structure(sig=SIG_E):
    """Symmetric triangle: both orientations of each of the 3 edges."""
    universe = ["t0", "t1", "t2"]
    edges = set()
    for i in range(3):
        j = (i + 1) % 3
        edges.add((f"t{i}", f"t{j}"))
        edges.add((f"t{j}", f"t{i}"))
    return make_structure(sig, universe, {"E": edges})


# --- ep-query helpers -------------------------------------------------------


def random_ep_query(rng, *, max_vars=6, max_atoms=5, max_disjunctions=2,
                    max_arity=3, name="q"):
    """Random renamed-apart ep-query within the given size budget.

    Liberal variables are x0, x1, ...; bound ones w1, w2, ... so the result is
    renamed-apart by construction. Atoms only use variables in scope.
    """
    from sharpq.epquery import TOP, And, Atom, Exists, LiberalQuery, Or

    n_syms = rng.randint(1, 3)
    arities = {f"R{i}": rng.randint(1, max_arity) for i in range(n_syms)}
    lib = [f"x{i}" for i in range(rng.randint(1, max_vars))]
    state = {"atoms": 0, "ors": 0, "bound": 0}
    max_bound = max_vars - len(lib)

    def leaf(scope):
        if state["atoms"] >= max_atoms or rng.random() < 0.08:
            return TOP
        state["atoms"] += 1
        sym = rng.choice(sorted(arities))
        return Atom(sym, tuple(rng.choice(scope) for _ in range(arities[sym])))

    def gen(scope, depth):
        if depth <= 0 or state["atoms"] >= max_atoms:
            return leaf(scope)
        roll = rng.random()
        if roll < 0.18 and state["bound"] < max_bound:
            state["bound"] += 1
            w = f"w{state['bound']}"
            return Exists(w, gen(scope + [w], depth - 1))
        if roll < 0.36 and state["ors"] < max_disjunctions:
            state["ors"] += 1
            return Or(gen(scope, depth - 1), gen(scope, depth - 1))
        if roll < 0.85:
            return And(gen(scope, depth - 1), gen(scope, depth - 1))
        return leaf(scope)

    formula = gen(lib, rng.randint(2, 4))
    sig = Signature(tuple(sorted(arities.items())))
    return LiberalQuery(name=name, formula=formula, liberal=tuple(lib), sig=sig)


# Unions whose naive cast the table-union guard refuses, so that `count` casts
# their disjuncts one by one and `minimize` sums their inclusion-exclusion
# terms. A: naive width 4, while
# the disjuncts' cores have qaw 2 and 1 (the prenex path is wider than its
# decomposition). B: naive width 3, and so is the first disjunct's qaw, but
# its core E(x,x) has qaw 1.
QUERY_A = "query a(x): (exists y . exists z . exists w . E(x,y) & E(y,z) & E(z,w)) | F(x)"
QUERY_B = (
    "query b(x): (E(x,x) & exists y . exists z . exists w . E(y,z) & E(z,w) & E(w,y)) | F(x)"
)


def brute_ep_count(q, b):
    """Independent counting oracle: hoist all quantifiers (sound because the
    formula is renamed-apart), then enumerate liberal and bound assignments."""
    from sharpq.epquery import And, Atom, Exists, Or, Top

    bound = []

    def strip(f):
        if isinstance(f, Exists):
            bound.append(f.var)
            return strip(f.body)
        if isinstance(f, And):
            return ("and", strip(f.left), strip(f.right))
        if isinstance(f, Or):
            return ("or", strip(f.left), strip(f.right))
        if isinstance(f, Atom):
            return ("atom", f.symbol, f.args)
        if isinstance(f, Top):
            return ("top",)
        raise TypeError(f)

    skeleton = strip(q.formula)

    def holds(node, g):
        tag = node[0]
        if tag == "atom":
            return tuple(g[a] for a in node[2]) in b.tuples(node[1])
        if tag == "and":
            return holds(node[1], g) and holds(node[2], g)
        if tag == "or":
            return holds(node[1], g) or holds(node[2], g)
        return True

    count = 0
    for lib_vals in itertools.product(b.universe, repeat=len(q.liberal)):
        h = dict(zip(q.liberal, lib_vals))
        for b_vals in itertools.product(b.universe, repeat=len(bound)):
            g = dict(h)
            g.update(zip(bound, b_vals))
            if holds(skeleton, g):
                count += 1
                break
    return count


def ep_width(f):
    """max |free(subformula)| over every subformula of an ep-formula."""
    from sharpq.epquery import And, Exists, Or, free_variables

    w = len(free_variables(f))
    if isinstance(f, (And, Or)):
        return max(w, ep_width(f.left), ep_width(f.right))
    if isinstance(f, Exists):
        return max(w, ep_width(f.body))
    return w


# --- decomposition helpers ---------------------------------------------------


def random_graph(rng, max_vertices=8, density=0.4, min_vertices=0):
    from sharpq.epquery import Graph

    n = rng.randint(min_vertices, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    edges = set()
    for a, b in itertools.combinations(verts, 2):
        if rng.random() < density:
            edges.add(frozenset((a, b)))
    return Graph(frozenset(verts), frozenset(edges))


def _brute_fill_degree(adjacency, v, eliminated):
    """Neighbors of v in the graph where `eliminated` has been eliminated."""
    seen = {v}
    stack = list(adjacency[v])
    result = set()
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if u in eliminated:
            stack.extend(adjacency[u])
        else:
            result.add(u)
    return result


def brute_treewidth(g):
    """Independent treewidth oracle: DP over eliminated subsets (|V| <= 8)."""
    verts = sorted(g.vertices)
    if not verts:
        return -1
    adjacency = {v: set(g.neighbors(v)) for v in verts}
    cur = {frozenset(): -1}
    for _size in range(len(verts)):
        nxt = {}
        for sub, w in cur.items():
            for v in verts:
                if v in sub:
                    continue
                val = max(w, len(_brute_fill_degree(adjacency, v, sub)))
                key = sub | {v}
                if key not in nxt or val < nxt[key]:
                    nxt[key] = val
        cur = nxt
    return cur[frozenset(verts)]


def brute_qaw(p):
    """Independent qaw oracle: min over elimination orders in which each
    block's quantified vertices all precede its liberal vertices (|A| <= 6)."""
    from sharpq.epquery import _exists_components, primal_graph

    g = primal_graph(p)
    verts = sorted(g.vertices)
    lib = p.liberal_set
    blocks = [(sorted(c - lib), sorted(c & lib)) for c in _exists_components(g, lib)]
    adjacency = {v: set(g.neighbors(v)) for v in verts}
    best = None
    for order in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(order)}
        if any(
            pos[x] > pos[y] for qs, ls in blocks for x in qs for y in ls
        ):
            continue
        width = 0
        eliminated = set()
        for v in order:
            width = max(width, len(_brute_fill_degree(adjacency, v, eliminated)))
            eliminated.add(v)
        if best is None or width < best:
            best = width
    return best + 1


def random_pp_pair(rng, *, max_vars=6, max_atoms=6, max_arity=3):
    """Random disjunction-free pair via a random ep-query."""
    from sharpq.epquery import pp_to_pair

    q = random_ep_query(
        rng, max_vars=max_vars, max_atoms=max_atoms, max_disjunctions=0,
        max_arity=max_arity,
    )
    return pp_to_pair(q)


def star_pair(n):
    """n liberal spokes around one quantified hub."""
    from sharpq.epquery import parse_query, pp_to_pair

    head = ",".join(f"x{i}" for i in range(1, n + 1))
    atoms = " & ".join(f"E(x{i},z)" for i in range(1, n + 1))
    return pp_to_pair(parse_query(f"query star({head}): exists z . {atoms}"))


def three_block_pair():
    """Three arity-4 blocks sharing liberal variables pairwise."""
    from sharpq.epquery import parse_query, pp_to_pair

    q = parse_query(
        "query q(x0,x1,x2,y0,y1,y2): "
        "(exists z0 . T0(x0,x1,y0,z0)) & (exists z1 . T1(x1,x2,y1,z1)) "
        "& (exists z2 . T2(x2,x0,y2,z2))"
    )
    return pp_to_pair(q)
