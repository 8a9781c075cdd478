"""Seeded inputs and request lists for the three benchmark workloads.

Everything here is derived from one `random.Random(seed)`: the same seed gives
byte-identical `.epq`/`.rel` text. Each request gets its own name prefix, so no
two requests in a run share query or structure text (sharpq has no cross-call
cache, and every CLI invocation a user makes is a fresh process).

A request is a dict:
  label   -- the request's template, e.g. "minimize path-9" (same across seeds)
  argv    -- the `sharpq` argument list, file names relative to the work dir
  check   -- what the answer is checked against (see reference.py)
  files   -- {file name: text} to write before the request runs
"""

# --------------------------------------------------------------------------
# Query text
# --------------------------------------------------------------------------


def path_query(name, v, k):
    """Directed path with k edges from one liberal variable: the answers are
    the vertices that start a walk of length k."""
    xs = [f"{v}{i}" for i in range(k + 1)]
    body = " & ".join(f"E({xs[i]},{xs[i + 1]})" for i in range(k))
    prefix = "".join(f"exists {x} . " for x in xs[1:])
    return f"query {name}({xs[0]}): {prefix}{body}\n"


def star_query(name, v, m):
    """m liberal spokes pointing at one quantified hub."""
    spokes = [f"{v}{i}" for i in range(m)]
    hub = f"{v}h"
    body = " & ".join(f"E({s},{hub})" for s in spokes)
    return f"query {name}({','.join(spokes)}): exists {hub} . {body}\n"


def grid_query(name, v, rows, cols):
    """rows x cols grid of E-edges (right and down); the two opposite corners
    are liberal, every other vertex is quantified."""
    cell = [[f"{v}{i}_{j}" for j in range(cols)] for i in range(rows)]
    atoms = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                atoms.append(f"E({cell[i][j]},{cell[i][j + 1]})")
            if i + 1 < rows:
                atoms.append(f"E({cell[i][j]},{cell[i + 1][j]})")
    lib = [cell[0][0], cell[rows - 1][cols - 1]]
    bound = [c for row in cell for c in row if c not in lib]
    prefix = "".join(f"exists {b} . " for b in bound)
    return f"query {name}({','.join(lib)}): {prefix}{' & '.join(atoms)}\n"


def unary_union_query(name, v, k):
    """A0(x) | ... | A{k-1}(x): no two inclusion-exclusion terms merge."""
    x = f"{v}x"
    return f"query {name}({x}): " + " | ".join(f"A{i}({x})" for i in range(k)) + "\n"


def binary_union_query(name, v, k, colours):
    """k disjuncts `exists y . E{i mod colours}(x,y)`: terms that use the same
    colours have counting-equivalent cores and merge."""
    x = f"{v}x"
    parts = [f"(exists {v}y{i} . E{i % colours}({x},{v}y{i}))" for i in range(k)]
    return f"query {name}({x}): " + " | ".join(parts) + "\n"


def random_ep_query(rng, name, v, n_lib, *, max_vars=8, max_atoms=5,
                    max_disjunctions=2, max_arity=3):
    """Random renamed-apart ep query in the shape of the test suite's
    generator: liberal x0.., bound w1.., atoms only over variables in scope.
    The liberal count is given rather than drawn (see minimize_mix_round)."""
    n_syms = rng.randint(1, 3)
    arities = {f"R{i}": rng.randint(1, max_arity) for i in range(n_syms)}
    lib = [f"{v}x{i}" for i in range(n_lib)]
    state = {"atoms": 0, "ors": 0, "bound": 0}
    max_bound = max_vars - len(lib)

    def leaf(scope):
        if state["atoms"] >= max_atoms or rng.random() < 0.08:
            return "true"
        state["atoms"] += 1
        sym = rng.choice(sorted(arities))
        return f"{sym}({','.join(rng.choice(scope) for _ in range(arities[sym]))})"

    def gen(scope, depth):
        if depth <= 0 or state["atoms"] >= max_atoms:
            return leaf(scope)
        roll = rng.random()
        if roll < 0.18 and state["bound"] < max_bound:
            state["bound"] += 1
            w = f"{v}w{state['bound']}"
            return f"(exists {w} . {gen(scope + [w], depth - 1)})"
        if roll < 0.36 and state["ors"] < max_disjunctions:
            state["ors"] += 1
            return f"({gen(scope, depth - 1)} | {gen(scope, depth - 1)})"
        if roll < 0.85:
            return f"({gen(scope, depth - 1)} & {gen(scope, depth - 1)})"
        return leaf(scope)

    body = gen(lib, rng.randint(2, 4))
    return f"query {name}({','.join(lib)}): {body}\n"


# --------------------------------------------------------------------------
# Structure text
# --------------------------------------------------------------------------


def _rel_text(symbols, universe, facts):
    lines = ["signature " + " ".join(f"{s}/{a}" for s, a in symbols)]
    lines.append("universe " + " ".join(universe))
    for sym, tup in facts:
        lines.append(f"{sym}({','.join(tup)})")
    return "\n".join(lines) + "\n"


def random_graph(rng, v, n, m):
    """(universe, sorted edge list) of a random directed graph with n
    vertices and m distinct edges, self-loops allowed."""
    universe = [f"{v}{i}" for i in range(n)]
    edges = set()
    while len(edges) < m:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return universe, [(universe[a], universe[b]) for a, b in sorted(edges)]


def graph_text(universe, edges):
    return _rel_text([("E", 2)], universe, [("E", e) for e in edges])


def random_coloured_graph(rng, v, n, colours, m):
    """Universe plus {E0..: edge list}, m edges per colour."""
    universe = [f"{v}{i}" for i in range(n)]
    rels = {}
    for c in range(colours):
        edges = set()
        while len(edges) < m:
            edges.add((rng.randrange(n), rng.randrange(n)))
        rels[f"E{c}"] = [(universe[a], universe[b]) for a, b in sorted(edges)]
    return universe, rels


def random_unary(rng, v, n, k, density):
    """Universe plus {A0..A{k-1}: sorted member list}."""
    universe = [f"{v}{i}" for i in range(n)]
    rels = {f"A{i}": [e for e in universe if rng.random() < density] for i in range(k)}
    return universe, rels


def relations_text(universe, rels, arity):
    symbols = [(s, arity) for s in sorted(rels)]
    facts = [(s, t if arity > 1 else (t,)) for s in sorted(rels) for t in rels[s]]
    return _rel_text(symbols, universe, facts)


# --------------------------------------------------------------------------
# Workloads: one round of requests each
# --------------------------------------------------------------------------


class _Names:
    """Per-request name prefixes: request i of round r uses r{r}n{i}_."""

    def __init__(self, round_no):
        self.round_no = round_no
        self.i = 0

    def take(self):
        self.i += 1
        return f"r{self.round_no}n{self.i}_"


PATH_KS = range(2, 10)
# Path-5 runs this many more times per round, so that the median latency
# falls among path-5 requests rather than among random queries of scattered
# cost.
PATH_MEDIAN, PATH_MEDIAN_EXTRA = 5, 5
# Random queries, one per (liberal count, disjunction count). Their cost is
# mostly |L|! relabelings per inclusion-exclusion term; with six or more
# liberal variables it spreads over two orders of magnitude from seed to seed,
# so the factorial regime is measured by the fixed path-7 and path-8 instead.
RANDOM_STRATA = [(n_lib, n_or) for n_lib in range(1, 6) for n_or in range(3)]
RANDOM_MAX_VARS = 8
GRID_QAW = ((3, 4), (4, 3), (3, 5), (5, 3), (4, 4))
# The self-check's oracle_count enumerates 3^8 assignments per sample on the
# 2x4 grid. The 3x4 grid (3^12, some ten seconds per request) fits once per
# run and alone swung requests_per_s by 13% from run to run; the 3x3 grid
# (0.4 s) put the tail percentile among its own few, noisy requests instead
# of among path-7 and the 3x5 and 5x3 qaw requests, which cost the same.
GRID_MINIMIZE = (2, 4)


def minimize_mix_round(rng, round_no):
    """Paths 2..9, stratified random queries and a grid, whose time is
    nearly all the oracle self-check; qaw on grids."""
    names = _Names(round_no)
    out = []

    def minimize(label, text, *, path=None):
        p = names.take()
        query = text(p)
        out.append({
            "label": label,
            "argv": ["minimize", "-q", f"{p}q.epq", "--json"],
            "files": {f"{p}q.epq": query},
            "check": {"kind": "minimize", "query": query, "path": path,
                      "qaw": None if path is None else 2,
                      "sample_seed": rng.randrange(2**32)},
        })

    for k in [*PATH_KS, *[PATH_MEDIAN] * PATH_MEDIAN_EXTRA]:
        minimize(f"minimize path-{k}", lambda p: path_query(f"path{k}", f"{p}v", k), path=k)
    for n_lib, n_or in RANDOM_STRATA:
        while True:
            drawn = random_ep_query(rng, "rnd", "@", n_lib, max_vars=RANDOM_MAX_VARS,
                                    max_disjunctions=n_or)
            if drawn.count("|") == n_or:
                break
        minimize(f"minimize random-{n_lib}L{n_or}or", lambda p, d=drawn: d.replace("@", p))
    rows, cols = GRID_MINIMIZE
    for _ in range(2):
        minimize(f"minimize grid-{rows}x{cols}", lambda p: grid_query("grid", f"{p}g", rows, cols))
    for rows, cols in GRID_QAW:
        p = names.take()
        out.append({
            "label": f"qaw grid-{rows}x{cols}",
            "argv": ["qaw", "-q", f"{p}q.epq", "--json"],
            "files": {f"{p}q.epq": grid_query(f"grid{rows}x{cols}", f"{p}g", rows, cols)},
            # tw(grid) = min(rows, cols); qaw lies in [tw + 1, tw + tw(contract) + 1]
            # and the contract graph of two liberal corners is one edge.
            "check": {"kind": "qaw", "lo": min(rows, cols) + 1, "hi": min(rows, cols) + 2},
        })
    return out


# (query kind, parameter, vertices, edges): path-23 is refused by the core
# search cap and counted through the compile_flat fallback. Path-5 on 3k/20k
# appears three times so that the tail percentile falls in the middle of its
# cluster; the median falls among path-3 on 3k/20k.
COUNT_MIX = (
    ("path", 3, 1000, 5000), ("path", 3, 2000, 10000), ("path", 3, 3000, 20000),
    ("path", 5, 1000, 5000), ("path", 5, 2000, 10000),
    *(("path", 5, 3000, 20000),) * 3,
    ("path", 23, 1000, 5000), ("path", 23, 2000, 10000),
    ("star", 2, 1000, 5000), ("star", 2, 2000, 10000),
    ("star", 3, 300, 3000),
)


def count_large_round(rng, round_no):
    names = _Names(round_no)
    out = []
    for kind, param, n, m in COUNT_MIX:
        p = names.take()
        label = f"count {kind}-{param} {n}/{m}"
        universe, edges = random_graph(rng, f"{p}b", n, m)
        make = path_query if kind == "path" else star_query
        out.append({
            "label": label,
            "argv": ["count", "-q", f"{p}q.epq", "-d", f"{p}d.rel", "--json"],
            "files": {f"{p}q.epq": make(f"{kind}{param}", f"{p}v", param),
                      f"{p}d.rel": graph_text(universe, edges)},
            "check": {"kind": kind, "param": param, "universe": universe,
                      "edges": edges},
        })
    return out


UNARY_KS = range(4, 12)
BINARY_KS = range(5, 12)
UNION_ELEMS = 2000
UNARY_DENSITY = 0.1
BINARY_COLOURS = 3
BINARY_EDGES = 1000


def union_count_round(rng, round_no):
    names = _Names(round_no)
    out = []
    for k in UNARY_KS:
        p = names.take()
        universe, rels = random_unary(rng, f"{p}b", UNION_ELEMS, k, UNARY_DENSITY)
        out.append({
            "label": f"count unary-union-{k}",
            "argv": ["count", "-q", f"{p}q.epq", "-d", f"{p}d.rel", "--json"],
            "files": {f"{p}q.epq": unary_union_query(f"u{k}", f"{p}v", k),
                      f"{p}d.rel": relations_text(universe, rels, 1)},
            "check": {"kind": "unary_union", "rels": rels},
        })
    for k in BINARY_KS:
        p = names.take()
        universe, rels = random_coloured_graph(
            rng, f"{p}b", UNION_ELEMS, BINARY_COLOURS, BINARY_EDGES)
        out.append({
            "label": f"count binary-union-{k}",
            "argv": ["count", "-q", f"{p}q.epq", "-d", f"{p}d.rel", "--json"],
            "files": {f"{p}q.epq": binary_union_query(f"e{k}", f"{p}v", k, BINARY_COLOURS),
                      f"{p}d.rel": relations_text(universe, rels, 2)},
            "check": {"kind": "binary_union",
                      "rels": {f"E{c}": rels[f"E{c}"]
                               for c in sorted({i % BINARY_COLOURS for i in range(k)})}},
        })
    return out


WORKLOADS = {
    "minimize-mix": minimize_mix_round,
    "count-large": count_large_round,
    "union-count": union_count_round,
}
