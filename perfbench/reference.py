"""Reference answers the benchmark checks sharpq's output against.

None of them comes from the compiler. Counts on large structures are computed
directly from the generated facts; the sentences `minimize` emits are
evaluated on small seeded structures and compared with the brute-force
`oracle_count`, which enumerates assignments and shares no code with the
compilation pipeline. Names are bound at import, before any tracing wraps the
module attributes, so checks never show up in a trace.
"""

import itertools
import json
import random

from sharpq.epquery import oracle_count, parse_query
from sharpq.relstore import Signature, make_structure
from sharpq.sharpcore import eval_sentence, parse_sharp

# --------------------------------------------------------------------------
# Direct counts over generated facts
# --------------------------------------------------------------------------


def walk_count(universe, edges, k):
    """Vertices that start a directed walk of length k."""
    alive = set(universe)
    for _ in range(k):
        alive = {u for u, v in edges if v in alive}
    return len(alive)


def star_count(edges, m):
    """m-tuples (x1..xm) whose members share a common out-neighbour: the size
    of the union over hubs z of In(z)^m, counted without materializing it."""
    out, into = {}, {}
    for u, v in edges:
        out.setdefault(u, set()).add(v)
        into.setdefault(v, set()).add(u)

    def extend(hubs, j):
        if j == 0:
            return 1
        candidates = set().union(*(into[z] for z in hubs))
        return sum(extend(hubs & out[x], j - 1) for x in candidates)

    return sum(extend(hubs, m - 1) for hubs in out.values())


def unary_union_count(rels):
    """Elements in at least one of the unary relations."""
    return len(set().union(*map(set, rels.values())))


def binary_union_count(rels):
    """Elements with an out-edge in at least one of the binary relations."""
    return len({u for edges in rels.values() for u, _ in edges})


def expected_count(check):
    kind = check["kind"]
    if kind == "path":
        return walk_count(check["universe"], check["edges"], check["param"])
    if kind == "star":
        return star_count(check["edges"], check["param"])
    if kind == "unary_union":
        return unary_union_count(check["rels"])
    if kind == "binary_union":
        return binary_union_count(check["rels"])
    raise ValueError(f"no direct count for {kind!r}")


# --------------------------------------------------------------------------
# Checking one answer
# --------------------------------------------------------------------------


def sample_structures(sig, seed, sizes=(1, 2, 2, 3, 3, 3)):
    """Seeded random structures over sig, one per size, each with its own
    fact density between 0.1 and 0.7."""
    rng = random.Random(seed)
    out = []
    for size in sizes:
        universe = [f"s{i}" for i in range(size)]
        density = rng.uniform(0.1, 0.7)
        rels = {
            name: {t for t in itertools.product(universe, repeat=arity) if rng.random() < density}
            for name, arity in sig.symbols
        }
        out.append(make_structure(sig, universe, rels))
    return out


def sample_graphs(seed, sizes=(6, 12, 24)):
    """Seeded sparse acyclic graphs, (universe, edges), with one or two edges
    from each vertex to the next two. Their vertices' longest walks take
    nearly every length below the size, so they tell path-k from
    path-(k-1); structures of three elements, where every long walk runs
    round a cycle, cannot."""
    rng = random.Random(seed)
    out = []
    for size in sizes:
        universe = [f"g{i}" for i in range(size)]
        edges = {(universe[i], universe[min(size - 1, i + rng.randint(1, 2))])
                 for i in range(size - 1) for _ in range(rng.randint(1, 2))}
        out.append((universe, sorted(edges)))
    return out


def check_answer(check, stdout):
    """None when the CLI's --json output is right, else a reason."""
    answer = json.loads(stdout)
    kind = check["kind"]
    if kind == "qaw":
        if not check["lo"] <= answer["qaw"] <= check["hi"]:
            return f"qaw {answer['qaw']} outside [{check['lo']}, {check['hi']}]"
        return None
    if kind == "minimize":
        if check["qaw"] is not None and answer["qaw"] != check["qaw"]:
            return f"qaw {answer['qaw']} != {check['qaw']}"
        q = parse_query(check["query"])
        sentence = parse_sharp(answer["sentence"])
        for b in sample_structures(q.sig, check["sample_seed"]):
            got, want = eval_sentence(sentence, b), oracle_count(q, b)
            if got != want:
                return f"sentence counts {got}, oracle {want} on {len(b.universe)} elements"
        if check.get("path") is not None:
            for universe, edges in sample_graphs(check["sample_seed"]):
                b = make_structure(Signature((("E", 2),)), universe, {"E": set(edges)})
                got, want = eval_sentence(sentence, b), walk_count(universe, edges, check["path"])
                if got != want:
                    return f"sentence counts {got}, walks {want} on {len(universe)} vertices"
        return None
    if int(answer["count"]) != check["expected"]:
        return f"count {answer['count']} != {check['expected']}"
    return None
