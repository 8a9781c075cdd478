"""Library functions that only the tests use: decomposition checks, the
component split of a pair, and the evaluation of a linear combination."""

from sharpq.compilepipe import pp_to_basic_sharp
from sharpq.decomp import compute_qaw, exact_treewidth, validate_td
from sharpq.epquery import PpPair, contract_graph, oracle_count, pair_to_pp, primal_graph
from sharpq.errors import EngineDisagreement, SharpqError
from sharpq.relstore import make_structure
from sharpq.sharpcore import eval_sentence


def validate_nice(ntd, g):
    """validate_td plus the node-kind constraints of nice decompositions."""
    problems = validate_td(ntd, g)
    kids = ntd.children()
    for t in sorted(ntd.nodes):
        kind = ntd.kinds[t]
        bag = ntd.bags[t]
        cs = kids[t]
        if kind == "leaf":
            if cs or len(bag) > 1:
                problems.append(f"node {t}: bad leaf")
        elif kind == "introduce":
            if len(cs) != 1 or len(bag - ntd.bags[cs[0]]) != 1 or not ntd.bags[cs[0]] <= bag:
                problems.append(f"node {t}: bad introduce")
        elif kind == "forget":
            if len(cs) != 1 or len(ntd.bags[cs[0]] - bag) != 1 or not bag <= ntd.bags[cs[0]]:
                problems.append(f"node {t}: bad forget")
        elif kind == "join":
            if len(cs) != 2 or any(ntd.bags[c] != bag for c in cs):
                problems.append(f"node {t}: bad join")
        else:
            problems.append(f"node {t}: unknown kind {kind!r}")
    return problems


def qaw_bounds(p, cap=24):
    """(max(tw, tw(contract))+1, tw + tw(contract) + 1) sandwich for qaw."""
    tw_primal, _ = exact_treewidth(primal_graph(p), cap)
    tw_contract, _ = exact_treewidth(contract_graph(p), cap)
    return max(tw_primal, tw_contract) + 1, tw_primal + tw_contract + 1


def components(p):
    """Split into connected components of the primal graph.

    Each component keeps its slice of the liberal list; the product of the
    component counts equals the whole count on every structure.
    """
    g = primal_graph(p)
    order = {v: i for i, v in enumerate(p.struct.universe)}
    comps = sorted(g.connected_components(), key=lambda c: min(order[v] for v in c))
    out = []
    for comp in comps:
        universe = [v for v in p.struct.universe if v in comp]
        rels = {}
        for sym, tup in p.struct.all_facts():
            if set(tup) <= comp:
                rels.setdefault(sym, set()).add(tup)
        struct = make_structure(p.struct.sig, universe, rels)
        out.append(PpPair(struct=struct, liberal=tuple(v for v in p.liberal if v in comp)))
    return out


def strip_nonliberal_components(p):
    """Drop every component that has no liberal vertex."""
    kept = [c for c in components(p) if c.liberal]
    if not kept:
        raise SharpqError(
            "all components are non-liberal; the empty query has no pair view"
        )
    universe = []
    rels = {}
    keep_elems = set()
    for c in kept:
        keep_elems |= set(c.struct.universe)
    for v in p.struct.universe:
        if v in keep_elems:
            universe.append(v)
    for sym, tup in p.struct.all_facts():
        if set(tup) <= keep_elems:
            rels.setdefault(sym, set()).add(tup)
    struct = make_structure(p.struct.sig, universe, rels)
    return PpPair(struct=struct, liberal=tuple(v for v in p.liberal if v in keep_elems))


def lc_evaluate(lc, b, engine="compiled", *, max_rows=10**7, tw_cap=24):
    """Evaluate a linear combination on a structure: the sum of coefficient
    times answer count per pair. Engines: "compiled" (decompose + dynamic
    programming), "oracle" (assignment enumeration), "both" (run both, error
    on disagreement)."""
    if engine not in ("compiled", "oracle", "both"):
        raise SharpqError(f"unknown engine {engine!r}")
    total = 0
    for i, (coeff, pair) in enumerate(lc.entries):
        compiled = oracle = None
        if engine in ("compiled", "both"):
            _, td = compute_qaw(pair, cap=tw_cap)
            compiled = eval_sentence(pp_to_basic_sharp(pair, td), b, max_rows=max_rows)
        if engine in ("oracle", "both"):
            oracle = oracle_count(pair_to_pp(pair), b)
        if engine == "both" and compiled != oracle:
            raise EngineDisagreement(
                f"term {i}: compiled count {compiled} != oracle count {oracle}"
            )
        total += coeff * (compiled if compiled is not None else oracle)
    return total
