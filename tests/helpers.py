"""Decomposition checks that only the tests use."""

from sharpq.decomp import exact_treewidth, validate_td
from sharpq.epquery import contract_graph, primal_graph


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
