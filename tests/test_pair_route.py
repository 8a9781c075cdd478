"""`minimize` and `count` build their inclusion-exclusion terms as pairs.

The reference is the formula route they took before: flatten the naive
representation P L C[d1 | ... | dk; L] of the kept disjuncts, read each
term's constant and basic part back (tests/helpers.reference_read_back), and
hand those terms to the same canonical_lc (tests/helpers.flat_lc). Both routes must give the same
entries, or refuse with the same error and message.
"""

import random

import pytest

from sharpq import compilepipe
from sharpq.compilepipe import (
    _drop_contained,
    _ie_terms,
    canonical_lc,
    count_sentence,
    flatten,
    minimize_ep,
)
from sharpq.epquery import And, Atom, Or, _rename_apart, parse_query, subformulas, to_dnf_pp
from sharpq.errors import CapExceeded
from sharpq.sharpcore import naive_representation
from tests.conftest import QUERY_A, random_ep_query
from tests.helpers import flat_lc

CAPS = {"max_dnf": 4096, "core_cap": 12, "canon_cap": 200000}


def _outcome(route, q, caps):
    try:
        return route(q, caps).entries
    except CapExceeded as exc:
        return "CapExceeded", str(exc)


def pair_route(q, caps):
    pairs = _drop_contained(q, max_dnf=caps["max_dnf"], core_cap=caps["core_cap"])[1]
    terms = _ie_terms(pairs, caps["max_dnf"])
    return canonical_lc(terms, core_cap=caps["core_cap"], canon_cap=caps["canon_cap"])


def formula_route(q, caps):
    kept = _drop_contained(q, max_dnf=caps["max_dnf"], core_cap=caps["core_cap"])[0]
    fs = flatten(naive_representation(kept), max_dnf=caps["max_dnf"])
    return flat_lc(fs, core_cap=caps["core_cap"], canon_cap=caps["canon_cap"])


def _with_a_copy(rng, q):
    """q | q', where q' is q with its binders renamed (a duplicate) or also
    conjoined with one more atom (contained in q)."""
    copy = _rename_apart(Or(q.formula, q.formula), frozenset(q.liberal)).right
    if rng.random() < 0.5:
        sym, arity = rng.choice(q.sig.symbols)
        copy = And(copy, Atom(sym, tuple(rng.choice(q.liberal) for _ in range(arity))))
    return type(q)(name=q.name, formula=Or(q.formula, copy), liberal=q.liberal, sig=q.sig)


def _chain(x, symbol, n):
    """exists-chain x -> y1 -> ... -> yn over one symbol per edge: no fold
    and no endomorphism shrinks it."""
    ys = [f"{symbol}{i}" for i in range(1, n + 1)]
    atoms = " & ".join(
        f"{symbol}{i}({a},{b})" for i, (a, b) in enumerate(zip([x] + ys, ys))
    )
    return "".join(f"exists {y} . " for y in ys) + atoms


def _union_of_chains(m, n):
    """Two rigid chains from x: their conjunction folds to 1 + m + n elements."""
    return parse_query(f"query c(x): ({_chain('x', 'A', m)}) | ({_chain('x', 'B', n)})")


def _categories(q):
    """Which of the required kinds of union q is."""
    disjuncts = to_dnf_pp(q)
    found = set()
    if len(disjuncts) > 1:
        if _drop_contained(q, max_dnf=4096)[0] is not q:
            found.add("dropped")
        for d in disjuncts:
            nodes = subformulas(d.formula)
            if not any(isinstance(node, Atom) for node in nodes):
                found.add("true")
            args = {a for node in nodes if isinstance(node, Atom) for a in node.args}
            if not set(q.liberal) <= args:
                found.add("missing liberal")
    return found


def test_pair_route_gives_the_formula_routes_entries_and_refusals():
    rng = random.Random(3201)
    seen = dict.fromkeys(("dropped", "true", "missing liberal", "refused", "several entries"), 0)
    for _ in range(400):
        q = random_ep_query(rng, max_vars=5, max_atoms=rng.randint(2, 7), max_disjunctions=3)
        if rng.random() < 0.3:
            q = _with_a_copy(rng, q)
        caps = dict(CAPS, core_cap=rng.choice((4, 6, 12)))
        want = _outcome(formula_route, q, caps)
        assert _outcome(pair_route, q, caps) == want, q
        refused = want[:1] == ("CapExceeded",)
        for kind in _categories(q):
            seen[kind] += 1
        seen["refused"] += refused
        seen["several entries"] += not refused and len(want) > 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("m, n, refusal", [
    (5, 6, "canonical labeling over 1!*11! orderings exceeds 200000"),
    (6, 6, "core search limited to 12 elements, got 13"),
])
def test_pair_route_meets_the_core_cap_as_the_formula_route_does(m, n, refusal):
    # the glued term of the two chains folds to 12 elements (within the
    # core cap, over the canonical labeling's) and to 13 (over the core cap)
    q = _union_of_chains(m, n)
    for route in (pair_route, formula_route):
        assert _outcome(route, q, CAPS) == ("CapExceeded", refusal)
    # with room to label, the 12-element term is one of three entries
    wide = dict(CAPS, canon_cap=10**9)
    if m + n + 1 == 12:
        entries = _outcome(pair_route, q, wide)
        assert entries == _outcome(formula_route, q, wide)
        assert sorted(len(p.struct.universe) for _, p in entries) == [m + 1, n + 1, 12]


def test_pair_route_refuses_too_many_terms_with_flattens_message():
    q = parse_query("query u(x): " + " | ".join(f"A{i}(x)" for i in range(7)))
    caps = dict(CAPS, max_dnf=100)
    want = ("CapExceeded", "inclusion-exclusion over 7 disjuncts needs 127 > 100 terms")
    assert _outcome(pair_route, q, caps) == _outcome(formula_route, q, caps) == want


def test_a_union_is_minimized_and_counted_without_the_formula_route(monkeypatch):
    # flatten does not run, and the DNF is built once, by _drop_contained
    def refuse(*args, **kwargs):
        raise AssertionError("flatten ran")

    monkeypatch.setattr(compilepipe, "flatten", refuse)
    dnfs = []

    def counted(*args, **kwargs):
        dnfs.append(args[0].name)
        return to_dnf_pp(*args, **kwargs)

    monkeypatch.setattr(compilepipe, "to_dnf_pp", counted)
    unions = [parse_query("query u(x,y): (exists z . E(x,z) & E(z,y)) | F(x,y) | E(y,x)"),
              parse_query(QUERY_A)]
    for q in unions:
        dnfs.clear()
        minimize_ep(q)
        assert dnfs == [q.name]
        dnfs.clear()
        count_sentence(q)
        assert dnfs == [q.name]
    dnfs.clear()
    minimize_ep(parse_query("query s(a,b): exists h . E(a,h) & E(b,h)"))
    assert dnfs == []


def test_ie_terms_glue_the_pairs_on_their_liberal_elements():
    q = parse_query("query u(x): (exists y . E(x,y)) | (exists y . E(y,x)) | F(x)")
    pairs = _drop_contained(q, max_dnf=4096)[1]
    terms = _ie_terms(pairs, 4096)
    assert [c for c, _ in terms] == [1, 1, 1, -1, -1, -1, 1]
    both = terms[3][1]
    assert both.liberal == ("x",)
    assert len(both.struct.universe) == 3
    assert sorted(both.struct.all_facts()) == sorted(
        [("E", ("x", both.struct.universe[1])), ("E", (both.struct.universe[2], "x"))]
    )
