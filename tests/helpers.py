"""Library functions that only the tests use: decomposition checks, the
component split of a pair, the evaluation of a linear combination, a
counting formula's table over its free variables, the exhaustive core
search, the full-enumeration counting oracle, alignment by renaming, and
reduce_to_basic."""

import itertools

from sharpq.compilepipe import (
    _seeded_structures,
    canonical_lc,
    flatten,
    pp_to_basic_sharp,
)
from sharpq.decomp import compute_qaw, exact_treewidth, validate_td
from sharpq.epquery import (
    And,
    Atom,
    Exists,
    Or,
    PpPair,
    Top,
    _check_signature,
    _contract_graph,
    _exists_components,
    _infer_signature,
    oracle_count,
    pair_to_pp,
    pp_to_pair,
    primal_graph,
    subformulas,
)
from sharpq.equiv import (
    _induced,
    check_core_cap,
    counting_equivalent,
    logically_equivalent,
)
from sharpq.errors import CapExceeded, EngineDisagreement, InternalInvariant, SharpqError
from sharpq.relstore import Record, _set, homomorphism_search, make_structure, merge_signatures
from sharpq.sharpcore import _Evaluator, _require_valid, check_represents, eval_sentence


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
    g, lib = primal_graph(p), p.liberal_set
    tw_primal, _ = exact_treewidth(g, cap)
    tw_contract, _ = exact_treewidth(_contract_graph(g, lib, _exists_components(g, lib)), cap)
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


class CountTable(Record):
    """Integer table over the free variables of a formula.

    Variables are split into explicit ones (indexing `data`) and wildcard ones
    the value provably does not depend on; wildcard variables are never
    materialized unless an operation needs aligned variable sets. Rows absent
    from `data` have value 0. Tables compare by their rows, and do not hash.
    """

    __slots__ = _fields = ("explicit", "wildcard", "universe", "data")
    __hash__ = None

    def __init__(self, explicit, wildcard, universe, data):
        _set(self, "explicit", explicit)
        _set(self, "wildcard", wildcard)
        _set(self, "universe", universe)
        _set(self, "data", data)

    @property
    def variables(self):
        return self.explicit + self.wildcard

    @property
    def n_rows(self):
        return len(self.data)

    def value(self, assignment):
        """Value at a full assignment (a dict covering all variables)."""
        key = tuple(assignment[v] for v in self.explicit)
        return self.data.get(key, 0)

    def sorted_rows(self):
        """(assignment dict, value) pairs, materialized, in lexicographic
        order by the canonical variable order; zero rows omitted."""
        vs = tuple(sorted(self.variables))
        rows = []
        wild = tuple(sorted(self.wildcard))
        for key, val in self.data.items():
            base = dict(zip(self.explicit, key))
            for extra in itertools.product(self.universe, repeat=len(wild)):
                h = dict(base)
                h.update(zip(wild, extra))
                rows.append((h, val))
        rows.sort(key=lambda hv: tuple(hv[0][v] for v in vs))
        return rows

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        if (set(self.variables), self.universe) != (set(other.variables), other.universe):
            return False
        shared = set(self.explicit) | set(other.explicit)
        return self._over(shared) == other._over(shared)

    def _over(self, columns):
        """sorted_rows over `columns` ⊇ explicit, the other wildcards left out."""
        wild = tuple(v for v in self.wildcard if v in columns)
        return CountTable(self.explicit, wild, self.universe, self.data).sorted_rows()


def evaluate(f, b, max_rows=10**7, stats=None):
    """Table of the formula's values over assignments of its free variables;
    the free variables that index no row are its wildcards."""
    free = _require_valid(f).free
    _check_signature(_infer_signature(f), b, "formula")
    explicit, t = _Evaluator(max_rows, stats).eval(f, b)
    data = {(k,): v for k, v in t.rows.items()} if len(explicit) == 1 else t.rows
    return CountTable(explicit, tuple(sorted(free.difference(explicit))), b.universe, data)


def reference_core_of(p, cap=12):
    """The exhaustive core search: the first image, over every size from |L|
    upward and in itertools.combinations order within a size, that the pair
    maps into with its liberal elements fixed. equiv.core_of must return the
    same pair."""
    check_core_cap(p, cap)
    universe = p.struct.universe
    n = len(universe)
    lib = p.liberal_set
    lib_positions = {i for i, e in enumerate(universe) if e in lib}
    pin = {e: e for e in universe if e in lib}
    find = homomorphism_search(p.struct, pin)
    for k in range(max(1, len(lib)), n + 1):
        for positions in itertools.combinations(range(n), k):
            if not lib_positions <= set(positions):
                continue
            image = [universe[i] for i in positions]
            target = _induced(p.struct, image)
            if find(target, pin) is not None:
                return PpPair(struct=target, liberal=p.liberal)
    raise InternalInvariant("core search exhausted without finding the identity")


# The nested-loop oracle that preceded the compiled, pruned search: every
# binder of an exists chain is set before any atom under it is checked. Kept
# as the reference epquery.oracle_count must agree with, count for count and
# refusal for refusal.

_UNBOUND = object()


def _reference_satisfies(f, h, b):
    if isinstance(f, Atom):
        return tuple(h[a] for a in f.args) in b.tuples(f.symbol)
    if isinstance(f, And):
        return _reference_satisfies(f.left, h, b) and _reference_satisfies(f.right, h, b)
    if isinstance(f, Or):
        return _reference_satisfies(f.left, h, b) or _reference_satisfies(f.right, h, b)
    if isinstance(f, Exists):
        # the binder shadows an outer binding of its name until it returns
        outer = h.get(f.var, _UNBOUND)
        found = False
        for val in b.universe:
            h[f.var] = val
            if _reference_satisfies(f.body, h, b):
                found = True
                break
        if outer is _UNBOUND:
            del h[f.var]
        else:
            h[f.var] = outer
        return found
    if isinstance(f, Top):
        return True
    raise TypeError(f"not an ep-formula node: {f!r}")


def reference_oracle_count(q, b, max_enum=10**8):
    """|q(B)| by plain full enumeration: every assignment of the liberal
    variables, and below each `exists` every value of its variable, by
    recursion over the formula with no early checks; refused with
    oracle_count's message above the same cap."""
    n = len(b.universe)
    bound = sum(isinstance(node, Exists) for node in subformulas(q.formula))
    work = n ** (len(q.liberal) + bound)
    if work > max_enum:
        raise CapExceeded(
            f"oracle_count refuses {work} > {max_enum} enumerations; "
            "use the compiled engine for inputs of this size"
        )
    count = 0
    for values in itertools.product(b.universe, repeat=len(q.liberal)):
        if _reference_satisfies(q.formula, dict(zip(q.liberal, values)), b):
            count += 1
    return count


def align_via_renaming(target, source):
    """Rename source's elements so its liberal set becomes target's (via a
    witnessing bijection) and the result is logically equivalent to target.

    The renaming is a bijection on source's universe, so the primal graph and
    every decomposition-derived quantity of source are preserved.
    """
    ok, witness = counting_equivalent(target, source)
    if not ok:
        raise SharpqError("pairs are not counting equivalent; cannot align")
    rho = {e: witness.backward[e] for e in source.liberal}
    taken = set(rho.values())
    renaming = dict(rho)
    for e in source.struct.universe:
        if e in renaming:
            continue
        candidate = e
        i = 0
        while candidate in taken:
            i += 1
            candidate = f"{e}${i}"
        renaming[e] = candidate
        taken.add(candidate)
    struct = make_structure(
        source.struct.sig,
        [renaming[e] for e in source.struct.universe],
        {
            name: [tuple(renaming[x] for x in t) for t in source.struct.tuples(name)]
            for name in source.struct.sig.names()
        },
    )
    aligned = PpPair(struct=struct, liberal=tuple(renaming[e] for e in source.liberal))
    ok, _ = logically_equivalent(target, aligned)
    if not ok:
        raise InternalInvariant("aligned pair failed the logical-equivalence check")
    if len(primal_graph(aligned).edges) != len(primal_graph(source).edges):
        raise InternalInvariant("alignment changed the primal graph")
    return aligned


def reduce_to_basic(f, q, *, samples=None, max_dnf=4096, core_cap=12, tw_cap=24):
    """Turn any representation of a disjunction-free query into a basic one
    without increasing width or #-width.

    The input is first checked against the query's oracle on sample
    structures, then normalized to a canonical linear combination; a
    representation of a disjunction-free query normalizes to a single
    coefficient-1 term, whose pair is aligned back onto the query's variables
    and recompiled along a width-minimal quantifier-aware decomposition."""
    if samples is None:
        sig = merge_signatures(q.sig, _infer_signature(f))
        samples = _seeded_structures(sig)
    ok, counterexample = check_represents(f, q, samples)
    if not ok:
        raise SharpqError(
            "the formula does not represent the query: counts differ on a "
            f"{len(counterexample.universe)}-element sample structure"
        )
    lc = canonical_lc(flatten(f, max_dnf=max_dnf), core_cap=core_cap)
    if len(lc.entries) != 1 or lc.entries[0][0] != 1:
        raise SharpqError(
            "canonical form is not a single unit term; the sentence does not "
            "represent a disjunction-free query"
        )
    aligned = align_via_renaming(pp_to_pair(q), lc.entries[0][1])
    _, td = compute_qaw(aligned, cap=tw_cap)
    return pp_to_basic_sharp(aligned, td)
