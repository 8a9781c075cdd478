"""Compilation pipeline: queries -> width-minimal counting formulas.

The pipeline has two directions. Forward: a disjunction-free query becomes a
basic counting sentence whose width matches the quantifier-aware width of its
core (minimize_pp), and a general query becomes a sum of such sentences with
integer coefficients (minimize_ep). Backward: any counting sentence is
normalized into a canonical linear combination of pairs (flatten +
canonical_lc), which is the engine behind equality-of-representations checks
and reduce_to_basic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce

from .decomp import (
    TreeDecomposition,
    _bfs_order,
    _tops_and_depths,
    compute_qaw,
    is_quantifier_aware,
    validate_td,
)
from .epquery import (
    TOP,
    VARIABLES,
    And,
    Atom,
    Exists,
    LiberalQuery,
    Or,
    PpPair,
    Top,
    _has_or,
    _all_variables,
    _infer_signature,
    _rename_apart,
    exists_components,
    fold,
    oracle_count,
    pair_to_pp,
    pp_to_pair,
    primal_graph,
    serialize_pair,
    subformulas,
    to_dnf_pp,
)
from .equiv import align_via_renaming, core_of
from .errors import CapExceeded, EngineDisagreement, InternalInvariant, SharpqError
from .relstore import Signature, make_structure
from .sharpcore import (
    _EP_NODES,
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    _require_sentence,
    _require_valid,
    check_represents,
    eval_sentence,
    naive_representation,
    validate,
    width,
)

# ---------------------------------------------------------------------------
# Variable bookkeeping
# ---------------------------------------------------------------------------


_SHARP_VARIABLES = {
    **VARIABLES,
    Cast: lambda node: node.liberal,
    **dict.fromkeys((Project, Expand), lambda node: node.vars),
}


def _sharp_variables(f):
    """Every variable name occurring anywhere in a counting formula."""
    return _all_variables(f, _SHARP_VARIABLES)


class _FreshNames:
    """Mint names v$1, v$2, ... skipping anything already taken."""

    def __init__(self, taken):
        self.taken = set(taken)
        self.counter = itertools.count(1)

    def fresh(self):
        while True:
            name = f"v${next(self.counter)}"
            if name not in self.taken:
                self.taken.add(name)
                return name

    def take(self, k):
        return [self.fresh() for _ in range(k)]


def _rename(f, ren):
    """Apply a total variable renaming to an ep or counting formula (binders
    included)."""

    def names(vs):
        return [ren.get(v, v) for v in vs]

    return fold(f, {
        Atom: lambda node: Atom(node.symbol, tuple(names(node.args))),
        Exists: lambda node, body: Exists(ren.get(node.var, node.var), body),
        Cast: lambda node, ep: Cast(ep=ep, liberal=tuple(names(node.liberal))),
        **dict.fromkeys((Project, Expand), lambda node, child: type(node)(names(node.vars), child)),
        **dict.fromkeys((And, Or, Times, Plus), lambda node, left, right: type(node)(left, right)),
        **dict.fromkeys((Top, Const), lambda node: node),
    })


def _compile_terms(terms, tw_cap):
    """(sum, largest qaw) for (constant, pair) terms: each pair compiled along a
    width-minimal quantifier-aware decomposition and multiplied by its
    constant, the products renamed apart and summed left to right."""
    products, widths = [], []
    for const, pair in terms:
        qaw, td = compute_qaw(pair, cap=tw_cap)
        products.append(Times(const, pp_to_basic_sharp(pair, td)))
        widths.append(qaw)
    names = _FreshNames(set().union(*map(_sharp_variables, products)))
    renamed = [
        _rename(term, {v: names.fresh() for v in sorted(_sharp_variables(term))})
        for term in products
    ]
    return reduce(Plus, renamed), max(widths)


# ---------------------------------------------------------------------------
# Width-bounded rewriting of a pair along a tree decomposition
# ---------------------------------------------------------------------------


def _topmost(td, depth, nodes):
    """The node of `nodes` closest to the root (unique when `nodes` is connected)."""
    return min(nodes, key=lambda t: (depth[t], t))


def _atom_home(td, depth, args):
    """Topmost node whose bag contains all of the atom's variables."""
    need = set(args)
    hosts = [t for t in td.nodes if need <= td.bags[t]]
    if not hosts:
        raise InternalInvariant(f"no bag contains the atom variables {sorted(need)}")
    return _topmost(td, depth, hosts)


def rewrite_width_bounded(p, td):
    """Nest a pair's prenex formula along a tree decomposition of its primal
    graph: each quantified variable is bound at its topmost bag, each atom is
    placed at the topmost bag containing it. The result is logically
    equivalent to pair_to_pp(p).formula; when the root bag contains the whole
    liberal set, every subformula has at most (width + 1) free variables.
    """
    g = primal_graph(p)
    problems = validate_td(td, g)
    if problems:
        raise SharpqError(
            "decomposition does not fit the pair's primal graph: " + "; ".join(problems)
        )
    kids = td.children()
    top, depth = _tops_and_depths(td)
    quantified = set(p.struct.universe) - p.liberal_set
    atoms_at = {t: [] for t in td.nodes}
    for sym, tup in p.struct.all_facts():
        atoms_at[_atom_home(td, depth, tup)].append(Atom(sym, tup))
    built = {}
    for t in reversed(_bfs_order(td)):  # children before parents
        parts = atoms_at[t] + [built[c] for c in kids[t] if not isinstance(built[c], Top)]
        if not parts:
            built[t] = TOP
            continue
        body = reduce(And, parts)
        binders = sorted(v for v in td.bags[t] if v in quantified and top[v] == t)
        for v in reversed(binders):
            body = Exists(v, body)
        built[t] = body
    return built[td.root]


# ---------------------------------------------------------------------------
# Pair -> basic counting sentence along a quantifier-aware decomposition
# ---------------------------------------------------------------------------


def pp_to_basic_sharp(p, td):
    """Compile a pair into a basic counting sentence along a quantifier-aware
    tree decomposition with an empty root bag.

    The recursion runs over the liberal part of each bag: atoms whose
    variables are all liberal become casts at their topmost bag; each
    existential block becomes one cast of its width-bounded rewriting,
    multiplied in at the topmost bag meeting the block's interior; bag changes
    along edges become projections (variables leaving) and expansions
    (variables entering). The sentence's value on any structure equals the
    pair's answer count, and its width is at most the decomposition's bag size.
    """
    ok, violation = is_quantifier_aware(td, p)
    if not ok:
        x, y, comp = violation
        raise SharpqError(
            f"decomposition is not quantifier-aware: liberal {y!r} is not above "
            f"quantified {x!r} for the block {sorted(comp)}"
        )
    if td.bags[td.root]:
        raise SharpqError("pp_to_basic_sharp needs an empty root bag")
    kids = td.children()
    _, depth = _tops_and_depths(td)
    quantified = set(p.struct.universe) - p.liberal_set
    eff = {t: frozenset(td.bags[t]) - quantified for t in td.nodes}

    liberal_atoms_at = {t: [] for t in td.nodes}
    for sym, tup in p.struct.all_facts():
        if quantified.isdisjoint(tup):
            liberal_atoms_at[_atom_home(td, depth, tup)].append(Atom(sym, tup))

    casts_at = {t: [] for t in td.nodes}
    for comp in sorted(exists_components(p), key=sorted):
        interior = comp - p.liberal_set
        boundary = comp & p.liberal_set
        hosts = [t for t in td.nodes if td.bags[t] & interior]
        d = _topmost(td, depth, hosts)
        facts = [
            (sym, tup)
            for sym, tup in p.struct.all_facts()
            if not interior.isdisjoint(tup)
        ]
        if facts:
            universe = sorted(boundary) + sorted(interior)
            rels = {}
            for sym, tup in facts:
                rels.setdefault(sym, set()).add(tup)
            sub_pair = PpPair(
                struct=make_structure(p.struct.sig, universe, rels),
                liberal=tuple(sorted(boundary)),
            )
            sub_td = _restrict_td(td, set(hosts), comp)
            body = rewrite_width_bounded(sub_pair, sub_td)
        else:
            body = TOP
        casts_at[d].append(Cast(ep=body, liberal=tuple(sorted(boundary))))

    built = {}
    for t in reversed(_bfs_order(td)):  # children before parents
        factors = [Cast(ep=a, liberal=tuple(sorted(eff[t]))) for a in liberal_atoms_at[t]]
        for cast in casts_at[t]:
            if isinstance(cast.ep, Top):
                continue
            extra = eff[t] - frozenset(cast.liberal)
            factors.append(Expand(extra, cast) if extra else cast)
        for c in kids[t]:
            sub = built[c]
            drop = eff[c] - eff[t]
            add = eff[t] - eff[c]
            if not drop and isinstance(sub, Cast) and isinstance(sub.ep, Top):
                continue
            if drop:
                sub = Project(drop, sub)
            if add:
                sub = Expand(add, sub)
            factors.append(sub)
        empty = Cast(ep=TOP, liberal=tuple(sorted(eff[t])))
        built[t] = reduce(Times, factors) if factors else empty
    sentence = built[td.root]
    report = validate(sentence)
    if not report.ok or report.free:
        raise InternalInvariant(
            "compiled sentence is malformed: "
            + "; ".join(v.message for v in report.violations)
        )
    return sentence


def _restrict_td(td, hosts, keep):
    """Sub-decomposition on `hosts` with bags cut down to `keep`."""
    parent = {
        t: (td.parent[t] if td.parent[t] in hosts else None) for t in sorted(hosts)
    }
    bags = {t: frozenset(td.bags[t]) & keep for t in hosts}
    return TreeDecomposition(nodes=tuple(sorted(hosts)), parent=parent, bags=bags)


# ---------------------------------------------------------------------------
# Basic counting sentence -> pair
# ---------------------------------------------------------------------------


def basic_sharp_to_pp(f):
    """Read a basic counting sentence back as a pair: drop every quantifier,
    turn products into conjunction, and take as liberal set every variable
    that is free somewhere in the sentence. Cast-internal bound variables are
    renamed apart first. A projection variable that the child never mentions
    multiplies the count by the universe size, so it becomes an isolated
    liberal element of the pair. The pair has the same count as the sentence
    on every structure."""
    _require_sentence(_require_valid(f).free, "basic_sharp_to_pp")
    nodes = subformulas(f)
    if any(isinstance(node, (Plus, Const, Or)) for node in nodes):
        raise SharpqError(
            "basic_sharp_to_pp needs a basic formula (no sums, no constants) "
            "with disjunction-free casts"
        )

    # In a valid sentence a variable is free somewhere iff a cast's liberal
    # set or an expansion holds it, and a projection variable the child never
    # mentions occurs nowhere else (products need disjoint closed sets). So
    # the liberal set is the union of the casts' liberal sets and the
    # Project/Expand variables; only cast binders can clash with it, and
    # those are renamed apart below.
    liberal, casts = set(), []
    for node in nodes:
        if isinstance(node, Cast):
            liberal.update(node.liberal)
            casts.append(node)
        elif isinstance(node, (Project, Expand)):
            liberal |= node.vars
    liberal = tuple(sorted(liberal))
    used = set(liberal)
    bound_order = []
    rels = {}
    for cast in casts:
        for node in subformulas(_rename_apart(cast.ep, frozenset(used))):
            if isinstance(node, Atom):
                rels.setdefault(node.symbol, set()).add(node.args)
            elif isinstance(node, Exists):
                bound_order.append(node.var)
                used.add(node.var)
    universe = list(liberal) + bound_order
    if not universe:
        universe = ["pad$1"]
    sig = _infer_signature(f)
    return PpPair(struct=make_structure(sig, universe, rels), liberal=liberal)


def _merge(facts, u, v):
    """The facts with element u replaced by v."""
    return {(sym, tuple(v if x == u else x for x in tup)) for sym, tup in facts}


def _fold_quantified(p):
    """Collapse quantified elements by single-point retractions.

    A quantified element u folds onto another element v when replacing u by v
    turns every fact containing u into an existing fact; the merge map is then
    a retraction, so the folded pair is logically equivalent and has the same
    core. Folding is polynomial and undoes the renamed-apart duplicate copies
    that inclusion-exclusion merging introduces, keeping pairs small before
    the capped exponential core search."""
    lib = set(p.liberal)
    universe = list(p.struct.universe)
    facts = set(p.struct.all_facts())

    def first_fold():
        """The first (u, v) in universe order such that u folds onto v; only
        u's own facts are rewritten to test it."""
        for u in universe:
            if u not in lib:
                own = [fact for fact in facts if u in fact[1]]
                for v in universe:
                    if v != u and _merge(own, u, v) <= facts:
                        return u, v
        return None

    while (step := first_fold()) is not None:
        universe.remove(step[0])
        facts = _merge(facts, *step)
    rels = {}
    for sym, tup in facts:
        rels.setdefault(sym, set()).add(tup)
    struct = make_structure(p.struct.sig, universe, rels)
    return PpPair(struct=struct, liberal=p.liberal)


# ---------------------------------------------------------------------------
# minimize_pp
# ---------------------------------------------------------------------------


def minimize_pp(q, *, core_cap=12, tw_cap=24):
    """Width-minimal basic sentence for a disjunction-free query.

    Pipeline: pair view -> core -> quantifier-aware decomposition of minimum
    width -> basic sentence. Returns (sentence, width) where width is the
    quantifier-aware width of the core; no representation of q has smaller
    width."""
    if _has_or(q.formula):
        raise SharpqError("minimize_pp needs a disjunction-free query")
    core = core_of(_fold_quantified(pp_to_pair(q)), cap=core_cap)
    qaw, td = compute_qaw(core, cap=tw_cap)
    return pp_to_basic_sharp(core, td), qaw


def table_union_sentence(q, *, max_dnf=4096, core_cap=12, tw_cap=24):
    """The naive representation P L C[d1 | ... | dk; L] of a query with a
    disjunction, when its width is at most the largest quantifier-aware width
    of the disjuncts' cores (as minimize_pp computes them); None when the
    query has no disjunction, when the naive cast is wider, or when a cap
    stops the DNF, a core search or a treewidth.

    Evaluating the naive cast takes the union of the disjuncts' answer tables
    in one pass, so counting it builds none of the 2^k - 1 inclusion-exclusion
    terms. Every table it builds has at most |B|^width rows, so its data
    exponent is no larger than the widest disjunct's."""
    if not _has_or(q.formula):
        return None
    naive = naive_representation(q)
    try:
        qaw = max(
            compute_qaw(core_of(_fold_quantified(pp_to_pair(d)), cap=core_cap), cap=tw_cap)[0]
            for d in to_dnf_pp(q, max_disjuncts=max_dnf)
        )
    except CapExceeded:
        return None
    return naive if width(naive) <= qaw else None


# ---------------------------------------------------------------------------
# cast_ep: inclusion-exclusion over the disjuncts
# ---------------------------------------------------------------------------


def cast_ep(q, max_dnf=4096):
    """Rewrite the cast of a query with disjunctions into sums of casts of
    disjunction-free formulas by inclusion-exclusion over the DNF disjuncts.
    The result is pointwise equal to Cast(q.formula, L) and its width is no
    larger. The 2^k - 1 terms of k disjuncts are capped by `max_dnf` too,
    before any term is built."""
    disjuncts = to_dnf_pp(q, max_disjuncts=max_dnf)
    terms_needed = 2 ** len(disjuncts) - 1
    if terms_needed > max_dnf:
        raise CapExceeded(
            f"inclusion-exclusion over {len(disjuncts)} disjuncts needs "
            f"{terms_needed} > {max_dnf} terms"
        )
    lib = frozenset(q.liberal)
    lib_tuple = tuple(sorted(q.liberal))
    terms = []
    for size in range(1, len(disjuncts) + 1):
        for subset in itertools.combinations(range(len(disjuncts)), size):
            sign = 1 if size % 2 == 1 else -1
            casts = [Cast(ep=disjuncts[i].formula, liberal=lib_tuple) for i in subset]
            terms.append(reduce(Times, casts, Expand(lib, Const(sign))))
    return reduce(Plus, terms)


# ---------------------------------------------------------------------------
# flatten: cast_ep + sum lifting + constant extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSharp:
    """A counting formula as a sum of terms (constant part, basic part).

    The constant part has the shape E V1 P V2 n (value n*|B|^|V2| at every
    assignment of V1); the basic part contains no sums and no constants; both
    share the term's free set, so the folded-out sum is a valid formula
    pointwise equal to the input."""

    terms: tuple
    free: frozenset


def as_formula(fs):
    """Fold a FlatSharp back into a single counting formula."""
    if not fs.terms:
        return Expand(fs.free, Const(0))
    return reduce(Plus, [Times(const, basic) for const, basic in fs.terms])


# A walker over the counting nodes leaves each cast's ep formula as it is.
_EP_AS_IS = dict.fromkeys(_EP_NODES, lambda node, *kids: node)


def _cast_all(f, max_dnf):
    """Stage 1: replace every cast by its inclusion-exclusion normal form."""

    def cast(node, ep):
        sig = _infer_signature(ep)
        q = LiberalQuery(name="cast", formula=ep, liberal=tuple(node.liberal), sig=sig)
        return cast_ep(q, max_dnf=max_dnf)

    return fold(f, {
        **_EP_AS_IS,
        Cast: cast,
        **dict.fromkeys((Project, Expand), lambda node, child: type(node)(node.vars, child)),
        **dict.fromkeys((Times, Plus), lambda node, left, right: type(node)(left, right)),
        Const: lambda node: node,
    })


def _lift_sums(f):
    """Stage 2: distribute so that sums sit only at the top; returns the
    sum-free summands left to right."""
    return fold(f, {
        **_EP_AS_IS,
        Cast: lambda node, ep: [node],
        Const: lambda node: [node],
        Plus: lambda node, lefts, rights: lefts + rights,
        **dict.fromkeys((Project, Expand), lambda node, subs: [
            type(node)(node.vars, s) for s in subs
        ]),
        Times: lambda node, lefts, rights: [Times(a, b) for a in lefts for b in rights],
    })


def _normmult_project(node, child):
    n, pow_, basic, free = child
    if basic is None:
        return n, pow_ + len(node.vars), None, free - node.vars
    return n, pow_, Project(node.vars, basic), free - node.vars


def _normmult_expand(node, child):
    n, pow_, basic, free = child
    return n, pow_, None if basic is None else Expand(node.vars, basic), free | node.vars


def _normmult_times(node, left, right):
    (nl, pl, bl, free), (nr, pr, br, _) = left, right
    basic = br if bl is None else bl if br is None else Times(bl, br)
    return nl * nr, pl + pr, basic, free


def _normmult(f):
    """Stage 3: split a sum-free formula into (n, pow, basic, free) with
    value n*|B|^pow times the basic part (basic=None when fully constant)."""
    return fold(f, {
        **_EP_AS_IS,
        Const: lambda node: (node.n, 0, None, frozenset()),
        Cast: lambda node, ep: (1, 0, node, frozenset(node.liberal)),
        Project: _normmult_project,
        Expand: _normmult_expand,
        Times: _normmult_times,
    })


def flatten(f, max_dnf=4096):
    """Normalize a counting formula into a FlatSharp pointwise equal to it.

    Stages: inclusion-exclusion on every cast, lifting all sums to the top,
    then splitting each summand into a constant part E V1 P V2 n and a basic
    part. Width never increases."""
    report = _require_valid(f)
    staged = _cast_all(f, max_dnf)
    summands = _lift_sums(staged)
    names = _FreshNames(_sharp_variables(staged) | _sharp_variables(f))
    terms = []
    for s in summands:
        n, pow_, basic, free = _normmult(s)
        v2 = frozenset(names.take(pow_))
        const = Expand(free, Project(v2, Const(n)))
        if basic is None:
            basic = Cast(ep=TOP, liberal=tuple(sorted(free)))
        terms.append((const, basic))
    return FlatSharp(terms=tuple(terms), free=report.free)


# ---------------------------------------------------------------------------
# Canonical linear combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearCombination:
    """Ordered (coefficient, pair) entries: coefficients nonzero, pairs
    pairwise not counting-equivalent and canonically labeled, order fixed by
    (liberal count, fact count, serialization)."""

    entries: tuple


def _canonical_pair(p, cap=200000):
    """Relabel a pair to canonical names (liberal l0.., quantified q0..),
    choosing the lexicographically least serialization. Counting-equivalent
    cores canonicalize to the identical pair.

    The result is the least serialization over all |L|!*|Q|! relabelings;
    `cap` bounds that worst case and is checked before any work. The search
    is a branch and bound that finds the same pair without trying every
    ordering. Names are handed out in their string order, and fact lines sort
    as (symbol, tuple of name strings), so a partial assignment bounds the
    sorted fact lines from below; a branch whose bound is not below the best
    complete relabeling found so far is cut. A candidate whose swap with an
    already tried one is an automorphism of the facts (star leaves, isolated
    liberal elements) is skipped, since its branch serializes identically.
    """
    universe = p.struct.universe
    lib = list(p.liberal)
    quant = [v for v in universe if v not in set(lib)]
    if math.factorial(len(lib)) * math.factorial(len(quant)) > cap:
        raise CapExceeded(
            f"canonical labeling over {len(lib)}!*{len(quant)}! orderings exceeds {cap}"
        )
    facts = list(p.struct.all_facts())
    fact_set = set(facts)
    incident = {v: [] for v in universe}
    for fact in facts:
        for v in set(fact[1]):
            incident[v].append(fact)
    lib_names = [f"l{i}" for i in range(len(lib))]
    quant_names = [f"q{i}" for i in range(len(quant))]
    # slot k takes the k-th name in string order ("l10" < "l2"); "(" and ","
    # sort below every name character, so fact lines order as
    # (symbol, tuple of slots)
    slot_names = sorted(lib_names) + sorted(quant_names)
    rank = {}
    best = best_rank = None
    swaps = {}

    def interchangeable(a, b):
        if (a, b) not in swaps:
            ren = {a: b, b: a}
            swaps[a, b] = all(
                (sym, tuple(ren.get(v, v) for v in tup)) in fact_set
                for sym, tup in incident[a] + incident[b]
            )
        return swaps[a, b]

    def bound():
        """Sorted fact keys with every unnamed element at the next free slot.
        Each key is at most its value in any completion, so the sorted list
        is at most the completion's, entry by entry."""
        k = len(rank)
        return sorted((sym, tuple(rank.get(v, k) for v in tup)) for sym, tup in facts)

    def search(k):
        nonlocal best, best_rank
        children = []
        for v in lib if k < len(lib) else quant:
            if v in rank or any(interchangeable(u, v) for _, u in children):
                continue
            rank[v] = k
            children.append((bound(), v))
            del rank[v]
        children.sort()
        for low, v in children:
            # no completion of this branch, or of a later one, beats best
            if best is not None and low >= best:
                break
            rank[v] = k
            if k + 1 < len(universe):
                search(k + 1)
            else:
                best, best_rank = low, dict(rank)
            del rank[v]

    search(0)
    symbols = {sym: len(tup) for sym, tup in facts}
    sig = Signature(tuple(sorted(symbols.items())))
    rels = {}
    for sym, tup in facts:
        rels.setdefault(sym, set()).add(tuple(slot_names[best_rank[v]] for v in tup))
    return PpPair(
        struct=make_structure(sig, lib_names + quant_names, rels),
        liberal=tuple(lib_names),
    )


def _fact_count(p):
    return sum(1 for _ in p.struct.all_facts())


def canonical_lc(fs, *, core_cap=12, canon_cap=200000):
    """Canonical linear combination of a FlatSharp sentence.

    Each term's basic part becomes a pair, is cored, gets one fresh liberal
    element per |B|-power of its constant part, and is canonically labeled;
    equal pairs merge by adding coefficients, zero coefficients drop, and the
    entries are sorted by (liberal count, fact count, serialization)."""
    _require_sentence(fs.free, "canonical_lc")
    merged = {}
    order = []
    for const, basic in fs.terms:
        coeff, pow_ = _read_constant(const)
        if coeff == 0:
            continue
        pair = core_of(_fold_quantified(basic_sharp_to_pp(basic)), cap=core_cap)
        if pow_:
            taken = set(pair.struct.universe)
            extra = []
            i = 0
            while len(extra) < pow_:
                name = f"e${i}"
                if name not in taken:
                    extra.append(name)
                i += 1
            pair = PpPair(
                struct=make_structure(
                    pair.struct.sig,
                    list(pair.struct.universe) + extra,
                    dict(pair.struct.relations),
                ),
                liberal=tuple(pair.liberal) + tuple(extra),
            )
        pair = _canonical_pair(pair, cap=canon_cap)
        key = serialize_pair(pair)
        if key in merged:
            merged[key][0] += coeff
        else:
            merged[key] = [coeff, pair]
            order.append(key)
    entries = [
        (coeff, pair)
        for coeff, pair in (merged[k] for k in order)
        if coeff != 0
    ]
    entries.sort(key=lambda e: (len(e[1].liberal), _fact_count(e[1]), serialize_pair(e[1])))
    return LinearCombination(entries=tuple(entries))


def _read_constant(const):
    """Extract (n, |V2|) from a constant part E V1 P V2 n."""
    node = const
    if isinstance(node, Expand):
        node = node.child
    if isinstance(node, Project):
        pow_ = len(node.vars)
        node = node.child
    else:
        pow_ = 0
    if not isinstance(node, Const):
        raise SharpqError(f"constant part not in normal form: {const!r}")
    return node.n, pow_


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


# ---------------------------------------------------------------------------
# reduce_to_basic and minimize_ep
# ---------------------------------------------------------------------------


def _seeded_structures(sig, count=20, max_size=3, seed=0):
    """Deterministic sample structures over a signature, for representation
    checks."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        size = 1 + i % max_size
        universe = [f"b{j}" for j in range(size)]
        rels = {}
        for name, arity in sig.symbols:
            chosen = {
                tup
                for tup in itertools.product(universe, repeat=arity)
                if rng.random() < 0.5
            }
            if chosen:
                rels[name] = chosen
        out.append(make_structure(sig, universe, rels))
    return out


def _merge_signatures(a, b):
    symbols = dict(a.symbols)
    for name, arity in b.symbols:
        if symbols.setdefault(name, arity) != arity:
            raise SharpqError(
                f"relation {name} has conflicting arities {symbols[name]} and {arity}"
            )
    return Signature(tuple(sorted(symbols.items())))


def reduce_to_basic(f, q, *, samples=None, max_dnf=4096, core_cap=12, tw_cap=24):
    """Turn any representation of a disjunction-free query into a basic one
    without increasing width or #-width.

    The input is first checked against the query's oracle on sample
    structures, then normalized to a canonical linear combination; a
    representation of a disjunction-free query normalizes to a single
    coefficient-1 term, whose pair is aligned back onto the query's variables
    and recompiled along a width-minimal quantifier-aware decomposition."""
    if samples is None:
        sig = _merge_signatures(q.sig, _infer_signature(f))
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


def compile_flat(fs, *, tw_cap=24):
    """Decomposition-guided compilation of a flat sentence, term by term,
    without core minimization: each basic part is read back as a pair and
    recompiled along a width-minimal quantifier-aware decomposition of that
    pair as written. Constant parts are kept verbatim; terms are renamed
    apart. Returns (formula, width) with width the maximum term width. Unlike
    minimize_ep this never searches for endomorphisms, so it stays feasible
    on terms with many variables."""
    _require_sentence(fs.free, "compile_flat")
    if not fs.terms:
        return Const(0), 0
    return _compile_terms(((c, basic_sharp_to_pp(basic)) for c, basic in fs.terms), tw_cap)


def minimize_ep(q, *, max_dnf=4096, core_cap=12, tw_cap=24, canon_cap=200000):
    """Width-minimal representation of an arbitrary query.

    The naive representation is flattened and canonicalized; every term of
    the canonical linear combination is compiled along a width-minimal
    quantifier-aware decomposition of its (already cored) pair; the terms are
    renamed apart and reassembled as sum of Const(c_i) * sentence_i. Returns
    (formula, width) with width the maximum term width."""
    f = naive_representation(q)
    lc = canonical_lc(
        flatten(f, max_dnf=max_dnf), core_cap=core_cap, canon_cap=canon_cap
    )
    if not lc.entries:
        return Const(0), 0
    return _compile_terms(((Const(c), pair) for c, pair in lc.entries), tw_cap)
