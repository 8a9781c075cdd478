"""Compilation pipeline: queries -> width-minimal counting formulas.

A query becomes a sum of basic counting sentences, each as wide as the
quantifier-aware width of its core (minimize_ep): the inclusion-exclusion
terms of its DNF disjuncts are built as pairs and merged into a canonical
linear combination (canonical_lc). `count` (count_sentence) takes a union's
naive cast instead when it is no wider, one width-bounded cast of the
disjuncts of a one-liberal query, and the unmerged terms when a cap refuses
the merge. `compile` (compile_flat) compiles the terms of every disjunct
unmerged, without cores. Any counting formula can also be flattened into a
sum of terms (flatten), for `sharpq flatten`.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import reduce

from .decomp import _reroot, _walk, compute_qaw, exact_treewidth
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
    _exists_components,
    _has_or,
    _all_variables,
    _infer_signature,
    fold,
    pp_to_pair,
    primal_graph,
    serialize_pair,
    to_dnf_pp,
)
from .equiv import check_core_cap, core_of
from .errors import CapExceeded, InternalInvariant
from .relstore import Record, Signature, _set, homomorphism_search, make_structure
from .sharpcore import (
    _EP_NODES,
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    _require_valid,
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
    """(sum, largest qaw) for (integer coefficient, pair) terms: each pair
    compiled by pp_to_basic_sharp times Const(coefficient), the products
    renamed apart and summed left to right; (Const(0), 0) for no terms."""
    products, widths = [], []
    for coeff, pair in terms:
        sentence, qaw = pp_to_basic_sharp(pair, tw_cap)
        products.append(Times(Const(coeff), sentence))
        widths.append(qaw)
    if not products:
        return Const(0), 0
    names = _FreshNames(set().union(*map(_sharp_variables, products)))
    renamed = [
        _rename(term, {v: names.fresh() for v in sorted(_sharp_variables(term))})
        for term in products
    ]
    return reduce(Plus, renamed), max(widths)


# ---------------------------------------------------------------------------
# Width-bounded nesting of facts along a tree decomposition
# ---------------------------------------------------------------------------


def _home(walk, args):
    """The topmost node whose bag holds all of args in a valid decomposition:
    the deepest of their topmost nodes, as subtrees that meet pairwise share
    a node and those tops lie on one path from the root."""
    _, _, top, depth = walk
    return max((top[v] for v in args), key=depth.__getitem__)


def _nest(td, walk, facts, quantified):
    """The conjunction of the atoms of `facts` with the `quantified`
    variables bound, nested along a tree decomposition td of their primal
    graph (walked: `decomp._walk`): each quantified variable is bound at its
    topmost bag, each atom placed at the topmost bag holding it. The result
    is logically equivalent to the prenex formula; when the root bag holds
    every variable left free, every subformula has at most (width + 1) free
    variables. A node holding none of them passes up its one nonempty child
    unchanged, so facts and quantified variables whose hosts form a subtree
    nest as they would along td cut down to it."""
    kids, order, top, _ = walk
    atoms_at = {t: [] for t in order}
    for sym, tup in facts:
        atoms_at[_home(walk, tup)].append(Atom(sym, tup))
    built = {}
    for t in reversed(order):  # children before parents
        parts = atoms_at[t] + [built[c] for c in kids[t] if not isinstance(built[c], Top)]
        if not parts:
            built[t] = TOP
            continue
        body = reduce(And, parts)
        binders = sorted(v for v in td.bags[t] if v in quantified and top[v] == t)
        for v in reversed(binders):
            body = Exists(v, body)
        built[t] = body
    return built[order[0]]


# ---------------------------------------------------------------------------
# Pair -> basic counting sentence along a quantifier-aware decomposition
# ---------------------------------------------------------------------------


def pp_to_basic_sharp(p, tw_cap=24):
    """(sentence, qaw): a pair compiled into a basic counting sentence along
    compute_qaw's witness, a width-minimal quantifier-aware nice
    decomposition with an empty root bag, checked where it is built; tw_cap
    is compute_qaw's cap.

    The recursion runs over the liberal part of each bag: atoms whose
    variables are all liberal become casts at their topmost bag; each
    existential block becomes one cast of its nesting (_nest) along the
    witness itself, multiplied in at the topmost bag meeting the block's
    interior; bag changes along edges become projections (variables
    leaving) and expansions (variables entering). The sentence's value on
    any structure equals the pair's answer count, and its width is at most
    qaw.
    """
    qaw, td = compute_qaw(p, cap=tw_cap)
    lib = p.liberal_set
    walk = kids, order, top, depth = _walk(td)
    quantified = set(p.struct.universe) - lib
    eff = {t: frozenset(td.bags[t]) - quantified for t in td.nodes}
    facts = list(p.struct.all_facts())

    factors_at = {t: [] for t in td.nodes}
    for sym, tup in facts:
        if quantified.isdisjoint(tup):
            home = _home(walk, tup)
            factors_at[home].append(Cast(ep=Atom(sym, tup), liberal=tuple(sorted(eff[home]))))
    for comp in sorted(_exists_components(primal_graph(p), lib), key=sorted):
        interior = comp - lib
        boundary = comp & lib
        block = [(sym, tup) for sym, tup in facts if not interior.isdisjoint(tup)]
        if not block:
            # an isolated quantified vertex, true on every universe
            continue
        # the interior's hosts form a subtree; its top is the shallowest top
        d = min((top[x] for x in interior), key=depth.__getitem__)
        cast = Cast(ep=_nest(td, walk, block, interior), liberal=tuple(sorted(boundary)))
        extra = eff[d] - boundary
        factors_at[d].append(Expand(extra, cast) if extra else cast)

    built = {}
    for t in reversed(order):  # children before parents
        factors = factors_at[t]
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
    sentence = built[order[0]]
    report = validate(sentence)
    if not report.ok or report.free:
        raise InternalInvariant(
            "compiled sentence is malformed: "
            + "; ".join(v.message for v in report.violations)
        )
    return sentence, qaw


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
# The sentence `count` evaluates
# ---------------------------------------------------------------------------


def count_sentence(q, *, max_dnf=4096, tw_cap=24):
    """The sentence `count` evaluates, from the folded pairs of the DNF
    disjuncts _drop_contained keeps, built once: q's table-union sentence
    when there is one; else, with one liberal variable, one width-bounded
    cast of the disjuncts (see _one_liberal_sentence); else the
    inclusion-exclusion terms of the disjuncts, merged by canonical_lc, or
    compiled as they are, folded but neither cored nor merged, when a core
    or labeling cap refuses the merge. Raises CapExceeded when the DNF, the
    inclusion-exclusion terms or a treewidth meets its cap."""
    union, pairs = _union_or_kept(q, max_dnf, tw_cap)
    if union is not None:
        return union
    if len(q.liberal) == 1:
        return _one_liberal_sentence(q.liberal, pairs, tw_cap)
    terms = _ie_terms(pairs, max_dnf)
    try:
        terms = canonical_lc(terms).entries
    except CapExceeded:
        pass
    return _compile_terms(terms, tw_cap)[0]


def _one_liberal_sentence(liberal, pairs, tw_cap):
    """P{y} C[phi1 | ... | phik; {y}] for folded pairs over one liberal
    element y: phi_i is the i-th pair, cored when it has at most 12 elements
    (core_of's cap), nested (_nest) along an exact tree decomposition of its
    primal graph rerooted at its first node whose bag holds y. A
    disjunction-free query is the case k = 1.

    With one liberal variable every decomposition rooted at a bag holding it
    is quantifier-aware, so phi_i has width treewidth + 1, its pair's
    quantifier-aware width: that of its core within the cap, and over it
    that of the folded pair, which is at most the uncored pair's. The cast's
    width is the largest of these (Chen & Mengel): no inclusion-exclusion
    term, canonical labeling or qaw anchor is built."""
    phis = []
    for pair in pairs:
        if len(pair.struct.universe) <= 12:
            pair = core_of(pair)
        _, td = exact_treewidth(primal_graph(pair), cap=tw_cap)
        td = _reroot(td, next(t for t in td.nodes if liberal[0] in td.bags[t]))
        phis.append(_nest(td, _walk(td), pair.struct.all_facts(),
                          set(pair.struct.universe) - pair.liberal_set))
    return Project(frozenset(liberal), Cast(ep=reduce(Or, phis), liberal=tuple(liberal)))


def _union_or_kept(q, max_dnf, tw_cap):
    """(q's table-union sentence or None, the folded pairs of the disjuncts
    _drop_contained keeps); raises CapExceeded when the DNF meets max_dnf.
    The sentence is the naive representation P L C[d1 | ... | dk; L] of the
    kept disjuncts when they still form a disjunction and it is no wider
    than the largest quantifier-aware width of their cores; None when they
    do not, when it is wider, or when a core search or a treewidth meets its
    cap.

    Evaluating the naive cast takes the union of the disjuncts' answer tables
    in one pass, so counting it builds none of the 2^k - 1 inclusion-exclusion
    terms. Every table it builds has at most |B|^width rows, so its data
    exponent is no larger than the widest disjunct's.

    Disjuncts whose folded pairs have the same _shape are isomorphic, so
    they have the same qaw and trip the same caps: the core and the qaw are
    computed once per shape, on its first disjunct."""
    kept, pairs = _drop_contained(q, max_dnf=max_dnf)
    if not _has_or(kept.formula):
        return None, pairs
    qaws = {}
    try:
        for pair in pairs:
            shape = _shape(pair)
            if shape not in qaws:
                qaws[shape] = compute_qaw(core_of(pair), cap=tw_cap)[0]
    except CapExceeded:
        return None, pairs
    naive = naive_representation(kept)
    return (naive if width(naive) <= max(qaws.values()) else None), pairs


def _folded_disjuncts(q, max_dnf):
    """q's DNF disjuncts (capped by max_dnf) and their folded pairs."""
    disjuncts = to_dnf_pp(q, max_disjuncts=max_dnf)
    return disjuncts, [_fold_quantified(pp_to_pair(d)) for d in disjuncts]


def _shape(p):
    """The pair's elements numbered in universe order, liberal ones first,
    and its facts as one sorted tuple set per symbol, the sets sorted too.
    Two pairs of equal shape are isomorphic: one maps onto the other by
    renaming elements, keeping the liberal tuple, and renaming symbols."""
    number = {e: i for i, e in enumerate(dict.fromkeys((*p.liberal, *p.struct.universe)))}
    facts = sorted(
        tuple(sorted(tuple(map(number.__getitem__, t)) for t in ts))
        for ts in p.struct.relations.values()
    )
    return len(number), len(p.liberal), tuple(facts)


# ---------------------------------------------------------------------------
# flatten: inclusion-exclusion + sum lifting + constant extraction
# ---------------------------------------------------------------------------


class FlatSharp(Record):
    """A counting formula as a sum of terms (constant part, basic part).

    The constant part has the shape E V1 P V2 n (value n*|B|^|V2| at every
    assignment of V1); the basic part contains no sums and no constants; both
    share the term's free set, so the folded-out sum is a valid formula
    pointwise equal to the input."""

    __slots__ = _fields = ("terms", "free")

    def __init__(self, terms, free):
        _set(self, "terms", terms)
        _set(self, "free", free)


def as_formula(fs):
    """Fold a FlatSharp back into a single counting formula."""
    if not fs.terms:
        return Expand(fs.free, Const(0))
    return reduce(Plus, [Times(const, basic) for const, basic in fs.terms])


def _project_summand(node, s):
    n, pow_, basic, free = s
    if basic is None:
        return n, pow_ + len(node.vars), None, free - node.vars
    return n, pow_, Project(node.vars, basic), free - node.vars


def _times_summand(a, b):
    (nl, pl, bl, free), (nr, pr, br, _) = a, b
    basic = br if bl is None else bl if br is None else Times(bl, br)
    return nl * nr, pl + pr, basic, free


# Each node's summands (n, pow, basic, free), left to right: the value of a
# summand is n*|B|^pow times its basic part (None when it has none), a sum-
# and constant-free formula over `free`; a cast is one summand of its own.
_SUMMAND_STEPS = {
    **dict.fromkeys(_EP_NODES, lambda node, *kids: None),
    Cast: lambda node, ep: [(1, 0, node, frozenset(node.liberal))],
    Const: lambda node: [(node.n, 0, None, frozenset())],
    Project: lambda node, subs: [_project_summand(node, s) for s in subs],
    Expand: lambda node, subs: [
        (n, p, None if basic is None else Expand(node.vars, basic), free | node.vars)
        for n, p, basic, free in subs
    ],
    Times: lambda node, lefts, rights: [_times_summand(a, b) for a in lefts for b in rights],
    Plus: lambda node, lefts, rights: lefts + rights,
}


def _summands(f):
    """The summands of a counting formula, each cast taken as it is."""
    return fold(f, _SUMMAND_STEPS)


def flatten(f, max_dnf=4096):
    """Normalize a counting formula into a FlatSharp pointwise equal to it.

    One fold: each cast becomes the summands of its inclusion-exclusion
    normal form, sums distribute to the top, and each summand splits into a
    constant part E V1 P V2 n and a basic part. Width never increases. A cast
    C[phi; L] with DNF disjuncts d1..dk has one summand per nonempty subset S,
    smaller subsets first: (-1)^(|S|+1) times the product of the C[di; L] with
    i in S. The 2^k - 1 summands are capped by `max_dnf` before any is built."""
    report = _require_valid(f)

    def cast(node, ep):
        q = LiberalQuery("cast", node.ep, node.liberal, _infer_signature(node.ep))
        disjuncts = to_dnf_pp(q, max_disjuncts=max_dnf)
        terms_needed = 2 ** len(disjuncts) - 1
        if terms_needed > max_dnf:
            raise CapExceeded(
                f"inclusion-exclusion over {len(disjuncts)} disjuncts needs "
                f"{terms_needed} > {max_dnf} terms"
            )
        lib = frozenset(node.liberal)
        casts = [Cast(ep=d.formula, liberal=tuple(sorted(lib))) for d in disjuncts]
        return [
            (1 if size % 2 else -1, 0, reduce(Times, subset), lib)
            for size in range(1, len(casts) + 1)
            for subset in itertools.combinations(casts, size)
        ]

    # the inclusion-exclusion terms use only the variables of f
    names = _FreshNames(_sharp_variables(f))
    terms = []
    for n, pow_, basic, free in fold(f, {**_SUMMAND_STEPS, Cast: cast}):
        const = Expand(free, Project(names.take(pow_), Const(n)))
        if basic is None:
            basic = Cast(ep=TOP, liberal=tuple(sorted(free)))
        terms.append((const, basic))
    return FlatSharp(terms=tuple(terms), free=report.free)


# ---------------------------------------------------------------------------
# Canonical linear combinations
# ---------------------------------------------------------------------------


class LinearCombination(Record):
    """Ordered (coefficient, pair) entries: coefficients nonzero, pairs
    pairwise not counting-equivalent and canonically labeled, order fixed by
    (liberal count, fact count, serialization)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries):
        _set(self, "entries", entries)


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


def canonical_lc(terms, *, core_cap=12, canon_cap=200000):
    """Canonical linear combination of (coefficient, pair) terms, whose value
    on a structure is the sum of each coefficient times its pair's answer
    count; each pair is folded (_fold_quantified).

    Each pair is cored and canonically labeled; equal pairs merge by adding
    coefficients, zero coefficients drop, and the entries are sorted by
    (liberal count, fact count, serialization). Every term is held against
    core_cap before the first core search, so a term over the cap refuses
    before any term is cored or labeled."""
    terms = [(coeff, pair) for coeff, pair in terms if coeff != 0]
    for _, pair in terms:
        check_core_cap(pair, core_cap)
    merged = {}  # serialization -> [coefficient, pair], in first-seen order
    for coeff, pair in terms:
        pair = _canonical_pair(core_of(pair, cap=core_cap), cap=canon_cap)
        merged.setdefault(serialize_pair(pair), [0, pair])[0] += coeff
    kept = [(text, pair, coeff) for text, (coeff, pair) in merged.items() if coeff != 0]
    kept.sort(key=lambda e: (len(e[1].liberal), _fact_count(e[1]), e[0]))
    return LinearCombination(entries=tuple((coeff, pair) for _, pair, coeff in kept))


def _ie_terms(pairs, max_dnf):
    """The inclusion-exclusion terms of the union of folded pairs over one
    liberal tuple, as flatten builds them for the union's cast: one per
    nonempty subset S of the pairs, smaller subsets first, (-1)^(|S|+1)
    times the folded conjunction of S's pairs. A conjunction of pairs is
    their structures glued on the liberal elements (Chandra & Merlin); each
    pair's quantified elements are renamed apart once, so the pairs of any
    subset share only liberal elements. The conjunction of one pair is that
    pair. The 2^k - 1 terms are capped by `max_dnf` before any is built."""
    terms_needed = 2 ** len(pairs) - 1
    if terms_needed > max_dnf:
        raise CapExceeded(
            f"inclusion-exclusion over {len(pairs)} disjuncts needs "
            f"{terms_needed} > {max_dnf} terms"
        )
    liberal, sig = pairs[0].liberal, pairs[0].struct.sig
    names = _FreshNames(liberal)
    parts = []  # each pair's renamed quantified elements and facts
    for p in pairs:
        ren = {e: names.fresh() for e in p.quantified}
        facts = [(sym, tuple(ren.get(e, e) for e in tup)) for sym, tup in p.struct.all_facts()]
        parts.append((list(ren.values()), facts))
    terms = [(1, p) for p in pairs]
    for size in range(2, len(parts) + 1):
        for subset in itertools.combinations(parts, size):
            universe, rels = list(liberal), {}
            for quantified, facts in subset:
                universe += quantified
                for sym, tup in facts:
                    rels.setdefault(sym, set()).add(tup)
            pair = PpPair(struct=make_structure(sig, universe, rels), liberal=liberal)
            terms.append((1 if size % 2 else -1, _fold_quantified(pair)))
    return terms


# ---------------------------------------------------------------------------
# minimize_ep
# ---------------------------------------------------------------------------


def _seeded_structures(sig, seed=0):
    """20 deterministic sample structures over a signature, of 1, 2 and 3
    elements in turn, for representation checks."""
    rng = random.Random(seed)
    out = []
    for i in range(20):
        size = 1 + i % 3
        universe = [f"b{j}" for j in range(size)]
        rels = {}
        for name, arity in sig.symbols:
            rels[name] = {
                tup
                for tup in itertools.product(universe, repeat=arity)
                if rng.random() < 0.5
            }
        out.append(make_structure(sig, universe, rels))
    return out


def compile_flat(q, *, max_dnf=4096, tw_cap=24):
    """(sentence, width, term count): the inclusion-exclusion terms of the
    folded pairs of every DNF disjunct of q, none dropped, compiled neither
    cored nor merged; width is the largest term width. Unlike minimize_ep
    this never searches for endomorphisms, so it stays feasible on terms
    with many variables."""
    terms = _ie_terms(_folded_disjuncts(q, max_dnf)[1], max_dnf)
    return (*_compile_terms(terms, tw_cap), len(terms))


def _drop_contained(q, *, max_dnf, core_cap=12):
    """(q', pairs): q with every DNF disjunct dropped whose answers lie
    inside another disjunct's (q itself when none is), and the folded pairs
    of the disjuncts kept; (q, [q's folded pair]) when q has no disjunction.

    Disjunct j contains disjunct i when j's folded pair maps into i's with
    the liberal elements fixed (Sagiv & Yannakakis); among equivalent
    disjuncts the first is kept. The union of the kept disjuncts has the same
    answers as q, so its canonical linear combination is q's: the dropped
    disjuncts' inclusion-exclusion terms all cancel. Only disjuncts whose
    folded pairs are within core_cap are compared, and only when the k(k-1)
    searches are within max_dnf; a symbol with facts in j but none in i
    settles a comparison without a search."""
    if not _has_or(q.formula):
        return q, [_fold_quantified(pp_to_pair(q))]
    disjuncts, pairs = _folded_disjuncts(q, max_dnf)
    k = len(disjuncts)
    if k * (k - 1) > max_dnf:
        return q, pairs
    pin = {e: e for e in q.liberal}
    symbols = [p.struct.relations.keys() for p in pairs]
    searches = {}  # each source's search, compiled on its first comparison

    def contains(j, i):
        a, b = pairs[j].struct, pairs[i].struct
        if not symbols[i] >= symbols[j] or max(len(a.universe), len(b.universe)) > core_cap:
            return False
        if j not in searches:
            searches[j] = homomorphism_search(a, pin)
        return searches[j](b, pin) is not None

    kept = []
    for i in range(k):
        if not any(contains(j, i) for j in kept):
            kept = [j for j in kept if not contains(i, j)] + [i]
    if len(kept) == k:
        return q, pairs
    formula = reduce(Or, [disjuncts[i].formula for i in kept])
    kept_q = LiberalQuery(name=q.name, formula=formula, liberal=q.liberal, sig=q.sig)
    return kept_q, [pairs[i] for i in kept]


def minimize_ep(q, *, max_dnf=4096, core_cap=12, tw_cap=24, canon_cap=200000):
    """Width-minimal representation of an arbitrary query.

    DNF disjuncts contained in another disjunct are dropped first, since
    their inclusion-exclusion terms cancel. The inclusion-exclusion terms of
    the rest are built from their folded pairs and canonicalized; every term
    of the canonical linear combination is compiled along a width-minimal
    quantifier-aware decomposition of its (already cored) pair; the terms
    are renamed apart and reassembled as sum of Const(c_i) * sentence_i.
    Returns (formula, width) with width the maximum term width."""
    pairs = _drop_contained(q, max_dnf=max_dnf, core_cap=core_cap)[1]
    lc = canonical_lc(_ie_terms(pairs, max_dnf), core_cap=core_cap, canon_cap=canon_cap)
    return _compile_terms(lc.entries, tw_cap)
