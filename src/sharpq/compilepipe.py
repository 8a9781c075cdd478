"""Compilation pipeline: queries -> width-minimal counting formulas.

The pipeline has two directions. Forward: a query becomes a sum of basic
counting sentences, each as wide as the quantifier-aware width of its core
(minimize_ep); `count` takes a union's naive cast instead when it is no wider
(count_sentence). Backward: any counting sentence is normalized into a
canonical linear combination of pairs (flatten + canonical_lc), which is the
engine behind equality-of-representations checks.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import reduce

from .decomp import (
    TreeDecomposition,
    _bfs_order,
    _quantifier_aware,
    _tops_and_depths,
    compute_qaw,
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
    _exists_components,
    _infer_signature,
    _rename_apart,
    fold,
    pp_to_pair,
    primal_graph,
    serialize_pair,
    subformulas,
    to_dnf_pp,
)
from .equiv import check_core_cap, core_of
from .errors import CapExceeded, InternalInvariant, SharpqError
from .relstore import Record, Signature, _set, homomorphism_search, make_structure
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
    g, lib = primal_graph(p), p.liberal_set
    comps = _exists_components(g, lib)
    ok, violation = _quantifier_aware(td, g, lib, comps)
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
    quantified = set(p.struct.universe) - lib
    eff = {t: frozenset(td.bags[t]) - quantified for t in td.nodes}

    liberal_atoms_at = {t: [] for t in td.nodes}
    for sym, tup in p.struct.all_facts():
        if quantified.isdisjoint(tup):
            liberal_atoms_at[_atom_home(td, depth, tup)].append(Atom(sym, tup))

    casts_at = {t: [] for t in td.nodes}
    for comp in sorted(comps, key=sorted):
        interior = comp - lib
        boundary = comp & lib
        facts = [
            (sym, tup)
            for sym, tup in p.struct.all_facts()
            if not interior.isdisjoint(tup)
        ]
        if not facts:
            # an isolated quantified vertex, true on every universe
            continue
        hosts = [t for t in td.nodes if td.bags[t] & interior]
        d = _topmost(td, depth, hosts)
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
        casts_at[d].append(Cast(ep=body, liberal=tuple(sorted(boundary))))

    built = {}
    for t in reversed(_bfs_order(td)):  # children before parents
        factors = [Cast(ep=a, liberal=tuple(sorted(eff[t]))) for a in liberal_atoms_at[t]]
        for cast in casts_at[t]:
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
# The sentence `count` evaluates
# ---------------------------------------------------------------------------


def count_sentence(q, *, max_dnf=4096, tw_cap=24):
    """The sentence `count` evaluates: q's table-union sentence when there is
    one, else minimize_ep(q)'s, with q's DNF disjuncts built, folded and pruned
    once for both. Raises CapExceeded as minimize_ep does."""
    union, kept = _union_or_kept(q, max_dnf, tw_cap)
    if union is not None:
        return union
    return _minimize_kept(kept, max_dnf=max_dnf, tw_cap=tw_cap)[0]


def _union_or_kept(q, max_dnf, tw_cap):
    """(q's table-union sentence or None, q with its contained disjuncts
    dropped); raises CapExceeded when the DNF meets max_dnf. The sentence is
    the naive representation P L C[d1 | ... | dk; L] of the kept disjuncts
    (see _drop_contained) when they still form a disjunction and it is no
    wider than the largest quantifier-aware width of their cores; None when
    they do not, when it is wider, or when a core search or a treewidth meets
    its cap.

    Evaluating the naive cast takes the union of the disjuncts' answer tables
    in one pass, so counting it builds none of the 2^k - 1 inclusion-exclusion
    terms. Every table it builds has at most |B|^width rows, so its data
    exponent is no larger than the widest disjunct's.

    Disjuncts whose folded pairs have the same _shape are isomorphic, so
    they have the same qaw and trip the same caps: the core and the qaw are
    computed once per shape, on its first disjunct."""
    kept, pairs = _drop_contained(q, max_dnf=max_dnf)
    if not _has_or(kept.formula):
        return None, kept
    qaws = {}
    try:
        for pair in pairs:
            shape = _shape(pair)
            if shape not in qaws:
                qaws[shape] = compute_qaw(core_of(pair), cap=tw_cap)[0]
    except CapExceeded:
        return None, kept
    naive = naive_representation(kept)
    return (naive if width(naive) <= max(qaws.values()) else None), kept


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


def canonical_lc(fs, *, core_cap=12, canon_cap=200000):
    """Canonical linear combination of a FlatSharp sentence.

    Each term's basic part becomes a pair, is cored, gets one fresh liberal
    element per |B|-power of its constant part, and is canonically labeled;
    equal pairs merge by adding coefficients, zero coefficients drop, and the
    entries are sorted by (liberal count, fact count, serialization). Every
    term is folded and held against core_cap before the first core search, so
    a term over the cap refuses before any term is cored or labeled."""
    _require_sentence(fs.free, "canonical_lc")
    folded = []
    for const, basic in fs.terms:
        coeff, pow_ = _read_constant(const)
        if coeff == 0:
            continue
        pair = _fold_quantified(basic_sharp_to_pp(basic))
        check_core_cap(pair, core_cap)
        folded.append((coeff, pow_, pair))
    merged = {}  # serialization -> [coefficient, pair], in first-seen order
    for coeff, pow_, pair in folded:
        pair = core_of(pair, cap=core_cap)
        if pow_:
            extra = _FreshNames(pair.struct.universe).take(pow_)
            pair = PpPair(
                struct=make_structure(
                    pair.struct.sig,
                    list(pair.struct.universe) + extra,
                    dict(pair.struct.relations),
                ),
                liberal=tuple(pair.liberal) + tuple(extra),
            )
        pair = _canonical_pair(pair, cap=canon_cap)
        merged.setdefault(serialize_pair(pair), [0, pair])[0] += coeff
    entries = [(coeff, pair) for coeff, pair in merged.values() if coeff != 0]
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


def _drop_contained(q, *, max_dnf, core_cap=12):
    """(q', pairs): q with every DNF disjunct dropped whose answers lie
    inside another disjunct's (q itself when none is), and the folded pairs
    of the disjuncts kept; (q, None) when q has no disjunction.

    Disjunct j contains disjunct i when j's folded pair maps into i's with
    the liberal elements fixed (Sagiv & Yannakakis); among equivalent
    disjuncts the first is kept. The union of the kept disjuncts has the same
    answers as q, so its canonical linear combination is q's: the dropped
    disjuncts' inclusion-exclusion terms all cancel. Only disjuncts whose
    folded pairs are within core_cap are compared, and only when the k(k-1)
    searches are within max_dnf; a symbol with facts in j but none in i
    settles a comparison without a search."""
    if not _has_or(q.formula):
        return q, None
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
    their inclusion-exclusion terms cancel. The naive representation of the
    rest is flattened and canonicalized; every term of the canonical linear
    combination is compiled along a width-minimal quantifier-aware
    decomposition of its (already cored) pair; the terms are renamed apart
    and reassembled as sum of Const(c_i) * sentence_i. Returns (formula,
    width) with width the maximum term width."""
    kept = _drop_contained(q, max_dnf=max_dnf, core_cap=core_cap)[0]
    return _minimize_kept(kept, max_dnf=max_dnf, core_cap=core_cap, tw_cap=tw_cap,
                          canon_cap=canon_cap)


def _minimize_kept(q, *, max_dnf=4096, core_cap=12, tw_cap=24, canon_cap=200000):
    """minimize_ep of a query none of whose DNF disjuncts contains another."""
    f = naive_representation(q)
    lc = canonical_lc(
        flatten(f, max_dnf=max_dnf), core_cap=core_cap, canon_cap=canon_cap
    )
    if not lc.entries:
        return Const(0), 0
    return _compile_terms(((Const(c), pair) for c, pair in lc.entries), tw_cap)
