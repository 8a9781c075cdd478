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

from .decomp import TreeDecomposition, compute_qaw, is_quantifier_aware, validate_td
from .epquery import (
    TOP,
    And,
    Atom,
    Exists,
    LiberalQuery,
    Or,
    PpPair,
    Top,
    _has_or,
    _infer_signature,
    _rename_apart,
    exists_components,
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
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    check_represents,
    eval_sentence,
    naive_representation,
    validate,
)

# ---------------------------------------------------------------------------
# Variable bookkeeping
# ---------------------------------------------------------------------------


def _sharp_variables(f):
    """Every variable name occurring anywhere in a counting formula."""
    out = set()
    for node in subformulas(f):
        if isinstance(node, Atom):
            out.update(node.args)
        elif isinstance(node, Exists):
            out.add(node.var)
        elif isinstance(node, Cast):
            out.update(node.liberal)
        elif isinstance(node, (Project, Expand)):
            out.update(node.vars)
    return out


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


def _rename_ep(f, ren):
    """Apply a total variable renaming to an ep-formula (binders included)."""
    if isinstance(f, Atom):
        return Atom(f.symbol, tuple(ren.get(a, a) for a in f.args))
    if isinstance(f, And):
        return And(_rename_ep(f.left, ren), _rename_ep(f.right, ren))
    if isinstance(f, Exists):
        return Exists(ren.get(f.var, f.var), _rename_ep(f.body, ren))
    if isinstance(f, Top):
        return f
    raise TypeError(f"not an ep-formula node: {f!r}")


def _rename_sharp(f, ren):
    """Apply a total variable renaming to a counting formula."""
    if isinstance(f, Cast):
        return Cast(ep=_rename_ep(f.ep, ren), liberal=tuple(ren.get(v, v) for v in f.liberal))
    if isinstance(f, Project):
        return Project(frozenset(ren.get(v, v) for v in f.vars), _rename_sharp(f.child, ren))
    if isinstance(f, Expand):
        return Expand(frozenset(ren.get(v, v) for v in f.vars), _rename_sharp(f.child, ren))
    if isinstance(f, Times):
        return Times(_rename_sharp(f.left, ren), _rename_sharp(f.right, ren))
    if isinstance(f, Plus):
        return Plus(_rename_sharp(f.left, ren), _rename_sharp(f.right, ren))
    if isinstance(f, Const):
        return f
    raise TypeError(f"not a counting-formula node: {f!r}")


# ---------------------------------------------------------------------------
# Width-bounded rewriting of a pair along a tree decomposition
# ---------------------------------------------------------------------------


def _node_depths(td, kids):
    depth = {td.root: 0}
    queue = [td.root]
    while queue:
        t = queue.pop(0)
        for c in kids[t]:
            depth[c] = depth[t] + 1
            queue.append(c)
    return depth


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
    depth = _node_depths(td, kids)
    quantified = set(p.struct.universe) - p.liberal_set
    top = {}
    for v in p.struct.universe:
        top[v] = _topmost(td, depth, [t for t in td.nodes if v in td.bags[t]])
    atoms_at = {t: [] for t in td.nodes}
    for sym, tup in p.struct.all_facts():
        atoms_at[_atom_home(td, depth, tup)].append(Atom(sym, tup))

    def build(t):
        parts = list(atoms_at[t])
        for c in kids[t]:
            sub = build(c)
            if not isinstance(sub, Top):
                parts.append(sub)
        if not parts:
            return TOP
        body = parts[0]
        for part in parts[1:]:
            body = And(body, part)
        binders = sorted(v for v in td.bags[t] if v in quantified and top[v] == t)
        for v in reversed(binders):
            body = Exists(v, body)
        return body

    return build(td.root)


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
    depth = _node_depths(td, kids)
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

    def build(t):
        factors = [Cast(ep=a, liberal=tuple(sorted(eff[t]))) for a in liberal_atoms_at[t]]
        for cast in casts_at[t]:
            if isinstance(cast.ep, Top):
                continue
            extra = eff[t] - frozenset(cast.liberal)
            factors.append(Expand(extra, cast) if extra else cast)
        for c in kids[t]:
            sub = build(c)
            drop = eff[c] - eff[t]
            add = eff[t] - eff[c]
            if not drop and isinstance(sub, Cast) and isinstance(sub.ep, Top):
                continue
            if drop:
                sub = Project(drop, sub)
            if add:
                sub = Expand(add, sub)
            factors.append(sub)
        if not factors:
            return Cast(ep=TOP, liberal=tuple(sorted(eff[t])))
        out = factors[0]
        for factor in factors[1:]:
            out = Times(out, factor)
        return out

    sentence = build(td.root)
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
    report = validate(f)
    if not report.ok:
        raise SharpqError(
            "malformed counting formula: " + "; ".join(v.message for v in report.violations)
        )
    if report.free:
        raise SharpqError(
            f"basic_sharp_to_pp needs a sentence; free variables: {', '.join(sorted(report.free))}"
        )
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
    changed = True
    while changed:
        changed = False
        for u in universe:
            if u in lib:
                continue
            for v in universe:
                if v == u:
                    continue
                folds = all(
                    (sym, tuple(v if x == u else x for x in tup)) in facts
                    for sym, tup in facts
                    if u in tup
                )
                if folds:
                    universe.remove(u)
                    facts = {
                        (sym, tuple(v if x == u else x for x in tup))
                        for sym, tup in facts
                    }
                    changed = True
                    break
            if changed:
                break
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


# ---------------------------------------------------------------------------
# cast_ep: inclusion-exclusion over the disjuncts
# ---------------------------------------------------------------------------


def cast_ep(q, max_dnf=4096):
    """Rewrite the cast of a query with disjunctions into sums of casts of
    disjunction-free formulas by inclusion-exclusion over the DNF disjuncts.
    The result is pointwise equal to Cast(q.formula, L) and its width is no
    larger."""
    disjuncts = to_dnf_pp(q, max_disjuncts=max_dnf)
    lib = frozenset(q.liberal)
    lib_tuple = tuple(sorted(q.liberal))
    terms = []
    for size in range(1, len(disjuncts) + 1):
        for subset in itertools.combinations(range(len(disjuncts)), size):
            sign = 1 if size % 2 == 1 else -1
            product = Expand(lib, Const(sign))
            for i in subset:
                product = Times(product, Cast(ep=disjuncts[i].formula, liberal=lib_tuple))
            terms.append(product)
    out = terms[0]
    for term in terms[1:]:
        out = Plus(out, term)
    return out


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
    parts = [Times(const, basic) for const, basic in fs.terms]
    out = parts[0]
    for part in parts[1:]:
        out = Plus(out, part)
    return out


def _cast_all(f, max_dnf):
    """Stage 1: replace every cast by its inclusion-exclusion normal form."""
    if isinstance(f, Cast):
        sig = _infer_signature(f.ep)
        q = LiberalQuery(name="cast", formula=f.ep, liberal=tuple(f.liberal), sig=sig)
        return cast_ep(q, max_dnf=max_dnf)
    if isinstance(f, Project):
        return Project(f.vars, _cast_all(f.child, max_dnf))
    if isinstance(f, Expand):
        return Expand(f.vars, _cast_all(f.child, max_dnf))
    if isinstance(f, Times):
        return Times(_cast_all(f.left, max_dnf), _cast_all(f.right, max_dnf))
    if isinstance(f, Plus):
        return Plus(_cast_all(f.left, max_dnf), _cast_all(f.right, max_dnf))
    if isinstance(f, Const):
        return f
    raise TypeError(f"not a counting-formula node: {f!r}")


def _lift_sums(f):
    """Stage 2: distribute so that sums sit only at the top; returns the
    sum-free summands left to right."""
    if isinstance(f, (Cast, Const)):
        return [f]
    if isinstance(f, Plus):
        return _lift_sums(f.left) + _lift_sums(f.right)
    if isinstance(f, Project):
        return [Project(f.vars, s) for s in _lift_sums(f.child)]
    if isinstance(f, Expand):
        return [Expand(f.vars, s) for s in _lift_sums(f.child)]
    if isinstance(f, Times):
        return [
            Times(a, b) for a in _lift_sums(f.left) for b in _lift_sums(f.right)
        ]
    raise TypeError(f"not a counting-formula node: {f!r}")


def _normmult(f):
    """Stage 3: split a sum-free formula into (n, pow, basic, free) with
    value n*|B|^pow times the basic part (basic=None when fully constant)."""
    if isinstance(f, Const):
        return f.n, 0, None, frozenset()
    if isinstance(f, Cast):
        return 1, 0, f, frozenset(f.liberal)
    if isinstance(f, Project):
        n, pow_, basic, free = _normmult(f.child)
        if basic is None:
            return n, pow_ + len(f.vars), None, free - f.vars
        return n, pow_, Project(f.vars, basic), free - f.vars
    if isinstance(f, Expand):
        n, pow_, basic, free = _normmult(f.child)
        if basic is None:
            return n, pow_, None, free | f.vars
        return n, pow_, Expand(f.vars, basic), free | f.vars
    if isinstance(f, Times):
        nl, pl, bl, free = _normmult(f.left)
        nr, pr, br, _ = _normmult(f.right)
        if bl is None:
            basic = br
        elif br is None:
            basic = bl
        else:
            basic = Times(bl, br)
        return nl * nr, pl + pr, basic, free
    raise TypeError(f"unexpected node in a sum-free formula: {f!r}")


def flatten(f, max_dnf=4096):
    """Normalize a counting formula into a FlatSharp pointwise equal to it.

    Stages: inclusion-exclusion on every cast, lifting all sums to the top,
    then splitting each summand into a constant part E V1 P V2 n and a basic
    part. Width never increases."""
    report = validate(f)
    if not report.ok:
        raise SharpqError(
            "malformed counting formula: " + "; ".join(v.message for v in report.violations)
        )
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
    if fs.free:
        raise SharpqError(
            f"canonical_lc needs a sentence; free variables: {', '.join(sorted(fs.free))}"
        )
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
    if fs.free:
        raise SharpqError(
            "compile_flat needs a sentence; free variables: "
            + ", ".join(sorted(fs.free))
        )
    if not fs.terms:
        return Const(0), 0
    compiled = []
    widths = []
    for const, basic in fs.terms:
        pair = basic_sharp_to_pp(basic)
        qaw, td = compute_qaw(pair, cap=tw_cap)
        compiled.append(Times(const, pp_to_basic_sharp(pair, td)))
        widths.append(qaw)
    names = _FreshNames(set().union(*(_sharp_variables(t) for t in compiled)))
    parts = []
    for term in compiled:
        ren = {v: names.fresh() for v in sorted(_sharp_variables(term))}
        parts.append(_rename_sharp(term, ren))
    out = parts[0]
    for part in parts[1:]:
        out = Plus(out, part)
    return out, max(widths)


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
    sentences = []
    widths = []
    for _, pair in lc.entries:
        qaw, td = compute_qaw(pair, cap=tw_cap)
        sentences.append(pp_to_basic_sharp(pair, td))
        widths.append(qaw)
    names = _FreshNames(set().union(*(_sharp_variables(s) for s in sentences)))
    parts = []
    for coeff, sentence in zip((c for c, _ in lc.entries), sentences):
        ren = {v: names.fresh() for v in sorted(_sharp_variables(sentence))}
        parts.append(Times(Const(coeff), _rename_sharp(sentence, ren)))
    out = parts[0]
    for part in parts[1:]:
        out = Plus(out, part)
    return out, max(widths)
