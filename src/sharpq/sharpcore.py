"""Counting formulas over ep-casts: AST, well-formedness, width, evaluation.

A counting formula is built from casts C[ep; L] (the 0/1 indicator of an
ep-formula, padded to the liberal set L), projections P V (summation over V),
expansions E V (adding vacuous variables), products, sums, and integer
constants. Evaluation produces a table of integers indexed by assignments of
the formula's free variables; its cost is governed by the formula's width.

Kernel invariants: a row tuple's entries follow its table's `explicit`
columns; row sets are never mutated, since atom tables alias the structure's
frozensets; binders are projected inside the join that consumes them, so
`stats["peak_rows"]` is the largest table actually materialised.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .errors import CapExceeded, ParseError, SharpqError
from .epquery import (
    And,
    Atom,
    Exists,
    Or,
    Top,
    _infer_signature,
    free_variables,
    parse_ep_expression,
    render_ep,
    subformulas,
)

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cast:
    """0/1 indicator of an ep-formula over assignments of the liberal set."""

    ep: object
    liberal: tuple
    _kids = ("ep",)

    def __post_init__(self):
        object.__setattr__(self, "liberal", tuple(sorted(set(self.liberal))))


@dataclass(frozen=True)
class Project:
    vars: frozenset
    child: object
    _kids = ("child",)

    def __post_init__(self):
        object.__setattr__(self, "vars", frozenset(self.vars))


@dataclass(frozen=True)
class Expand:
    vars: frozenset
    child: object
    _kids = ("child",)

    def __post_init__(self):
        object.__setattr__(self, "vars", frozenset(self.vars))


@dataclass(frozen=True)
class Times:
    left: object
    right: object
    _kids = ("left", "right")


@dataclass(frozen=True)
class Plus:
    left: object
    right: object
    _kids = ("left", "right")


@dataclass(frozen=True)
class Const:
    n: int
    _kids = ()


# ---------------------------------------------------------------------------
# free/closed bookkeeping and validation
# ---------------------------------------------------------------------------


def free_closed(f):
    """(free, closed) variable sets of a counting formula, bottom-up.

    The derived sets are computed unconditionally; side conditions are the
    business of validate().
    """
    if isinstance(f, Cast):
        return frozenset(f.liberal), frozenset()
    if isinstance(f, Project):
        fr, cl = free_closed(f.child)
        return fr - f.vars, cl | f.vars
    if isinstance(f, Expand):
        fr, cl = free_closed(f.child)
        return fr | f.vars, cl
    if isinstance(f, (Times, Plus)):
        fl, cl_l = free_closed(f.left)
        fr, cl_r = free_closed(f.right)
        return fl | fr, cl_l | cl_r
    if isinstance(f, Const):
        return frozenset(), frozenset()
    raise TypeError(f"not a counting-formula node: {f!r}")


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class Validation:
    free: frozenset
    closed: frozenset
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def validate(f):
    """Check every side condition bottom-up; violations carry the node path.

    Returns a Validation whose free/closed sets follow the derived-set rules
    regardless of validity; `violations` lists each failed condition in
    bottom-up, left-to-right order.
    """
    violations = []

    def walk(node, path):
        if isinstance(node, Cast):
            fr = free_variables(node.ep)
            lib = frozenset(node.liberal)
            if not fr <= lib:
                extra = ", ".join(sorted(fr - lib))
                violations.append(
                    Violation(path, f"cast liberal set must contain the ep formula's free variables (missing {extra})")
                )
            return lib, frozenset()
        if isinstance(node, Project):
            fr, cl = walk(node.child, path + ".child")
            if node.vars & cl:
                bad = ", ".join(sorted(node.vars & cl))
                violations.append(
                    Violation(path, f"projection variables may not be closed in the child ({bad})")
                )
            return fr - node.vars, cl | node.vars
        if isinstance(node, Expand):
            fr, cl = walk(node.child, path + ".child")
            if node.vars & (fr | cl):
                bad = ", ".join(sorted(node.vars & (fr | cl)))
                violations.append(
                    Violation(path, f"expansion variables must be fresh (already used: {bad})")
                )
            return fr | node.vars, cl
        if isinstance(node, Times):
            fl, cl_l = walk(node.left, path + ".left")
            fr, cl_r = walk(node.right, path + ".right")
            if fl != fr:
                diff = ", ".join(sorted(fl ^ fr))
                violations.append(
                    Violation(path, f"product operands must have equal free sets (differ on {diff})")
                )
            if cl_l & cl_r:
                bad = ", ".join(sorted(cl_l & cl_r))
                violations.append(
                    Violation(path, f"product operands must have disjoint closed sets (share {bad})")
                )
            return fl | fr, cl_l | cl_r
        if isinstance(node, Plus):
            fl, cl_l = walk(node.left, path + ".left")
            fr, cl_r = walk(node.right, path + ".right")
            if fl != fr:
                diff = ", ".join(sorted(fl ^ fr))
                violations.append(
                    Violation(path, f"sum operands must have equal free sets (differ on {diff})")
                )
            return fl | fr, cl_l | cl_r
        if isinstance(node, Const):
            return frozenset(), frozenset()
        raise TypeError(f"not a counting-formula node: {node!r}")

    fr, cl = walk(f, "root")
    return Validation(free=fr, closed=cl, violations=tuple(violations))


def _require_valid(f):
    report = validate(f)
    if not report.ok:
        v = report.violations[0]
        raise SharpqError(f"invalid counting formula at {v.path}: {v.message}")
    return report


_EP_NODES = (Atom, And, Or, Exists, Top)


def width(f):
    """max |free| over all subformulas, counting ep subformulas inside casts."""
    return max(
        len(free_variables(g) if isinstance(g, _EP_NODES) else free_closed(g)[0])
        for g in subformulas(f)
    )


def sharp_width(f):
    """max |free| over counting subformulas only (casts count as leaves)."""
    return max(
        len(free_closed(g)[0]) for g in subformulas(f) if not isinstance(g, _EP_NODES)
    )


# ---------------------------------------------------------------------------
# .shq text format
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"-?\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


class _SharpParser:
    def __init__(self, text):
        self.src = "\n".join(
            re.sub(r"(?:^|(?<=\s))#.*$", "", ln) for ln in text.splitlines()
        )
        self.pos = 0

    def error(self, msg):
        line = self.src.count("\n", 0, self.pos) + 1
        col = self.pos - (self.src.rfind("\n", 0, self.pos) + 1) + 1
        raise ParseError(msg, line, col)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        node = self.parse_formula()
        self.skip_ws()
        if self.pos < len(self.src):
            self.error(f"trailing input: {self.src[self.pos]!r}")
        return node

    def parse_varset(self):
        self.expect("{")
        vars_ = []
        if self.peek() == "}":
            self.pos += 1
            return vars_
        while True:
            self.skip_ws()
            m = _NAME_RE.match(self.src, self.pos)
            if not m:
                self.error("expected a variable name")
            vars_.append(m.group())
            self.pos = m.end()
            ch = self.peek()
            if ch == ",":
                self.pos += 1
            elif ch == "}":
                self.pos += 1
                return vars_
            else:
                self.error("expected ',' or '}' in variable set")

    def parse_formula(self):
        ch = self.peek()
        if ch == "C" and self._next_nonspace(self.pos + 1) == "[":
            self.pos += 1
            self.skip_ws()
            self.pos += 1  # '['
            end = self.src.find(";", self.pos)
            if end < 0:
                self.error("cast needs ';' between formula and variable set")
            ep_text = self.src[self.pos : end]
            try:
                ep = parse_ep_expression(ep_text)
            except ParseError as exc:
                self.error(f"inside cast: {exc}")
            self.pos = end + 1
            liberal = self.parse_varset()
            self.expect("]")
            return Cast(ep=ep, liberal=tuple(liberal))
        if ch in ("P", "E") and self._next_nonspace(self.pos + 1) == "{":
            self.pos += 1
            vars_ = self.parse_varset()
            child = self.parse_formula()
            cls = Project if ch == "P" else Expand
            return cls(frozenset(vars_), child)
        if ch == "(":
            self.pos += 1
            left = self.parse_formula()
            op = self.peek()
            if op not in ("*", "+"):
                self.error("expected '*' or '+'")
            self.pos += 1
            right = self.parse_formula()
            self.expect(")")
            return Times(left, right) if op == "*" else Plus(left, right)
        m = _INT_RE.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return Const(int(m.group()))
        self.error("expected 'C[', 'P{', 'E{', '(' or an integer")

    def _next_nonspace(self, i):
        while i < len(self.src) and self.src[i].isspace():
            i += 1
        return self.src[i] if i < len(self.src) else ""


def parse_sharp(text):
    """Parse `.shq` text; raises ParseError on syntax or side-condition errors."""
    f = _SharpParser(text).parse()
    report = validate(f)
    if not report.ok:
        v = report.violations[0]
        raise ParseError(f"ill-formed counting formula at {v.path}: {v.message}")
    return f


def serialize_sharp(f):
    """Fully parenthesized `.shq` text; parse_sharp round-trips it."""
    if isinstance(f, Cast):
        return f"C[{render_ep(f.ep)}; {{{','.join(f.liberal)}}}]"
    if isinstance(f, Project):
        return f"P{{{','.join(sorted(f.vars))}}} {serialize_sharp(f.child)}"
    if isinstance(f, Expand):
        return f"E{{{','.join(sorted(f.vars))}}} {serialize_sharp(f.child)}"
    if isinstance(f, Times):
        return f"({serialize_sharp(f.left)} * {serialize_sharp(f.right)})"
    if isinstance(f, Plus):
        return f"({serialize_sharp(f.left)} + {serialize_sharp(f.right)})"
    if isinstance(f, Const):
        return str(f.n)
    raise TypeError(f"not a counting-formula node: {f!r}")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CountTable:
    """Integer table over the free variables of a formula.

    Variables are split into explicit ones (indexing `data`) and wildcard ones
    the value provably does not depend on; wildcard variables are never
    materialized unless an operation needs aligned variable sets. Rows absent
    from `data` have value 0.
    """

    explicit: tuple
    wildcard: tuple
    universe: tuple
    data: dict = field(compare=False)

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
        if set(self.variables) != set(other.variables):
            return False
        if self.universe != other.universe:
            return False
        shared = tuple(sorted(set(self.explicit) | set(other.explicit)))
        return _materialize_data(self, shared) == _materialize_data(other, shared)


def _row_of(positions):
    """Row builder: maps a row to the tuple of its entries at `positions`
    (a slice when they are consecutive, so one position still gives a tuple)."""
    start = positions[0] if positions else 0
    if positions == list(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _key_of(positions):
    """Key builder: like _row_of, but a single position gives a bare value."""
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _widen(explicit, target, universe):
    """(fills, build) re-indexing rows over `explicit` by `target` ⊇ explicit:
    row r becomes build(r + fill) for each fill of the new columns."""
    extra = tuple(v for v in target if v not in explicit)
    cols = explicit + extra
    fills = list(itertools.product(universe, repeat=len(extra)))
    return fills, _row_of([cols.index(v) for v in target])


def _materialize_data(t, explicit):
    """Rows of t re-indexed by the given explicit variable tuple (a superset
    of t.explicit up to wildcards)."""
    fills, build = _widen(t.explicit, explicit, t.universe)
    return {build(key + fill): val for key, val in t.data.items() for fill in fills}


_JoinPlan = namedtuple("_JoinPlan", "explicit key1 key2 out1 out2 whole1 whole2")


@lru_cache(maxsize=1024)
def _join_plan(ex1, ex2, drop):
    """How to join tables over columns ex1 and ex2, projecting out `drop`.
    A plan depends on column names only, so repeated evaluations share it.

    Output columns are ex1's surviving ones, then ex2's own: the order comes
    from the formula, never from row counts. key1/key2 build the shared-column
    keys, out1/out2 the surviving columns each side contributes, and
    whole1/whole2 (None unless that side holds every output column) the full
    output row from one side, which turns the join into a semijoin.
    """
    shared = [v for v in ex1 if v in ex2]
    own1 = tuple(v for v in ex1 if v not in drop)
    own2 = tuple(v for v in ex2 if v not in ex1 and v not in drop)
    explicit = own1 + own2
    key1, key2 = [_key_of([ex.index(v) for v in shared]) for ex in (ex1, ex2)]
    out1, out2 = [_row_of([ex.index(v) for v in own]) for ex, own in ((ex1, own1), (ex2, own2))]
    whole1, whole2 = [
        _row_of([ex.index(v) for v in explicit]) if set(explicit) <= set(ex) else None
        for ex in (ex1, ex2)
    ]
    return _JoinPlan(explicit, key1, key2, out1, out2, whole1, whole2)


# ---------------------------------------------------------------------------
# Evaluation: satisfying-assignment sets and count tables
# ---------------------------------------------------------------------------


class _Evaluator:
    """Table evaluation over one structure. An ep formula yields (explicit,
    rows), a counting formula a CountTable; rows follow `explicit` and are
    never mutated (an atom with distinct arguments returns the structure's
    own frozenset). Binders are projected inside the join that consumes
    them, so `stats["peak_rows"]` is the largest table actually materialised;
    `max_rows` caps every table."""

    def __init__(self, b, max_rows, stats):
        self.b = b
        self.max_rows = max_rows
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("peak_rows", 0)

    def _note(self, n):
        if n > self.max_rows:
            raise CapExceeded(f"table would hold {n} > {self.max_rows} rows")
        if n > self.stats["peak_rows"]:
            self.stats["peak_rows"] = n

    # -- ep formulas --

    def sat(self, f, drop=frozenset()):
        """(explicit, rows) over free(f) - drop: the projections of f's
        satisfying assignments. `drop` holds variables bound above f that
        occur, free in f, nowhere else under their binder."""
        if isinstance(f, Atom):
            return self._atom(f, drop)
        if isinstance(f, Exists):
            binders = set(drop)
            while isinstance(f, Exists):
                binders.add(f.var)
                f = f.body
            # the universe is non-empty, so a binder absent from f drops away
            return self.sat(f, frozenset(binders))
        if isinstance(f, And):
            # right side first: the binders it keeps are shared and must reach
            # the join; the left drops every other binder
            s2 = self.sat(f.right, drop - free_variables(f.left) if drop else drop)
            return self._sat_join(self.sat(f.left, drop - set(s2[0])), s2, drop)
        if isinstance(f, Or):
            (ex1, rows1), (ex2, rows2) = self.sat(f.left, drop), self.sat(f.right, drop)
            explicit = tuple(dict.fromkeys(ex1 + ex2))
            rows = self._sat_expand(ex1, rows1, explicit) | self._sat_expand(ex2, rows2, explicit)
            self._note(len(rows))
            return explicit, rows
        if isinstance(f, Top):
            return (), {()}
        raise TypeError(f"not an ep-formula node: {f!r}")

    def _atom(self, f, drop):
        args = f.args
        facts = self.b.tuples(f.symbol)
        explicit = tuple(v for v in dict.fromkeys(args) if v not in drop)
        if explicit == args:
            rows = facts
        else:
            same = [(args.index(v), i) for i, v in enumerate(args) if args.index(v) != i]
            build = _row_of([args.index(v) for v in explicit])
            if same:
                rows = {build(t) for t in facts if all(t[i] == t[j] for i, j in same)}
            else:
                rows = set(map(build, facts))
        self._note(len(rows))
        return explicit, rows

    def _sat_expand(self, explicit, rows, target):
        """rows over `explicit` re-indexed by `target` ⊇ explicit (new
        columns range over the universe)."""
        if explicit == target:
            return rows
        self._note(len(rows) * len(self.b.universe) ** (len(target) - len(explicit)))
        fills, build = _widen(explicit, target, self.b.universe)
        return {build(r + fill) for r in rows for fill in fills}

    def _sat_join(self, s1, s2, drop):
        (ex1, rows1), (ex2, rows2) = s1, s2
        plan = _join_plan(ex1, ex2, drop)
        key1, key2 = plan.key1, plan.key2
        if not rows1 or not rows2:
            rows = set()
        elif plan.whole1 is not None:
            keys, build = set(map(key2, rows2)), plan.whole1
            rows = {build(r) for r in rows1 if key1(r) in keys}
        elif plan.whole2 is not None:
            keys, build = set(map(key1, rows1)), plan.whole2
            rows = {build(r) for r in rows2 if key2(r) in keys}
        else:
            # index the smaller side; output rows are (left part + right part)
            left = len(rows1) <= len(rows2)
            sides = [(rows1, key1, plan.out1), (rows2, key2, plan.out2)]
            (small, key_s, out_s), (probe, key_p, out_p) = sides if left else sides[::-1]
            index = defaultdict(list)
            for r in small:
                index[key_s(r)].append(out_s(r))
            rows = set()
            for r in probe:
                bucket = index.get(key_p(r))
                if bucket:
                    o = out_p(r)
                    rows.update([x + o for x in bucket] if left else [o + x for x in bucket])
                    if len(rows) > self.max_rows:
                        raise CapExceeded(f"table would hold more than {self.max_rows} rows")
        self._note(len(rows))
        return plan.explicit, rows

    # -- counting formulas --

    def eval(self, f):
        b = self.b
        if isinstance(f, Cast):
            return self._cast(f, *self.sat(f.ep))
        if isinstance(f, Const):
            data = {(): f.n} if f.n != 0 else {}
            return CountTable((), (), b.universe, data)
        if isinstance(f, Expand):
            t = self.eval(f.child)
            wild = tuple(sorted(set(t.wildcard) | f.vars))
            return CountTable(t.explicit, wild, b.universe, t.data)
        if isinstance(f, Project):
            return self._project(f)
        if isinstance(f, Times):
            return self._times(self.eval(f.left), self.eval(f.right))
        if isinstance(f, Plus):
            return self._plus(self.eval(f.left), self.eval(f.right))
        raise TypeError(f"not a counting-formula node: {f!r}")

    def _cast(self, f, explicit, rows):
        wild = tuple(sorted(set(f.liberal) - set(explicit)))
        return CountTable(explicit, wild, self.b.universe, dict.fromkeys(rows, 1))

    def _project(self, f):
        """A chain of projections summed out in one pass. Summing every
        column of a cast counts its rows without building the table."""
        vars_ = set(f.vars)
        while isinstance(f.child, Project):
            f = f.child
            vars_ |= f.vars
        child = f.child
        if isinstance(child, Cast):
            explicit, rows = self.sat(child.ep)
            if vars_.issuperset(explicit):
                total = len(rows) * len(self.b.universe) ** len(vars_ - set(explicit))
                data = {(): total} if total else {}
                self._note(len(data))
                wild = tuple(sorted(set(child.liberal) - vars_))
                return CountTable((), wild, self.b.universe, data)
            t = self._cast(child, explicit, rows)
        else:
            t = self.eval(child)
        # every summed variable that is not explicit contributes a factor |B|
        factor = len(self.b.universe) ** len(vars_ - set(t.explicit))
        keep = [i for i, v in enumerate(t.explicit) if v not in vars_]
        if keep:
            key = _row_of(keep)
            sums = {}
            for row, val in t.data.items():
                k = key(row)
                sums[k] = sums.get(k, 0) + val
            data = {k: v * factor for k, v in sums.items() if v}
        else:
            total = sum(t.data.values()) * factor
            data = {(): total} if total else {}
        self._note(len(data))
        explicit = tuple(t.explicit[i] for i in keep)
        wild = tuple(v for v in t.wildcard if v not in vars_)
        return CountTable(explicit, wild, self.b.universe, data)

    def _times(self, t1, t2):
        """The join of the two tables' row keys, valued by the product."""
        explicit, rows = self._sat_join(
            (t1.explicit, t1.data.keys()), (t2.explicit, t2.data.keys()), frozenset()
        )
        (d1, at1), (d2, at2) = [
            (t.data, _row_of([explicit.index(v) for v in t.explicit])) for t in (t1, t2)
        ]
        data = {r: d1[at1(r)] * d2[at2(r)] for r in rows}
        wild = tuple(sorted((set(t1.variables) | set(t2.variables)) - set(explicit)))
        return CountTable(explicit, wild, self.b.universe, data)

    def _plus(self, t1, t2):
        explicit = tuple(dict.fromkeys(t1.explicit + t2.explicit))
        n = len(self.b.universe)
        self._note(sum(len(t.data) * n ** (len(explicit) - len(t.explicit)) for t in (t1, t2)))
        data = _materialize_data(t1, explicit)
        for k, v in _materialize_data(t2, explicit).items():
            s = data.get(k, 0) + v
            if s:
                data[k] = s
            else:
                data.pop(k, None)
        self._note(len(data))
        wild = tuple(sorted((set(t1.variables) | set(t2.variables)) - set(explicit)))
        return CountTable(explicit, wild, self.b.universe, data)


def _check_cast_signatures(f, b):
    for name, arity in _infer_signature(f).symbols:
        if name not in b.sig:
            raise SharpqError(f"structure lacks relation {name!r} used by the formula")
        if b.sig.arity(name) != arity:
            raise SharpqError(
                f"arity mismatch for {name}: formula uses {arity}, structure has {b.sig.arity(name)}"
            )


def evaluate(f, b, max_rows=10**7, stats=None):
    """Table of the formula's values over assignments of its free variables."""
    _require_valid(f)
    _check_cast_signatures(f, b)
    return _Evaluator(b, max_rows, stats).eval(f)


def eval_sentence(f, b, max_rows=10**7, stats=None):
    """Value of a closed formula (free set empty) as a plain integer."""
    report = _require_valid(f)
    if report.free:
        raise SharpqError(
            f"eval_sentence needs a sentence; free variables: {', '.join(sorted(report.free))}"
        )
    _check_cast_signatures(f, b)
    t = _Evaluator(b, max_rows, stats).eval(f)
    return t.data.get((), 0)


# ---------------------------------------------------------------------------
# Representations of queries
# ---------------------------------------------------------------------------


def naive_representation(q):
    """P L C[formula; L]: counts q's answers on every structure, width |L|."""
    lib = frozenset(q.liberal)
    return Project(lib, Cast(ep=q.formula, liberal=tuple(q.liberal)))


def check_represents(f, q, samples):
    """Compare eval_sentence(f, ·) with oracle_count(q, ·) on each sample.

    Returns (True, None) or (False, first counterexample structure). A testing
    utility: passing on samples is evidence, not proof.
    """
    from .epquery import oracle_count

    for b in samples:
        if eval_sentence(f, b) != oracle_count(q, b):
            return False, b
    return True, None
