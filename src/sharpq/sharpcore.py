"""Counting formulas over ep-casts: AST, well-formedness, width, evaluation.

A counting formula is built from casts C[ep; L] (the 0/1 indicator of an
ep-formula, padded to the liberal set L), projections P V (summation over V),
expansions E V (adding vacuous variables), products, sums, and integer
constants. Evaluation produces a table of integers indexed by assignments of
the formula's free variables; its cost is governed by the formula's width.

Kernel invariants: a row tuple's entries follow its table's `explicit`
columns, and row sets are never mutated (an atom with distinct arguments
aliases the structure's frozenset). Binders are projected inside the join
that consumes them. A join groups each side by the shared key into sets of
the side's parts and emits, per common key, the union of one side's groups
when the other contributes no column, else their product; the grouping of a
fact set is memoised for one evaluation and shared by its atoms, casts and
terms. When every column of a cast is summed and its ep is a conjunction
under an exists chain, that last join is counted, never built.
`stats["peak_rows"]` is the largest table actually materialised; `max_rows`
caps every such table as it grows, so it no longer sees counted answers.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product, starmap
from operator import add, itemgetter

from .errors import CapExceeded, ParseError, SharpqError
from .epquery import (
    FREE_STEPS,
    RENDER_STEPS,
    And,
    Atom,
    Exists,
    Or,
    Top,
    _check_signature,
    _infer_signature,
    _line_col,
    _parse_ep_span,
    _strip_epq_comments,
    _Tokens,
    _union,
    fold,
    free_variables,
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
    business of validate(), which derives the same sets.
    """
    report = validate(f)
    return report.free, report.closed


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

    def check(at, bad, message):
        if bad:
            names = []
            while at:  # a path is (parent path, field name), built top-down
                at, name = at
                names.append(name)
            path = ".".join(reversed(names))
            violations.append(Violation(path, message.format(", ".join(sorted(bad)))))

    def cast(node, at):
        lib = frozenset(node.liberal)
        check(at, free_variables(node.ep) - lib,
              "cast liberal set must contain the ep formula's free variables (missing {})")
        return lib, frozenset()

    def project(node, at, child):
        fr, cl = child
        check(at, node.vars & cl, "projection variables may not be closed in the child ({})")
        return fr - node.vars, cl | node.vars

    def expand(node, at, child):
        fr, cl = child
        check(at, node.vars & (fr | cl), "expansion variables must be fresh (already used: {})")
        return fr | node.vars, cl

    def times(node, at, left, right):
        (fl, cl_l), (fr, cl_r) = left, right
        check(at, fl ^ fr, "product operands must have equal free sets (differ on {})")
        check(at, cl_l & cl_r, "product operands must have disjoint closed sets (share {})")
        return fl | fr, cl_l | cl_r

    def plus(node, at, left, right):
        (fl, cl_l), (fr, cl_r) = left, right
        check(at, fl ^ fr, "sum operands must have equal free sets (differ on {})")
        return fl | fr, cl_l | cl_r

    steps = {
        Cast: cast, Project: project, Expand: expand, Times: times, Plus: plus,
        Const: lambda node, at: (frozenset(), frozenset()),
    }

    def paths(node, at):
        return [(getattr(node, k), (at, k)) for k in node._kids]

    # a cast is a leaf here: its ep formula's free set is all it needs
    down = {Cast: lambda node, at: [], **dict.fromkeys((Project, Expand, Times, Plus), paths)}
    fr, cl = fold(f, steps, down, (None, "root"))
    return Validation(free=fr, closed=cl, violations=tuple(violations))


def _require_valid(f):
    report = validate(f)
    if not report.ok:
        v = report.violations[0]
        raise SharpqError(f"invalid counting formula at {v.path}: {v.message}")
    return report


def _require_sentence(free, user):
    """A formula handed to `user` must have no free variables."""
    if free:
        raise SharpqError(f"{user} needs a sentence; free variables: {', '.join(sorted(free))}")


_EP_NODES = (Atom, And, Or, Exists, Top)

_FREE_STEPS = {
    **FREE_STEPS,
    Cast: lambda node, ep: frozenset(node.liberal),
    Project: lambda node, child: child - node.vars,
    Expand: lambda node, child: child | node.vars,
    Times: _union,
    Plus: _union,
    Const: lambda node: frozenset(),
}


def _free_sets(f):
    """(node, free variables) for every node of an ep or counting formula,
    children before parents, in one fold."""
    out = []

    def record(node, *kids):
        s = _FREE_STEPS[type(node)](node, *kids)
        out.append((node, s))
        return s

    fold(f, dict.fromkeys(_FREE_STEPS, record))
    return out


def width(f):
    """max |free| over all subformulas, counting ep subformulas inside casts."""
    return max(len(s) for _, s in _free_sets(f))


def sharp_width(f):
    """max |free| over counting subformulas only (casts count as leaves)."""
    return max(len(s) for g, s in _free_sets(f) if not isinstance(g, _EP_NODES))


# ---------------------------------------------------------------------------
# .shq text format
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"-?\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_OPENER_RE = re.compile(r"C\s*\[|[PE]\s*\{")


class _SharpParser:
    def __init__(self, text):
        self.src = _strip_epq_comments(text)
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, *_line_col(self.src, self.pos))

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
        """Each P{..}/E{..} prefix and open '(' waits on an explicit stack
        until its operand is complete, so nesting costs no Python stack."""
        pending = []  # (Project or Expand, vars), ("(", None) or (op, left operand)
        while True:
            ch = self.peek()
            opener = _OPENER_RE.match(self.src, self.pos)
            if opener and ch == "C":
                self.pos = opener.end()
                node = self.parse_cast()
            elif opener:
                self.pos += 1
                pending.append((Project if ch == "P" else Expand, self.parse_varset()))
                continue
            elif ch == "(":
                self.pos += 1
                pending.append(("(", None))
                continue
            else:
                m = _INT_RE.match(self.src, self.pos)
                if not m:
                    self.error("expected 'C[', 'P{', 'E{', '(' or an integer")
                self.pos = m.end()
                node = Const(int(m.group()))
            # the operand is complete: apply the prefixes and close the
            # products and sums it ends
            while pending:
                kind, arg = pending[-1]
                if kind == "(":
                    op = self.peek()
                    if op not in ("*", "+"):
                        self.error("expected '*' or '+'")
                    self.pos += 1
                    pending[-1] = (op, node)
                    break
                pending.pop()
                if kind in ("*", "+"):
                    self.expect(")")
                    node = Times(arg, node) if kind == "*" else Plus(arg, node)
                else:
                    node = kind(frozenset(arg), node)
            else:
                return node

    def parse_cast(self):
        """The rest of a cast, after its 'C['."""
        end = self.src.find(";", self.pos)
        if end < 0:
            self.error("cast needs ';' between formula and variable set")
        try:
            ep = _parse_ep_span(_Tokens(self.src, self.pos, end, end="end of cast"))
        except ParseError as exc:
            raise ParseError(f"inside cast: {exc.reason}", exc.line, exc.column) from None
        self.pos = end + 1
        liberal = self.parse_varset()
        self.expect("]")
        return Cast(ep=ep, liberal=tuple(liberal))


def parse_sharp(text):
    """Parse `.shq` text; raises ParseError on syntax or side-condition errors."""
    f = _SharpParser(text).parse()
    report = validate(f)
    if not report.ok:
        v = report.violations[0]
        raise ParseError(f"ill-formed counting formula at {v.path}: {v.message}")
    return f


def _varset(vars_):
    return "{" + ",".join(sorted(vars_)) + "}"


_SERIALIZE_STEPS = {
    **RENDER_STEPS,
    Cast: lambda node, ep: f"C[{ep}; {{{','.join(node.liberal)}}}]",
    Project: lambda node, child: f"P{_varset(node.vars)} {child}",
    Expand: lambda node, child: f"E{_varset(node.vars)} {child}",
    Times: lambda node, left, right: f"({left} * {right})",
    Plus: lambda node, left, right: f"({left} + {right})",
    Const: lambda node: str(node.n),
}


def serialize_sharp(f):
    """Fully parenthesized `.shq` text; parse_sharp round-trips it."""
    return fold(f, _SERIALIZE_STEPS)


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


_JoinPlan = namedtuple("_JoinPlan", "explicit key1 key2 out1 out2 at1 at2")


@lru_cache(maxsize=1024)
def _join_plan(ex1, ex2, drop):
    """How to join tables over columns ex1 and ex2, projecting out `drop`.
    A plan depends on column names only, so repeated evaluations share it.

    Output columns are ex1's surviving ones, then ex2's own: the order comes
    from the formula, never from row counts. key1/key2 build the shared-column
    keys, out1/out2 the part of the output row each side contributes, and
    at1/at2 the (key, part) positions that name a side's grouping in the
    index memo; a side whose part positions are empty contributes no column.
    """
    shared = [v for v in ex1 if v in ex2]
    own1 = tuple(v for v in ex1 if v not in drop)
    own2 = tuple(v for v in ex2 if v not in ex1 and v not in drop)
    at1, at2 = [
        (tuple(ex.index(v) for v in shared), tuple(ex.index(v) for v in own))
        for ex, own in ((ex1, own1), (ex2, own2))
    ]
    key1, key2 = [_key_of(list(at[0])) for at in (at1, at2)]
    out1, out2 = [_row_of(list(at[1])) for at in (at1, at2)]
    return _JoinPlan(own1 + own2, key1, key2, out1, out2, at1, at2)


# ---------------------------------------------------------------------------
# Evaluation: satisfying-assignment sets and count tables
# ---------------------------------------------------------------------------


class _Evaluator:
    """Table evaluation in one fold, under the kernel invariants above: an
    ep formula yields (explicit, rows), a counting formula a CountTable.

    The fold's context: an ep node's is (drop, count), `drop` the variables
    bound above it that occur, free in it, nowhere else under their binder,
    and `count` asks for the number of rows only (a conjunction under an
    exists chain then has its last join counted, not built); a projection's
    is the variables its chain sums above it (None atop the chain); a cast's
    is whether its whole liberal set is summed, making it count its rows."""

    def __init__(self, max_rows, stats):
        self.max_rows = max_rows
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("peak_rows", 0)
        self._formula = self._free = None  # id(node) -> free variables of _formula's nodes
        self._steps = {
            Atom: self._atom,
            Or: self._or,
            And: lambda node, ctx, s1, s2: self._sat_join(s1, s2, *ctx),
            Exists: lambda node, ctx, body: body,
            Top: lambda node, ctx: ((), 1 if ctx[1] else {()}),
            Cast: self._cast,
            Const: lambda node, ctx: CountTable(
                (), (), self.b.universe, {(): node.n} if node.n != 0 else {}
            ),
            Expand: lambda node, ctx, t: CountTable(
                t.explicit, tuple(sorted(set(t.wildcard) | node.vars)), self.b.universe, t.data
            ),
            Project: self._project,
            Times: self._times,
            Plus: self._plus,
        }
        self._down = {
            # the universe is non-empty, so a binder absent from the body drops away
            Exists: lambda node, ctx: [(node.body, (ctx[0] | {node.var}, ctx[1]))],
            And: self._down_and,
            Or: lambda node, ctx: [(node.left, (ctx[0], False)), (node.right, (ctx[0], False))],
            Cast: lambda node, count: [(node.ep, (frozenset(), bool(count)))],
            Project: self._down_project,
        }

    def eval(self, f, b):
        """f's value on b. The free sets of f's nodes, computed when a join
        first needs them, are kept for the next structure."""
        if f is not self._formula:
            self._formula, self._free = f, {}
        self.b = b
        # groupings of the structure's fact sets, shared by every atom, cast
        # and term of this evaluation
        self._relation = {id(rows): name for name, rows in b.relations.items()}
        self._index = {}
        return fold(f, self._steps, self._down)

    def _down_and(self, node, ctx):
        # a bound variable both sides share must reach the join
        drop = ctx[0]
        if not drop:
            return [(node.left, (drop, False)), (node.right, (drop, False))]
        if not self._free:
            self._free = {id(g): s for g, s in _free_sets(self._formula)}
        fl, fr = self._free[id(node.left)], self._free[id(node.right)]
        return [(node.left, (drop - (fl & fr), False)), (node.right, (drop - fl, False))]

    def _down_project(self, node, ctx):
        summed = node.vars if ctx is None else ctx | node.vars
        child = node.child
        if isinstance(child, Cast):
            return [(child, summed.issuperset(child.liberal))]
        return [(child, summed if isinstance(child, Project) else None)]

    def _note(self, n):
        if n > self.max_rows:
            raise CapExceeded(f"table would hold {n} > {self.max_rows} rows")
        if n > self.stats["peak_rows"]:
            self.stats["peak_rows"] = n

    # -- ep formulas --

    def _atom(self, f, ctx):
        drop, count = ctx
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
        return explicit, len(rows) if count else rows

    def _or(self, f, ctx, s1, s2):
        (ex1, rows1), (ex2, rows2) = s1, s2
        explicit = tuple(dict.fromkeys(ex1 + ex2))
        rows = self._sat_expand(ex1, rows1, explicit) | self._sat_expand(ex2, rows2, explicit)
        self._note(len(rows))
        return explicit, len(rows) if ctx[1] else rows

    def _sat_expand(self, explicit, rows, target):
        """rows over `explicit` re-indexed by `target` ⊇ explicit (new
        columns range over the universe)."""
        if explicit == target:
            return rows
        self._note(len(rows) * len(self.b.universe) ** (len(target) - len(explicit)))
        fills, build = _widen(explicit, target, self.b.universe)
        return {build(r + fill) for r in rows for fill in fills}

    def _groups(self, rows, key, out, at):
        """{shared key: set of the side's parts}. A structure's own fact set
        is grouped once per evaluation: the memo key is its relation and `at`."""
        name = self._relation.get(id(rows))
        groups = self._index.get((name, at))
        if groups is None:
            groups = defaultdict(set)
            for r in rows:
                groups[key(r)].add(out(r))
            if name is not None:
                self._index[name, at] = groups
        return groups

    def _sat_join(self, s1, s2, drop, count=False):
        """The join of s1 and s2 with `drop` projected out, grouped by the
        shared key. When s2 contributes no column (a semijoin), the union of
        s1's groups over s2's keys; else the product of the two sides' groups
        per common key, or with `count` only the number of its rows."""
        (ex1, rows1), (ex2, rows2) = s1, s2
        plan = _join_plan(ex1, ex2, drop)
        if plan.at2[1] and not plan.at1[1]:
            # s1 contributes no column; swapped, the output columns stay
            (ex1, rows1), (ex2, rows2) = s2, s1
            plan = _join_plan(ex1, ex2, drop)
        if not rows1 or not rows2:
            rows = set()
        elif not plan.at2[1]:
            g1 = self._groups(rows1, plan.key1, plan.out1, plan.at1)
            rows = set().union(*[g1[k] for k in set(map(plan.key2, rows2)) if k in g1])
        else:
            g1 = self._groups(rows1, plan.key1, plan.out1, plan.at1)
            g2 = self._groups(rows2, plan.key2, plan.out2, plan.at2)
            if count:
                return plan.explicit, _count_pairs(g1, g2)
            rows = set()
            for k in g1.keys() & g2.keys():
                # checked as the rows grow; the parts of one key form distinct rows
                if max(len(rows), len(g1[k]) * len(g2[k])) > self.max_rows:
                    raise CapExceeded(f"table would hold more than {self.max_rows} rows")
                rows.update(starmap(add, product(g1[k], g2[k])))
        self._note(len(rows))
        return plan.explicit, len(rows) if count else rows

    # -- counting formulas --

    def _cast(self, f, count, s):
        if count:
            return s  # (explicit, row count), for the projection above
        explicit, rows = s
        wild = tuple(sorted(set(f.liberal) - set(explicit)))
        return CountTable(explicit, wild, self.b.universe, dict.fromkeys(rows, 1))

    def _project(self, f, inner, value):
        """A chain of projections summed out in one pass, at its top; the
        projections inside the chain pass their child's value up. A cast
        whose whole liberal set is summed comes up as its row count."""
        if inner is not None:
            return value
        vars_ = set(f.vars)
        while isinstance(f.child, Project):
            f = f.child
            vars_ |= f.vars
        if isinstance(value, tuple):
            explicit, n = value
            total = n * len(self.b.universe) ** len(vars_ - set(explicit))
            data = {(): total} if total else {}
            self._note(len(data))
            wild = tuple(sorted(set(f.child.liberal) - vars_))
            return CountTable((), wild, self.b.universe, data)
        t = value
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

    def _times(self, f, ctx, t1, t2):
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

    def _plus(self, f, ctx, t1, t2):
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


def _count_pairs(g1, g2):
    """|U_k A_k x B_k| over the common keys, as the sum over parts a of
    |U_{k ∋ a} B_k| with a from the side that has fewer entries: C-level
    unions of parts that already exist instead of the answer rows."""
    common = g1.keys() & g2.keys()
    if sum(len(g1[k]) for k in common) > sum(len(g2[k]) for k in common):
        g1, g2 = g2, g1
    keys_of = defaultdict(list)
    for k in common:
        for a in g1[k]:
            keys_of[a].append(k)
    return sum(
        len(g2[ks[0]]) if len(ks) == 1 else len(set().union(*map(g2.__getitem__, ks)))
        for ks in keys_of.values()
    )


def evaluate(f, b, max_rows=10**7, stats=None):
    """Table of the formula's values over assignments of its free variables."""
    _require_valid(f)
    _check_signature(_infer_signature(f), b, "formula")
    return _Evaluator(max_rows, stats).eval(f, b)


def _sentence_signature(f):
    """The signature of a closed formula's atoms, once it is checked valid."""
    _require_sentence(_require_valid(f).free, "eval_sentence")
    return _infer_signature(f)


def _sentence_value(f, sig, b, evaluator):
    _check_signature(sig, b, "formula")
    return evaluator.eval(f, b).data.get((), 0)


def eval_sentence(f, b, max_rows=10**7, stats=None):
    """Value of a closed formula (free set empty) as a plain integer."""
    return _sentence_value(f, _sentence_signature(f), b, _Evaluator(max_rows, stats))


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

    # the sentence's checks and free sets, once for all samples
    sig, evaluator = _sentence_signature(f), _Evaluator(10**7, None)
    for b in samples:
        if _sentence_value(f, sig, b, evaluator) != oracle_count(q, b):
            return False, b
    return True, None
