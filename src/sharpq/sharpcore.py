"""Counting formulas over ep-casts: AST, well-formedness, width, evaluation.

A counting formula is built from casts C[ep; L] (the 0/1 indicator of an
ep-formula, padded to the liberal set L), projections P V (summation over V),
expansions E V (adding vacuous variables), products, sums, and integer
constants. Evaluation produces a table of integers indexed by assignments of
the formula's free variables; its cost is governed by the formula's width.

Kernel invariants: a row holds its table's `explicit` columns in order, as
a tuple, except that a row of one column is its bare value and a row of none
is (); _row_of builds a row from another, _combine one from two parts. A
table is a _Facts (an atom over a whole relation, read as its argument
columns) or a _Rows (built rows, for a counting table a dict of nonzero
values, or a held product join); both answer len, pick (the entries at given
positions), distinct (each row once), grouped, sides and semijoin, so
nothing else asks which one it has. Built rows are never mutated, but for
the sets an Or builds or widens its left side into, which no other table
holds: that Or, or one whose left side it is, grows it in place. And and
Times run one join: a semijoin (one side contributes no column) keeps
the other side's parts whose key the first side holds, filtered in C,
or, in one evaluation, the rows a relation gave last at the same
positions for an equal key set (a chain at its fixpoint
filters no more; those rows are never mutated, so sharing them is safe);
any other join groups each side by the shared key and emits, per common
key, the product of the two groups, a counting row valued by the product
of its two rows' values. Binders are projected inside the join that
consumes them, and a relation's grouping is shared by one evaluation's
atoms, casts and terms. A product join of sets that keeps its shared
columns is held as its sides' groupings: its size is known before any row
exists, and a join keyed on the same columns takes them as sides of its
own. A fully summed cast over a conjunction under an exists chain has its
last join counted from its sides, never built. Or and Plus share one
widening union. `stats["peak_rows"]` is the largest table, built or held;
`max_rows` caps every such table as it grows.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import compress, product, starmap
from math import prod
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
    _ByText,
    _EPQ_TOKENS,
    _NAME_TOKEN,
    _check_signature,
    _infer_signature,
    _parse_ep_span,
    _strip_epq_comments,
    _Tokens,
    _union,
    fold,
    free_variables,
)
from .relstore import Record

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _SharpByText(_ByText):
    """Equality, hash and repr of a counting formula through its `.shq` text."""

    __slots__ = ()

    def _text(self):
        return serialize_sharp(self)


class Cast(_SharpByText):
    """0/1 indicator of an ep-formula over assignments of the liberal set."""

    __slots__ = _fields = ("ep", "liberal")
    _kids = ("ep",)

    def __init__(self, ep, liberal):
        super().__init__(ep, tuple(sorted(set(liberal))))


class Project(_SharpByText):
    __slots__ = _fields = ("vars", "child")
    _kids = ("child",)

    def __init__(self, vars, child):
        super().__init__(frozenset(vars), child)


class Expand(_SharpByText):
    __slots__ = _fields = ("vars", "child")
    _kids = ("child",)

    def __init__(self, vars, child):
        super().__init__(frozenset(vars), child)


class Times(_SharpByText):
    __slots__ = _fields = _kids = ("left", "right")


class Plus(_SharpByText):
    __slots__ = _fields = _kids = ("left", "right")


class Const(_SharpByText):
    __slots__ = _fields = ("n",)
    _kids = ()


# ---------------------------------------------------------------------------
# free/closed bookkeeping and validation
# ---------------------------------------------------------------------------


class Violation(Record):
    __slots__ = _fields = ("path", "message")


class Validation(Record):
    __slots__ = _fields = ("free", "closed", "violations")

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
    return Validation(fr, cl, tuple(violations))


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

# names as `.epq` lexes them, integers, and any other character as a token of
# its own, so the reader, not the lexer, reports a character out of place
_SHQ_TOKENS = re.compile(rf"\s*(?:{_NAME_TOKEN}|(?P<int>-?\d+)|(?P<char>\S))")


def parse_sharp(text):
    """Parse `.shq` text; raises ParseError on syntax or side-condition errors."""
    toks = _Tokens(_SHQ_TOKENS, _strip_epq_comments(text))
    f = _parse_formula(toks)
    if toks.peek()[0] is not None:
        toks.error(f"trailing input: {toks.text[toks.peek()[2]]!r}")
    report = validate(f)
    if not report.ok:
        v = report.violations[0]
        raise ParseError(f"ill-formed counting formula at {v.path}: {v.message}")
    return f


def _expect(toks, char):
    if toks.peek()[1] != char:
        toks.error(f"expected {char!r}")
    toks.next()


def _parse_formula(toks):
    """Each P{..}/E{..} prefix and open '(' waits on an explicit stack until
    its operand is complete, so nesting costs no Python stack."""
    pending = []  # (Project or Expand, vars), ("(", None) or (op, left operand)
    while True:
        kind, val, off = toks.next()
        if val == "(":
            pending.append(("(", None))
            continue
        if kind == "int":
            node = Const(int(val))
        elif val == "C" and toks.peek()[1] == "[":
            node = _parse_cast(toks, toks.next()[2] + 1)
        elif val in ("P", "E") and toks.peek()[1] == "{":
            pending.append((Project if val == "P" else Expand, _parse_varset(toks)))
            continue
        else:
            toks.error("expected 'C[', 'P{', 'E{', '(' or an integer", off)
        # the operand is complete: apply the prefixes and close the products
        # and sums it ends
        while pending:
            kind, arg = pending[-1]
            if kind == "(":
                op = toks.peek()[1]
                if op not in ("*", "+"):
                    toks.error("expected '*' or '+'")
                toks.next()
                pending[-1] = (op, node)
                break
            pending.pop()
            if kind in ("*", "+"):
                _expect(toks, ")")
                node = Times(arg, node) if kind == "*" else Plus(arg, node)
            else:
                node = kind(frozenset(arg), node)
        else:
            return node


def _parse_varset(toks):
    _expect(toks, "{")
    names = []
    if toks.peek()[1] == "}":
        toks.next()
        return names
    while True:
        kind, name, off = toks.next()
        if kind != "name":
            toks.error("expected a variable name", off)
        names.append(name)
        _, sep, off = toks.next()
        if sep == "}":
            return names
        if sep != ",":
            toks.error("expected ',' or '}' in variable set", off)


def _parse_cast(toks, start):
    """The rest of a cast whose body starts at text offset `start`, just after
    its '['. The body, up to the first ';', is lexed and parsed as `.epq`."""
    end = toks.text.find(";", start)
    if end < 0:
        toks.error("cast needs ';' between formula and variable set", start)
    try:
        ep = _parse_ep_span(_Tokens(_EPQ_TOKENS, toks.text, start, end, end="end of cast"))
    except ParseError as exc:
        raise ParseError(f"inside cast: {exc.reason}", exc.line, exc.column) from None
    while toks.next()[2] < end:  # past the body's `.shq` tokens and the ';'
        pass
    liberal = _parse_varset(toks)
    _expect(toks, "]")
    return Cast(ep, tuple(liberal))


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


def _same(row):
    return row


@lru_cache(maxsize=1024)
def _row_of(width, positions):
    """Row builder from rows of `width` columns to their entries at
    `positions`, a tuple: a row of one column is its bare value and a row of
    none is (). Cached like _join_plan."""
    if positions == tuple(range(width)):
        return _same
    return itemgetter(*positions) if positions else lambda row: ()


def _pair(a, b):
    return a, b


@lru_cache(maxsize=64)
def _combine(w1, w2):
    """Builder of a row from a part of w1 columns followed by one of w2."""
    if not w2:
        return lambda a, b: a
    if not w1:
        return lambda a, b: b
    if w1 == 1:
        return _pair if w2 == 1 else lambda a, b: (a, *b)
    return (lambda a, b: (*a, b)) if w2 == 1 else add


def _pairs(combine, parts1, parts2):
    """The rows of every pair of parts (a pair of bare values is one)."""
    pairs = product(parts1, parts2)
    return pairs if combine is _pair else starmap(combine, pairs)


def _product_rows(sides, k):
    """The rows of each choice of one part per side at key k, laid out in turn."""
    rows, width = sides[0][0][k], sides[0][1]
    for groups, w in sides[1:]:
        rows, width = _pairs(_combine(width, w), rows, groups[k]), width + w
    return rows


def _widen(explicit, target):
    """(extra, build) re-indexing rows over `explicit` by `target` ⊇ explicit:
    row r becomes build(r, fill) for each fill, a row over the `extra` new
    columns."""
    extra = tuple(v for v in target if v not in explicit)
    cols = explicit + extra
    order = _row_of(len(cols), tuple(map(cols.index, target)))
    combine = _combine(len(explicit), len(extra))
    return len(extra), lambda r, fill: order(combine(r, fill))


@lru_cache(maxsize=1024)
def _join_plan(ex1, ex2, drop):
    """How to join tables over columns ex1 and ex2, projecting out `drop`:
    (explicit, at1, at2, combine, handoff). It depends on column names only,
    so joins of one shape share it. The output columns `explicit` are ex1's
    surviving ones, then ex2's own, in the formula's order. at1/at2 are each
    side's (key, part) positions: its shared columns and those it
    contributes to the output row, which `combine` builds from the two
    parts. When every shared column is kept, `handoff` holds their output
    positions, where a consumer keying on them finds the join's groups;
    otherwise it is None."""
    shared = [v for v in ex1 if v in ex2]
    own1 = tuple(v for v in ex1 if v not in drop)
    own2 = tuple(v for v in ex2 if v not in ex1 and v not in drop)
    at1, at2 = [
        (tuple(ex.index(v) for v in shared), tuple(ex.index(v) for v in own))
        for ex, own in ((ex1, own1), (ex2, own2))
    ]
    handoff = None if drop.intersection(shared) else tuple(map(own1.index, shared))
    return own1 + own2, at1, at2, _combine(len(own1), len(own2)), handoff


def _semijoin(t, at, keys):
    """Table t's parts at at[1] whose key at at[0] is in `keys`, filtered in C."""
    return set(compress(t.pick(at[1]), map(keys.__contains__, t.pick(at[0]))))


def _group(keys, parts):
    """{key: set of parts} over two parallel iterables, one Python step per
    pair."""
    groups = defaultdict(set)
    for k, p in zip(keys, parts):
        groups[k].add(p)
    return groups


class _Facts:
    """The table of an atom over a relation, read as its argument columns
    (Structure.columns). One is made per relation per evaluation and keeps
    the relation's groupings and last semijoins by their (key, part)
    positions, so the atoms, casts and terms of that evaluation share them."""

    __slots__ = ("b", "name", "columns", "groups", "held")

    def __init__(self, b, name):
        self.b, self.name, self.columns = b, name, b.columns(name)
        self.groups, self.held = {}, {}

    def __len__(self):
        return len(self.columns[0])

    def distinct(self):
        """The rows, each once: a unary relation's column, else its tuple set."""
        columns = self.columns
        return columns[0] if len(columns) == 1 else self.b.tuples(self.name)

    def pick(self, positions):
        """The entries at `positions` of every fact, in the columns' order."""
        columns = self.columns
        if len(positions) == 1:
            return columns[positions[0]]
        if not positions:
            return itertools.repeat((), len(columns[0]))
        return zip(*[columns[p] for p in positions])

    def keyset(self, positions):
        return set(self.pick(positions))

    def grouped(self, at):
        """{key: set of parts} at positions at[0] and at[1], once."""
        groups = self.groups.get(at)
        if groups is None:
            groups = self.groups[at] = _group(self.pick(at[0]), self.pick(at[1]))
        return groups

    def sides(self, at):
        return [(self.grouped(at), len(at[1]))]

    def semijoin(self, at, keys):
        """_semijoin, or the rows of the last one at `at` if its keys equal these."""
        last, rows = self.held.get(at, (None, None))
        if not (last is keys or last == keys):
            rows = _semijoin(self, at, keys)
        self.held[at] = keys, rows
        return rows


class _Rows:
    """Any other table: built rows (for a counting table a dict of nonzero
    values), or a product join that keeps its shared columns, held as its
    factors ([(groups, width)]: a row is one part of each, in turn), their
    common keys and the keys' row positions (`handoff`); its size `n` (rows
    of different keys differ) is known before any row exists."""

    __slots__ = ("width", "rows", "factors", "keys", "handoff", "n")

    def __init__(self, width, rows):  # rows None: a held join sets the rest
        self.width, self.rows = width, rows

    def __len__(self):
        return self.n if self.rows is None else len(self.rows)

    def values(self):  # a counting table's, in the order of distinct()
        return self.rows.values()

    def distinct(self):
        """The rows, each once: a held table's are built on the first call."""
        if self.rows is None:
            self.rows = list(itertools.chain.from_iterable(
                _product_rows(self.factors, k) for k in self.keys
            ))
        return self.rows

    def pick(self, positions):
        """The rows' entries at `positions`, in the order of distinct()."""
        if not positions:
            return itertools.repeat((), len(self))
        build = _row_of(self.width, positions)
        return self.distinct() if build is _same else map(build, self.distinct())

    def keyset(self, positions):
        keys = self.pick(positions)
        return keys if type(keys) is set else set(keys)

    def grouped(self, at):
        """{key: parts} at positions at[0] and at[1], each key's parts a set
        or a {part: value} dict."""
        if type(self.rows) is not dict:
            return _group(self.pick(at[0]), self.pick(at[1]))
        groups = defaultdict(dict)
        for k, p, v in zip(self.pick(at[0]), self.pick(at[1]), self.values()):
            groups[k][p] = v
        return groups

    def sides(self, at):
        """[(groups, width)] with per-key products grouped(at): a held join's projected factors."""
        if self.rows is not None or self.handoff != at[0]:
            return [(self.grouped(at), len(at[1]))]
        sides, offset = [], 0
        for groups, w in self.factors:
            sub = tuple(p - offset for p in at[1] if offset <= p < offset + w)
            part, offset = _row_of(w, sub), offset + w
            if part is not _same:
                groups = {k: set(map(part, groups[k])) for k in self.keys}
            sides.append((groups, len(sub)))
        return sides

    semijoin = _semijoin  # built rows are filtered by one semijoin each


# ---------------------------------------------------------------------------
# Evaluation: satisfying-assignment sets and count tables
# ---------------------------------------------------------------------------


class _Evaluator:
    """Table evaluation under the kernel invariants above, planned once per
    formula. Every node yields a table over its columns, a counting
    formula's holding nonzero counts, or a row count where only that is
    asked for. A variable of a node's free set that is not a column is one
    its value does not depend on.

    No column depends on the structure, so one fold of a formula (see
    _make_plan) makes every choice that depends on the formula alone: each
    node's columns, an atom's positions and equality filters, a join's
    _join_plan and whether its sides swap, a projection's summed set, kept
    positions and power of |B|, a cast's count flag. It records one step per
    node that does work on tables; a node that passes its kid's value up
    (Exists, Expand, a projection inside a chain) records none. Evaluating
    on a structure runs the steps, which pay only for the relations, the
    tables and _note.

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
        # the formula planned last and its plan; while it is planned, the
        # free sets of its nodes (id(node) -> free variables), computed when
        # a join first needs them
        self._formula = self._plan = self._free = None
        # per node class: (node, context, kid columns) -> (columns, step or None)
        self._planners = {
            Atom: self._atom,
            Or: self._or,
            And: lambda node, ctx, ex1, ex2: self._join(ex1, ex2, *ctx),
            Exists: lambda node, ctx, body: (body, None),
            Top: lambda node, ctx: ((), (lambda: 1) if ctx[1] else (lambda: _Rows(0, {()}))),
            Cast: self._cast,
            Const: lambda node, ctx: ((), lambda: _Rows(0, {(): node.n} if node.n != 0 else {})),
            Expand: lambda node, ctx, child: (child, None),
            Project: self._project,
            Times: lambda node, ctx, ex1, ex2: self._join(ex1, ex2, frozenset(), valued=True),
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
        """f's (columns, table) on b, by f's plan, made on the first call
        with f and run again for each structure."""
        if f is not self._formula:
            self._formula, self._free = f, None
            self._plan = self._make_plan(f)
        columns, steps = self._plan
        self.b = b
        self._facts = {}  # relation name -> its _Facts in this evaluation
        values = []
        put = values.append
        for step, n in steps:
            if n == 2:
                right = values.pop()
                values[-1] = step(values[-1], right)
            elif n == 1:
                values[-1] = step(values[-1])
            else:
                put(step())
        self._facts = None  # drops the relations' groupings and held semijoins
        return columns, values[0]

    def _make_plan(self, f):
        """(f's columns, its steps): each step with its kid count, in the
        order the fold of f reaches their nodes' planners."""
        steps, planners = [], self._planners

        def record(node, ctx, *kids):
            columns, step = planners[type(node)](node, ctx, *kids)
            if step is not None:
                steps.append((step, len(kids)))
            return columns

        return fold(f, dict.fromkeys(planners, record), self._down), steps

    def _down_and(self, node, ctx):
        # a bound variable both sides share must reach the join
        drop = ctx[0]
        if not drop:
            return [(node.left, (drop, False)), (node.right, (drop, False))]
        if self._free is None:
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
        symbol, args = f.symbol, f.args
        explicit = tuple([v for v in dict.fromkeys(args) if v not in drop])
        positions = tuple(args.index(v) for v in explicit)
        same = [(args.index(v), i) for i, v in enumerate(args) if args.index(v) != i]
        build, everything = _row_of(len(args), positions), tuple(range(len(args)))

        def atom():
            facts = self._facts.get(symbol)
            if facts is None:
                facts = self._facts[symbol] = _Facts(self.b, symbol)
            if explicit == args:
                rows = facts
            elif same:
                rows = _Rows(len(explicit), {
                    build(t) for t in facts.pick(everything) if all(t[i] == t[j] for i, j in same)
                })
            else:
                rows = _Rows(len(explicit), set(facts.pick(positions)))
            self._note(len(rows))
            return len(rows) if count else rows

        return explicit, atom

    def _or(self, f, ctx, ex1, ex2):
        explicit, widened = self._widened(ex1, ex2, False)
        width, count = len(explicit), ctx[1]
        # a left `|` hands up a set no other table holds, and widening builds
        # a fresh one: a chain grows one, and a widened left side is grown
        grow = type(f.left) is Or or ex1 != explicit

        def union(t1, t2):
            t1, t2 = widened(t1, t2)
            rows = t1.distinct() if grow else set(t1.distinct())
            rows.update(t2.distinct())
            self._note(len(rows))
            return len(rows) if count else _Rows(width, rows)

        return explicit, union

    def _widened(self, ex1, ex2, valued):
        """The joint columns of two tables, and a step re-indexing both by
        them (a new column ranges over the universe), for Or and Plus to
        unite."""
        explicit = tuple(dict.fromkeys(ex1 + ex2))
        width = len(explicit)
        sides = [None if ex == explicit else _widen(ex, explicit) for ex in (ex1, ex2)]

        def widen(t, side):
            if side is None:
                return t
            extra, build = side
            universe = self.b.universe
            self._note(len(t) * len(universe) ** extra)
            fills = universe if extra == 1 else list(product(universe, repeat=extra))
            rows = t.distinct()
            if valued:
                rows = {build(r, fill): v for r, v in zip(rows, t.values()) for fill in fills}
            else:
                rows = {build(r, fill) for r in rows for fill in fills}
            return _Rows(width, rows)

        return explicit, lambda t1, t2: (widen(t1, sides[0]), widen(t2, sides[1]))

    def _join(self, ex1, ex2, drop, count=False, valued=False):
        """The columns of the join of tables over ex1 and ex2 with `drop`
        projected out, and its step, which takes the two tables: each row of
        `valued` counting tables is valued by the product of its two rows'.
        When one side contributes no column (a semijoin), the other's rows
        whose shared key it holds; else the product of the two sides' groups
        by the shared key, per common key, or with `count` only the number
        of its rows."""
        explicit, at1, at2, combine, handoff = _join_plan(ex1, ex2, drop)
        swap = bool(at2[1] and not at1[1])
        if swap:
            # side 1 contributes no column; swapped, the output columns stay
            explicit, at1, at2, combine, handoff = _join_plan(ex2, ex1, drop)
        (key1, part1), (key2, part2) = at1, at2
        width = len(explicit)

        def join(t1, t2):
            if swap:
                t1, t2 = t2, t1
            values = t1.values() if valued else None
            if not t1 or not t2:
                rows = set() if values is None else {}
            elif not part2:
                if values is None:
                    # side 1's parts whose key side 2 holds
                    rows = t1.semijoin(at1, t2.keyset(key2))
                else:
                    of = dict(zip(t2.pick(key2), t2.values()))
                    rows = {
                        p: v * of[k] for k, p, v in zip(t1.pick(key1), t1.pick(part1), values)
                        if k in of
                    }
            elif count or (handoff is not None and values is None):
                # a chain of held joins on one key: one product of many sides
                sides = t1.sides(at1) + t2.sides(at2)
                common = set(sides[0][0]).intersection(*[g for g, _ in sides[1:]])
                if count:
                    return _count_union(common, [g for g, _ in sides])
                # the shared columns are kept, so rows of different keys
                # differ: the table's size is the sum of the per-key products
                sizes = [prod(len(g[k]) for g, _ in sides) for k in common]
                n = sum(sizes)
                if n > self.max_rows:
                    # "more than" when one key, or all keys but the largest,
                    # exceed the cap, so the text follows no key order
                    largest = max(sizes)
                    self._check_growth(n - largest, largest)
                self._note(n)
                held = _Rows(width, None)
                held.factors, held.keys, held.handoff, held.n = sides, common, handoff, n
                return held
            else:
                g1, g2 = t1.grouped(at1), t2.grouped(at2)
                common = g1.keys() & g2.keys()
                # rows of different keys may coincide: built to be counted
                rows = set() if values is None else {}
                for k in common:
                    self._check_growth(len(rows), len(g1[k]) * len(g2[k]))
                    rows.update(_pairs(combine, g1[k], g2[k]) if values is None else (
                        (combine(p1, p2), v1 * v2)
                        for (p1, v1), (p2, v2) in product(g1[k].items(), g2[k].items())
                    ))
                self._check_growth(len(rows))  # the total too: the text follows no key order
            self._note(len(rows))
            return len(rows) if count else _Rows(width, rows)

        return explicit, join

    def _check_growth(self, n, size=0):
        """Refuse a product join of n rows, or one key's `size` rows, if either
        exceeds max_rows."""
        if max(n, size) > self.max_rows:
            raise CapExceeded(f"table would hold more than {self.max_rows} rows")

    # -- counting formulas --

    def _cast(self, f, count, explicit):
        if count:
            # the row count goes up to the projection above, which sums
            # every column, as the value of the empty row
            return explicit, lambda n: _Rows(0, {(): n} if n else {})
        width = len(explicit)
        return explicit, lambda rows: _Rows(width, dict.fromkeys(rows.distinct(), 1))

    def _project(self, f, inner, explicit):
        """A chain of projections summed out in one pass, at its top; the
        projections inside the chain pass their child's value up. A cast
        whose whole liberal set is summed comes up as its row count."""
        if inner is not None:
            return explicit, None
        vars_ = set(f.vars)
        while isinstance(f.child, Project):
            f = f.child
            vars_ |= f.vars
        # every summed variable that is not a column contributes a factor |B|
        power = len(vars_ - set(explicit))
        keep = tuple([i for i, v in enumerate(explicit) if v not in vars_])
        key = _row_of(len(explicit), keep)

        def project(t):
            factor = len(self.b.universe) ** power
            if keep:
                sums = {}
                for row, val in zip(t.distinct(), t.values()):
                    k = key(row)
                    sums[k] = sums.get(k, 0) + val
                data = {k: v * factor for k, v in sums.items() if v}
            else:
                total = sum(t.values()) * factor
                data = {(): total} if total else {}
            self._note(len(data))
            return _Rows(len(keep), data)

        return tuple(explicit[i] for i in keep), project

    def _plus(self, f, ctx, ex1, ex2):
        explicit, widened = self._widened(ex1, ex2, True)
        width = len(explicit)
        power1, power2 = width - len(ex1), width - len(ex2)

        def plus(t1, t2):
            # both sides are built widened before they are added
            n = len(self.b.universe)
            self._note(len(t1) * n ** power1 + len(t2) * n ** power2)
            t1, t2 = widened(t1, t2)
            data = dict(zip(t1.distinct(), t1.values()))
            for k, v in zip(t2.distinct(), t2.values()):
                data[k] = data.get(k, 0) + v
            data = {k: v for k, v in data.items() if v}
            self._note(len(data))
            return _Rows(width, data)

        return explicit, plus


def _count_union(keys, sides):
    """|U_k S_1[k] x ... x S_n[k]| over `keys` for n >= 2 {key: parts} sides,
    no answer row built. Sides go fewest entries first, and each but the
    last splits a set of keys (from an explicit stack) into the sets that
    hold one of its parts; a set reached m times adds m times the size of a
    C-level union of the last side's parts under it, made once."""
    sides = sorted(sides, key=lambda s: sum(len(s[k]) for k in keys))
    last, reached, todo = sides.pop(), Counter(), [(keys, 0)]
    while todo:
        keys, i = todo.pop()
        keys_of = defaultdict(list)
        for k in keys:
            for a in sides[i][k]:
                keys_of[a].append(k)
        if i + 1 < len(sides):
            todo.extend((ks, i + 1) for ks in keys_of.values())
        else:
            reached.update(map(tuple, keys_of.values()))
    return sum(m * len(set().union(*map(last.__getitem__, ks))) for ks, m in reached.items())


def _sentence_signature(f):
    """The signature of a closed formula's atoms, once it is checked valid."""
    _require_sentence(_require_valid(f).free, "eval_sentence")
    return _infer_signature(f)


def _sentence_value(f, sig, b, evaluator):
    _check_signature(sig, b, "formula")
    return evaluator.eval(f, b)[1].rows.get((), 0)


def eval_sentence(f, b, max_rows=10**7, stats=None):
    """Value of a closed formula (free set empty) as a plain integer."""
    return _sentence_value(f, _sentence_signature(f), b, _Evaluator(max_rows, stats))


# ---------------------------------------------------------------------------
# Representations of queries
# ---------------------------------------------------------------------------


def naive_representation(q):
    """P L C[formula; L]: counts q's answers on every structure, width |L|."""
    lib = frozenset(q.liberal)
    return Project(lib, Cast(q.formula, tuple(q.liberal)))


def check_represents(f, q, samples):
    """Compare eval_sentence(f, ·) with oracle_count(q, ·) on each sample.

    Returns (True, None) or (False, first counterexample structure). A testing
    utility: passing on samples is evidence, not proof.
    """
    from .epquery import oracle_count

    # the sentence's checks and free sets, once for all samples; both sides
    # are deterministic, so a sample equal to an earlier one is skipped
    sig, evaluator = _sentence_signature(f), _Evaluator(10**7, None)
    for b in dict.fromkeys(samples):
        if _sentence_value(f, sig, b, evaluator) != oracle_count(q, b):
            return False, b
    return True, None
