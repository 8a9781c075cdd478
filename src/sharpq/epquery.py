"""Existential-positive queries: AST, .epq text format, structural views, oracle.

A query is an ep-formula (atoms, &, |, exists, true) plus a declared set of
liberal variables L that must contain the formula's free variables; answers are
counted over assignments L -> B. Disjunction-free queries round-trip with a
pair view (structure, liberal set) on which all of the decomposition machinery
operates.
"""

from __future__ import annotations

import itertools
import re
from functools import reduce

from .errors import CapExceeded, ParseError, SharpqError
from .relstore import (
    _COMMENT_RE,
    _UNBOUND,
    Frozen,
    Record,
    Signature,
    _backtrack,
    _conjunction,
    _fact_test,
    _set,
    make_structure,
)

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


# Every node class of both formula ASTs (these and sharpcore's) names its
# fields once, in `_fields`, which Frozen's __init__ sets, and its child
# fields, left to right, in `_kids`; subformulas() and fold() walk them.


class _ByText(Frozen):
    """Equality, hash and repr of a formula through its text, which the fold
    renders from an explicit stack, so no depth recurses. Nodes of different
    classes are never equal."""

    __slots__ = ()

    def _text(self):
        return render_ep(self)

    def __eq__(self, other):
        return type(self) is type(other) and self._text() == other._text()

    def __hash__(self):
        return hash(self._text())

    def __repr__(self):
        return f"<{type(self).__name__} {self._text()}>"


class Atom(_ByText):
    __slots__ = _fields = ("symbol", "args")
    _kids = ()

    def __str__(self):
        return f"{self.symbol}({','.join(self.args)})"


class And(_ByText):
    __slots__ = _fields = _kids = ("left", "right")


class Or(_ByText):
    __slots__ = _fields = _kids = ("left", "right")


class Exists(_ByText):
    __slots__ = _fields = ("var", "body")
    _kids = ("body",)


class Top(_ByText):
    __slots__ = _fields = _kids = ()


TOP = Top()


def subformulas(f):
    """Every node of an ep or counting formula, f included, in pre-order, left
    to right. A cast's child is its ep formula."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        out.append(node)
        for name in reversed(node._kids):
            stack.append(getattr(node, name))
    return out


def fold(f, steps, down=None, ctx=None):
    """f's value, `steps[type(node)](node, *kid values)` folded bottom-up in
    left-to-right post-order from an explicit stack: depth costs no Python
    stack, and a node reached through two parents is folded under each.
    With a `down` table, a context also flows top-down: the root's is `ctx`,
    and `down[type(node)](node, c)`, called in pre-order, lists the (kid,
    context) pairs below a node whose context is c (without an entry, all
    kids with None); steps then take it: `steps[type(node)](node, c, *kid
    values)`."""
    values, stack = [], [(f, ctx, -1)]
    push, pop, put = stack.append, stack.pop, values.append
    with_ctx = down is not None
    while stack:
        node, c, n = pop()
        if n < 0:
            split = down.get(type(node)) if with_ctx else None
            if split:
                kids = split(node, c)
                n = len(kids)
                if n:
                    push((node, c, n))
                    for kid, kc in reversed(kids):
                        push((kid, kc, -1))
                    continue
            else:  # the common case, kept free of a per-node list
                n = len(node._kids)
                if n:
                    push((node, c, n))
                    for name in reversed(node._kids):
                        push((getattr(node, name), None, -1))
                    continue
        step = steps[type(node)]
        if n == 2:  # no node has more than two kids
            right = values.pop()
            left = values[-1]
            values[-1] = step(node, c, left, right) if with_ctx else step(node, left, right)
        elif n == 1:
            values[-1] = step(node, c, values[-1]) if with_ctx else step(node, values[-1])
        else:
            put(step(node, c) if with_ctx else step(node))
    return values[0]


def _union(node, left, right):
    return left | right


# free variables of each ep node, from its kids' (shared by sharpcore)
FREE_STEPS = {
    Atom: lambda node: frozenset(node.args),
    And: _union,
    Or: _union,
    Exists: lambda node, body: body - {node.var},
    Top: lambda node: frozenset(),
}


def free_variables(f):
    """Free variables of an ep-formula, by the standard inductive definition."""
    return fold(f, FREE_STEPS)


# the variable names each ep node holds itself
VARIABLES = {Atom: lambda node: node.args, Exists: lambda node: (node.var,)}


def _all_variables(f, variables=VARIABLES):
    """Every variable name the nodes of a formula hold, by a table like
    VARIABLES (its default: every atom argument and binder)."""
    nodes = [node for node in subformulas(f) if type(node) in variables]
    return {v for node in nodes for v in variables[type(node)](node)}


def _infer_signature(f):
    """Signature of the atoms of an ep or counting formula; arity conflicts
    are errors."""
    symbols = {}
    for node in subformulas(f):
        if isinstance(node, Atom):
            prev = symbols.setdefault(node.symbol, len(node.args))
            if prev != len(node.args):
                raise ParseError(
                    f"relation {node.symbol} used with arities {prev} and {len(node.args)}"
                )
    return Signature(tuple(sorted(symbols.items())))


class LiberalQuery(Record):
    """An ep-formula together with its ordered liberal variable list (L ⊇ free)."""

    _fields = ("name", "formula", "liberal", "sig")
    # _oracle: oracle_count's compiled search, built on its first call
    __slots__ = (*_fields, "_oracle")

    def __init__(self, name, formula, liberal, sig):
        free = free_variables(formula)
        lib = set(liberal)
        if len(liberal) != len(lib):
            raise ParseError("duplicate liberal variable")
        if not free <= lib:
            missing = ", ".join(sorted(free - lib))
            raise ParseError(f"free variable(s) not in the liberal list: {missing}")
        super().__init__(name, formula, liberal, sig)
        _set(self, "_oracle", None)

    def __reduce__(self):
        # a copy or pickle leaves out the cached search (closures) and compiles its own
        return LiberalQuery, self._values(self)


class PpPair(Record):
    """A disjunction-free prenex query viewed as (structure, liberal elements)."""

    __slots__ = _fields = ("struct", "liberal")

    def __init__(self, struct, liberal):
        if not set(liberal) <= set(struct.universe):
            raise SharpqError("liberal elements must belong to the structure's universe")
        if len(set(liberal)) != len(liberal):
            raise SharpqError("duplicate liberal element")
        super().__init__(struct, liberal)

    @property
    def liberal_set(self):
        return frozenset(self.liberal)

    @property
    def quantified(self):
        return tuple(v for v in self.struct.universe if v not in self.liberal_set)


class Graph(Record):
    """Finite simple undirected graph. Edges are 2-element frozensets."""

    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices, edges):
        for e in edges:
            if len(e) != 2 or not e <= vertices:
                raise SharpqError(f"bad edge {set(e)!r}")
        super().__init__(vertices, edges)

    def neighbors(self, v):
        return {next(iter(e - {v})) for e in self.edges if v in e}

    def induced(self, vs):
        vs = frozenset(vs)
        return Graph(vs, frozenset(e for e in self.edges if e <= vs))

    def with_clique(self, vs):
        vs = list(vs)
        extra = {frozenset((a, b)) for a, b in itertools.combinations(vs, 2)}
        return Graph(self.vertices | set(vs), self.edges | extra)

    def connected_components(self):
        """Components as a list of frozensets, ordered by smallest vertex."""
        seen = set()
        comps = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in self.neighbors(u):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


# ---------------------------------------------------------------------------
# .epq parsing
# ---------------------------------------------------------------------------

# A token pattern skips whitespace and matches one token in a named group,
# whose name is the token's kind.
_NAME_TOKEN = r"(?P<name>[A-Za-z_][A-Za-z0-9_$]*)"
_EPQ_TOKENS = re.compile(rf"\s*(?:{_NAME_TOKEN}|(?P<punct>[(),.&|:]))")
_KEYWORDS = {"query", "exists", "true"}


class _Tokens:
    """Tokens of text[start:stop], as (kind, value, offset), lexed by the
    token pattern. Offsets, and so error lines and columns, count from the
    start of text; `end` is how messages name the end of the tokens."""

    def __init__(self, pattern, text, start=0, stop=None, end="end of input"):
        self.text = text
        self.stop = len(text) if stop is None else stop
        self.end = end
        self.tokens = []
        self._lex(pattern, start)
        self.i = 0

    def _lex(self, pattern, pos):
        while pos < self.stop:
            m = pattern.match(self.text, pos, self.stop)
            if not m:
                rest = self.text[pos : self.stop]
                stripped = rest.lstrip()
                if not stripped:
                    break
                line, col = _line_col(self.text, pos + len(rest) - len(stripped))
                raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
            kind = m.lastgroup
            self.tokens.append((kind, m[kind], m.start(kind)))
            pos = m.end()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.stop)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        t_kind, t_val, off = self.next()
        if t_kind != kind or (value is not None and t_val != value):
            want = value if value is not None else kind
            line, col = _line_col(self.text, off)
            raise ParseError(f"expected {want!r}, got {self.shown(t_val)}", line, col)
        return t_val

    def shown(self, val):
        """A token value as error messages show it; None is the end."""
        return self.end if val is None else repr(val)

    def error(self, msg, off=None):
        """Raise a ParseError at text offset `off`, by default the next token's."""
        line, col = _line_col(self.text, self.peek()[2] if off is None else off)
        raise ParseError(msg, line, col)


def _line_col(text, offset):
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


def _strip_epq_comments(text):
    return "\n".join(_COMMENT_RE.sub("", ln) for ln in text.splitlines())


def parse_query(text):
    """Parse a `.epq` document into a renamed-apart LiberalQuery."""
    toks = _Tokens(_EPQ_TOKENS, _strip_epq_comments(text))
    toks.expect("name", "query")
    kind, qname, off = toks.next()
    if kind != "name" or qname in _KEYWORDS:
        toks.error("expected a query name after 'query'", off)
    toks.expect("punct", "(")
    first = toks.i  # the list's tokens alternate name and ',' up to its ')'
    liberal = _names(toks)
    toks.expect("punct", ":")
    if not liberal:
        toks.error("the liberal list must name at least one variable", toks.tokens[first][2])
    at = {}
    for i, v in enumerate(liberal):
        if at.setdefault(v, i) != i:
            toks.error("duplicate variable in the liberal list", toks.tokens[first + 2 * i][2])

    header = frozenset(liberal)
    body = _parse_expression(toks, header)
    if toks.peek()[0] is not None:
        toks.error(f"trailing input after query body: {toks.peek()[1]!r}")

    body = _rename_apart(body, header)
    free = free_variables(body)
    if not free <= header:
        missing = ", ".join(sorted(free - header))
        raise ParseError(f"free variable(s) not in the header: {missing}")
    return LiberalQuery(qname, body, tuple(liberal), _infer_signature(body))


def _parse_expression(toks, header):
    """Ep expression parser over a token stream. Each open '(' and `exists`
    prefix (its body extends maximally right) is a frame [binders or None,
    finished disjuncts, conjuncts of the current one] on an explicit stack,
    so nesting costs no Python stack. `header` holds variable names that must
    not be quantified (empty for bare expressions, the liberal list for full
    queries)."""
    frames = [[None, [], []]]  # the outermost expr, closed by the caller
    while True:
        kind, val, off = toks.peek()
        if val == "(":
            toks.next()
            frames.append([None, [], []])
            continue
        if kind == "name" and val == "exists":
            binders = []
            while toks.peek()[:2] == ("name", "exists"):
                toks.next()
                k2, var, off2 = toks.next()
                if k2 != "name" or var in _KEYWORDS:
                    toks.error(f"expected a variable after 'exists', got {toks.shown(var)}", off2)
                if var in header:
                    toks.error(f"header variable {var!r} is quantified in the body", off2)
                toks.expect("punct", ".")
                binders.append(var)
            frames.append([binders, [], []])
            continue
        if kind == "name" and val == "true":
            toks.next()
            node = TOP
        elif kind == "name":
            node = _parse_atom(toks, val, off)
        else:
            toks.error(f"expected an atom, 'true', 'exists' or '(', got {toks.shown(val)}")
        # the factor is complete; close every frame that ends after it
        while True:
            binders, disjuncts, conjuncts = frames[-1]
            conjuncts.append(node)
            op = toks.peek()[1]
            if op in ("&", "|"):
                toks.next()
                if op == "|":
                    disjuncts.append(reduce(And, conjuncts))
                    conjuncts.clear()
                break
            node = reduce(Or, disjuncts + [reduce(And, conjuncts)])
            frames.pop()
            if not frames:
                return node
            if binders is None:
                toks.expect("punct", ")")
            else:
                node = reduce(lambda body, var: Exists(var, body), reversed(binders), node)


def _names(toks):
    """Comma-separated variable names up to a ')', which is consumed."""
    names = []
    more = toks.peek()[1] != ")"
    while more:
        kind, name, off = toks.next()
        if kind != "name" or name in _KEYWORDS:
            toks.error(f"expected a variable name, got {toks.shown(name)}", off)
        names.append(name)
        more = toks.peek()[1] == ","
        if more:
            toks.next()
    toks.expect("punct", ")")
    return names


def _parse_atom(toks, symbol, off):
    """An atom whose relation name is the next token."""
    toks.next()
    toks.expect("punct", "(")
    args = _names(toks)
    if not args:
        toks.error(f"relation {symbol!r} needs at least one argument", off)
    return Atom(symbol, tuple(args))


def _parse_ep_span(toks):
    """Parse the tokens of a bare, comment-free ep expression (no query
    header, as in a `.shq` cast); bound variables are renamed apart."""
    body = _parse_expression(toks, frozenset())
    if toks.peek()[0] is not None:
        toks.error(f"trailing input after expression: {toks.peek()[1]!r}")
    return _rename_apart(body, frozenset())


def _rename_apart(f, protected):
    """Freshen bound variables so no variable is quantified twice and bound
    names never collide with protected/free names. Fresh names are v$1, v$2,
    ... in traversal order, minted only when the original name is taken."""
    taken = set(protected) | _all_variables(f)
    used_binders = set(protected) | set(free_variables(f))
    counter = itertools.count(1)
    binders = []  # the fresh binder of each Exists being folded, innermost last

    def bind(node, renaming):
        name = node.var
        if name in used_binders:
            while True:
                fresh = f"{name}${next(counter)}"
                if fresh not in taken:
                    break
            taken.add(fresh)
        else:
            fresh = name
        used_binders.add(name)
        used_binders.add(fresh)
        binders.append(fresh)
        return [(node.body, {**renaming, name: fresh})]

    def both(node, renaming):
        return [(node.left, renaming), (node.right, renaming)]

    steps = {
        Atom: lambda node, ren: Atom(node.symbol, tuple(ren.get(a, a) for a in node.args)),
        **dict.fromkeys((And, Or), lambda node, ren, left, right: type(node)(left, right)),
        Exists: lambda node, ren, body: Exists(binders.pop(), body),
        Top: lambda node, ren: node,
    }
    return fold(f, steps, {Exists: bind, And: both, Or: both}, {})


def _wrap(node, text, classes):
    return f"({text})" if isinstance(node, classes) else text


# the text of each ep node, from its kids' (shared by sharpcore)
RENDER_STEPS = {
    Atom: str,
    Top: lambda node: "true",
    And: lambda node, left, right: (
        f"{_wrap(node.left, left, Or)} & {_wrap(node.right, right, (Or, And))}"
    ),
    Or: lambda node, left, right: f"{left} | {_wrap(node.right, right, Or)}",
    Exists: lambda node, body: f"(exists {node.var} . {body})",
}


def render_ep(f):
    """Render an ep-formula as expression text; a `.shq` cast or an `.epq`
    query body parses it back."""
    return fold(f, RENDER_STEPS)


def serialize_query(q):
    """Render a LiberalQuery as `.epq` text; parse_query round-trips it."""
    return f"query {q.name}({','.join(q.liberal)}): {render_ep(q.formula)}\n"


# ---------------------------------------------------------------------------
# Counting oracle
# ---------------------------------------------------------------------------


def _close(value):
    """A (chain binders, conjuncts, bound) value as one (test, variables used)
    conjunct: the conjunction of its tests, or, for a chain, its search,
    which restores the outer values its binders shadow."""
    binders, conjuncts, _ = value
    used = frozenset().union(*(u for _, u in conjuncts)) - set(binders)
    if not binders:
        return _conjunction([test for test, _ in conjuncts]), used
    search, names = _backtrack(binders, conjuncts, first=True), tuple(dict.fromkeys(binders))

    def chain(h, b):
        outer = [h.get(v, _UNBOUND) for v in names]
        found = search(h, b)
        for v, val in zip(names, outer):
            if val is _UNBOUND:
                h.pop(v, None)
            else:
                h[v] = val
        return found

    return chain, used


def _conjunct_list(value):
    """The conjuncts a (chain binders, conjuncts, bound) value puts under an
    `&`: a chain is closed into one."""
    return [_close(value)] if value[0] else value[1]


def _times(p1, p2):
    """The product of two polynomials in |B|, each {exponent: coefficient}."""
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p1.items(), p2.items()):
        out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _either(node, left, right):
    bound = {e: left[2].get(e, 0) + right[2].get(e, 0) for e in left[2] | right[2]}
    (left, left_used), (right, right_used) = _close(left), _close(right)
    return (), [(lambda h, b: left(h, b) or right(h, b), left_used | right_used)], bound


# each ep node compiled for the oracle to (chain binders, conjuncts, bound),
# a conjunct being (test(h, b), the variables it uses): `exists` prepends
# its binder to the chain of its body; `&` concatenates conjuncts, and `|`
# closes both sides into one test. The bound is the search's assignments
# per liberal one, a polynomial in |B| ({exponent: coefficient}): without
# `|`, |B| to the number of binders; `|` searches one side, then the other
_ORACLE_STEPS = {
    Atom: lambda node: ((), [(_fact_test(node.symbol, node.args), frozenset(node.args))], {0: 1}),
    Top: lambda node: ((), [], {0: 1}),
    And: lambda node, left, right: (
        (), _conjunct_list(left) + _conjunct_list(right), _times(left[2], right[2])
    ),
    Or: _either,
    Exists: lambda node, body: ((node.var, *body[0]), body[1], {e + 1: c for e, c in body[2].items()}),
}


def _check_signature(sig, b, user="query"):
    """b must interpret every relation of sig, with the same arity."""
    for name, arity in sig.symbols:
        if name not in b.sig:
            raise SharpqError(f"structure lacks relation {name!r} used by the {user}")
        if b.sig.arity(name) != arity:
            raise SharpqError(
                f"arity mismatch for {name}: {user} uses {arity}, structure has {b.sig.arity(name)}"
            )


# The oracle compiles a formula from an explicit stack, but its compiled
# tests nest when they run: an `|` calls its sides' tests, and a maximal
# `exists` chain its search, which calls its conjuncts' (an `&` only lists
# them), at most three Python frames a level. A node's value is (levels
# below it, 1 for an open chain else 0), and closing a chain adds its level,
# so a closed value is the sum. oracle_count refuses formulas nested deeper
# than this, which keeps them well inside the default recursion limit.
_ORACLE_DEPTH = 200
_DEPTH_STEPS = {
    **dict.fromkeys((Atom, Top), lambda node: (0, 0)),
    Exists: lambda node, body: (body[0], 1),
    And: lambda node, left, right: (max(sum(left), sum(right)), 0),
    Or: lambda node, left, right: (max(sum(left), sum(right)) + 1, 0),
}


def _liberal_order(uses, liberal):
    """The liberal variables in the order that completes conjuncts earliest,
    each conjunct given by the liberal variables it uses. Repeatedly, the
    conjunct with the fewest unbound variables (ties to the one whose first
    unbound variable comes first in the header) has those variables bound
    next, in header order. Variables no conjunct uses come last."""
    at = {v: i for i, v in enumerate(liberal)}
    order, bound = [], set()
    pending = [sorted(used, key=at.__getitem__) for used in uses]
    while True:
        pending = [rest for rest in ([v for v in vs if v not in bound] for vs in pending) if rest]
        if not pending:
            return order + [v for v in liberal if v not in bound]
        nearest = min(pending, key=lambda rest: (len(rest), at[rest[0]]))
        order += nearest
        bound.update(nearest)


def _oracle_plan(q):
    """(search, work bound per liberal assignment) of q, compiled once and
    kept on q."""
    plan = q._oracle
    if plan is None:
        nodes = subformulas(q.formula)
        # a formula nests no more levels than it has nodes, so most need no depth fold
        depth = sum(fold(q.formula, _DEPTH_STEPS)) if len(nodes) > _ORACLE_DEPTH else 0
        if depth > _ORACLE_DEPTH:
            raise CapExceeded(
                f"oracle_count refuses a formula whose tests nest {depth} > {_ORACLE_DEPTH} "
                "levels deep; each `|` and each `exists` chain nests one level"
            )
        value = fold(q.formula, _ORACLE_STEPS)
        conjuncts = _conjunct_list(value)
        order = _liberal_order([used for _, used in conjuncts], q.liberal)
        plan = (_backtrack(order, conjuncts), value[2])
        _set(q, "_oracle", plan)
    return plan


def oracle_count(q, b, max_enum=10**8):
    """Ground-truth |q(B)| by exhaustive search.

    One backtracking search runs over the liberal variables and over each
    exists chain: it checks each conjunct as soon as its variables are
    bound. The liberal variables are bound in the order that completes the
    formula's top-level conjuncts earliest (ties to header order), and the
    ones left after the last check multiply the count by |B| each; a chain
    stops at its first satisfying assignment. Refuses when the naive
    enumeration would exceed max_enum assignments; the bound counts
    quantified variables too, since the search enumerates them in the worst
    case, and sums over the sides of an `|`, which it searches in turn.
    Refuses as well a formula whose compiled tests nest more than
    _ORACLE_DEPTH levels (`|`s and `exists` chains), too deep to run. The
    search is compiled once per query, on its first call.
    """
    _check_signature(q.sig, b)
    search, bound = _oracle_plan(q)
    n = len(b.universe)
    work = sum(c * n ** e for e, c in bound.items()) * n ** len(q.liberal)
    if work > max_enum:
        raise CapExceeded(
            f"oracle_count refuses {work} > {max_enum} enumerations; "
            "use the compiled engine for inputs of this size"
        )
    return search({}, b)


# ---------------------------------------------------------------------------
# DNF
# ---------------------------------------------------------------------------


def to_dnf_pp(q, max_disjuncts=4096):
    """Rewrite q into disjunction-free queries (all with q's liberal list).

    Applies exists/and distribution over | to fixpoint; duplicate disjuncts are
    removed syntactically, by their rendered text (the parser round-trips it).
    Width never increases: every produced subformula's free set is contained
    in a free set already present in the input.
    """

    def conjoin(node, lefts, rights):
        if len(lefts) * len(rights) > max_disjuncts:
            raise CapExceeded(
                f"DNF would need {len(lefts) * len(rights)} > {max_disjuncts} disjuncts"
            )
        return [And(a, c) for a in lefts for c in rights]

    disjuncts = fold(q.formula, {
        Atom: lambda node: [node],
        Top: lambda node: [node],
        Or: lambda node, lefts, rights: lefts + rights,
        And: conjoin,
        Exists: lambda node, bodies: [Exists(node.var, d) for d in bodies],
    })
    if len(disjuncts) > max_disjuncts:
        raise CapExceeded(f"DNF needs {len(disjuncts)} > {max_disjuncts} disjuncts")
    first = {}  # rendered text -> (index, disjunct) of its first occurrence
    for i, d in enumerate(disjuncts):
        first.setdefault(render_ep(d), (i, d))
    return [LiberalQuery(f"{q.name}_{i}", d, q.liberal, q.sig) for i, d in first.values()]


# ---------------------------------------------------------------------------
# Pair view
# ---------------------------------------------------------------------------


def _has_or(f):
    return any(isinstance(node, Or) for node in subformulas(f))


def pp_to_pair(q):
    """Structural view of a disjunction-free query.

    Universe = liberal list + remaining variables in first-appearance order;
    R(a1..ak) is a structure tuple iff the atom occurs in the formula.
    """
    if _has_or(q.formula):
        raise SharpqError("pp_to_pair requires a disjunction-free query")
    atoms = [node for node in subformulas(q.formula) if isinstance(node, Atom)]
    universe = list(q.liberal)
    seen = set(universe)
    for a in atoms:
        for v in a.args:
            if v not in seen:
                seen.add(v)
                universe.append(v)
    if not universe:
        # the constant-true query: pad with one quantified element so the
        # structure is non-empty; one padding element contributes count 1
        universe = ["pad$1"]
    rels = {}
    for a in atoms:
        rels.setdefault(a.symbol, set()).add(a.args)
    return PpPair(make_structure(q.sig, universe, rels), tuple(q.liberal))


def pair_to_pp(p, name="q"):
    """Prenex query for a pair: existentially close universe \\ liberal over
    the sorted conjunction of the structure's facts."""
    atoms = [Atom(sym, tup) for sym, tup in p.struct.all_facts()]
    body = reduce(And, atoms) if atoms else TOP
    for v in reversed(p.quantified):
        body = Exists(v, body)
    return LiberalQuery(name, body, tuple(p.liberal), p.struct.sig)


# ---------------------------------------------------------------------------
# Graphs of a pair
# ---------------------------------------------------------------------------


def primal_graph(p):
    """Vertices = universe; edges join distinct elements sharing a tuple."""
    edges = set()
    for _sym, tup in p.struct.all_facts():
        for a, b in itertools.combinations(set(tup), 2):
            edges.add(frozenset((a, b)))
    return Graph(frozenset(p.struct.universe), frozenset(edges))


def _exists_components(g, lib):
    """The exists-components of a pair with primal graph g and liberal set
    lib, as vertex sets: each connected block of quantified vertices plus the
    liberal vertices adjacent to it."""
    out = []
    for comp in g.induced(g.vertices - lib).connected_components():
        adjacent = set()
        for v in comp:
            adjacent |= g.neighbors(v) & lib
        out.append(frozenset(comp | adjacent))
    return out


def _contract_graph(g, lib, comps):
    """The contract graph of a pair with primal graph g, liberal set lib and
    exists-components comps: on the liberal vertices, the liberal-liberal
    primal edges plus a clique over each component's liberal part."""
    result = g.induced(lib)
    for comp in comps:
        result = result.with_clique(sorted(comp & lib))
    return Graph(frozenset(lib), result.edges)


def serialize_pair(p):
    """Canonical text for a pair (used for syntactic dedup)."""
    from .relstore import serialize_structure

    return serialize_structure(p.struct) + "liberal " + " ".join(sorted(p.liberal)) + "\n"
