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
from dataclasses import dataclass

from .errors import CapExceeded, ParseError, SharpqError
from .relstore import Signature, Structure, make_structure

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


# Every node class of both formula ASTs (these and sharpcore's) names its
# child fields, left to right, in `_kids`; subformulas() walks them.


@dataclass(frozen=True)
class Atom:
    symbol: str
    args: tuple
    _kids = ()

    def __str__(self):
        return f"{self.symbol}({','.join(self.args)})"


@dataclass(frozen=True)
class And:
    left: object
    right: object
    _kids = ("left", "right")


@dataclass(frozen=True)
class Or:
    left: object
    right: object
    _kids = ("left", "right")


@dataclass(frozen=True)
class Exists:
    var: str
    body: object
    _kids = ("body",)


@dataclass(frozen=True)
class Top:
    _kids = ()


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


def free_variables(f):
    """Free variables of an ep-formula, by the standard inductive definition."""
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, (And, Or)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, Exists):
        return free_variables(f.body) - {f.var}
    if isinstance(f, Top):
        return frozenset()
    raise TypeError(f"not an ep-formula node: {f!r}")


def _all_variables(f):
    """Every atom argument and binder in a formula."""
    out = set()
    for node in subformulas(f):
        if isinstance(node, Atom):
            out.update(node.args)
        elif isinstance(node, Exists):
            out.add(node.var)
    return out


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


@dataclass(frozen=True)
class LiberalQuery:
    """An ep-formula together with its ordered liberal variable list (L ⊇ free)."""

    name: str
    formula: object
    liberal: tuple
    sig: Signature

    def __post_init__(self):
        free = free_variables(self.formula)
        lib = set(self.liberal)
        if len(self.liberal) != len(lib):
            raise ParseError("duplicate liberal variable")
        if not free <= lib:
            missing = ", ".join(sorted(free - lib))
            raise ParseError(f"free variable(s) not in the liberal list: {missing}")

    @property
    def liberal_set(self):
        return frozenset(self.liberal)


@dataclass(frozen=True)
class PpPair:
    """A disjunction-free prenex query viewed as (structure, liberal elements)."""

    struct: Structure
    liberal: tuple

    def __post_init__(self):
        if not set(self.liberal) <= set(self.struct.universe):
            raise SharpqError("liberal elements must belong to the structure's universe")
        if len(set(self.liberal)) != len(self.liberal):
            raise SharpqError("duplicate liberal element")

    @property
    def liberal_set(self):
        return frozenset(self.liberal)

    @property
    def quantified(self):
        return tuple(v for v in self.struct.universe if v not in self.liberal_set)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph. Edges are 2-element frozensets."""

    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2 or not e <= self.vertices:
                raise SharpqError(f"bad edge {set(e)!r}")

    def neighbors(self, v):
        return {next(iter(e - {v})) for e in self.edges if v in e}

    def induced(self, vs):
        vs = frozenset(vs)
        return Graph(vs, frozenset(e for e in self.edges if e <= vs))

    def with_clique(self, vs):
        vs = list(vs)
        extra = {frozenset((a, b)) for a, b in itertools.combinations(vs, 2)}
        return Graph(self.vertices | set(vs), self.edges | extra)

    def without_vertices(self, vs):
        vs = frozenset(vs)
        keep = self.vertices - vs
        return Graph(keep, frozenset(e for e in self.edges if e <= keep))

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_$]*)|(?P<punct>[(),.&|:]))"
)
_KEYWORDS = {"query", "exists", "true"}


class _Tokens:
    """Tokens of text[start:stop]. Offsets, and so error lines and columns,
    count from the start of text; `end` is how messages name the end of the
    tokens."""

    def __init__(self, text, start=0, stop=None, end="end of input"):
        self.text = text
        self.stop = len(text) if stop is None else stop
        self.end = end
        self.tokens = []
        self._lex(start)
        self.i = 0

    def _lex(self, pos):
        while pos < self.stop:
            m = _TOKEN_RE.match(self.text, pos, self.stop)
            if not m:
                rest = self.text[pos : self.stop]
                stripped = rest.lstrip()
                if not stripped:
                    break
                line, col = self._loc(pos + len(rest) - len(stripped))
                raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
            if m.group("name"):
                self.tokens.append(("name", m.group("name"), m.start("name")))
            else:
                self.tokens.append(("punct", m.group("punct"), m.start("punct")))
            pos = m.end()

    def _loc(self, offset):
        line = self.text.count("\n", 0, offset) + 1
        col = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        return line, col

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
            line, col = self._loc(off)
            raise ParseError(f"expected {want!r}, got {self.shown(t_val)}", line, col)
        return t_val

    def shown(self, val):
        """A token value as error messages show it; None is the end."""
        return self.end if val is None else repr(val)

    def error(self, msg, off=None):
        """Raise a ParseError at text offset `off`, by default the next token's."""
        line, col = self._loc(self.peek()[2] if off is None else off)
        raise ParseError(msg, line, col)


def _strip_epq_comments(text):
    return "\n".join(re.sub(r"(?:^|(?<=\s))#.*$", "", ln) for ln in text.splitlines())


def parse_query(text):
    """Parse a `.epq` document into a renamed-apart LiberalQuery."""
    toks = _Tokens(_strip_epq_comments(text))
    toks.expect("name", "query")
    kind, qname, off = toks.next()
    if kind != "name" or qname in _KEYWORDS:
        toks.error("expected a query name after 'query'")
    toks.expect("punct", "(")
    liberal = []
    if toks.peek()[1] != ")":
        while True:
            kind, var, off = toks.next()
            if kind != "name" or var in _KEYWORDS:
                toks.error(f"expected a variable name, got {toks.shown(var)}", off)
            liberal.append(var)
            if toks.peek()[1] == ",":
                toks.next()
            else:
                break
    toks.expect("punct", ")")
    toks.expect("punct", ":")
    if not liberal:
        raise ParseError("the liberal list must name at least one variable")
    if len(set(liberal)) != len(liberal):
        raise ParseError("duplicate variable in the liberal list")

    header = frozenset(liberal)
    body = _parse_expression(toks, header)
    if toks.peek()[0] is not None:
        toks.error(f"trailing input after query body: {toks.peek()[1]!r}")

    body = _rename_apart(body, header)
    free = free_variables(body)
    if not free <= header:
        missing = ", ".join(sorted(free - header))
        raise ParseError(f"free variable(s) not in the header: {missing}")
    sig = _infer_signature(body)
    return LiberalQuery(name=qname, formula=body, liberal=tuple(liberal), sig=sig)


def _parse_expression(toks, header):
    """Recursive-descent ep expression parser over a token stream.

    `header` holds variable names that must not be quantified (empty for bare
    expressions, the liberal list for full queries).
    """

    def parse_expr():
        node = parse_term()
        while toks.peek()[1] == "|":
            toks.next()
            node = Or(node, parse_term())
        return node

    def parse_term():
        node = parse_factor()
        while toks.peek()[1] == "&":
            toks.next()
            node = And(node, parse_factor())
        return node

    def parse_factor():
        kind, val, off = toks.peek()
        if val == "(":
            toks.next()
            node = parse_expr()
            toks.expect("punct", ")")
            return node
        if kind == "name" and val == "true":
            toks.next()
            return TOP
        if kind == "name" and val == "exists":
            binders = []  # read in a loop: a long prefix costs no stack
            while toks.peek()[:2] == ("name", "exists"):
                toks.next()
                k2, var, off2 = toks.next()
                if k2 != "name" or var in _KEYWORDS:
                    toks.error(f"expected a variable after 'exists', got {toks.shown(var)}", off2)
                if var in header:
                    toks.error(f"header variable {var!r} is quantified in the body", off2)
                toks.expect("punct", ".")
                binders.append(var)
            node = parse_expr()  # exists extends maximally right
            for var in reversed(binders):
                node = Exists(var, node)
            return node
        if kind == "name":
            toks.next()
            toks.expect("punct", "(")
            args = []
            if toks.peek()[1] != ")":
                while True:
                    k3, arg, off3 = toks.next()
                    if k3 != "name" or arg in _KEYWORDS:
                        toks.error(f"expected a variable name, got {toks.shown(arg)}", off3)
                    args.append(arg)
                    if toks.peek()[1] == ",":
                        toks.next()
                    else:
                        break
            toks.expect("punct", ")")
            if not args:
                toks.error(f"relation {val!r} needs at least one argument", off)
            return Atom(val, tuple(args))
        toks.error(f"expected an atom, 'true', 'exists' or '(', got {toks.shown(val)}")

    return parse_expr()


def parse_ep_expression(text):
    """Parse a bare ep expression (no query header); bound vars renamed apart."""
    return _parse_ep_span(_Tokens(_strip_epq_comments(text)))


def _parse_ep_span(toks):
    """Parse the tokens of a bare, comment-free ep expression."""
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

    def walk(node, renaming):
        if isinstance(node, Atom):
            return Atom(node.symbol, tuple(renaming.get(a, a) for a in node.args))
        if isinstance(node, And):
            return And(walk(node.left, renaming), walk(node.right, renaming))
        if isinstance(node, Or):
            return Or(walk(node.left, renaming), walk(node.right, renaming))
        if isinstance(node, Exists):
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
            inner = dict(renaming)
            inner[name] = fresh
            return Exists(fresh, walk(node.body, inner))
        return node

    return walk(f, {})


def render_ep(node, wrap=()):
    """Render an ep-formula as expression text; parse_ep_expression round-trips."""
    if isinstance(node, Atom):
        return str(node)
    if isinstance(node, Top):
        return "true"
    if isinstance(node, And):
        s = f"{render_ep(node.left, (Or,))} & {render_ep(node.right, (Or, And))}"
    elif isinstance(node, Or):
        s = f"{render_ep(node.left)} | {render_ep(node.right, (Or,))}"
    elif isinstance(node, Exists):
        return f"(exists {node.var} . {render_ep(node.body)})"
    else:
        raise TypeError(f"not an ep-formula node: {node!r}")
    return f"({s})" if isinstance(node, wrap) else s


def serialize_query(q):
    """Render a LiberalQuery as `.epq` text; parse_query round-trips it."""
    return f"query {q.name}({','.join(q.liberal)}): {render_ep(q.formula)}\n"


# ---------------------------------------------------------------------------
# Counting oracle
# ---------------------------------------------------------------------------


_UNBOUND = object()


def _exists_plan(f):
    """(binders, levels) for the exists chain that starts at f.

    levels[k] lists the conjuncts of the chain's body whose variables are all
    bound once binders[:k] are; a name bound twice in the chain is read from
    its innermost binder."""
    binders = []
    while isinstance(f, Exists):
        binders.append(f.var)
        f = f.body
    level = {v: k + 1 for k, v in enumerate(binders)}  # an inner binder wins
    levels = [[] for _ in range(len(binders) + 1)]
    conjuncts = [f]
    while conjuncts:
        g = conjuncts.pop()
        if isinstance(g, And):
            conjuncts += (g.right, g.left)
        else:
            levels[max((level.get(v, 0) for v in free_variables(g)), default=0)].append(g)
    return binders, levels


def _satisfies(f, h, b, plans):
    """Whether f holds under the assignment h (restored on return); plans
    memoises _exists_plan by node id within one oracle_count call."""
    if isinstance(f, Atom):
        return tuple(h[a] for a in f.args) in b.tuples(f.symbol)
    if isinstance(f, And):
        return _satisfies(f.left, h, b, plans) and _satisfies(f.right, h, b, plans)
    if isinstance(f, Or):
        return _satisfies(f.left, h, b, plans) or _satisfies(f.right, h, b, plans)
    if isinstance(f, Exists):
        plan = plans.get(id(f))
        if plan is None:
            plan = plans[id(f)] = _exists_plan(f)
        binders, levels = plan
        # a binder may shadow an outer one, whose value is restored after
        outer = {v: h.get(v, _UNBOUND) for v in binders}
        found = _search(0, binders, levels, h, b, plans)
        for v, val in outer.items():
            if val is _UNBOUND:
                h.pop(v, None)
            else:
                h[v] = val
        return found
    if isinstance(f, Top):
        return True
    raise TypeError(f"not an ep-formula node: {f!r}")


def _search(k, binders, levels, h, b, plans):
    """Backtrack over binders[k:], checking each level's conjuncts before
    binding the next variable."""
    for g in levels[k]:
        if not _satisfies(g, h, b, plans):
            return False
    if k == len(binders):
        return True
    var = binders[k]
    for val in b.universe:
        h[var] = val
        if _search(k + 1, binders, levels, h, b, plans):
            return True
    return False


def _check_signature(q, b):
    for name, arity in q.sig.symbols:
        if name not in b.sig:
            raise SharpqError(f"structure lacks relation {name!r} used by the query")
        if b.sig.arity(name) != arity:
            raise SharpqError(
                f"arity mismatch for {name}: query uses {arity}, structure has {b.sig.arity(name)}"
            )


def oracle_count(q, b, max_enum=10**8):
    """Ground-truth |q(B)| by exhaustive enumeration.

    Every liberal assignment is enumerated; each exists chain is searched by
    backtracking, checking every conjunct of its body as soon as its
    variables are bound. Refuses when the naive enumeration would exceed
    max_enum assignments; the bound counts quantified variables too, since
    the search enumerates them in the worst case.
    """
    _check_signature(q, b)
    n = len(b.universe)
    bound = sum(isinstance(node, Exists) for node in subformulas(q.formula))
    work = n ** (len(q.liberal) + bound)
    if work > max_enum:
        raise CapExceeded(
            f"oracle_count refuses {work} > {max_enum} enumerations; "
            "use the compiled engine for inputs of this size"
        )
    count = 0
    plans = {}
    for values in itertools.product(b.universe, repeat=len(q.liberal)):
        h = dict(zip(q.liberal, values))
        if _satisfies(q.formula, h, b, plans):
            count += 1
    return count


# ---------------------------------------------------------------------------
# DNF
# ---------------------------------------------------------------------------


def to_dnf_pp(q, max_disjuncts=4096):
    """Rewrite q into disjunction-free queries (all with q's liberal list).

    Applies exists/and distribution over | to fixpoint; duplicate disjuncts are
    removed syntactically. Width never increases: every produced subformula's
    free set is contained in a free set already present in the input.
    """

    def dnf(f):
        if isinstance(f, (Atom, Top)):
            return [f]
        if isinstance(f, Or):
            return dnf(f.left) + dnf(f.right)
        if isinstance(f, And):
            lefts, rights = dnf(f.left), dnf(f.right)
            if len(lefts) * len(rights) > max_disjuncts:
                raise CapExceeded(
                    f"DNF would need {len(lefts) * len(rights)} > {max_disjuncts} disjuncts"
                )
            return [And(a, c) for a in lefts for c in rights]
        if isinstance(f, Exists):
            return [Exists(f.var, d) for d in dnf(f.body)]
        raise TypeError(f"not an ep-formula node: {f!r}")

    disjuncts = dnf(q.formula)
    if len(disjuncts) > max_disjuncts:
        raise CapExceeded(f"DNF needs {len(disjuncts)} > {max_disjuncts} disjuncts")
    out, seen = [], set()
    for i, d in enumerate(disjuncts):
        if d in seen:
            continue
        seen.add(d)
        out.append(
            LiberalQuery(name=f"{q.name}_{i}", formula=d, liberal=q.liberal, sig=q.sig)
        )
    return out


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
    struct = make_structure(q.sig, universe, rels)
    return PpPair(struct=struct, liberal=tuple(q.liberal))


def pair_to_pp(p, name="q"):
    """Prenex query for a pair: existentially close universe \\ liberal over
    the sorted conjunction of the structure's facts."""
    atoms = [Atom(sym, tup) for sym, tup in p.struct.all_facts()]
    if atoms:
        body = atoms[0]
        for a in atoms[1:]:
            body = And(body, a)
    else:
        body = TOP
    for v in reversed(p.quantified):
        body = Exists(v, body)
    return LiberalQuery(name=name, formula=body, liberal=tuple(p.liberal), sig=p.struct.sig)


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


def exists_components(p):
    """Vertex sets: each connected block of quantified vertices plus the
    liberal vertices adjacent to it."""
    g = primal_graph(p)
    lib = p.liberal_set
    quantified_part = g.without_vertices(lib)
    out = []
    for comp in quantified_part.connected_components():
        adjacent = set()
        for v in comp:
            adjacent |= g.neighbors(v) & lib
        out.append(frozenset(comp | adjacent))
    return out


def contract_graph(p):
    """Graph on the liberal vertices: liberal-liberal primal edges plus a
    clique over each exists-component's liberal part."""
    g = primal_graph(p)
    lib = p.liberal_set
    result = g.induced(lib)
    for comp in exists_components(p):
        result = result.with_clique(sorted(comp & lib))
    return Graph(frozenset(lib), result.edges)


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


def serialize_pair(p):
    """Canonical text for a pair (used for syntactic dedup)."""
    from .relstore import serialize_structure

    return serialize_structure(p.struct) + "liberal " + " ".join(sorted(p.liberal)) + "\n"
