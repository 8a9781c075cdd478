"""Finite relational structures: text format, the backtracking search and
the homomorphism search.

A Structure is both a database instance and the structural view of a
disjunction-free query, so everything here is shared by the query and
equivalence layers. All values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import attrgetter, itemgetter

from .errors import ParseError, SharpqError

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

# sets an attribute of an immutable object, in its __init__ or a cache
_set = object.__setattr__


class Frozen:
    """An object whose attributes cannot be set or deleted after its
    __init__. The one __init__ sets the class's `_fields`, in order, from
    values given by position (as every program call does) or by name, each
    exactly once; a subclass that checks or normalizes its values hands them
    on to it, and sets any other slot with _set."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
            if named or len(values) != len(fields):
                raise TypeError(
                    f"{type(self).__name__} takes its fields ({', '.join(fields)}), "
                    "each once, by position or by name"
                )
        for name, value in zip(fields, values):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} objects are immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        # copy and pickle hand a copy its slots, as (None, {slot: value})
        for name, value in state[1].items():
            _set(self, name, value)


class Record(Frozen):
    """A Frozen value that compares, hashes and prints through the fields
    `_fields` names, in order: equal only to a record of its own class."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Signature(Record):
    """Relation symbols and their arities. Arities are >= 1 (no nullary relations)."""

    _fields = ("symbols",)  # tuple of (name, arity) pairs, fixed order
    # _arity: name -> arity and _rank: name -> position in symbols, built once
    __slots__ = (*_fields, "_arity", "_rank")

    def __init__(self, symbols):
        arity_of, rank = {}, {}
        for name, arity in symbols:
            if not NAME_RE.match(name):
                raise ParseError(f"bad relation name {name!r}")
            if name in arity_of:
                raise ParseError(f"duplicate relation name {name!r}")
            if not isinstance(arity, int) or arity < 1:
                raise ParseError(f"arity of {name} must be a positive integer, got {arity!r}")
            arity_of[name] = arity
            rank[name] = len(rank)
        _set(self, "symbols", symbols)
        _set(self, "_arity", arity_of)
        _set(self, "_rank", rank)

    # hashed directly, without the call to the shared _values getter
    def __hash__(self):
        return hash(self.symbols)

    def arity(self, name):
        return self._arity[name]

    def names(self):
        return [n for n, _ in self.symbols]

    def __contains__(self, name):
        return name in self._arity


def merge_signatures(*sigs):
    """The union of the signatures; a relation with two arities is an error."""
    arities = {}
    for sig in sigs:
        for name, arity in sig.symbols:
            if arities.setdefault(name, arity) != arity:
                raise SharpqError(
                    f"relation {name} has conflicting arities {arities[name]} and {arity}"
                )
    return Signature(tuple(sorted(arities.items())))


class Structure(Frozen):
    """A finite relational structure over a Signature.

    universe is ordered (first-appearance order from parsing). Each fact is
    held once, in the form the structure was built in: frozensets of element
    tuples (relations, tuples(); the constructor takes any iterables of
    element sequences and drops empty relations), or argument columns
    (columns()) for a structure read by the canonical `.rel` scan. The other
    form is derived per relation when first asked for, and kept. Immutable:
    the attributes cannot be set.
    """

    __slots__ = ("sig", "universe", "_relations", "_columns")

    def __init__(self, sig, universe, relations):
        universe = tuple(universe)
        if not universe:
            raise ParseError("universe must be non-empty")
        if len(set(universe)) != len(universe):
            raise ParseError("duplicate universe element")
        elems = set(universe)
        rels = {}
        # the given relations of sig's symbols, in signature order
        for name in sorted((n for n in relations if n in sig._rank), key=sig._rank.__getitem__):
            arity = sig._arity[name]
            tuples = [tuple(t) for t in relations[name]]
            for tup in tuples:
                if len(tup) != arity:
                    raise ParseError(f"arity mismatch in {name}{tup!r}: expected {arity}")
                for e in tup:
                    if e not in elems:
                        raise ParseError(f"tuple entry {e!r} not in the universe")
            if tuples:
                rels[name] = frozenset(tuples)
        for name, tuples in relations.items():
            if tuples and name not in sig:
                raise ParseError(f"fact uses undeclared relation {name!r}")
        _init_structure(self, sig, universe, rels, {})

    @property
    def relations(self):
        """Every nonempty relation's tuple set, in signature order."""
        rels = self._relations
        if any(cols[0] and n not in rels for n, cols in self._columns.items()):
            rels = {n: facts for n in self.sig.names() if (facts := self.tuples(n))}
            _set(self, "_relations", rels)
        return rels

    def columns(self, name):
        """The facts of relation `name` (a symbol of sig) as argument
        columns: a tuple of one sequence per position whose i-th entries
        make up the i-th fact, each fact once."""
        columns = self._columns.get(name)
        if columns is None:
            # only a structure built from tuple sets lacks columns
            facts = self._relations.get(name)
            columns = tuple(zip(*facts)) if facts else ((),) * self.sig.arity(name)
            self._columns[name] = columns
        return columns

    def tuples(self, name):
        facts = self._relations.get(name)  # the backtracking search calls this most
        if facts is None:
            # a relation of a scanned structure not asked for yet, or an empty one
            facts = frozenset(zip(*self._columns.get(name, ())))
            if facts:
                rels = {**self._relations, name: facts}
                rels = {n: rels[n] for n in self.sig.names() if n in rels}  # signature order
                _set(self, "_relations", rels)
        return facts

    def all_facts(self):
        """Iterate (symbol, tuple) pairs in deterministic order: symbols in
        signature order, each one's tuples sorted."""
        for name, facts in self.relations.items():
            for tup in sorted(facts):
                yield name, tup

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        mine = (self.sig, self.universe, self.relations)
        return mine == (other.sig, other.universe, other.relations)

    def __hash__(self):
        # what __eq__ compares; a frozenset of facts keeps its hash once made
        return hash((self.sig, self.universe, frozenset(self.relations.items())))

    def __repr__(self):
        return (
            f"Structure(sig={self.sig!r}, universe={self.universe!r}, "
            f"relations={self.relations!r})"
        )


def _init_structure(s, sig, universe, relations, columns):
    """Set a Structure's attributes: the tuple sets (those derived so far
    when `columns` holds every relation of sig) and the columns."""
    _set(s, "sig", sig)
    _set(s, "universe", universe)
    _set(s, "_relations", relations)
    _set(s, "_columns", columns)


def make_structure(sig, universe, relations):
    """The Structure of the given facts (see Structure())."""
    return Structure(sig, universe, relations)


# ---------------------------------------------------------------------------
# .rel parsing and serialization
# ---------------------------------------------------------------------------

# A '#' begins a comment only at line start or after whitespace; a '#' glued to
# a token (e.g. "a#L") is part of the token. `.epq` and `.shq` text use the
# same rule.
_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#.*$")
# fullmatch: a fact line, unless it starts like a header line
_FACT_RE = re.compile(r"(?!signature|universe)([A-Za-z_][A-Za-z0-9_]*)\((.*)\)")


def parse_structure(text):
    """Parse a `.rel` document into a Structure.

    Universe element order is first-appearance order: the `universe` line if
    present, otherwise order of appearance in facts. A text in the canonical
    layout is read by _scan_canonical; any other text, and every malformed
    one, by the line loop _parse_lines, the only source of ParseErrors.
    """
    parsed = _scan_canonical(text)
    return parsed if parsed is not None else _parse_lines(text)


def _unchecked_structure(sig, universe, relations, columns):
    """A Structure built without the checks of Structure(): for parsers
    that have already made every check it makes."""
    parsed = object.__new__(Structure)
    _init_structure(parsed, sig, universe, relations, columns)
    return parsed


# The canonical layout: these two header lines, then one `Name(e1,...,ek)`
# per line with nothing else on it. A universe token starting with '#' would
# begin a comment, so it is not canonical.
_SIG_LINE_RE = re.compile(r"signature((?: [A-Za-z_][A-Za-z0-9_]*/[0-9]+)+)")
# every byte but those of ',', ')' and newline, which no other character's UTF-8 holds
_NOT_A_MARK = bytes(sorted(set(range(256)) - set(b",)\n")))


def _scan_canonical(text):
    """The Structure of a text in the canonical layout (what
    serialize_structure writes), or None for any other text.

    The universe line splits on single spaces into tokens that are not
    empty, hold no other whitespace and do not start with '#'. The text is
    canonical when _scan_relation reads every fact line for some declared
    relation and every element is in the universe: a comment, a blank line,
    a space, CRLF, an undeclared symbol or a wrong arity leaves a line
    unread or refused. Each relation is kept as its argument columns (a
    repeated fact line once), never as tuples, of the universe's objects.
    """
    head = text.split("\n", 2)
    if len(head) < 3:
        return None
    sig_line, universe_line, block = head
    sig_m = _SIG_LINE_RE.fullmatch(sig_line)
    if sig_m is None or not universe_line.startswith("universe "):
        return None
    symbols = tuple((n, int(a)) for n, _, a in (p.partition("/") for p in sig_m[1].split()))
    elements = universe_line[len("universe "):]
    universe = tuple(elements.split(" "))
    canon = dict(zip(universe, universe))
    if (
        len(canon) != len(universe)
        # printable text holds no whitespace but ' ', so only an empty token
        # or an unprintable character calls for a split on all whitespace
        or ("" in universe or not elements.isprintable()) and universe != tuple(elements.split())
        or " #" in " " + elements
        or len(dict(symbols)) != len(symbols)
        or any(a < 1 or n.startswith(("signature", "universe")) for n, a in symbols)
    ):
        return None
    found = [_scan_relation(block, name, arity) for name, arity in symbols]
    n_lines = block.count("\n") + (block[-1:] not in ("", "\n"))
    if None in found or sum(map(len, found)) != n_lines:
        return None
    columns = {}
    try:
        for (name, arity), facts in zip(symbols, found):
            if len(set(facts)) != len(facts):  # a fact line repeated
                facts = list(dict.fromkeys(facts))
            # each argument list holds exactly `arity` comma-free elements,
            # so joining the lists and splitting on ',' keeps every entry in
            # its own fact; a unary list is its one entry
            entries = facts if arity == 1 else ",".join(facts).split(",") if facts else []
            elements = list(map(canon.__getitem__, entries))
            columns[name] = tuple(elements[i::arity] for i in range(arity))
    except KeyError:  # an element not in the universe
        return None
    return _unchecked_structure(Signature(symbols), universe, {}, columns)


def _scan_relation(block, name, arity):
    """The argument list of every line of block that starts with `name(`,
    in line order, or None when one is not `name(e1,...,ek)` with k = arity
    and no ',', ')' or newline in an element: split from the first such line
    to the end of the last where one ends and the next begins. The _marks
    must read k - 1 commas per list, ')' and a newline between two: one
    translate checks lines that form one run, a second the lists cut at
    their lines' ends when other lines lie between."""
    opener = name + "("
    if block.startswith(opener):
        start = 0
    elif (start := block.find("\n" + opener) + 1) == 0:
        return []
    last = block.rfind("\n" + opener) + 1 or start
    end = block.find("\n", last)
    end = len(block) if end < 0 else end
    lists = block[start + len(opener): end - 1]
    facts = lists.split(")\n" + opener)
    layout = b")\n".join([b"," * (arity - 1)] * len(facts))
    if _marks(lists) != layout:  # other lines between two of these, or a fault
        facts = [fact.partition(")\n")[0] for fact in facts]
        if _marks(")\n".join(facts)) != layout:
            return None
    return facts if block[end - 1] == ")" else None


def _marks(text):
    """The ',', ')' and newline bytes of text's UTF-8, in order."""
    return text.encode("utf-8", "surrogatepass").translate(None, _NOT_A_MARK)


def _parse_lines(text):
    """The line loop of parse_structure: reads any `.rel` text, one line at
    a time, and raises a ParseError with the line of the first fault."""
    sig_symbols = None
    sig = arities = None  # built once, at the first fact or at the end
    universe = None
    canon = {}  # each element read so far -> its first object (the universe's, if declared)
    facts = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT_RE.sub("", raw) if "#" in raw else raw).strip()
        if not line:
            continue
        m = _FACT_RE.fullmatch(line)
        if m is None:
            if line.startswith("signature"):
                if sig_symbols is not None:
                    raise ParseError("duplicate signature line", lineno, 1)
                sig_symbols = []
                for part in line[len("signature"):].split():
                    if "/" not in part:
                        raise ParseError(f"expected name/arity, got {part!r}", lineno, raw.find(part) + 1)
                    name, _, ar = part.partition("/")
                    if not ar.isdecimal():
                        raise ParseError(f"arity must be an integer in {part!r}", lineno, raw.find(part) + 1)
                    sig_symbols.append((name, int(ar)))
            elif line.startswith("universe"):
                if sig_symbols is None:
                    raise ParseError("universe line before signature", lineno, 1)
                if universe is not None:
                    raise ParseError("duplicate universe line", lineno, 1)
                universe = line[len("universe"):].split()
                if not universe:
                    raise ParseError("empty universe", lineno, 1)
                if len(set(universe)) != len(universe):
                    raise ParseError("duplicate universe element", lineno, 1)
                # facts read before this line keep their element objects
                declared = {e: canon.get(e, e) for e in universe}
                for e in canon:
                    if e not in declared:
                        raise ParseError(f"element {e!r} not declared in universe", lineno, 1)
                canon = declared
                universe = list(declared.values())
            else:
                raise ParseError(f"cannot parse line {line!r}", lineno, 1)
            continue
        if sig_symbols is None:
            raise ParseError("fact before signature line", lineno, 1)
        if sig is None:
            sig = Signature(tuple(sig_symbols))
            arities = dict(sig.symbols)
        name, args_text = m.groups()
        arity = arities.get(name)
        if arity is None:
            raise ParseError(f"undeclared relation {name!r}", lineno, 1)
        args = args_text.split(",")
        # canon holds only stripped, non-empty names: such a line is valid
        if len(args) != arity or not all(map(canon.__contains__, args)):
            args = tuple(map(str.strip, args)) if args_text.strip() else ()
            if len(args) != arity:
                msg = f"arity mismatch: {name} expects {arity} arguments, got {len(args)}"
                raise ParseError(msg, lineno, 1)
            for a in args:
                if not a:
                    raise ParseError("empty element name in fact", lineno, 1)
                if a not in canon:
                    if universe is not None:
                        raise ParseError(f"element {a!r} not declared in universe", lineno, 1)
                    canon[a] = a
        facts.setdefault(name, set()).add(tuple(map(canon.__getitem__, args)))

    if sig_symbols is None:
        raise ParseError("missing signature line")
    elems = universe if universe is not None else list(canon)
    if not elems:
        raise ParseError("empty universe")
    # every check of Structure() has been made line by line above; the
    # relations go in signature order, as every Structure holds them
    sig = sig or Signature(tuple(sig_symbols))
    return _unchecked_structure(
        sig,
        tuple(elems),
        {n: frozenset(facts[n]) for n in sorted(facts, key=sig._rank.__getitem__)},
        {},
    )


def serialize_structure(s):
    """Render a Structure as `.rel` text; parse_structure round-trips it."""
    lines = ["signature " + " ".join(f"{n}/{a}" for n, a in s.sig.symbols)]
    lines.append("universe " + " ".join(s.universe))
    fact_lines = []
    for name, _ in s.sig.symbols:
        for tup in s.tuples(name):
            fact_lines.append(f"{name}({','.join(tup)})")
    lines.extend(sorted(fact_lines))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The backtracking search; the homomorphism search
# ---------------------------------------------------------------------------


_UNBOUND = object()


def _levels(order, conjuncts):
    """levels[k]: the tests of the (test, variables used) conjuncts that are
    bound once order[:k] is; a name listed twice counts at its last place,
    and a name not listed is bound before the search."""
    level = {v: k + 1 for k, v in enumerate(order)}
    levels = [[] for _ in range(len(order) + 1)]
    for test, used in conjuncts:
        levels[max((level.get(v, 0) for v in used), default=0)].append(test)
    return levels


def _conjunction(checks):
    """One test of all of `checks`: the only one itself, when it is alone."""
    if len(checks) == 1:
        return checks[0]

    def every(h, b):
        for check in checks:
            if not check(h, b):
                return False
        return True

    return every


def _backtrack(order, conjuncts, first=False):
    """The program's one backtracking search, compiled: run(h, b) binds the
    variables of `order` in h, in turn, to elements of b's universe, from an
    explicit stack, and checks each (test(h, b), variables used) conjunct at
    the level that binds the last of its variables. It stops at the last
    level that holds a check and counts the assignments that pass, times |B|
    for each variable left over; with `first`, it returns at the first one,
    leaving its values in h. The oracle compiles formulas into it, and the
    homomorphism tests compile a source's facts into it."""
    levels = _levels(order, conjuncts)
    searched = max((k for k, level in enumerate(levels) if level), default=0)
    checks = [_conjunction(level) for level in levels[: searched + 1]]
    names, unchecked, last = order[:searched], len(order) - searched, searched - 1

    def run(h, b):
        universe = b.universe
        if not checks[0](h, b):
            return 0
        if not names:
            return len(universe) ** unchecked
        found, k, values = 0, 0, [iter(universe)]
        while values:  # values[k] runs over the universe for names[k]
            val = next(values[k], _UNBOUND)
            if val is _UNBOUND:
                values.pop()
                k -= 1
                continue
            h[names[k]] = val
            if not checks[k + 1](h, b):
                continue
            if k < last:
                values.append(iter(universe))
                k += 1
            else:
                found += 1
                if first:
                    break
        return found * len(universe) ** unchecked

    return run


def _fact_test(symbol, args):
    """The fact symbol(args) as a test: whether its image under h is a fact
    of b. A symbol b lacks reads as empty."""
    if len(args) == 1:
        (arg,) = args
        return lambda h, b: (h[arg],) in b.tuples(symbol)
    key = itemgetter(*args)
    return lambda h, b: key(h) in b.tuples(symbol)


def homomorphism_search(src, pinned):
    """find(dst, pin), compiled once: the first homomorphism src -> dst
    extending pin, a map of the elements `pinned`, as a dict, or None.
    Facts among pinned elements are checked first. Unpinned elements are
    set by decreasing fact count, then universe order, each to dst's
    elements in universe order, and a fact is checked once its elements are
    set. An element in no fact takes dst's first element; a symbol dst
    lacks reads as empty."""
    facts = list(src.all_facts())
    count = Counter(e for _, tup in facts for e in set(tup))
    order = sorted((e for e in src.universe if e not in pinned), key=lambda e: -count[e])
    conjuncts = [(_fact_test(name, tup), frozenset(tup)) for name, tup in facts]
    run = _backtrack(order, conjuncts, first=True)

    def find(dst, pin):
        h = dict(pin)
        if not run(h, dst):
            return None
        for e in order:
            h.setdefault(e, dst.universe[0])
        return h

    return find
