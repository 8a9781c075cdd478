"""Finite relational structures: text format, homomorphism search, structure algebra.

A Structure is both a database instance and the structural view of a
disjunction-free query, so everything here is shared by the query and
equivalence layers. All values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError, SharpqError

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Signature:
    """Relation symbols and their arities. Arities are >= 1 (no nullary relations)."""

    symbols: tuple  # tuple of (name, arity) pairs, fixed order

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if not NAME_RE.match(name):
                raise ParseError(f"bad relation name {name!r}")
            if name in seen:
                raise ParseError(f"duplicate relation name {name!r}")
            if not isinstance(arity, int) or arity < 1:
                raise ParseError(f"arity of {name} must be a positive integer, got {arity!r}")
            seen.add(name)

    def arity(self, name):
        for n, a in self.symbols:
            if n == name:
                return a
        raise KeyError(name)

    def names(self):
        return [n for n, _ in self.symbols]

    def __contains__(self, name):
        return any(n == name for n, _ in self.symbols)


@dataclass(frozen=True)
class Structure:
    """A finite relational structure over a Signature.

    universe is ordered (first-appearance order from parsing); relations maps
    each symbol name to a frozenset of element tuples.
    """

    sig: Signature
    universe: tuple
    relations: dict = field(compare=True)

    def __post_init__(self):
        if not self.universe:
            raise ParseError("universe must be non-empty")
        if len(set(self.universe)) != len(self.universe):
            raise ParseError("duplicate universe element")
        elems = set(self.universe)
        for name, arity in self.sig.symbols:
            for tup in self.relations.get(name, ()):
                if len(tup) != arity:
                    raise ParseError(f"arity mismatch in {name}{tup!r}: expected {arity}")
                for e in tup:
                    if e not in elems:
                        raise ParseError(f"tuple entry {e!r} not in the universe")
        for name in self.relations:
            if name not in self.sig:
                raise ParseError(f"fact uses undeclared relation {name!r}")

    def tuples(self, name):
        return self.relations.get(name, frozenset())

    def all_facts(self):
        """Iterate (symbol, tuple) pairs in deterministic order."""
        for name, _ in self.sig.symbols:
            for tup in sorted(self.tuples(name)):
                yield name, tup

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.universe == other.universe
            and {n: frozenset(ts) for n, ts in self.relations.items() if ts}
            == {n: frozenset(ts) for n, ts in other.relations.items() if ts}
        )

    def __hash__(self):
        return hash((self.sig, self.universe, serialize_structure(self)))


def make_structure(sig, universe, relations):
    """Normalizing constructor: freezes tuple sets, drops empty entries."""
    rels = {}
    for name, tuples in relations.items():
        ts = frozenset(tuple(t) for t in tuples)
        if ts:
            rels[name] = ts
    return Structure(sig=sig, universe=tuple(universe), relations=rels)


# ---------------------------------------------------------------------------
# .rel parsing and serialization
# ---------------------------------------------------------------------------

# A '#' begins a comment only at line start or after whitespace; a '#' glued to
# a token (as produced by the disjoint-union rename scheme, e.g. "a#L") is part
# of the token.
_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#.*$")
# fullmatch: a fact line, unless it starts like a header line
_FACT_RE = re.compile(r"(?!signature|universe)([A-Za-z_][A-Za-z0-9_]*)\((.*)\)")


def _strip_comment(line):
    return _COMMENT_RE.sub("", line)


def parse_structure(text):
    """Parse a `.rel` document into a Structure.

    Universe element order is first-appearance order: the `universe` line if
    present, otherwise order of appearance in facts.
    """
    sig_symbols = None
    sig = arities = None  # built once, at the first fact or at the end
    universe = None
    seen_elems = []
    seen_set = set()
    facts = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_strip_comment(raw) if "#" in raw else raw).strip()
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
                    if not ar.isdigit():
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
                seen_set = set(universe)
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
        args = tuple(args_text.split(","))
        # seen_set holds only stripped, non-empty names: such a line is valid
        if len(args) != arity or not seen_set.issuperset(args):
            args = tuple(map(str.strip, args)) if args_text.strip() else ()
            if len(args) != arity:
                msg = f"arity mismatch: {name} expects {arity} arguments, got {len(args)}"
                raise ParseError(msg, lineno, 1)
            for a in args:
                if not a:
                    raise ParseError("empty element name in fact", lineno, 1)
                if a not in seen_set:
                    if universe is not None:
                        raise ParseError(f"element {a!r} not declared in universe", lineno, 1)
                    seen_set.add(a)
                    seen_elems.append(a)
        facts.setdefault(name, set()).add(args)

    if sig_symbols is None:
        raise ParseError("missing signature line")
    elems = universe if universe is not None else seen_elems
    if not elems:
        raise ParseError("empty universe")
    # every check of Structure.__post_init__ has been made line by line above
    parsed = object.__new__(Structure)
    object.__setattr__(parsed, "sig", sig or Signature(tuple(sig_symbols)))
    object.__setattr__(parsed, "universe", tuple(elems))
    object.__setattr__(parsed, "relations", {n: frozenset(ts) for n, ts in facts.items()})
    return parsed


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
# Homomorphisms
# ---------------------------------------------------------------------------


def homomorphisms(src, dst, pin=None, enumerate_witnesses=False):
    """Count maps h: src universe -> dst universe preserving every tuple.

    pin (a dict from src elements to dst elements) fixes part of
    the map. With enumerate_witnesses=True returns (count, tuple of dicts),
    otherwise just the count. Counts are exact arbitrary-precision ints.
    """
    if src.sig != dst.sig:
        raise SharpqError("homomorphisms: source and target signatures differ")
    pinned = dict(pin or {})
    src_elems, dst_elems = set(src.universe), set(dst.universe)
    for k, v in pinned.items():
        if k not in src_elems:
            raise SharpqError(f"pin maps unknown source element {k!r}")
        if v not in dst_elems:
            raise SharpqError(f"pin targets unknown element {v!r}")
    witnesses = search_homomorphisms(src, dst, pinned)
    if enumerate_witnesses:
        return len(witnesses), tuple(witnesses)
    return len(witnesses)


def search_homomorphisms(src, dst, pin, first=False):
    """Every homomorphism src -> dst extending pin, as dicts in search order;
    with first=True, only the first one (an empty list when there is none).

    Unpinned elements are assigned in order of decreasing fact count, then
    universe order, each trying dst's universe in order; a fact is checked as
    soon as all its elements are assigned. Every relation src uses must be in
    dst's signature.
    """
    # incidence: element -> list of (symbol, tuple) facts it appears in
    incidence = {e: [] for e in src.universe}
    for name, tup in src.all_facts():
        for e in set(tup):
            incidence[e].append((name, tup))
    dst_tuples = {name: dst.tuples(name) for name in dst.sig.names()}
    h = dict(pin)
    found = []

    def consistent(e):
        # check each fact incident to e in which every element is now assigned
        for name, tup in incidence[e]:
            image = []
            for x in tup:
                v = h.get(x)
                if v is None:
                    break
                image.append(v)
            else:
                if tuple(image) not in dst_tuples[name]:
                    return False
        return True

    if not all(consistent(e) for e in pin):
        return found
    todo = sorted(
        (e for e in src.universe if e not in h),
        key=lambda e: (-len(incidence[e]), src.universe.index(e)),
    )

    # depth first over todo without recursion: nxt[i] indexes the next
    # candidate in dst's universe for todo[i]
    nxt = [0] * len(todo)
    i = 0
    while i >= 0:
        if i == len(todo):
            found.append(dict(h))
            if first:
                break
            i -= 1
            continue
        e = todo[i]
        while nxt[i] < len(dst.universe):
            h[e] = dst.universe[nxt[i]]
            nxt[i] += 1
            if consistent(e):
                i += 1
                break
        else:
            del h[e]
            nxt[i] = 0
            i -= 1
    return found


# ---------------------------------------------------------------------------
# Structure algebra
# ---------------------------------------------------------------------------


def product(a, b):
    """Direct product: universe of pairs, a tuple holds iff both projections hold."""
    if a.sig != b.sig:
        raise SharpqError("product: signatures differ")
    universe = [f"{x}*{y}" for x in a.universe for y in b.universe]
    pair_of = {f"{x}*{y}": (x, y) for x in a.universe for y in b.universe}
    rels = {}
    for name, arity in a.sig.symbols:
        tuples = set()
        for ta in a.tuples(name):
            for tb in b.tuples(name):
                tuples.add(tuple(f"{x}*{y}" for x, y in zip(ta, tb)))
        if tuples:
            rels[name] = tuples
    s = make_structure(a.sig, universe, rels)
    # sanity: every product element decodes
    assert all(e in pair_of for e in s.universe)
    return s


def disjoint_union(a, b):
    """Disjoint union; colliding element ids get `#L` / `#R` suffixes."""
    if a.sig != b.sig:
        raise SharpqError("disjoint_union: signatures differ")
    collide = set(a.universe) & set(b.universe)
    ren_a = {e: (e + "#L" if e in collide else e) for e in a.universe}
    ren_b = {e: (e + "#R" if e in collide else e) for e in b.universe}
    universe = [ren_a[e] for e in a.universe] + [ren_b[e] for e in b.universe]
    if len(set(universe)) != len(universe):
        # e.g. a already contains "x#L" while b contains "x"
        raise SharpqError("disjoint_union: rename scheme collided; element names too adversarial")
    rels = {}
    for name, _ in a.sig.symbols:
        tuples = {tuple(ren_a[x] for x in t) for t in a.tuples(name)}
        tuples |= {tuple(ren_b[x] for x in t) for t in b.tuples(name)}
        if tuples:
            rels[name] = tuples
    return make_structure(a.sig, universe, rels)


def identity_structure(sig):
    """The one-element structure where every relation holds on the diagonal tuple."""
    rels = {name: {("1",) * arity} for name, arity in sig.symbols}
    return make_structure(sig, ("1",), rels)


def poly_action(p, b):
    """Apply a polynomial with non-negative integer coefficients to a structure.

    p is a sequence of coefficients, low degree first ([1, 0, 1] is 1 + X^2).
    Evaluated in Horner form over structure product/disjoint union, with the
    one-element all-tuples structure as the multiplicative unit.
    """
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("poly_action: the zero polynomial has no structure value")
    if any(c < 0 or not isinstance(c, int) for c in coeffs):
        raise ValueError("poly_action: coefficients must be non-negative integers")

    one = identity_structure(b.sig)

    def scalar(k):
        acc = one
        for _ in range(k - 1):
            acc = disjoint_union(acc, one)
        return acc

    acc = None
    for c in reversed(coeffs):
        if acc is not None:
            acc = product(acc, b)
        if c > 0:
            term = scalar(c)
            acc = term if acc is None else disjoint_union(acc, term)
    return acc
