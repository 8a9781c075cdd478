import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpq import relstore
from sharpq.epquery import PpPair, oracle_count, pair_to_pp, parse_query
from sharpq.errors import ParseError, SharpqError
from sharpq.relstore import (
    Signature,
    homomorphism_search,
    make_structure,
    merge_signatures,
    parse_structure,
    serialize_structure,
)
from sharpq.sharpcore import eval_sentence, parse_sharp

from tests.conftest import (
    SIG_E,
    SIG_EF,
    brute_hom_maps,
    brute_homomorphisms,
    path_structure,
    poly_structure,
    random_structure,
    sum_of_products,
    text_with_a_repeated_line,
    triangle_structure,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal():
    s = parse_structure("signature E/2\nuniverse a b\nE(a,b)")
    assert len(s.universe) == 2
    assert len(s.tuples("E")) == 1


def test_parsed_structure_equals_the_checked_one(rng):
    # parse_structure skips the checks of Structure(); its
    # result must be the structure make_structure builds with the check
    for _ in range(50):
        b = random_structure(rng, SIG_EF, max_size=5, density=0.3)
        parsed = parse_structure(serialize_structure(b))
        assert parsed == b and hash(parsed) == hash(b)
        assert parsed == make_structure(parsed.sig, parsed.universe, parsed.relations)
        assert all(type(ts) is frozenset and ts for ts in parsed.relations.values())


def test_make_structure_keeps_its_checks():
    for universe, rels, message in (
        (["a"], {"E": {("a", "z")}}, "not in the universe"),
        (["a"], {"E": {("a",)}}, "arity mismatch"),
        (["a", "a"], {}, "duplicate universe element"),
        ([], {}, "non-empty"),
        (["a"], {"F": {("a", "a")}}, "undeclared relation"),
    ):
        with pytest.raises(ParseError, match=message):
            make_structure(SIG_E, universe, rels)


def test_structures_hold_their_relations_in_signature_order_whatever_they_are_given_in():
    # a structure walks the relations it is given, never every symbol of its
    # signature, yet holds, lists and refuses them in signature order
    sig = Signature(tuple((f"R{i}", 1 + i % 2) for i in range(40)))
    given = {"R7": {("b", "a")}, "R2": {("a",)}, "R30": {("a",), ("b",)}}
    built = make_structure(sig, ["a", "b"], given)
    parsed = parse_structure("signature " + " ".join(f"{n}/{a}" for n, a in sig.symbols)
                             + "\nuniverse a b\n# read line by line\nR7(b,a)\nR30(b)\nR2(a)\nR30(a)\n")
    for s in (built, parsed):
        assert list(s.relations) == ["R2", "R7", "R30"]
        assert list(s.all_facts()) == [
            ("R2", ("a",)), ("R7", ("b", "a")), ("R30", ("a",)), ("R30", ("b",))
        ]
    assert built == parsed and hash(built) == hash(parsed)
    # the first fault in signature order, before any undeclared relation
    with pytest.raises(ParseError, match=r"arity mismatch in R3\('a',\)"):
        make_structure(sig, ["a"], {"X": {("a",)}, "R5": {("a", "z")}, "R3": {("a",)}})
    with pytest.raises(ParseError, match="undeclared relation 'X'"):
        make_structure(sig, ["a"], {"R3": {("a", "a")}, "X": {("a",)}, "Y": {("a",)}})


def test_a_signature_answers_arity_and_membership_after_copy_and_pickle():
    import copy
    import pickle

    sig = Signature((("E", 2), ("F", 1)))
    for twin in (sig, copy.copy(sig), copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
        assert (twin.arity("E"), twin.arity("F"), "F" in twin, "G" in twin) == (2, 1, True, False)
        with pytest.raises(KeyError):
            twin.arity("G")


def test_structure_holds_a_repeated_fact_once():
    sig = Signature((("E", 2), ("F", 1)))
    s = relstore.Structure(sig, ["a", "b"], {"E": [("a", "b"), ["a", "b"]], "F": []})
    twin = make_structure(sig, ("a", "b"), {"E": {("a", "b")}})
    assert s.universe == ("a", "b") and s.relations == {"E": frozenset({("a", "b")})}
    assert s == twin and hash(s) == hash(twin)
    assert serialize_structure(s) == "signature E/2 F/1\nuniverse a b\nE(a,b)\n"
    q = parse_query("query q(x,y): E(x,y)")
    assert eval_sentence(parse_sharp("P{x,y} C[E(x,y); {x,y}]"), s) == oracle_count(q, s) == 1


def test_parse_arity_mismatch():
    with pytest.raises(ParseError):
        parse_structure("signature U/1\nuniverse a\nU(a,b)")


def test_parse_three_element_path():
    s = parse_structure("signature E/2\nuniverse a b c\nE(a,b)\nE(b,c)")
    assert s.universe == ("a", "b", "c")
    assert s.tuples("E") == frozenset({("a", "b"), ("b", "c")})


def test_parse_element_order_is_first_appearance():
    s = parse_structure("signature E/2\nE(c,a)\nE(a,b)")
    assert s.universe == ("c", "a", "b")


def test_parse_unknown_element_with_universe_line():
    with pytest.raises(ParseError):
        parse_structure("signature E/2\nuniverse a b\nE(a,z)")


def test_parse_empty_universe_rejected():
    with pytest.raises(ParseError):
        parse_structure("signature E/2\nuniverse\n")
    with pytest.raises(ParseError):
        parse_structure("signature E/2\n")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_structure("signature E/2\nuniverse a\nE(a)")
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("signature E/2\nsignature E/2\n", "line 2, column 1: duplicate signature line"),
        ("signature E\n", "line 1, column 11: expected name/arity, got 'E'"),
        ("signature F/1  E/x\n", "line 1, column 16: arity must be an integer in 'E/x'"),
        ("E(a,b)\nsignature E/2\n", "line 1, column 1: fact before signature line"),
    ],
    ids=["duplicate-signature", "no-arity", "arity-not-integer", "fact-first"],
)
def test_signature_line_errors_name_the_fault_and_its_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert str(exc.value) == message


def test_comments_and_blank_lines():
    s = parse_structure(
        "# header comment\nsignature E/2   # trailing\nuniverse a b\n\nE(a,b) # fact\n"
    )
    assert s.tuples("E") == frozenset({("a", "b")})


def test_hash_suffixed_elements_survive_comment_stripping():
    # '#' glued to a token is part of the token, not a comment
    s = parse_structure("signature E/2\nuniverse a#L a#R\nE(a#L,a#R)")
    assert s.universe == ("a#L", "a#R")
    assert ("a#L", "a#R") in s.tuples("E")


@pytest.mark.parametrize(
    "fact, message",
    [
        ("F(a,b)", "undeclared relation 'F'"),
        ("E(a,b,a)", "arity mismatch: E expects 2 arguments, got 3"),
        ("E(a,z)", "element 'z' not declared in universe"),
        ("E(a,)", "empty element name in fact"),
    ],
)
def test_fact_errors_name_their_line(fact, message):
    text = "signature E/2\nuniverse a b\nE(a,b)\n# note\nE(b,a)\n\n" + fact + "\nE(a,a)\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert str(exc.value) == f"line 7, column 1: {message}"


def test_a_non_ascii_digit_arity_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_structure("signature E/\u00b2\nuniverse a\n")
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        "line 1, column 11: arity must be an integer in 'E/\u00b2'", 1, 11
    )


def test_a_universe_line_after_facts_must_declare_their_elements():
    with pytest.raises(ParseError) as exc:
        parse_structure("signature E/1\nE(a)\nE(c)\nuniverse b c\n")
    assert str(exc.value) == "line 4, column 1: element 'a' not declared in universe"
    s = parse_structure("signature E/1\nE(a)\nuniverse b a\nE(b)\n")
    assert s.universe == ("b", "a")
    assert s.tuples("E") == frozenset({("a",), ("b",)})


@pytest.mark.parametrize("facts", ["", "F(a,a)\n", "G(a,a)\n"])
def test_bad_signature_name_rejected_with_or_without_facts(facts):
    with pytest.raises(ParseError, match="bad relation name 'E-1'"):
        parse_structure("signature E-1/2 F/2\nuniverse a b\n" + facts)


def test_hash_tokens_and_trailing_comments_together():
    s = parse_structure(
        "signature E/2 # edges\nuniverse a#L b # two\nE(a#L,b)   # glued '#' stays\nE( b ,a#L )\n"
    )
    assert s.universe == ("a#L", "b")
    assert s.tuples("E") == frozenset({("a#L", "b"), ("b", "a#L")})
    with pytest.raises(ParseError, match="cannot parse line"):
        parse_structure("signature E/2\nuniverse a#L b\nE(b,a#L)#x\n")


# ---------------------------------------------------------------------------
# the canonical scan against the line loop
# ---------------------------------------------------------------------------


def _outcome(parse, text):
    """What a parser makes of a text, in comparable form: the structure's
    signature, universe and relation mapping, or the ParseError's message,
    line and column."""
    try:
        s = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("ok", s.sig, s.universe, s.relations)


def _random_canonical_text(rng, symbol_names=("R0", "R1", "R2")):
    symbols = tuple((n, rng.randint(1, 3)) for n in symbol_names[: rng.randint(1, len(symbol_names))])
    names = ["a", "b1", "x#L", "x#R", "_c", "(d", "e.f"]
    universe = rng.sample(names, rng.randint(1, len(names)))
    rels = {
        name: {tuple(rng.choice(universe) for _ in range(arity)) for _ in range(rng.randint(0, 6))}
        for name, arity in symbols
    }
    return serialize_structure(make_structure(Signature(symbols), universe, rels))


def test_scan_and_line_loop_agree_on_serialized_random_structures():
    rng = random.Random(20261018)
    for _ in range(300):
        text = _random_canonical_text(rng)
        assert relstore._scan_canonical(text) is not None, text
        assert _outcome(parse_structure, text) == _outcome(relstore._parse_lines, text), text
    # The scan searches each relation only over the span of its own lines, so
    # neither fact order nor names sharing a prefix may change its answer.
    # One fact renamed to another symbol must give the same ParseError.
    seen = dict.fromkeys(("interleaved", "empty relation", "error"), 0)
    for _ in range(400):
        text = _random_canonical_text(rng, ("E", "E2", "E_"))
        head, facts = text.splitlines()[:2], text.splitlines()[2:]
        rng.shuffle(facts)
        names = [fact[: fact.index("(")] for fact in facts]
        seen["interleaved"] += len(list(itertools.groupby(names))) > len(set(names))
        seen["empty relation"] += len(head[0].split()) - 1 > len(set(names))
        shuffled = "\n".join(head + facts) + "\n"
        assert relstore._scan_canonical(shuffled) is not None, shuffled
        assert _outcome(parse_structure, shuffled) == _outcome(parse_structure, text), shuffled
        if facts:
            i = rng.randrange(len(facts))
            facts[i] = rng.choice(("E", "E2", "E_", "E3")) + facts[i][len(names[i]):]
            renamed = "\n".join(head + facts) + "\n"
            outcome = _outcome(parse_structure, renamed)
            assert outcome == _outcome(relstore._parse_lines, renamed), renamed
            seen["error"] += outcome[0] == "error"
    assert min(seen.values()) > 10, seen


def test_parsed_facts_hold_the_universe_element_objects(rng):
    # an entry that is the universe's own object makes every hash-join hit
    # on it an identity check
    for _ in range(40):
        b = random_structure(rng, SIG_EF, max_size=5, density=0.3)
        text = serialize_structure(b)
        sig_line, _, *facts = text.splitlines()
        variants = [(text, True), ("# c\n" + text, False), (text.replace("\n", "\r\n"), False)]
        if facts:  # without a universe line, the elements facts name in order
            variants.append(("\n".join([sig_line, *facts]) + "\n", False))
        for variant, scanned in variants:
            assert (relstore._scan_canonical(variant) is not None) == scanned
            s = parse_structure(variant)
            canon = dict(zip(s.universe, s.universe))
            assert all(e is canon[e] for ts in s.relations.values() for t in ts for e in t)
            assert s == make_structure(s.sig, s.universe, s.relations)
            assert s.relations == b.relations
            if "universe" in variant:
                assert s == b


def test_scan_line_loop_and_make_structure_hold_the_same_facts():
    # the scan builds each relation as its argument columns, the line loop
    # and make_structure as a tuple set, and each derives the other form
    # once, when first asked: the three must hold each fact once, in the
    # universe's element objects, in both forms
    rng = random.Random(20261019)
    repeated = 0
    for _ in range(200):
        names = rng.sample(("E", "E2", "E_", "E22"), rng.randint(1, 3))
        sig = Signature(tuple((name, rng.randint(1, 3)) for name in names))
        b = random_structure(rng, sig, max_size=4, density=0.35)
        text = text_with_a_repeated_line(rng, b)
        repeated += text.count("\n") > serialize_structure(b).count("\n")
        scanned = relstore._scan_canonical(text)
        assert scanned is not None, text
        for s in (scanned, relstore._parse_lines(text), b):
            canon = dict(zip(s.universe, s.universe))
            for name, arity in sig.symbols:
                columns = s.columns(name)  # one column per argument position
                assert type(columns) is tuple and len(columns) == arity
                assert s.columns(name) is columns
                facts = list(zip(*columns))
                assert len(facts) == len(set(facts)) and set(facts) == b.tuples(name), text
                assert all(e is canon[e] for fact in facts for e in fact)
            assert s.relations == b.relations and s == b and hash(s) == hash(b)
            assert all(e is canon[e] for ts in s.relations.values() for t in ts for e in t)
            assert all(type(ts) is frozenset and ts for ts in s.relations.values())
    assert repeated > 50


def test_a_scanned_structure_derives_only_the_tuple_set_asked_for():
    s = parse_structure("signature E/2 F/1\nuniverse a b\nE(a,b)\nF(a)\nF(b)\n")
    assert s.tuples("E") == {("a", "b")}
    assert "F" not in s._relations
    assert s.relations == {"E": frozenset({("a", "b")}), "F": frozenset({("a",), ("b",)})}
    assert list(s.relations) == ["E", "F"] and s.tuples("E") is s.relations["E"]
    # derived against signature order, every relation: still signature order
    s = parse_structure("signature E/2 F/1\nuniverse a b\nE(a,b)\nF(a)\nF(b)\n")
    assert s.tuples("F") and s.tuples("E") and list(s.relations) == ["E", "F"]
    assert "relations={'E': frozenset({('a', 'b')}), 'F': " in repr(s)


def test_a_scanned_structure_builds_its_tuple_sets_once():
    s = parse_structure("signature E/2 V/1\nuniverse a b\nE(a,b)\nE(b,a)\nE(a,b)\n")
    assert s.columns("E") == (["a", "b"], ["b", "a"]) and s.columns("V") == ([],)
    assert s.relations == {"E": frozenset({("a", "b"), ("b", "a")})}
    assert s.relations is s.relations and s.tuples("E") is s.relations["E"]
    assert s.columns("E") == (["a", "b"], ["b", "a"])
    with pytest.raises(AttributeError):
        s.universe = ("a",)


_BASE = "signature E/2 V/1\nuniverse a b c\nE(a,b)\nE(b,c)\nV(a)\n"


@pytest.mark.parametrize(
    "text, canonical",
    [
        (_BASE, True),
        (_BASE.rstrip("\n"), True),  # no final newline
        (_BASE + "E(a,b)\n", True),  # duplicate fact
        ("signature E/2\nuniverse a#L b\nE(a#L,b)\n", True),  # '#'-glued element
        ("signature E/2\nuniverse a b\n", True),  # no facts
        (_BASE.replace("E(a,b)", "E(a, b)"), False),  # space inside a fact
        (_BASE.replace("E(a,b)", "E(a,b) # note"), False),  # trailing comment
        (_BASE.replace("E(a,b)", "E(a,b)#x"), False),
        (_BASE.replace("E(a,b)", "E(a,\xa0b)"), False),  # a non-ASCII space
        (_BASE.replace("E(a,b)", "E(a,\tb)"), False),
        (_BASE.replace("\n", "\r\n"), False),  # CRLF
        (_BASE.replace("E(b,c)\n", "E(b,c)\x0bV(b)\n"), False),  # another line break
        (_BASE.replace("E(b,c)\n", "E(b,c)\n\n"), False),  # blank line
        ("# a comment\n" + _BASE, False),
        (_BASE.replace("universe a b c", "universe a b c # more"), False),
        (_BASE.replace("universe a b c", "universe a b #c"), False),
        (_BASE.replace("universe a b c", "universe a b c "), False),
        (_BASE + "E(a,z)\n", False),  # unknown element
        (_BASE + "E(a)\n", False),  # wrong arity
        (_BASE + "V(a,b)\n", False),
        (_BASE + "E(a,)\n", False),
        (_BASE + "F(a,b)\n", False),  # undeclared symbol
        ("signature E/2 universeX/1\nuniverse a b\nE(a,b)\nuniverseX(a)\n", False),
        ("signature E/2 signatures/1\nuniverse a b\nE(a,b)\n", False),
        ("signature E/2\nE(a,b)\nE(b,c)\n", False),  # no universe line
        ("signature E/2\nuniverse a b\nuniverse a b\n", False),
        ("signature E/0\nuniverse a b\n", False),
        ("signature E/2 E/2\nuniverse a b\n", False),
        ("signature E/2\nuniverse a b a\nE(a,b)\n", False),
        ("signature E/2\nuniverse a) b\nE(a),b)\n", False),  # ')' inside an element
        ("universe a b\nsignature E/2\nE(a,b)\n", False),
        ("signature E/2\nuniverse a b", False),
        ("", False),
    ],
)
def test_scan_and_line_loop_agree_on_other_texts(text, canonical):
    assert (relstore._scan_canonical(text) is not None) == canonical
    assert _outcome(parse_structure, text) == _outcome(relstore._parse_lines, text)


@pytest.mark.parametrize(
    "text, canonical",
    [
        # a relation's argument lists are joined and split on ','; each
        # list must still give exactly the entries of its own fact
        ("signature E/2\nuniverse a b c d\nE(a,b,c)\nE(d)\n", False),
        ("signature E/2\nuniverse a b c d\nE(d)\nE(a,b,c)\n", False),
        ("signature E/2\nuniverse a,b c d\nE(a,b,c)\nE(d)\n", False),
        ("signature E/2\nuniverse a,b c\nE(a,b,c)\n", False),
        ("signature E/2\nuniverse a b c d\nE(a,b)\nE(c,d,a)\n", False),
        ("signature E/2\nuniverse a b c d\nE(a,b\nc,d)\n", False),
        ("signature E/2\nuniverse a b c d\nE(a,b),E(c,d)\n", False),
        ("signature E/2\nuniverse a( b c d\nE(a(,b)\nE(c,d)\n", True),
        ("signature E/2\nuniverse a( b c d\nE(a(,b,c)\nE(d)\n", False),
        ("signature E/2\nuniverse (a b c d\nE((a,b)\nE(c)\n", False),
        ("signature E/2\nuniverse a) b c d\nE(a),b,c)\nE(d)\n", False),
        ("signature E/2\nuniverse a b) c d\nE(a,b),c)\nE(d)\n", False),
        ("signature E/2\nuniverse a b c d\nE(a,b)c,d)\n", False),
        # prefix-sharing symbols interleaved, arity 1, no final newline
        ("signature E/1 E2/2\nuniverse a b c\nE(a)\nE2(a,b)\nE(b)\nE2(b,c)\nE(c)", True),
        ("signature E/1 E2/2\nuniverse a b c\nE2(a,b)\nE(a,b)\nE2(c)\nE(c)\n", False),
        ("signature E/1 E2/2\nuniverse a b c\nE(a)\nE2(a,b,c)\nE(b)", False),
        ("signature E/2 E2/1\nuniverse a b\nE2(a)\nE(a,b)\nE2(b)\nE(b,a)", True),
        ("signature E/1\nuniverse a b\nE(a)\nE(b)", True),
        ("signature E/1\nuniverse a b\nE(a)\nE(a,b)", False),
        ("signature E/1\nuniverse a,b\nE(a,b)", False),
    ],
)
def test_scan_keeps_each_entry_in_its_own_fact(text, canonical):
    assert (relstore._scan_canonical(text) is not None) == canonical
    assert _outcome(parse_structure, text) == _outcome(relstore._parse_lines, text)


def _scan_agrees_with_the_line_loop(text):
    """Whether the scan reads `text`. Either way parse_structure's outcome
    is the line loop's (the same Structure or the same ParseError), and a
    scanned relation's columns hold its fact lines' argument lists in line
    order, each fact at its first line."""
    assert _outcome(parse_structure, text) == _outcome(relstore._parse_lines, text)
    scanned = relstore._scan_canonical(text)
    if scanned is None:
        return False
    facts = {name: {} for name in scanned.sig.names()}
    for line in text.split("\n")[2:]:
        if line:
            name, _, args = line.partition("(")
            facts[name].setdefault(tuple(args[:-1].split(",")), None)
    for name, arity in scanned.sig.symbols:
        in_line_order = tuple(list(column) for column in zip(*facts[name]))
        assert scanned.columns(name) == (in_line_order or tuple([] for _ in range(arity)))
    return True


@pytest.mark.parametrize(
    "text, canonical",
    [
        # the right number of entries in one run, the wrong arity on each line
        ("signature E/2\nuniverse a b c d\nE(a)\nE(b,c,d)\n", False),
        ("signature E/2\nuniverse a b c d\nE(b,c,d)\nE(a)\n", False),
        ("signature E/2 V/1\nuniverse a b c d\nV(a)\nE(a)\nE(b,c,d)\nV(b)\n", False),
        ("signature E/2 V/1\nuniverse a b c d\nE(a)\nV(a)\nE(b,c,d)\n", False),
        ("signature V/1 E/3\nuniverse a b c d\nE(a,b)\nE(b,c,d,a)\n", False),
        ("signature V/1\nuniverse a b\nV(a,b)\nV()\n", False),
        # one relation in two runs, a fact repeated across them
        ("signature E/2 V/1\nuniverse a b c\nE(a,b)\nE(b,c)\nV(a)\nE(a,b)\nE(c,a)\n", True),
        ("signature E/2 V/1\nuniverse a b c\nV(a)\nE(c,a)\nV(b)\nV(a)\nE(c,a)\nE(a,b)", True),
        ("signature E/2 V/1\nuniverse a b c\nE(a,b)\nV(a)\nE(a,b)\nE(c)\n", False),
        # multi-byte UTF-8 element names, and other line breaks than '\n'
        ("signature E/2 V/1\nuniverse \xe9 \u6771\u4eac \U0001f600 a\n"
         "E(\xe9,\u6771\u4eac)\nV(\U0001f600)\nE(\u6771\u4eac,\U0001f600)\nE(a,\xe9)\n", True),
        ("signature E/2\nuniverse \xe9 \xfc\nE(\xe9)\nE(\xfc,\xe9,\xfc)\n", False),
        ("signature E/2\nuniverse \xe9 \udcff\nE(\xe9,\udcff)\n", True),  # a lone surrogate
        ("signature E/2\nuniverse \xe9 \xfc\nE(\xe9,\u2028\xfc)\n", False),
        ("signature E/2\nuniverse \xe9 \xfc\nE(\xe9,\xfc)\u2029E(\xfc,\xe9)\n", False),
        ("signature E/2\nuniverse \xe9 \xfc\u3000\nE(\xe9,\xfc)\n", False),
        # universe tokens: one not printable yet no whitespace, a no-break
        # space, and empty ones
        ("signature E/2\nuniverse \u200ba b\nE(\u200ba,b)\n", True),
        ("signature E/2\nuniverse a\xa0 b\nE(b,b)\n", False),
        ("signature E/2\nuniverse a  b\nE(a,b)\n", False),
        ("signature E/2\nuniverse  a b\nE(a,b)\n", False),
        # a declared relation with no facts, listed between two others
        ("signature A/1 E/2 B/1\nuniverse a b\nA(a)\nB(b)\n", True),
        ("signature A/1 E/2 B/1\nuniverse a b\nB(b)\nA(a)\nB(a)\n", True),
        ("signature A/1 E/2 B/1\nuniverse a b\nA(a)\nE(a)\nB(b)\n", False),
    ],
)
def test_scan_refuses_what_counting_entries_alone_would_accept(text, canonical):
    assert _scan_agrees_with_the_line_loop(text) == canonical


def test_scan_reads_a_large_random_text_as_the_line_loop_does():
    # 20,000 fact lines in three relations: in serialized (sorted) order,
    # shuffled, with one line repeated, and with two lines whose entries
    # still add up but whose arities are wrong
    rng = random.Random(20000)
    universe = [f"v{i}" for i in range(600)] + ["\xe9", "\u6771\u4eac"]
    sig = Signature((("E", 2), ("E2", 1), ("R", 3)))
    rels = {}
    for (name, arity), size in zip(sig.symbols, (12000, 500, 7500)):
        rels[name] = set()
        while len(rels[name]) < size:
            rels[name].add(tuple(rng.choice(universe) for _ in range(arity)))
    text = serialize_structure(make_structure(sig, universe, rels))
    head, lines = text.splitlines()[:2], text.splitlines()[2:]
    assert len(lines) == 20000
    shuffled = rng.sample(lines, len(lines))
    repeated = shuffled + [shuffled[123]]
    broken = list(shuffled)
    e_lines = [i for i, line in enumerate(broken) if line.startswith("E(")]
    broken[e_lines[10]] = "E(v1)"
    broken[e_lines[500]] = "E(v2,v3,v4)"
    for facts, canonical in ((lines, True), (shuffled, True), (repeated, True), (broken, False)):
        variant = "\n".join(head + facts) + "\n"
        assert _scan_agrees_with_the_line_loop(variant) == canonical


def test_canonical_text_never_reaches_the_line_loop(monkeypatch, rng):
    def refuse(text):
        raise AssertionError("the line loop read a canonical text")

    monkeypatch.setattr(relstore, "_parse_lines", refuse)
    for _ in range(20):
        b = random_structure(rng, SIG_EF, max_size=5, density=0.3)
        assert parse_structure(serialize_structure(b)) == b


def test_a_structure_hashes_what_it_compares_without_rendering_it(monkeypatch):
    # the same facts built from tuples and scanned from text, hashed before
    # the scanned one derives its tuple sets, compare and hash equal; no
    # hash renders fact text (check_represents dedups its samples by hash)
    rng = random.Random(20261020)
    sig = Signature((("E", 2), ("U", 1)))
    built = [random_structure(rng, sig, max_size=4, density=0.4) for _ in range(40)]
    texts = [serialize_structure(b) for b in built]

    def rendered(s):
        raise AssertionError("a hash rendered a structure's text")

    monkeypatch.setattr(relstore, "serialize_structure", rendered)
    for b, text in zip(built, texts):
        scanned = relstore._scan_canonical(text)
        assert hash(scanned) == hash(b) and scanned == b, text
        assert len({b, scanned, make_structure(sig, b.universe, b.relations)}) == 1


def test_roundtrip_fixed():
    s = path_structure(2)
    assert parse_structure(serialize_structure(s)) == s


def test_serialization_facts_sorted():
    s = make_structure(SIG_E, ["b", "a"], {"E": {("b", "a"), ("a", "b")}})
    text = serialize_structure(s)
    lines = text.strip().splitlines()
    assert lines[2:] == sorted(lines[2:])


# ---------------------------------------------------------------------------
# homomorphisms: counted by the oracle, found by the pinned search
# ---------------------------------------------------------------------------


def _hom_count(a, b, max_enum=10**8):
    """The homomorphisms a -> b, counted by the oracle on a's canonical
    query with every element liberal."""
    return oracle_count(pair_to_pp(PpPair(a, tuple(a.universe))), b, max_enum)


def test_path2_to_triangle_is_12():
    # frozen: brute force over all 3^3 = 27 maps gives 12
    p2 = path_structure(2)
    k3 = triangle_structure()
    assert brute_homomorphisms(p2, k3) == 12
    assert _hom_count(p2, k3) == 12


def test_hom_search_with_the_identity_pin_finds_the_identity():
    s = path_structure(3)
    pin = {e: e for e in s.universe}
    assert homomorphism_search(s, pin)(s, pin) == pin


def test_no_target_tuples_counts_zero():
    edge = make_structure(SIG_E, ["a", "b"], {"E": {("a", "b")}})
    empty = make_structure(SIG_E, ["u", "v"], {})
    assert _hom_count(edge, empty) == 0
    assert homomorphism_search(edge, ())(empty, {}) is None


def test_tupleless_source_counts_all_maps():
    single = make_structure(SIG_E, ["a"], {})
    k3 = triangle_structure()
    assert _hom_count(single, k3) == 3


def test_signature_mismatch_is_an_error():
    a = path_structure(1)
    b = make_structure(Signature((("F", 2),)), ["x"], {})
    with pytest.raises(SharpqError, match="lacks relation 'E'"):
        _hom_count(a, b)


def test_merge_signatures_unions_symbols_and_refuses_two_arities():
    a = Signature((("F", 1), ("E", 2)))
    assert merge_signatures(a, SIG_E) == Signature((("E", 2), ("F", 1)))
    with pytest.raises(SharpqError, match="^relation E has conflicting arities 2 and 3$"):
        merge_signatures(a, Signature((("E", 3),)))


def test_pinned_hom_search_finds_a_map_iff_one_extends_the_pin():
    p2 = path_structure(2)
    k3 = triangle_structure()
    find = homomorphism_search(p2, ("a0",))
    total = 0
    for t in k3.universe:
        maps = list(brute_hom_maps(p2, k3, {"a0": t}))
        h = find(k3, {"a0": t})
        assert h in maps and h["a0"] == t
        total += len(maps)
    assert total == _hom_count(p2, k3) == 12
    lone = make_structure(SIG_E, ["u", "v"], {"E": {("u", "v")}})
    assert find(lone, {"a0": "v"}) is None and not list(brute_hom_maps(p2, lone, {"a0": "v"}))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_oracle_hom_counts_match_brute_force(seed):
    rng = random.Random(seed)
    sig = rng.choice((SIG_E, SIG_EF))
    src = random_structure(rng, sig, max_size=3)
    dst = random_structure(rng, sig, max_size=3)
    assert _hom_count(src, dst) == brute_homomorphisms(src, dst)


def _first_hom_reference(src, dst, pin):
    """The first-witness search equivalence checking used before it shared
    relstore's: pinned facts checked first, then unpinned elements by
    decreasing fact count and universe order, each trying dst's universe in
    order."""
    incidence = {e: [] for e in src.universe}
    for name, tup in src.all_facts():
        for e in set(tup):
            incidence[e].append((name, tup))
    h = dict(pin)

    def consistent(e):
        for name, tup in incidence[e]:
            image = tuple(h[x] for x in tup if x in h)
            if len(image) == len(tup) and image not in dst.tuples(name):
                return False
        return True

    if not all(consistent(e) for e in pin):
        return None
    todo = sorted(
        (e for e in src.universe if e not in h),
        key=lambda e: (-len(incidence[e]), src.universe.index(e)),
    )

    def search(i):
        if i == len(todo):
            return dict(h)
        for b in dst.universe:
            h[todo[i]] = b
            if consistent(todo[i]):
                found = search(i + 1)
                if found is not None:
                    return found
            del h[todo[i]]
        return None

    return search(0)


def test_first_witness_matches_the_reference_search():
    rng = random.Random(31)
    found = 0
    for _ in range(400):
        src = random_structure(rng, SIG_EF, max_size=5, density=0.25)
        dst = random_structure(rng, SIG_EF, max_size=4, density=0.5)
        pinned = rng.sample(src.universe, rng.randint(0, min(2, len(src.universe))))
        pin = {e: rng.choice(dst.universe) for e in pinned}
        expected = _first_hom_reference(src, dst, pin)
        first = homomorphism_search(src, pin)(dst, pin)
        assert first == expected
        maps = list(brute_hom_maps(src, dst, pin))
        assert first in maps if maps else first is None
        found += expected is not None
    assert 50 < found < 350


def test_hom_counts_elements_in_no_fact_as_a_factor_each():
    # one edge and n elements in no fact into the symmetric triangle: each
    # such element multiplies the count by 3; enumerating the maps of 40 of
    # them would take 6 * 3^40 steps
    k3 = triangle_structure()
    for n in (3, 40):
        isolated = [f"i{k}" for k in range(n)]
        src = make_structure(SIG_E, ["u", "v", *isolated], {"E": {("u", "v")}})
        assert _hom_count(src, k3, max_enum=3 ** (n + 2)) == 6 * 3**n
        h = homomorphism_search(src, ())(k3, {})
        assert (h["u"], h["v"]) in k3.tuples("E")
        assert all(h[e] == k3.universe[0] for e in isolated)
        if n == 3:
            assert _hom_count(src, k3) == brute_homomorphisms(src, k3)


# ---------------------------------------------------------------------------
# hom counts under structure algebra (structures built by the test helpers)
# ---------------------------------------------------------------------------


def test_direct_products_multiply_hom_counts():
    rng = random.Random(7)
    a = path_structure(2)
    for _ in range(5):
        b1 = random_structure(rng, SIG_E)
        b2 = random_structure(rng, SIG_E)
        both = sum_of_products(SIG_E, [[b1, b2]])
        assert _hom_count(a, both) == _hom_count(a, b1) * _hom_count(a, b2)


def test_structures_side_by_side_add_hom_counts_for_connected_source():
    rng = random.Random(8)
    a = path_structure(2)  # connected
    for _ in range(5):
        b1 = random_structure(rng, SIG_E)
        b2 = random_structure(rng, SIG_E)
        either = sum_of_products(SIG_E, [[b1], [b2]])
        assert _hom_count(a, either) == _hom_count(a, b1) + _hom_count(a, b2)


def test_the_one_element_structure_absorbs_all_sources():
    one = sum_of_products(SIG_E, [[]])
    assert len(one.universe) == 1
    for s in (path_structure(3), triangle_structure(), make_structure(SIG_E, ["a", "b"], {})):
        assert _hom_count(s, one) == 1


@pytest.mark.parametrize("coeffs", [[1], [1, 1], [0, 0, 1], [1, 1, 1]])
def test_polynomial_action_commutes_with_hom_counting(coeffs):
    rng = random.Random(9)
    a = path_structure(2)  # connected source

    def p(x):
        return sum(c * x**i for i, c in enumerate(coeffs))

    for _ in range(3):
        b = random_structure(rng, SIG_E, max_size=3)
        assert _hom_count(a, poly_structure(coeffs, b)) == p(_hom_count(a, b))


def _glued_copies(s):
    """Two copies of s side by side, their elements named e#L and e#R."""
    sides = ("#L", "#R")
    rels = {
        name: {tuple(e + side for e in t) for t in s.tuples(name) for side in sides}
        for name in s.sig.names()
    }
    return make_structure(s.sig, [e + side for side in sides for e in s.universe], rels)


def test_names_with_a_glued_hash_round_trip():
    u = _glued_copies(path_structure(1))
    assert set(u.universe) == {"a0#L", "a1#L", "a0#R", "a1#R"}
    assert parse_structure(serialize_structure(u)) == u


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_roundtrip_random_structures(seed):
    rng = random.Random(seed)
    s = random_structure(rng, SIG_E, max_size=5)
    assert parse_structure(serialize_structure(s)) == s


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**30))
def test_roundtrip_with_hashes_glued_to_names(seed):
    rng = random.Random(seed)
    u = _glued_copies(random_structure(rng, SIG_E, max_size=3))
    assert parse_structure(serialize_structure(u)) == u
