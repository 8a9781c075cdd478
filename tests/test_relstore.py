import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpq.errors import ParseError, SharpqError
from sharpq.relstore import (
    Signature,
    disjoint_union,
    homomorphisms,
    identity_structure,
    make_structure,
    parse_structure,
    poly_action,
    product,
    search_homomorphisms,
    serialize_structure,
)

from tests.conftest import (
    SIG_E,
    SIG_EF,
    brute_homomorphisms,
    path_structure,
    random_structure,
    triangle_structure,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal():
    s = parse_structure("signature E/2\nuniverse a b\nE(a,b)")
    assert len(s.universe) == 2
    assert len(s.tuples("E")) == 1


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


def test_roundtrip_fixed():
    s = path_structure(2)
    assert parse_structure(serialize_structure(s)) == s


def test_serialization_facts_sorted():
    s = make_structure(SIG_E, ["b", "a"], {"E": {("b", "a"), ("a", "b")}})
    text = serialize_structure(s)
    lines = text.strip().splitlines()
    assert lines[2:] == sorted(lines[2:])


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_path2_to_triangle_is_12():
    # frozen: brute force over all 3^3 = 27 maps gives 12
    p2 = path_structure(2)
    k3 = triangle_structure()
    assert brute_homomorphisms(p2, k3) == 12
    assert homomorphisms(p2, k3) == 12


def test_identity_pin_counts_one():
    s = path_structure(3)
    pin = {e: e for e in s.universe}
    assert homomorphisms(s, s, pin=pin) == 1


def test_no_target_tuples_counts_zero():
    edge = make_structure(SIG_E, ["a", "b"], {"E": {("a", "b")}})
    empty = make_structure(SIG_E, ["u", "v"], {})
    assert homomorphisms(edge, empty) == 0


def test_tupleless_source_counts_all_maps():
    single = make_structure(SIG_E, ["a"], {})
    k3 = triangle_structure()
    assert homomorphisms(single, k3) == 3


def test_enumeration_yields_each_witness_once():
    p1 = path_structure(1)
    k3 = triangle_structure()
    count, witnesses = homomorphisms(p1, k3, enumerate_witnesses=True)
    assert count == len(witnesses) == 6
    assert len({tuple(sorted(w.items())) for w in witnesses}) == 6


def test_signature_mismatch_is_an_error():
    a = path_structure(1)
    b = make_structure(Signature((("F", 2),)), ["x"], {})
    with pytest.raises(SharpqError):
        homomorphisms(a, b)


def test_pin_respected():
    p2 = path_structure(2)
    k3 = triangle_structure()
    total = 0
    for t in k3.universe:
        c = homomorphisms(p2, k3, pin={"a0": t})
        assert c == brute_homomorphisms(p2, k3, pin={"a0": t})
        total += c
    assert total == 12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_hom_counts_match_brute_force(seed):
    rng = random.Random(seed)
    src = random_structure(rng, SIG_E, max_size=3)
    dst = random_structure(rng, SIG_E, max_size=3)
    assert homomorphisms(src, dst) == brute_homomorphisms(src, dst)


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
        first = search_homomorphisms(src, dst, pin, first=True)
        assert first == ([] if expected is None else [expected])
        count, witnesses = homomorphisms(src, dst, pin, enumerate_witnesses=True)
        assert witnesses[:1] == tuple(first)
        assert count == brute_homomorphisms(src, dst, pin)
        found += expected is not None
    assert 50 < found < 350


# ---------------------------------------------------------------------------
# structure algebra
# ---------------------------------------------------------------------------


def test_product_multiplies_hom_counts():
    rng = random.Random(7)
    a = path_structure(2)
    for _ in range(5):
        b1 = random_structure(rng, SIG_E)
        b2 = random_structure(rng, SIG_E)
        assert homomorphisms(a, product(b1, b2)) == homomorphisms(a, b1) * homomorphisms(a, b2)


def test_disjoint_union_adds_hom_counts_for_connected_source():
    rng = random.Random(8)
    a = path_structure(2)  # connected
    for _ in range(5):
        b1 = random_structure(rng, SIG_E)
        b2 = random_structure(rng, SIG_E)
        assert homomorphisms(a, disjoint_union(b1, b2)) == homomorphisms(a, b1) + homomorphisms(
            a, b2
        )


def test_disjoint_union_renames_collisions():
    b = path_structure(1)
    u = disjoint_union(b, b)
    assert set(u.universe) == {"a0#L", "a1#L", "a0#R", "a1#R"}
    assert parse_structure(serialize_structure(u)) == u


def test_identity_structure_absorbs_all_sources():
    one = identity_structure(SIG_E)
    for s in (path_structure(3), triangle_structure()):
        assert homomorphisms(s, one) == 1


def test_poly_action_unit():
    one = poly_action([1], triangle_structure())
    assert len(one.universe) == 1
    assert homomorphisms(path_structure(4), one) == 1


@pytest.mark.parametrize("coeffs", [[1, 1], [0, 0, 1], [1, 1, 1]])
def test_poly_action_commutes_with_hom_counting(coeffs):
    rng = random.Random(9)
    a = path_structure(2)  # connected source

    def p(x):
        return sum(c * x**i for i, c in enumerate(coeffs))

    for _ in range(3):
        b = random_structure(rng, SIG_E, max_size=3)
        assert homomorphisms(a, poly_action(coeffs, b)) == p(homomorphisms(a, b))


def test_poly_action_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        poly_action([0, 0], triangle_structure())


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
def test_roundtrip_after_disjoint_union(seed):
    rng = random.Random(seed)
    s = random_structure(rng, SIG_E, max_size=3)
    u = disjoint_union(s, s)
    assert parse_structure(serialize_structure(u)) == u
