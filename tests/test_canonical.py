"""Canonical labeling of pairs against the exhaustive reference.

`exhaustive_canonical_pair` serializes every liberal/quantified relabeling
and keeps the least text; `compilepipe._canonical_pair` must return the same
pair, and refuse over `cap` at the same sizes.
"""

import itertools
import math
import random

import pytest

from sharpq.compilepipe import _canonical_pair
from sharpq.epquery import PpPair, serialize_pair
from sharpq.errors import CapExceeded
from sharpq.relstore import Signature, make_structure


def exhaustive_canonical_pair(p, cap=200000):
    universe = p.struct.universe
    lib = list(p.liberal)
    quant = [v for v in universe if v not in set(lib)]
    if math.factorial(len(lib)) * math.factorial(len(quant)) > cap:
        raise CapExceeded(
            f"canonical labeling over {len(lib)}!*{len(quant)}! orderings exceeds {cap}"
        )
    symbols = {sym: len(tup) for sym, tup in p.struct.all_facts()}
    sig = Signature(tuple(sorted(symbols.items())))
    lib_names = [f"l{i}" for i in range(len(lib))]
    quant_names = [f"q{i}" for i in range(len(quant))]
    best_text = best_pair = None
    for lib_perm in itertools.permutations(lib):
        for quant_perm in itertools.permutations(quant):
            ren = {v: lib_names[i] for i, v in enumerate(lib_perm)}
            ren.update({v: quant_names[i] for i, v in enumerate(quant_perm)})
            rels = {}
            for sym, tup in p.struct.all_facts():
                rels.setdefault(sym, set()).add(tuple(ren[x] for x in tup))
            cand = PpPair(
                struct=make_structure(sig, lib_names + quant_names, rels),
                liberal=tuple(lib_names),
            )
            text = serialize_pair(cand)
            if best_text is None or text < best_text:
                best_text, best_pair = text, cand
    return best_pair


SIG_RST = Signature((("R", 1), ("E", 2), ("T", 3)))


def make_pair(universe, liberal, facts, sig=SIG_RST):
    rels = {}
    for sym, tup in facts:
        rels.setdefault(sym, set()).add(tuple(tup))
    return PpPair(struct=make_structure(sig, universe, rels), liberal=tuple(liberal))


def random_pair(rng):
    n_lib = rng.randint(0, 3)
    n_quant = rng.randint(0 if n_lib else 1, 5)
    lib = [f"x{i}" for i in range(n_lib)]
    quant = [f"z{i}" for i in range(n_quant)]
    universe = lib + quant
    rng.shuffle(universe)
    facts = []
    for _ in range(rng.randint(0, 8)):
        sym, arity = rng.choice(SIG_RST.symbols)
        # loops and repeated arguments come from drawing with replacement
        facts.append((sym, [rng.choice(universe) for _ in range(arity)]))
    return make_pair(universe, lib, facts)


def assert_same_canonical_form(p):
    assert serialize_pair(_canonical_pair(p)) == serialize_pair(exhaustive_canonical_pair(p))


def test_random_pairs_match_exhaustive():
    rng = random.Random(4242)
    for _ in range(1500):
        assert_same_canonical_form(random_pair(rng))


def test_random_graph_pairs_match_exhaustive():
    # one binary relation, denser: many ties between partial labelings
    rng = random.Random(77)
    sig = Signature((("E", 2),))
    for _ in range(300):
        n_lib, n_quant = rng.randint(0, 3), rng.randint(1, 5)
        universe = [f"x{i}" for i in range(n_lib)] + [f"z{i}" for i in range(n_quant)]
        facts = [
            ("E", (a, b))
            for a in universe
            for b in universe
            if rng.random() < 0.35
        ]
        assert_same_canonical_form(make_pair(universe, universe[:n_lib], facts, sig))


def test_canonical_form_ignores_input_names_and_order():
    rng = random.Random(5)
    for _ in range(200):
        p = random_pair(rng)
        ren = {v: f"w{i}" for i, v in enumerate(reversed(p.struct.universe))}
        universe = [ren[v] for v in p.struct.universe]
        rng.shuffle(universe)
        liberal = [ren[v] for v in p.liberal]
        rng.shuffle(liberal)
        facts = [(sym, [ren[v] for v in tup]) for sym, tup in p.struct.all_facts()]
        q = make_pair(universe, liberal, facts)
        assert serialize_pair(_canonical_pair(q)) == serialize_pair(_canonical_pair(p))


SIG_E = Signature((("E", 2),))


@pytest.mark.parametrize(
    "p",
    [
        # star with 4 liberal leaves around a quantified hub
        make_pair(
            ["h", "a", "b", "c", "d"], ["a", "b", "c", "d"],
            [("E", (v, "h")) for v in "abcd"], SIG_E,
        ),
        # 4 isolated liberal elements beside one edge (a |B|-power)
        make_pair(
            ["u", "v", "e$0", "e$1", "e$2", "e$3"], ["u", "e$0", "e$1", "e$2", "e$3"],
            [("E", ("u", "v"))], SIG_E,
        ),
        # directed 6-cycle, all quantified
        make_pair(
            [f"c{i}" for i in range(6)], [],
            [("E", (f"c{i}", f"c{(i + 1) % 6}")) for i in range(6)], SIG_E,
        ),
        # directed 6-cycle with one liberal vertex
        make_pair(
            [f"c{i}" for i in range(6)], ["c3"],
            [("E", (f"c{i}", f"c{(i + 1) % 6}")) for i in range(6)], SIG_E,
        ),
        # K4, both orientations, all quantified
        make_pair(
            ["k0", "k1", "k2", "k3"], [],
            [("E", (a, b)) for a in ("k0", "k1", "k2", "k3")
             for b in ("k0", "k1", "k2", "k3") if a != b], SIG_E,
        ),
        # K4 with two liberal vertices and a loop
        make_pair(
            ["k0", "k1", "k2", "k3"], ["k2", "k0"],
            [("E", (a, b)) for a in ("k0", "k1", "k2", "k3")
             for b in ("k0", "k1", "k2", "k3") if a != b] + [("E", ("k1", "k1"))], SIG_E,
        ),
    ],
    ids=["star-4", "power-4", "cycle-6", "cycle-6-liberal", "k4", "k4-liberal-loop"],
)
def test_hand_cases_match_exhaustive(p):
    assert_same_canonical_form(p)


def test_names_follow_string_order_past_ten():
    # 11 liberal names: "l10" sorts between "l1" and "l2", so the least text
    # names the path a -> b -> c l0, l1, l10 (the exhaustive reference would
    # need 11! orderings)
    universe = ["a", "b", "c"] + [f"i{n}" for n in range(8)]
    p = make_pair(universe, universe, [("E", ("a", "b")), ("E", ("b", "c"))], SIG_E)
    text = serialize_pair(_canonical_pair(p, cap=math.factorial(11)))
    assert "\nE(l0,l1)\nE(l1,l10)\nliberal " in text


def test_cap_refuses_at_the_same_sizes():
    for n_lib in range(5):
        for n_quant in range(6):
            universe = [f"x{i}" for i in range(n_lib)] + [f"z{i}" for i in range(n_quant)]
            if not universe:
                continue
            p = make_pair(universe, universe[:n_lib], [])
            for cap in (1, 6, 24, 100):
                refuses = math.factorial(n_lib) * math.factorial(n_quant) > cap
                for fn in (_canonical_pair, exhaustive_canonical_pair):
                    if refuses:
                        with pytest.raises(CapExceeded, match=f"{n_lib}!\\*{n_quant}!"):
                            fn(p, cap=cap)
                    else:
                        fn(p, cap=cap)


def test_cap_is_checked_before_any_work():
    # a 9-edge path from a liberal end: 1!*9! = 362,880 orderings > 200,000
    universe = [f"z{i}" for i in range(9)] + ["x"]
    p = make_pair(universe, ["x"], [("E", (universe[i], universe[i + 1])) for i in range(9)], SIG_E)
    with pytest.raises(CapExceeded, match="1!\\*9!"):
        _canonical_pair(p)
    # with the cap raised, the same pair is labeled
    q = _canonical_pair(p, cap=10**6)
    assert serialize_pair(q).count("E(") == 9
