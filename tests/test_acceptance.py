"""End-to-end acceptance checks for the counting-query compiler.

Each test exercises one advertised guarantee of the package — exact agreement
between compiled evaluation and the brute-force oracle, the known widths of
the worked examples, the treewidth sandwich around quantifier-aware width,
polynomial structure-action commutativity, homomorphism counting, canonical
form uniqueness, width-safe reduction, exhaustive micro-scale minimality, and
the scaling split between the compiled engine and the oracle guard — and
finishes by printing a one-line verdict (visible with ``pytest -rA``).
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from sharpq.compilepipe import (
    compile_flat,
    flatten,
    minimize_ep,
    pp_to_basic_sharp,
)
from sharpq.decomp import compute_qaw, exact_treewidth
from sharpq.epquery import (
    PpPair,
    _contract_graph,
    _exists_components,
    oracle_count,
    pair_to_pp,
    parse_query,
    pp_to_pair,
    primal_graph,
    serialize_pair,
)
from sharpq.equiv import core_of
from sharpq.errors import CapExceeded, SharpqError
from sharpq.relstore import Signature, make_structure
from sharpq.sharpcore import (
    Const,
    Plus,
    Times,
    eval_sentence,
    naive_representation,
    serialize_sharp,
    sharp_width,
    width,
)
from tests.conftest import (
    SIG_E,
    brute_hom_maps,
    brute_qaw,
    path_structure,
    poly_structure,
    random_ep_query,
    random_pp_pair,
    random_structure,
    star_pair,
    three_block_pair,
    triangle_structure,
)
from tests.helpers import components, flat_lc, reduce_to_basic

SEED = 20260819


def test_compiled_counts_match_oracle_on_random_queries():
    rng = random.Random(SEED)
    start = time.monotonic()
    failures = []
    for i in range(500):
        q = random_ep_query(rng)
        sentence, _ = minimize_ep(q)
        for _ in range(5):
            b = random_structure(rng, q.sig, max_size=4)
            got = eval_sentence(sentence, b)
            want = oracle_count(q, b)
            if got != want:
                failures.append((i, got, want))
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 120.0
    print(f"PASS: 500 queries x 5 structures, compiled == oracle, {elapsed:.1f}s")


def test_worked_examples_match_known_values():
    rng = random.Random(SEED + 1)

    # Conjunctions of unary atoms count to the product of the table sizes
    # and compile at width 1.
    for n in range(1, 6):
        head = ",".join(f"x{i}" for i in range(1, n + 1))
        body = " & ".join(f"U{i}(x{i})" for i in range(1, n + 1))
        q = parse_query(f"query t{n}({head}): {body}")
        sentence, w = minimize_ep(q)
        assert w == 1
        for _ in range(3):
            universe = [f"b{j}" for j in range(4)]
            tables = {
                f"U{i}": {(e,) for e in universe if rng.random() < 0.6}
                for i in range(1, n + 1)
            }
            b = make_structure(
                q.sig, universe, {s: t for s, t in tables.items() if t}
            )
            expected = math.prod(len(t) for t in tables.values())
            assert eval_sentence(sentence, b) == expected
            assert oracle_count(q, b) == expected

    # Stars of n liberal spokes around one quantified hub: primal treewidth
    # stays 1 but the hub must sit below every spoke, forcing qaw n+1.
    for n in range(1, 6):
        p = star_pair(n)
        qaw, _ = compute_qaw(p)
        assert qaw == n + 1
        assert exact_treewidth(primal_graph(p))[0] == 1

    # The three-block query minimizes to width 4; its primal graph has exact
    # treewidth 3, and qaw >= treewidth + 1 confirms 4 is minimal.
    block = three_block_pair()
    _, w = minimize_ep(pair_to_pp(block))
    tw, _ = exact_treewidth(primal_graph(block))
    assert (tw, w) == (3, 4)

    # E(u,v) & exists y F(w,y) with liberal u,v,w,x splits into exactly three
    # components: the liberal edge, the quantified block, and the isolated x.
    q = parse_query("query q(u,v,w,x): E(u,v) & (exists y . F(w,y))")
    parts = components(pp_to_pair(q))
    assert [set(c.struct.universe) for c in parts] == [
        {"u", "v"},
        {"w", "y"},
        {"x"},
    ]
    assert [c.liberal for c in parts] == [("u", "v"), ("w",), ("x",)]
    assert [sorted(c.struct.all_facts()) for c in parts] == [
        [("E", ("u", "v"))],
        [("F", ("w", "y"))],
        [],
    ]
    print(
        "PASS: unary products exact, star qaw n+1 at treewidth 1, "
        "three-block width 4 (treewidth 3 lower bound), 3-way component split"
    )


def test_qaw_between_treewidth_bounds():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        p = random_pp_pair(rng)
        qaw, _ = compute_qaw(p)
        g, lib = primal_graph(p), p.liberal_set
        tw, _ = exact_treewidth(g)
        twc, _ = exact_treewidth(_contract_graph(g, lib, _exists_components(g, lib)))
        assert max(tw, twc) + 1 <= qaw <= tw + twc + 1
    print(
        "PASS: 200 random pp-queries, "
        "max(tw, tw_contract)+1 <= qaw <= tw + tw_contract + 1"
    )


def test_counts_commute_with_polynomial_structure_action():
    rng = random.Random(SEED + 3)
    polynomials = [(1, 1), (0, 0, 1), (1, 1, 1)]  # X+1, X^2, X^2+X+1
    done = 0
    draws = 0
    while done < 50:
        draws += 1
        assert draws < 5000
        p = random_pp_pair(rng, max_vars=4, max_atoms=4)
        if len(primal_graph(p).connected_components()) != 1 or not p.liberal:
            continue
        q = pair_to_pp(p)
        b = random_structure(rng, p.struct.sig, max_size=3)
        coeffs = polynomials[done % 3]
        base = oracle_count(q, b)
        lifted = oracle_count(q, poly_structure(coeffs, b))
        assert lifted == sum(c * base**i for i, c in enumerate(coeffs))
        done += 1
    print("PASS: 50 connected queries, counts commute with X+1, X^2, X^2+X+1")


def test_quantifier_free_patterns_count_homomorphisms():
    rng = random.Random(SEED + 4)
    sigs = [
        Signature((("E", 2),)),
        Signature((("E", 2), ("F", 2))),
        Signature((("R", 3), ("U", 1))),
    ]
    for i in range(50):
        sig = sigs[i % 3]
        a = random_structure(rng, sig, max_size=6)
        pattern = PpPair(struct=a, liberal=tuple(a.universe))
        sentence, _ = pp_to_basic_sharp(pattern)
        b = random_structure(rng, sig, max_size=5)
        assert eval_sentence(sentence, b) == oracle_count(pair_to_pp(pattern), b)

    # Pinned regression: the 2-edge path has 12 homomorphisms into the
    # symmetric triangle.
    path = path_structure(2)
    pattern = PpPair(struct=path, liberal=tuple(path.universe))
    assert eval_sentence(pp_to_basic_sharp(pattern)[0], triangle_structure()) == 12
    print("PASS: 50 quantifier-free patterns count homomorphisms exactly, P2->K3 = 12")


def test_canonical_form_identical_across_representations():
    rng = random.Random(SEED + 5)
    pairs_checked = 0
    queries = 0
    while pairs_checked < 100:
        q = random_ep_query(rng, max_vars=5, max_atoms=4)
        naive = naive_representation(q)
        compiled = compile_flat(q)[0]
        noisy = Plus(naive, Times(Const(0), naive))
        texts = {serialize_sharp(f) for f in (naive, compiled, noisy)}
        assert len(texts) == 3
        lcs = [
            [(c, serialize_pair(p)) for c, p in flat_lc(flatten(f)).entries]
            for f in (naive, compiled, noisy)
        ]
        assert lcs[0] == lcs[1] == lcs[2]
        pairs_checked += 3  # three pairwise comparisons per query
        queries += 1
    print(
        f"PASS: {queries} queries x 3 distinct representations "
        f"({pairs_checked} pairs), canonical forms identical term-for-term"
    )


def test_reduction_to_basic_never_widens():
    rng = random.Random(SEED + 6)
    false_fires = []
    for i in range(200):
        q = random_ep_query(rng, max_vars=5, max_atoms=4, max_disjunctions=0)
        f = naive_representation(q)
        if i % 2:
            f = Plus(f, Times(Const(0), f))
        try:
            g = reduce_to_basic(f, q)
        except SharpqError as exc:  # a raise here is a false rejection
            false_fires.append((i, str(exc)))
            continue
        assert width(g) <= width(f)
        assert sharp_width(g) <= sharp_width(f)
    assert false_fires == []
    print(
        "PASS: 200 reductions, width and #-width never increased, "
        "no false single-term rejections"
    )


def _orbit_representative(mask, remaps):
    """True when mask is the lexicographic minimum of its renaming orbit."""
    for remap in remaps:
        permuted = 0
        m = mask
        while m:
            k = (m & -m).bit_length() - 1
            permuted |= 1 << remap[k]
            m &= m - 1
        if permuted < mask:
            return False
    return True


def _endo_image_cores(pair):
    """Cores of every endomorphic image that fixes the liberal part.

    Each such image admits homomorphisms to and from the original (the
    endomorphism forward, the inclusion back), so it is an equivalent of the
    pair; its core is a minimality candidate.
    """
    struct = pair.struct
    images = {}
    for endo in brute_hom_maps(struct, struct, {v: v for v in pair.liberal}):
        universe = sorted(set(endo.values()))
        rels = {}
        for sym, tup in struct.all_facts():
            rels.setdefault(sym, set()).add(tuple(endo[x] for x in tup))
        image = PpPair(
            struct=make_structure(struct.sig, universe, rels),
            liberal=pair.liberal,
        )
        images.setdefault(serialize_pair(image), image)
    cores = {}
    for image in images.values():
        c = core_of(image)
        cores.setdefault(serialize_pair(c), c)
    return list(cores.values())


def test_minimized_width_is_exhaustively_minimal_on_micro_instances():
    # Sweep every pair over one binary symbol with at most 4 elements and at
    # most 2 liberal elements. Both the compiler's width and the exhaustive
    # minimum depend on the pair only up to renaming of elements, so one
    # representative per renaming orbit covers the whole space; liberal
    # elements can always be renamed to a prefix of the universe.
    start = time.monotonic()
    checked = 0
    mismatches = []
    for n in range(1, 5):
        names = [f"a{i}" for i in range(n)]
        positions = [(i, j) for i in range(n) for j in range(n)]
        index = {pos: k for k, pos in enumerate(positions)}
        for lib_count in range(0, min(2, n) + 1):
            lib = tuple(names[:lib_count])
            perms = [
                perm
                for perm in itertools.permutations(range(n))
                if sorted(perm[:lib_count]) == list(range(lib_count))
            ]
            remaps = [
                [index[(perm[i], perm[j])] for (i, j) in positions]
                for perm in perms
                if perm != tuple(range(n))
            ]
            for mask in range(1 << (n * n)):
                if not _orbit_representative(mask, remaps):
                    continue
                tuples = {
                    (names[i], names[j])
                    for k, (i, j) in enumerate(positions)
                    if mask >> k & 1
                }
                struct = make_structure(
                    SIG_E, names, {"E": tuples} if tuples else {}
                )
                pair = PpPair(struct=struct, liberal=lib)
                _, reported = minimize_ep(pair_to_pp(pair))
                best = min(brute_qaw(c) for c in _endo_image_cores(pair))
                checked += 1
                if reported != best:
                    mismatches.append((n, lib, mask, reported, best))
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 600.0
    print(
        f"PASS: {checked} micro pairs, minimized width == exhaustive minimum, "
        f"{elapsed:.0f}s"
    )


def test_long_path_query_scales_where_oracle_refuses():
    length = 20
    atoms = " & ".join(f"E(v{i},v{i+1})" for i in range(length))
    binders = " ".join(f"exists v{i} ." for i in range(1, length + 1))
    q = parse_query(f"query path{length}(v0): {binders} {atoms}")
    pair = pp_to_pair(q)
    sentence, qaw = pp_to_basic_sharp(pair)
    assert qaw == 2

    timings = []
    for nodes in (25, 50, 100):
        rng = random.Random(7)
        universe = [f"n{i}" for i in range(nodes)]
        edges = {(rng.choice(universe), rng.choice(universe)) for _ in range(3 * nodes)}
        b = make_structure(SIG_E, universe, {"E": edges})
        stats = {}
        start = time.monotonic()
        count = eval_sentence(sentence, b, stats=stats)
        elapsed = time.monotonic() - start
        assert count >= 0
        assert elapsed < 5.0
        assert stats["peak_rows"] <= nodes * nodes * length
        timings.append(f"{nodes} nodes {elapsed:.2f}s")
        if nodes == 25:
            with pytest.raises(CapExceeded, match="refuses"):
                oracle_count(q, b)
    print(
        "PASS: width-2 path of length 20 compiled and evaluated "
        f"({', '.join(timings)}), oracle guard refused"
    )
