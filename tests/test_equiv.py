"""Tests for cores, logical/counting equivalence, and alignment."""

import itertools

import pytest

from sharpq import equiv
from sharpq.decomp import compute_qaw
from sharpq.epquery import PpPair, oracle_count, pair_to_pp, parse_query, pp_to_pair
from sharpq.equiv import core_of, counting_equivalent, logically_equivalent
from sharpq.errors import CapExceeded, SharpqError
from sharpq.relstore import Signature, homomorphism_search, make_structure, merge_signatures

from tests.conftest import random_pp_pair, random_structure, rng as _rng  # noqa: F401
from tests.conftest import SIG_E, triangle_structure
from tests.helpers import align_via_renaming, reference_core_of


def _pair(text):
    return pp_to_pair(parse_query(text))


def _is_hom(h, src, dst):
    if sorted(h) != sorted(src.universe):
        return False
    for name, tup in src.all_facts():
        if tuple(h[x] for x in tup) not in dst.tuples(name):
            return False
    return True


def _compatible(p, q):
    a = dict(p.struct.sig.symbols)
    b = dict(q.struct.sig.symbols)
    return all(a[k] == b[k] for k in a.keys() & b.keys())


# --- cores --------------------------------------------------------------------


def test_core_folds_parallel_branches():
    p = _pair("query q(x): exists y . exists z . E(x,y) & E(x,z)")
    core = core_of(p)
    assert core.struct.universe == ("x", "y")  # lex-least of the two minimum images
    assert core.struct.tuples("E") == frozenset({("x", "y")})
    assert core.liberal == ("x",)


def test_core_of_a_core_is_itself():
    p = _pair("query q(x): exists y . exists z . E(x,y) & E(x,z)")
    once = core_of(p)
    twice = core_of(once)
    assert once.struct == twice.struct and once.liberal == twice.liberal


def test_core_keeps_rigid_structures_intact():
    p = PpPair(struct=triangle_structure(), liberal=())
    core = core_of(p)
    assert core.struct == p.struct


def test_core_never_drops_liberal_elements():
    p = _pair("query q(x,y): E(x,y) & exists u . E(x,u)")
    core = core_of(p)
    assert set(core.liberal) == {"x", "y"}
    assert core.struct.universe == ("x", "y")


def test_core_preserves_counts(rng):
    for _ in range(25):
        p = random_pp_pair(rng, max_vars=5, max_atoms=4)
        core = core_of(p)
        assert len(core.struct.universe) <= len(p.struct.universe)
        b = random_structure(rng, p.struct.sig, max_size=3)
        assert oracle_count(pair_to_pp(core), b) == oracle_count(pair_to_pp(p), b)


def test_core_is_logically_equivalent_to_input(rng):
    for _ in range(25):
        p = random_pp_pair(rng, max_vars=5, max_atoms=4)
        ok, witness = logically_equivalent(p, core_of(p))
        assert ok
        assert witness.kind == "logical"


def test_core_cap():
    sig = Signature((("E", 2),))
    big = make_structure(sig, [f"e{i}" for i in range(13)], {"E": set()})
    with pytest.raises(CapExceeded, match="12"):
        core_of(PpPair(struct=big, liberal=()))


def test_core_of_matches_the_exhaustive_search(rng):
    # random pairs, half of them with a random liberal subset (often empty)
    no_liberal = 0
    for i in range(1000):
        p = random_pp_pair(rng, max_vars=10, max_atoms=10, max_arity=rng.randint(1, 3))
        if i % 2:
            universe = list(p.struct.universe)
            liberal = rng.sample(universe, rng.randint(0, min(2, len(universe))))
            p = PpPair(struct=p.struct, liberal=tuple(liberal))
        no_liberal += not p.liberal
        got, want = core_of(p), reference_core_of(p)
        assert got.struct.universe == want.struct.universe
        assert got.struct.relations == want.struct.relations
        assert got.liberal == want.liberal
    assert no_liberal >= 100


def test_core_of_a_core_takes_one_search_per_quantified_element(monkeypatch):
    # a directed path is a core; the exhaustive search tries all 2^11 images
    # that contain x0
    n = 12
    atoms = " & ".join(f"E(x{i},x{i + 1})" for i in range(n - 1))
    binders = " . ".join(f"exists x{i}" for i in range(1, n))
    p = _pair(f"query q(x0): {binders} . {atoms}")
    searches, compiles = _spy_on_searches(monkeypatch)
    core = core_of(p)
    assert core.struct == p.struct
    assert len(searches) <= n - len(p.liberal) + 1
    assert len(compiles) == 1  # the core never shrinks


def _spy_on_searches(monkeypatch):
    """(searches, compiles): the runs of the homomorphism searches equiv
    compiles, and the compiles, as they happen."""
    searches, compiles = [], []
    real = equiv.homomorphism_search

    def spy(src, pinned):
        compiles.append((src, pinned))
        find = real(src, pinned)
        return lambda dst, pin: searches.append((dst, pin)) or find(dst, pin)

    monkeypatch.setattr(equiv, "homomorphism_search", spy)
    return searches, compiles


def test_core_of_compiles_one_search_per_core(monkeypatch, rng):
    # the retraction's searches and the image loop share the search of the
    # core they map; a shrink compiles the next core's
    shrunk = 0
    for _ in range(150):
        p = random_pp_pair(rng, max_vars=6)
        searches, compiles = _spy_on_searches(monkeypatch)
        got, want = core_of(p), reference_core_of(p)
        assert (got.struct, got.liberal) == (want.struct, want.liberal)
        # one compile for the pair, then one per shrink, each of a smaller core
        sizes = [len(src.universe) for src, _ in compiles]
        assert sizes[0] == len(p.struct.universe) and sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes) and sizes[-1] == len(got.struct.universe)
        assert len(searches) >= len(compiles)
        shrunk += len(compiles) > 1
    assert shrunk > 12


# --- logical equivalence ------------------------------------------------------


def test_edge_direction_matters_logically():
    p1 = _pair("query q(x,y): E(x,y)")
    p2 = _pair("query q(x,y): E(y,x)")
    ok, witness = logically_equivalent(p1, p2)
    assert not ok and witness is None


def test_redundant_atom_is_logically_equivalent():
    p1 = _pair("query q(x,y): E(x,y)")
    p2 = _pair("query q(x,y): E(x,y) & exists u . E(x,u)")
    ok, witness = logically_equivalent(p1, p2)
    assert ok
    assert _is_hom(witness.forward, p1.struct, p2.struct)
    assert _is_hom(witness.backward, p2.struct, p1.struct)
    assert all(witness.forward[v] == v for v in ("x", "y"))


def test_logical_equivalence_requires_same_liberal_set():
    p1 = _pair("query q(x,y): E(x,y)")
    p2 = _pair("query q(u,v): E(u,v)")
    with pytest.raises(SharpqError, match="liberal"):
        logically_equivalent(p1, p2)


def test_logical_equivalence_is_reflexive_and_symmetric(rng):
    for _ in range(20):
        p = random_pp_pair(rng, max_vars=5, max_atoms=4)
        ok, _ = logically_equivalent(p, p)
        assert ok
        q = random_pp_pair(rng, max_vars=5, max_atoms=4)
        if p.liberal_set == q.liberal_set and _compatible(p, q):
            assert logically_equivalent(p, q)[0] == logically_equivalent(q, p)[0]


# --- counting equivalence -----------------------------------------------------


def test_renamed_pairs_are_counting_equivalent():
    p1 = _pair("query q(x,y): E(x,y)")
    p2 = _pair("query q(u,v): E(v,u)")
    ok, witness = counting_equivalent(p1, p2)
    assert ok
    assert witness.kind == "counting"
    assert _is_hom(witness.forward, p1.struct, p2.struct)
    assert _is_hom(witness.backward, p2.struct, p1.struct)
    assert witness.forward["x"] == "v" and witness.forward["y"] == "u"


def test_loops_are_not_counting_equivalent_to_an_edge():
    p1 = _pair("query q(x,y): E(x,y)")
    p2 = _pair("query q(u,v): E(u,u) & E(v,v)")
    ok, witness = counting_equivalent(p1, p2)
    assert not ok and witness is None


def test_different_liberal_sizes_are_never_counting_equivalent():
    p1 = _pair("query q(x,y): E(x,y)")
    p2 = _pair("query q(x): E(x,x)")
    assert counting_equivalent(p1, p2) == (False, None)


def test_logical_implies_counting(rng):
    for _ in range(20):
        p = random_pp_pair(rng, max_vars=5, max_atoms=4)
        ok, _ = counting_equivalent(p, core_of(p))
        assert ok


def test_counting_equivalence_is_symmetric(rng):
    compared = 0
    for _ in range(80):
        p = random_pp_pair(rng, max_vars=4, max_atoms=3)
        q = random_pp_pair(rng, max_vars=4, max_atoms=3)
        if not _compatible(p, q):
            continue
        assert counting_equivalent(p, q)[0] == counting_equivalent(q, p)[0]
        compared += 1
    assert compared >= 10


def _over(p, sig):
    return PpPair(struct=make_structure(sig, p.struct.universe, p.struct.relations), liberal=p.liberal)


def test_equivalence_across_signatures_matches_the_union_signature(rng):
    # a symbol one structure lacks reads as empty: the verdicts and witnesses
    # are those of both structures rebuilt over the union signature
    compared = equivalent = logical = 0
    for _ in range(300):
        p = random_pp_pair(rng, max_vars=4, max_atoms=3)
        q = random_pp_pair(rng, max_vars=4, max_atoms=3)
        if p.struct.sig == q.struct.sig or not _compatible(p, q):
            continue
        union = merge_signatures(p.struct.sig, q.struct.sig)
        # p against its own core over the union: equivalent, with witnesses
        for a, b in ((p, q), (q, p), (p, _over(core_of(p), union))):
            a_u, b_u = _over(a, union), _over(b, union)
            got = counting_equivalent(a, b)
            assert got == counting_equivalent(a_u, b_u)
            equivalent += got[0]
            if a.liberal_set == b.liberal_set:
                got = logically_equivalent(a, b)
                assert got == logically_equivalent(a_u, b_u)
                logical += got[0]
            compared += 1
    assert compared >= 120 and equivalent >= 40 and logical >= 40


def _star(spokes):
    """A star of liberal spokes x_i -> h, spoke i in relation R_{spokes[i]}."""
    atoms = " & ".join(f"R{r}(x{i},h)" for i, r in enumerate(spokes))
    return _pair(f"query q({','.join(f'x{i}' for i in range(len(spokes)))}): exists h . {atoms}")


@pytest.mark.parametrize(
    "spokes, runs",
    [((4, 3, 2, 1, 0), 240), ((1, 0, 2, 3, 4), 50), ((0, 1, 2, 3, 4), 2), ((4, 3, 2, 1, 1), 120)],
)
def test_counting_equivalence_compiles_one_search_per_direction(monkeypatch, spokes, runs):
    # every liberal bijection of one direction runs the search compiled once
    # for the source and its liberal elements: with the spokes reversed the
    # last of the 5! bijections is the one each way
    p1, p2 = _star((0, 1, 2, 3, 4)), _star(spokes)
    searches, compiles = _spy_on_searches(monkeypatch)
    ok, witness = counting_equivalent(p1, p2)
    assert ok == (len(set(spokes)) == 5)
    assert len(compiles) == (2 if ok else 1) and len(searches) == runs
    assert all(set(pinned) == {f"x{i}" for i in range(5)} for _, pinned in compiles)
    if ok:
        fwd, bwd = witness.forward, witness.backward
        assert _is_hom(fwd, p1.struct, p2.struct) and _is_hom(bwd, p2.struct, p1.struct)
        assert sorted(fwd[x] for x in p1.liberal) == sorted(p2.liberal)
        assert fwd == {**{f"x{i}": f"x{spokes.index(i)}" for i in range(5)}, "h": "h"}


def test_counting_equivalence_bijection_cap():
    sig = Signature((("E", 2),))
    elems = [f"e{i}" for i in range(10)]
    big = make_structure(sig, elems, {"E": set()})
    p = PpPair(struct=big, liberal=tuple(elems))
    with pytest.raises(CapExceeded, match="bijection"):
        counting_equivalent(p, p)


# --- alignment ----------------------------------------------------------------


def test_align_renames_source_onto_target():
    target = _pair("query q(x,y): E(x,y)")
    source = _pair("query q(u,v): E(v,u)")
    aligned = align_via_renaming(target, source)
    assert aligned.liberal_set == target.liberal_set
    ok, _ = logically_equivalent(target, aligned)
    assert ok


def test_align_rejects_inequivalent_pairs():
    target = _pair("query q(x,y): E(x,y)")
    source = _pair("query q(u,v): E(u,u) & E(v,v)")
    with pytest.raises(SharpqError, match="counting"):
        align_via_renaming(target, source)


def test_align_preserves_qaw(rng):
    for _ in range(15):
        target = random_pp_pair(rng, max_vars=5, max_atoms=4)
        renaming = {e: f"n_{i}" for i, e in enumerate(target.struct.universe)}
        source = PpPair(
            struct=make_structure(
                target.struct.sig,
                [renaming[e] for e in target.struct.universe],
                {
                    name: [tuple(renaming[x] for x in t) for t in target.struct.tuples(name)]
                    for name in target.struct.sig.names()
                },
            ),
            liberal=tuple(renaming[e] for e in target.liberal),
        )
        aligned = align_via_renaming(target, source)
        assert aligned.liberal_set == target.liberal_set
        assert compute_qaw(aligned)[0] == compute_qaw(source)[0] == compute_qaw(target)[0]


def test_align_avoids_name_collisions():
    # source's quantified variable is literally named like target's liberal one
    target = _pair("query q(x,y): E(x,y) & exists u . E(y,u)")
    source = _pair("query q(a,b): E(a,b) & exists x . E(b,x)")
    aligned = align_via_renaming(target, source)
    assert len(set(aligned.struct.universe)) == 3
    assert aligned.liberal_set == {"x", "y"}
    ok, _ = logically_equivalent(target, aligned)
    assert ok


# --- the two-way search against the two hand-written searches it replaced ----


def _reference_logically_equivalent(p1, p2):
    if p1.liberal_set != p2.liberal_set:
        raise SharpqError(
            "logical equivalence needs identical liberal sets; "
            f"got {sorted(p1.liberal_set)} and {sorted(p2.liberal_set)}"
        )
    a, b = p1.struct, p2.struct
    merge_signatures(a.sig, b.sig)
    pin = {e: e for e in p1.liberal}
    fwd = homomorphism_search(a, pin)(b, pin)
    if fwd is None:
        return False, None
    bwd = homomorphism_search(b, pin)(a, pin)
    if bwd is None:
        return False, None
    return True, equiv.EquivalenceWitness(kind="logical", forward=fwd, backward=bwd)


def _reference_directed_witness(src, dst, src_lib_sorted, dst_lib_sorted):
    find = homomorphism_search(src, src_lib_sorted)
    for perm in itertools.permutations(dst_lib_sorted):
        hom = find(dst, dict(zip(src_lib_sorted, perm)))
        if hom is not None:
            return hom
    return None


def _reference_counting_equivalent(p1, p2):
    s1, s2 = p1.liberal_set, p2.liberal_set
    if len(s1) != len(s2):
        return False, None
    a, b = p1.struct, p2.struct
    merge_signatures(a.sig, b.sig)
    fwd = _reference_directed_witness(a, b, sorted(s1), sorted(s2))
    if fwd is None:
        return False, None
    bwd = _reference_directed_witness(b, a, sorted(s2), sorted(s1))
    if bwd is None:
        return False, None
    return True, equiv.EquivalenceWitness(kind="counting", forward=fwd, backward=bwd)


def _outcome(fn, p, q):
    try:
        return fn(p, q)
    except SharpqError as exc:
        return type(exc), str(exc)


def _couples(rng, n):
    """n pair couples: random ones, each pair against its core, and each
    against a copy with its liberal elements renamed among themselves."""
    for i in range(n):
        p = random_pp_pair(rng, max_vars=5, max_atoms=4)
        if i % 3 == 0:
            q = random_pp_pair(rng, max_vars=5, max_atoms=4)
        elif i % 3 == 1:
            q = core_of(p)
        else:
            perm = dict(zip(p.liberal, rng.sample(p.liberal, len(p.liberal))))
            rel = {s: {tuple(perm.get(e, e) for e in t) for t in ts} for s, ts in p.struct.relations.items()}
            q = PpPair(struct=make_structure(p.struct.sig, p.struct.universe, rel), liberal=p.liberal)
        yield p, q


def test_both_ways_agrees_with_the_searches_it_replaced(rng):
    seen = {"logical": [0, 0], "counting": [0, 0]}
    couples = 0
    for p, q in _couples(rng, 420):
        if not _compatible(p, q):
            continue
        couples += 1
        for kind, fn, ref in (
            ("logical", logically_equivalent, _reference_logically_equivalent),
            ("counting", counting_equivalent, _reference_counting_equivalent),
        ):
            got = _outcome(fn, p, q)
            assert got == _outcome(ref, p, q)
            if got[0] is True:
                witness = got[1]
                assert witness.kind == kind
                assert _is_hom(witness.forward, p.struct, q.struct)
                assert _is_hom(witness.backward, q.struct, p.struct)
                images = sorted(witness.forward[e] for e in p.liberal)
                assert images == sorted(q.liberal)
                if kind == "logical":
                    assert all(witness.forward[e] == e for e in p.liberal)
            seen[kind][got[0] is True] += 1
    assert couples >= 300
    assert min(seen["logical"] + seen["counting"]) >= 20, seen
