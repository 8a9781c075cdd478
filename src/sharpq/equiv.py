"""Equivalence of pairs: cores, logical and counting equivalence, alignment.

Two pairs with the same liberal elements are logically equivalent iff
homomorphisms exist in both directions fixing the liberal elements pointwise.
They are counting equivalent iff homomorphisms exist in both directions whose
restrictions to the liberal elements are bijections; equivalently, one can be
renamed by such a bijection to become logically equivalent to the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded, InternalInvariant, SharpqError
from .relstore import Signature, make_structure, search_homomorphisms
from .epquery import PpPair, primal_graph


@dataclass(frozen=True)
class EquivalenceWitness:
    """Verifiable evidence: forward/backward are full homomorphisms (element
    maps between the two structures); kind is "logical" or "counting"."""

    kind: str
    forward: dict
    backward: dict


# ---------------------------------------------------------------------------
# Homomorphism search (first witness only)
# ---------------------------------------------------------------------------


def _unify_signatures(a, b):
    """Rebuild both structures over the union signature (missing = empty)."""
    if a.sig == b.sig:
        return a, b
    arities = {}
    for sig in (a.sig, b.sig):
        for name, arity in sig.symbols:
            if arities.setdefault(name, arity) != arity:
                raise SharpqError(
                    f"relation {name} has conflicting arities {arities[name]} and {arity}"
                )
    union = Signature(tuple(sorted(arities.items())))
    return (
        make_structure(union, a.universe, a.relations),
        make_structure(union, b.universe, b.relations),
    )


def _find_hom(src, dst, pin):
    """First homomorphism src -> dst extending pin, or None. Deterministic."""
    found = search_homomorphisms(src, dst, pin, first=True)
    return found[0] if found else None


def _induced(struct, keep):
    keep = set(keep)
    universe = [e for e in struct.universe if e in keep]
    relations = {
        name: [t for t in struct.tuples(name) if set(t) <= keep]
        for name in struct.sig.names()
    }
    return make_structure(struct.sig, universe, relations)


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------


def core_of(p, cap=12):
    """Smallest induced substructure the pair retracts onto fixing its
    liberal elements, with the lexicographically least image (in universe
    order) among minimum-size images. Idempotent; preserves the liberal tuple.
    """
    universe = p.struct.universe
    n = len(universe)
    if n > cap:
        raise CapExceeded(f"core search limited to {cap} elements, got {n}")
    lib = p.liberal_set
    lib_positions = {i for i, e in enumerate(universe) if e in lib}
    pin = {e: e for e in universe if e in lib}
    for k in range(max(1, len(lib)), n + 1):
        for positions in itertools.combinations(range(n), k):
            if not lib_positions <= set(positions):
                continue
            image = [universe[i] for i in positions]
            target = _induced(p.struct, image)
            if _find_hom(p.struct, target, pin) is not None:
                return PpPair(struct=target, liberal=p.liberal)
    raise InternalInvariant("core search exhausted without finding the identity")


# ---------------------------------------------------------------------------
# Logical and counting equivalence
# ---------------------------------------------------------------------------


def logically_equivalent(p1, p2):
    """(True, witness) iff homomorphisms exist both ways fixing the liberal
    elements pointwise. The two pairs must have the same liberal set."""
    if p1.liberal_set != p2.liberal_set:
        raise SharpqError(
            "logical equivalence needs identical liberal sets; "
            f"got {sorted(p1.liberal_set)} and {sorted(p2.liberal_set)}"
        )
    a, b = _unify_signatures(p1.struct, p2.struct)
    pin = {e: e for e in p1.liberal}
    fwd = _find_hom(a, b, pin)
    if fwd is None:
        return False, None
    bwd = _find_hom(b, a, pin)
    if bwd is None:
        return False, None
    return True, EquivalenceWitness(kind="logical", forward=fwd, backward=bwd)


def _liberal_fact_image_ok(src, dst, lib, rho):
    """Necessary condition: facts entirely among liberal elements must map to
    facts under the bijection alone."""
    for name, tup in src.all_facts():
        if set(tup) <= lib and tuple(rho[e] for e in tup) not in dst.tuples(name):
            return False
    return True


def _directed_witness(src, dst, src_lib_sorted, dst_lib_sorted, src_lib):
    for perm in itertools.permutations(dst_lib_sorted):
        rho = dict(zip(src_lib_sorted, perm))
        if not _liberal_fact_image_ok(src, dst, src_lib, rho):
            continue
        hom = _find_hom(src, dst, rho)
        if hom is not None:
            return hom
    return None


def counting_equivalent(p1, p2, cap=10**6):
    """(True, witness) iff homomorphisms exist both ways restricting to
    bijections between the liberal sets. Liberal sets of different sizes are
    never counting equivalent."""
    s1, s2 = p1.liberal_set, p2.liberal_set
    if len(s1) != len(s2):
        return False, None
    if math.factorial(len(s1)) > cap:
        raise CapExceeded(
            f"counting equivalence tries up to {len(s1)}! liberal bijections, "
            f"exceeding the cap of {cap}"
        )
    a, b = _unify_signatures(p1.struct, p2.struct)
    fwd = _directed_witness(a, b, sorted(s1), sorted(s2), s1)
    if fwd is None:
        return False, None
    bwd = _directed_witness(b, a, sorted(s2), sorted(s1), s2)
    if bwd is None:
        return False, None
    return True, EquivalenceWitness(kind="counting", forward=fwd, backward=bwd)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def align_via_renaming(target, source):
    """Rename source's elements so its liberal set becomes target's (via a
    witnessing bijection) and the result is logically equivalent to target.

    The renaming is a bijection on source's universe, so the primal graph and
    every decomposition-derived quantity of source are preserved.
    """
    ok, witness = counting_equivalent(target, source)
    if not ok:
        raise SharpqError("pairs are not counting equivalent; cannot align")
    rho = {e: witness.backward[e] for e in source.liberal}
    taken = set(rho.values())
    renaming = dict(rho)
    for e in source.struct.universe:
        if e in renaming:
            continue
        candidate = e
        i = 0
        while candidate in taken:
            i += 1
            candidate = f"{e}${i}"
        renaming[e] = candidate
        taken.add(candidate)
    struct = make_structure(
        source.struct.sig,
        [renaming[e] for e in source.struct.universe],
        {
            name: [tuple(renaming[x] for x in t) for t in source.struct.tuples(name)]
            for name in source.struct.sig.names()
        },
    )
    aligned = PpPair(struct=struct, liberal=tuple(renaming[e] for e in source.liberal))
    ok, _ = logically_equivalent(target, aligned)
    if not ok:
        raise InternalInvariant("aligned pair failed the logical-equivalence check")
    if len(primal_graph(aligned).edges) != len(primal_graph(source).edges):
        raise InternalInvariant("alignment changed the primal graph")
    return aligned
