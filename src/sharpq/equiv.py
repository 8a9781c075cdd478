"""Equivalence of pairs: cores, logical and counting equivalence.

Two pairs with the same liberal elements are logically equivalent iff
homomorphisms exist in both directions fixing the liberal elements pointwise.
They are counting equivalent iff homomorphisms exist in both directions whose
restrictions to the liberal elements are bijections; equivalently, one can be
renamed by such a bijection to become logically equivalent to the other.
"""

from __future__ import annotations

import itertools
import math

from .errors import CapExceeded, InternalInvariant, SharpqError
from .relstore import Record, _set, homomorphism_search, make_structure, merge_signatures
from .epquery import PpPair


class EquivalenceWitness(Record):
    """Verifiable evidence: forward/backward are full homomorphisms (element
    maps between the two structures); kind is "logical" or "counting"."""

    __slots__ = _fields = ("kind", "forward", "backward")

    def __init__(self, kind, forward, backward):
        _set(self, "kind", kind)
        _set(self, "forward", forward)
        _set(self, "backward", backward)


# ---------------------------------------------------------------------------
# Induced substructures
# ---------------------------------------------------------------------------


def _induced(struct, keep):
    keep = set(keep)
    universe = [e for e in struct.universe if e in keep]
    relations = {
        name: [t for t in facts if set(t) <= keep] for name, facts in struct.relations.items()
    }
    return make_structure(struct.sig, universe, relations)


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------


def check_core_cap(p, cap):
    """Raise the CapExceeded core_of(p, cap) raises, without searching."""
    n = len(p.struct.universe)
    if n > cap:
        raise CapExceeded(f"core search limited to {cap} elements, got {n}")


def core_of(p, cap=12):
    """Smallest induced substructure the pair retracts onto fixing its
    liberal elements, with the lexicographically least image (in universe
    order) among minimum-size images. Idempotent; preserves the liberal tuple.

    The core is found by retraction: each quantified element is tried once,
    and the current substructure shrinks to the image of a homomorphism into
    itself minus that element, liberal elements fixed, when there is one. An
    element that cannot go now cannot go later either, since every later
    substructure is a retract of the current one; so one pass ends at a core
    after at most one search per quantified element. The images of the
    core's size are then tried in itertools.combinations order.
    """
    check_core_cap(p, cap)
    universe = p.struct.universe
    lib = p.liberal_set
    pin = {e: e for e in universe if e in lib}
    core = p.struct
    find = homomorphism_search(core, pin)  # compiled once per core
    for e in universe:
        if e in lib or e not in core.universe or len(core.universe) == 1:
            continue
        h = find(_induced(core, set(core.universe) - {e}), pin)
        if h is not None:
            core = _induced(core, h.values())
            find = homomorphism_search(core, pin)
    for image in itertools.combinations(universe, len(core.universe)):
        if not lib <= set(image):
            continue
        target = _induced(p.struct, image)
        if find(target, pin) is not None:
            return PpPair(struct=target, liberal=p.liberal)
    raise InternalInvariant("core search found no image of the core's size")


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
    a, b = p1.struct, p2.struct
    merge_signatures(a.sig, b.sig)  # a symbol with two arities is an error
    pin = {e: e for e in p1.liberal}
    fwd = homomorphism_search(a, pin)(b, pin)
    if fwd is None:
        return False, None
    bwd = homomorphism_search(b, pin)(a, pin)
    if bwd is None:
        return False, None
    return True, EquivalenceWitness(kind="logical", forward=fwd, backward=bwd)


def _directed_witness(src, dst, src_lib_sorted, dst_lib_sorted):
    find = homomorphism_search(src, src_lib_sorted)  # one search for every bijection
    for perm in itertools.permutations(dst_lib_sorted):
        hom = find(dst, dict(zip(src_lib_sorted, perm)))
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
    a, b = p1.struct, p2.struct
    merge_signatures(a.sig, b.sig)  # a symbol with two arities is an error
    fwd = _directed_witness(a, b, sorted(s1), sorted(s2))
    if fwd is None:
        return False, None
    bwd = _directed_witness(b, a, sorted(s2), sorted(s1))
    if bwd is None:
        return False, None
    return True, EquivalenceWitness(kind="counting", forward=fwd, backward=bwd)
