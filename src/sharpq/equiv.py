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
from .relstore import Record, homomorphism_search, make_structure, merge_signatures
from .epquery import PpPair

# core_of's default cap, the most elements a core search takes; the compile
# stages' defaults and count_sentence's skip of larger pairs read it too
CORE_CAP = 12


class EquivalenceWitness(Record):
    """Verifiable evidence: forward/backward are full homomorphisms (element
    maps between the two structures); kind is "logical" or "counting"."""

    __slots__ = _fields = ("kind", "forward", "backward")


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


def core_of(p, cap=CORE_CAP):
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
            return PpPair(target, p.liberal)
    raise InternalInvariant("core search found no image of the core's size")


# ---------------------------------------------------------------------------
# Logical and counting equivalence
# ---------------------------------------------------------------------------


def _both_ways(kind, p1, p2, images):
    """(True, witness) iff each pair maps into the other by a homomorphism
    that sends the source's sorted liberal tuple to one of `images` of the
    target's, tried in turn with one compiled search per direction."""
    merge_signatures(p1.struct.sig, p2.struct.sig)  # a symbol with two arities is an error
    maps = []
    for src, dst in ((p1, p2), (p2, p1)):
        lib = sorted(src.liberal)
        find = homomorphism_search(src.struct, lib)  # one search for every image
        for image in images(sorted(dst.liberal)):
            hom = find(dst.struct, dict(zip(lib, image)))
            if hom is not None:
                maps.append(hom)
                break
        else:
            return False, None
    return True, EquivalenceWitness(kind, *maps)


def logically_equivalent(p1, p2):
    """(True, witness) iff homomorphisms exist both ways fixing the liberal
    elements pointwise. The two pairs must have the same liberal set."""
    if p1.liberal_set != p2.liberal_set:
        raise SharpqError(
            "logical equivalence needs identical liberal sets; "
            f"got {sorted(p1.liberal_set)} and {sorted(p2.liberal_set)}"
        )
    return _both_ways("logical", p1, p2, lambda lib: [lib])


def counting_equivalent(p1, p2, cap=10**6):
    """(True, witness) iff homomorphisms exist both ways restricting to
    bijections between the liberal sets. Liberal sets of different sizes are
    never counting equivalent."""
    n = len(p1.liberal)
    if n != len(p2.liberal):
        return False, None
    if math.factorial(n) > cap:
        raise CapExceeded(
            f"counting equivalence tries up to {n}! liberal bijections, "
            f"exceeding the cap of {cap}"
        )
    return _both_ways("counting", p1, p2, itertools.permutations)
