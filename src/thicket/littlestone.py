"""Littlestone dimension and derived quantities, exactly and memoized.

The dimension of a finite class equals the depth of the deepest complete
binary mistake tree the class shatters. It is computed here through the
equivalent restriction recursion

    ldim(empty)     = -1
    ldim(singleton) = 0
    ldim(C)         = max over splitting points x of
                      1 + min(ldim(C restricted to x=0), ldim(C restricted to x=1))

with memoization over subclasses and two prunings that never change a
value. The scan over splitting points stops once it reaches
floor(log2 |C|), the largest dimension |C| concepts can have. Each
split evaluates its side with fewer concepts first and skips the other
side when 1 + ldim(that side) cannot beat the best split so far, since
the minimum is at most either side. On a class of n singleton concepts
the second pruning keeps the memo to about n entries, where the plain
recursion visits about 2^n subclasses.

Subclasses of one root class are encoded as bitmasks over the root's
concept indices, so the same cache serves every caller that works on
restrictions of that root: the query graph, the learner's expectation
recursion, and the compression scheme all share one :class:`LdimCache`.
"""

from __future__ import annotations

from .concepts import Concept, ConceptClass, PartialAssignment

__all__ = [
    "LdimCache",
    "canonical_partial",
    "drop",
    "is_exceptional",
    "ldim",
]


class LdimCache:
    """Memoized dimension values for all subclasses of one root class.

    A subclass is the set of root concepts whose indices appear in a
    bitmask, bit i standing for ``root.concepts[i]``. Restriction then
    becomes a mask intersection, and structurally identical subclasses
    reached along different restriction paths share one memo entry.
    """

    def __init__(self, root: ConceptClass) -> None:
        self.root = root
        n = len(root.concepts)
        self.full_mask = (1 << n) - 1
        # _level_masks[p][v] = concepts taking value v at point index p
        self._level_masks: list[tuple[int, int]] = []
        for p in range(len(root.domain)):
            zeros = 0
            for i, c in enumerate(root.concepts):
                if c.bits[p] == 0:
                    zeros |= 1 << i
            self._level_masks.append((zeros, self.full_mask & ~zeros))
        self._memo: dict[int, int] = {}

    def mask_of(self, concept_class: ConceptClass) -> int:
        """Encode a subclass of the root as a bitmask."""
        if concept_class.domain != self.root.domain:
            raise ValueError("class is not over the cache's root domain")
        mask = 0
        for c in concept_class.concepts:
            mask |= 1 << self.root.index_of(c)
        return mask

    def level_mask(self, point_index: int, value: int) -> int:
        return self._level_masks[point_index][value]

    def restrict_mask(self, mask: int, point_index: int, value: int) -> int:
        return mask & self._level_masks[point_index][value]

    def ldim_mask(self, mask: int) -> int:
        count = mask.bit_count()
        if count == 0:
            return -1
        if count == 1:
            return 0
        hit = self._memo.get(mask)
        if hit is not None:
            return hit
        # A shattered tree of depth k has 2^k leaves realized by distinct
        # concepts, so ldim never exceeds floor(log2 |C|): prune there.
        upper = count.bit_length() - 1
        best = 0
        for zeros, ones in self._level_masks:
            small = mask & zeros
            if small == 0 or small == mask:
                continue
            large = mask & ones
            if large.bit_count() < small.bit_count():
                small, large = large, small
            # min(a, b) <= a: a smaller side that cannot beat best settles
            # the split without its larger, costlier side
            low = self.ldim_mask(small)
            if low < best:
                continue
            candidate = 1 + min(low, self.ldim_mask(large))
            if candidate > best:
                best = candidate
                if best == upper:
                    break
        self._memo[mask] = best
        return best


def _cache_for(concept_class: ConceptClass, cache: LdimCache | None) -> tuple[LdimCache, int]:
    if cache is None:
        cache = LdimCache(concept_class)
        return cache, cache.full_mask
    return cache, cache.mask_of(concept_class)


def ldim(concept_class: ConceptClass, cache: LdimCache | None = None) -> int:
    """Littlestone dimension; -1 for the empty class, 0 for singletons.

    Pass a cache built on a root class to share memoized results across
    that root's restrictions.
    """
    cache, mask = _cache_for(concept_class, cache)
    return cache.ldim_mask(mask)


def drop(
    concept_class: ConceptClass,
    concept: Concept,
    point: str,
    cache: LdimCache | None = None,
) -> int:
    """Dimension lost by restricting to the concept's label at `point`.

    drop(C, A, a) = ldim(C) - ldim(C restricted to a = A(a)). Nonnegative,
    and at most ldim(C) + 1 (the restriction can be empty).
    """
    cache, mask = _cache_for(concept_class, cache)
    p = concept_class.domain.index(point)
    sub = cache.restrict_mask(mask, p, concept.value(point))
    return cache.ldim_mask(mask) - cache.ldim_mask(sub)


def is_exceptional(
    concept_class: ConceptClass,
    sample: PartialAssignment,
    cache: LdimCache | None = None,
) -> bool:
    """True when every labeled restriction of `sample` keeps the dimension.

    The empty sample is vacuously exceptional. Requires a nonempty class.
    """
    if len(concept_class) == 0:
        raise ValueError("exceptionality is undefined for the empty class")
    cache, mask = _cache_for(concept_class, cache)
    d = cache.ldim_mask(mask)
    for point, label in sample.items():
        if label not in (0, 1):
            raise ValueError(f"sample labels must be 0 or 1, got {label!r}")
        p = concept_class.domain.index(point)
        if cache.ldim_mask(cache.restrict_mask(mask, p, label)) != d:
            return False
    return True


def canonical_partial(
    concept_class: ConceptClass,
    cache: LdimCache | None = None,
) -> dict[str, int]:
    """The class's canonical partial labeling, in domain point order.

    At each point the map takes the unique label whose restriction keeps
    the dimension, and is undefined (absent) when both labels drop it.
    At most one label can keep the dimension: if both did, splitting at
    the point would witness dimension ldim(C) + 1.

    Every exceptional sample of the class is extended by this map, which
    is what reconstruction decoders rely on.
    """
    if len(concept_class) == 0:
        raise ValueError("the empty class has no canonical partial labeling")
    cache, mask = _cache_for(concept_class, cache)
    d = cache.ldim_mask(mask)
    out: dict[str, int] = {}
    for p, point in enumerate(concept_class.domain.points):
        keeps0 = cache.ldim_mask(cache.restrict_mask(mask, p, 0)) == d
        keeps1 = cache.ldim_mask(cache.restrict_mask(mask, p, 1)) == d
        if keeps0 and keeps1:
            raise AssertionError("both labels keep the dimension; ldim is inconsistent")
        if keeps0:
            out[point] = 0
        elif keeps1:
            out[point] = 1
    return out
