"""Littlestone dimension and derived quantities, exactly and memoized.

The dimension of a finite class equals the depth of the deepest complete
binary mistake tree the class shatters. It is computed here through the
equivalent restriction recursion

    ldim(empty)     = -1
    ldim(singleton) = 0
    ldim(C)         = max over splitting points x of
                      1 + min(ldim(C restricted to x=0), ldim(C restricted to x=1))

read as decisions "ldim(C) >= k". Concepts are distinct, so a class of
two or three concepts has dimension 1 and classes of fewer than four are
answered from their size, with no memo entry. A tree of depth k has 2^k
distinct leaves, so ldim(C) <= floor(log2 |C|); the value is the largest
k from that cap downwards whose decision holds. ldim(C) >= k holds when
some point splits C into two sides that each hold at least 2^(k-1)
concepts and each have ldim >= k - 1; k = 2 is one scan for a point with
two concepts on each side. Proven decisions are memoized per mask beside
the exact values. Each nested decision lowers k by one, so the recursion
is at most floor(log2 |C|) frames deep however many points the class has.

Subclasses of one root class are encoded as bitmasks over the root's
concept indices, so the same cache serves every caller that works on
restrictions of that root: the query graph, the learner's expectation
recursion, and the compression scheme all share one :class:`LdimCache`,
and read each root concept's labels from it as one point-bits int.

Each subclass has one drop table, built over the points that split it
(`LdimCache.splits`): per split point, the members labeled 0 there and
the dimension lost by restricting to label 0 and to label 1. At any
other point one side is the subclass and the other is empty, losing
ldim + 1 since ``ldim_mask(0) == -1``, so `drop` and `verify`'s
per-point sums read every point as ``ldim(C) - ldim(C at a = v)``. The
query graph prices its edges by the split table. The keep table,
memoized per mask as point bitmasks ``(keep0, keep1)``, marks its zeros
from one decision ``ldim(side) >= ldim(C)`` per side, not the side's
value; where the members agree, their common label keeps. A labeled
sample with points ``subset`` and label bits ``key`` drops the dimension
exactly at ``subset & ~(keep1 & key | keep0 & ~key)``, which is how
exceptional samples, canonical partial labelings and the compression
greedy are read.
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
        #: point_bits[i] = labels of root.concepts[i], bit p at point index p
        self.point_bits = rows = list(root.point_bits)
        self.full_mask = (1 << len(rows)) - 1
        # _level_masks[p][v] = concepts taking value v at point index p: the
        # rows as bit strings, last concept first, read column by column
        n = len(root.domain)
        texts = [format(row, f"0{n}b") for row in reversed(rows)]
        columns = [int("".join(column), 2) for column in zip(*texts)] if rows else [0] * n
        self._level_masks = [(self.full_mask ^ ones, ones) for ones in reversed(columns)]
        self._memo: dict[int, int] = {}
        # decisions proven per mask: lo <= ldim < hi for the pair (lo, hi)
        self._proven: dict[int, tuple[int, int]] = {}
        self._keeps: dict[int, tuple[int, int]] = {}

    def mask_of(self, concept_class: ConceptClass) -> int:
        """Encode a subclass of the root as a bitmask."""
        if concept_class is self.root:
            return self.full_mask
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

    def splits(self, mask: int) -> list[tuple[int, int, int, int]]:
        """The drop table at the points that split the subclass, in order:
        ``(p, zeros, drop0, drop1)``, for ``zeros`` its members labeled 0
        at point p and ``drop0``, ``drop1`` the dimension it loses when
        restricted to label 0 (resp. 1) there."""
        ldim = self.ldim_mask
        d = ldim(mask)
        table = []
        for p, (zeros, _) in enumerate(self._level_masks):
            zeros &= mask
            if zeros and zeros != mask:
                table.append((p, zeros, d - ldim(zeros), d - ldim(mask ^ zeros)))
        return table

    def keeps(self, mask: int) -> tuple[int, int]:
        """Point bitmasks ``(keep0, keep1)`` of a nonempty subclass: the
        points where restricting it to label 0 (resp. 1) drops nothing.

        A side keeps the dimension d when ldim(side) >= d, so each side is
        one decision, not an exact value. At most one label keeps the
        dimension at a point, so the two masks are disjoint. Memoized per
        mask.
        """
        if not mask:
            raise ValueError("the empty class has no keep table")
        hit = self._keeps.get(mask)
        if hit is not None:
            return hit
        d = self.ldim_mask(mask)

        def kept(side: int) -> bool:
            # 2**d members and, for d >= 2, a mistake tree of depth d
            return side.bit_count() >= 1 << d and (d < 2 or self._at_least(side, d))

        split = keep0 = keep1 = 0
        for p, (zeros, _) in enumerate(self._level_masks):
            zeros &= mask
            if zeros and zeros != mask:
                split |= 1 << p
                if kept(mask ^ zeros):
                    if kept(zeros):
                        raise AssertionError("both labels keep the dimension; ldim is inconsistent")
                    keep1 |= 1 << p
                elif kept(zeros):
                    keep0 |= 1 << p
        # elsewhere the members' common label keeps everything
        labels = self.point_bits[mask.bit_length() - 1] & ~split
        keep0 |= (1 << len(self._level_masks)) - 1 & ~split & ~labels
        self._keeps[mask] = hit = keep0, keep1 | labels
        return hit

    def ldim_mask(self, mask: int) -> int:
        count = mask.bit_count()
        if count < 4:
            # concepts are distinct, so two or three of them split at some
            # point, and three are too few for a tree of depth 2
            return count.bit_length() - 1
        hit = self._memo.get(mask)
        if hit is None:
            # four or more concepts have dimension at least 1
            hit = count.bit_length() - 1
            while hit > 1 and not self._at_least(mask, hit):
                hit -= 1
            self._memo[mask] = hit
        return hit

    def _at_least(self, mask: int, k: int) -> bool:
        """The decision ldim >= k, for 2 <= k <= floor(log2 |mask|); each
        split decides its smaller side first."""
        count = mask.bit_count()
        if k == 2:
            # both sides of some split hold at least 2 concepts
            for zeros, _ in self._level_masks:
                if 2 <= (mask & zeros).bit_count() <= count - 2:
                    return True
            return False
        lo, hi = self._proven.get(mask) or (1, count.bit_length())
        if k <= lo or k >= hi:
            return k <= lo
        need = 1 << (k - 1)
        for zeros, _ in self._level_masks:
            small = mask & zeros
            size = small.bit_count()
            if size < need or count - size < need:
                continue
            if 2 * size > count:
                small = mask ^ small
            if self._at_least(small, k - 1) and self._at_least(mask ^ small, k - 1):
                self._proven[mask] = (k, hi)
                return True
        self._proven[mask] = (lo, k)
        return False


def _cache_for(concept_class: ConceptClass, cache: LdimCache | None) -> tuple[LdimCache, int]:
    cache = cache or LdimCache(concept_class)
    return cache, cache.mask_of(concept_class)


def ldim(concept_class: ConceptClass, cache: LdimCache | None = None) -> int:
    """Littlestone dimension; -1 for the empty class, 0 for singletons.

    Pass a cache built on a root class to share memoized results across
    that root's restrictions.
    """
    cache, mask = _cache_for(concept_class, cache)
    return cache.ldim_mask(mask)


def drop(concept_class: ConceptClass, concept: Concept, point: str) -> int:
    """Dimension lost by restricting to the concept's label at `point`.

    drop(C, A, a) = ldim(C) - ldim(C restricted to a = A(a)). Nonnegative,
    and at most ldim(C) + 1 (the restriction can be empty).
    """
    cache = LdimCache(concept_class)
    side = cache.level_mask(concept_class.domain.index(point), concept.value(point))
    return cache.ldim_mask(cache.full_mask) - cache.ldim_mask(side)


def is_exceptional(concept_class: ConceptClass, sample: PartialAssignment) -> bool:
    """True when every labeled restriction of `sample` keeps the dimension.

    The empty sample is vacuously exceptional. Requires a nonempty class.
    """
    if len(concept_class) == 0:
        raise ValueError("exceptionality is undefined for the empty class")
    cache = LdimCache(concept_class)
    subset = key = 0
    for point, label in sample.items():
        if label not in (0, 1):
            raise ValueError(f"sample labels must be 0 or 1, got {label!r}")
        p = concept_class.domain.index(point)
        subset |= 1 << p
        key |= label << p
    keep0, keep1 = cache.keeps(cache.full_mask)
    return subset & ~(keep1 & key | keep0 & ~key) == 0


def canonical_partial(concept_class: ConceptClass) -> dict[str, int]:
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
    cache = LdimCache(concept_class)
    keep0, keep1 = cache.keeps(cache.full_mask)
    points = concept_class.domain.points
    return {x: keep1 >> p & 1 for p, x in enumerate(points) if (keep0 | keep1) >> p & 1}
