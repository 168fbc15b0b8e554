"""Query graph over a concept class, with exact edge weights.

The directed edge weight d(A, B) is the expected dimension drop when a
learner queries hypothesis A, the hidden target is B, and a teacher
draws the counterexample point from mu conditioned on the symmetric
difference of A and B. Each counterexample at point a carries the
target's label, so the term for a is the drop of the restriction to
a = B(a), weighted by mu(a) within the difference.

Two exact facts drive query selection:

* for distinct A and B, d(A, B) + d(B, A) >= 1, hence
* the concept maximizing the minimum outgoing weight has query rank
  at least 1/2.

Querying that maximizer therefore costs the adversary at least half a
dimension level per counterexample in expectation, which is what bounds
the learner's expected counterexample count by twice the dimension.

:class:`QueryGraph` works on subclasses of a root class, encoded as index
bitmasks shared with :class:`~thicket.littlestone.LdimCache`, and exposes
the max-min query choice with lowest-index tie-breaking. It scales mu
exactly to integers once, computes weights lazily in integer arithmetic
and returns them as Fractions. It memoizes the difference points and
their mass per concept pair and the chosen query per subclass, but no
weight: within one subclass the per-point dimension drops are shared
across all edges instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .concepts import Concept, ConceptClass
from .littlestone import LdimCache

__all__ = [
    "QueryGraph",
    "edge_weight",
    "find_deficient_cycle",
    "max_min_query",
    "query_rank",
]

_HALF = Fraction(1, 2)


class QueryGraph:
    """Lazy edge-weight and query-selection engine for one root class.

    All methods take a subclass bitmask (see LdimCache) so the learner
    can keep using one engine while it restricts the class; the module
    level functions below wrap the common whole-class case.

    Weights are computed in integers. With L the least common multiple
    of the mu denominators, each point carries the integer mass
    m_p = mu(p) * L, and d(A, B) = N / D for

        N = sum over p in diff(A, B) of m_p * (ldim(C) - ldim(C at p = B(p)))
        D = sum over p in diff(A, B) of m_p

    (L cancels). D depends only on the pair and is cached with its
    difference points; N is rebuilt per subclass from per-point gains.
    Query selection compares (N, D) pairs by cross-multiplication, so a
    Fraction is built only when a weight or rank leaves the class.
    """

    def __init__(self, root: ConceptClass, cache: LdimCache | None = None) -> None:
        if cache is not None and cache.root != root:
            raise ValueError("cache was built for a different root class")
        self.root = root
        self.cache = cache if cache is not None else LdimCache(root)
        mu = [Fraction(w) for w in root.domain.mu]
        scale = math.lcm(*(w.denominator for w in mu))
        self._mass = [w.numerator * (scale // w.denominator) for w in mu]
        # gain slot 2p + v: a counterexample at point p labeled v
        self._slot_masks = [
            self.cache.level_mask(p, v) for p in range(len(mu)) for v in (0, 1)
        ]
        # per unordered pair: difference points and their integer mass D
        self._diffs: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
        self._best: dict[int, int] = {}

    def _pair(self, i: int, j: int) -> tuple[tuple[int, ...], int]:
        key = (i, j) if i < j else (j, i)
        hit = self._diffs.get(key)
        if hit is None:
            a = self.root.concepts[key[0]].bits
            b = self.root.concepts[key[1]].bits
            points = tuple(p for p in range(len(a)) if a[p] != b[p])
            hit = (points, sum(self._mass[p] for p in points))
            self._diffs[key] = hit
        return hit

    def diff_points(self, i: int, j: int) -> tuple[int, ...]:
        """Point indices where concepts i and j disagree (order-insensitive)."""
        return self._pair(i, j)[0]

    def _lightest(
        self,
        mask: int,
        i: int,
        targets: int,
        gains: list[int | None],
        floor: tuple[int, int] | None = None,
    ) -> tuple[int, int]:
        """Lightest edge from concepts[i] to a concept in `targets`,
        within the subclass `mask`, as (N, D) scanned in index order.

        (1, 0) stands for +inf when no target is left. `gains` holds the
        subclass's numerator terms by slot, filled on first use. Once
        the running minimum is at or below `floor` the scan stops and
        returns it: such a concept cannot beat the incumbent.
        """
        cache = self.cache
        here = cache.ldim_mask(mask)
        mass, slot_masks, concepts = self._mass, self._slot_masks, self.root.concepts
        best_n, best_d = 1, 0
        rest = targets & ~(1 << i)
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            points, den = self._pair(i, j)
            target = concepts[j].bits
            num = 0
            for p in points:
                s = 2 * p + target[p]
                g = gains[s]
                if g is None:
                    g = gains[s] = mass[p] * (here - cache.ldim_mask(mask & slot_masks[s]))
                num += g
            if num * best_d < best_n * den:
                best_n, best_d = num, den
                if floor is not None and num * floor[1] <= floor[0] * den:
                    break
        return best_n, best_d

    def _gains(self) -> list[int | None]:
        return [None] * len(self._slot_masks)

    def weight(self, mask: int, i: int, j: int) -> Fraction:
        """d(concepts[i], concepts[j]) within the subclass `mask`."""
        if i == j:
            raise ValueError("edge weight is undefined for identical concepts")
        num, den = self._lightest(mask, i, 1 << j, self._gains())
        return Fraction(num, den)

    def rank(self, mask: int, i: int) -> Fraction | float:
        """Minimum outgoing weight of concepts[i]; +inf when it is alone."""
        num, den = self._lightest(mask, i, mask, self._gains())
        return Fraction(num, den) if den else math.inf

    def best_query(self, mask: int) -> int:
        """Index of the max-min query in the subclass, lowest index on ties."""
        if mask == 0:
            raise ValueError("no query exists for the empty class")
        hit = self._best.get(mask)
        if hit is not None:
            return hit
        gains = self._gains()
        best_i = -1
        floor: tuple[int, int] | None = None
        todo = mask
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            num, den = self._lightest(mask, i, mask, gains, floor)
            # a scan cut short ends at or below the incumbent; ties keep it
            if floor is None or num * floor[1] > floor[0] * den:
                best_i, floor = i, (num, den)
        self._best[mask] = best_i
        return best_i


def _whole(concept_class: ConceptClass, graph: QueryGraph | None) -> tuple[QueryGraph, int]:
    if graph is None:
        graph = QueryGraph(concept_class)
        return graph, graph.cache.full_mask
    return graph, graph.cache.mask_of(concept_class)


def edge_weight(
    concept_class: ConceptClass,
    a: Concept,
    b: Concept,
    graph: QueryGraph | None = None,
) -> Fraction:
    """Exact d(a, b) in the given class. Requires a != b, both members."""
    graph, mask = _whole(concept_class, graph)
    return graph.weight(mask, graph.root.index_of(a), graph.root.index_of(b))


def query_rank(
    concept_class: ConceptClass,
    a: Concept,
    graph: QueryGraph | None = None,
) -> Fraction | float:
    """Minimum weight over edges leaving `a`; +inf in a singleton class."""
    graph, mask = _whole(concept_class, graph)
    return graph.rank(mask, graph.root.index_of(a))


def max_min_query(
    concept_class: ConceptClass,
    graph: QueryGraph | None = None,
) -> Concept:
    """The concept with maximal query rank, lowest class index on ties."""
    graph, mask = _whole(concept_class, graph)
    return graph.root.concepts[graph.best_query(mask)]


def find_deficient_cycle(
    concept_class: ConceptClass,
    max_len: int = 5,
    graph: QueryGraph | None = None,
) -> tuple[Concept, ...] | None:
    """Search for a directed cycle whose edges all weigh at most 1/2,
    at least one strictly below.

    Such a cycle would let an adversary rotate the target forever while
    the class dimension drops by less than one per two queries, so none
    can exist; the search is the falsifiable check of that claim. Simple
    cycles up to `max_len` vertices are enumerated, each started from its
    smallest vertex. Returns the cycle's concepts in order, or None.
    """
    if max_len < 2:
        raise ValueError("a cycle needs at least 2 vertices")
    graph, mask = _whole(concept_class, graph)
    indices = [i for i in range(len(graph.root.concepts)) if mask >> i & 1]
    light: dict[int, list[int]] = {i: [] for i in indices}
    strict: set[tuple[int, int]] = set()
    for i in indices:
        for j in indices:
            if i == j:
                continue
            w = graph.weight(mask, i, j)
            if w <= _HALF:
                light[i].append(j)
                if w < _HALF:
                    strict.add((i, j))

    def walk(start: int, here: int, seen: set[int], path: list[int], any_strict: bool):
        for nxt in light[here]:
            if nxt == start and len(path) >= 2:
                if any_strict or (here, start) in strict:
                    return path
            elif nxt > start and nxt not in seen and len(path) < max_len:
                found = walk(
                    start, nxt, seen | {nxt}, path + [nxt],
                    any_strict or (here, nxt) in strict,
                )
                if found:
                    return found
        return None

    for start in indices:
        cycle = walk(start, start, {start}, [start], False)
        if cycle:
            return tuple(graph.root.concepts[i] for i in cycle)
    return None
