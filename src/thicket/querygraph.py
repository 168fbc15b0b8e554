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
and returns them as Fractions. Each concept's outgoing edges within a
subclass are packed into one row of fixed-width integer lanes, built by
`_row` and searched for its rank by `_rank`; a class whose rows would
exceed `MAX_ROW_BITS` is refused before any is built. Query selection
visits the members in index order, pruning by the incumbent's column,
and answers a three-member subclass in closed form. The graph reads the
difference points of a concept pair off the XOR of the cache's point
bits, memoizes the chosen query per subclass, and keeps the last integer
edge table it built, which `verify`'s checks and
:func:`find_deficient_cycle` read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .concepts import ClassValidationError, Concept, ConceptClass
from .littlestone import LdimCache

__all__ = [
    "QueryGraph",
    "edge_weight",
    "find_deficient_cycle",
]

# The D rows hold |C| lanes of `width` bits per root concept: refuse a
# class whose rows would exceed this many bits (the 13-point cube takes
# about 0.87e9 of them, the 14-point cube about 3.5e9)
MAX_ROW_BITS = 2**30


class QueryGraph:
    """Lazy edge-weight and query-selection engine for one root class.

    All methods take a subclass bitmask (see LdimCache) so the learner
    can keep using one engine while it restricts the class;
    :func:`edge_weight` and :func:`find_deficient_cycle` below take a
    whole class.

    Weights are computed in integers. With L the least common multiple
    of the mu denominators, each point carries the integer mass
    m_p = mu(p) * L, and d(A, B) = N / D for

        N = sum over p in diff(A, B) of m_p * (ldim(C) - ldim(C at p = B(p)))
        D = sum over p in diff(A, B) of m_p

    (L cancels). Two members of a subclass disagree only at points that
    split it, so one concept's outgoing edges are sums over those points,
    and D does not depend on the subclass. The graph packs them into one
    row per concept: two big ints whose lane j, `width` bits wide from
    bit j * width, holds N and D of the edge to root concept j. The D
    row is built once per concept; the N row is a base per subclass plus
    one delta per split point where the concept takes the minority
    label, each a drop of the split table times a premultiplied spread
    m_p * s_v. Query selection tests a whole row against the incumbent's
    rank in one lane-wise comparison, and a Fraction is built only when
    a weight or rank leaves the class. The graph builds its root's
    LdimCache, `cache`, which callers that need one share.
    """

    def __init__(self, root: ConceptClass) -> None:
        mu = [Fraction(w) for w in root.domain.mu]
        scale = math.lcm(*(w.denominator for w in mu))
        # Every lane obeys N <= ldim * D and D <= L, an incumbent's (a, b)
        # too, lanes outside the subclass included (D of the concepts' full
        # disagreement), and no subclass has ldim above floor(log2 |root|):
        # products N * b and a * D stay below 2**(width - 1), so a lane of
        # N * b - a * D + bias lies in [0, 2**width) and never borrows.
        n = len(root)
        bound = (n.bit_length() - 1) * scale * scale
        self._width = width = bound.bit_length() + 1
        if n * n * width > MAX_ROW_BITS:
            raise ClassValidationError(
                f"{n * n * width} bits of query-graph rows ({n} concepts squared"
                f" times {width}-bit lanes) exceed {MAX_ROW_BITS}"
            )
        self.root = root
        self.cache = LdimCache(root)
        #: integer point masses m_p = mu(p) * L, shared with the learner's draws
        self.mass = [w.numerator * (scale // w.denominator) for w in mu]
        self._lane = (1 << width) - 1
        # _spread packs `chunk` bits of a mask per multiplication: the
        # magic's copies of a chunk, width - 1 bits apart, put bit t of the
        # chunk alone at bit t * width, where the lane mask keeps it
        chunk = max(1, min(width - 1, 16))
        self._chunk = (chunk, (1 << chunk) - 1, chunk * width)
        self._magic = sum(1 << t * (width - 1) for t in range(chunk))
        self._lanes = sum(1 << t * width for t in range(chunk))
        self._all = self._spread(self.cache.full_mask)
        # with bias 2**(width - 1) - 1, a lane's top bit is set iff N * b > a * D
        self._bias = (self._lane >> 1) * self._all
        # per point: its bit, and the lane spreads of the concepts labeled 0
        # and 1 there, times its mass
        self._points = []
        for p, m in enumerate(self.mass):
            s1 = self._spread(self.cache.level_mask(p, 1))
            self._points.append((1 << p, m * (self._all - s1), m * s1))
        # per concept: lane j holds D of its edge to concept j, the mass of
        # the points where they differ, whatever subclass holds both: the row
        # of the all-0 labeling plus, per chunk of points, a table's flips
        rows, chunk = self.cache.point_bits, max(1, n.bit_length() - 1)
        self._dens = [sum(ms1 for _, _, ms1 in self._points)] * n
        for p in range(0, len(mu), chunk):
            table = [0]
            for _, ms0, ms1 in self._points[p : p + chunk]:
                table += [t + ms0 - ms1 for t in table]
            self._dens = [d + table[r >> p & len(table) - 1] for d, r in zip(self._dens, rows)]
        self._best: dict[int, int] = {}
        self._edges: tuple[int, dict[tuple[int, int], tuple[int, int]]] = (-1, {})

    def diff_points(self, i: int, j: int) -> tuple[int, ...]:
        """Point indices where concepts i and j disagree, ascending
        (order-insensitive)."""
        return _points(self.cache.point_bits[i] ^ self.cache.point_bits[j])

    def _spread(self, mask: int) -> int:
        """Lane vector holding bit j of `mask` in lane j."""
        (chunk, low, step), magic, lanes = self._chunk, self._magic, self._lanes
        out = shift = 0
        while mask:
            out |= ((mask & low) * magic & lanes) << shift
            mask >>= chunk
            shift += step
        return out

    def _layout(self, mask: int) -> tuple[int, int, dict[int, int], int]:
        """N parts of the rows of the subclass: a base, the points whose
        majority label is 1, a delta per split point bit, and the lane
        vector F used to turn a row into a column.

        A concept labeled v at a split point p reaches the members labeled
        1 - v there, each edge gaining m_p times the drop of label 1 - v in
        the cache's split table. The base is the N row of a member that
        takes the majority label at every point (elsewhere all members
        agree); a member taking the minority label at split point p adds
        its delta. F sums both label terms over the split points, so its
        lane j is S_j = sum_p m_p * drop of label j(p), and the column of
        concept i is row_i + S_i * all - F: lane j sums m_p * drop of label
        i(p) over the split points p where j(p) != i(p), which is N of the
        edge (j, i), for every root concept j. A lane of F lies in
        [0, ldim * L] and one of the column in [0, ldim * D], within the
        bound `__init__` sizes lanes by; only the intermediate sum is
        negative, an exact int.
        """
        count = mask.bit_count()
        base = total = 0
        majority = self.cache.point_bits[mask.bit_length() - 1] if mask else 0
        deltas = {}
        for p, zeros, drop0, drop1 in self.cache.splits(mask):
            bit, ms0, ms1 = self._points[p]
            # rows of the members labeled 0 at p, then of those labeled 1
            from0, from1 = drop1 * ms1, drop0 * ms0
            total += from0 + from1
            if 2 * zeros.bit_count() < count:
                majority |= bit
                base += from1
                deltas[bit] = from0 - from1
            else:
                majority &= ~bit
                base += from0
                deltas[bit] = from1 - from0
        return base, majority, deltas, total

    def _row(self, layout: tuple[int, int, dict[int, int], int], i: int) -> tuple[int, int]:
        """Lane vectors (N, D) of concepts[i]'s edges, for a member of the
        subclass of `layout`. Lanes of concepts outside it hold bounded
        values no caller reads."""
        num, majority, deltas, _ = layout
        minority = self.cache.point_bits[i] ^ majority
        while minority:
            low = minority & -minority
            minority ^= low
            num += deltas[low]
        return num, self._dens[i]

    def edges(self, mask: int) -> dict[tuple[int, int], tuple[int, int]]:
        """Integer (N, D) of every ordered edge (i, j) of the subclass, in
        index order: lane j of concepts[i]'s row. The graph keeps the last
        table and shares it, so callers only read it."""
        if self._edges[0] != mask:
            members = [i for i in range(mask.bit_length()) if mask >> i & 1]
            layout, width, lane = self._layout(mask), self._width, self._lane
            table = {}
            for i in members:
                nums, dens = self._row(layout, i)
                for j in members:
                    if j != i:
                        table[i, j] = nums >> j * width & lane, dens >> j * width & lane
            self._edges = (mask, table)
        return self._edges[1]

    def weight(self, mask: int, i: int, j: int) -> Fraction:
        """d(concepts[i], concepts[j]) within the subclass `mask`, read off
        lane j of concepts[i]'s row; both must be members."""
        if i == j:
            raise ValueError("edge weight is undefined for identical concepts")
        if not mask >> i & mask >> j & 1:
            raise ValueError("concept is not a member of the subclass")
        nums, dens = self._row(self._layout(mask), i)
        shift = j * self._width
        return Fraction(nums >> shift & self._lane, dens >> shift & self._lane)

    def rank(self, mask: int, i: int) -> Fraction | float:
        """Minimum outgoing weight of member concepts[i], found by `_rank`
        on its row; +inf when it is alone."""
        if not mask >> i & 1:
            raise ValueError("concept is not a member of the subclass")
        others = self._spread(mask ^ 1 << i) << (self._width - 1)
        if not others:
            return math.inf
        return Fraction(*self._rank(*self._row(self._layout(mask), i), others, mask.bit_count()))

    def _rank(self, nums: int, dens: int, others: int, count: int) -> tuple[int, int]:
        """Integer (N, D) of the lightest lane of the row (nums, dens) among
        the lane top bits `others`, nonempty, of a subclass of `count`
        members.

        The search starts at the lowest lane of `others` and jumps to the
        lowest lane strictly below the current one, the lowest top bit of
        a * D - N * b + bias, until no lane is lighter. Each step moves to
        a strictly lighter lane, so it takes at most count - 1 of them; a
        search that runs past them raises AssertionError.
        """
        width, lane, bias = self._width, self._lane, self._bias
        below = others & -others
        for _ in range(count):
            if not below:
                return a, b
            shift = below.bit_length() - width
            a, b = nums >> shift & lane, dens >> shift & lane
            below = (a * dens - nums * b + bias) & others
            below &= -below
        raise AssertionError("rank search passed |C| - 1 steps; lanes are inconsistent")

    def best_query(self, mask: int) -> int:
        """Index of the max-min query in the subclass, lowest index on ties.

        A row beats the incumbent rank a/b iff every other member's lane
        of N * b - a * D + bias has its top bit set. Candidates are the
        top bits of the members' lanes, visited in index order; the first
        member, and each later one whose row beats the incumbent, becomes
        the incumbent, so ties keep the lower index, and `_rank` finds its
        rank. Then the incumbent's column (see `_layout`) against its own
        D row, D being symmetric, keeps only the candidates whose edge
        into it weighs strictly more than a/b: rank(j) <= d(j, i), so the
        others cannot strictly beat a/b, and ranks only rise, so each
        filter stays valid under the later ones. Two distinct concepts
        weigh 1 both ways, so a subclass of one or two concepts takes its
        lowest index. Three distinct concepts split only where one stands
        alone, so d(i, j) = w_j / (w_i + w_j) for w_x the mass where x
        does: members of least w rank at least 1/2, the others below, and
        a three-member subclass takes the lowest index of least w.
        """
        if mask == 0:
            raise ValueError("no query exists for the empty class")
        count = mask.bit_count()
        if count < 3:
            return (mask & -mask).bit_length() - 1
        hit = self._best.get(mask)
        if hit is not None:
            return hit
        if count == 3:
            i, k = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            j = (mask ^ 1 << i ^ 1 << k).bit_length() - 1
            x, y, z = (self.cache.point_bits[m] for m in (i, j, k))
            alone = ((x ^ y) & (x ^ z), i), ((x ^ y) & (y ^ z), j), ((x ^ z) & (y ^ z), k)
            mass = self.mass.__getitem__
            self._best[mask] = hit = min((sum(map(mass, _points(w))), m) for w, m in alone)[1]
            return hit
        layout = self._layout(mask)
        width, lane, bias, full, total = self._width, self._lane, self._bias, self._all, layout[3]
        row, rank = self._row, self._rank
        tops = todo = self._spread(mask) << (width - 1)
        best_i = a = b = -1
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() // width - 1
            nums, dens = row(layout, i)
            others = tops ^ low
            if best_i >= 0 and (nums * b - a * dens + bias) & others != others:
                continue
            best_i = i
            a, b = rank(nums, dens, others, count)
            # lane j of the column is N of the edge (j, i)
            column = nums + (total >> i * width & lane) * full - total
            todo &= column * b - a * dens + bias
        self._best[mask] = best_i
        return best_i


def _points(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a point mask, ascending."""
    points = []
    while bits:
        low = bits & -bits
        bits ^= low
        points.append(low.bit_length() - 1)
    return tuple(points)


def edge_weight(concept_class: ConceptClass, a: Concept, b: Concept) -> Fraction:
    """Exact d(a, b) in the given class. Requires a != b, both members."""
    graph = QueryGraph(concept_class)
    return graph.weight(graph.cache.full_mask, graph.root.index_of(a), graph.root.index_of(b))


def find_deficient_cycle(
    concept_class: ConceptClass,
    max_len: int = 5,
    graph: QueryGraph | None = None,
) -> tuple[Concept, ...] | None:
    """Search for a directed cycle whose edges all weigh at most 1/2,
    at least one strictly below.

    Such a cycle would let an adversary rotate the target forever while
    the class dimension drops by less than one per two queries, so none
    can exist; the search is the falsifiable check of that claim. A
    strict edge (u, v) of the graph's edge table lies on such a cycle of
    at most `max_len` vertices exactly when a breadth-first search from
    v over light edges reaches u within `max_len - 1` steps; the shortest
    such path is simple. The first strict edge in table order that closes
    gives the cycle v, ..., u along that path (neighbors in index order),
    returned as concepts; None when there is none.
    """
    if max_len < 2:
        raise ValueError("a cycle needs at least 2 vertices")
    graph = graph or QueryGraph(concept_class)
    table = graph.edges(graph.cache.mask_of(concept_class))
    light: dict[int, list[int]] = {}
    for (i, j), (num, den) in table.items():
        if 2 * num <= den:
            light.setdefault(i, []).append(j)
    trees: dict[int, dict[int, int]] = {}
    for (u, v), (num, den) in table.items():
        if 2 * num >= den:
            continue
        tree = trees.get(v)
        if tree is None:
            # parent links of the breadth-first tree of light paths from v
            tree = trees[v] = {v: v}
            frontier = [v]
            for _ in range(max_len - 1):
                reached = []
                for x in frontier:
                    for y in light.get(x, ()):
                        if y not in tree:
                            tree[y] = x
                            reached.append(y)
                frontier = reached
        if u in tree:
            cycle = [u]
            while cycle[-1] != v:
                cycle.append(tree[cycle[-1]])
            return tuple(graph.root.concepts[i] for i in reversed(cycle))
    return None
