"""Differential tests of the max-min kernel against the plain oracles.

The classes are seeded random classes with mixed-denominator weights,
plus one-hot unions and near-singletons, whose dimension sits below the
floor(log2 |C|) cap so that failing decisions run. Every mask that the
exact DP and the keep tables ask the dimension of is checked against
`ref_ldim`, and every subclass the learner reaches against `ref_max_min`,
`ref_rank` and `ref_edge_weight`. The split table is checked against the
restriction recursion, and the lane spread against its plain string form.
A kernel with inconsistent lanes must fail its rank search, not spin.
"""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from helpers import all_three_point_classes, mk_class, one_hot, recursion_headroom
from thicket import (
    IntervalFamily,
    LdimCache,
    QueryGraph,
    certify_scheme,
    exact_expected_queries,
    ldim,
)
from thicket.generate import random_class


@pytest.fixture
def oracle(monkeypatch):
    """`helpers.ref_ldim`, memoized per pattern tuple; the other oracles
    call it through the module, so they share the memo."""
    plain = helpers.ref_ldim
    table = functools.cache(lambda patterns: plain(list(patterns)))
    monkeypatch.setattr(helpers, "ref_ldim", lambda patterns: table(tuple(patterns)))
    return helpers


def _bits(patterns):
    return ["".join(map(str, c)) for c in patterns]


def random_case(k):
    """6-9 points, up to 40 concepts, weights over mixed denominators."""
    rng = random.Random(f"kernel {k}")
    n = rng.randint(6, 9)
    patterns = [
        tuple(v >> p & 1 for p in range(n))
        for v in rng.sample(range(2**n), rng.randint(8, 40))
    ]
    raw = [Fraction(rng.randint(1, 9), rng.choice((2, 3, 5, 7))) for _ in range(n)]
    mu = [w / sum(raw) for w in raw]
    return patterns, mu


def below_cap_cases():
    """Classes whose dimension is below floor(log2 |C|)."""
    hot = [c.bits for c in one_hot(8).concepts]
    # the one-hot concepts and their complements
    union = hot + [tuple(1 - b for b in c) for c in hot]
    # every concept with at most one 1, and a few with two
    near = hot + [(0,) * 8] + [tuple(int(p in (q, q + 1)) for p in range(8)) for q in (0, 3, 5)]
    mu = [Fraction(p + 1, 36) for p in range(8)]
    # a 4-cube and a 3-cube split by the first point, and eight more
    # concepts beside the 4-cube: deciding dimension 4 below the cap 5
    # asks that side, which holds the 4-cube, for dimension 3 only
    rows = ["0" + format(v, "04b") + "0000" for v in range(16)]
    rows += ["1" + format(v, "03b") + "00000" for v in range(8)]
    rows += ["00000" + format(v, "04b") for v in range(1, 9)]
    nested = [tuple(map(int, row)) for row in rows]
    return [(hot, mu), (union, mu), (near, [Fraction(1, 8)] * 8), (nested, [Fraction(1, 9)] * 9)]


CASES = [random_case(k) for k in range(8)] + below_cap_cases()


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _reached(patterns, mu, targets):
    """Cache, graph, the subclasses the exact DP expands for each target,
    and the masks the DP and the keep tables ask ldim of."""
    cc = mk_class(_bits(patterns), mu=mu)
    graph = QueryGraph(cc)
    cache = graph.cache
    asked, expanded = set(), set()
    real_ldim, real_best = cache.ldim_mask, graph.best_query

    def ldim_mask(mask):
        asked.add(mask)
        return real_ldim(mask)

    def best_query(mask):
        expanded.add(mask)
        return real_best(mask)

    cache.ldim_mask, graph.best_query = ldim_mask, best_query
    for t in targets:
        exact_expected_queries(cc, cc.concepts[t], graph)
    for mask in sorted(expanded):
        cache.keeps(mask)
    del cache.ldim_mask, graph.best_query
    return cache, graph, expanded, asked


@pytest.mark.parametrize("case", range(len(CASES)))
def test_dimension_matches_plain_recursion_where_dp_and_keeps_ask(oracle, case):
    patterns, mu = CASES[case]
    cache, _, expanded, asked = _reached(patterns, mu, (0, len(patterns) - 1))
    assert len(expanded) > 1
    for mask in asked:
        sub = [patterns[i] for i in _members(mask)]
        assert cache.ldim_mask(mask) == oracle.ref_ldim(sub), (case, mask)
    # and every decision proven on the way, lo <= ldim < hi
    assert cache._proven
    for mask, (lo, hi) in cache._proven.items():
        assert lo <= oracle.ref_ldim([patterns[i] for i in _members(mask)]) < hi, (case, mask)


def test_failing_decisions_run_on_classes_below_the_cap(oracle):
    refuted = []
    for patterns, mu in below_cap_cases():
        cc = mk_class(_bits(patterns), mu=mu)
        cache = LdimCache(cc)
        real = cache._at_least

        def at_least(mask, k):
            answer = real(mask, k)
            if not answer:
                refuted.append(k)
            return answer

        cache._at_least = at_least
        assert ldim(cc, cache) == oracle.ref_ldim(patterns)
        assert ldim(cc, cache) < len(patterns).bit_length() - 1
    assert 3 in refuted and 2 in refuted


@pytest.mark.parametrize("case", range(len(CASES)))
def test_max_min_query_rank_and_weight_match_oracles_where_the_learner_goes(oracle, case):
    patterns, mu = CASES[case]
    _, graph, expanded, _ = _reached(patterns, mu, (0,))
    for mask in expanded:
        members = _members(mask)
        sub = [patterns[i] for i in members]
        assert graph.best_query(mask) == members[oracle.ref_max_min(sub, mu)], (case, mask)
        for a, i in enumerate(members):
            assert graph.rank(mask, i) == oracle.ref_rank(sub, mu, a), (case, mask, i)
        # the edges of the query and of the first member, both ways
        for a in {members.index(graph.best_query(mask)), 0}:
            for b in range(len(members)):
                if a != b:
                    for x, y in ((a, b), (b, a)):
                        expect = oracle.ref_edge_weight(sub, mu, x, y)
                        assert graph.weight(mask, members[x], members[y]) == expect


def test_rank_with_a_minimum_tied_across_lanes_of_different_terms(oracle):
    # concept 0 weighs 1/2 against concepts 2 and 5, as the integer terms
    # 3/6 and 2/4; its first other lane (concept 1) weighs 1
    bits = ["11011", "10111", "11110", "11010", "01110", "11101"]
    mu = [Fraction(1, 11), Fraction(3, 11), Fraction(3, 11), Fraction(1, 11), Fraction(3, 11)]
    cc = mk_class(bits, mu=mu)
    graph = QueryGraph(cc)
    mask = graph.cache.full_mask
    patterns = [c.bits for c in cc.concepts]
    edges = graph.edges(mask)
    assert edges[0, 1] == (6, 6)
    assert edges[0, 2] == (3, 6) and edges[0, 5] == (2, 4)
    assert graph.rank(mask, 0) == oracle.ref_rank(patterns, mu, 0) == Fraction(1, 2)
    for i in range(len(bits)):
        assert graph.rank(mask, i) == oracle.ref_rank(patterns, mu, i)
    assert graph.best_query(mask) == oracle.ref_max_min(patterns, mu) == 2


class _Reads(list):
    """A list that records the indices read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def _ref_visits(oracle, sub, mu, ranks):
    """The members whose rows the pruned scan builds: in index order,
    skipping every member whose edge into an incumbent weighs at most
    that incumbent's rank."""
    best, visited, pruned = None, [], set()
    for j in range(len(sub)):
        if j in pruned:
            continue
        visited.append(j)
        if best is None or ranks[j] > ranks[best]:
            best = j
            pruned |= {
                k for k in range(j + 1, len(sub))
                if oracle.ref_edge_weight(sub, mu, k, j) <= ranks[j]
            }
    return visited


@pytest.mark.parametrize("mu", [None, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))])
def test_max_min_ties_and_pruning_on_every_three_point_subclass(oracle, mu):
    # a member whose edge into an incumbent equals the incumbent's rank
    # cannot strictly beat it, so the scan drops it unvisited and the
    # lower index keeps the tie; `_dens` is read once per visited member,
    # and not at all for three members, which take the closed form
    boundary = 0
    weights = mu or [Fraction(1, 3)] * 3
    for cc in all_three_point_classes():
        cc = mk_class(_bits(c.bits for c in cc.concepts), mu=mu)
        graph = QueryGraph(cc)
        graph._dens = _Reads(graph._dens)
        for mask in range(1, graph.cache.full_mask + 1):
            members = _members(mask)
            sub = [cc.concepts[i].bits for i in members]
            best = oracle.ref_max_min(sub, weights)
            del graph._dens.read[:]
            assert graph.best_query(mask) == members[best], (cc.concepts, mask)
            if len(members) == 3:
                assert graph._dens.read == [], (cc.concepts, mask)
            if len(members) > 3:
                ranks = [oracle.ref_rank(sub, weights, a) for a in range(len(sub))]
                visits = _ref_visits(oracle, sub, weights, ranks)
                assert graph._dens.read == [members[j] for j in visits], (cc.concepts, mask)
                boundary += any(
                    oracle.ref_edge_weight(sub, weights, k, best) == ranks[best]
                    for k in range(best + 1, len(sub))
                )
    assert boundary > 0


@pytest.mark.parametrize("weights", ["uniform", "integer"])
def test_three_member_subclass_queries_the_member_alone_on_the_least_mass(oracle, weights):
    # every split point of three distinct concepts leaves one alone; the
    # max-min query is the lowest index of least mass where it stands alone
    nowhere = 0
    for k in range(3):
        rng = random.Random(f"three {weights} {k}")
        n = 6
        patterns = [tuple(v >> p & 1 for p in range(n)) for v in rng.sample(range(2**n), 9)]
        raw = [rng.randint(1, 4) if weights == "integer" else 1 for _ in range(n)]
        mu = [Fraction(w, sum(raw)) for w in raw]
        graph = QueryGraph(mk_class(_bits(patterns), mu=mu))
        for mask in range(graph.cache.full_mask + 1):
            if mask.bit_count() != 3:
                continue
            members = _members(mask)
            sub = [patterns[i] for i in members]
            alone = [
                sum(mu[p] for p in range(n) if all(c[p] != x[p] for c in sub if c is not x))
                for x in sub
            ]
            nowhere += 0 in alone
            rule = alone.index(min(alone))
            assert graph.best_query(mask) == members[rule] == members[oracle.ref_max_min(sub, mu)]
    assert nowhere > 0


def block_class(blocks):
    """Disjoint blocks of 4 concepts on 3 points: an indicator point, on
    in the block's concepts only, and two points they shatter."""
    rows = []
    for b in range(blocks):
        for u in (0, 1):
            for v in (0, 1):
                row = [0] * (3 * blocks)
                row[3 * b : 3 * b + 3] = (1, u, v)
                rows.append(row)
    return mk_class(_bits(rows))


def _decision_depth(cache):
    """Wrap the cache's decisions; returns the list whose last item is
    the deepest nesting seen."""
    real, depth, deepest = cache._at_least, [0], [0]

    def at_least(mask, k):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return real(mask, k)
        finally:
            depth[0] -= 1

    cache._at_least = at_least
    return deepest


def test_block_class_solves_within_fixed_headroom():
    # 80 blocks: 240 points and 320 concepts, inside the CLI's point cap
    cc = block_class(80)
    cache = LdimCache(cc)
    deepest = _decision_depth(cache)
    with recursion_headroom(15):
        assert ldim(cc, cache) == 3
        keep0, keep1 = cache.keeps(cache.full_mask)
    # label 0 leaves every other block, and so the dimension, in place;
    # label 1 leaves at most one block, of dimension 2
    assert keep1 == 0 and keep0 == (1 << 240) - 1
    assert deepest[0] <= len(cc).bit_length() - 1


@pytest.mark.parametrize("n", [4, 6])
def test_decision_depth_stays_within_log2_of_the_class(n):
    # the full cube on n points has dimension n = log2 |C|, the deepest case
    cube = mk_class([format(v, f"0{n}b") for v in range(2**n)])
    cache = LdimCache(cube)
    deepest = _decision_depth(cache)
    assert ldim(cube, cache) == n
    assert 0 < deepest[0] <= n - 1


def check_splits(cache, patterns, mask, dim):
    """`splits(mask)` against the plain recursion `dim`: the points where
    the subclass takes both labels, each with its 0-side and what each
    labeled restriction loses."""
    members = [i for i in range(len(patterns)) if mask >> i & 1]
    d = dim(tuple(patterns[i] for i in members))
    expected = []
    for p in range(len(patterns[0])):
        zeros = sum(1 << i for i in members if patterns[i][p] == 0)
        if zeros and zeros != mask:
            sides = [tuple(patterns[i] for i in members if patterns[i][p] == v) for v in (0, 1)]
            expected.append((p, zeros, d - dim(sides[0]), d - dim(sides[1])))
    assert cache.splits(mask) == expected


def test_split_table_matches_plain_recursion_on_three_points():
    dim = functools.cache(helpers.ref_ldim)
    for cc in all_three_point_classes():
        cache = LdimCache(cc)
        patterns = [c.bits for c in cc.concepts]
        for mask in range(cache.full_mask + 1):
            check_splits(cache, patterns, mask, dim)
    # the empty subclass splits nowhere
    assert LdimCache(helpers.c3()).splits(0) == []


def test_split_table_matches_plain_recursion_where_the_greedy_goes():
    drawn = [random_class(random.Random(f"keeps {k}"), 7, 14, 7, 10) for k in range(4)]
    # the same classes with an eighth point that no concept splits
    one_sided = [
        mk_class([c.bitstring() + str(k % 2) for c in cc.concepts]) for k, cc in enumerate(drawn)
    ]
    dim = functools.cache(helpers.ref_ldim)
    for k, cc in enumerate(drawn + one_sided):
        cache = LdimCache(cc)
        real, reached = cache.keeps, set()

        def keeps(mask):
            reached.add(mask)
            return real(mask)

        cache.keeps = keeps
        assert certify_scheme(cc, cache=cache).ok
        patterns = [c.bits for c in cc.concepts]
        for mask in reached:
            check_splits(cache, patterns, mask, dim)
            if k >= len(drawn):
                assert all(p < 7 for p, *_ in cache.splits(mask))


def _plain_spread(mask, width):
    return int(("0" * (width - 1)).join(bin(mask)[2:]), 2)


def _spread_graphs():
    """Graphs with lanes of 1, 2, 16, 17, 18 and 40 bits, and staged
    prefix graphs with lanes of 40 and 119 bits."""
    yield 1, QueryGraph(mk_class(["0"]))
    yield 2, QueryGraph(mk_class(["0", "1"]))
    # 40 concepts (ldim cap 5) with mass denominators q: 5 * q**2 sets the width
    patterns = [format(v, "06b") for v in range(40)]
    for width, q in ((16, 58), (17, 81), (18, 115), (40, 234469)):
        mu = [Fraction(1, q)] * 5 + [1 - Fraction(5, q)]
        yield width, QueryGraph(mk_class(patterns, mu=mu))
    family = IntervalFamily(Fraction(1, 10))
    yield 40, family.prefix_graph(14)[1]
    yield 119, family.prefix_graph(40)[1]


def test_spread_matches_the_plain_string_form():
    rng = random.Random("spread")
    for width, graph in _spread_graphs():
        assert graph._width == width
        n = graph.cache.full_mask.bit_length()
        masks = {0, graph.cache.full_mask}
        masks |= {1 << i for i in range(n)}
        # pairs and runs across the boundaries of 16-bit chunks
        masks |= {3 << i for i in range(n - 1)} | {0b111 << i for i in range(n - 2)}
        masks |= {rng.getrandbits(n) for _ in range(50)}
        for mask in masks:
            assert graph._spread(mask) == _plain_spread(mask, width), (width, mask)


# A lane spread in chunks of `width` bits: a chunk's copies in the magic
# product overlap and carry, so the lanes no longer hold the mask's bits.
COLLIDING_SPREAD = """
import random
from thicket import QueryGraph
from thicket.generate import random_class
from thicket.learner import derive_seed

def spread(self, mask):
    width = self._width
    magic = sum(1 << t * (width - 1) for t in range(width))
    lanes = sum(1 << t * width for t in range(width))
    out = shift = 0
    while mask:
        out |= ((mask & (1 << width) - 1) * magic & lanes) << shift
        mask >>= width
        shift += width * width
    return out

QueryGraph._spread = spread
cc = random_class(random.Random(derive_seed(0, 0)), 8, 40, 8, 40)
graph = QueryGraph(cc)
rng = random.Random(0)
for _ in range(100):
"""

# the two callers of the rank search, each on 100 drawn subclasses
RANK_SEARCHES = [
    "    graph.best_query(rng.getrandbits(len(cc)))\n",
    "    graph.rank(rng.getrandbits(len(cc)) | 1, 0)\n",
]


def test_rank_search_on_inconsistent_lanes_fails_instead_of_spinning():
    # each rank-search step moves to a strictly lighter lane, so an
    # incumbent takes at most |C| - 1 of them; with the colliding spread
    # the search would otherwise loop on the first subclass drawn
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for call in RANK_SEARCHES:
        proc = subprocess.run(
            [sys.executable, "-c", COLLIDING_SPREAD + call],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 1, call
        assert "AssertionError: rank search passed |C| - 1 steps" in proc.stderr, call
