import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from thicket import ClassValidationError, QueryGraph, edge_weight, find_deficient_cycle
from thicket import querygraph
from thicket.generate import random_class, random_classes

from helpers import (
    c3,
    mk_class,
    one_hot,
    ref_deficient_cycle,
    ref_edge_weight,
    ref_max_min,
    ref_rank,
)

HALF = Fraction(1, 2)


def test_worked_class_edge_weights():
    cc = c3()
    a, b, c = cc.concepts
    assert edge_weight(cc, a, b) == HALF
    assert edge_weight(cc, b, a) == HALF
    # the disagreeing point keeps full dimension, so these edges carry none
    assert edge_weight(cc, a, c) == 0
    assert edge_weight(cc, b, c) == 0
    assert edge_weight(cc, c, a) == 1
    assert edge_weight(cc, c, b) == 1


def test_self_edge_is_undefined():
    cc = c3()
    with pytest.raises(ValueError):
        edge_weight(cc, cc.concepts[0], cc.concepts[0])


def test_worked_class_query_ranks():
    graph = QueryGraph(c3())
    full = graph.cache.full_mask
    assert graph.rank(full, 0) == 0
    assert graph.rank(full, 1) == 0
    assert graph.rank(full, 2) == 1


def test_singleton_rank_is_infinite():
    graph = QueryGraph(mk_class(["1"]))
    full = graph.cache.full_mask
    assert graph.rank(full, 0) == math.inf
    assert graph.best_query(full) == 0


def test_worked_class_max_min_query():
    cc = c3()
    graph = QueryGraph(cc)
    assert graph.best_query(graph.cache.full_mask) == cc.index_of(cc.by_label("C"))


def test_two_concept_tie_breaks_low():
    graph = QueryGraph(mk_class(["10", "01"]))
    # both ranks are equal, the first concept wins the tie
    assert graph.best_query(graph.cache.full_mask) == 0


def test_no_deficient_cycle_trivially():
    assert find_deficient_cycle(mk_class(["1"])) is None
    assert find_deficient_cycle(c3(), 3) is None


def test_deficient_cycle_length_validation():
    with pytest.raises(ValueError):
        find_deficient_cycle(c3(), 1)


# planted (N, D) weights, some unreduced: strict, exactly 1/2, heavy
STRICT, EVEN, HEAVY = ((0, 1), (1, 3), (2, 6)), ((1, 2), (3, 6)), ((2, 3), (4, 6), (1, 1))


def planted_table(rng, n):
    """Random weights with a random share of light edges. Half the tables
    then turn most edges heavy around a planted light ring, which may
    hold a strict edge, so long cycles arise as well as short ones."""
    share = rng.random()
    table = {
        e: rng.choice(STRICT + EVEN if rng.random() < share else HEAVY)
        for e in permutations(range(n), 2)
    }
    if rng.random() < 0.5:
        table = {e: w if rng.random() < 0.1 else rng.choice(HEAVY) for e, w in table.items()}
        ring = rng.sample(range(n), rng.randint(2, n))
        for u, v in zip(ring, ring[1:] + ring[:1]):
            table[u, v] = rng.choice(EVEN + STRICT[:1])
    return table


def test_deficient_cycle_search_matches_brute_force_on_planted_tables():
    rng = random.Random(2017)
    lengths = []
    for _ in range(2000):
        n = rng.randint(2, 6)
        cc = one_hot(n)
        graph = QueryGraph(cc)
        planted = planted_table(rng, n)
        graph.edges = lambda mask: planted
        ref = ref_deficient_cycle({e: Fraction(*w) for e, w in planted.items()}, n, 6)
        lengths.append(len(ref) if ref else None)
        for max_len in range(2, 7):
            found = find_deficient_cycle(cc, max_len, graph)
            assert (found is None) == (ref is None or len(ref) > max_len)
            if found is None:
                continue
            cycle = [cc.index_of(c) for c in found]
            assert 2 <= len(cycle) <= max_len
            assert len(set(cycle)) == len(cycle)
            steps = [planted[u, cycle[(k + 1) % len(cycle)]] for k, u in enumerate(cycle)]
            assert all(2 * num <= den for num, den in steps)
            assert any(2 * num < den for num, den in steps)
    # the tables reach every cycle length, and cycle-free tables too
    assert set(lengths) == {None, 2, 3, 4, 5, 6}


def test_deficient_cycle_search_is_polynomial_in_the_length():
    # every edge of a one-hot class weighs exactly 1/2: all light, none strict
    cc = one_hot(16)
    start = time.perf_counter()
    assert find_deficient_cycle(cc, 16) is None
    assert time.perf_counter() - start < 0.1


def test_edge_table_matches_weights_and_is_kept():
    for cc in random_classes(4242, 30, 4, 6):
        graph = QueryGraph(cc)
        mask = graph.cache.full_mask
        table = graph.edges(mask)
        assert list(table) == [(i, j) for i in range(len(cc)) for j in range(len(cc)) if i != j]
        for (i, j), (num, den) in table.items():
            assert Fraction(num, den) == graph.weight(mask, i, j)
        assert graph.edges(mask) is table


def test_weights_match_plain_recursion_oracle():
    for cc in random_classes(1402, 40, 4, 6):
        graph = QueryGraph(cc)
        patterns = [c.bits for c in cc.concepts]
        mu = cc.domain.mu
        mask = graph.cache.full_mask
        for i in range(len(cc)):
            for j in range(len(cc)):
                if i != j:
                    assert graph.weight(mask, i, j) == ref_edge_weight(
                        patterns, mu, i, j
                    )


def test_opposing_edges_sum_to_at_least_one():
    for cc in random_classes(977, 60, 4, 7):
        graph = QueryGraph(cc)
        mask = graph.cache.full_mask
        for i in range(len(cc)):
            for j in range(i + 1, len(cc)):
                assert graph.weight(mask, i, j) + graph.weight(mask, j, i) >= 1


def test_chosen_query_rank_at_least_half():
    for cc in random_classes(31337, 60, 4, 7):
        if len(cc) < 2:
            continue
        graph = QueryGraph(cc)
        full = graph.cache.full_mask
        assert graph.rank(full, graph.best_query(full)) >= HALF


def test_graph_reuse_across_subclasses():
    cc = c3()
    graph = QueryGraph(cc)
    mask_ab = 0b011
    assert graph.best_query(mask_ab) == 0
    assert graph.rank(mask_ab, 0) == Fraction(1)
    assert graph.rank(graph.cache.full_mask, 2) == Fraction(1)


def test_rank_in_subclass_differs_from_root():
    cc = c3()
    graph = QueryGraph(cc)
    # rank of A against the full class is 0, against {A, B} it is 1
    assert graph.rank(graph.cache.full_mask, 0) == 0
    assert graph.rank(0b011, 0) == 1


# Weights over denominators with a large common multiple: 42 and 1806;
# the third puts almost all mass on one point over four large coprime
# denominators, so the graph's packed lanes are wider than 64 bits.
WIDE_MU = tuple(Fraction(1, q) for q in (1009, 1013, 1019, 1021))
MIXED_MU = (
    ("1/2", "1/3", "1/7", "1/42"),
    ("1/2", "1/3", "1/7", "1/43", "1/1806"),
    WIDE_MU + (1 - sum(WIDE_MU),),
)


def mixed_classes():
    rng = random.Random(5077)
    for mu in MIXED_MU:
        n = len(mu)
        patterns = ["".join(t) for t in product("01", repeat=n)]
        for size in (3, 4, 5, 6):
            for _ in range(3):
                yield mk_class(rng.sample(patterns, size), mu)
    # every edge weighs the same in these three, so all ranks tie
    yield mk_class(["0000", "0010", "0001", "0011"], MIXED_MU[0])
    yield mk_class(["1000", "0100", "0010", "0001"], ("1/4",) * 4)
    yield one_hot(6)
    # uniform weights: many ranks tie, and many rows only just beat the incumbent
    patterns = ["".join(t) for t in product("01", repeat=5)]
    for size in (4, 5, 6):
        for _ in range(2):
            yield mk_class(rng.sample(patterns, size), ("1/5",) * 5)


def test_subclass_selection_matches_oracle_with_mixed_denominators():
    ties = wide = 0
    for cc in mixed_classes():
        graph = QueryGraph(cc)
        wide += graph._width > 64
        mu = cc.domain.mu
        for mask in range(1, graph.cache.full_mask + 1):
            members = [i for i in range(len(cc)) if mask >> i & 1]
            patterns = [cc.concepts[i].bits for i in members]
            weights = {
                (i, j): ref_edge_weight(patterns, mu, a, b)
                for a, i in enumerate(members)
                for b, j in enumerate(members)
                if i != j
            }
            table = graph.edges(mask)
            assert list(table) == list(weights)
            for (i, j), (num, den) in table.items():
                assert Fraction(num, den) == weights[i, j] == graph.weight(mask, i, j)
            ranks = [ref_rank(patterns, mu, a) for a in range(len(members))]
            assert [graph.rank(mask, i) for i in members] == ranks
            assert graph.best_query(mask) == members[ref_max_min(patterns, mu)]
            ties += ranks.count(max(ranks)) > 1
    assert ties > 0 and wide == 12


def test_difference_points_on_a_wide_domain():
    # 70 points: the concepts' point bits overflow 64 bits
    rng = random.Random(11)
    n = 70
    mu = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    mu = [m / sum(mu) for m in mu]
    bits = {"".join(rng.choice("01") for _ in range(n)) for _ in range(12)}
    cc = mk_class(sorted(bits), mu=mu)
    graph = QueryGraph(cc)
    total = sum(graph.mass)
    edges = graph.edges(graph.cache.full_mask)
    for i, a in enumerate(cc.concepts):
        for j, b in enumerate(cc.concepts):
            if i == j:
                continue
            direct = tuple(p for p in range(n) if a.bits[p] != b.bits[p])
            assert graph.diff_points(i, j) == direct == graph.diff_points(j, i)
            # D of the edge is the mass of the difference points
            assert Fraction(edges[i, j][1], total) == sum(mu[p] for p in direct)


def test_weight_and_rank_take_members_only():
    graph = QueryGraph(c3())
    with pytest.raises(ValueError):
        graph.weight(0b011, 0, 2)
    with pytest.raises(ValueError):
        graph.rank(0b011, 2)


def test_weight_and_rank_on_a_fresh_mask_build_one_row(monkeypatch):
    # each reads one member's row of a subclass the graph has not seen;
    # neither builds nor reads the subclass's edge table
    cc = random_class(random.Random("one row"), 10, 64, 10, 64)
    assert len(cc) == 64
    patterns, mu = [c.bits for c in cc.concepts], cc.domain.mu
    rows, real_row = [], QueryGraph._row

    def row(self, layout, i):
        rows.append(i)
        return real_row(self, layout, i)

    def edges(self, mask):
        raise AssertionError("weight and rank read one row, not the edge table")

    monkeypatch.setattr(QueryGraph, "_row", row)
    monkeypatch.setattr(QueryGraph, "edges", edges)
    graph = QueryGraph(cc)
    rng = random.Random("fresh masks")
    seen = set()
    for k in range(40):
        members = sorted(rng.sample(range(64), rng.randint(3, 6)))
        mask = sum(1 << i for i in members)
        assert mask not in seen
        seen.add(mask)
        sub = [patterns[i] for i in members]
        a, b = rng.sample(range(len(members)), 2)
        rows.clear()
        if k % 2:
            assert graph.rank(mask, members[a]) == ref_rank(sub, mu, a)
        else:
            assert graph.weight(mask, members[a], members[b]) == ref_edge_weight(sub, mu, a, b)
        assert rows == [members[a]]


def test_graph_refuses_rows_over_the_budget(monkeypatch):
    # the D rows take len(C)**2 lanes of `width` bits; c3 has 3 concepts
    cc = c3()
    rows = 9 * QueryGraph(cc)._width
    monkeypatch.setattr(querygraph, "MAX_ROW_BITS", rows)
    QueryGraph(cc)  # exactly at the budget
    monkeypatch.setattr(querygraph, "MAX_ROW_BITS", rows - 1)
    with pytest.raises(ClassValidationError, match=f"{rows} bits of query-graph rows"):
        QueryGraph(cc)
