import math
import random
from fractions import Fraction
from itertools import product

import pytest

from thicket import (
    QueryGraph,
    edge_weight,
    find_deficient_cycle,
    ldim,
    max_min_query,
    query_rank,
)
from thicket.generate import random_classes

from helpers import c3, mk_class, ref_edge_weight, ref_max_min, ref_rank

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
    cc = c3()
    a, b, c = cc.concepts
    assert query_rank(cc, a) == 0
    assert query_rank(cc, b) == 0
    assert query_rank(cc, c) == 1


def test_singleton_rank_is_infinite():
    cc = mk_class(["1"])
    assert query_rank(cc, cc.concepts[0]) == math.inf
    assert max_min_query(cc) == cc.concepts[0]


def test_worked_class_max_min_query():
    cc = c3()
    assert max_min_query(cc) == cc.by_label("C")


def test_two_concept_tie_breaks_low():
    cc = mk_class(["10", "01"])
    # both ranks are equal, the first concept wins the tie
    assert max_min_query(cc) == cc.concepts[0]


def test_no_deficient_cycle_trivially():
    assert find_deficient_cycle(mk_class(["1"])) is None
    assert find_deficient_cycle(c3(), 3) is None


def test_deficient_cycle_length_validation():
    with pytest.raises(ValueError):
        find_deficient_cycle(c3(), 1)


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
        best = max_min_query(cc)
        assert query_rank(cc, best) >= HALF


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


# Weights over denominators with a large common multiple: 42 and 1806.
MIXED_MU = (
    ("1/2", "1/3", "1/7", "1/42"),
    ("1/2", "1/3", "1/7", "1/43", "1/1806"),
)


def mixed_classes():
    rng = random.Random(5077)
    for mu in MIXED_MU:
        n = len(mu)
        patterns = ["".join(t) for t in product("01", repeat=n)]
        for size in (3, 4, 5, 6):
            for _ in range(3):
                yield mk_class(rng.sample(patterns, size), mu)
    # every edge weighs the same in these two, so all ranks tie
    yield mk_class(["0000", "0010", "0001", "0011"], MIXED_MU[0])
    yield mk_class(["1000", "0100", "0010", "0001"], ("1/4",) * 4)


def test_subclass_selection_matches_oracle_with_mixed_denominators():
    ties = 0
    for cc in mixed_classes():
        graph = QueryGraph(cc)
        mu = cc.domain.mu
        for mask in range(1, graph.cache.full_mask + 1):
            members = [i for i in range(len(cc)) if mask >> i & 1]
            patterns = [cc.concepts[i].bits for i in members]
            for a, i in enumerate(members):
                for b, j in enumerate(members):
                    if i != j:
                        assert graph.weight(mask, i, j) == ref_edge_weight(patterns, mu, a, b)
            ranks = [ref_rank(patterns, mu, a) for a in range(len(members))]
            assert [graph.rank(mask, i) for i in members] == ranks
            assert graph.best_query(mask) == members[ref_max_min(patterns, mu)]
            ties += ranks.count(max(ranks)) > 1
    assert ties > 0
