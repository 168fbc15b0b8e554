"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute dimensions and edge weights from the raw
definitions with no memoization, masks, or pruning, so they share no
code path with the package under test.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from thicket import Concept, ConceptClass, Domain


def ref_ldim(patterns):
    """Plain recursive mistake-tree depth over bit tuples."""
    if not patterns:
        return -1
    if len(patterns) == 1:
        return 0
    best = 0
    for p in range(len(patterns[0])):
        zeros = [c for c in patterns if c[p] == 0]
        ones = [c for c in patterns if c[p] == 1]
        if zeros and ones:
            cand = 1 + min(ref_ldim(zeros), ref_ldim(ones))
            if cand > best:
                best = cand
    return best


def ref_edge_weight(patterns, mu, i, j):
    """Expected dimension drop querying pattern i against target j."""
    diff = [p for p in range(len(patterns[0])) if patterns[i][p] != patterns[j][p]]
    total = sum((mu[p] for p in diff), Fraction(0))
    base = ref_ldim(patterns)
    acc = Fraction(0)
    for p in diff:
        kept = [c for c in patterns if c[p] == patterns[j][p]]
        acc += mu[p] * (base - ref_ldim(kept))
    return acc / total


def ref_rank(patterns, mu, i):
    """Minimum edge weight leaving pattern i; +inf when it is alone."""
    return min(
        (ref_edge_weight(patterns, mu, i, j) for j in range(len(patterns)) if j != i),
        default=math.inf,
    )


def ref_max_min(patterns, mu):
    """Index of the pattern of maximal rank, the lowest index on ties."""
    ranks = [ref_rank(patterns, mu, i) for i in range(len(patterns))]
    return ranks.index(max(ranks))


def ref_lowest_index_expected_queries(patterns, mu, t, alive=None):
    """Expected queries, confirmation included, for a learner that always
    guesses the lowest-index surviving pattern, target pattern t.

    The teacher draws the counterexample from mu conditioned on the
    disagreement points; the learner keeps the patterns agreeing with
    the target there. A bad query selector for comparison with the
    package's max-min learner.
    """
    if alive is None:
        alive = range(len(patterns))
    q = min(alive)
    if q == t:
        return Fraction(1)
    diff = [p for p in range(len(patterns[t])) if patterns[q][p] != patterns[t][p]]
    total = sum((mu[p] for p in diff), Fraction(0))
    acc = Fraction(1)
    for p in diff:
        kept = [i for i in alive if patterns[i][p] == patterns[t][p]]
        acc += (mu[p] / total) * ref_lowest_index_expected_queries(patterns, mu, t, kept)
    return acc


def mk_class(bitstrings, mu=None, labels=None):
    n = len(bitstrings[0])
    points = tuple(f"x{i + 1}" for i in range(n))
    if mu is None:
        domain = Domain.uniform(points)
    else:
        domain = Domain(points, tuple(Fraction(m) for m in mu))
    concepts = tuple(Concept.from_bitstring(domain, b) for b in bitstrings)
    return ConceptClass(domain, concepts, labels)


def c3():
    """The worked three-concept class used across the suite."""
    return mk_class(["10", "01", "11"], labels=("A", "B", "C"))


def powerset3():
    bits = ["".join(t) for t in product("01", repeat=3)]
    return mk_class(bits)


def all_three_point_classes():
    """Every nonempty class over three points, uniform weights."""
    patterns = ["".join(t) for t in product("01", repeat=3)]
    for size in range(1, 9):
        for chosen in combinations(patterns, size):
            yield mk_class(list(chosen))


def write_class_file(path, cc, tau=None):
    from thicket import save_class

    path.write_bytes(save_class(cc, tau))
    return str(path)
