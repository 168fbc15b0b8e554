"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute dimensions and edge weights from the raw
definitions with no memoization, masks, or pruning, so they share no
code path with the package under test.
"""

import hashlib
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product

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


def ref_greedy(patterns, sample, dim=ref_ldim):
    """The greedy compression pass over a sample {point index: label}:
    the points pinned with labels 1 and 0, in the order chosen, and
    whether all ldim(patterns) steps ran.

    Each step scans the sample points in ascending order and pins the
    first whose labeled restriction of the surviving patterns drops
    their dimension; a step that finds none halts the run. `dim` is
    `ref_ldim`, or a memoized wrapper of it taking tuples of patterns.
    """
    alive = tuple(patterns)
    ones, zeros = [], []
    for _ in range(dim(alive)):
        here = dim(alive)
        for p in sorted(sample):
            kept = tuple(c for c in alive if c[p] == sample[p])
            if dim(kept) < here:
                break
        else:
            return ones, zeros, False
        (ones if sample[p] else zeros).append(p)
        alive = kept
    return ones, zeros, True


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


def ref_deficient_cycle(weights, n, max_len):
    """Brute force over the simple cycles of a planted weight table
    {(i, j): weight} on vertices 0..n-1: the first cycle of at most
    `max_len` vertices, shortest first and each started from its
    smallest vertex, whose edges all weigh at most 1/2 with one strictly
    below; None when there is none."""
    half = Fraction(1, 2)
    for size in range(2, max_len + 1):
        for chosen in combinations(range(n), size):
            for rest in permutations(chosen[1:]):
                cycle = (chosen[0],) + rest
                ws = [weights[cycle[k], cycle[(k + 1) % size]] for k in range(size)]
                if max(ws) <= half and min(ws) < half:
                    return cycle
    return None


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


def ref_learner_run(patterns, mu, t, seed):
    """One max-min learning run against target pattern t, replayed with
    rational thresholds: the steps (query, point, label), with point and
    label None on the confirming query.

    Each step queries the `ref_max_min` choice among the surviving
    patterns, kept in index order. The teacher takes u = r / 2**64 for
    one r = getrandbits(64) of `random.Random(seed)` and returns the
    first disagreement point whose running mass exceeds u times the
    disagreement's mass.
    """
    rng = random.Random(seed)
    alive = list(range(len(patterns)))
    steps = []
    while True:
        q = alive[ref_max_min([patterns[i] for i in alive], mu)]
        if q == t:
            steps.append((q, None, None))
            return steps
        diff = [p for p in range(len(patterns[t])) if patterns[q][p] != patterns[t][p]]
        threshold = Fraction(rng.getrandbits(64), 2**64) * sum(mu[p] for p in diff)
        acc = Fraction(0)
        for p in diff:
            acc += mu[p]
            if acc > threshold:
                break
        steps.append((q, p, patterns[t][p]))
        alive = [i for i in alive if patterns[i][p] == patterns[t][p]]


def ref_staged_trials(patterns, mu, tau, trials, seed, stage_cap):
    """Query counts of seeded staged runs on a finite family, one per trial.

    Trial i seeds `random.Random` with the first 8 bytes of
    sha256("{seed}/{i}"), big-endian, and draws its target as the first
    index whose cumulative tau exceeds r / 2**64. Stage k has budget eps
    1 / 2**(k+1), the shortest prefix of cumulative tau >= 1 - eps, and
    the smallest n with sum(C(n, j) for j < d) / 2**n < eps for
    d = max(1, ref_ldim(patterns)). Each query is the `ref_max_min`
    choice among the prefix patterns consistent with every
    counterexample so far, in index order; the counterexample is drawn
    as in `ref_learner_run`. Raises LookupError when tau runs out, for
    a target or for a stage's prefix.
    """
    d = max(1, ref_ldim(patterns))
    cumulative = [sum(tau[: k + 1], Fraction(0)) for k in range(len(tau))]
    counts, choice = [], {}  # choice: alive tuple -> max-min pattern index
    for i in range(trials):
        digest = hashlib.sha256(f"{seed}/{i}".encode("ascii")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        u = Fraction(rng.getrandbits(64), 2**64)
        t = next((k for k, acc in enumerate(cumulative) if acc > u), None)
        if t is None:
            raise LookupError("prior exhausted drawing a target")
        history, queries, found = [], 0, False
        for stage in range(1, stage_cap + 1):
            eps = Fraction(1, 2 ** (stage + 1))
            prefix = next((k + 1 for k, acc in enumerate(cumulative) if acc >= 1 - eps), None)
            if prefix is None:
                raise LookupError("prior exhausted covering a stage")
            budget = 1
            while Fraction(sum(math.comb(budget, j) for j in range(d)), 2**budget) >= eps:
                budget += 1
            alive = [
                k for k in range(prefix)
                if all(patterns[k][p] == label for p, label in history)
            ]
            for _ in range(budget):
                if not alive:
                    break
                key = tuple(alive)
                if key not in choice:
                    choice[key] = alive[ref_max_min([patterns[k] for k in alive], mu)]
                q = choice[key]
                queries += 1
                if q == t:
                    found = True
                    break
                diff = [p for p in range(len(mu)) if patterns[q][p] != patterns[t][p]]
                threshold = Fraction(rng.getrandbits(64), 2**64) * sum(mu[p] for p in diff)
                acc = Fraction(0)
                for p in diff:
                    acc += mu[p]
                    if acc > threshold:
                        break
                history.append((p, patterns[t][p]))
                alive = [k for k in alive if patterns[k][p] == patterns[t][p]]
            if found:
                break
        counts.append(queries)
    return counts


def ref_interval_respond(target, hypothesis, rng):
    """The interval teacher's answer to a hypothesis index against a
    target index: None when they are equal, else (point, label).

    Index i is the open interval (1/(i+2), 1/(i+1)). A variate
    u = r / 2**64, for r = getrandbits(64), picks the hypothesis's
    interval when its length exceeds u times the two lengths' sum, and
    the target's otherwise. A second variate v places the point at
    low + v * length of the picked interval, or at its midpoint when
    v = 0. The label is 1 when the point lies inside the target's
    interval.
    """
    if target == hypothesis:
        return None

    def interval(i):
        return Fraction(1, i + 2), Fraction(1, i + 1)

    len_h, len_t = (high - low for low, high in map(interval, (hypothesis, target)))
    u = Fraction(rng.getrandbits(64), 2**64)
    low, high = interval(hypothesis if len_h > u * (len_h + len_t) else target)
    v = Fraction(rng.getrandbits(64), 2**64)
    point = low + (v * (high - low) if v else (high - low) / 2)
    t_low, t_high = interval(target)
    return point, int(t_low < point < t_high)


def ref_sample_count(patterns, limit):
    """Distinct labeled samples over nonempty point subsets of at most
    `limit` points: per subset, the distinct restrictions of the patterns."""
    n = len(patterns[0])
    return sum(
        len({tuple(c[p] for p in subset) for c in patterns})
        for size in range(1, min(limit, n) + 1)
        for subset in combinations(range(n), size)
    )


def ref_samples_in_report_order(patterns, limit=None):
    """Every realizable sample {point index: label} over the nonempty point
    subsets of at most `limit` points (all by default), in the order a
    compression report lists them: by subset size, then in `combinations`
    order, then by the first pattern that realizes the sample."""
    n = len(patterns[0])
    for size in range(1, min(n, limit or n) + 1):
        for subset in combinations(range(n), size):
            for labels in dict.fromkeys(tuple(c[p] for p in subset) for c in patterns):
                yield dict(zip(subset, labels))


def mk_class(bitstrings, mu=None, labels=None):
    n = len(bitstrings[0])
    points = tuple(f"x{i + 1}" for i in range(n))
    if mu is None:
        domain = Domain.uniform(points)
    else:
        domain = Domain(points, tuple(Fraction(m) for m in mu))
    concepts = tuple(Concept.from_bitstring(domain, b) for b in bitstrings)
    return ConceptClass(domain, concepts, labels)


def subclass(cc, point, label):
    """The concepts of `cc` labeling `point` with `label`, in class order
    and with their labels."""
    p = cc.domain.index(point)
    keep = [i for i, c in enumerate(cc.concepts) if c.bits[p] == label]
    labels = None if cc.labels is None else tuple(cc.labels[i] for i in keep)
    return ConceptClass(cc.domain, tuple(cc.concepts[i] for i in keep), labels)


def one_hot(n):
    """n concepts over n uniform points, concept i labeling only point i."""
    return mk_class(["".join("1" if p == i else "0" for p in range(n)) for i in range(n)])


def one_hot_product(d, n):
    """The product of d one-hot blocks of n points, uniform over all d * n
    points: concept (i_1, ..., i_d), in `product` order, labels point i_b
    of each block b with 1 and every other point 0."""
    return mk_class([
        "".join("1" if p == i else "0" for i in picks for p in range(n))
        for picks in product(range(n), repeat=d)
    ])


@contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to `frames` above the current call depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


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


class StubRng:
    """A generator whose every 64-bit variate is `value`."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, bits):
        assert bits == 64
        return self.value


class ScriptedRng:
    """A generator whose 64-bit variates are `values`, in order."""

    def __init__(self, values):
        self.values = list(values)

    def getrandbits(self, bits):
        assert bits == 64
        return self.values.pop(0)


def write_class_file(path, cc, tau=None):
    from thicket import save_class

    path.write_bytes(save_class(cc, tau))
    return str(path)
