"""Equivalence-query learner against a random-counterexample teacher.

The learner repeatedly proposes the max-min query of the current class.
The teacher either confirms equivalence with the hidden target or draws
a counterexample point from mu conditioned on the symmetric difference
of hypothesis and target, revealing the target's label there. The
learner keeps only the concepts consistent with that label and repeats.

Every random draw takes one 64-bit uniform variate r and compares
integers: with the weights scaled to integer masses whose running sums
end in the total D, it picks the first index whose running mass acc
exceeds r * D >> 64. For integers, acc > r * D >> 64 holds exactly when
acc * 2**64 > r * D, the decision acc > (r / 2**64) * D makes in the
dyadic rationals. So sampling is reproducible across platforms and
exact up to 2**-64.

The learner draws on the query graph's masses, mu scaled once, through
a transition table kept per target and filled only for the subclasses a
run reaches. An entry says that the teacher confirms there, or holds
the query, its difference points with the target, their running masses
and the subclass each counterexample leaves; a draw is one bisection of
r * D >> 64 into the running masses. A Monte Carlo trial walks the
table and counts queries, building no object, and every trial of a
call shares the table. Exact expected query counts come from a dynamic
program over the same table, reading D as the last running mass, not
from simulation; it walks the reachable subclasses on an explicit
stack, so no recursion depth grows with the class.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Any, Callable, Iterator, Mapping, Sequence

from .concepts import Concept, ConceptClass, Domain, _set, _Value
from .querygraph import QueryGraph

__all__ = [
    "QuerySummary",
    "TeacherResponse",
    "Transcript",
    "TrialSummary",
    "derive_seed",
    "exact_expected_queries",
    "monte_carlo_trials",
    "run_thicket_learner",
    "sample_index",
    "teacher_respond",
    "unit_variate",
]


class TeacherResponse(_Value):
    """Either an equivalence confirmation or one labeled counterexample.

    `point` is None exactly for the confirmation; otherwise it is a
    domain point (a point name here, a rational number for the interval
    families in :mod:`thicket.staged`) and `label` is the target's value
    at that point.
    """

    __match_args__ = ("point", "label")
    __slots__ = __match_args__

    def __init__(self, point: Any = None, label: int | None = None) -> None:
        _set(self, "point", point)
        _set(self, "label", label)

    @property
    def equivalent(self) -> bool:
        return self.point is None


class Transcript(_Value):
    """Ordered record of one learning run.

    The last response is an equivalence confirmation iff the run ended
    by identifying the target.
    """

    __match_args__ = ("queries",)
    __slots__ = __match_args__

    def __init__(self, queries: tuple[tuple[Concept, TeacherResponse], ...]) -> None:
        _set(self, "queries", queries)

    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def identified(self) -> bool:
        return bool(self.queries) and self.queries[-1][1].equivalent


# hashlib.sha256, fetched by the first seeded call: loading hashlib
# sets up OpenSSL, which unseeded commands never need
_sha256: Callable[[bytes], Any] | None = None


def _hash(data: bytes) -> Any:
    """A SHA-256 hash object fed `data`, loading hashlib on first use."""
    global _sha256
    if _sha256 is None:
        import hashlib

        _sha256 = hashlib.sha256
    return _sha256(data)


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit per-trial seed, independent of platform hashing."""
    digest = _hash(f"{master}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _trial_generators(seed: int, trials: int) -> Iterator[random.Random]:
    """One generator, yielded for each trial i in range(trials) in the
    state of random.Random(derive_seed(seed, i)); the one reseeding path
    of the trial loops here and in :mod:`thicket.staged`.

    The prefix f"{seed}/" is hashed once and each trial hashes its index
    onto a copy. The reseed is the C seed of random.Random's base class,
    which random.Random.seed calls for an int after its str/bytes
    dispatch; the wrapper's other step resets the state of gauss, which
    nothing here reads, since every draw is getrandbits.
    """
    head = _hash(f"{seed}/".encode("ascii"))
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    for i in range(trials):
        key = head.copy()
        key.update(b"%d" % i)
        reseed(int.from_bytes(key.digest()[:8], "big"))
        yield rng


def unit_variate(rng: random.Random) -> Fraction:
    """A uniform dyadic rational in [0, 1) with 64 bits of resolution."""
    return Fraction(rng.getrandbits(64), 1 << 64)


def sample_index(weights: Sequence[Fraction | int], rng: random.Random) -> int:
    """Draw an index with probability proportional to its exact weight.

    The weights are Fractions or ints, both exact rationals with a
    numerator and a denominator, and must be nonnegative. They are scaled
    by their least common denominator to integer masses, which leaves
    every comparison unchanged, and one variate r picks the first index
    whose running mass exceeds r * D >> 64, for D the total.
    """
    if not weights:
        raise ValueError("cannot sample from an empty weight sequence")
    scale = math.lcm(*(w.denominator for w in weights))
    masses = [w.numerator * (scale // w.denominator) for w in weights]
    if min(masses) < 0:
        raise ValueError("weights must be nonnegative")
    running = list(accumulate(masses))
    if running[-1] == 0:
        raise ValueError("weights must have positive total mass")
    return bisect_right(running, rng.getrandbits(64) * running[-1] >> 64)


def teacher_respond(
    target: Concept,
    hypothesis: Concept,
    domain: Domain,
    rng: random.Random,
) -> TeacherResponse:
    """One teacher step: confirm equality or sample a labeled counterexample.

    The counterexample point is drawn from mu conditioned on the
    symmetric difference, so each disagreement point a is returned with
    probability mu(a) / mu(difference).
    """
    if target.domain != domain or hypothesis.domain != domain:
        raise ValueError("target and hypothesis must live on the given domain")
    diff = [
        p
        for p in range(len(domain))
        if target.bits[p] != hypothesis.bits[p]
    ]
    if not diff:
        return TeacherResponse()
    pick = diff[sample_index([domain.mu[p] for p in diff], rng)]
    point = domain.points[pick]
    return TeacherResponse(point, target.bits[pick])


# a transition: the query, its ascending difference points with the
# target, their running masses, the last being their mass D, and the
# subclass each point's counterexample leaves
_Step = tuple[int, tuple[int, ...], list[int], list[int]]


class _Transitions(dict[int, "_Step | None"]):
    """The learner's moves against one target on one query graph, filled
    only for the subclass masks a run reaches.

    `table[mask]` is None when the max-min query of the subclass is the
    target, so the teacher confirms; otherwise it is the subclass's
    _Step. A counterexample is `successors[k]` for k the first point whose
    running mass exceeds r * D >> 64, the decision of `sample_index`, with
    equality passing to the next point. Masses are positive, so D > 0 and
    exceeds every r * D >> 64. Concepts are distinct, so a query other
    than the target always leaves a difference to draw from.
    """

    def __init__(self, graph: QueryGraph, t: int) -> None:
        super().__init__()
        self.graph, self.t = graph, t
        self.row = graph.cache.point_bits[t]

    def __missing__(self, mask: int) -> _Step | None:
        graph, t, row = self.graph, self.t, self.row
        q = graph.best_query(mask)
        step = None
        if q != t:
            points, running, acc = graph.diff_points(q, t), [], 0
            for p in points:
                acc += graph.mass[p]
                running.append(acc)
            restrict = graph.cache.restrict_mask
            step = (q, points, running, [restrict(mask, p, row >> p & 1) for p in points])
        self[mask] = step
        return step


def _start(
    concept_class: ConceptClass, target: Concept, graph: QueryGraph | None
) -> tuple[_Transitions, int]:
    """The transition table of `target`, which must be a member of the
    class, on `graph` (a new graph of the class when None), and the
    class's mask."""
    if graph is None:
        graph = QueryGraph(concept_class)
    concept_class.index_of(target)  # membership check
    return _Transitions(graph, graph.root.index_of(target)), graph.cache.mask_of(concept_class)


def run_thicket_learner(
    concept_class: ConceptClass,
    target: Concept,
    rng: random.Random,
    graph: QueryGraph | None = None,
) -> Transcript:
    """Run the max-min learner until the teacher confirms the target.

    The target must be a member of the class; it then survives every
    restriction, the class shrinks by at least the queried concept per
    counterexample, and the run halts with probability 1.
    """
    table, mask = _start(concept_class, target, graph)
    root, t = table.graph.root, table.t
    points, bits = root.domain.points, target.bits
    entries: list[tuple[Concept, TeacherResponse]] = []
    while True:
        step = table[mask]
        if step is None:
            entries.append((root.concepts[t], TeacherResponse()))
            return Transcript(tuple(entries))
        q, diff, running, successors = step
        k = bisect_right(running, rng.getrandbits(64) * running[-1] >> 64)
        p = diff[k]
        entries.append((root.concepts[q], TeacherResponse(points[p], bits[p])))
        mask = successors[k]


def exact_expected_queries(
    concept_class: ConceptClass,
    target: Concept,
    graph: QueryGraph | None = None,
) -> Fraction:
    """Exact expected number of queries to identify `target`.

    Averages over the teacher's counterexample draws by dynamic
    programming on subclasses: a run in a subclass costs one query plus
    the mass-weighted expectation over the restrictions the possible
    counterexamples lead to. The count includes the final confirming
    query, so the expectation is exactly 1 when the first query is the
    target and never exceeds 2 * ldim + 1 overall: each counterexample
    drops the dimension by at least 1/2 in expectation, and one more
    query confirms.
    """
    table, start = _start(concept_class, target, graph)
    mass = table.graph.mass
    # E(mask) as a reduced (numerator, denominator) pair of ints
    memo: dict[int, tuple[int, int]] = {}
    # post-order over the reachable masks on an explicit stack: a mask is
    # expanded (its table entry) when first popped, then pushed back with
    # its step above the subclasses its counterexamples leave, so it is
    # valued after them; those drop the queried concept, so they are
    # strictly smaller and the walk has no cycles
    stack: list[tuple[int, _Step | None]] = [(start, None)]
    while stack:
        mask, step = stack.pop()
        if step is not None:
            # mu conditioned on the difference is mass[p] / D in the graph's
            # integers: 1 + sum of mass[p] * E(sub) / D, over one denominator
            _, points, running, successors = step
            values = [memo[sub] for sub in successors]
            scale = math.lcm(*[d for _, d in values])
            den = scale * running[-1]
            num = den + sum([mass[p] * n * (scale // d) for p, (n, d) in zip(points, values)])
            g = math.gcd(num, den)
            memo[mask] = (num // g, den // g)
            continue
        if mask in memo:
            continue
        step = table[mask]
        if step is None:
            memo[mask] = (1, 1)
            continue
        stack.append((mask, step))
        stack.extend((sub, None) for sub in reversed(step[3]) if sub not in memo)
    return Fraction(*memo[start])


class QuerySummary(_Value):
    """Exact statistics of the query counts of seeded learning runs.

    Mean and variance are exact rationals computed from integer tallies;
    `variance` is the unbiased sample variance, 0 when there are fewer
    than two trials. :class:`TrialSummary` and
    :class:`~thicket.staged.StagedSummary` share these fields, their
    report keys and their CSV columns.
    """

    __match_args__ = ("trials", "seed", "mean", "variance", "max_queries")
    __slots__ = __match_args__

    def __init__(
        self, trials: int, seed: int, mean: Fraction, variance: Fraction, max_queries: int
    ) -> None:
        _set(self, "trials", trials)
        _set(self, "seed", seed)
        _set(self, "mean", mean)
        _set(self, "variance", variance)
        _set(self, "max_queries", max_queries)

    @staticmethod
    def tally(histogram: Mapping[int, int]) -> dict[str, Any]:
        """The fields other than `seed` for a nonempty histogram that
        maps each query count to its frequency."""
        trials = sum(histogram.values())
        mean = Fraction(sum(k * v for k, v in histogram.items()), trials)
        if trials > 1:
            square_sum = sum(v * (k - mean) ** 2 for k, v in histogram.items())
            variance = square_sum / (trials - 1)
        else:
            variance = Fraction(0)
        return {
            "trials": trials,
            "mean": mean,
            "variance": variance,
            "max_queries": max(histogram),
        }

    def as_dict(self, class_name: str, target: str) -> dict[str, Any]:
        return {
            "class": class_name,
            "target": target,
            "trials": self.trials,
            "seed": self.seed,
            "mean": str(self.mean),
            "variance": str(self.variance),
            "max": self.max_queries,
        }

    def csv_row(self, class_name: str, target: str) -> str:
        return (
            f"{class_name},{target},{self.trials},{self.seed},"
            f"{self.mean},{self.variance},{self.max_queries}"
        )

    @staticmethod
    def csv_header() -> str:
        return "class,target,trials,seed,mean,variance,max"


class TrialSummary(QuerySummary):
    """Exact summary statistics over seeded Monte Carlo learning runs.

    `histogram` pairs each observed query count with its frequency,
    sorted by count.
    """

    __match_args__ = (*QuerySummary.__match_args__, "histogram")
    __slots__ = ("histogram",)

    def __init__(
        self,
        trials: int,
        seed: int,
        mean: Fraction,
        variance: Fraction,
        max_queries: int,
        histogram: tuple[tuple[int, int], ...],
    ) -> None:
        super().__init__(trials, seed, mean, variance, max_queries)
        _set(self, "histogram", histogram)

    def as_dict(self, class_name: str, target: str) -> dict[str, Any]:
        payload = super().as_dict(class_name, target)
        payload["histogram"] = {str(k): v for k, v in self.histogram}
        return payload


def monte_carlo_trials(
    concept_class: ConceptClass,
    target: Concept,
    trials: int,
    seed: int,
    graph: QueryGraph | None = None,
) -> TrialSummary:
    """Run seeded independent learning trials and summarize query counts.

    Trial i draws from one generator reseeded to the state of
    random.Random(derive_seed(seed, i)), so any single trial can be
    replayed in isolation: its query count is that of run_thicket_learner
    with that generator. The trials walk one transition table and count
    queries without building a transcript.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    table, mask = _start(concept_class, target, graph)
    start = table[mask]
    counts: dict[int, int] = {}
    for rng in _trial_generators(seed, trials):
        variate = rng.getrandbits
        step, n = start, 1
        while step is not None:
            _, _, running, successors = step
            step = table[successors[bisect_right(running, variate(64) * running[-1] >> 64)]]
            n += 1
        counts[n] = counts.get(n, 0) + 1
    return TrialSummary(
        seed=seed,
        histogram=tuple(sorted(counts.items())),
        **QuerySummary.tally(counts),
    )
