"""Staged learning of countable concept classes under a target prior.

A countable class cannot be learned with a uniformly bounded number of
equivalence queries, even when every finite prefix has tiny dimension:
the interval family below is the standard witness. It becomes learnable
in expectation once the target is drawn from a known prior tau. The
staged learner runs the finite max-min learner on growing enumeration
prefixes with shrinking failure budgets:

  stage k:  eps_k = 1 / 2**(k+1)
            prefix   = shortest enumeration prefix with prior mass >= 1 - eps_k
            budget   = smallest n whose chance of fewer than d dimension
                       drops in n fair-coin queries is below eps_k, where
                       d bounds the dimension of every prefix

Within a stage the learner proposes hypotheses from the prefix concepts
still consistent with every counterexample seen so far, a concept mask
of one query graph per prefix over an exact atomization of the domain.
When the budget runs out or no consistent prefix concept remains, the
next stage restarts with a longer prefix and a stricter budget. Each
query drops the dimension by at least 1/2 in expectation only: for d = 1
drops are 0 or 1, as the coin model assumes, but for d >= 2 one query
can drop it by 2 with probability 2/5 and by 0 otherwise (a witness is
in tests/test_staged.py), so the budget's failure bound is unproven.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import Counter
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from .concepts import (
    MAX_CLASS_POINTS,
    ClassValidationError,
    ConceptClass,
    Domain,
    _set,
    _Value,
)
from .learner import (
    QuerySummary,
    TeacherResponse,
    _trial_generators,
    sample_index,
    teacher_respond,
)
from .littlestone import ldim
from .querygraph import QueryGraph

__all__ = [
    "AtomizedPrefix",
    "CountableFamily",
    "FiniteFamily",
    "IntervalFamily",
    "PriorExhaustedError",
    "StageSchedule",
    "StagedResult",
    "StagedSummary",
    "negative_feedback_probability",
    "prefix_size",
    "run_staged_learner",
    "sample_target",
    "schedule_for",
    "stage_epsilon",
    "staged_trials",
    "step_budget",
]


class PriorExhaustedError(ValueError):
    """A truncated enumeration ran out before reaching the required mass."""


class AtomizedPrefix(_Value):
    """Finite image of an enumeration prefix.

    `cls` holds one concept per prefix member, in the order the handles
    were given, over a domain whose points are atoms on which every
    prefix concept is constant. `locate` maps a real domain point to the
    name of its atom, so real counterexamples translate to atom-level
    restrictions without losing information about the prefix.
    """

    __match_args__ = ("cls", "locate")
    __slots__ = __match_args__

    def __init__(self, cls: ConceptClass, locate: Callable[[Any], str]) -> None:
        _set(self, "cls", cls)
        _set(self, "locate", locate)


class CountableFamily(ABC):
    """A countable concept class with an enumeration and a target prior.

    Concepts are addressed by their 0-based enumeration index. Points of
    the underlying domain are family specific (rationals for interval
    families, point names for finite ones); only `atomize` and `respond`
    touch them, so the interface has no point-level labeling method of
    its own.
    """

    #: upper bound on the dimension of every enumeration prefix, >= 1
    ldim_bound: int = 1

    #: number of concepts, or None when the enumeration is infinite
    size: int | None = None

    def __init__(self) -> None:
        # stage -> StageSchedule, filled by schedule_for as stages are reached
        self._schedules: dict[int, StageSchedule] = {}
        # prefix length -> (atomization, query graph), filled by prefix_graph
        self._graphs: dict[int, tuple[AtomizedPrefix, QueryGraph]] = {}
        # index i -> (num, den) of prior(0) + ... + prior(i) in lowest
        # terms, extended by sample_target as far as its draws reach
        self._cumulative: list[tuple[int, int]] = []

    @abstractmethod
    def prior(self, index: int) -> Fraction:
        """Prior probability of the concept at `index`."""

    @abstractmethod
    def atomize(self, indices: list[int]) -> AtomizedPrefix:
        """Exact finite quotient of the domain for the given concepts."""

    @abstractmethod
    def respond(self, target: int, hypothesis: int, rng: random.Random) -> TeacherResponse:
        """Teacher step over real points, exactly as the finite teacher."""

    @abstractmethod
    def describe(self) -> str:
        """Short functional name used in reports."""

    def prefix_graph(self, n: int) -> tuple[AtomizedPrefix, QueryGraph]:
        """The first n concepts atomized, with one query graph over them.

        Kept per prefix length, not per live set: live sets follow each
        trial's history, prefixes only the stage, so every stage and trial
        on a prefix shares the graph's memos. A live set is a concept mask
        of the graph, bit i for enumeration index i.
        """
        hit = self._graphs.get(n)
        if hit is None:
            atoms = self.atomize(list(range(n)))
            hit = self._graphs[n] = (atoms, QueryGraph(atoms.cls))
        return hit

    def priors(self) -> Iterator[Fraction]:
        i = 0
        while self.size is None or i < self.size:
            yield self.prior(i)
            i += 1


def stage_epsilon(stage: int) -> Fraction:
    """Failure budget of a stage: eps_k = 1 / 2**(k+1), stages from 1."""
    if stage < 1:
        raise ValueError("stages are numbered from 1")
    return Fraction(1, 2 ** (stage + 1))


def prefix_size(priors: Iterable[Fraction], eps: Fraction) -> int:
    """Shortest prefix whose cumulative prior mass reaches 1 - eps.

    Raises PriorExhaustedError when a finite (truncated) enumeration
    ends first.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    need = 1 - eps
    acc = Fraction(0)
    for n, w in enumerate(priors, start=1):
        acc += w
        if acc >= need:
            return n
    raise PriorExhaustedError(f"enumeration ended at mass {acc}, needed {need}")


def step_budget(dimension_bound: int, eps: Fraction) -> int:
    """Smallest n such that n fair coin flips show fewer than d heads
    with probability below eps, for d the dimension bound.

    The exact tail sum(C(n, j) for j < d) / 2**n is driven below eps; no
    looser closed form is used, keeping the budget minimal. It models
    each query as a dimension drop with probability 1/2, which the query
    graph guarantees for d = 1 and only in expectation for d >= 2.
    """
    if dimension_bound < 1:
        raise ValueError("dimension bound must be at least 1")
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    n = 1
    while True:
        tail = Fraction(
            sum(math.comb(n, j) for j in range(min(dimension_bound, n + 1))), 2**n
        )
        if tail < eps:
            return n
        n += 1


class StageSchedule(_Value):
    """Resolved parameters of one stage."""

    __match_args__ = ("stage", "eps", "prefix", "budget")
    __slots__ = __match_args__

    def __init__(self, stage: int, eps: Fraction, prefix: int, budget: int) -> None:
        _set(self, "stage", stage)
        _set(self, "eps", eps)
        _set(self, "prefix", prefix)
        _set(self, "budget", budget)


def schedule_for(family: CountableFamily, stage: int) -> StageSchedule:
    """Resolved parameters of a stage of the family.

    A stage is resolved when it is first asked for and then kept on the
    family, so a truncated prior raises PriorExhaustedError only once a
    run reaches a stage it cannot cover (and again on every such ask).
    """
    plan = family._schedules.get(stage)
    if plan is None:
        eps = stage_epsilon(stage)
        plan = family._schedules[stage] = StageSchedule(
            stage=stage,
            eps=eps,
            prefix=prefix_size(family.priors(), eps),
            budget=step_budget(family.ldim_bound, eps),
        )
    return plan


class IntervalFamily(CountableFamily):
    """Open intervals (1/(n+1), 1/n) for n >= 1 under a geometric prior.

    The intervals are pairwise disjoint, so every prefix has dimension
    exactly 1 once it holds two concepts, yet no finite query bound works
    for an adversarial target: a hypothesis interval almost always eats
    the counterexample mass of a much smaller target interval, yielding
    only the near-useless negative answer. The geometric prior
    tau(n) = ratio * (1 - ratio)**(n-1) restores finite expected cost.

    Points are exact rationals in (0, 1); the n-th concept (0-based
    index n-1) labels x positive iff 1/(n+1) < x < 1/n.
    """

    def __init__(self, ratio: Fraction = Fraction(1, 2)) -> None:
        super().__init__()
        ratio = Fraction(ratio)
        if not 0 < ratio < 1:
            raise ValueError("prior ratio must lie strictly between 0 and 1")
        self.ratio = ratio

    def describe(self) -> str:
        return f"intervals(ratio={self.ratio})"

    def interval(self, index: int) -> tuple[Fraction, Fraction]:
        """Open interval of the concept at 0-based `index`."""
        if index < 0:
            raise ValueError("enumeration indices start at 0")
        n = index + 1
        return Fraction(1, n + 1), Fraction(1, n)

    def length(self, index: int) -> Fraction:
        low, high = self.interval(index)
        return high - low

    def prior(self, index: int) -> Fraction:
        if index < 0:
            raise ValueError("enumeration indices start at 0")
        return self.ratio * (1 - self.ratio) ** index

    def eval(self, index: int, point: Any) -> int:
        """Label of the concept at `index` at a rational point."""
        low, high = self.interval(index)
        return 1 if low < point < high else 0

    def atomize(self, indices: list[int]) -> AtomizedPrefix:
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate enumeration indices")
        if len(indices) >= MAX_CLASS_POINTS:
            raise ClassValidationError(
                f"a prefix of {len(indices)} intervals atomizes to {len(indices) + 1} points;"
                f" at most {MAX_CLASS_POINTS} are supported"
            )
        names = [f"i{i + 1}" for i in indices]
        lengths = [self.length(i) for i in indices]
        rest = 1 - sum(lengths, Fraction(0))
        # total interval length is sum 1/(n(n+1)) = 1, so any finite
        # selection leaves the remainder atom strictly positive mass
        domain = Domain(tuple(names) + ("rest",), tuple(lengths) + (rest,))
        # concept k is positive on atom k alone
        rows = tuple([1 << k for k in range(len(indices))])
        cls = ConceptClass._from_point_bits(domain, rows, tuple(names))
        slots = {i + 1: name for name, i in zip(names, indices)}

        def locate(point: Any) -> str:
            # x = a/b lies in (1/(k+1), 1/k) for k = b // a, unless a divides b
            x = point if isinstance(point, Fraction) else Fraction(point)
            if x.numerator <= 0:
                return "rest"
            k, r = divmod(x.denominator, x.numerator)
            return slots.get(k, "rest") if r else "rest"

        return AtomizedPrefix(cls, locate)

    def respond(self, target: int, hypothesis: int, rng: random.Random) -> TeacherResponse:
        if target == hypothesis:
            return TeacherResponse()
        if target < 0 or hypothesis < 0:
            raise ValueError("enumeration indices start at 0")
        # interval i has length 1 / L_i for L_i = (i + 1)(i + 2); scaled by
        # L_h * L_t, the hypothesis's and target's lengths are L_t and L_h
        pick = (hypothesis, target)[
            sample_index([(target + 1) * (target + 2), (hypothesis + 1) * (hypothesis + 2)], rng)
        ]
        # the point low + r / 2**64 * length of interval n - 1; r = 0 would
        # land on the open boundary, so it takes the midpoint, r = 2**63
        n, r = pick + 1, rng.getrandbits(64) or 1 << 63
        # the intervals are disjoint, so the target holds the point iff picked
        return TeacherResponse(Fraction((n << 64) + r, n * (n + 1) << 64), int(pick == target))


class FiniteFamily(CountableFamily):
    """A finite concept class file read as a (possibly truncated) family.

    Enumeration order is the class's concept order; the prior is the
    file's tau entry. A tau summing below 1 models a truncated
    enumeration: stages whose mass demand exceeds the total raise
    PriorExhaustedError.
    """

    def __init__(
        self,
        concept_class: ConceptClass,
        tau: tuple[Fraction, ...],
        name: str = "finite",
    ) -> None:
        super().__init__()
        if len(tau) != len(concept_class):
            raise ValueError("need exactly one prior weight per concept")
        if any(t < 0 for t in tau):
            raise ValueError("prior weights must be nonnegative")
        if sum(tau, Fraction(0)) > 1:
            raise ValueError("prior weights must sum to at most 1")
        if len(concept_class) == 0:
            raise ValueError("a family needs at least one concept")
        self.concept_class = concept_class
        self.tau = tau
        self.name = name
        self.size = len(concept_class)
        self.ldim_bound = max(1, ldim(concept_class))

    def describe(self) -> str:
        return self.name

    def prior(self, index: int) -> Fraction:
        return self.tau[index]

    def atomize(self, indices: list[int]) -> AtomizedPrefix:
        cc = self.concept_class
        cls = ConceptClass(
            cc.domain,
            tuple(cc.concepts[i] for i in indices),
            tuple(cc.label(i) for i in indices),
        )
        return AtomizedPrefix(cls, lambda point: point)

    def respond(self, target: int, hypothesis: int, rng: random.Random) -> TeacherResponse:
        cc = self.concept_class
        return teacher_respond(cc.concepts[target], cc.concepts[hypothesis], cc.domain, rng)


class StagedResult(_Value):
    """Outcome of one staged run.

    `history` lists every counterexample as (real point, target label);
    by construction the target is consistent with all of them. When
    `identified` is False the run used up the stage cap.
    """

    __match_args__ = ("identified", "queries", "stages", "history")
    __slots__ = __match_args__

    def __init__(
        self, identified: bool, queries: int, stages: int, history: tuple[tuple[Any, int], ...]
    ) -> None:
        _set(self, "identified", identified)
        _set(self, "queries", queries)
        _set(self, "stages", stages)
        _set(self, "history", history)


def run_staged_learner(
    family: CountableFamily,
    target: int,
    rng: random.Random,
    stage_cap: int = 30,
) -> StagedResult:
    """Learn an enumeration member with staged prefixes and budgets.

    Counterexample history carries across stages; each stage keeps only
    prefix concepts consistent with the history, so the target is never
    discarded from any prefix that contains it. Returns an unidentified
    result when `stage_cap` stages all fail. Raises ValueError for an
    invalid target, PriorExhaustedError when a stage needs more prior
    mass than a truncated enumeration holds, and ClassValidationError
    when an interval prefix would atomize to more than MAX_CLASS_POINTS
    points.
    """
    if target < 0 or (family.size is not None and target >= family.size):
        raise ValueError("target is not a valid enumeration index")
    history: list[tuple[Any, int]] = []
    queries = 0
    for stage in range(1, stage_cap + 1):
        plan = schedule_for(family, stage)
        atoms, graph = family.prefix_graph(plan.prefix)
        cache, index = graph.cache, atoms.cls.domain.index
        # prefix concepts are constant on atoms, so restricting to each
        # counterexample's atom keeps exactly the consistent ones
        mask = cache.full_mask
        for point, label in history:
            mask = cache.restrict_mask(mask, index(atoms.locate(point)), label)
        for _ in range(plan.budget):
            if mask == 0:
                break
            response = family.respond(target, graph.best_query(mask), rng)
            queries += 1
            if response.equivalent:
                return StagedResult(True, queries, stage, tuple(history))
            history.append((response.point, response.label))
            atom = index(atoms.locate(response.point))
            mask = cache.restrict_mask(mask, atom, response.label)
    return StagedResult(False, queries, stage_cap, tuple(history))


def sample_target(family: CountableFamily, rng: random.Random) -> int:
    """Draw an enumeration index from the family's prior.

    Takes one variate r = getrandbits(64), as unit_variate does, and
    returns the first index whose cumulative prior num/den has
    num * 2**64 > r * den, the decision cumulative > r / 2**64 in
    integers. The cumulative priors are kept on the family and extended
    only as far as a draw reaches, so no trial re-sums them.
    """
    r = rng.getrandbits(64)
    sums = family._cumulative
    i = 0
    while True:
        if i == len(sums):
            acc = Fraction(*sums[-1]) if sums else Fraction(0)
            if family.size is not None and i >= family.size:
                u = Fraction(r, 1 << 64)
                raise PriorExhaustedError(f"prior mass {acc} exhausted below variate {u}")
            acc += family.prior(i)
            sums.append((acc.numerator, acc.denominator))
        num, den = sums[i]
        if num << 64 > r * den:
            return i
        i += 1


class StagedSummary(QuerySummary):
    """Summary of seeded staged runs with prior-drawn targets.

    `counts` holds the query count of each trial, in trial order.
    """

    __match_args__ = (*QuerySummary.__match_args__, "family", "stage_cap", "identified", "counts")
    __slots__ = ("family", "stage_cap", "identified", "counts")

    def __init__(
        self,
        trials: int,
        seed: int,
        mean: Fraction,
        variance: Fraction,
        max_queries: int,
        family: str,
        stage_cap: int,
        identified: int,
        counts: tuple[int, ...],
    ) -> None:
        super().__init__(trials, seed, mean, variance, max_queries)
        _set(self, "family", family)
        _set(self, "stage_cap", stage_cap)
        _set(self, "identified", identified)
        _set(self, "counts", counts)

    def as_dict(self) -> dict[str, Any]:
        payload = super().as_dict(self.family, "tau")
        payload["stage_cap"] = self.stage_cap
        payload["identified"] = self.identified
        return payload

    def csv_row(self) -> str:
        return super().csv_row(self.family, "tau")


def staged_trials(
    family: CountableFamily,
    trials: int,
    seed: int,
    stage_cap: int = 30,
) -> StagedSummary:
    """Seeded staged runs, one prior-drawn target per trial.

    Trial i draws its target, then its run, from one generator reseeded
    to the state of random.Random(derive_seed(seed, i)), so any single
    trial can be replayed in isolation with that generator.

    For the interval family, stage 1 is resolved on at most the
    MAX_CLASS_POINTS - 1 intervals the point cap allows before the first
    draw, raising ClassValidationError when they fall short: at a tiny
    prior ratio a draw would otherwise sum about 1 / ratio priors.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(family, IntervalFamily):
        try:
            prefix_size(islice(family.priors(), MAX_CLASS_POINTS - 1), stage_epsilon(1))
        except PriorExhaustedError:
            raise ClassValidationError(
                f"stage 1 needs more than {MAX_CLASS_POINTS - 1} intervals, which atomize"
                f" to more than {MAX_CLASS_POINTS} points; at most {MAX_CLASS_POINTS}"
                " are supported"
            ) from None
    counts: list[int] = []
    identified = 0
    for rng in _trial_generators(seed, trials):
        target = sample_target(family, rng)
        result = run_staged_learner(family, target, rng, stage_cap)
        counts.append(result.queries)
        if result.identified:
            identified += 1
    return StagedSummary(
        seed=seed,
        family=family.describe(),
        stage_cap=stage_cap,
        identified=identified,
        counts=tuple(counts),
        **QuerySummary.tally(Counter(counts)),
    )


def negative_feedback_probability(
    family: IntervalFamily,
    prefix: int,
    target: int,
) -> Fraction:
    """Chance the first counterexample lands inside the queried interval.

    The plain (unstaged) max-min learner on the first `prefix` interval
    concepts proposes the smallest interval of the prefix. Against a
    target interval of index `target` (0-based, outside or inside the
    prefix but different from the proposal), the teacher's draw lands in
    the hypothesis interval, where the target's label is 0, with
    probability len(hyp) / (len(hyp) + len(target)). As the target index
    grows this tends to 1: the learner almost always receives only the
    useless negative answer, which is why no uniform query bound exists
    for the unstaged learner on this family.
    """
    if prefix < 1:
        raise ValueError("prefix must hold at least one concept")
    graph = family.prefix_graph(prefix)[1]
    hyp = graph.best_query(graph.cache.full_mask)
    if hyp == target:
        raise ValueError("the proposal equals the target; no counterexample exists")
    len_h = family.length(hyp)
    len_t = family.length(target)
    return len_h / (len_h + len_t)
