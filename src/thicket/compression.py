"""Sample compression sized by the class dimension, with d + 1 decoders.

A labeled sample realizable by a class of dimension d compresses to an
ordered tuple of exactly d of its own points (no extra label bits). The
compressor greedily restricts: while the sample is not exceptional for
the current class, it pins the first sample point (in domain order)
whose labeled restriction strictly drops the dimension. A full run pins
d points whose positively labeled prefix and negatively labeled suffix
pin down a single concept, so a threshold decoder recovers it. A run
that halts early, on a sample exceptional for the current class, emits
fewer points; the tuple is then padded with duplicates arranged so that
the duplication pattern itself encodes where the positive block ends,
and the decoder finishes with the canonical partial labeling of the
decoded restriction, which extends every exceptional sample.

Reconstruction needs d + 1 functions rho_0 .. rho_d: on a tuple of d
distinct points, rho_i reads the first i as positive and the rest as
negative. Duplicated tuples reach only rho_0 and rho_1, which double as
the early-halt decoders. All-equal tuples are shared between exceptional
empty runs and one-point encodings; the label that keeps the class
dimension at the repeated point (at most one exists) settles who decodes
what.

The scheme runs once, on indices: a class is a concept mask of an
:class:`LdimCache` root, a sample a point mask with label bits over the
same points (bit p is the label at point p), and a decoder returns
label bits. Each greedy step reads the current class's keep table
(`LdimCache.keeps`): a sample point drops the dimension when its label
is not the one kept there, and the step pins the lowest such point.

The greedy is written once, as a walk over the runs of many samples on
one point set: samples that have pinned the same points with the same
labels share the step that follows, so the runs form a prefix tree. A
node holds the current class and the group of concepts whose samples
reach it; one scan of its keep table hands each concept to the child at
its lowest dropping point, and the leaves are the samples, each with its
realizer mask. `greedy_run` and `compress` walk the realizers of one
sample, which give one leaf, and `build_reconstructors` names the
decoders' points. `certify_scheme` grows the point sets depth first, one
higher point at a time, and resumes the leaves of the set without its
highest point over the new point, so each shared step is taken once.
Verdicts carry down too: a resumed leaf keeps its tuple, so the answer
that recovered it is tested at the new point alone, and a full run
decoded to its realizer's whole labeling is settled on every larger set.
Decoders are pure functions of their tuple, so each is evaluated at most
once per distinct tuple, the one the tuple's shape names first.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Sequence

from .concepts import ClassValidationError, Concept, ConceptClass, PartialAssignment, _set, _Value
from .littlestone import LdimCache, _cache_for

__all__ = [
    "CompressionReport",
    "GreedyRun",
    "Reconstructor",
    "build_reconstructors",
    "certify_scheme",
    "compress",
    "greedy_run",
]

Reconstructor = Callable[[Sequence[str]], Concept]
Decoder = Callable[[tuple[int, ...]], int]


def _realizers(cache: LdimCache, mask: int, points: Sequence[int], key: int) -> int:
    """The concepts of `mask` agreeing with label bits `key` on `points`; key -1 is all ones."""
    for p in points:
        mask &= cache.level_mask(p, key >> p & 1)
    return mask


Leaf = tuple[int, int, tuple[int, ...], tuple[int, ...], int, int]
Level = tuple[int, int, int, int]


def _levels(cache: LdimCache, points: Iterable[int]) -> list[Level]:
    """``(bit, p, level 0, level 1)`` of each point index, as `_walk` scans them."""
    level = cache.level_mask
    return [(1 << p, p, level(p, 0), level(p, 1)) for p in points]


def _walk(
    cache: LdimCache, d: int, levels: list[Level], stack: list[Leaf], leaves: list[Leaf],
    held: list[Leaf] | None = None,
) -> list[Leaf]:
    """Walk the greedy runs of the nodes on `stack` over the ascending
    points `levels`, as one prefix tree; append its leaves to `leaves`.

    A node is ``(class, group, ones, zeros, scanned, got)``: a subclass,
    the group of concepts whose samples reach it, the points pinned with
    labels 1 and 0 so far, how many of `levels` its scan has passed, and
    label bits that recovered its sample on those points, or -1. Its
    keep table is read once; scanning on from there, the group's concepts
    whose label drops the dimension at a point are pinned there and form
    a child (scanned 0, got -1), and at a point where both labels drop it
    the rest splits by label. A child with d pins (its class is one
    concept) is a full run; a scan that ends with concepts left is an
    early halt, since those all carry the labels that keep the dimension.
    Either way the leaf is one sample, and its group is that sample's
    realizer mask. Returns `leaves`, in no set order.

    A leaf over some points resumes over one more, higher point from
    where it stopped: a child pinned at the new point does not split
    there, so its walk over the larger set is its walk over the smaller
    one. The label kept at the new point is its sample's there, so a
    resumed leaf whose `got` reads it goes to `held`, the others with
    got -1 to `leaves`.
    """
    keeps, known, end = cache.keeps, cache._keeps.get, len(levels)
    while stack:
        sub, rest, ones, zeros, scanned, got = stack.pop()
        # a child that pins the d-th point is a full run
        out = leaves if len(ones) + len(zeros) + 1 == d else stack
        keep0, keep1 = known(sub) or keeps(sub)  # a memo hit skips the call
        for bit, p, at0, at1 in levels[scanned:]:
            if not keep1 & bit:
                moved = rest & at1
                if moved:
                    rest ^= moved
                    out.append((sub & at1, moved, ones + (p,), zeros, 0, -1))
            if not keep0 & bit:
                moved = rest & at0
                if moved:
                    rest ^= moved
                    out.append((sub & at0, moved, ones, zeros + (p,), 0, -1))
            if not rest:
                break
        else:
            if got < 0 or (got ^ keep1) & bit:
                leaves.append((sub, rest, ones, zeros, end, -1))
            else:
                held.append((sub, rest, ones, zeros, end, got))
    return leaves


def _pad(ones: tuple[int, ...], zeros: tuple[int, ...], d: int, low: int) -> tuple[int, ...]:
    """The tuple of a greedy leaf, padded as `compress` documents; `low` is
    the lowest sample point."""
    if len(ones) + len(zeros) == d:
        return ones + zeros
    if ones:
        out, pad = ones + (ones[0],) + zeros, ones[0]
    elif zeros:
        out, pad = zeros + (zeros[0],), zeros[0]
    else:
        out, pad = (), low
    return out + (pad,) * (d - len(out))


def _index_decoders(cache: LdimCache, mask: int) -> tuple[Decoder, ...]:
    """rho_0 .. rho_d of the class `mask`, on tuples of d point indices.

    Each returns label bits; the lowest-index concept of the class is the
    fallback answer.
    """
    d = cache.ldim_mask(mask)
    bits = cache.point_bits
    default = bits[(mask & -mask).bit_length() - 1]

    def canon(sub: int) -> int:
        """Canonical partial labeling of the subclass, extended by 0."""
        return cache.keeps(sub)[1] if sub else default

    def make_rho(i: int) -> Decoder:
        def rho(points: tuple[int, ...]) -> int:
            distinct = len(set(points))
            if distinct == d and d != 1:
                sub = _realizers(cache, _realizers(cache, mask, points[:i], -1), points[i:], 0)
                return bits[(sub & -sub).bit_length() - 1] if sub else default
            # split (ones..., marker, zeros..., pads...) back into blocks; an
            # all-equal tuple reads as one pinned point unless it repeats
            # the point's stable label, which marks an exceptional empty run
            marks = [k for k, p in enumerate(points) if p == points[0]] + [d, d]
            if i > 1 or marks[1] == d and distinct > 1:
                return default
            if distinct == 1 and cache.keeps(mask)[i] >> points[0] & 1:
                return canon(mask)
            ones, zeros = points[: marks[1]], points[marks[1] + 1 : marks[2]]
            if i == 1:
                return canon(_realizers(cache, _realizers(cache, mask, ones, -1), zeros, 0))
            # rho_0 reads the whole pre-duplicate block as negative
            return canon(_realizers(cache, mask, ones, 0))

        return rho

    return tuple(make_rho(i) for i in range(d + 1))


def _root(concept_class: ConceptClass, cache: LdimCache | None) -> tuple[LdimCache, int]:
    """The class as a cache and concept mask; the empty class has no scheme."""
    if len(concept_class) == 0:
        raise ClassValidationError("the empty class has no compression scheme")
    return _cache_for(concept_class, cache)


def _index_run(
    concept_class: ConceptClass,
    sample: PartialAssignment,
    cache: LdimCache | None,
) -> tuple[int, list[int], Leaf]:
    """Validate a named sample and walk its realizers: the class dimension,
    the ascending sample point indices, and the sample's one leaf."""
    cache, mask = _root(concept_class, cache)
    if not sample:
        raise ValueError("cannot compress an empty sample")
    points: list[int] = []
    key = 0
    for point, label in sample.items():
        p = concept_class.domain.index(point)
        if label not in (0, 1):
            raise ValueError(f"sample labels must be 0 or 1, got {label!r}")
        points.append(p)
        key |= label << p
    points.sort()
    realizers = _realizers(cache, mask, points, key)
    if realizers == 0:
        raise ValueError("sample is not realizable by the class")
    d = cache.ldim_mask(mask)
    (leaf,) = _walk(cache, d, _levels(cache, points), [(mask, realizers, (), (), 0, -1)], [])
    return d, points, leaf


class GreedyRun(_Value):
    """Outcome of the greedy restriction pass over one sample.

    `ones` and `zeros` list the pinned points carrying labels 1 and 0,
    in the order they were chosen; `completed` tells whether the run
    performed all d steps (False means it halted on an exceptional
    sample, possibly immediately).
    """

    __match_args__ = ("ones", "zeros", "completed")
    __slots__ = __match_args__

    def __init__(self, ones: tuple[str, ...], zeros: tuple[str, ...], completed: bool) -> None:
        _set(self, "ones", ones)
        _set(self, "zeros", zeros)
        _set(self, "completed", completed)


def greedy_run(
    concept_class: ConceptClass,
    sample: PartialAssignment,
    cache: LdimCache | None = None,
) -> GreedyRun:
    """Run the greedy dimension-dropping pass; see the module docstring."""
    d, _, (_, _, ones, zeros, _, _) = _index_run(concept_class, sample, cache)
    names = concept_class.domain.points
    return GreedyRun(
        tuple(names[p] for p in ones),
        tuple(names[p] for p in zeros),
        len(ones) + len(zeros) == d,
    )


def compress(
    concept_class: ConceptClass,
    sample: PartialAssignment,
    cache: LdimCache | None = None,
) -> tuple[str, ...]:
    """Compress a realizable nonempty sample to exactly d sample points.

    Full runs emit their pinned points, positives first. Early halts pad
    with duplicates: a nonempty positive block emits
    (ones..., ones[0], zeros..., ones[0]...), an all-negative block emits
    (zeros..., zeros[0], zeros[0]...), and an immediate halt repeats the
    first sample point in domain order d times.
    """
    d, points, (_, _, ones, zeros, _, _) = _index_run(concept_class, sample, cache)
    tup = _pad(ones, zeros, d, points[0])
    return tuple(concept_class.domain.points[p] for p in tup)


def build_reconstructors(concept_class: ConceptClass) -> tuple[Reconstructor, ...]:
    """The d + 1 reconstruction functions of the class, rho_0 .. rho_d.

    Each is total on length-d point tuples. For every realizable
    nonempty sample f, at least one of them satisfies
    rho(compress(C, f)) restricted to dom(f) == f.
    """
    decoders = _index_decoders(*_root(concept_class, None))
    d = len(decoders) - 1
    domain = concept_class.domain

    def named(decode: Decoder) -> Reconstructor:
        def rho(points: Sequence[str]) -> Concept:
            points = tuple(points)
            if len(points) != d:
                raise ValueError(f"expected a tuple of {d} points, got {len(points)}")
            bits = decode(tuple(domain.index(p) for p in points))
            return Concept._from_point_bits(domain, bits)

        return rho

    return tuple(named(decode) for decode in decoders)


class CompressionReport(_Value):
    """Result of replaying a class's full finite-sample universe."""

    __match_args__ = ("dimension", "rho_count", "samples_tested", "failures")
    __slots__ = __match_args__

    def __init__(
        self,
        dimension: int,
        rho_count: int,
        samples_tested: int,
        failures: tuple[dict[str, Any], ...] = (),
    ) -> None:
        _set(self, "dimension", dimension)
        _set(self, "rho_count", rho_count)
        _set(self, "samples_tested", samples_tested)
        _set(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict[str, Any]:
        return {
            "d": self.dimension,
            "rho_count": self.rho_count,
            "samples_tested": self.samples_tested,
            "failures": list(self.failures),
        }


def certify_scheme(
    concept_class: ConceptClass,
    max_sample_size: int | None = None,
    cache: LdimCache | None = None,
) -> CompressionReport:
    """Compress and reconstruct every realizable sample, recording failures.

    Samples are restrictions of class concepts to nonempty point subsets
    of size up to `max_sample_size` (the whole domain by default): the
    leaves of the subset's walk. The subsets are searched depth first,
    each adding one point above its parent's and resuming the parent's
    leaves there, on an explicit stack that holds at most one leaf list
    per subset size. A sample fails when it is not realizable, its tuple
    is not d of its own points, or no reconstructor returns a concept
    agreeing with it; failures are listed by subset size, then subset in
    `combinations` order, then lowest realizer. A resumed leaf is checked
    afresh only when the answer it carries misses the new point, and a
    full run decoded to its one realizer is only counted from then on.
    """
    cache, mask = _root(concept_class, cache)
    n = len(concept_class.domain)
    limit = n if max_sample_size is None else max_sample_size
    if limit < 1:
        raise ValueError("max_sample_size must be at least 1")
    d = cache.ldim_mask(mask)
    rhos = tuple(functools.cache(rho) for rho in _index_decoders(cache, mask))
    bits = cache.point_bits
    names = concept_class.domain.points
    tested = 0
    failures: list[tuple[tuple[int, tuple[int, ...], int], dict[str, Any]]] = []
    # depth first over the subsets, each with its parent's unsettled
    # leaves and its count of settled runs: the empty set's one leaf is
    # the whole class, before any point is scanned
    table = _levels(cache, range(n))
    todo: list[tuple[tuple[int, ...], int, list[Leaf], int]] = [
        ((p,), 1 << p, [(mask, mask, (), (), 0, -1)], 0) for p in reversed(range(n))
    ]
    while todo:
        points, subset, carried, settled = todo.pop()
        held: list[Leaf] = []
        fresh = _walk(cache, d, [table[p] for p in points], carried[:], [], held)
        tested += len(fresh) + len(held) + settled
        inside = frozenset(points).issuperset
        for sub, realizers, ones, zeros, scanned, _ in fresh:
            # the leaf's sample, read off its lowest realizer (a leaf
            # with none would be a fault of the walk, reported below)
            row = bits[(realizers & -realizers).bit_length() - 1]
            key = row & subset
            tup = _pad(ones, zeros, d, points[0])
            full = len(ones) + len(zeros) == d
            got, problem = -1, None
            if not realizers:
                problem = "sample is not realizable by the class"
            elif len(tup) != d:
                problem = f"tuple has length {len(tup)}, expected {d}"
            elif not inside(tup):
                problem = "tuple uses points outside the sample"
            else:
                # try first the decoder the tuple's shape names: rho_i
                # for a full run with i ones, and the label of the
                # tuple's first point for an early halt
                for rho in (rhos[len(ones) if full else key >> tup[0] & 1], *rhos):
                    got = rho(tup)
                    if not (got ^ key) & subset:
                        break
                else:
                    got, problem = -1, "no reconstructor recovers the sample"
            if problem is not None:
                sample = {names[p]: key >> p & 1 for p in points}
                failure = {"sample": sample, "tuple": [names[p] for p in tup], "reason": problem}
                failures.append(((len(points), points, realizers & -realizers), failure))
            if full and got == row:
                # its one realizer's whole labeling: it passes on every
                # superset, where it is only counted
                settled += 1
            else:
                held.append((sub, realizers, ones, zeros, scanned, got))
        if len(points) < limit:
            todo.extend(
                (points + (p,), subset | 1 << p, held, settled)
                for p in reversed(range(points[-1] + 1, n))
            )
    # by subset size, then subset, then first-seen concept
    failures.sort(key=lambda failure: failure[0])
    return CompressionReport(
        dimension=d,
        rho_count=len(rhos),
        samples_tested=tested,
        failures=tuple(failure for _, failure in failures),
    )
