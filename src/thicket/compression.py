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
(`LdimCache.keeps`): the sample points that drop the dimension are one
mask, and the pinned point is its lowest bit. `greedy_run`, `compress`
and `build_reconstructors` wrap this core with point names.
`certify_scheme` drives it directly over the distinct
``concept_bits & S`` of every point mask S and reports violations, none
of which should exist; decoders are pure functions of their tuple, so
it evaluates each at most once per distinct tuple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Sequence

from .concepts import ClassValidationError, Concept, ConceptClass, PartialAssignment
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
    """The concepts of `mask` agreeing with label bits `key` on `points`."""
    for p in points:
        mask &= cache.level_mask(p, key >> p & 1)
    return mask


def _greedy(
    cache: LdimCache, mask: int, d: int, subset: int, key: int
) -> tuple[list[int], list[int], bool]:
    """The greedy pass over the sample points `subset`, ascending: the points
    pinned with labels 1 and 0, in the order chosen, and whether all d steps
    ran."""
    keeps, level = cache.keeps, cache.level_mask
    ones: list[int] = []
    zeros: list[int] = []
    for _ in range(d):
        keep0, keep1 = keeps(mask)
        # the sample points whose labeled restriction drops the dimension
        drops = subset & ~(keep1 & key | keep0 & ~key)
        if not drops:
            # every labeled restriction keeps the dimension: exceptional
            return ones, zeros, False
        p = (drops & -drops).bit_length() - 1
        label = key >> p & 1
        (ones if label else zeros).append(p)
        mask &= level(p, label)
    return ones, zeros, True


def _compress(
    cache: LdimCache, mask: int, d: int, subset: int, key: int
) -> tuple[int, ...]:
    """Compress on indices; see `compress` for the padding."""
    ones, zeros, completed = _greedy(cache, mask, d, subset, key)
    if completed:
        return tuple(ones + zeros)
    if ones:
        out, pad = ones + [ones[0]] + zeros, ones[0]
    elif zeros:
        out, pad = zeros + [zeros[0]], zeros[0]
    else:
        out, pad = [], (subset & -subset).bit_length() - 1
    return tuple(out + [pad] * (d - len(out)))


def _index_decoders(cache: LdimCache, mask: int) -> tuple[Decoder, ...]:
    """rho_0 .. rho_d of the class `mask`, on tuples of d point indices.

    Each returns label bits; the lowest-index concept of the class is the
    fallback answer.
    """
    d = cache.ldim_mask(mask)
    level = cache.level_mask
    bits = cache.point_bits
    default = bits[(mask & -mask).bit_length() - 1]
    # the class's canonical labeling is the label keeping d at each point
    stable, stable_ones = cache.canonical_mask(mask)

    def canon(sub: int) -> int:
        """Canonical partial labeling of the subclass, extended by 0."""
        return cache.keeps(sub)[1] if sub else default

    def restrict_all(points: Sequence[int], label: int, sub: int) -> int:
        for p in points:
            sub &= level(p, label)
        return sub

    def make_rho(i: int) -> Decoder:
        def rho(points: tuple[int, ...]) -> int:
            distinct = len(set(points))
            if distinct == d and d != 1:
                sub = restrict_all(points[i:], 0, restrict_all(points[:i], 1, mask))
                return bits[(sub & -sub).bit_length() - 1] if sub else default
            # split (ones..., marker, zeros..., pads...) back into blocks; an
            # all-equal tuple reads as one pinned point unless it repeats
            # the point's stable label, which marks an exceptional empty run
            marks = [k for k, p in enumerate(points) if p == points[0]] + [d, d]
            if i > 1 or marks[1] == d and distinct > 1:
                return default
            head = points[0]
            if distinct == 1 and stable >> head & 1 and (stable_ones >> head & 1) == i:
                return canon(mask)
            ones, zeros = points[: marks[1]], points[marks[1] + 1 : marks[2]]
            if i == 1:
                return canon(restrict_all(zeros, 0, restrict_all(ones, 1, mask)))
            # rho_0 reads the whole pre-duplicate block as negative
            return canon(restrict_all(ones, 0, mask))

        return rho

    return tuple(make_rho(i) for i in range(d + 1))


def _root(concept_class: ConceptClass, cache: LdimCache | None) -> tuple[LdimCache, int]:
    """The class as a cache and concept mask; the empty class has no scheme."""
    if len(concept_class) == 0:
        raise ClassValidationError("the empty class has no compression scheme")
    return _cache_for(concept_class, cache)


def _index_sample(
    concept_class: ConceptClass,
    sample: PartialAssignment,
    cache: LdimCache | None,
) -> tuple[LdimCache, int, int, int, int]:
    """Validate a named sample; return the arguments of the index core."""
    cache, mask = _root(concept_class, cache)
    if not sample:
        raise ValueError("cannot compress an empty sample")
    points: list[int] = []
    subset = key = 0
    for point, label in sample.items():
        p = concept_class.domain.index(point)
        if label not in (0, 1):
            raise ValueError(f"sample labels must be 0 or 1, got {label!r}")
        points.append(p)
        subset |= 1 << p
        key |= label << p
    if _realizers(cache, mask, points, key) == 0:
        raise ValueError("sample is not realizable by the class")
    return cache, mask, cache.ldim_mask(mask), subset, key


@dataclass(frozen=True)
class GreedyRun:
    """Outcome of the greedy restriction pass over one sample.

    `ones` and `zeros` list the pinned points carrying labels 1 and 0,
    in the order they were chosen; `completed` tells whether the run
    performed all d steps (False means it halted on an exceptional
    sample, possibly immediately).
    """

    ones: tuple[str, ...]
    zeros: tuple[str, ...]
    completed: bool


def greedy_run(
    concept_class: ConceptClass,
    sample: PartialAssignment,
    cache: LdimCache | None = None,
) -> GreedyRun:
    """Run the greedy dimension-dropping pass; see the module docstring."""
    ones, zeros, completed = _greedy(*_index_sample(concept_class, sample, cache))
    names = concept_class.domain.points
    return GreedyRun(
        tuple(names[p] for p in ones), tuple(names[p] for p in zeros), completed
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
    tup = _compress(*_index_sample(concept_class, sample, cache))
    return tuple(concept_class.domain.points[p] for p in tup)


def build_reconstructors(
    concept_class: ConceptClass,
    cache: LdimCache | None = None,
) -> tuple[Reconstructor, ...]:
    """The d + 1 reconstruction functions of the class, rho_0 .. rho_d.

    Each is total on length-d point tuples. For every realizable
    nonempty sample f, at least one of them satisfies
    rho(compress(C, f)) restricted to dom(f) == f.
    """
    cache, mask = _root(concept_class, cache)
    decoders = _index_decoders(cache, mask)
    d = len(decoders) - 1
    domain = concept_class.domain

    def named(decode: Decoder) -> Reconstructor:
        def rho(points: Sequence[str]) -> Concept:
            points = tuple(points)
            if len(points) != d:
                raise ValueError(f"expected a tuple of {d} points, got {len(points)}")
            bits = decode(tuple(domain.index(p) for p in points))
            return Concept(domain, tuple(bits >> p & 1 for p in range(len(domain))))

        return rho

    return tuple(named(decode) for decode in decoders)


@dataclass(frozen=True)
class CompressionReport:
    """Result of replaying a class's full finite-sample universe."""

    dimension: int
    rho_count: int
    samples_tested: int
    failures: tuple[dict[str, Any], ...] = field(default=())

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
    of size up to `max_sample_size` (the whole domain by default), taken
    per subset in first-seen concept order. A sample fails when it is not
    realizable, its tuple is not d of its own points, or no reconstructor
    returns a concept agreeing with it. Decoders are pure functions of
    their tuple, so each is evaluated at most once per distinct tuple.
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
    failures: list[dict[str, Any]] = []
    for size in range(1, min(limit, n) + 1):
        for points in combinations(range(n), size):
            subset = sum(1 << p for p in points)
            seen: set[int] = set()
            for concept_bits in bits:
                key = concept_bits & subset
                if key in seen:
                    continue
                seen.add(key)
                tested += 1
                realizable = _realizers(cache, mask, points, key) != 0
                # the greedy needs a realizable sample: its classes stay nonempty
                tup = _compress(cache, mask, d, subset, key) if realizable else ()
                problem = None
                if not realizable:
                    problem = "sample is not realizable by the class"
                elif len(tup) != d:
                    problem = f"tuple has length {len(tup)}, expected {d}"
                elif sum(1 << p for p in set(tup)) & ~subset:
                    problem = "tuple uses points outside the sample"
                elif not any((rho(tup) ^ key) & subset == 0 for rho in rhos):
                    problem = "no reconstructor recovers the sample"
                if problem is not None:
                    sample = {names[p]: key >> p & 1 for p in points}
                    named = [names[p] for p in tup]
                    failures.append({"sample": sample, "tuple": named, "reason": problem})
    return CompressionReport(
        dimension=d,
        rho_count=len(rhos),
        samples_tested=tested,
        failures=tuple(failures),
    )
