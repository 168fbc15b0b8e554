"""Finite weighted domains, boolean concepts, and concept classes.

Every algorithm in this package operates on the immutable value types
defined here. Probability weights are exact rationals end to end: the
inequalities that matter downstream (edge-weight sums, query ranks,
cycle deficiency) sit exactly on the boundary value 1/2, where floating
point would misclassify.

Class files are JSON documents of the form::

    {
      "domain":   ["x1", "x2", "x3"],
      "mu":       ["1/6", "1/3", "1/2"],
      "concepts": {"A": "010", "B": "110"},
      "tau":      ["1/2", "1/2"]          // optional prior, used by `staged`
    }

Weights are rational strings: "p/q" or an integer, in ASCII digits with
an optional leading sign; any other spelling is rejected. Concept
bitstrings follow domain point order; the order of the "concepts" object
is the canonical concept order of the loaded class.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "ClassFileError",
    "ClassValidationError",
    "Concept",
    "ConceptClass",
    "Domain",
    "DomainMismatchError",
    "PartialAssignment",
    "load_class",
    "load_class_with_prior",
    "mass",
    "restrict",
    "save_class",
    "symmetric_difference",
]

# A partial assignment maps point names to labels in {0, 1}.
PartialAssignment = Mapping[str, int]


class ClassValidationError(ValueError):
    """An invariant of a domain, concept, or concept class is violated."""


class ClassFileError(ClassValidationError):
    """A class file cannot be parsed into a valid concept class."""


class DomainMismatchError(ValueError):
    """An operation mixed points or concepts from different domains."""


@dataclass(frozen=True)
class Domain:
    """Ordered finite point set with strictly positive weights summing to 1."""

    points: tuple[str, ...]
    mu: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ClassValidationError("point identifiers must be unique")
        if len(self.mu) != len(self.points):
            raise ClassValidationError("need exactly one weight per point")
        if any(w <= 0 for w in self.mu):
            raise ClassValidationError("every point weight must be strictly positive")
        if sum(self.mu, Fraction(0)) != 1:
            raise ClassValidationError("point weights must sum to exactly 1")
        object.__setattr__(self, "_pos", {p: i for i, p in enumerate(self.points)})

    @classmethod
    def uniform(cls, points: Iterable[str]) -> "Domain":
        pts = tuple(points)
        if not pts:
            raise ClassValidationError("a domain needs at least one point")
        return cls(pts, tuple(Fraction(1, len(pts)) for _ in pts))

    def __len__(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._pos[point]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainMismatchError(f"unknown point identifier {point!r}") from None

    def weight(self, point: str) -> Fraction:
        return self.mu[self.index(point)]


@dataclass(frozen=True)
class Concept:
    """Total boolean labeling of a domain, stored in domain point order."""

    domain: Domain
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.domain):
            raise ClassValidationError("a concept must label every domain point")
        if any(b not in (0, 1) for b in self.bits):
            raise ClassValidationError("concept labels must be 0 or 1")

    @classmethod
    def from_bitstring(cls, domain: Domain, text: str) -> "Concept":
        if set(text) - {"0", "1"}:
            raise ClassValidationError(f"invalid bitstring {text!r}")
        return cls(domain, tuple(int(ch) for ch in text))

    def value(self, point: str) -> int:
        return self.bits[self.domain.index(point)]

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def as_assignment(self) -> dict[str, int]:
        """The concept as a total point-to-label map."""
        return dict(zip(self.domain.points, self.bits))


@dataclass(frozen=True)
class ConceptClass:
    """Ordered collection of distinct concepts over one shared domain.

    Order is canonical: it fixes every lowest-index tie-break downstream
    (query selection, reconstruction) and the serialization order of
    class files. An empty class is a legal value; it normally arises as
    the result of a restriction, though a file may declare one with an
    empty "concepts" object.
    """

    domain: Domain
    concepts: tuple[Concept, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for c in self.concepts:
            if c.domain != self.domain:
                raise DomainMismatchError("concept defined over a different domain")
        seen = {c.bits for c in self.concepts}
        if len(seen) != len(self.concepts):
            raise ClassValidationError("duplicate concepts in class")
        if self.labels is not None:
            if len(self.labels) != len(self.concepts):
                raise ClassValidationError("need exactly one label per concept")
            if len(set(self.labels)) != len(self.labels):
                raise ClassValidationError("concept labels must be unique")
        object.__setattr__(self, "_where", {c.bits: i for i, c in enumerate(self.concepts)})

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept: Concept) -> bool:
        return concept.domain == self.domain and concept.bits in self._where  # type: ignore[attr-defined]

    def index_of(self, concept: Concept) -> int:
        if concept.domain != self.domain:
            raise DomainMismatchError("concept defined over a different domain")
        try:
            return self._where[concept.bits]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError("concept is not a member of the class") from None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"c{i}"

    def by_label(self, name: str) -> Concept:
        if self.labels is None:
            raise ValueError("class has no concept labels")
        try:
            return self.concepts[self.labels.index(name)]
        except ValueError:
            raise ValueError(f"no concept labeled {name!r}") from None


def restrict(concept_class: ConceptClass, assignment: PartialAssignment) -> ConceptClass:
    """Subclass of concepts agreeing with `assignment` at every assigned point.

    The empty assignment returns an equal class. Concept order and labels
    are preserved.
    """
    positions = []
    for point, label in assignment.items():
        if label not in (0, 1):
            raise ClassValidationError(f"assignment labels must be 0 or 1, got {label!r}")
        positions.append((concept_class.domain.index(point), label))
    keep = [
        i
        for i, c in enumerate(concept_class.concepts)
        if all(c.bits[p] == v for p, v in positions)
    ]
    labels = None
    if concept_class.labels is not None:
        labels = tuple(concept_class.labels[i] for i in keep)
    return ConceptClass(
        concept_class.domain,
        tuple(concept_class.concepts[i] for i in keep),
        labels,
    )


def symmetric_difference(a: Concept, b: Concept) -> frozenset[str]:
    """Points where the two concepts disagree. Empty iff the concepts are equal."""
    if a.domain != b.domain:
        raise DomainMismatchError("concepts live on different domains")
    return frozenset(
        p for p, x, y in zip(a.domain.points, a.bits, b.bits) if x != y
    )


def mass(domain: Domain, points: Iterable[str]) -> Fraction:
    """Total weight of a set of points. Empty sets have mass 0."""
    total = Fraction(0)
    for p in set(points):
        total += domain.weight(p)
    return total


_REQUIRED_KEYS = {"domain", "mu", "concepts"}
_ALLOWED_KEYS = _REQUIRED_KEYS | {"tau"}


# Only the documented spellings reach Fraction, which would also expand
# exponents ("1e-99999999") into integers of any size. Python's limit on
# the digits of an int bounds the sizes this grammar admits.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An exact rational from "p/q" or an integer string.

    Raises ValueError for any other spelling and ZeroDivisionError for a
    zero denominator.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational string: {text!r}")
    return Fraction(text)


def _parse_weight(text: object, what: str) -> Fraction:
    if not isinstance(text, str):
        raise ClassFileError(f"{what} must be a rational string, got {text!r}")
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ClassFileError(f"malformed {what} {text!r}") from None


def load_class_with_prior(data: bytes | str) -> tuple[ConceptClass, tuple[Fraction, ...] | None]:
    """Parse a class file, returning the class and its optional prior.

    The prior ("tau") assigns one nonnegative rational to each concept,
    summing to at most 1; a sum below 1 marks a truncated enumeration.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ClassFileError(f"class file is not UTF-8: {exc}") from None
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ClassFileError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ClassFileError("class file must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ClassFileError(f"unknown class file keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ClassFileError(f"missing class file keys: {sorted(missing)}")

    points = raw["domain"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ClassFileError('"domain" must be a list of point names')
    weights = raw["mu"]
    if not isinstance(weights, list) or len(weights) != len(points):
        raise ClassFileError('"mu" must list one weight per domain point')
    domain = Domain(tuple(points), tuple(_parse_weight(w, "weight") for w in weights))

    entries = raw["concepts"]
    if not isinstance(entries, dict) or not all(isinstance(k, str) for k in entries):
        raise ClassFileError('"concepts" must map labels to bitstrings')
    concepts = []
    for name, bits in entries.items():
        if not isinstance(bits, str):
            raise ClassFileError(f"concept {name!r} must be a bitstring")
        if len(bits) != len(points):
            raise ClassFileError(
                f"concept {name!r} has bitstring length {len(bits)}, expected {len(points)}"
            )
        concepts.append(Concept.from_bitstring(domain, bits))
    cls = ConceptClass(domain, tuple(concepts), tuple(entries.keys()))

    tau = None
    if "tau" in raw:
        raw_tau = raw["tau"]
        if not isinstance(raw_tau, list) or len(raw_tau) != len(concepts):
            raise ClassFileError('"tau" must list one prior weight per concept')
        tau = tuple(_parse_weight(t, "prior weight") for t in raw_tau)
        if any(t < 0 for t in tau):
            raise ClassFileError("prior weights must be nonnegative")
        if sum(tau, Fraction(0)) > 1:
            raise ClassFileError("prior weights must sum to at most 1")
    return cls, tau


def load_class(data: bytes | str) -> ConceptClass:
    """Parse a class file. Any "tau" entry is validated and dropped."""
    return load_class_with_prior(data)[0]


def save_class(concept_class: ConceptClass, tau: Iterable[Fraction] | None = None) -> bytes:
    """Serialize a class (and optional prior) to class file bytes.

    Round trip: loading the output yields an equal class, with generated
    labels c0, c1, ... when the input had none.
    """
    labels = [concept_class.label(i) for i in range(len(concept_class))]
    doc: dict[str, object] = {
        "domain": list(concept_class.domain.points),
        "mu": [str(w) for w in concept_class.domain.mu],
        "concepts": {
            name: c.bitstring() for name, c in zip(labels, concept_class.concepts)
        },
    }
    if tau is not None:
        doc["tau"] = [str(t) for t in tau]
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
