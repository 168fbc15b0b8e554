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
    "save_class",
]

# A partial assignment maps point names to labels in {0, 1}.
PartialAssignment = Mapping[str, int]

# cap on the points of a class file or an atomized staged prefix, to bound cost
MAX_CLASS_POINTS = 256


class ClassValidationError(ValueError):
    """An invariant of a domain, concept, or concept class is violated."""


class ClassFileError(ClassValidationError):
    """A class file cannot be parsed into a valid concept class."""


class _TooManyPoints(ClassFileError):
    """A class file lists more domain points than its reader's cap."""

    def __init__(self, points: int) -> None:
        super().__init__(f"class file has {points} points; at most {MAX_CLASS_POINTS} are supported")
        self.points = points


class DomainMismatchError(ValueError):
    """An operation mixed points or concepts from different domains."""


_set = object.__setattr__


class _Value:
    """Shared behaviour of the package's immutable value types.

    A subclass names its fields in ``__match_args__``, holds them in
    ``__slots__`` and stores them with ``_set`` from a hand-written
    ``__init__``. Instances compare equal only to instances of the same
    class with equal fields, identity first; equal values hash alike,
    over the field tuple; the repr is ``Name(field=value, ...)``; and
    assignment and deletion raise AttributeError. Copies and pickles
    call the constructor again, so they pass its validation.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Domain(_Value):
    """Ordered finite point set with strictly positive weights summing to 1."""

    __match_args__ = ("points", "mu")
    __slots__ = (*__match_args__, "_pos")

    def __init__(self, points: tuple[str, ...], mu: tuple[Fraction, ...]) -> None:
        if len(set(points)) != len(points):
            raise ClassValidationError("point identifiers must be unique")
        if len(mu) != len(points):
            raise ClassValidationError("need exactly one weight per point")
        if any(w <= 0 for w in mu):
            raise ClassValidationError("every point weight must be strictly positive")
        if sum(mu, Fraction(0)) != 1:
            raise ClassValidationError("point weights must sum to exactly 1")
        _set(self, "points", points)
        _set(self, "mu", mu)
        _set(self, "_pos", {p: i for i, p in enumerate(points)})

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
            return self._pos[point]
        except KeyError:
            raise DomainMismatchError(f"unknown point identifier {point!r}") from None


class Concept(_Value):
    """Total boolean labeling of a domain, stored in domain point order."""

    __match_args__ = ("domain", "bits")
    __slots__ = __match_args__

    def __init__(self, domain: Domain, bits: tuple[int, ...]) -> None:
        if len(bits) != len(domain.points):
            raise ClassValidationError("a concept must label every domain point")
        # True, 1.0 and Fraction(1) also count as 1; only the ints 0 and 1 pass
        if bits.count(0) + bits.count(1) != len(bits) or set(map(type, bits)) - {int}:
            raise ClassValidationError("concept labels must be 0 or 1")
        _set(self, "domain", domain)
        _set(self, "bits", bits)

    @classmethod
    def from_bitstring(cls, domain: Domain, text: str) -> "Concept":
        if set(text) - {"0", "1"}:
            raise ClassValidationError(f"invalid bitstring {_quote(text)}")
        return cls(domain, tuple(map(int, text)))

    @classmethod
    def _from_point_bits(cls, domain: Domain, row: int) -> "Concept":
        """The concept labeling point index p with bit p of `row`."""
        return cls(domain, tuple(map(int, format(row, f"0{len(domain)}b")[::-1])))

    def value(self, point: str) -> int:
        return self.bits[self.domain.index(point)]

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


class ConceptClass(_Value):
    """Ordered collection of distinct concepts over one shared domain.

    Order is canonical: it fixes every lowest-index tie-break downstream
    (query selection, reconstruction) and the serialization order of
    class files. An empty class is a legal value; a file may declare one
    with an empty "concepts" object.

    The class holds each concept's labels as one int in `point_bits`,
    bit p the label at point index p, which is all the algorithms read.
    A class loaded from a file holds only those ints and builds its
    `Concept` objects on the first read of `concepts`.
    """

    __match_args__ = ("domain", "concepts", "labels")
    __slots__ = ("domain", "labels", "point_bits", "_concepts", "_where")

    def __init__(
        self,
        domain: Domain,
        concepts: tuple[Concept, ...],
        labels: tuple[str, ...] | None = None,
    ) -> None:
        for c in concepts:
            if c.domain != domain:
                raise DomainMismatchError("concept defined over a different domain")
        self._fill(domain, tuple([_point_bits(c.bits) for c in concepts]), labels)
        _set(self, "_concepts", concepts)

    @classmethod
    def _from_point_bits(
        cls, domain: Domain, rows: tuple[int, ...], labels: tuple[str, ...] | None
    ) -> "ConceptClass":
        """The class of the concepts whose point-bits ints are `rows`."""
        self = cls.__new__(cls)
        self._fill(domain, rows, labels)
        _set(self, "_concepts", None)
        return self

    def _fill(
        self, domain: Domain, rows: tuple[int, ...], labels: tuple[str, ...] | None
    ) -> None:
        where = {row: i for i, row in enumerate(rows)}
        if len(where) != len(rows):
            raise ClassValidationError("duplicate concepts in class")
        if labels is not None:
            if len(labels) != len(rows):
                raise ClassValidationError("need exactly one label per concept")
            if len(set(labels)) != len(labels):
                raise ClassValidationError("concept labels must be unique")
        _set(self, "domain", domain)
        _set(self, "labels", labels)
        _set(self, "point_bits", rows)
        _set(self, "_where", where)

    @property
    def concepts(self) -> tuple[Concept, ...]:
        concepts = self._concepts
        if concepts is None:
            concepts = tuple(map(self._concept, range(len(self.point_bits))))
            _set(self, "_concepts", concepts)
        return concepts

    def _concept(self, i: int) -> Concept:
        if self._concepts is not None:
            return self._concepts[i]
        return Concept._from_point_bits(self.domain, self.point_bits[i])

    def __len__(self) -> int:
        return len(self.point_bits)

    def __contains__(self, concept: Concept) -> bool:
        return concept.domain == self.domain and _point_bits(concept.bits) in self._where

    def index_of(self, concept: Concept) -> int:
        if concept.domain != self.domain:
            raise DomainMismatchError("concept defined over a different domain")
        try:
            return self._where[_point_bits(concept.bits)]
        except KeyError:
            raise ValueError("concept is not a member of the class") from None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"c{i}"

    def by_label(self, name: str) -> Concept:
        if self.labels is None:
            raise ValueError("class has no concept labels")
        try:
            i = self.labels.index(name)
        except ValueError:
            raise ValueError(f"no concept labeled {name!r}") from None
        return self._concept(i)


def _point_bits(bits: tuple[int, ...]) -> int:
    """The labels as one int, bit p holding bits[p]."""
    return int(bytes(bits[::-1]).translate(_DIGITS) or b"0", 2)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


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


def _quote(value: object) -> str:
    """repr(value) for an error message, cut to a bounded length.

    A class file can hold a string of megabytes or a list nested hundreds
    deep. reprlib quotes at most 60 characters of each string or number,
    6 items of each container and 6 levels of nesting, and the result is
    cut after 200 characters; a value within those bounds is quoted
    exactly as repr quotes it.
    """
    import reprlib  # loaded on the error path only

    short = reprlib.Repr()
    short.maxstring = short.maxlong = short.maxother = 60
    text = short.repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _parse_weight(text: object, what: str) -> Fraction:
    if not isinstance(text, str):
        raise ClassFileError(f"{what} must be a rational string, got {_quote(text)}")
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ClassFileError(f"malformed {what} {_quote(text)}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's dict, refusing a key that appears twice in it."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ClassFileError(f"duplicate key {_quote(key)} in class file")
            seen.add(key)
    return obj


def load_class_with_prior(
    data: bytes | str, capped: bool = False
) -> tuple[ConceptClass, tuple[Fraction, ...] | None]:
    """Parse a class file, returning the class and its optional prior.

    The prior ("tau") assigns one nonnegative rational to each concept,
    summing to at most 1; a sum below 1 marks a truncated enumeration.
    A key repeated within any JSON object of the file is an error, not a
    silent overwrite. With `capped`, a file of more than MAX_CLASS_POINTS
    points is refused before any weight is parsed.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ClassFileError(f"class file is not UTF-8: {exc}") from None
    try:
        raw = json.loads(data, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ClassFileError(f"invalid JSON: {exc}") from None
    except ClassFileError:  # a repeated key
        raise
    except ValueError:  # an integer past Python's limit on the digits of an int
        raise ClassFileError("invalid JSON: a number has too many digits") from None
    except RecursionError:
        raise ClassFileError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ClassFileError("class file must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ClassFileError(f"unknown class file keys: {_quote(sorted(unknown))}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ClassFileError(f"missing class file keys: {sorted(missing)}")

    points = raw["domain"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ClassFileError('"domain" must be a list of point names')
    if capped and len(points) > MAX_CLASS_POINTS:
        raise _TooManyPoints(len(points))
    weights = raw["mu"]
    if not isinstance(weights, list) or len(weights) != len(points):
        raise ClassFileError('"mu" must list one weight per domain point')
    domain = Domain(tuple(points), tuple(_parse_weight(w, "weight") for w in weights))

    entries = raw["concepts"]
    if not isinstance(entries, dict) or not all(isinstance(k, str) for k in entries):
        raise ClassFileError('"concepts" must map labels to bitstrings')
    rows = []
    for name, bits in entries.items():
        if not isinstance(bits, str):
            raise ClassFileError(f"concept {_quote(name)} must be a bitstring")
        if len(bits) != len(points):
            raise ClassFileError(
                f"concept {_quote(name)} has bitstring length {len(bits)}, expected {len(points)}"
            )
        # int() alone would also take "_", spaces, signs and non-ASCII digits
        if bits.strip("01"):
            raise ClassValidationError(f"invalid bitstring {_quote(bits)}")
        rows.append(int(bits[::-1], 2))
    cls = ConceptClass._from_point_bits(domain, tuple(rows), tuple(entries.keys()))

    tau = None
    if "tau" in raw:
        raw_tau = raw["tau"]
        if not isinstance(raw_tau, list) or len(raw_tau) != len(rows):
            raise ClassFileError('"tau" must list one prior weight per concept')
        tau = tuple(_parse_weight(t, "prior weight") for t in raw_tau)
        if any(t < 0 for t in tau):
            raise ClassFileError("prior weights must be nonnegative")
        if sum(tau, Fraction(0)) > 1:
            raise ClassFileError("prior weights must sum to at most 1")
    return cls, tau


def load_class(data: bytes | str, capped: bool = False) -> ConceptClass:
    """Parse a class file. Any "tau" entry is validated and dropped;
    `capped` is as for `load_class_with_prior`."""
    return load_class_with_prior(data, capped)[0]


def save_class(concept_class: ConceptClass, tau: Iterable[Fraction] | None = None) -> bytes:
    """Serialize a class (and optional prior) to class file bytes.

    Round trip: loading the output yields an equal class, with generated
    labels c0, c1, ... when the input had none.
    """
    labels = [concept_class.label(i) for i in range(len(concept_class))]
    width = f"0{len(concept_class.domain)}b"
    doc: dict[str, object] = {
        "domain": list(concept_class.domain.points),
        "mu": [str(w) for w in concept_class.domain.mu],
        "concepts": {
            name: format(row, width)[::-1]
            for name, row in zip(labels, concept_class.point_bits)
        },
    }
    if tau is not None:
        doc["tau"] = [str(t) for t in tau]
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
