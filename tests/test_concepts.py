import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thicket import (
    ClassFileError,
    ClassValidationError,
    Concept,
    ConceptClass,
    Domain,
    DomainMismatchError,
    LdimCache,
    load_class,
    load_class_with_prior,
    save_class,
)

from thicket.concepts import _quote

from helpers import c3, mk_class


def test_domain_rejects_duplicate_points():
    with pytest.raises(ClassValidationError):
        Domain(("x1", "x1"), (Fraction(1, 2), Fraction(1, 2)))


def test_domain_rejects_nonpositive_weight():
    with pytest.raises(ClassValidationError):
        Domain(("x1", "x2"), (Fraction(0), Fraction(1)))


def test_domain_rejects_bad_total():
    with pytest.raises(ClassValidationError):
        Domain(("x1", "x2"), (Fraction(1, 2), Fraction(1, 3)))


def test_uniform_domain():
    d = Domain.uniform(("a", "b", "c"))
    assert d.mu == (Fraction(1, 3),) * 3
    assert d.index("c") == 2
    assert len(d) == 3


def test_domain_unknown_point():
    d = Domain.uniform(("a", "b"))
    with pytest.raises(DomainMismatchError):
        d.index("z")


def test_concept_bitstring_round_trip():
    d = Domain.uniform(("x1", "x2", "x3"))
    c = Concept.from_bitstring(d, "101")
    assert c.bitstring() == "101"
    assert c.value("x1") == 1
    assert c.value("x2") == 0


def test_concept_length_mismatch():
    d = Domain.uniform(("x1", "x2"))
    with pytest.raises(ClassValidationError):
        Concept.from_bitstring(d, "101")


@pytest.mark.parametrize(
    "bits",
    [(True, False), (1, False), (1.0, 0), (0, 1.0), (Fraction(1), 0), (1, 2), (-1, 0)],
    ids=repr,
)
def test_concept_labels_must_be_the_ints_0_or_1(bits):
    # bool, float and Fraction labels compare equal to 0 or 1
    d = Domain.uniform(("x1", "x2"))
    with pytest.raises(ClassValidationError, match="concept labels must be 0 or 1"):
        Concept(d, bits)
    assert Concept(d, (1, 0)).bitstring() == "10"


def test_class_rejects_duplicate_concepts():
    with pytest.raises(ClassValidationError):
        mk_class(["10", "10"])


def test_class_rejects_duplicate_labels():
    with pytest.raises(ClassValidationError):
        mk_class(["10", "01"], labels=("A", "A"))


def test_class_lookup():
    cc = c3()
    assert len(cc) == 3
    assert cc.label(2) == "C"
    b = cc.by_label("B")
    assert b.bitstring() == "01"
    assert cc.index_of(b) == 1
    assert b in cc
    outsider = Concept.from_bitstring(cc.domain, "00")
    assert outsider not in cc


def test_generated_labels():
    cc = mk_class(["10", "01"])
    assert [cc.label(i) for i in range(2)] == ["c0", "c1"]


def test_load_minimal_singleton():
    doc = {"domain": ["p"], "mu": ["1"], "concepts": {"A": "0"}}
    cc = load_class(json.dumps(doc).encode())
    assert len(cc) == 1
    assert cc.label(0) == "A"
    assert cc.concepts[0].bits == (0,)


def test_load_rejects_bad_weight_total():
    doc = {
        "domain": ["p", "q"],
        "mu": ["1/2", "1/3"],
        "concepts": {"A": "00"},
    }
    with pytest.raises(ClassValidationError):
        load_class(json.dumps(doc).encode())


def test_load_rejects_duplicate_bitstrings():
    doc = {
        "domain": ["p", "q"],
        "mu": ["1/2", "1/2"],
        "concepts": {"A": "01", "B": "01"},
    }
    with pytest.raises(ClassValidationError):
        load_class(json.dumps(doc).encode())


def test_load_rejects_unknown_keys():
    doc = {
        "domain": ["p"],
        "mu": ["1"],
        "concepts": {"A": "0"},
        "extra": 1,
    }
    with pytest.raises(ClassValidationError):
        load_class(json.dumps(doc).encode())


def test_load_rejects_wrong_bitstring_length():
    doc = {"domain": ["p", "q"], "mu": ["1/2", "1/2"], "concepts": {"A": "0"}}
    with pytest.raises(ClassValidationError):
        load_class(json.dumps(doc).encode())


def test_tau_validation():
    base = {
        "domain": ["p"],
        "mu": ["1"],
        "concepts": {"A": "0", "B": "1"},
    }
    ok = dict(base, tau=["1/2", "1/4"])
    cc, tau = load_class_with_prior(json.dumps(ok).encode())
    assert tau == (Fraction(1, 2), Fraction(1, 4))
    bad = dict(base, tau=["3/4", "1/2"])
    with pytest.raises(ClassValidationError):
        load_class_with_prior(json.dumps(bad).encode())
    negative = dict(base, tau=["-1/4", "1/2"])
    with pytest.raises(ClassValidationError):
        load_class_with_prior(json.dumps(negative).encode())


def test_save_load_round_trip_with_prior():
    cc = c3()
    tau = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    blob = save_class(cc, tau)
    cc2, tau2 = load_class_with_prior(blob)
    assert cc2 == cc
    assert tau2 == tau
    assert save_class(cc2, tau2) == blob


bitstring_classes = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.integers(0, 2**n - 1), min_size=1, max_size=6, unique=True
    ).map(lambda ks: [format(k, f"0{n}b") for k in ks])
)


@settings(deadline=None, max_examples=60)
@given(bitstring_classes)
def test_file_round_trip_property(bits):
    cc = mk_class(bits)
    loaded = load_class(save_class(cc))
    assert loaded.domain == cc.domain
    assert loaded.concepts == cc.concepts
    assert [loaded.label(i) for i in range(len(loaded))] == [
        cc.label(i) for i in range(len(cc))
    ]
    assert save_class(loaded) == save_class(cc)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"domain":["x1","x2"],"mu":["1/2","1/2"],"concepts":{"A":"01","A":"10","B":"11"}}', "A"),
        ('{"domain":["x1","x2"],"mu":["1/2","1/2"],"mu":["1/4","3/4"],"concepts":{}}', "mu"),
    ],
    ids=["concept-label", "mu"],
)
def test_load_rejects_duplicate_keys(text, key):
    with pytest.raises(ClassFileError, match=f"duplicate key {key!r} in class file"):
        load_class_with_prior(text)


def _drawn_class(seed, n, m):
    """A labeled class of m distinct concepts on n points with integer
    weights, built from Concept objects, and its class file text."""
    rng = random.Random(seed)
    raw = [rng.randint(1, 9) for _ in range(n)]
    domain = Domain(tuple(f"x{p}" for p in range(n)), tuple(Fraction(w, sum(raw)) for w in raw))
    rows = []
    while len(rows) < m:
        v = rng.getrandbits(n)
        if v not in rows:
            rows.append(v)
    concepts = tuple(Concept(domain, tuple(v >> p & 1 for p in range(n))) for v in rows)
    labels = tuple(f"L{k}" for k in range(m))
    text = json.dumps({
        "domain": list(domain.points),
        "mu": [str(w) for w in domain.mu],
        "concepts": {name: "".join(map(str, c.bits)) for name, c in zip(labels, concepts)},
    })
    return ConceptClass(domain, concepts, labels), text


@pytest.mark.parametrize("n, m", [(1, 2), (6, 20), (10, 64), (70, 9)])
def test_loaded_class_matches_the_class_built_from_concepts(n, m):
    eager, text = _drawn_class(f"load {n} {m}", n, m)
    loaded = load_class(text)
    assert loaded == eager and eager == loaded
    assert hash(loaded) == hash(eager)
    assert repr(load_class(text)) == repr(eager)
    for twin in (copy.copy(loaded), copy.deepcopy(loaded), pickle.loads(pickle.dumps(loaded))):
        assert twin == eager and hash(twin) == hash(eager)
    # the rows and level masks of the loaded class, against the Concept tuples
    fresh, built = LdimCache(load_class(text)), LdimCache(eager)
    rows = [sum(b << p for p, b in enumerate(c.bits)) for c in eager.concepts]
    assert fresh.point_bits == built.point_bits == rows
    for p in range(n):
        for v in (0, 1):
            members = sum(1 << i for i, c in enumerate(eager.concepts) if c.bits[p] == v)
            assert fresh.level_mask(p, v) == built.level_mask(p, v) == members
    # lookups on a class whose concepts were never built
    lazy = load_class(text)
    for i, c in enumerate(eager.concepts):
        assert lazy.index_of(c) == i and c in lazy
        assert lazy.by_label(f"L{i}") == c
    assert lazy.concepts == eager.concepts
    assert lazy.concepts is lazy.concepts


def test_loaded_empty_class_equals_the_built_one():
    cc = load_class('{"domain": ["p", "q"], "mu": ["1/2", "1/2"], "concepts": {}}')
    assert cc == ConceptClass(Domain.uniform(("p", "q")), (), ())
    assert len(cc) == 0 and cc.concepts == ()
    assert LdimCache(cc).level_mask(1, 0) == 0


@pytest.mark.parametrize(
    "value",
    ["", "x" * 58, "0_1", "١٠", 0, -7, 10**59, 0.5, None, True, [[1]], ["a", "b"],
     {"a": 1}],
)
def test_short_values_are_quoted_as_repr_quotes_them(value):
    assert _quote(value) == repr(value)


def test_long_values_are_quoted_within_a_bound():
    nested = []
    for _ in range(900):
        nested = [nested]
    wide = ["x" * 10**3] * 6
    for _ in range(5):
        wide = [wide] * 6
    for value in ("x" * 10**6, 10**4000, nested, wide, list(range(10**5))):
        assert len(_quote(value)) <= 203
    assert _quote("x" * 59).startswith("'xxx") and "..." in _quote("x" * 59)
    with pytest.raises(ClassValidationError) as raised:
        Concept.from_bitstring(Domain.uniform(("p", "q")), "x" * 10**6)
    assert len(str(raised.value)) < 200
