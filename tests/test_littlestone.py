from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thicket import (
    ConceptClass,
    Domain,
    LdimCache,
    canonical_partial,
    drop,
    is_exceptional,
    ldim,
    restrict,
)

from helpers import c3, mk_class, powerset3, ref_ldim


def test_empty_class_dimension():
    dom = Domain.uniform(("x1",))
    assert ldim(ConceptClass(dom, ())) == -1


def test_singleton_dimension():
    assert ldim(mk_class(["010"])) == 0


def test_powerset_dimension():
    assert ldim(powerset3()) == 3


def test_disjoint_concepts_dimension():
    # pairwise disjoint supports never shatter past depth one
    assert ldim(mk_class(["100", "010", "001"])) == 1
    assert ldim(mk_class(["1000", "0110", "0001"])) == 1


def test_worked_class_dimension():
    assert ldim(c3()) == 1


def test_drop_examples():
    cc = c3()
    b = cc.by_label("B")
    a = cc.by_label("A")
    assert drop(cc, b, "x1") == 1
    assert drop(cc, a, "x1") == 0


def test_drop_on_singleton_is_zero():
    cc = mk_class(["01"])
    only = cc.concepts[0]
    assert drop(cc, only, "x1") == 0
    assert drop(cc, only, "x2") == 0


def test_is_exceptional():
    cc = c3()
    assert is_exceptional(cc, {})
    assert is_exceptional(cc, {"x1": 1})
    assert not is_exceptional(cc, {"x1": 0})
    assert not is_exceptional(cc, {"x1": 0, "x2": 1})


def test_is_exceptional_empty_class():
    dom = Domain.uniform(("x1",))
    with pytest.raises(ValueError):
        is_exceptional(ConceptClass(dom, ()), {})


def test_canonical_partial_singleton_is_total():
    cc = mk_class(["101"])
    assert canonical_partial(cc) == {"x1": 1, "x2": 0, "x3": 1}


def test_canonical_partial_worked_class():
    assert canonical_partial(c3()) == {"x1": 1, "x2": 1}


def test_canonical_partial_can_be_empty():
    # both labels at both points drop the dimension to zero
    cc = mk_class(["00", "11"])
    assert ldim(cc) == 1
    assert canonical_partial(cc) == {}


def test_canonical_partial_extends_every_exceptional_function():
    for cc in (c3(), powerset3(), mk_class(["00", "11", "01"])):
        f = canonical_partial(cc)
        for point, label in f.items():
            assert is_exceptional(cc, {point: label})


def test_cache_shared_across_restrictions():
    cc = c3()
    cache = LdimCache(cc)
    sub = restrict(cc, {"x1": 1})
    assert ldim(sub, cache) == 1
    assert ldim(restrict(cc, {"x1": 0}), cache) == 0
    # memo survives, root unchanged
    assert ldim(cc, cache) == 1


bit_patterns = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.integers(0, 2**n - 1), min_size=1, max_size=8, unique=True
    ).map(lambda ks: [format(k, f"0{n}b") for k in ks])
)


@settings(deadline=None, max_examples=120)
@given(bit_patterns)
def test_dimension_matches_plain_recursion(bits):
    cc = mk_class(bits)
    patterns = [c.bits for c in cc.concepts]
    assert ldim(cc) == ref_ldim(patterns)


@settings(deadline=None, max_examples=60)
@given(bit_patterns)
def test_restriction_never_raises_dimension(bits):
    cc = mk_class(bits)
    cache = LdimCache(cc)
    base = ldim(cc, cache)
    for point in cc.domain.points:
        for label in (0, 1):
            sub = restrict(cc, {point: label})
            assert ldim(sub, cache) <= base


def test_singleton_class_memo_stays_small():
    # every split leaves one concept on its 1-side, so once ldim 1 is
    # reached no split can beat it; evaluated in full, the 0-sides
    # reach about 2**n subclasses
    n = 64
    cc = mk_class(["0" * i + "1" + "0" * (n - 1 - i) for i in range(n)])
    cache = LdimCache(cc)
    assert ldim(cc, cache) == 1
    assert len(cache._memo) <= n * n
