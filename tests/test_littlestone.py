import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thicket import (
    Concept,
    ConceptClass,
    Domain,
    LdimCache,
    canonical_partial,
    certify_scheme,
    drop,
    is_exceptional,
    ldim,
)
from thicket.generate import random_class

from helpers import (
    all_three_point_classes,
    c3,
    mk_class,
    one_hot,
    powerset3,
    recursion_headroom,
    ref_ldim,
    subclass,
)


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
    sub = subclass(cc, "x1", 1)
    assert ldim(sub, cache) == 1
    assert ldim(subclass(cc, "x1", 0), cache) == 0
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
            sub = subclass(cc, point, label)
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


def test_one_hot_dimension_needs_no_deep_recursion():
    # a split's singleton side settles it at 1 without its larger side,
    # whose recursion would otherwise peel one concept per level
    cc = one_hot(200)
    with recursion_headroom(30):
        assert ldim(cc) == 1


def test_small_classes_take_no_memo_entry():
    cc = mk_class(["100", "010", "001", "111"])
    cache = LdimCache(cc)
    for mask in range(8):
        assert cache.ldim_mask(mask) == mask.bit_count().bit_length() - 1
    assert cache._memo == {}
    assert cache.ldim_mask(0b1111) == 2
    assert len(cache._memo) == 1


def test_pruned_dimension_matches_plain_recursion_on_restrictions():
    # 5-6 points and up to 20 concepts reach ldim 3 and 4, where a split's
    # smaller side is skipped by its size alone
    seen = set()
    for k in range(40):
        rng = random.Random(f"ldim {k}")
        n = rng.randint(5, 6)
        patterns = [
            tuple(v >> p & 1 for p in range(n))
            for v in rng.sample(range(2**n), rng.randint(2, 20))
        ]
        cc = mk_class(["".join(map(str, c)) for c in patterns])
        cache = LdimCache(cc)
        seen.add(ldim(cc, cache))
        assert ldim(cc, cache) == ref_ldim(patterns), k
        for p, point in enumerate(cc.domain.points):
            for label in (0, 1):
                kept = [c for c in patterns if c[p] == label]
                assert ldim(subclass(cc, point, label), cache) == ref_ldim(kept), k
    assert {3, 4} <= seen


def check_keeps(cache, patterns, mask, dim):
    """`keeps(mask)` against the plain recursion `dim` on the subclass."""
    keep0, keep1 = cache.keeps(mask)
    sub = tuple(c for i, c in enumerate(patterns) if mask >> i & 1)
    d = dim(sub)
    for p in range(len(patterns[0])):
        for label, keep in ((0, keep0), (1, keep1)):
            kept = tuple(c for c in sub if c[p] == label)
            assert (keep >> p & 1) == (dim(kept) == d)
    assert keep0 & keep1 == 0
    # the subclass built as a class: its canonical labeling takes the label
    # that keeps the dimension, where one does
    root = cache.root
    members = tuple(c for i, c in enumerate(root.concepts) if mask >> i & 1)
    assert canonical_partial(ConceptClass(root.domain, members)) == {
        x: label
        for p, x in enumerate(root.domain.points)
        for label in (0, 1)
        if dim(tuple(c for c in sub if c[p] == label)) == d
    }


def test_keeps_refuses_the_empty_class():
    cache = LdimCache(random_class(random.Random(1), 4, 6, 4, 6))
    with pytest.raises(ValueError, match="^the empty class has no keep table$"):
        cache.keeps(0)
    assert 0 not in cache._keeps


def test_keeps_matches_plain_recursion_on_three_points():
    dim = functools.cache(ref_ldim)
    for cc in all_three_point_classes():
        cache = LdimCache(cc)
        patterns = [c.bits for c in cc.concepts]
        for mask in range(1, cache.full_mask + 1):
            check_keeps(cache, patterns, mask, dim)


def test_keeps_matches_plain_recursion_where_the_greedy_goes():
    drawn = [random_class(random.Random(f"keeps {k}"), 7, 14, 7, 10) for k in range(4)]
    # and each with an eighth point that no concept splits, read 0 or 1 by all
    one_sided = [
        mk_class([c.bitstring() + str(k % 2) for c in cc.concepts]) for k, cc in enumerate(drawn)
    ]
    for cc in drawn + one_sided:
        cache = LdimCache(cc)
        real, reached = cache.keeps, set()

        def keeps(mask):
            reached.add(mask)
            return real(mask)

        cache.keeps = keeps
        assert certify_scheme(cc, cache=cache).ok
        assert len(reached) > 1
        dim = functools.cache(ref_ldim)
        patterns = [c.bits for c in cc.concepts]
        for mask in reached:
            check_keeps(cache, patterns, mask, dim)


def check_drops(cc, mask, dim):
    """`drop` on the subclass `mask` of `cc`, built as a class, against the
    plain recursion `dim`: per root concept, member or not, and per point,
    what the restriction to its label loses, an empty side losing ldim + 1."""
    sub = ConceptClass(cc.domain, tuple(c for i, c in enumerate(cc.concepts) if mask >> i & 1))
    patterns = tuple(c.bits for c in sub.concepts)
    d = dim(patterns)
    for concept in cc.concepts:
        for p, point in enumerate(cc.domain.points):
            kept = tuple(c for c in patterns if c[p] == concept.bits[p])
            assert drop(sub, concept, point) == d - dim(kept)


def test_drops_match_plain_recursion_on_three_points():
    dim = functools.cache(ref_ldim)
    for cc in all_three_point_classes():
        for mask in range(1 << len(cc)):
            check_drops(cc, mask, dim)
    # the empty subclass loses nothing: both of its sides are empty too
    empty = ConceptClass(c3().domain, ())
    assert [drop(empty, c, x) for c in c3().concepts for x in ("x1", "x2")] == [0] * 6


def test_drops_match_plain_recursion_where_the_greedy_goes():
    drawn = [random_class(random.Random(f"keeps {k}"), 7, 14, 7, 10) for k in range(4)]
    # the same classes with an eighth point that no concept splits
    one_sided = [
        mk_class([c.bitstring() + str(k % 2) for c in cc.concepts]) for k, cc in enumerate(drawn)
    ]
    for k, cc in enumerate(drawn + one_sided):
        cache = LdimCache(cc)
        real, reached = cache.keeps, set()

        def keeps(mask):
            reached.add(mask)
            return real(mask)

        cache.keeps = keeps
        assert certify_scheme(cc, cache=cache).ok
        dim = functools.cache(ref_ldim)
        for mask in reached:
            check_drops(cc, mask, dim)
        if k >= len(drawn):
            # every concept reads k % 2 at the eighth point: the other label
            # empties the class, which loses ldim + 1
            first = cc.concepts[0]
            other = Concept(cc.domain, first.bits[:7] + (1 - k % 2,))
            assert (drop(cc, first, "x8"), drop(cc, other, "x8")) == (0, ldim(cc) + 1)


def test_is_exceptional_matches_every_labeled_restriction():
    dim = functools.cache(ref_ldim)
    for cc in all_three_point_classes():
        patterns = tuple(c.bits for c in cc.concepts)
        d = dim(patterns)
        for labels in product((0, 1, None), repeat=3):
            sample = {f"x{p + 1}": v for p, v in enumerate(labels) if v is not None}
            expected = all(
                dim(tuple(c for c in patterns if c[p] == v)) == d
                for p, v in enumerate(labels)
                if v is not None
            )
            assert is_exceptional(cc, sample) == expected
    with pytest.raises(ValueError, match="sample labels must be 0 or 1"):
        is_exceptional(c3(), {"x1": 0, "x2": 2})


def test_a_split_can_leave_both_sides_two_below_the_class():
    # ldim(A ∪ B) <= max(ldim A, ldim B) + 1 does not hold: restricting
    # this class of ldim 3 at x4 leaves two sides of ldim 1 each
    bitstrings = ["0100", "0010", "0110", "1110", "1001", "0101", "1101", "1111"]
    patterns = [tuple(map(int, b)) for b in bitstrings]
    cache = LdimCache(mk_class(bitstrings))
    assert ref_ldim(patterns) == cache.ldim_mask(cache.full_mask) == 3
    for label in (0, 1):
        side = [c for c in patterns if c[3] == label]
        assert ref_ldim(side) == cache.ldim_mask(cache.level_mask(3, label)) == 1


def test_split_sides_sum_to_at_least_one_below_the_class():
    # ldim(A ∪ B) <= ldim A + ldim B + 1, by induction on ldim A + ldim B:
    # at the root point of a deepest tree of A ∪ B, A loses a level on one
    # side, and both subtrees below the root are one level shallower
    sums_bound = max_bound_fails = 0
    for k in range(200):
        rng = random.Random(f"split sides {k}")
        n = rng.randint(4, 6)
        cc = mk_class(
            [format(v, f"0{n}b") for v in rng.sample(range(2**n), rng.randint(4, min(24, 2**n)))]
        )
        cache = LdimCache(cc)
        d = cache.ldim_mask(cache.full_mask)
        for p in range(n):
            zeros = cache.restrict_mask(cache.full_mask, p, 0)
            if zeros in (0, cache.full_mask):
                continue
            d0, d1 = cache.ldim_mask(zeros), cache.ldim_mask(cache.full_mask ^ zeros)
            assert d0 + d1 >= d - 1, (k, p)
            sums_bound += 1
            max_bound_fails += max(d0, d1) < d - 1
    assert sums_bound > 500 and max_bound_fails > 0
