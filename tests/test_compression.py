import functools
import random
from collections import Counter
from itertools import combinations, product

import pytest

from thicket import (
    ConceptClass,
    GreedyRun,
    LdimCache,
    build_reconstructors,
    certify_scheme,
    compress,
    greedy_run,
    ldim,
)
from thicket import compression
from thicket.generate import random_class
from thicket.learner import derive_seed

from helpers import (
    all_three_point_classes,
    c3,
    mk_class,
    one_hot,
    powerset3,
    recursion_headroom,
    ref_greedy,
    ref_ldim,
    ref_sample_count,
    ref_samples_in_report_order,
)


def extends(concept, sample):
    return all(concept.value(p) == v for p, v in sample.items())


def test_full_run_single_zero():
    cc = c3()
    run = greedy_run(cc, {"x1": 0, "x2": 1})
    assert run.completed
    assert run.ones == ()
    assert run.zeros == ("x1",)
    assert compress(cc, {"x1": 0, "x2": 1}) == ("x1",)


def test_exceptional_sample_empty_run():
    cc = c3()
    run = greedy_run(cc, {"x1": 1})
    assert not run.completed
    assert run.ones == run.zeros == ()
    assert compress(cc, {"x1": 1}) == ("x1",)


def test_tuple_length_always_matches_dimension():
    cc = mk_class(["000", "001", "010", "011"])
    assert ldim(cc) == 2
    assert compress(cc, {"x1": 0}) == ("x1", "x1")
    assert compress(cc, {"x2": 0, "x3": 1}) == ("x3", "x2")
    assert compress(cc, {"x2": 1}) == ("x2", "x2")
    assert compress(cc, {"x2": 0}) == ("x2", "x2")


def test_same_tuple_from_opposite_halts_still_certifies():
    # {x2:1} and {x2:0} both collapse to (x2, x2); the reconstructor
    # family must cover both, which forces the label split across rhos
    cc = mk_class(["000", "001", "010", "011"])
    rhos = build_reconstructors(cc)
    tup = ("x2", "x2")
    hits_one = [r(tup) for r in rhos if extends(r(tup), {"x2": 1})]
    hits_zero = [r(tup) for r in rhos if extends(r(tup), {"x2": 0})]
    assert hits_one and hits_zero


def test_mixed_early_halt_padding():
    bits = [
        "0001", "0010", "0011", "0100", "0101",
        "1001", "1010", "1011", "1100", "1110", "1111",
    ]
    cc = mk_class(bits)
    assert ldim(cc) == 3
    sample = {"x1": 1, "x2": 0}
    run = greedy_run(cc, sample)
    assert not run.completed
    assert run.ones == ("x1",)
    assert run.zeros == ("x2",)
    tup = compress(cc, sample)
    assert tup == ("x1", "x1", "x2")
    rhos = build_reconstructors(cc)
    assert any(extends(r(tup), sample) for r in rhos)


def test_reconstructor_count_is_dimension_plus_one():
    for cc in (c3(), powerset3(), mk_class(["01"])):
        assert len(build_reconstructors(cc)) == ldim(cc) + 1


def test_singleton_scheme():
    cc = mk_class(["01"])
    rhos = build_reconstructors(cc)
    assert len(rhos) == 1
    assert rhos[0](()) == cc.concepts[0]
    assert compress(cc, {"x2": 1}) == ()
    report = certify_scheme(cc)
    assert report.ok
    assert report.dimension == 0
    assert report.rho_count == 1
    assert report.samples_tested == 3


def test_threshold_rule_on_distinct_tuple():
    cc = mk_class(["00", "01", "10", "11"])
    rhos = build_reconstructors(cc)
    tup = ("x1", "x2")
    assert rhos[0](tup).bitstring() == "00"
    assert rhos[1](tup).bitstring() == "10"
    assert rhos[2](tup).bitstring() == "11"


def test_stable_label_overwrite_on_worked_class():
    cc = c3()
    rhos = build_reconstructors(cc)
    # keeping dimension at x1 needs label 1, so rho_1 extends the
    # canonical partial map {x1: 1, x2: 1} instead of threshold decoding
    assert rhos[1](("x1",)).bitstring() == "11"
    assert rhos[0](("x1",)).bitstring() == "01"
    assert rhos[1](("x2",)).bitstring() == "11"
    assert rhos[0](("x2",)).bitstring() == "10"


def test_reconstructor_validates_tuples():
    cc = c3()
    rhos = build_reconstructors(cc)
    with pytest.raises(ValueError):
        rhos[0](("x1", "x2"))
    with pytest.raises(ValueError):
        rhos[0](("nope",))


def test_compress_rejects_bad_samples():
    cc = c3()
    with pytest.raises(ValueError):
        compress(cc, {})
    with pytest.raises(ValueError):
        compress(cc, {"x1": 0, "x2": 0})
    with pytest.raises(ValueError):
        compress(cc, {"zz": 1})
    with pytest.raises(ValueError):
        compress(cc, {"x1": 2})


def test_certify_worked_class():
    report = certify_scheme(c3())
    assert report.ok
    assert report.dimension == 1
    assert report.rho_count == 2
    assert report.samples_tested == 7
    assert report.failures == ()
    assert report.as_dict() == {
        "d": 1,
        "rho_count": 2,
        "samples_tested": 7,
        "failures": [],
    }


def test_certify_powerset():
    report = certify_scheme(powerset3())
    assert report.ok
    assert report.dimension == 3
    assert report.rho_count == 4


def test_certify_sample_size_limit():
    report = certify_scheme(c3(), max_sample_size=1)
    assert report.ok
    assert report.samples_tested == 4


def test_certify_mixed_halt_class():
    bits = [
        "0001", "0010", "0011", "0100", "0101",
        "1001", "1010", "1011", "1100", "1110", "1111",
    ]
    report = certify_scheme(mk_class(bits))
    assert report.ok
    assert report.dimension == 3
    assert report.rho_count == 4


def zero_decoders(cache, mask):
    """d + 1 decoders that all answer all zeros."""
    return (lambda points: 0,) * (cache.ldim_mask(mask) + 1)


def test_certify_reports_failures_with_named_samples(monkeypatch):
    monkeypatch.setattr(compression, "_index_decoders", zero_decoders)
    cc = c3()
    report = certify_scheme(cc)
    assert not report.ok
    assert report.samples_tested == 7
    # an all-zero answer recovers exactly the samples without a label 1
    expected = []
    for subset in (("x1",), ("x2",), ("x1", "x2")):
        seen = []
        for c in cc.concepts:
            sample = {p: c.value(p) for p in subset}
            if sample not in seen:
                seen.append(sample)
                if 1 in sample.values():
                    expected.append(sample)
    assert [f["sample"] for f in report.failures] == expected
    for failure in report.failures:
        assert failure["reason"] == "no reconstructor recovers the sample"
        assert len(failure["tuple"]) == report.dimension
        assert set(failure["tuple"]) <= set(failure["sample"])
        assert failure["tuple"] == list(compress(cc, failure["sample"]))


def test_certify_lists_failures_in_report_order_with_their_tuples(monkeypatch):
    # the subsets are searched depth first, so the report must restore its
    # order; each tuple is the single-sample walk's
    monkeypatch.setattr(compression, "_index_decoders", zero_decoders)
    for k in range(6):
        n = 4 + k % 3
        cc = random_class(random.Random(f"failure order {k}"), n, 20, n, 8)
        names = cc.domain.points
        expected = []
        for sample in ref_samples_in_report_order([c.bits for c in cc.concepts]):
            # an all-zero answer recovers exactly the samples without a label 1
            if 1 in sample.values():
                named = {names[p]: label for p, label in sample.items()}
                expected.append(
                    {
                        "sample": named,
                        "tuple": list(compress(cc, named)),
                        "reason": "no reconstructor recovers the sample",
                    }
                )
        assert list(certify_scheme(cc).failures) == expected


def test_samples_tested_at_every_limit_on_deeper_domains():
    for k in range(3):
        cc = random_class(random.Random(f"deep limits {k}"), 10, 24, 9, 12)
        patterns = [c.bits for c in cc.concepts]
        n = len(cc.domain)
        assert n >= 9
        for limit in range(1, n + 1):
            report = certify_scheme(cc, limit)
            assert report.ok
            assert report.samples_tested == ref_sample_count(patterns, limit)


def test_certify_searches_the_subsets_without_recursion():
    # one frame per point of a subset would overrun the budget at 12 points
    cc = one_hot(12)
    with recursion_headroom(15):
        report = certify_scheme(cc)
    assert report.ok
    assert report.samples_tested == ref_sample_count([c.bits for c in cc.concepts], 12)


def test_samples_tested_matches_independent_count():
    for cc in all_three_point_classes():
        patterns = [c.bits for c in cc.concepts]
        for limit in (1, 2, 3):
            assert certify_scheme(cc, limit).samples_tested == ref_sample_count(patterns, limit)
    for k in range(4):
        cc = random_class(random.Random(k), 8, 24, 7, 12)
        patterns = [c.bits for c in cc.concepts]
        limit = 2 + 2 * k
        assert certify_scheme(cc, limit).samples_tested == ref_sample_count(patterns, limit)


def padded(ones, zeros, completed, sample, d):
    """The tuple `compress` documents for a greedy outcome."""
    if completed:
        return ones + zeros
    if ones:
        out, pad = ones + [ones[0]] + zeros, ones[0]
    elif zeros:
        out, pad = zeros + [zeros[0]], zeros[0]
    else:
        out, pad = [], min(sample)
    return out + [pad] * (d - len(out))


def test_greedy_matches_reference_on_every_sample():
    classes = list(all_three_point_classes())
    classes += [random_class(random.Random(f"greedy {k}"), 7, 12, 6, 8) for k in range(4)]
    outcomes = Counter()
    for cc in classes:
        patterns = tuple(c.bits for c in cc.concepts)
        dim = functools.cache(ref_ldim)
        d = dim(patterns)
        cache = LdimCache(cc)
        names = cc.domain.points
        for sample in ref_samples_in_report_order(patterns):
            ones, zeros, completed = ref_greedy(patterns, sample, dim)
            named = {names[p]: label for p, label in sample.items()}
            assert greedy_run(cc, named, cache) == GreedyRun(
                tuple(names[p] for p in ones), tuple(names[p] for p in zeros), completed
            )
            tup = padded(ones, zeros, completed, sample, d)
            assert compress(cc, named, cache) == tuple(names[p] for p in tup)
            outcomes["full" if completed else "early" if ones or zeros else "immediate"] += 1
    assert set(outcomes) == {"full", "early", "immediate"}


def test_certify_decodes_each_tuple_once_per_decoder(monkeypatch):
    real = compression._index_decoders
    calls = Counter()

    def counting_decoders(cache, mask):
        def counted(i, rho):
            def decode(points):
                calls[i, points] += 1
                return rho(points)

            return decode

        return tuple(counted(i, rho) for i, rho in enumerate(real(cache, mask)))

    monkeypatch.setattr(compression, "_index_decoders", counting_decoders)
    for k in range(3):
        calls.clear()
        cc = random_class(random.Random(f"decode {k}"), 6, 16, 6, 12)
        report = certify_scheme(cc)
        assert report.ok
        assert max(calls.values()) == 1
        # tuples repeat across samples, so an unmemoized replay would decode more
        assert len({points for _, points in calls}) < report.samples_tested


def test_certify_uses_a_given_cache():
    cc = random_class(random.Random("shared cache"), 6, 16, 6, 12)
    cache = LdimCache(cc)
    assert certify_scheme(cc, cache=cache) == certify_scheme(cc)
    assert cache._keeps


def oracle_classes():
    """All 255 three-point classes and random 6-8-point classes."""
    classes = list(all_three_point_classes())
    classes += [random_class(random.Random(f"walk {k}"), 8, 12, 6, 6) for k in range(6)]
    return classes


def even_first_decoders(cache, mask):
    """d + 1 decoders recovering only some tuples: all of them answer all
    zeros, except the last, which answers all ones on a tuple whose first
    point index is even."""
    everything = (1 << len(cache.root.domain)) - 1

    def last(points):
        return everything if points and points[0] % 2 == 0 else 0

    return (lambda points: 0,) * cache.ldim_mask(mask) + (last,)


def oracle_report(patterns, names, limit, dim):
    """The report `certify_scheme` gives under `even_first_decoders`, from
    `ref_greedy`, the documented padding and first-seen sample order."""
    d = dim(patterns)
    tested, failures = 0, []
    for sample in ref_samples_in_report_order(patterns, limit):
        tested += 1
        tup = padded(*ref_greedy(patterns, sample, dim), sample, d)
        labels = set(sample.values())
        answers = {0}
        if tup and tup[0] % 2 == 0:
            answers.add(1)
        # an answer is constant, so it recovers exactly the constant samples
        if not (len(labels) == 1 and labels <= answers):
            failures.append(
                {
                    "sample": {names[p]: label for p, label in sample.items()},
                    "tuple": [names[p] for p in tup],
                    "reason": "no reconstructor recovers the sample",
                }
            )
    return {"d": d, "rho_count": d + 1, "samples_tested": tested, "failures": failures}


def test_certify_failure_lists_match_an_oracle(monkeypatch):
    monkeypatch.setattr(compression, "_index_decoders", even_first_decoders)
    dim = functools.cache(ref_ldim)
    failed = 0
    for cc in oracle_classes():
        patterns = tuple(c.bits for c in cc.concepts)
        n = len(cc.domain)
        for limit in sorted({1, 2, n - 3, n}):
            if limit < 1:
                continue
            report = certify_scheme(cc, None if limit == n else limit).as_dict()
            assert report == oracle_report(patterns, cc.domain.points, limit, dim)
            failed += len(report["failures"])
    assert failed


def test_walk_leaves_are_the_samples_with_their_realizers():
    """Each leaf of a subset's walk is one sample: its group is the AND of
    the level masks of its labels, its class is the sample's at the end
    of the run, and its pins are those of a plain sample-by-sample greedy
    on the cache's keep tables."""
    seen = Counter()
    for cc in oracle_classes():
        cache = LdimCache(cc)
        mask, bits, n = cache.full_mask, cache.point_bits, len(cc.domain)
        d = cache.ldim_mask(mask)
        seen["d = 0"] += d == 0
        for size in range(1, n + 1):
            for points in combinations(range(n), size):
                subset = sum(1 << p for p in points)
                root = [(mask, mask, (), (), 0, -1)]
                leaves = compression._walk(cache, d, compression._levels(cache, points), root, [])
                groups = [realizers for _, realizers, _, _, _, _ in leaves]
                assert all(groups) and sum(groups) == mask
                keys = {bits[(g & -g).bit_length() - 1] & subset for g in groups}
                assert len(keys) == len(leaves) == len({c & subset for c in bits})
                for sub, realizers, ones, zeros, scanned, got in leaves:
                    # a walk from the root has no verdict to inherit
                    assert got == -1
                    key = bits[(realizers & -realizers).bit_length() - 1] & subset
                    expected = mask
                    for p in points:
                        expected &= cache.level_mask(p, key >> p & 1)
                    assert realizers == expected
                    # the leaf's class: one concept after a full run, and one
                    # the sample is exceptional for after a halt, which has
                    # scanned every point
                    keep0, keep1 = cache.keeps(sub)
                    assert realizers & sub == realizers
                    assert len(ones) + len(zeros) == d and sub == realizers or (
                        subset & ~(keep1 & key | keep0 & ~key) == 0 and scanned == size
                    )
                    sub, pins = mask, []
                    for _ in range(d):
                        keep0, keep1 = cache.keeps(sub)
                        drops = subset & ~(keep1 & key | keep0 & ~key)
                        if not drops:
                            break
                        p = (drops & -drops).bit_length() - 1
                        if not (keep0 | keep1) >> p & 1:
                            seen["no keep label"] += 1
                        pins.append(p)
                        sub &= cache.level_mask(p, key >> p & 1)
                    assert ones == tuple(p for p in pins if key >> p & 1)
                    assert zeros == tuple(p for p in pins if not key >> p & 1)
                    if len(pins) == d:
                        seen["full"] += 1
                    elif pins:
                        seen["halt after ones" if ones else "halt after zeros"] += 1
                    else:
                        seen["immediate"] += 1
    assert set(seen) == {
        "d = 0", "no keep label", "full", "halt after ones", "halt after zeros", "immediate"
    }
    assert all(seen.values())


def test_certify_falls_back_to_every_decoder(monkeypatch):
    classes = oracle_classes()
    expected = [certify_scheme(cc).samples_tested for cc in classes]
    real = compression._index_decoders
    monkeypatch.setattr(
        compression, "_index_decoders", lambda cache, mask: real(cache, mask)[::-1]
    )
    # the decoder a tuple's shape names is now the wrong one, mostly
    for cc, tested in zip(classes, expected):
        report = certify_scheme(cc)
        assert report.ok
        assert report.samples_tested == tested


def test_certify_on_a_larger_cache_root_replays_only_the_class():
    big = random_class(random.Random("larger root"), 6, 24, 6, 20)
    cache = LdimCache(big)
    sub = ConceptClass(big.domain, big.concepts[::3])
    assert cache.mask_of(sub) != cache.full_mask
    assert certify_scheme(sub, cache=cache) == certify_scheme(sub)


def ref_decode(patterns, i, tup, dim):
    """rho_i on a tuple of point indices, read as the module docstring
    describes it with plain pattern filters; returns the label tuple."""
    n, d, default = len(patterns[0]), dim(patterns), patterns[0]

    def pinned(ones, zeros):
        return tuple(
            c for c in patterns if all(c[p] == 1 for p in ones) and all(c[p] == 0 for p in zeros)
        )

    def canon(sub):
        # the label 1 where it keeps the dimension, 0 elsewhere
        if not sub:
            return default
        e = dim(sub)
        return tuple(int(dim(tuple(c for c in sub if c[p] == 1)) == e) for p in range(n))

    distinct = len(set(tup))
    if distinct == d and d != 1:
        sub = pinned(tup[:i], tup[i:])
        return sub[0] if sub else default
    marks = [k for k, p in enumerate(tup) if p == tup[0]] + [d, d]
    if i > 1 or marks[1] == d and distinct > 1:
        return default
    kept = [dim(tuple(c for c in patterns if c[tup[0]] == v)) == d for v in (0, 1)]
    if distinct == 1 and kept[i]:
        return canon(patterns)
    ones, zeros = tup[: marks[1]], tup[marks[1] + 1 : marks[2]]
    return canon(pinned(ones, zeros)) if i == 1 else canon(pinned((), ones))


def test_decoders_match_plain_restrictions_on_every_tuple():
    dim = functools.cache(ref_ldim)
    drawn = [random_class(random.Random(f"decode {k}"), 5, 20, 4, 12) for k in range(3)]
    cube = mk_class([format(v, "04b") for v in range(16)])
    for cc in [*all_three_point_classes(), cube, *drawn]:
        cache = LdimCache(cc)
        patterns = tuple(c.bits for c in cc.concepts)
        decoders = compression._index_decoders(cache, cache.full_mask)
        for tup in product(range(len(cc.domain)), repeat=len(decoders) - 1):
            for i, rho in enumerate(decoders):
                bits = rho(tup)
                labels = tuple(bits >> p & 1 for p in range(len(cc.domain)))
                assert labels == ref_decode(patterns, i, tup, dim), (cc.concepts, i, tup)
    # (x1, x2, x1, x2) on the cube repeats x2 in both blocks: it is pinned
    # positive, then negative, so rho_1 falls back to the lowest concept
    assert compression._index_decoders(LdimCache(cube), 0xFFFF)[1]((0, 1, 0, 1)) == 0


def flipped_decoders(point):
    """The scheme's own decoders, each answering the wrong label at point
    index `point` (negative counts from the top) and the right one elsewhere."""
    real = compression._index_decoders

    def decoders(cache, mask):
        bit = 1 << point % len(cache.root.domain)
        return tuple(lambda points, rho=rho: rho(points) ^ bit for rho in real(cache, mask))

    return decoders


def flipped_oracle(patterns, names, dim, point):
    """The report `certify_scheme` gives under `flipped_decoders(point)`, from
    `ref_greedy`, the documented padding, `ref_decode` and first-seen order."""
    d, point = dim(patterns), point % len(patterns[0])
    tested, failures = 0, []
    for sample in ref_samples_in_report_order(patterns):
        tested += 1
        tup = padded(*ref_greedy(patterns, sample, dim), sample, d)
        answers = [ref_decode(patterns, i, tup, dim) for i in range(d + 1)]
        if not any(all(a[p] ^ (p == point) == v for p, v in sample.items()) for a in answers):
            failures.append(
                {
                    "sample": {names[p]: label for p, label in sample.items()},
                    "tuple": [names[p] for p in tup],
                    "reason": "no reconstructor recovers the sample",
                }
            )
    return {"d": d, "rho_count": d + 1, "samples_tested": tested, "failures": failures}


@pytest.mark.parametrize("point", [-1, 1])
def test_carried_verdicts_fail_exactly_where_the_decoders_do(monkeypatch, point):
    """A sample recovered on its points below the new one carries that
    verdict up the subset tree; under decoders wrong only at `point`, the
    failures are the oracle's, in report order, and all lie on subsets
    holding `point`."""
    dim = functools.cache(ref_ldim)
    failed = Counter()
    for cc in oracle_classes():
        monkeypatch.setattr(compression, "_index_decoders", flipped_decoders(point))
        report = certify_scheme(cc).as_dict()
        monkeypatch.undo()
        patterns = tuple(c.bits for c in cc.concepts)
        names = cc.domain.points
        assert report == flipped_oracle(patterns, names, dim, point)
        flipped = names[point % len(names)]
        assert all(flipped in failure["sample"] for failure in report["failures"])
        failed.update(len(failure["sample"]) for failure in report["failures"])
    # failures on the point alone and on larger subsets holding it
    assert failed[1] and sum(failed.values()) > failed[1]


def test_keep_tables_match_plain_dimension_drops():
    """At every mask the replay reads, the walk's included, each side of a
    split keeps the dimension exactly when its plain recursion says so."""
    dim = functools.cache(ref_ldim)
    drawn = [random_class(random.Random(derive_seed(seed, 0)), 6, 20, 6, 20) for seed in (0, 1)]
    seen = Counter()
    for cc in [*oracle_classes(), *drawn]:
        cache = LdimCache(cc)
        real, reached = cache.keeps, []
        cache.keeps = lambda mask: reached.append(mask) or real(mask)
        certify_scheme(cc, cache=cache)
        patterns = [c.bits for c in cc.concepts]
        for mask in dict.fromkeys(reached):
            members = tuple(c for i, c in enumerate(patterns) if mask >> i & 1)
            d = dim(members)
            keep = [0, 0]
            for p in range(len(cc.domain)):
                for label in (0, 1):
                    side = tuple(c for c in members if c[p] == label)
                    keep[label] |= (dim(side) == d) << p
                    seen["side of exactly 2**d, d >= 2"] += d >= 2 and len(side) == 1 << d
            assert real(mask) == tuple(keep)
            seen[f"d = {min(d, 2)}"] += 1
    assert set(seen) == {"d = 0", "d = 1", "d = 2", "side of exactly 2**d, d >= 2"}
    assert all(seen.values())
