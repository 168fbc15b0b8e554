import random
from fractions import Fraction
from itertools import islice

import pytest

from thicket import (
    ClassValidationError,
    FiniteFamily,
    IntervalFamily,
    PriorExhaustedError,
    QueryGraph,
    StagedResult,
    drop,
    ldim,
    negative_feedback_probability,
    prefix_size,
    run_staged_learner,
    sample_target,
    schedule_for,
    stage_epsilon,
    staged_trials,
    step_budget,
)

from helpers import (
    ScriptedRng,
    StubRng,
    c3,
    mk_class,
    ref_edge_weight,
    ref_interval_respond,
    ref_staged_trials,
)


def test_stage_epsilon_halves():
    assert stage_epsilon(1) == Fraction(1, 4)
    assert stage_epsilon(2) == Fraction(1, 8)
    assert stage_epsilon(5) == Fraction(1, 64)


def test_prefix_size_geometric():
    fam = IntervalFamily()
    assert prefix_size(fam.priors(), Fraction(1, 4)) == 2
    for k in range(1, 9):
        eps = Fraction(1, 2 ** (k + 1))
        assert prefix_size(fam.priors(), eps) == k + 1


def test_prefix_size_point_mass():
    for eps in (Fraction(1, 2), Fraction(1, 1024)):
        assert prefix_size(iter([Fraction(1)]), eps) == 1


def test_prefix_size_exhausted():
    with pytest.raises(PriorExhaustedError):
        prefix_size(iter([Fraction(1, 2), Fraction(1, 4)]), Fraction(1, 8))


def test_step_budget_examples():
    assert step_budget(1, Fraction(1, 2)) == 2
    assert step_budget(1, Fraction(1, 4)) == 3


def test_step_budget_minimality_small():
    from math import comb

    def tail(n, d):
        return Fraction(sum(comb(n, j) for j in range(d)), 2**n)

    for d in (1, 2, 3):
        for k in range(2, 8):
            eps = Fraction(1, 2**k)
            n = step_budget(d, eps)
            assert tail(n, d) < eps
            assert tail(n - 1, d) >= eps


def test_step_budget_needs_positive_dimension():
    with pytest.raises(ValueError):
        step_budget(0, Fraction(1, 4))


def test_interval_family_shape():
    fam = IntervalFamily()
    assert fam.interval(0) == (Fraction(1, 2), Fraction(1))
    assert fam.interval(2) == (Fraction(1, 4), Fraction(1, 3))
    assert fam.length(1) == Fraction(1, 6)
    assert fam.prior(0) == Fraction(1, 2)
    assert fam.prior(3) == Fraction(1, 16)
    assert sum(islice(fam.priors(), 12), Fraction(0)) == Fraction(4095, 4096)
    assert fam.describe() == "intervals(ratio=1/2)"


def test_interval_eval_is_open():
    fam = IntervalFamily()
    assert fam.eval(0, Fraction(3, 4)) == 1
    assert fam.eval(0, Fraction(1, 2)) == 0
    assert fam.eval(0, Fraction(1)) == 0
    assert fam.eval(1, Fraction(2, 5)) == 1


def test_atomize_first_three_intervals():
    fam = IntervalFamily()
    atoms = fam.atomize([0, 1, 2])
    assert atoms.cls.domain.mu == (
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 12),
        Fraction(1, 4),
    )
    assert atoms.cls.domain.points == ("i1", "i2", "i3", "rest")
    assert [c.bitstring() for c in atoms.cls.concepts] == ["1000", "0100", "0010"]
    assert ldim(atoms.cls) == 1
    assert atoms.locate(Fraction(3, 4)) == "i1"
    assert atoms.locate(Fraction(2, 5)) == "i2"
    assert atoms.locate(Fraction(1, 100)) == "rest"
    # the boundary between intervals belongs to neither
    assert atoms.locate(Fraction(1, 2)) == "rest"


def test_atomized_locate_matches_the_interval_scan():
    fam = IntervalFamily()
    indices = [4, 0, 2, 9]
    atoms = fam.atomize(indices)
    rng = random.Random(88)
    points = [Fraction(rng.randint(-3, 40), rng.randint(1, 40)) for _ in range(2000)]
    points += [Fraction(1, n) for n in range(1, 13)] + [Fraction(0), Fraction(-1, 2), Fraction(7, 3)]
    for x in points:
        expected = [f"i{i + 1}" for i in indices if fam.eval(i, x)] or ["rest"]
        assert atoms.locate(x) == expected[0]


INTERVAL_PAIRS = [
    (0, 1), (1, 0), (3, 3), (0, 0), (2, 9), (9, 2), (0, 254), (300, 0), (7, 5000),
    (10**6 - 1, 10**6), (10**6 + 1, 10**6), (10**6, 3), (3, 10**6), (10**6, 10**6),
]


def as_pair(response):
    return None if response.equivalent else (response.point, response.label)


def test_interval_respond_matches_a_fraction_reference():
    fam = IntervalFamily()
    draw = random.Random(41)
    pairs = INTERVAL_PAIRS + [(draw.randrange(40), draw.randrange(40)) for _ in range(400)]
    for seed, (target, hypothesis) in enumerate(pairs):
        rng, ref = random.Random(seed), random.Random(seed)
        got = as_pair(fam.respond(target, hypothesis, rng))
        assert got == ref_interval_respond(target, hypothesis, ref)
        # both took the same variates
        assert rng.getrandbits(64) == ref.getrandbits(64)


@pytest.mark.parametrize("first", [0, 1, 2**63 - 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("second", [0, 1, 2**63, 2**64 - 1])
def test_interval_respond_at_extreme_variates_matches_the_reference(first, second):
    fam = IntervalFamily()
    for target, hypothesis in INTERVAL_PAIRS:
        got = as_pair(fam.respond(target, hypothesis, ScriptedRng([first, second])))
        assert got == ref_interval_respond(target, hypothesis, ScriptedRng([first, second]))
        if got is not None:
            point, label = got
            assert fam.eval(target, point) == label


@pytest.mark.parametrize("target, hypothesis", [(-1, 0), (0, -1), (-3, 2)])
def test_interval_respond_rejects_negative_indices(target, hypothesis):
    with pytest.raises(ValueError, match="enumeration indices start at 0"):
        IntervalFamily().respond(target, hypothesis, random.Random(0))


def test_locate_takes_ints_strings_and_nonpositive_points():
    atoms = IntervalFamily().atomize([0, 1, 2])
    cases = {
        0: "rest", -1: "rest", 1: "rest", 2: "rest", "3/4": "i1", "2/5": "i2",
        "-3/4": "rest", "0": "rest", Fraction(0): "rest", Fraction(-2, 7): "rest",
        Fraction(3, 10): "i3", Fraction(1, 3): "rest",
    }
    for point, atom in cases.items():
        assert atoms.locate(point) == atom, point


def test_nonuniform_ratio_prior():
    fam = IntervalFamily(Fraction(1, 3))
    assert fam.prior(0) == Fraction(1, 3)
    assert fam.prior(1) == Fraction(2, 9)
    assert fam.describe() == "intervals(ratio=1/3)"


def test_schedule_first_stage():
    plan = schedule_for(IntervalFamily(), 1)
    assert plan.stage == 1
    assert plan.eps == Fraction(1, 4)
    assert plan.prefix == 2
    assert plan.budget == 3


def test_schedules_resolve_lazily_once_per_stage():
    # tau covers 3/4: enough for stage 1 (1 - 1/4), short of stage 2 (1 - 1/8)
    fam = FiniteFamily(c3(), (Fraction(1, 2), Fraction(1, 4), Fraction(0)))
    assert run_staged_learner(fam, 0, random.Random(0)).identified
    assert schedule_for(fam, 1) is schedule_for(fam, 1)
    # target C lies outside the stage 1 prefix, so its run reaches stage 2
    for _ in range(2):
        with pytest.raises(PriorExhaustedError):
            run_staged_learner(fam, 2, random.Random(0))


def test_finite_family_singleton_identified_immediately():
    fam = FiniteFamily(mk_class(["0"]), (Fraction(1),))
    result = run_staged_learner(fam, 0, random.Random(1))
    assert result.identified
    assert result.queries == 1
    assert result.stages == 1


def test_finite_family_rejects_out_of_range_target():
    fam = FiniteFamily(c3(), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ValueError):
        run_staged_learner(fam, 3, random.Random(0))


def test_staged_identifies_interval_targets():
    fam = IntervalFamily()
    for target in (0, 1, 4):
        result = run_staged_learner(fam, target, random.Random(target + 10))
        assert result.identified
        for point, label in result.history:
            assert fam.eval(target, point) == label


def test_stage_cap_exhaustion_reports_failure():
    fam = IntervalFamily()
    result = run_staged_learner(fam, 40, random.Random(2), stage_cap=2)
    assert not result.identified
    assert result.stages == 2
    assert result.queries >= 1


def test_sample_target_follows_prior():
    fam = IntervalFamily()
    rng = random.Random(8)
    draws = [sample_target(fam, rng) for _ in range(2000)]
    assert min(draws) == 0
    share = draws.count(0) / len(draws)
    assert 0.45 < share < 0.55


def ref_sample_target(priors, r):
    """First index whose cumulative prior exceeds u = r / 2**64, in
    Fractions; None when the priors run out first."""
    u, acc = Fraction(r, 2**64), Fraction(0)
    for i, w in enumerate(priors):
        acc += w
        if acc > u:
            return i
    return None


def geometric(ratio):
    i = 0
    while True:
        yield ratio * (1 - ratio) ** i
        i += 1


@pytest.mark.parametrize("ratio", [Fraction(1, 2), Fraction(1, 7), Fraction(1, 20)])
def test_sample_target_matches_a_fraction_reference(ratio):
    fam = IntervalFamily(ratio)
    for seed in range(300):
        r = random.Random(seed).getrandbits(64)
        assert sample_target(fam, random.Random(seed)) == ref_sample_target(geometric(ratio), r)


def test_sample_target_on_a_truncated_prior_matches_the_reference():
    tau = (Fraction(1, 3), Fraction(0), Fraction(1, 6), Fraction(1, 4))
    fam = FiniteFamily(mk_class(["00", "01", "10", "11"]), tau)
    for seed in range(300):
        r = random.Random(seed).getrandbits(64)
        expected = ref_sample_target(tau, r)
        if expected is None:
            with pytest.raises(PriorExhaustedError):
                sample_target(fam, random.Random(seed))
        else:
            assert sample_target(fam, random.Random(seed)) == expected


def test_sample_target_variate_on_a_cumulative_mass_picks_the_next_index():
    # cumulative priors 1/2, 3/4, ...: u = 1/2 and u = 3/4 land on them
    fam = IntervalFamily()
    assert sample_target(fam, StubRng(2**63 - 1)) == 0
    assert sample_target(fam, StubRng(2**63)) == 1
    assert sample_target(fam, StubRng(3 * 2**62)) == 2
    # the zero prior of index 1 never takes a draw
    tau = (Fraction(1, 4), Fraction(0), Fraction(1, 2))
    finite = FiniteFamily(mk_class(["10", "01", "11"]), tau)
    assert sample_target(finite, StubRng(2**62)) == 2


def test_sample_target_extends_cached_sums_only_as_far_as_draws_reach(monkeypatch):
    fam = IntervalFamily()
    asked = []
    prior = fam.prior
    monkeypatch.setattr(fam, "prior", lambda i: asked.append(i) or prior(i))
    assert sample_target(fam, StubRng(3 * 2**62)) == 2
    assert sample_target(fam, StubRng(2**63)) == 1
    assert sample_target(fam, StubRng(7 * 2**61)) == 3
    assert asked == [0, 1, 2, 3]


def test_sample_target_exhausted_prior_message():
    fam = FiniteFamily(c3(), (Fraction(1, 80),) * 3)
    with pytest.raises(PriorExhaustedError) as exc:
        sample_target(fam, StubRng(2**63))
    assert str(exc.value) == "prior mass 3/80 exhausted below variate 1/2"
    # and again once the sums are cached
    with pytest.raises(PriorExhaustedError) as exc:
        sample_target(fam, StubRng(2**62))
    assert str(exc.value) == "prior mass 3/80 exhausted below variate 1/4"
    assert sample_target(fam, StubRng(2**58)) == 1

def test_staged_trials_summary():
    fam = IntervalFamily()
    s = staged_trials(fam, 50, seed=3)
    assert s.trials == 50
    assert s.identified == 50
    assert s.mean == Fraction(sum(s.counts), 50)
    again = staged_trials(fam, 50, seed=3)
    assert again == s
    d = s.as_dict()
    assert d["class"] == "intervals(ratio=1/2)"
    assert d["target"] == "tau"
    assert s.csv_header() == "class,target,trials,seed,mean,variance,max"
    assert s.csv_row().startswith("intervals(ratio=1/2),tau,50,3,")


def test_negative_feedback_grows_with_target_index():
    fam = IntervalFamily()
    p = negative_feedback_probability(fam, 1, 199)
    assert p == Fraction(20100, 20101)
    assert p > Fraction(99, 100)
    assert negative_feedback_probability(fam, 1, 5) < p


def test_negative_feedback_rejects_matching_proposal():
    fam = IntervalFamily()
    atoms = fam.atomize([0, 1, 2])
    with pytest.raises(ValueError):
        # the prefix proposal is its smallest interval
        negative_feedback_probability(fam, 3, 2)


def test_step_budget_premise_holds_in_expectation_only():
    # A reachable 7-point class of ldim 2. The max-min query c20 drops the
    # dimension by at least 1/2 in expectation against every target, as
    # the query graph guarantees, but against c16 it drops it by 2 with
    # probability 2/5 and not at all otherwise: a fair coin per query is
    # not a lower bound on the chance of a drop.
    cc = mk_class(
        ["0001010", "1000100", "1000110", "0010110", "1000010", "0001100", "0000010"],
        mu=[Fraction(m, 41) for m in (5, 5, 2, 7, 3, 8, 11)],
        labels=("c4", "c9", "c14", "c16", "c17", "c18", "c20"),
    )
    hyp, target = cc.by_label("c20"), cc.by_label("c16")
    assert ldim(cc) == 2
    graph = QueryGraph(cc)
    full, h, t = graph.cache.full_mask, cc.index_of(hyp), cc.index_of(target)
    assert graph.best_query(full) == h
    assert graph.rank(full, h) == Fraction(5, 8)
    assert graph.weight(full, h, t) == Fraction(4, 5)
    patterns = [c.bits for c in cc.concepts]
    assert ref_edge_weight(patterns, cc.domain.mu, 6, 3) == Fraction(4, 5)
    diff = [x for x in cc.domain.points if hyp.value(x) != target.value(x)]
    drops = {x: drop(cc, target, x) for x in diff}
    assert drops == {"x3": 2, "x5": 0}
    mu = {x: cc.domain.mu[cc.domain.index(x)] for x in diff}
    mass = sum(mu.values())
    dropped = sum(mu[x] for x in diff if drops[x] >= 1)
    assert dropped / mass == Fraction(2, 5)


def _seeded_family(k):
    """A random finite family: 3 to 6 points, up to 10 concepts, every
    third tau truncated to total mass 63/64."""
    rng = random.Random(f"staged {k}")
    n = rng.randint(3, 6)
    patterns = [
        tuple(v >> p & 1 for p in range(n))
        for v in rng.sample(range(2**n), rng.randint(1, min(10, 2**n)))
    ]
    raw = [rng.randint(1, 9) for _ in range(n)]
    mu = [Fraction(r, sum(raw)) for r in raw]
    weights = [rng.randint(0, 6) for _ in patterns]
    weights[rng.randrange(len(weights))] += 1
    total = Fraction(sum(weights)) * (Fraction(64, 63) if k % 3 == 0 else 1)
    tau = tuple(w / total for w in weights)
    cc = mk_class(["".join(map(str, c)) for c in patterns], mu=mu)
    return patterns, mu, tau, cc


def test_staged_trials_match_reference_oracle():
    compared = truncated = 0
    for k in range(28):
        patterns, mu, tau, cc = _seeded_family(k)
        stage_cap = 3 if k % 2 else 30
        try:
            expected = ref_staged_trials(patterns, mu, tau, 25, k, stage_cap)
        except LookupError:
            with pytest.raises(PriorExhaustedError):
                staged_trials(FiniteFamily(cc, tau), 25, k, stage_cap)
            continue
        summary = staged_trials(FiniteFamily(cc, tau), 25, k, stage_cap)
        assert summary.counts == tuple(expected), k
        compared += 1
        truncated += sum(tau) < 1
    assert compared >= 20 and truncated >= 3


# staged summaries at the commit before prefixes shared one query graph
# across stages and trials: (ratio, seed, identified, mean, variance, max)
INTERVAL_PINS = [
    ("1/2", 0, 100, "87/50", "4331/2475", 10),
    ("1/2", 5, 100, "183/100", "12611/9900", 7),
    ("1/7", 0, 100, "123/50", "5221/2475", 11),
    ("1/7", 5, 100, "123/50", "1757/825", 10),
    ("1/20", 0, 100, "121/50", "1253/825", 11),
    ("1/20", 5, 100, "251/100", "18299/9900", 10),
]


@pytest.mark.parametrize("ratio, seed, identified, mean, variance, most", INTERVAL_PINS)
def test_interval_summaries_pinned(ratio, seed, identified, mean, variance, most):
    s = staged_trials(IntervalFamily(Fraction(ratio)), 100, seed)
    assert (s.identified, s.mean, s.variance, s.max_queries) == (
        identified, Fraction(mean), Fraction(variance), most,
    )


def test_interval_prefix_past_the_point_cap_raises_before_atomizing():
    # stage 1 at ratio 1/500 needs 693 intervals: 694 atoms
    fam = IntervalFamily(Fraction(1, 500))
    with pytest.raises(ClassValidationError, match="693 intervals atomizes to 694 points"):
        run_staged_learner(fam, 0, random.Random(0))
    assert not fam._graphs
    # 255 intervals and the rest atom are the largest prefix within the cap
    assert len(fam.atomize(list(range(255))).cls.domain) == 256
    with pytest.raises(ClassValidationError, match="at most 256 are supported"):
        fam.atomize(list(range(256)))


def test_interval_trials_check_stage_one_against_the_point_cap_before_drawing(monkeypatch):
    runs = []

    def run(family, target, rng, stage_cap):
        runs.append(target)
        return StagedResult(True, 1, 1, ())

    monkeypatch.setattr("thicket.staged.run_staged_learner", run)
    # stage 1 needs 255 intervals at ratio 1/184 and 256 at ratio 1/185
    assert staged_trials(IntervalFamily(Fraction(1, 184)), 3, 0).identified == 3
    assert len(runs) == 3
    past = IntervalFamily(Fraction(1, 185))
    with pytest.raises(ClassValidationError, match="stage 1 needs more than 255 intervals"):
        staged_trials(past, 3, 0)
    assert not past._cumulative and not past._graphs
    assert len(runs) == 3


def test_interval_prefixes_atomized_once_each():
    class Counting(IntervalFamily):
        def atomize(self, indices):
            calls.append(len(indices))
            return super().atomize(indices)

    calls = []
    fam = Counting()
    staged_trials(fam, 2500, 0)
    # one atomization per distinct prefix, against one per stage of every
    # trial (3,528) when each stage built its own query graph
    assert calls == sorted(set(calls))
    assert len(calls) == 11
    atoms, graph = fam.prefix_graph(calls[-1])
    assert fam.prefix_graph(calls[-1])[1] is graph
