import random
from fractions import Fraction
from itertools import islice

import pytest

from thicket import (
    FiniteFamily,
    IntervalFamily,
    PriorExhaustedError,
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

from helpers import c3, mk_class


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
