import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from thicket import (
    ConceptClass,
    QueryGraph,
    TeacherResponse,
    derive_seed,
    exact_expected_queries,
    ldim,
    monte_carlo_trials,
    run_thicket_learner,
    teacher_respond,
)
from thicket import learner
from thicket.learner import sample_index, unit_variate
from thicket.generate import random_classes

from helpers import (
    StubRng,
    c3,
    mk_class,
    one_hot,
    one_hot_product,
    recursion_headroom,
    ref_learner_run,
    ref_lowest_index_expected_queries,
)


def skewed_class():
    """Three concepts whose expected query count exceeds twice the dimension."""
    return mk_class(
        ["101", "000", "011"],
        mu=(Fraction(11, 23), Fraction(1, 23), Fraction(11, 23)),
    )


def test_seed_derivation_matches_digest():
    expected = int.from_bytes(hashlib.sha256(b"1/0").digest()[:8], "big")
    assert derive_seed(1, 0) == expected
    assert derive_seed(1, 0) == 1789866162891828655
    assert len({derive_seed(9, i) for i in range(100)}) == 100


def test_unit_variate_is_dyadic_and_bounded():
    rng = random.Random(5)
    for _ in range(50):
        u = unit_variate(rng)
        assert 0 <= u < 1
        assert u.denominator & (u.denominator - 1) == 0


def test_sample_index_splits_on_cumulative_mass():
    weights = [Fraction(1, 2), Fraction(1, 2)]
    low = StubRng(2**63 - 1)
    high = StubRng(2**63)
    assert sample_index(weights, low) == 0
    assert sample_index(weights, high) == 1


def test_sample_index_rejects_negative_weights():
    # a positive total is not enough: the running masses must not fall,
    # or the draw is not proportional to the weights
    with pytest.raises(ValueError, match="nonnegative"):
        sample_index([Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4)], random.Random(0))
    with pytest.raises(ValueError, match="positive total"):
        sample_index([Fraction(0), Fraction(0)], random.Random(0))
    # a zero weight is allowed and never drawn
    weights = [Fraction(1), Fraction(0), Fraction(1)]
    assert {sample_index(weights, random.Random(s)) for s in range(50)} == {0, 2}


def steps(cc, transcript):
    """A transcript as (query index, point index, label) steps, the form
    of `ref_learner_run`."""
    out = []
    for hypothesis, response in transcript.queries:
        point = None if response.equivalent else cc.domain.index(response.point)
        out.append((cc.index_of(hypothesis), point, response.label))
    return out


# pairwise coprime denominators: no scaling by a power of two makes them integers
MIXED_MU = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 42))


def mixed_classes():
    """Seeded classes of 3 to 5 concepts over four points, under eight
    orderings of MIXED_MU."""
    patterns = ["".join(t) for t in product("01", repeat=4)]
    for k, mu in enumerate(list(permutations(MIXED_MU))[::3]):
        chosen = random.Random(k).sample(patterns, 3 + k % 3)
        yield mk_class(chosen, mu=mu)


def test_learner_transcripts_match_rational_oracle():
    for cc in mixed_classes():
        patterns = [c.bits for c in cc.concepts]
        graph = QueryGraph(cc)
        for t, target in enumerate(cc.concepts):
            for seed in range(12):
                run = run_thicket_learner(cc, target, random.Random(seed), graph)
                assert steps(cc, run) == ref_learner_run(patterns, cc.domain.mu, t, seed)


def test_threshold_on_a_non_dyadic_cumulative_mass_picks_the_next_point():
    # masses 3/10, 1/5, 1/10 on the difference: u = 1/2 puts the threshold
    # at 3/10, exactly the running mass after x1, so strict > passes to x2
    cc = mk_class(
        ["0000", "1110"],
        mu=(Fraction(3, 10), Fraction(1, 5), Fraction(1, 10), Fraction(2, 5)),
    )
    half = StubRng(2**63)
    assert sample_index([Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)], half) == 1
    run = run_thicket_learner(cc, cc.concepts[1], half)
    assert steps(cc, run) == [(0, 1, 1), (1, None, None)]
    assert teacher_respond(cc.concepts[1], cc.concepts[0], cc.domain, half).point == "x2"


class DrawLimit:
    """A seeded generator that fails the run after `limit` variates.

    Each counterexample removes at least the queried concept, so a run
    in a class of n concepts draws at most n - 1 of them.
    """

    def __init__(self, seed, limit):
        self.rng = random.Random(seed)
        self.left = limit

    def getrandbits(self, bits):
        assert self.left > 0, "more counterexamples than concepts to remove"
        self.left -= 1
        return self.rng.getrandbits(bits)


def test_subclass_run_on_the_root_graph_matches_a_run_on_its_own():
    # root indices 1, 3, 4, 6 are class indices 0-3 of the subclass
    root = mk_class(
        ["0000", "1010", "0110", "1100", "0011", "1111", "1001"], mu=MIXED_MU
    )
    sub = ConceptClass(root.domain, tuple(root.concepts[i] for i in (1, 3, 4, 6)))
    shared = QueryGraph(root)
    patterns = [c.bits for c in sub.concepts]
    for t, target in enumerate(sub.concepts):
        for seed in range(8):
            run = run_thicket_learner(sub, target, DrawLimit(seed, len(sub) - 1), shared)
            assert run == run_thicket_learner(sub, target, random.Random(seed))
            assert steps(sub, run) == ref_learner_run(patterns, sub.domain.mu, t, seed)


def oracle_histogram(patterns, mu, t, trials, seed):
    """Query-count histogram of `trials` oracle runs, trial i seeded with
    derive_seed(seed, i) as monte_carlo_trials seeds it."""
    counts = Counter(
        len(ref_learner_run(patterns, mu, t, derive_seed(seed, i))) for i in range(trials)
    )
    return tuple(sorted(counts.items()))


def test_monte_carlo_histograms_match_the_rational_oracle():
    for cc in mixed_classes():
        patterns = [c.bits for c in cc.concepts]
        graph = QueryGraph(cc)
        for t, target in enumerate(cc.concepts):
            for seed in (0, 19):
                s = monte_carlo_trials(cc, target, 10, seed, graph)
                assert s.histogram == oracle_histogram(patterns, cc.domain.mu, t, 10, seed)


def test_monte_carlo_on_a_shared_root_graph_matches_the_oracle():
    root = mk_class(
        ["0000", "1010", "0110", "1100", "0011", "1111", "1001"], mu=MIXED_MU
    )
    sub = ConceptClass(root.domain, tuple(root.concepts[i] for i in (1, 3, 4, 6)))
    shared = QueryGraph(root)
    patterns = [c.bits for c in sub.concepts]
    for t, target in enumerate(sub.concepts):
        for seed in (2, 8):
            s = monte_carlo_trials(sub, target, 20, seed, shared)
            assert s.histogram == oracle_histogram(patterns, sub.domain.mu, t, 20, seed)
            assert s == monte_carlo_trials(sub, target, 20, seed)


def test_monte_carlo_first_query_target_draws_nothing(monkeypatch):
    cc = mk_class(["0110", "1011", "0001", "1100"], mu=MIXED_MU)
    graph = QueryGraph(cc)
    first = graph.best_query(graph.cache.full_mask)
    patterns = [c.bits for c in cc.concepts]
    assert oracle_histogram(patterns, cc.domain.mu, first, 25, 6) == ((1, 25),)
    # every trial still reseeds the generator, which must never be asked to draw
    seeded = []

    class NoDraws:
        def getrandbits(self, bits):
            raise AssertionError("a trial whose first query is the target draws nothing")

    def generators(seed, trials, real=learner._trial_generators):
        for rng in real(seed, trials):
            seeded.append(rng.getstate())
            yield NoDraws()

    monkeypatch.setattr(learner, "_trial_generators", generators)
    s = monte_carlo_trials(cc, cc.concepts[first], 25, 6, graph)
    assert s.histogram == ((1, 25),)
    assert seeded == [random.Random(derive_seed(6, i)).getstate() for i in range(25)]


def test_monte_carlo_boundary_variate_passes_to_the_next_point(monkeypatch):
    # the class of the non-dyadic threshold test plus c1: the first query
    # c0 differs from the target c2 at x1, x2, x3 (masses 3/10, 1/5, 1/10),
    # and u = 1/2 puts the threshold at 3/10, exactly the running mass
    # after x1. Strict > passes to x2, which leaves only the target; x1
    # would keep c1 as well and cost one more query.
    mu = (Fraction(3, 10), Fraction(1, 5), Fraction(1, 10), Fraction(2, 5))
    monkeypatch.setattr(
        learner, "_trial_generators", lambda seed, trials: [StubRng(2**63)] * trials
    )
    cc = mk_class(["0000", "1001", "1110"], mu=mu)
    assert monte_carlo_trials(cc, cc.concepts[2], 7, seed=0).histogram == ((2, 7),)
    pair = mk_class(["0000", "1110"], mu=mu)
    assert monte_carlo_trials(pair, pair.concepts[1], 7, seed=0).histogram == ((2, 7),)


@pytest.mark.parametrize("seed", [0, 5, -7, 2**70])
def test_trial_generators_match_generators_seeded_by_derive_seed(seed):
    # indices cross the one-, two-, three- and five-digit boundaries
    indices = (0, 9, 10, 99, 100, 12345)
    states = {
        i: rng.getstate()
        for i, rng in enumerate(learner._trial_generators(seed, indices[-1] + 1))
        if i in indices
    }
    assert states == {i: random.Random(derive_seed(seed, i)).getstate() for i in indices}
    # one generator serves every trial
    rngs = list(learner._trial_generators(seed, 3))
    assert rngs[0] is rngs[1] is rngs[2]
    assert list(learner._trial_generators(seed, 0)) == []


def test_monte_carlo_rejects_a_target_outside_the_class():
    cc = c3()
    stranger = mk_class(["00"]).concepts[0]
    with pytest.raises(ValueError, match="not a member"):
        monte_carlo_trials(mk_class(["10", "01"]), cc.by_label("C"), 5, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_trials(cc, stranger, 5, seed=0)

def test_teacher_confirms_equal_hypothesis():
    cc = c3()
    a = cc.by_label("A")
    resp = teacher_respond(a, a, cc.domain, random.Random(0))
    assert resp.equivalent
    assert resp.point is None


def test_teacher_forced_single_counterexample():
    cc = mk_class(["110", "100"])
    target, hyp = cc.concepts
    resp = teacher_respond(target, hyp, cc.domain, random.Random(0))
    assert not resp.equivalent
    assert resp.point == "x2"
    assert resp.label == 1


def test_singleton_run_is_one_confirmed_query():
    cc = mk_class(["0110"])
    t = run_thicket_learner(cc, cc.concepts[0], random.Random(3))
    assert t.query_count == 1
    assert t.identified
    assert t.queries[0][1].equivalent


def test_two_concept_runs_take_at_most_two_queries():
    cc = mk_class(["10", "01"])
    for target in cc.concepts:
        for seed in range(20):
            t = run_thicket_learner(cc, target, random.Random(seed))
            assert t.query_count <= 2
            assert t.identified


def test_target_outside_class_rejected():
    cc = c3()
    stranger = mk_class(["00"]).concepts[0]
    with pytest.raises(ValueError):
        run_thicket_learner(cc, stranger, random.Random(0))
    with pytest.raises(ValueError):
        exact_expected_queries(mk_class(["10", "01"]), cc.by_label("C"))


def test_worked_class_run_is_deterministic():
    cc = c3()
    a = cc.by_label("A")
    t = run_thicket_learner(cc, a, random.Random(11))
    assert [h.bitstring() for h, _ in t.queries] == ["11", "10"]
    assert t.queries[0][1].point == "x2"


def test_exact_expectation_singleton():
    cc = mk_class(["01"])
    assert exact_expected_queries(cc, cc.concepts[0]) == 1


def test_exact_expectation_two_concepts():
    cc = mk_class(["10", "01"])
    assert exact_expected_queries(cc, cc.concepts[0]) == 1
    assert exact_expected_queries(cc, cc.concepts[1]) == 2


def test_exact_expectation_walks_a_long_chain_without_recursion():
    # all ranks tie, so the learner queries the lowest survivor; each
    # counterexample removes it or leaves only the target, and the
    # reachable subclasses form a chain 60 deep
    cc = one_hot(60)
    with recursion_headroom(30):
        expected = exact_expected_queries(cc, cc.concepts[-1])
    # E(k) = 1 + E(k - 1) / 2 + 1/2 with E(2) = 2 gives E(k) = 3 - 2**(2 - k)
    assert expected == 3 - Fraction(1, 2**58)


def _worst_expected_queries(cc):
    graph = QueryGraph(cc)
    return max(exact_expected_queries(cc, t, graph) for t in cc.concepts)


@pytest.mark.parametrize("n", range(2, 9))
def test_one_hot_worst_target_takes_three_minus_a_power_of_two(n):
    assert _worst_expected_queries(one_hot(n)) == 3 - Fraction(2) ** (2 - n)


@pytest.mark.parametrize("d, n", [(2, n) for n in range(3, 7)] + [(3, n) for n in range(2, 5)])
def test_one_hot_products_add_their_blocks_counterexamples(d, n):
    # each block costs the 2 - 2**(2 - n) counterexamples of one one-hot
    # class, and one query confirms
    expected = d * (2 - Fraction(2) ** (2 - n)) + 1
    assert _worst_expected_queries(one_hot_product(d, n)) == expected


def test_exact_expectation_worked_class():
    cc = c3()
    graph = QueryGraph(cc)
    values = [
        exact_expected_queries(cc, t, graph) for t in cc.concepts
    ]
    assert values == [2, 2, 1]


def test_skewed_class_exact_expectations():
    # pins the max-min choice through the whole recursion; a selector
    # ranking by incoming instead of outgoing edges gives (1, 2, 35/12)
    cc = skewed_class()
    graph = QueryGraph(cc)
    values = [exact_expected_queries(cc, t, graph) for t in cc.concepts]
    assert values == [2, Fraction(25, 12), 1]


def test_expected_queries_can_exceed_twice_dimension():
    cc = skewed_class()
    assert ldim(cc) == 1
    e = exact_expected_queries(cc, cc.concepts[1])
    assert e == Fraction(25, 12)
    assert e > 2


def test_counterexample_count_bounded_by_twice_dimension():
    # the confirming query is the only part outside the 2d budget
    for cc in random_classes(4242, 80, 4, 8):
        graph = QueryGraph(cc)
        d = ldim(cc)
        for target in cc.concepts:
            e = exact_expected_queries(cc, target, graph)
            assert 1 <= e
            assert e - 1 <= 2 * d


def test_lowest_index_selection_breaks_counterexample_bound():
    # the twice-dimension bound on counterexamples is a property of the
    # max-min choice: guessing the lowest surviving index breaks it here.
    # Class 452 of the acceptance suite's four-point corpus (seed 20260815).
    cc = mk_class(
        ["0001", "1010", "0000", "0100"],
        mu=(Fraction(7, 27), Fraction(1, 27), Fraction(2, 9), Fraction(13, 27)),
    )
    target = cc.concepts[3]
    assert ldim(cc) == 1
    assert exact_expected_queries(cc, target) == 2
    patterns = [c.bits for c in cc.concepts]
    lowest = ref_lowest_index_expected_queries(patterns, cc.domain.mu, 3)
    assert lowest == Fraction(743, 196)
    assert lowest - 1 > 2 * ldim(cc)


def test_monte_carlo_singleton():
    cc = mk_class(["1"])
    s = monte_carlo_trials(cc, cc.concepts[0], 25, seed=7)
    assert s.mean == 1
    assert s.variance == 0
    assert s.max_queries == 1
    assert s.histogram == ((1, 25),)


def test_monte_carlo_single_trial():
    cc = c3()
    s = monte_carlo_trials(cc, cc.by_label("B"), 1, seed=2)
    assert s.trials == 1
    assert s.variance == 0
    assert s.mean == s.max_queries


def test_monte_carlo_is_reproducible():
    cc = skewed_class()
    a = monte_carlo_trials(cc, cc.concepts[1], 300, seed=9)
    b = monte_carlo_trials(cc, cc.concepts[1], 300, seed=9)
    assert a == b
    c = monte_carlo_trials(cc, cc.concepts[1], 300, seed=10)
    assert c != a


def test_monte_carlo_tracks_exact_expectation():
    cc = skewed_class()
    target = cc.concepts[1]
    exact = exact_expected_queries(cc, target)
    s = monte_carlo_trials(cc, target, 4000, seed=13)
    stderr = (float(s.variance) / s.trials) ** 0.5
    assert abs(float(s.mean) - float(exact)) <= 3 * stderr


def test_trial_summary_serialization():
    cc = c3()
    s = monte_carlo_trials(cc, cc.by_label("A"), 10, seed=1)
    d = s.as_dict("c3", "A")
    assert d["class"] == "c3"
    assert d["target"] == "A"
    assert d["mean"] == "2"
    assert d["trials"] == 10
    assert s.csv_header() == "class,target,trials,seed,mean,variance,max"
    assert s.csv_row("c3", "A") == "c3,A,10,1,2,0,2"


def test_transcript_records_failed_guesses():
    cc = c3()
    b = cc.by_label("B")
    t = run_thicket_learner(cc, b, random.Random(4))
    assert t.query_count == 2
    assert not t.queries[0][1].equivalent
    assert t.queries[-1][1].equivalent
    assert t.queries[-1][0] == b


def test_response_shape():
    silent = TeacherResponse()
    assert silent.equivalent
    spoken = TeacherResponse("x1", 0)
    assert not spoken.equivalent
