"""The contract of the package's immutable value types.

Each of the thirteen types is built positionally and by keyword, with
its defaults; compares equal only to an equal instance of its own
class; hashes equal values alike; prints as ``Name(field=value, ...)``;
refuses assignment and deletion; and survives copying and pickling.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from thicket import (
    AtomizedPrefix,
    CompressionReport,
    Concept,
    ConceptClass,
    Domain,
    GreedyRun,
    QuerySummary,
    StagedResult,
    StageSchedule,
    StagedSummary,
    TeacherResponse,
    Transcript,
    TrialSummary,
)

HALF = Fraction(1, 2)


def domain():
    return Domain(("a", "b"), (HALF, HALF))


def concept(bits=(0, 1)):
    return Concept(domain(), bits)


def concept_class():
    return ConceptClass(domain(), (concept((0, 1)), concept((1, 1))), ("p", "q"))


DOMAIN_REPR = "Domain(points=('a', 'b'), mu=(Fraction(1, 2), Fraction(1, 2)))"
CONCEPT_REPR = f"Concept(domain={DOMAIN_REPR}, bits=(0, 1))"

# type -> (fields, positional args, repr of the instance they build,
#          positional args of a different instance)
CASES = {
    Domain: (
        ("points", "mu"),
        lambda: (("a", "b"), (HALF, HALF)),
        DOMAIN_REPR,
        lambda: (("a", "c"), (HALF, HALF)),
    ),
    Concept: (
        ("domain", "bits"),
        lambda: (domain(), (0, 1)),
        CONCEPT_REPR,
        lambda: (domain(), (1, 1)),
    ),
    ConceptClass: (
        ("domain", "concepts", "labels"),
        lambda: (domain(), (concept((0, 1)),), ("p",)),
        f"ConceptClass(domain={DOMAIN_REPR}, concepts=({CONCEPT_REPR},), labels=('p',))",
        lambda: (domain(), (concept((0, 1)),), ("q",)),
    ),
    GreedyRun: (
        ("ones", "zeros", "completed"),
        lambda: (("a",), ("b",), True),
        "GreedyRun(ones=('a',), zeros=('b',), completed=True)",
        lambda: (("a",), ("b",), False),
    ),
    CompressionReport: (
        ("dimension", "rho_count", "samples_tested", "failures"),
        lambda: (1, 2, 3, ()),
        "CompressionReport(dimension=1, rho_count=2, samples_tested=3, failures=())",
        lambda: (1, 2, 4, ()),
    ),
    TeacherResponse: (
        ("point", "label"),
        lambda: ("a", 1),
        "TeacherResponse(point='a', label=1)",
        lambda: ("a", 0),
    ),
    Transcript: (
        ("queries",),
        lambda: (((concept(), TeacherResponse()),),),
        f"Transcript(queries=(({CONCEPT_REPR}, TeacherResponse(point=None, label=None)),))",
        lambda: ((),),
    ),
    QuerySummary: (
        ("trials", "seed", "mean", "variance", "max_queries"),
        lambda: (4, 7, HALF, Fraction(1, 3), 2),
        "QuerySummary(trials=4, seed=7, mean=Fraction(1, 2), variance=Fraction(1, 3), max_queries=2)",
        lambda: (4, 8, HALF, Fraction(1, 3), 2),
    ),
    TrialSummary: (
        ("trials", "seed", "mean", "variance", "max_queries", "histogram"),
        lambda: (4, 7, HALF, Fraction(1, 3), 2, ((1, 2), (2, 2))),
        "TrialSummary(trials=4, seed=7, mean=Fraction(1, 2), variance=Fraction(1, 3), "
        "max_queries=2, histogram=((1, 2), (2, 2)))",
        lambda: (4, 7, HALF, Fraction(1, 3), 2, ((1, 3), (2, 1))),
    ),
    AtomizedPrefix: (
        ("cls", "locate"),
        lambda: (concept_class(), str),
        f"AtomizedPrefix(cls=ConceptClass(domain={DOMAIN_REPR}, concepts=({CONCEPT_REPR}, "
        f"Concept(domain={DOMAIN_REPR}, bits=(1, 1))), labels=('p', 'q')), locate=<class 'str'>)",
        lambda: (concept_class(), repr),
    ),
    StageSchedule: (
        ("stage", "eps", "prefix", "budget"),
        lambda: (1, Fraction(1, 4), 3, 5),
        "StageSchedule(stage=1, eps=Fraction(1, 4), prefix=3, budget=5)",
        lambda: (2, Fraction(1, 4), 3, 5),
    ),
    StagedResult: (
        ("identified", "queries", "stages", "history"),
        lambda: (True, 3, 1, ((HALF, 0),)),
        "StagedResult(identified=True, queries=3, stages=1, history=((Fraction(1, 2), 0),))",
        lambda: (False, 3, 1, ((HALF, 0),)),
    ),
    StagedSummary: (
        ("trials", "seed", "mean", "variance", "max_queries", "family", "stage_cap",
         "identified", "counts"),
        lambda: (2, 0, 3, Fraction(0), 3, "finite", 30, 2, (3, 3)),
        "StagedSummary(trials=2, seed=0, mean=3, variance=Fraction(0, 1), max_queries=3, "
        "family='finite', stage_cap=30, identified=2, counts=(3, 3))",
        lambda: (2, 0, 3, Fraction(0), 3, "finite", 30, 1, (3, 3)),
    ),
}

TYPES = list(CASES)
IDS = [t.__name__ for t in TYPES]


@pytest.mark.parametrize("kind", TYPES, ids=IDS)
def test_positional_and_keyword_construction_agree(kind):
    fields, args, _, _ = CASES[kind]
    value = kind(*args())
    assert tuple(getattr(value, name) for name in fields) == args()
    assert kind(**dict(zip(fields, args()))) == value
    assert kind.__match_args__ == fields


def test_defaults():
    assert CompressionReport(1, 2, 3).failures == ()
    assert CompressionReport(1, 2, 3) == CompressionReport(1, 2, 3, ())
    assert TeacherResponse() == TeacherResponse(None, None)
    assert TeacherResponse().equivalent and not TeacherResponse("a", 0).equivalent
    assert ConceptClass(domain(), ()).labels is None
    assert ConceptClass(domain(), (concept(),)).label(0) == "c0"


@pytest.mark.parametrize("kind", TYPES, ids=IDS)
def test_equality_and_hash_follow_the_fields(kind):
    _, args, _, other = CASES[kind]
    value, twin, different = kind(*args()), kind(*args()), kind(*other())
    assert value is not twin
    assert value == twin and not value != twin
    assert value == value
    assert value != different and not value == different
    assert hash(value) == hash(twin)


@pytest.mark.parametrize("kind", TYPES, ids=IDS)
def test_equality_holds_only_within_one_class(kind):
    _, args, _, _ = CASES[kind]
    value = kind(*args())
    assert value != args()
    assert value != object()
    for other in TYPES:
        if other is not kind:
            assert value != other(*CASES[other][1]())


def test_summaries_differ_from_their_base_with_the_same_fields():
    base = QuerySummary(4, 7, HALF, Fraction(1, 3), 2)
    trial = TrialSummary(4, 7, HALF, Fraction(1, 3), 2, ())
    staged = StagedSummary(4, 7, HALF, Fraction(1, 3), 2, "f", 30, 4, ())
    assert base != trial and trial != base
    assert base != staged and staged != base
    assert isinstance(trial, QuerySummary) and isinstance(staged, QuerySummary)


@pytest.mark.parametrize("kind", TYPES, ids=IDS)
def test_repr_names_every_field(kind):
    _, args, text, _ = CASES[kind]
    assert repr(kind(*args())) == text


@pytest.mark.parametrize("kind", TYPES, ids=IDS)
def test_assignment_and_deletion_raise(kind):
    fields, args, _, _ = CASES[kind]
    value = kind(*args())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in fields) == args()


@pytest.mark.parametrize("kind", TYPES, ids=IDS)
def test_copies_and_pickles_compare_equal(kind):
    _, args, _, _ = CASES[kind]
    value = kind(*args())
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_copied_domain_and_class_keep_their_lookups():
    cls = pickle.loads(pickle.dumps(concept_class()))
    assert cls.domain.index("b") == 1
    assert cls.index_of(concept((1, 1))) == 1
    assert concept((0, 1)) in copy.deepcopy(concept_class())
