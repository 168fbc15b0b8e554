"""The benchmark's workloads: seeded inputs, CLI commands and report checks.

Every class file is drawn by the benchmark as
``random_class(Random(derive_seed(seed, k)), n, m, n, m)``, so the
program receives only files, and the same seed gives the same files.
Classes have a fixed size: with random sizes, as ``verify
--random-classes`` draws them, a few large classes dominate and the work
of a run moved by about a quarter between seeds.

Each workload also fixes what one "item" of ``items_per_s`` is, and how
to check every report it produces beyond its exit code. Reports embed
class paths as given, so commands use names relative to the input
directory they run in.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

DEFAULT_SEED = 0

# Report check: returns a problem description, or None when it passes.
Check = Callable[[dict[str, Any]], "str | None"]


@dataclass(frozen=True)
class Plan:
    """What one repetition of a workload runs, and how to judge it."""

    commands: tuple[tuple[str, ...], ...]
    checks: tuple[Check, ...]  # one per command
    items: int


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # unit of work counted by items_per_s
    sizes: dict[str, dict[str, int]]  # "full" and "tiny"
    plan: Callable[..., Plan]  # plan(seed, directory, **size)


def _write_class(directory: Path, name: str, seed: int, k: int, n: int, m: int) -> Any:
    """Draw class `k` of the seed, write it as `name`, and return it."""
    from thicket.concepts import save_class
    from thicket.generate import random_class
    from thicket.learner import derive_seed

    cc = random_class(random.Random(derive_seed(seed, k)), n, m, n, m)
    (directory / name).write_bytes(save_class(cc))
    return cc


def _expect(condition: bool, problem: str) -> str | None:
    return None if condition else problem


def _verify_ok(classes: int) -> Check:
    def check(report: dict[str, Any]) -> str | None:
        return _expect(
            report.get("ok") is True
            and report.get("violations") == []
            and report.get("classes_checked") == classes,
            f"verify: expected ok with {classes} classes checked",
        )

    return check


def sample_count(cc) -> int:
    """Distinct realizable samples over nonempty point subsets.

    Counted here, apart from the program, so that ``compress --verify``
    must report exactly this many samples tested.
    """
    n = len(cc.domain)
    total = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            total += len({tuple(c.bits[p] for p in subset) for c in cc.concepts})
    return total


def _certified(samples: int) -> Check:
    def check(report: dict[str, Any]) -> str | None:
        body = report.get("report", {})
        return _expect(
            body.get("failures") == [] and body.get("samples_tested") == samples,
            f"compress: expected no failures over {samples} samples",
        )

    return check


def _within_bound(report: dict[str, Any]) -> str | None:
    expected = Fraction(report.get("expected_queries", "0"))
    d = report.get("ldim", -1)
    return _expect(
        1 <= expected <= 2 * d + 1,
        f"learn-exact: {expected} expected queries outside [1, 2*{d}+1]",
    )


def _learned(trials: int) -> Check:
    def check(report: dict[str, Any]) -> str | None:
        summary = report.get("summary", {})
        histogram = summary.get("histogram", {})
        return _expect(
            summary.get("trials") == trials and sum(histogram.values()) == trials,
            f"learn: expected a histogram over {trials} trials",
        )

    return check


def _identified(trials: int) -> Check:
    def check(report: dict[str, Any]) -> str | None:
        summary = report.get("summary", {})
        return _expect(
            summary.get("trials") == trials and summary.get("identified") == trials,
            f"staged: expected all {trials} targets identified",
        )

    return check


def plan_verify_corpus(seed: int, directory: Path, classes: int, points: int,
                       concepts: int, corpus: int) -> Plan:
    commands: list[tuple[str, ...]] = [
        ("verify", "--random-classes", str(corpus), "--max-domain", "5",
         "--max-concepts", "8", "--seed", str(seed)),
    ]
    checks: list[Check] = [_verify_ok(corpus)]
    for k in range(classes):
        name = f"v{k:03d}.json"
        _write_class(directory, name, seed, k, points, concepts)
        commands.append(("verify", "--class", name))
        checks.append(_verify_ok(1))
    return Plan(tuple(commands), tuple(checks), corpus + classes)


def plan_certify_wide(seed: int, directory: Path, classes: int, points: int,
                      concepts: int) -> Plan:
    commands, checks, items = [], [], 0
    for k in range(classes):
        name = f"w{k}.json"
        samples = sample_count(_write_class(directory, name, seed, k, points, concepts))
        commands.append(("compress", "--class", name, "--verify"))
        checks.append(_certified(samples))
        items += samples
    return Plan(tuple(commands), tuple(checks), items)


def plan_exact_deep(seed: int, directory: Path, classes: int, points: int,
                    concepts: int) -> Plan:
    commands = []
    for k in range(classes):
        name = f"d{k:03d}.json"
        _write_class(directory, name, seed, k, points, concepts)
        commands.append(("learn-exact", "--class", name, "--target", "c0"))
    return Plan(tuple(commands), (_within_bound,) * classes, classes)


def plan_trials_replay(seed: int, directory: Path, classes: int, points: int,
                       concepts: int, trials: int, staged: int) -> Plan:
    commands: list[tuple[str, ...]] = []
    checks: list[Check] = []
    for k in range(classes):
        name = f"r{k:02d}.json"
        _write_class(directory, name, seed, k, points, concepts)
        # Ties go to the lowest index, so c0 is the learner's first guess and
        # most classes identify it in one query; a drawn target is typical.
        target = random.Random(f"target {seed} {k}").randrange(concepts)
        commands.append(("learn", "--class", name, "--target", f"c{target}", "--trials",
                         str(trials), "--seed", str(seed)))
        checks.append(_learned(trials))
    commands.append(("staged", "--family", "intervals", "--trials", str(staged),
                     "--seed", str(seed)))
    checks.append(_identified(staged))
    return Plan(tuple(commands), tuple(checks), classes * trials + staged)


# Sizes give one repetition five to twelve seconds of work on a 2-CPU
# machine. Where the cost of a class or target varies a lot between
# draws, a repetition spreads over many classes, so that the work of a
# run moves little with the seed. No command runs much longer than a
# second, so that the reference probes around it (see child.py) track
# the speed of the machine while it ran.
WORKLOADS = {
    w.name: w
    for w in (
        # All six verify checks per class: each class pays its own LdimCache,
        # QueryGraph and reconstructor set-up, and compression runs cold.
        # One small --random-classes corpus keeps that CLI path and the
        # generator measured.
        Workload(
            "verify-corpus",
            "classes verified",
            {
                "full": {"classes": 100, "points": 6, "concepts": 12, "corpus": 20},
                "tiny": {"classes": 2, "points": 4, "concepts": 6, "corpus": 3},
            },
            plan_verify_corpus,
        ),
        # compress --verify on wide classes (8 points, 64 concepts, ~5k
        # samples each): greedy runs, reconstructors and mask encoding on
        # one warm cache. The query graph and the teacher do no work.
        Workload(
            "certify-wide",
            "samples certified",
            {
                "full": {"classes": 7, "points": 8, "concepts": 64},
                "tiny": {"classes": 1, "points": 5, "concepts": 12},
            },
            plan_certify_wide,
        ),
        # learn-exact: the expectation DP writes the QueryGraph weight memo
        # and drives the ldim recursion; peak memory follows the memo.
        # One target per class, over many classes, because the cost of a
        # target varies by almost half between classes (it costs far more
        # where ldim is 6 than where it is 5). Compression does no work.
        Workload(
            "exact-deep",
            "targets solved",
            {
                "full": {"classes": 130, "points": 10, "concepts": 64},
                "tiny": {"classes": 2, "points": 6, "concepts": 16},
            },
            plan_exact_deep,
        ),
        # learn --trials reads the best_query memo about sixteen times per
        # mask it computes; teacher sampling and per-trial mask encoding
        # take more time than the weights each class writes (about 1.6k).
        # staged is the only user of schedule_for and atomize.
        # The target of each class is drawn from the seed. With c0, most
        # classes took one query per trial and one in twelve took four to
        # six, so the queries of a repetition moved by 6% between seeds;
        # with drawn targets they move by 3%.
        Workload(
            "trials-replay",
            "trials run",
            {
                "full": {"classes": 80, "points": 9, "concepts": 48, "trials": 400,
                         "staged": 2500},
                "tiny": {"classes": 2, "points": 6, "concepts": 16, "trials": 20,
                         "staged": 20},
            },
            plan_trials_replay,
        ),
    )
}


def check_report(check: Check, code: int, text: str) -> str | None:
    """Judge one command: exit code, parseable JSON, then its own check."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    return check(report)
