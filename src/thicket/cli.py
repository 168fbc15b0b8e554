"""Command-line interface: reproducible experiments and property checks.

Reports are deterministic for a fixed command line: JSON objects with
sorted keys, or fixed-order CSV, always embedding the config echo, the
seed, and the library version. Wall-clock timing goes to stderr so that
report bytes never depend on machine speed.

Exit codes: 0 success, 1 property violation, 2 usage error, 3 I/O or
parse error, an input too large to check, or a truncated staged prior.

Each call builds the argument parser of its own subcommand only, from
the one table of subcommands; the full parser is built only for
top-level help, a missing or unknown command, and ``--version``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from functools import cmp_to_key
from typing import Any, Callable

from . import __version__
from .concepts import (
    MAX_CLASS_POINTS,
    ClassValidationError,
    ConceptClass,
    _TooManyPoints,
    load_class,
    load_class_with_prior,
    parse_rational,
    save_class,
)
from .generate import random_class, random_classes
from .learner import (
    TrialSummary,
    derive_seed,
    exact_expected_queries,
    monte_carlo_trials,
)
# drop is no longer called here; it stays importable as cli.drop, the
# name perfbench/tracer.py wraps
from .littlestone import LdimCache, drop, ldim  # noqa: F401
from .querygraph import QueryGraph, _points, find_deficient_cycle
from .staged import FiniteFamily, IntervalFamily, PriorExhaustedError, staged_trials
from .compression import certify_scheme

__all__ = ["main"]

# compress --verify and verify replay every point subset of at most the
# sample size they check; refuse more subsets than a full 16-point domain has
MAX_REPLAY_SUBSETS = 2**16
MAX_REPLAY_POINTS = MAX_REPLAY_SUBSETS.bit_length() - 1
# gen draws distinct concepts with random.sample from range(2**points),
# whose length must fit in a C ssize_t: 62 points on a 64-bit build
MAX_GEN_POINTS = sys.maxsize.bit_length() - 1
# a drawn concept takes about 0.9 KB: cap the draw at about 60 MB
MAX_GEN_CONCEPTS = 2**16


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _int_at_least(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type: an integer no smaller than `low`, nor above `high`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(payload: dict[str, Any], output: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)


def _load(path: str, loader: Callable[..., Any]) -> Any:
    """A class file read by `loader`; one of more than MAX_CLASS_POINTS
    points is refused before its weights are parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return loader(data, capped=True)
    except _TooManyPoints as exc:
        raise ClassValidationError(
            f"class file {path!r} has {exc.points} points;"
            f" at most {MAX_CLASS_POINTS} are supported"
        ) from None


def _read_class(path: str) -> ConceptClass:
    return _load(path, load_class)


def _bound_replay(
    cc: ConceptClass,
    limit: int | None,
    error: Callable[[str], Exception],
    hint: str,
) -> None:
    """Raise `error` when replaying every point subset of at most `limit`
    points (all subsets for None) would exceed MAX_REPLAY_SUBSETS."""
    n = len(cc.domain)
    subsets = sum(math.comb(n, k) for k in range(min(limit or n, n) + 1))
    if subsets > MAX_REPLAY_SUBSETS:
        raise error(f"{subsets} point subsets to replay exceed {MAX_REPLAY_SUBSETS}; {hint}")


def _base(command: str, config: dict[str, Any], seed: int | None) -> dict[str, Any]:
    return {"command": command, "version": __version__, "config": config, "seed": seed}


def cmd_ldim(args: argparse.Namespace) -> int:
    cc = _read_class(args.class_file)
    payload = _base("ldim", {"class": args.class_file}, None)
    payload.update({"ldim": ldim(cc), "concepts": len(cc), "points": len(cc.domain)})
    _report(payload, args.output)
    return 0


def _resolve_target(cc: ConceptClass, label: str):
    try:
        return cc.by_label(label)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_learn(args: argparse.Namespace) -> int:
    cc = _read_class(args.class_file)
    target = _resolve_target(cc, args.target)
    summary = monte_carlo_trials(cc, target, args.trials, args.seed)
    if args.format == "csv":
        _emit(
            TrialSummary.csv_header()
            + "\n"
            + summary.csv_row(args.class_file, args.target)
            + "\n",
            args.output,
        )
        return 0
    payload = _base(
        "learn",
        {
            "class": args.class_file,
            "target": args.target,
            "trials": args.trials,
            "seed": args.seed,
        },
        args.seed,
    )
    payload["summary"] = summary.as_dict(args.class_file, args.target)
    _report(payload, args.output)
    return 0


def cmd_learn_exact(args: argparse.Namespace) -> int:
    cc = _read_class(args.class_file)
    target = _resolve_target(cc, args.target)
    graph = QueryGraph(cc)
    expected = exact_expected_queries(cc, target, graph)
    payload = _base("learn-exact", {"class": args.class_file, "target": args.target}, None)
    payload.update({"expected_queries": str(expected), "ldim": ldim(cc, graph.cache)})
    _report(payload, args.output)
    return 0


def _parse_ratio(text: str) -> Fraction:
    try:
        ratio = parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed prior ratio {text!r}") from None
    if not 0 < ratio < 1:
        raise UsageError("prior ratio must lie strictly between 0 and 1")
    return ratio


def cmd_staged(args: argparse.Namespace) -> int:
    if args.family == "intervals":
        family = IntervalFamily(_parse_ratio(args.prior_geometric))
    elif args.family.startswith("file:"):
        path = args.family[len("file:"):]
        cc, tau = _load(path, load_class_with_prior)
        if tau is None:
            raise UsageError(f"class file {path!r} has no tau prior")
        family = FiniteFamily(cc, tau, name=args.family)
    else:
        raise UsageError(
            f"unknown family {args.family!r}; use 'intervals' or 'file:<path>'"
        )
    summary = staged_trials(family, args.trials, args.seed, args.stage_cap)
    if args.format == "csv":
        _emit(summary.csv_header() + "\n" + summary.csv_row() + "\n", args.output)
        return 0
    payload = _base(
        "staged",
        {
            "family": args.family,
            "prior_geometric": args.prior_geometric,
            "trials": args.trials,
            "seed": args.seed,
            "stage_cap": args.stage_cap,
        },
        args.seed,
    )
    payload["summary"] = summary.as_dict()
    _report(payload, args.output)
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    cc = _read_class(args.class_file)
    payload = _base(
        "compress",
        {
            "class": args.class_file,
            "verify": args.verify,
            "max_sample_size": args.max_sample_size,
        },
        None,
    )
    if args.verify:
        _bound_replay(
            cc, args.max_sample_size, UsageError, "bound them with --max-sample-size"
        )
        report = certify_scheme(cc, args.max_sample_size)
        payload["report"] = report.as_dict()
        _report(payload, args.output)
        return 0 if report.ok else 1
    d = ldim(cc)
    payload["report"] = {"d": d, "rho_count": d + 1}
    _report(payload, args.output)
    return 0


def _class_document(cc: ConceptClass) -> str:
    # embedded as a string: JSON object key sorting must not disturb the
    # canonical concept order of the reproducible class file
    return save_class(cc).decode("utf-8")


def _drop_sums(cache: LdimCache, mask: int) -> list[int]:
    """Per point p, drop(C, ., p) at label 0 plus at label 1: a pair split
    at p takes both labels there, so this is the drop sum of every such pair.
    It is drop0 + drop1 of the split table at a split point; elsewhere one
    side keeps the class and the empty one loses ldim + 1, since
    ldim_mask(0) is -1."""
    sums = [cache.ldim_mask(mask) + 1] * len(cache.root.domain)
    for p, _, drop0, drop1 in cache.splits(mask):
        sums[p] = drop0 + drop1
    return sums


def _verify_one(cc: ConceptClass, max_cycle_len: int) -> list[dict[str, Any]]:
    """All exact property checks for one class; returns violations."""
    problems: list[dict[str, Any]] = []
    graph = QueryGraph(cc)
    cache = graph.cache
    mask = cache.full_mask
    d = cache.ldim_mask(mask)
    n = len(cc)

    def blame(check: str, detail: str) -> None:
        problems.append(
            {"check": check, "detail": detail, "class_file": _class_document(cc)}
        )

    # the points whose drop sum is below 1, which the paper says never occur
    low = sum(1 << p for p, total in enumerate(_drop_sums(cache, mask)) if total < 1)
    rows = cache.point_bits
    edges = graph.edges(mask)
    for i in range(n):
        for j in range(i + 1, n):
            for p in _points((rows[i] ^ rows[j]) & low):
                blame(
                    "drop_sums",
                    f"drops at {cc.domain.points[p]} for {cc.label(i)},{cc.label(j)}"
                    " sum below 1",
                )
            (n_ij, d_ij), (n_ji, d_ji) = edges[i, j], edges[j, i]
            if n_ij * d_ji + n_ji * d_ij < d_ij * d_ji:
                blame(
                    "edge_weight_sums",
                    f"d({cc.label(i)},{cc.label(j)}) + d({cc.label(j)},{cc.label(i)})"
                    f" = {Fraction(n_ij, d_ij) + Fraction(n_ji, d_ji)} < 1",
                )
    if n >= 2:
        # ranks are row minima of the table, compared by cross-multiplication
        ratio = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
        rows = [min((edges[i, j] for j in range(n) if j != i), key=ratio) for i in range(n)]
        num, den = max(rows, key=ratio)
        if 2 * num < den:
            blame("max_query_rank", f"maximal query rank {Fraction(num, den)} below 1/2")
    cycle = find_deficient_cycle(cc, max_cycle_len, graph)
    if cycle is not None:
        blame(
            "no_deficient_cycles",
            "deficient cycle through "
            + ",".join(c.bitstring() for c in cycle),
        )
    for i, target in enumerate(cc.concepts):
        expected = exact_expected_queries(cc, target, graph)
        # counterexamples average <= 2d, plus the confirming query;
        # singletons are confirmed on the very first ask
        bound_ok = expected <= 2 * d + 1 if n >= 2 else expected == 1
        if not bound_ok:
            blame(
                "expected_query_bound",
                f"target {cc.label(i)} needs {expected} expected queries"
                f" with ldim {d}",
            )
    report = certify_scheme(cc, cache=cache)
    if not report.ok:
        blame(
            "compression_round_trip",
            f"{len(report.failures)} of {report.samples_tested} samples failed",
        )
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.class_file is None) == (args.random_classes is None):
        raise UsageError("pass exactly one of --class or --random-classes")
    if args.class_file is not None:
        classes = [_read_class(args.class_file)]
        _bound_replay(
            classes[0],
            None,
            ClassValidationError,
            f"verify replays them all, so it takes classes of at most"
            f" {MAX_REPLAY_POINTS} points",
        )
        source = {"class": args.class_file}
    else:
        classes = list(
            random_classes(
                args.seed, args.random_classes, args.max_domain, args.max_concepts
            )
        )
        source = {
            "random_classes": args.random_classes,
            "max_domain": args.max_domain,
            "max_concepts": args.max_concepts,
            "seed": args.seed,
        }
    checks = [
        "drop_sums",
        "edge_weight_sums",
        "max_query_rank",
        "no_deficient_cycles",
        "expected_query_bound",
        "compression_round_trip",
    ]
    violations: list[dict[str, Any]] = []
    for cc in classes:
        violations.extend(_verify_one(cc, args.max_cycle_len))
    payload = _base("verify", {**source, "max_cycle_len": args.max_cycle_len}, args.seed)
    payload.update(
        {
            "classes_checked": len(classes),
            "checks": checks,
            "violations": violations,
            "ok": not violations,
        }
    )
    _report(payload, args.output)
    return 0 if not violations else 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.concepts > 2**args.points:
        raise UsageError("cannot draw more distinct concepts than 2**points")
    rng = random.Random(derive_seed(args.seed, 0))
    cc = random_class(
        rng,
        max_points=args.points,
        max_concepts=args.concepts,
        min_points=args.points,
        min_concepts=args.concepts,
    )
    _emit(save_class(cc).decode("utf-8"), args.output)
    return 0


_POSITIVE = _int_at_least(1)
_CLASS = {"dest": "class_file", "required": True}
_TARGET = {"required": True, "help": "target concept label"}
_TRIALS = {"type": _POSITIVE, "default": 1000}
_SEED = {"type": int, "default": 0}
_FORMAT = {"choices": ("json", "csv"), "default": "json"}

# One row per subcommand: name, help, handler, and its options in help
# order; every subcommand also takes --output, listed last.
COMMANDS: tuple[tuple[str, str, Callable[[argparse.Namespace], int], dict[str, Any]], ...] = (
    ("ldim", "dimension of a class file", cmd_ldim, {"--class": _CLASS}),
    ("learn", "seeded Monte Carlo learning runs", cmd_learn, {
        "--class": _CLASS, "--target": _TARGET, "--trials": _TRIALS, "--seed": _SEED,
        "--format": _FORMAT}),
    ("learn-exact", "exact expected query count", cmd_learn_exact,
     {"--class": _CLASS, "--target": _TARGET}),
    ("staged", "staged learning on a countable family", cmd_staged, {
        "--family": {
            "default": "intervals", "help": "'intervals' or 'file:<path>' with a tau prior"},
        "--prior-geometric": {
            "default": "1/2",
            "help": "success ratio of the geometric prior for the interval family"},
        "--trials": _TRIALS, "--seed": _SEED, "--stage-cap": {"type": _POSITIVE, "default": 30},
        "--format": _FORMAT}),
    ("compress", "compression scheme of a class file", cmd_compress, {
        "--class": _CLASS,
        "--verify": {
            "action": "store_true", "help": "replay every realizable sample through the scheme"},
        "--max-sample-size": {"type": _POSITIVE}}),
    ("verify", "exact property checks over classes", cmd_verify, {
        "--class": {"dest": "class_file"}, "--random-classes": {"type": _POSITIVE},
        "--max-domain": {"type": _int_at_least(1, MAX_REPLAY_POINTS), "default": 5},
        "--max-concepts": {"type": _POSITIVE, "default": 8},
        "--max-cycle-len": {"type": _int_at_least(2), "default": 5}, "--seed": _SEED}),
    ("gen", "emit a seeded random class file", cmd_gen, {
        "--seed": {"type": int, "required": True},
        "--points": {"type": _int_at_least(1, MAX_GEN_POINTS), "required": True},
        "--concepts": {"type": _int_at_least(1, MAX_GEN_CONCEPTS), "required": True}}),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with only `command`'s subparser when it names
    one, and every subparser otherwise. Both print the same usage, help
    and error text for that command."""
    parser = argparse.ArgumentParser(
        prog="thicket",
        description="Equivalence-query learning with random counterexamples: "
        "exact dimension computation, learners, staged learning, and "
        "compression certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    names = [row[0] for row in COMMANDS]
    # the usage line lists every command either way; the full parser keeps
    # metavar unset, which would reword its missing and invalid command errors
    listed = {"metavar": "{" + ",".join(names) + "}"} if command in names else {}
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name, help_text, handler, options in COMMANDS:
        if listed and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.add_argument("--output", help="write the report here instead of stdout")
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    started = time.monotonic()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"thicket {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ClassValidationError, OSError, PriorExhaustedError) as exc:
        print(f"thicket {args.command}: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.monotonic() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
