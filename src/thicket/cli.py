"""Command-line interface: reproducible experiments and property checks.

Reports are deterministic for a fixed command line: JSON objects with
sorted keys, or fixed-order CSV, always embedding the config echo, the
seed, and the library version. Wall-clock timing goes to stderr so that
report bytes never depend on machine speed.

Exit codes: 0 success, 1 property violation, 2 usage error, 3 I/O or
parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from typing import Any

from . import __version__
from .concepts import (
    ClassValidationError,
    ConceptClass,
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
from .querygraph import QueryGraph, find_deficient_cycle
from .staged import FiniteFamily, IntervalFamily, staged_trials
from .compression import certify_scheme

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(payload: dict[str, Any], output: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)


def _read_class(path: str) -> ConceptClass:
    with open(path, "rb") as fh:
        return load_class(fh.read())


def _base(command: str, config: dict[str, Any]) -> dict[str, Any]:
    return {"command": command, "version": __version__, "config": config}


def cmd_ldim(args: argparse.Namespace) -> int:
    cc = _read_class(args.class_file)
    payload = _base("ldim", {"class": args.class_file})
    payload.update(
        {
            "seed": None,
            "ldim": ldim(cc),
            "concepts": len(cc),
            "points": len(cc.domain),
        }
    )
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
    )
    payload["seed"] = args.seed
    payload["summary"] = summary.as_dict(args.class_file, args.target)
    _report(payload, args.output)
    return 0


def cmd_learn_exact(args: argparse.Namespace) -> int:
    cc = _read_class(args.class_file)
    target = _resolve_target(cc, args.target)
    expected = exact_expected_queries(cc, target)
    payload = _base(
        "learn-exact", {"class": args.class_file, "target": args.target}
    )
    payload.update(
        {
            "seed": None,
            "expected_queries": str(expected),
            "ldim": ldim(cc),
        }
    )
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
        with open(path, "rb") as fh:
            cc, tau = load_class_with_prior(fh.read())
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
    )
    payload["seed"] = args.seed
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
    )
    payload["seed"] = None
    if args.verify:
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


def _verify_one(cc: ConceptClass, max_cycle_len: int) -> list[dict[str, Any]]:
    """All exact property checks for one class; returns violations."""
    problems: list[dict[str, Any]] = []
    cache = LdimCache(cc)
    graph = QueryGraph(cc, cache)
    mask = cache.full_mask
    d = cache.ldim_mask(mask)
    n = len(cc)

    def blame(check: str, detail: str) -> None:
        problems.append(
            {"check": check, "detail": detail, "class_file": _class_document(cc)}
        )

    for i in range(n):
        for j in range(i + 1, n):
            a, b = cc.concepts[i], cc.concepts[j]
            for p in graph.diff_points(i, j):
                point = cc.domain.points[p]
                # drop(cc, c, point) on the full mask, without re-encoding cc
                drops = sum(
                    d - cache.ldim_mask(cache.restrict_mask(mask, p, c.bits[p]))
                    for c in (a, b)
                )
                if drops < 1:
                    blame(
                        "drop_sums",
                        f"drops at {point} for {cc.label(i)},{cc.label(j)} sum below 1",
                    )
            w_ij = graph.weight(mask, i, j)
            w_ji = graph.weight(mask, j, i)
            if w_ij + w_ji < 1:
                blame(
                    "edge_weight_sums",
                    f"d({cc.label(i)},{cc.label(j)}) + d({cc.label(j)},{cc.label(i)})"
                    f" = {w_ij + w_ji} < 1",
                )
    if n >= 2:
        best = max(graph.rank(mask, i) for i in range(n))
        if best < Fraction(1, 2):
            blame("max_query_rank", f"maximal query rank {best} below 1/2")
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
    report = certify_scheme(cc)
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
    payload = _base(
        "verify", {**source, "max_cycle_len": args.max_cycle_len}
    )
    payload.update(
        {
            "seed": args.seed,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thicket",
        description="Equivalence-query learning with random counterexamples: "
        "exact dimension computation, learners, staged learning, and "
        "compression certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("ldim", help="dimension of a class file")
    p.add_argument("--class", dest="class_file", required=True)
    add_output(p)
    p.set_defaults(func=cmd_ldim)

    p = sub.add_parser("learn", help="seeded Monte Carlo learning runs")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--target", required=True, help="target concept label")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("learn-exact", help="exact expected query count")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--target", required=True, help="target concept label")
    add_output(p)
    p.set_defaults(func=cmd_learn_exact)

    p = sub.add_parser("staged", help="staged learning on a countable family")
    p.add_argument(
        "--family",
        default="intervals",
        help="'intervals' or 'file:<path>' with a tau prior",
    )
    p.add_argument(
        "--prior-geometric",
        default="1/2",
        help="success ratio of the geometric prior for the interval family",
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stage-cap", type=int, default=30)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(p)
    p.set_defaults(func=cmd_staged)

    p = sub.add_parser("compress", help="compression scheme of a class file")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument(
        "--verify",
        action="store_true",
        help="replay every realizable sample through the scheme",
    )
    p.add_argument("--max-sample-size", type=int, default=None)
    add_output(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("verify", help="exact property checks over classes")
    p.add_argument("--class", dest="class_file", default=None)
    p.add_argument("--random-classes", type=int, default=None)
    p.add_argument("--max-domain", type=int, default=5)
    p.add_argument("--max-concepts", type=int, default=8)
    p.add_argument("--max-cycle-len", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a seeded random class file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--concepts", type=int, required=True)
    add_output(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"thicket {args.command}: {exc}", file=sys.stderr)
        return 2
    except ClassValidationError as exc:
        print(f"thicket {args.command}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"thicket {args.command}: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.monotonic() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
