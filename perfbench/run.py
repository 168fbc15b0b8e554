"""Seeded end-to-end and per-layer benchmark of the thicket CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The run draws its class files from ``--seed`` into a scratch directory
under ``.perfbench/``, then repeats the workload's CLI commands, each
repetition in a fresh child interpreter (users pay cold caches on every
CLI call, and a fresh child gives each repetition its own peak memory),
until the next repetition would overrun ``--seconds``. Every report is
checked: exit code, the workload's report fields, identical bytes in
every repetition and, at the default seed, the sha256 digests pinned in
``pinned.json``.

``--trace 0`` reports the medians of the end-to-end metrics named in
BENCHMARK.json. Times are scaled to a machine of fixed speed: on a
shared host the same workload at the same seed ran from 3.4 to 5.8 s
within minutes, so each child times a fixed reference loop around every
command, and ``scaled`` multiplies each command's wall and CPU time by
``REFERENCE_S`` over the reference time measured around it. The figures
read as seconds on a machine where that loop takes ``REFERENCE_S``; the
unscaled wall times go to stderr.

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics: exact work counts, which must repeat in every
traced repetition, median self times, and ``trace.overhead_s``, the
traced minus the untraced median wall time.
The coarse spans of the last traced repetition are written to
``.perfbench/trace-<workload>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
workload's error rate over CLI commands. The exit code is 0 only when
every check passed, and 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170  # the whole run, children included, ends before this
MIN_ROUNDS = 2  # untraced repetitions; exact-deep fits only two in a run
MIN_TRACED = 2  # traced repetitions, to show their counts repeat
SETUP_PROBES = 10  # extra children that only import, for a steady setup_s
REFERENCE_S = 0.010  # reference loop time of the machine times are scaled to


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for tests")
    return parser.parse_args(argv)


def spawn(commands, cwd: Path, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh child; its record, or an error."""
    spec = {"src": str(SRC), "commands": commands, "trace": traced}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "child.py"), json.dumps(spec)],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(lines[-1])
    scaled(record, record["ready"] - spawned)
    return record


def scaled(record: dict, setup_s: float) -> None:
    """Add the record's times scaled to the machine of ``REFERENCE_S``.

    A command's time is multiplied by ``REFERENCE_S`` over the median
    reference time, averaged between the probes right before and right
    after it; set-up is scaled by the first probes, right after import.
    """
    speed = [REFERENCE_S / statistics.median(probes) for probes in record["references"]]
    results = record["results"]
    pace = [(a + b) / 2 for a, b in zip(speed, speed[1:])]
    record["raw_wall_s"] = sum(r["wall_s"] for r in results)
    record["wall_s"] = sum(r["wall_s"] * k for r, k in zip(results, pace))
    record["cpu_s"] = sum(r["cpu_s"] * k for r, k in zip(results, pace))
    record["setup_s"] = setup_s * speed[0]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def layer_value(name: str, trace: dict) -> float:
    """One per-layer metric from a traced repetition's summary."""
    base, _, field = name.rpartition(".")
    if base not in trace["calls"]:
        raise KeyError(f"per-layer metric {name!r} names no traced function")
    if field == "calls":
        return trace["calls"][base]
    if field == "self_s":
        return trace["self_s"][base]
    if field == "distinct":
        return trace["distinct"][base]
    if name == "compression.rho.attempts_per_sample":
        samples = trace["counts"].get("compression.certify_scheme.samples", 0)
        return trace["calls"][base] / samples if samples else 0.0
    return trace["counts"].get(name, 0)


def measure(plan, scratch: Path, trace: bool, seconds: float, started: float):
    """Set-up probes, then repetitions until the next would overrun `seconds`."""
    setups = [] if trace else [spawn([], scratch, False, 60) for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    kinds = (False, True) if trace else (False,)
    least = MIN_TRACED if trace else MIN_ROUNDS
    measure_start = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            left = DEADLINE_S - (time.monotonic() - started)
            reps.append({**spawn(plan.commands, scratch, traced, max(left, 1.0)), "traced": traced})
        rounds += 1
        if any("error" in r for r in reps[-len(kinds):]):
            break
        elapsed = time.monotonic() - measure_start
        if rounds >= least and elapsed * (rounds + 1) / rounds > seconds:
            break
    return setups, reps


def judge(plan, reps: list[dict], pinned: list[str] | None, check_report) -> tuple[int, list[str]]:
    """Failed commands over all repetitions, and a line per problem.

    A command fails on a non-zero exit, a failed report check, report
    bytes that differ from the first repetition's or, when `pinned` is
    given, from the pinned digest.
    """
    failed = 0
    problems: list[str] = []
    first: list[str] | None = None
    for n, rep in enumerate(reps):
        if "error" in rep:
            failed += len(plan.commands)
            problems.append(f"repetition {n}: {rep['error']}")
            continue
        digests = [sha256(r["report"]) for r in rep["results"]]
        first = first or digests
        for i, (result, check) in enumerate(zip(rep["results"], plan.checks)):
            problem = check_report(check, result["code"], result["report"])
            if problem is None and digests[i] != first[i]:
                problem = "report bytes differ from the first repetition"
            if problem is None and pinned is not None and digests[i] not in pinned[i:i + 1]:
                problem = "report digest differs from the pinned digest"
            if problem is not None:
                failed += 1
                command = " ".join(plan.commands[i])
                problems.append(f"repetition {n}, `{command}`: {problem} {result['stderr'][-300:]}")
    return failed, problems


def end_to_end(spec: dict, plan, plain: list[dict], setups: list[dict]) -> dict:
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "items_per_s": statistics.median(plan.items / r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain + setups if "setup_s" in r),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec: dict, plain: list[dict], traced: list[dict], problems: list[str]) -> dict:
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in plain
            )
        elif name.endswith("_s"):
            value = statistics.median(layer_value(name, r["trace"]) for r in traced)
        else:
            value = layer_value(name, traced[0]["trace"])
            if any(layer_value(name, r["trace"]) != value for r in traced[1:]):
                problems.append(f"count {name} differs between traced repetitions")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "thicket" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'thicket'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS, check_report

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = "tiny" if args.tiny else "full"
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text())[size][args.workload]
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = workload.plan(args.seed, scratch, **workload.sizes[size])
        setups, reps = measure(plan, scratch, bool(args.trace), args.seconds, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed, problems = judge(plan, reps, pinned, check_report)
    problems += [f"set-up probe: {p['error']}" for p in setups if "error" in p]
    plain = [r for r in reps if "error" not in r and not r["traced"]]
    traced = [r for r in reps if "error" not in r and r["traced"]]
    metrics: dict[str, dict] = {}
    if not plain or (args.trace and not traced):
        problems.append("no repetition completed")
    elif args.trace:
        metrics = per_layer(spec, plain, traced, problems)
        (WORK / f"trace-{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, **traced[-1]["trace"]}, indent=1) + "\n"
        )
    else:
        metrics = end_to_end(spec, plan, plain, setups)

    for key in ("raw_wall_s", "wall_s"):
        walls = " ".join(f"{r[key]:.3f}" for r in plain + traced)
        print(f"perfbench {args.workload}: repetition {key} {walls}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench {args.workload}: {problem}", file=sys.stderr)
    correct = not problems
    attempted = len(reps) * len(plan.commands)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
