"""The benchmark's own tests, at tiny input sizes.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
They stay off the tier-1 run, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Layers each workload must exercise, and layers it is predicted to leave idle.
BUSY = {
    "verify-corpus": [
        "littlestone.cache_init.calls", "compression.build_reconstructors.calls",
        "littlestone.drop.calls", "querygraph.rank.calls",
        "querygraph.find_deficient_cycle.calls", "compression.certify_scheme.samples",
        "learner.exact_expected_queries.states", "generate.random_class.calls",
    ],
    "certify-wide": [
        "compression.certify_scheme.samples", "compression.greedy_run.calls",
        "compression.rho.calls", "littlestone.mask_of.calls",
    ],
    "exact-deep": [
        "querygraph.weight.distinct", "littlestone.ldim_mask.distinct",
        "learner.exact_expected_queries.states",
    ],
    "trials-replay": [
        "querygraph.best_query.calls", "learner.run_thicket_learner.queries",
        "learner.teacher_respond.calls", "learner.sample_index.calls",
        "staged.run_staged_learner.stages", "staged.schedule_for.distinct",
        "staged.atomize.calls", "staged.respond.calls",
    ],
}
IDLE = {
    "verify-corpus": ["learner.teacher_respond.calls", "staged.schedule_for.calls"],
    "certify-wide": ["querygraph.weight.calls", "learner.teacher_respond.calls"],
    "exact-deep": ["compression.certify_scheme.calls", "learner.teacher_respond.calls"],
    "trials-replay": ["compression.certify_scheme.calls", "littlestone.drop.calls"],
}


def bench(name: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_printed_with_unit(name):
    proc = bench(name, seed=3, trace=0)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_counts_and_pinned_reports(name):
    # at the default seed every traced report must match the digests
    # pinned from untraced runs, or the run fails
    first, second = (bench(name, seed=workloads.DEFAULT_SEED, trace=1) for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    a, b = last_json(first), last_json(second)
    assert {k: v["unit"] for k, v in a["metrics"].items()} == units(SPEC["per_layer"])
    counts = {k: v["value"] for k, v in a["metrics"].items() if not k.endswith("_s")}
    assert counts == {k: v["value"] for k, v in b["metrics"].items() if not k.endswith("_s")}
    for metric in BUSY[name]:
        assert counts[metric] > 0, metric
    for metric in IDLE[name]:
        assert counts[metric] == 0, metric


def test_times_scale_with_the_reference_around_each_command():
    slow, fast = 2 * run.REFERENCE_S, run.REFERENCE_S / 2
    record = {
        "references": [[slow] * 3, [slow, slow, 9.0], [fast] * 3],
        "results": [{"wall_s": 1.0, "cpu_s": 0.8}, {"wall_s": 2.0, "cpu_s": 2.0}],
    }
    run.scaled(record, 0.4)
    assert record["raw_wall_s"] == 3.0
    assert record["wall_s"] == pytest.approx(1.0 * 0.5 + 2.0 * (0.5 + 2.0) / 2)
    assert record["cpu_s"] == pytest.approx(0.8 * 0.5 + 2.0 * (0.5 + 2.0) / 2)
    assert record["setup_s"] == pytest.approx(0.2)


def copy_benchmark(tmp_path: Path, with_program: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_wrong_pinned_digest_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path, with_program=True)
    pinned_file = root / "perfbench" / "pinned.json"
    pinned = json.loads(pinned_file.read_text())
    pinned["tiny"]["exact-deep"][1] = "0" * 64
    pinned_file.write_text(json.dumps(pinned))
    proc = bench("exact-deep", seed=workloads.DEFAULT_SEED, trace=0, cwd=root)
    assert proc.returncode == 1
    out = last_json(proc)
    assert out["correct"] is False
    assert 0 < out["failed"] < out["attempted"]  # one of the two commands, every repetition
    assert "pinned digest" in proc.stderr


def _alter(report: dict) -> None:
    command = report["command"]
    if command == "verify":
        report["ok"] = False
    elif command == "compress":
        report["report"]["samples_tested"] += 1
    elif command == "learn-exact":
        report["expected_queries"] = str(2 * report["ldim"] + 2)
    elif command == "learn":
        report["summary"]["histogram"]["1"] = report["summary"]["histogram"].get("1", 0) + 1
    elif command == "staged":
        report["summary"]["identified"] -= 1


@pytest.mark.parametrize("name", NAMES)
def test_altered_reports_fail_their_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plan = workload.plan(5, tmp_path, **workload.sizes["tiny"])
    record = run.spawn(plan.commands, tmp_path, False, 60)
    assert "error" not in record
    for result, check in zip(record["results"], plan.checks):
        assert workloads.check_report(check, result["code"], result["report"]) is None
        assert workloads.check_report(check, 1, result["report"]) == "exit code 1"
        report = json.loads(result["report"])
        _alter(report)
        assert workloads.check_report(check, 0, json.dumps(report)) is not None


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_benchmark(tmp_path, with_program=False)
    proc = bench("verify-corpus", seed=1, trace=0, cwd=root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
