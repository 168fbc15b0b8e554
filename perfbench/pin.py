"""Pin the sha256 digest of every report at the default seed.

Usage, from the root of a checkout:

    python3 perfbench/pin.py

Runs each workload once at the default seed, at full and tiny size,
and rewrites ``pinned.json`` beside this file. It refuses to pin a
report that fails its workload's checks. Re-pin only in a change whose
purpose is to change report bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, SRC, WORK, sha256, spawn


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS, check_report

    pinned: dict[str, dict[str, list[str]]] = {}
    WORK.mkdir(exist_ok=True)
    for size in ("full", "tiny"):
        pinned[size] = {}
        for name, workload in WORKLOADS.items():
            scratch = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=WORK))
            try:
                plan = workload.plan(DEFAULT_SEED, scratch, **workload.sizes[size])
                record = spawn(plan.commands, scratch, False, 170)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if "error" in record:
                print(f"pin {name} ({size}): {record['error']}", file=sys.stderr)
                return 1
            for command, result, check in zip(plan.commands, record["results"], plan.checks):
                problem = check_report(check, result["code"], result["report"])
                if problem is not None:
                    print(f"pin {name} ({size}) `{' '.join(command)}`: {problem}", file=sys.stderr)
                    return 1
            pinned[size][name] = [sha256(r["report"]) for r in record["results"]]
            print(f"pinned {name} ({size}): {len(plan.commands)} reports")
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
