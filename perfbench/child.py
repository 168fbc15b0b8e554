"""One benchmark repetition in a fresh interpreter.

Usage: python3 -I child.py '<spec json>'

The spec names the package source directory, the CLI command lines to
run and whether to trace. The working directory is the directory that
holds the generated class files, so reports embed relative names only.
The child imports ``thicket.cli`` (the set-up users pay on every CLI
call), then runs each command through ``thicket.cli.main`` with stdout
captured, and prints one JSON line: the time the package was ready, the
wall and CPU time of every command, the reference times, peak resident
memory, and for every command its exit code and report text.

Before the first command and after every command the child times
``reference``, a fixed pure-Python loop that uses no ``thicket`` code,
``PROBES`` times. A shared host changes speed by a third and more within
minutes, as other tenants come and go; the reference times let the
benchmark scale each command's time to a machine of fixed speed (see
``run.scaled``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def cpu_seconds() -> float:
    """User + system CPU time of this process and any it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


REFERENCE_ROUNDS = 50_000
PROBES = 3
_MASK = (1 << 12) - 1


def reference(table: dict[int, int]) -> float:
    """Seconds the reference loop takes now: dict reads and int arithmetic.

    It allocates no container objects, so the garbage collector and the
    program's heap do not change its time; only the machine does.
    """
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ROUNDS):
        x = table[(x + i) & _MASK] ^ (x >> 1)
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import thicket.cli as cli

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    table = {i: (i * 40503) & _MASK for i in range(_MASK + 1)}
    reference(table)  # warm-up: the first call runs cold
    references = [[reference(table) for _ in range(PROBES)]]
    results = []
    for argv in spec["commands"]:
        cpu0 = cpu_seconds()
        wall0 = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # reported as a failed command
                code = -1
                err.write(f"{type(exc).__name__}: {exc}\n")
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
        references.append([reference(table) for _ in range(PROBES)])
        results.append({"code": code, "report": out.getvalue(), "stderr": err.getvalue()[-2000:],
                        "wall_s": wall, "cpu_s": cpu})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {
        "ready": ready,
        "references": references,
        "peak_rss_mb": peak_kb / 1024,
        "results": results,
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
