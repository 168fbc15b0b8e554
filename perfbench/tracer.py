"""Outside-in layer trace for one benchmark child process.

The tracer wraps public functions and methods of the ``thicket`` package
at every place the CLI's call paths look them up: class attributes for
methods, module globals for functions. Nothing inside the package is
edited, so a traced run executes the same code as an untraced one and
must print the same report bytes.

Hot calls (``ldim_mask`` alone runs into the hundreds of thousands per
command) are aggregated in memory: per name a call count, the summed
self time, and the set of distinct argument keys. Self time is a call's
duration minus the time covered by the traced calls it made. Only the
coarse calls, one per command or per ``certify_scheme``,
``exact_expected_queries``, ``monte_carlo_trials``, ``staged_trials`` or
``run_staged_learner`` call, are kept as individual spans with their
parent.
"""

from __future__ import annotations

import time
from typing import Any, Callable

# Aggregate names whose individual calls are also kept as spans.
COARSE = frozenset(
    {
        "cli.main",
        "compression.certify_scheme",
        "learner.exact_expected_queries",
        "learner.monte_carlo_trials",
        "staged.staged_trials",
        "staged.run_staged_learner",
    }
)


class Tracer:
    """Call counts, self times, distinct keys and coarse spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[dict[str, Any]] = []
        self._stack: list[float] = []  # child time covered, per open call
        self._open: list[int] = []  # span indices of open coarse calls
        self._serial: dict[int, int] = {}  # id(instance) -> creation number
        self._created = 0
        self._clock = time.perf_counter

    def serial(self, obj: object) -> int:
        """Creation number of a traced instance, stable across runs.

        ``id`` values are reused once an object dies; the number is
        reassigned when a new instance is initialised at the same id.
        """
        return self._serial[id(obj)]

    def register(self, obj: object) -> None:
        """Give a new instance the next creation number."""
        self._created += 1
        self._serial[id(obj)] = self._created

    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Callable[..., Any] | None = None,
    ) -> Callable:
        """A timed stand-in for `fn`, aggregated under `name`."""
        self.declare(name)
        seen = self.keys.setdefault(name, set()) if key is not None else None
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, self._clock
        coarse = name in COARSE
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args, **kwargs))
            if coarse:
                spans.append(
                    {
                        "name": name,
                        "parent": open_spans[-1] if open_spans else None,
                        "start": clock(),
                    }
                )
                open_spans.append(len(spans) - 1)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
                if coarse:
                    spans[open_spans.pop()]["end"] = clock()

        return traced

    def declare(self, name: str) -> None:
        """Report `name` with zero calls until something calls it."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "distinct": {name: len(seen) for name, seen in self.keys.items()},
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    """Wrap the package's layers in place; call once per process."""
    from thicket import cli, compression, generate, learner, littlestone, querygraph, staged

    t = tracer

    def patch(owner: Any, attr: str, name: str, key=None) -> None:
        setattr(owner, attr, t.wrap(name, getattr(owner, attr), key))

    # -- instances that key distinct-call sets get a creation number
    cache_init = littlestone.LdimCache.__init__
    timed_cache_init = t.wrap("littlestone.cache_init", cache_init)

    def init_cache(self, *args, **kwargs):
        t.register(self)
        timed_cache_init(self, *args, **kwargs)

    littlestone.LdimCache.__init__ = init_cache

    graph_init = querygraph.QueryGraph.__init__

    def init_graph(self, *args, **kwargs):
        t.register(self)
        graph_init(self, *args, **kwargs)

    querygraph.QueryGraph.__init__ = init_graph

    # -- littlestone
    patch(littlestone.LdimCache, "mask_of", "littlestone.mask_of")
    patch(
        littlestone.LdimCache,
        "ldim_mask",
        "littlestone.ldim_mask",
        key=lambda self, mask: (t.serial(self), mask),
    )
    patch(cli, "drop", "littlestone.drop")

    # -- querygraph
    patch(
        querygraph.QueryGraph,
        "weight",
        "querygraph.weight",
        key=lambda self, mask, i, j: (t.serial(self), mask, i, j),
    )
    patch(querygraph.QueryGraph, "rank", "querygraph.rank")
    patch(
        querygraph.QueryGraph,
        "best_query",
        "querygraph.best_query",
        key=lambda self, mask: (t.serial(self), mask),
    )
    patch(cli, "find_deficient_cycle", "querygraph.find_deficient_cycle")

    # -- learner: the expectation DP asks for one query per state it
    # expands, so states are the best_query calls made inside it
    timed_exact = t.wrap("learner.exact_expected_queries", cli.exact_expected_queries)

    def exact_expected_queries(*args, **kwargs):
        before = t.calls["querygraph.best_query"]
        try:
            return timed_exact(*args, **kwargs)
        finally:
            t.add(
                "learner.exact_expected_queries.states",
                t.calls["querygraph.best_query"] - before,
            )

    cli.exact_expected_queries = exact_expected_queries

    patch(cli, "monte_carlo_trials", "learner.monte_carlo_trials")
    timed_learner = t.wrap("learner.run_thicket_learner", learner.run_thicket_learner)

    def run_thicket_learner(*args, **kwargs):
        transcript = timed_learner(*args, **kwargs)
        t.add("learner.run_thicket_learner.queries", transcript.query_count)
        return transcript

    learner.run_thicket_learner = run_thicket_learner
    for module in (learner, staged):
        patch(module, "teacher_respond", "learner.teacher_respond")
        patch(module, "sample_index", "learner.sample_index")

    # -- compression
    timed_certify = t.wrap("compression.certify_scheme", cli.certify_scheme)

    def certify_scheme(*args, **kwargs):
        report = timed_certify(*args, **kwargs)
        t.add("compression.certify_scheme.samples", report.samples_tested)
        return report

    cli.certify_scheme = certify_scheme
    patch(compression, "compress", "compression.compress")
    patch(compression, "greedy_run", "compression.greedy_run")
    t.declare("compression.rho")  # wrapped per reconstructor set, below
    timed_build = t.wrap("compression.build_reconstructors", compression.build_reconstructors)

    def build_reconstructors(*args, **kwargs):
        return tuple(t.wrap("compression.rho", rho) for rho in timed_build(*args, **kwargs))

    compression.build_reconstructors = build_reconstructors

    # -- staged
    patch(cli, "staged_trials", "staged.staged_trials")
    timed_staged = t.wrap("staged.run_staged_learner", staged.run_staged_learner)

    def run_staged_learner(*args, **kwargs):
        result = timed_staged(*args, **kwargs)
        t.add("staged.run_staged_learner.stages", result.stages)
        t.add("staged.run_staged_learner.queries", result.queries)
        return result

    staged.run_staged_learner = run_staged_learner
    patch(
        staged,
        "schedule_for",
        "staged.schedule_for",
        key=lambda family, stage: (family.describe(), stage),
    )
    patch(staged.IntervalFamily, "atomize", "staged.atomize")
    patch(staged.IntervalFamily, "respond", "staged.respond")

    # -- file and corpus edges
    patch(cli, "load_class", "concepts.load_class")
    patch(generate, "random_class", "generate.random_class")
    patch(cli, "main", "cli.main")
