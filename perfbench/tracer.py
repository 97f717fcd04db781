"""Span tracer that wraps the package's public functions from outside.

Installing the tracer replaces each traced function by a wrapper in every
``starclique`` module that binds it: ``cli`` and ``verify`` import
``build_graph`` by name, ``evolve`` finds ``step`` through its module
globals, and the package namespace re-exports most names.  Methods are
replaced on their class.  Uninstalling puts the originals back, so traced
and untraced passes can alternate in one process.

A span records (name, start, end, parent span index, operation id, self
time).  Self time is the span's duration minus the durations of its direct
children; calls are sequential, so children never overlap.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "starclique"

#: (module, attribute path, span name).  An attribute path with a dot is a
#: method on a class in that module.
SPANNED = (
    ("graph", "build_graph", "graph.build_graph"),
    ("full_walk", "step", "full_walk.step"),
    ("full_walk", "evolve", "full_walk.evolve"),
    ("full_walk", "collapse", "full_walk.collapse"),
    ("full_walk", "lift", "full_walk.lift"),
    ("full_walk", "shift", "full_walk.shift"),
    ("full_walk", "initial_state", "full_walk.initial_state"),
    ("collapsed", "build_reduced_operators", "collapsed.build_reduced_operators"),
    ("collapsed", "evolve_collapsed", "collapsed.evolve_collapsed"),
    ("spectral", "walk_eigensystem", "spectral.walk_eigensystem"),
    ("spectral", "EigenbasisEvaluator.__init__", "spectral.evaluator_build"),
    ("spectral", "EigenbasisEvaluator.state_series", "spectral.state_series"),
    ("spectral", "audit_closed_forms", "spectral.audit_closed_forms"),
    ("spectral", "closed_form_probability", "spectral.closed_form_probability"),
    ("asymptotics", "probability_approx", "asymptotics.probability_approx"),
    ("asymptotics", "coefficient_estimates", "asymptotics.coefficient_estimates"),
    ("asymptotics", "optimal_time_exact", "asymptotics.optimal_time_exact"),
    ("asymptotics", "optimal_time_branch", "asymptotics.optimal_time_branch"),
    ("asymptotics", "exponent_fit", "asymptotics.exponent_fit"),
    ("trace", "ProbabilityTrace.to_csv", "trace.write"),
    ("trace", "ProbabilityTrace.to_json", "trace.write"),
    ("trace", "ProbabilityTrace.from_csv", "trace.read"),
    ("trace", "ProbabilityTrace.from_json", "trace.read"),
    ("verify", "run_checks", "verify.run_checks"),
)

#: Functions too small and frequent for a span; only their calls are counted.
COUNTED = (
    ("spectral", "discriminant_angles", "spectral.discriminant_angles"),
    ("trace", "ProbabilityTrace.__init__", "trace.build"),
)

#: Evaluator queries; a query made from inside another query is not counted.
QUERIES = ("state", "state_series", "probability", "amplitudes")


class Patches:
    """Replaces package attributes by wrappers and puts the originals back.

    ``replace(module, path, make)`` wraps ``path`` of ``starclique.<module>``
    with ``make(original)``: a function in every package module that binds
    it, a method (``Class.attr``) on its class.  A name the package no
    longer has is skipped and recorded in ``missing``, not an error: the
    benchmark must keep running while the package changes under it.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def __bool__(self) -> bool:
        return bool(self._saved)

    @staticmethod
    def _modules() -> list:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def replace(self, module_name: str, path: str, make) -> None:
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            raw = vars(getattr(owner, cls_name, object)).get(attr)
            if raw is None:
                self.missing.add(f"{module_name}.{path}")
                return
            cls = getattr(owner, cls_name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(owner, path, None)
        if original is None:
            self.missing.add(f"{module_name}.{path}")
            return
        wrapped = make(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (op id, name) -> amount
        self.op = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._query_depth = 0
        self._patches = Patches()

    @property
    def missing(self) -> set[str]:
        return self._patches.missing

    # ---- recording ----

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.op, name)] += amount

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(index)
        self._child.append(0.0)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        duration = end - span[1]
        span[5] = duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    # ---- installation ----

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replace = self._patches.replace
        for module_name, path, name in SPANNED:
            replace(module_name, path, self._span_wrapper(name))
        for module_name, path, name in COUNTED:
            replace(module_name, path, self._count_wrapper(name))
        for attr in QUERIES:
            replace("spectral", f"EigenbasisEvaluator.{attr}", self._query_wrapper)

    def uninstall(self) -> None:
        self._patches.restore()

    # ---- wrappers ----

    def _span_wrapper(self, name: str):
        extra = _EXTRA_COUNTS.get(name)

        def make(func):
            def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.close(index)
                if extra is not None:
                    try:
                        extra(self, args, result)
                    except (AttributeError, IndexError, TypeError):
                        self.missing.add(f"counts of {name}")
                return result

            traced.__wrapped__ = func
            return traced

        return make

    def _count_wrapper(self, name: str):
        def make(func):
            def counted(*args, **kwargs):
                self.counts[(self.op, name)] += 1
                return func(*args, **kwargs)

            counted.__wrapped__ = func
            return counted

        return make

    def _query_wrapper(self, func):
        def queried(*args, **kwargs):
            if self._query_depth == 0:
                self.counts[(self.op, "spectral.queries")] += 1
            self._query_depth += 1
            try:
                return func(*args, **kwargs)
            finally:
                self._query_depth -= 1

        queried.__wrapped__ = func
        return queried


# Counts recorded at a span's boundary from its arguments and result.


#: Per-arc index arrays of the arc-table graph; a layout without some of
#: them simply counts fewer bytes.
INDEX_ARRAYS = ("origin", "terminus", "inverse", "arc_class", "class_order", "degree")
#: The index arrays one arc-table step reads.
STEP_ARRAYS = ("terminus", "inverse", "degree")


def _nbytes(graph, names) -> int:
    return sum(getattr(graph, name).nbytes for name in names if hasattr(graph, name))


def _graph_counts(tracer: Tracer, args, graph) -> None:
    tracer.count("graph.arcs", graph.arc_count)
    tracer.count("graph.index_bytes", _nbytes(graph, INDEX_ARRAYS))


def _step_counts(tracer: Tracer, args, state) -> None:
    graph, before = args[0], args[1]
    tracer.count("full_walk.arc_steps", graph.arc_count)
    # computed, not measured: each array the step reads or writes, once
    tracer.count(
        "full_walk.step_bytes",
        before.amplitudes.nbytes + state.amplitudes.nbytes + _nbytes(graph, STEP_ARRAYS),
    )


def _evolve_collapsed_counts(tracer: Tracer, args, trace) -> None:
    tracer.count("collapsed.reduced_steps", len(trace) - 1)


def _eigensystem_counts(tracer: Tracer, args, report) -> None:
    tracer.count("spectral.eigensystem_calls")


def _build_counts(tracer: Tracer, args, result) -> None:
    tracer.count("spectral.evaluator_builds")


def _write_counts(tracer: Tracer, args, result) -> None:
    tracer.count("trace.rows_written", len(args[0]))


def _read_counts(tracer: Tracer, args, trace) -> None:
    tracer.count("trace.rows_read", len(trace))


def _verify_counts(tracer: Tracer, args, report) -> None:
    tracer.count("verify.checks_run", len(report.checks))
    tracer.count("verify.checks_failed", sum(not c.passed for c in report.checks))


_EXTRA_COUNTS = {
    "graph.build_graph": _graph_counts,
    "full_walk.step": _step_counts,
    "collapsed.evolve_collapsed": _evolve_collapsed_counts,
    "spectral.walk_eigensystem": _eigensystem_counts,
    "spectral.evaluator_build": _build_counts,
    "trace.write": _write_counts,
    "trace.read": _read_counts,
    "verify.run_checks": _verify_counts,
}
