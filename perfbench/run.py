"""End-to-end and per-module benchmark of the ``starclique`` package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The workload's operations (CLI commands through ``starclique.cli.main`` and
library queries) run in this process, one after another, in passes over a
fixed list drawn from the seed, until ``--seconds`` of passes have been
measured (at least three).  A first, warm-up pass produces the outputs
that are checked against independent references outside the timed region;
every later pass must reproduce them.  Calibration chunks run between
operations measure how slow the host is during each pass, and the pass's
timings are divided by that factor (``calibration.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``; with ``--trace 1``, its per-module metrics, from spans
recorded around the package's public functions on passes that alternate
with untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# One process, one BLAS thread: the workloads are single-client closed loops.
# Set before the first numpy import, hence the imports below it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from calibration import HostSpeed, chunk_for  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: No pass starts once this much pass time has gone by, whatever the minimum.
PASS_TIME_LIMIT_S = 120.0
SETUP_REPEATS = 25
TAIL_BEYOND = 10

# Metric names and units, in the order BENCHMARK.json lists them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


@dataclass
class OpResult:
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    value: object = None


# ---------------------------------------------------------------------------
# environment


def measure_setup() -> list[float]:
    """Wall time for a fresh interpreter to import the package and build the
    CLI parser, spawn to exit, repeated."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import starclique.cli as cli; cli.build_parser()"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "starclique").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def cache_sizes() -> dict:
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE; Python has no names for them
    sizes = {}
    for label, number in (("l2_bytes", 191), ("l3_bytes", 194)):
        try:
            sizes[label] = os.sysconf(number)
        except (ValueError, OSError):
            sizes[label] = None
    return sizes


def environment(numpy_version: str) -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        **cache_sizes(),
    }


# ---------------------------------------------------------------------------
# running operations


class Runner:
    """Runs one operation and returns its result; never raises."""

    def __init__(self, starclique, cli, out_dir: str):
        self.sc = starclique
        self.cli = cli
        self.out_dir = out_dir

    def __call__(self, op) -> OpResult:
        if op.kind == "cli":
            return self._cli(op.args)
        result = OpResult()
        try:
            if op.kind == "query":
                n, m = op.args
                t = self.sc.optimal_time_exact(n, m)
                result.value = (t, self.sc.closed_form_probability(n, m, t))
            else:
                name, fmt = op.args
                trace_cls = self.sc.ProbabilityTrace
                parse = trace_cls.from_csv if fmt == "csv" else trace_cls.from_json
                with open(os.path.join(self.out_dir, name)) as stream:
                    result.value = parse(stream)
        except Exception as exc:  # a failed operation, counted and reported
            result.error = repr(exc)
        return result

    def _cli(self, argv: list[str]) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        result = OpResult()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result.rc = self.cli.main(argv)
        except SystemExit as exc:
            result.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed operation, counted and reported
            result.error = repr(exc)
        result.stdout, result.stderr = out.getvalue(), err.getvalue()
        return result


class Capture:
    """Keeps each trace the package writes, keyed by the operation's output
    file, so the read-back check can compare against the in-memory trace."""

    def __init__(self, captured: dict):
        self.captured = captured
        self.current: str | None = None
        self._patches = Patches()

    def _keeper(self, write):
        def keep(trace, *args, **kwargs):
            if self.current is not None:
                self.captured[self.current] = trace
            return write(trace, *args, **kwargs)

        return keep

    def __enter__(self):
        for name in ("to_csv", "to_json"):
            self._patches.replace("trace", f"ProbabilityTrace.{name}", self._keeper)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


def fingerprint(op, result: OpResult, out_dir: str) -> str:
    """Digest of everything an operation produced, to compare across passes."""
    digest = hashlib.sha256(repr((result.rc, result.stdout, result.error)).encode())
    out = op.params.get("out")
    if op.kind == "cli" and out and os.path.exists(os.path.join(out_dir, out)):
        with open(os.path.join(out_dir, out), "rb") as stream:
            digest.update(stream.read())
    if op.kind == "query" and result.value is not None:
        digest.update(repr(result.value).encode())
    if op.kind == "read" and result.value is not None:
        trace = result.value
        digest.update(repr(sorted(trace.metadata.items())).encode())
        for name in ("times", "p_hub", "psi_clique_in", "psi_star_in"):
            digest.update(getattr(trace, name).tobytes())
    return digest.hexdigest()


def run_pass(ops, runner, after, tracer=None, capture=None, pass_index=0, speed=None):
    """Run every operation once; ``after(index, op, result)`` sees each
    result outside the operation's timing and decides what to keep, and
    ``speed`` then samples the host.  The pass time is the sum of the
    operation latencies."""
    latencies = []
    perf = time.perf_counter
    for index, op in enumerate(ops):
        if capture is not None:
            capture.current = op.params.get("out") if op.kind == "cli" else None
        if tracer is not None:
            tracer.op = pass_index * len(ops) + index
            span = tracer.open(f"bench.{op.kind}" if op.kind != "cli" else "cli")
        begin = perf()
        result = runner(op)
        latencies.append(perf() - begin)
        if tracer is not None:
            tracer.close(span)
        after(index, op, result)
        if speed is not None:
            speed.sample(latencies[-1])
    return sum(latencies), latencies


def optimal_time_steps(op, result: OpResult) -> int:
    """Reduced steps an ``optimal-time`` command iterated: its t_opt."""
    if op.kind != "cli" or op.args[0] != "optimal-time" or result.rc != 0:
        return 0
    return int(checks.key_values(result.stdout).get("t_opt_exact", 0))


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """Value with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(tracer, ops, reduced_steps, span_start, span_end, pass_index) -> dict:
    """Per-module metrics of one traced pass."""
    self_time = defaultdict(float)
    for span in tracer.spans[span_start:span_end]:
        self_time[span[0]] += span[5]
    lo = pass_index * len(ops)
    counts = defaultdict(float)
    asym_angle_calls = 0.0
    sim_builds = 0.0
    for (op_id, name), amount in tracer.counts.items():
        index = op_id - lo
        if not 0 <= index < len(ops):
            continue
        counts[name] += amount
        op = ops[index]
        is_sim = op.kind == "cli" and op.args[0] == "simulate"
        if name == "trace.build" and is_sim:
            sim_builds += amount
        if name == "spectral.discriminant_angles" and is_sim and op.params.get("mode") == "asymptotic":
            asym_angle_calls += amount
    sims = [op for op in ops if op.kind == "cli" and op.args[0] == "simulate"]
    asym_rows = sum(op.params["steps"] + 1 for op in sims if op.params.get("mode") == "asymptotic")

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    return {
        "graph.build_s": self_time["graph.build_graph"],
        "graph.arcs": counts["graph.arcs"],
        "graph.index_bytes": counts["graph.index_bytes"],
        "full_walk.step_s": self_time["full_walk.step"],
        "full_walk.arc_steps": counts["full_walk.arc_steps"],
        "full_walk.ns_per_arc_step": ratio(self_time["full_walk.step"], counts["full_walk.arc_steps"], 1e9),
        "full_walk.bytes_per_arc_step": ratio(counts["full_walk.step_bytes"], counts["full_walk.arc_steps"]),
        "full_walk.probe_s": self_time["full_walk.evolve"],
        "full_walk.collapse_s": self_time["full_walk.collapse"],
        "verify.checks_s": self_time["verify.run_checks"],
        "verify.checks_run": counts["verify.checks_run"],
        "verify.checks_failed": counts["verify.checks_failed"],
        "collapsed.evolve_s": self_time["collapsed.evolve_collapsed"],
        "collapsed.reduced_steps": counts["collapsed.reduced_steps"],
        "collapsed.ns_per_reduced_step": ratio(
            self_time["collapsed.evolve_collapsed"], counts["collapsed.reduced_steps"], 1e9
        ),
        "cli.optimal_time_reduced_steps": float(reduced_steps),
        "cli.self_s": self_time["cli"],
        "spectral.eigensystem_s": self_time["spectral.walk_eigensystem"],
        "spectral.eigensystem_calls": counts["spectral.eigensystem_calls"],
        "spectral.queries": counts["spectral.queries"],
        "spectral.builds_per_query": ratio(counts["spectral.evaluator_builds"], counts["spectral.queries"]),
        "spectral.series_s": self_time["spectral.state_series"],
        "spectral.audit_s": self_time["spectral.audit_closed_forms"],
        "asymptotics.probability_approx_s": self_time["asymptotics.probability_approx"],
        "asymptotics.coefficient_estimates_s": self_time["asymptotics.coefficient_estimates"],
        "asymptotics.angle_calls_per_row": ratio(asym_angle_calls, asym_rows),
        "asymptotics.optimal_time_s": self_time["asymptotics.optimal_time_exact"]
        + self_time["asymptotics.optimal_time_branch"],
        "trace.write_s": self_time["trace.write"],
        "trace.read_s": self_time["trace.read"],
        "trace.rows_written": counts["trace.rows_written"],
        "trace.rows_read": counts["trace.rows_read"],
        "trace.us_per_row_write": ratio(self_time["trace.write"], counts["trace.rows_written"], 1e6),
        "trace.us_per_row_read": ratio(self_time["trace.read"], counts["trace.rows_read"], 1e6),
        "trace.builds_per_cmd": ratio(sim_builds, len(sims)),
    }, dict(self_time)


# ---------------------------------------------------------------------------
# checks


def check_op(op, result, ctx) -> list:
    try:
        return checks.CHECKS[op.check](op, result, ctx)
    except Exception as exc:  # a check that cannot run is a failure too
        return [(False, f"check raised {exc!r}")]


def count_failures(first_failures, pass_prints) -> tuple[int, int]:
    """Failed operations, each operation of the list counted once, and how
    many of them fail outside the known defect classes.  An operation fails
    when it failed its check on the first pass or its output on a later pass
    differs from the first.  Counting each operation once, not once per
    pass, keeps both counts independent of how many passes fit in a run."""
    failed, unknown = 0, 0
    reference_prints = pass_prints[0]
    for index, found in enumerate(first_failures):
        differs = any(prints[index] != reference_prints[index] for prints in pass_prints)
        failed += bool(found) or differs
        unknown += differs or any(not known for known, _ in found)
    return failed, unknown


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("oracle", "search", "traces"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that wrong results count as failed operations")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def load_package():
    if not (SRC / "starclique" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'starclique'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import starclique
    import starclique.cli

    return starclique, starclique.cli


def _perturbed(result: OpResult, scale: float) -> OpResult:
    """A copy of a query's or an optimal-time command's result whose p(t_opt)
    is multiplied by ``scale``."""
    if result.value is not None:
        t, p = result.value
        return OpResult(value=(t, p * scale))
    lines = [f"p_at_t_opt={float(line.split('=', 1)[1]) * scale!r}"
             if line.startswith("p_at_t_opt=") else line
             for line in result.stdout.splitlines()]
    return OpResult(rc=result.rc, stdout="\n".join(lines) + "\n", stderr=result.stderr)


def self_test(sc, cli, out_dir: str) -> int:
    """Each wrong result must fail its check with a failure outside the
    known defect classes, so that it clears ``correct`` as well."""
    Op = workloads.Op
    ctx = checks.Context(out_dir, sc)
    runner = Runner(sc, cli, out_dir)
    flip = Op("cli", ["verify", "--n", "40", "--alpha", "0.5", "--steps", "60",
                      "--inject-leaf-phase-flip"], "verify", "selftest", {})
    params = {"n": 1000, "alpha": 0.5, "steps": 200, "mode": "collapsed", "phase": "reverse",
              "format": "csv", "out": "selftest.csv"}
    write = Op("cli", ["simulate", "--n", "1000", "--alpha", "0.5", "--steps", "200",
                       "--out", "selftest.csv"], "simulate_trace", "selftest", params)
    read = Op("read", ["selftest.csv", "csv"], "read_back", "selftest", params)
    # p(t_opt) off by 1e-8 relative, where no known defect applies: a library
    # query at small N, and an optimal-time command at N = 1e8
    query = Op("query", [1000, 31], "query", "selftest", {"n": 1000, "m": 31, "alpha": 0.5})
    opt = Op("cli", ["optimal-time", "--n", str(10**8), "--alpha", "1.5"], "optimal_time",
             "selftest", {"n": 10**8, "alpha": 1.5})
    honest = [(query, runner(query)), (opt, runner(opt))]

    with Capture(ctx.captured) as capture:
        capture.current = "selftest.csv"
        written = runner(write)
    honest.append((read, runner(read)))
    if written.rc != 0 or any(checks.CHECKS[op.check](op, result, ctx) for op, result in honest):
        print("self-test: an uncorrupted result already fails its check", file=sys.stderr)
        return 1
    path = os.path.join(out_dir, "selftest.csv")
    with open(path) as stream:
        lines = stream.read().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[0].isdigit())
    fields = lines[row].split(",")
    fields[1] = format(float(fields[1]) * (1 + 1e-9), ".17g")
    lines[row] = ",".join(fields)
    with open(path, "w") as stream:
        stream.writelines(lines)

    attempted = [(flip, runner(flip)), (read, runner(read)),
                 (query, _perturbed(honest[0][1], 1 + 1e-8)),
                 (opt, _perturbed(honest[1][1], 1 + 1e-8))]
    caught = 0
    for op, result in attempted:
        found = checks.CHECKS[op.check](op, result, ctx)
        unknown = [message for known, message in found if not known]
        print(f"self-test {op.check}: "
              f"{'FAILED as it must' if unknown else 'not caught (wrong)'}"
              f" {unknown[0] if unknown else found}")
        caught += bool(unknown)
    print(json.dumps({"self_test": True, "attempted": len(attempted), "failed": caught}))
    return 0 if caught == len(attempted) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sc, cli = load_package()
    RESULTS.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="out-", dir=RESULTS)
    os.environ["STARCLIQUE_OUT_DIR"] = out_dir
    try:
        if args.self_test:
            return self_test(sc, cli, out_dir)
        return run_workload(args, sc, cli, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_workload(args, sc, cli, out_dir: str) -> int:
    setup_times = measure_setup()
    ops = workloads.build_ops(args.workload, args.seed)
    env = environment(np.__version__)
    ctx = checks.Context(out_dir, sc)
    runner = Runner(sc, cli, out_dir)
    tracer = Tracer() if args.trace else None
    chunk, chunk_reference_s = chunk_for(args.workload)

    walls, latencies, pass_prints, per_op = [], [], [], [[] for _ in ops]
    traced_walls, layer_runs, span_totals = [], [], defaultdict(float)
    raw_walls, factors, first_failures = [], [], []
    elapsed = 0.0

    def done() -> bool:
        if pass_prints and elapsed >= PASS_TIME_LIMIT_S:
            return True
        if tracer is None:
            return len(walls) >= MIN_PASSES and elapsed >= args.seconds
        return (len(traced_walls) >= MIN_TRACED_PASSES and len(walls) >= MIN_TRACED_PASSES
                and elapsed >= args.seconds)

    def check_warm_up(index, op, result) -> None:
        prints.append(fingerprint(op, result, out_dir))
        first_failures.append(check_op(op, result, ctx))
        if op.kind == "read":
            ctx.captured.pop(op.params["out"], None)

    def keep_print(index, op, result) -> None:
        prints.append(fingerprint(op, result, out_dir))
        steps[0] += optimal_time_steps(op, result)

    # Pass 0 warms up and produces the outputs that are checked; it is not
    # part of any statistic.  Traced runs then alternate untraced and traced.
    while not done():
        index = len(pass_prints)
        traced = tracer is not None and index % 2 == 0 and index > 0
        prints, steps = [], [0]
        gc.collect()
        span_start = len(tracer.spans) if tracer else 0
        if index == 0:
            with Capture(ctx.captured) as capture:
                run_pass(ops, runner, check_warm_up, capture=capture)
            ctx.captured.clear()
            pass_prints.append(prints)
            continue
        speed = HostSpeed(chunk, chunk_reference_s)
        if traced:
            tracer.install()
            try:
                wall, lat = run_pass(ops, runner, keep_print, tracer, pass_index=index,
                                     speed=speed)
            finally:
                tracer.uninstall()
        else:
            wall, lat = run_pass(ops, runner, keep_print, speed=speed)
        pass_prints.append(prints)
        elapsed += wall
        # every timing below is in seconds at the reference host speed
        factor = speed.factor()
        factors.append(factor)
        raw_walls.append(wall)
        wall, lat = wall / factor, [value / factor for value in lat]
        if traced:
            traced_walls.append(wall)
            metrics, self_time = layer_metrics(tracer, ops, steps[0], span_start,
                                               len(tracer.spans), index)
            layer_runs.append(metrics)
            for name, value in self_time.items():
                span_totals[name] += value
        else:
            walls.append(wall)
            latencies.extend(lat)
            for samples, value in zip(per_op, lat):
                samples.append(value)

    failed, unknown = count_failures(first_failures, pass_prints)
    attempted = len(ops)
    tail_value, tail_pct = tail(latencies)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "op_list_sha256": workloads.ops_digest(ops),
        "passes": len(pass_prints),
        "timed_passes": len(walls),
        "pass_wall_s": walls,
        "chunk_reference_s": chunk_reference_s,
        "host_factors": factors,
        "raw_pass_wall_s": raw_walls,
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "setup_samples": len(setup_times),
        "environment": env,
        "end_to_end": end_to_end,
        "fail_ratio": failed / attempted,
        "op_median_ms": [
            {"op": i, "tier": op.tier, "argv": op.args, "ms": 1e3 * statistics.median(samples),
             "samples_ms": [1e3 * v for v in samples]}
            for i, (op, samples) in enumerate(zip(ops, per_op))
        ],
        "failures": [
            {"op": i, "argv": ops[i].args, "known": known, "message": message}
            for i, found in enumerate(first_failures)
            for known, message in found
        ],
        "known_defects": checks.KNOWN_DEFECTS,
    }
    print_header(report)
    print_end_to_end(report, failed, attempted)
    if tracer is not None:
        layer = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        written = [os.path.join(out_dir, op.params["out"])
                   for op in ops if op.kind == "cli" and op.args[0] == "simulate"]
        layer["trace.bytes_written"] = float(
            sum(os.path.getsize(path) for path in written if os.path.exists(path))
        )
        layer["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        report["per_layer"] = layer
        report["traced_wall_s"] = statistics.median(traced_walls)
        report["untraced_wall_s"] = statistics.median(walls)
        report["traced_passes"] = len(traced_walls)
        report["untraced_names"] = sorted(tracer.missing)
        spans_path = dump_spans(tracer, ops, report)
        report["span_dump"] = str(spans_path.relative_to(ROOT))
        print_layers(report, span_totals, len(traced_walls))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    report_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"# report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": unknown == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def dump_spans(tracer, ops, report) -> Path:
    path = RESULTS / f"spans-{report['workload']}-seed{report['seed']}.json"
    payload = {
        "workload": report["workload"],
        "seed": report["seed"],
        "op_list_sha256": report["op_list_sha256"],
        "ops": [asdict(op) for op in ops],
        "columns": ["name", "start_s", "end_s", "parent", "op", "self_s"],
        "note": "op = pass * len(ops) + index in ops; parent is an index into spans, -1 at the top",
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def print_header(report) -> None:
    env = report["environment"]
    print(f"# workload={report['workload']} seed={report['seed']} ops={report['ops']} "
          f"op_list_sha256={report['op_list_sha256'][:16]}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes={report['passes']} timed_passes={report['timed_passes']} "
          f"latency_samples={report['latency_samples']} setup_samples={report['setup_samples']}")
    factors, raw = report["host_factors"], report["raw_pass_wall_s"]
    print(f"# host factor (chunk time / {report['chunk_reference_s']} s) per timed pass: min "
          f"{min(factors):.3f} median {statistics.median(factors):.3f} max {max(factors):.3f}; "
          f"raw pass wall median {statistics.median(raw):.6f} s")


def print_end_to_end(report, failed, attempted) -> None:
    e2e = report["end_to_end"]
    units = dict(END_TO_END)
    for name, value in e2e.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{report['tail_percentile']:.2f}, {report['latency_samples']} samples)"
        print(f"{name:>12} {value:14.6f} {units[name]}{note}")
    print(f"{'fail_ratio':>12} {report['fail_ratio']:14.6f} ratio  ({failed}/{attempted} operations)")
    for failure in report["failures"]:
        tag = "known" if failure["known"] else "NEW"
        print(f"# failure [{tag}] op {failure['op']} {' '.join(map(str, failure['argv']))}: "
              f"{failure['message']}")


def print_layers(report, span_totals, traced_passes) -> None:
    print(f"# traced passes={traced_passes} traced wall_s={report['traced_wall_s']:.6f} "
          f"untraced wall_s={report['untraced_wall_s']:.6f} "
          f"overhead_s={report['per_layer']['bench.trace_overhead_s']:.6f}")
    if report["untraced_names"]:
        print(f"# not traced, missing from the package: {', '.join(report['untraced_names'])}")
    print("# self time per span, mean over traced passes:")
    for name in sorted(span_totals):
        print(f"#   {name:<40} {span_totals[name] / traced_passes:12.6f} s")
    units = dict(PER_LAYER)
    for name, value in report["per_layer"].items():
        note = "  (computed from array sizes)" if name == "full_walk.bytes_per_arc_step" else ""
        print(f"{name:>36} {value:16.6f} {units[name]}{note}")


if __name__ == "__main__":
    sys.exit(main())
