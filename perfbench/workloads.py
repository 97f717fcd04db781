"""Seeded operation lists for the three workloads.

Every workload is a fixed list of operations that one client runs in a
closed loop.  The seed draws the inputs: clique sizes, leaf exponents, leaf
phases, phase-diagram grids and, except in ``traces``, the order of
operations (in ``search``, of the commands and of the query blocks).  Each list is built from tiers of operations that do equal
nominal work (steps x arcs for the oracle, reduced steps for optimal-time,
rows for a trace), so a new seed changes the inputs without changing the
total work, and the median and the tail percentile land inside one tier
whatever the pass count.

Why each workload exists:

* ``oracle``: ``graph`` and ``full_walk`` do almost all the work.  The arc
  table grows from cache-resident (N near 150) to N near 2200, whose
  190 MB of index arrays are nearly twice the host's 105 MB last-level
  cache.
* ``search``: "how long to find the hub?".  The inline reduced-step loop
  of ``optimal-time`` dominates; library queries reach N = 1e18, where the
  float64 spectral evaluator is known to fail.
* ``traces``: long hub-probability traces written as CSV and JSON and read
  back, so per-row formatting and parsing dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from reference import exact_leaves

ALPHAS = (0.0, 0.5, 1.0, 1.5)
PHASES = ("reverse", "plain")


@dataclass
class Op:
    """One operation: a CLI command, a library query, or a trace read.

    ``kind`` is ``cli`` (``args`` is the argv), ``query`` (``args`` is
    (N, m): ``optimal_time_exact`` then ``closed_form_probability`` at the
    returned time) or ``read`` (``args`` is (file name, format), a file an
    earlier operation of the same pass wrote).  ``check`` names the output
    check; ``params`` holds what the check needs.
    """

    kind: str
    args: list
    check: str
    tier: str
    params: dict = field(default_factory=dict)


def _balanced(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws that use every value equally often, shuffled."""
    reps = -(-count // len(values))
    pool = [v for v in values for _ in range(reps)]
    rng.shuffle(pool)
    return pool[:count]


def oracle_ops(rng: np.random.Generator) -> list[Op]:
    # (tier, count, N range, arcs x steps per op); steps = work / arcs.
    # Five "l" operations per pass put the tail (ten samples beyond it)
    # inside the "l" tier whether a run makes three passes or five; the
    # fourteen "m" operations, slower than "s" and "verify", hold the median.
    tiers = (
        ("xl", 1, (2192, 2200), 4.84e7),
        ("l", 5, (990, 1010), 8.0e6),
        ("m", 14, (380, 420), 4.5e6),
        ("s", 6, (140, 180), 2.2e6),
    )
    specs = []
    for tier, count, (lo, hi), work in tiers:
        # leaf counts above N would add arcs at the large sizes; keep m <= N there
        alphas = _balanced(rng, ALPHAS if tier == "s" else ALPHAS[:3], count)
        for alpha in alphas:
            n = int(rng.integers(lo, hi + 1))
            arcs = n * (n - 1) + 2 * exact_leaves(n, float(alpha))
            steps = max(8, round(work / arcs))
            specs.append(("sim", tier, n, float(alpha), steps, str(rng.choice(PHASES))))
    for alpha, steps in zip(_balanced(rng, ALPHAS, 4), _balanced(rng, (200, 250), 4)):
        specs.append(("verify", "verify", int(rng.integers(95, 106)), float(alpha), int(steps),
                      str(rng.choice(PHASES))))
    rng.shuffle(specs)
    ops = []
    for kind, tier, n, alpha, steps, phase in specs:
        if kind == "sim":
            out = f"op{len(ops):03d}.csv"
            argv = ["simulate", "--n", str(n), "--alpha", str(alpha), "--steps", str(steps),
                    "--mode", "full", "--leaf-phase", phase, "--out", out]
            ops.append(Op("cli", argv, "simulate_full", tier,
                          {"n": n, "alpha": alpha, "steps": steps, "phase": phase, "out": out}))
        else:
            argv = ["verify", "--n", str(n), "--alpha", str(alpha), "--steps", str(steps),
                    "--leaf-phase", phase, "--seed", str(int(rng.integers(0, 2**31)))]
            ops.append(Op("cli", argv, "verify", tier, {"n": n, "alpha": alpha}))
    return ops


def clique_for_time(t_opt: float, alpha: float) -> int:
    """Clique size whose optimal time is about ``t_opt`` (branch formulas)."""
    if alpha < 1:
        n = (t_opt * 2 * math.sqrt(2) / math.pi) ** (2 / (2 - alpha))
    elif alpha == 1:
        n = (t_opt * 2 / math.pi) ** 2
    else:
        n = (t_opt * 2 * math.sqrt(2) / math.pi) ** 2
    return max(1000, int(n))


def _log_uniform(rng: np.random.Generator, lo_exp: float, hi_exp: float) -> int:
    return int(10 ** rng.uniform(lo_exp, hi_exp))


def _spectrum(index: int, n: int, alpha: float, tier: str) -> Op:
    out = f"op{index:03d}.json"
    argv = ["spectrum", "--n", str(n), "--alpha", str(alpha), "--out", out]
    return Op("cli", argv, "spectrum", tier, {"n": n, "alpha": alpha, "out": out})


#: Library queries from N = 1e6 to 1e18, two per decade, the same for every
#: seed.  This is the domain of the known float64 defects (checks.KNOWN_DEFECTS),
#: where whether a query fails depends on the exact (N, m).  Fixed points
#: make the number of failed operations the same on every seed, so that
#: it compares between runs; drawn points would move it by seed.
DEFECT_PROBES = tuple(
    (int(10 ** (decade + offset)), ALPHAS[(2 * decade + k) % len(ALPHAS)])
    for decade in range(6, 18)
    for k, offset in enumerate((0.25, 0.75))
)

QUERY_BLOCKS = 5


def search_ops(rng: np.random.Generator) -> list[Op]:
    commands = []
    # heavy tier: the tail; optimal-time commands at about 1.5e5 reduced steps
    for alpha in _balanced(rng, ALPHAS, 6):
        commands.append(("opt", "heavy", clique_for_time(1.5e5 * rng.uniform(0.995, 1.005), alpha), alpha))
    # ladder of optimal-time commands from 1e3 to 8e4 reduced steps
    targets = (1e3, 2e3, 5e3, 1e4, 2e4, 4e4, 6e4, 8e4)
    for target, alpha in zip(targets, _balanced(rng, ALPHAS, len(targets))):
        commands.append(("opt", "ladder", clique_for_time(target * rng.uniform(0.99, 1.01), alpha), alpha))
    for fmt in ("csv", "json"):
        commands.append(("phase", "phase", fmt, None))
    for alpha in _balanced(rng, ALPHAS, 4):
        commands.append(("spectrum", "spectrum", _log_uniform(rng, 3, 18), alpha))
    # library queries, the median's tier: seven per decade below 1e6, where
    # every result must be exact, and the fixed DEFECT_PROBES above it
    alphas = iter(_balanced(rng, ALPHAS, 21))
    queries = [("query", "query", _log_uniform(rng, decade, decade + 1), next(alphas))
               for decade in range(3, 6) for _ in range(7)]
    queries += [("query", "query", n, alpha) for n, alpha in DEFECT_PROBES]
    rng.shuffle(commands)
    rng.shuffle(queries)
    # The first query after a command runs about twice as slow as the next
    # ones (caches the command left cold), so the queries go in a fixed
    # number of blocks, each after a different command: the share of cold
    # queries, and with it the median latency, does not depend on the seed.
    after = set(rng.choice(len(commands), QUERY_BLOCKS, replace=False).tolist())
    blocks = iter(np.array_split(np.arange(len(queries)), QUERY_BLOCKS))
    specs = []
    for index, command in enumerate(commands):
        specs.append(command)
        if index in after:
            specs.extend(queries[i] for i in next(blocks))
    ops = []
    for kind, tier, a, b in specs:
        index = len(ops)
        if kind == "opt":
            argv = ["optimal-time", "--n", str(a), "--alpha", str(b)]
            ops.append(Op("cli", argv, "optimal_time", tier, {"n": a, "alpha": b}))
        elif kind == "phase":
            alphas = sorted(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=int(rng.integers(3, 6)),
                                       replace=False).tolist())
            grid = sorted({_log_uniform(rng, 2, 7) for _ in range(6)})
            while len(grid) < 4:
                grid = sorted(set(grid) | {_log_uniform(rng, 2, 7)})
            out = f"op{index:03d}.{a}"
            argv = ["phase-diagram", "--alphas", ",".join(str(x) for x in alphas),
                    "--n-grid", ",".join(str(x) for x in grid), "--format", a, "--out", out]
            ops.append(Op("cli", argv, "phase_diagram", tier,
                          {"alphas": alphas, "grid": grid, "format": a, "out": out}))
        elif kind == "spectrum":
            ops.append(_spectrum(index, a, b, tier))
        else:
            m = exact_leaves(a, b)
            ops.append(Op("query", [a, m], "query", tier, {"n": a, "m": m, "alpha": b}))
    return ops


#: Rows per trace chosen so that each (mode, format) pair costs about the
#: same at the parent commit (asymptotic mode is about 5x dearer per row).
TRACE_ROWS = {
    ("collapsed", "csv"): 45000,
    ("collapsed", "json"): 30000,
    ("closed", "csv"): 50000,
    ("closed", "json"): 33000,
    ("asymptotic", "csv"): 10000,
    ("asymptotic", "json"): 10000,
}


def traces_ops(rng: np.random.Generator) -> list[Op]:
    # A fixed order, so that the peak memory of a run, which depends on what
    # the allocator still holds from earlier operations, does not vary by seed.
    groups = []
    for (mode, fmt), rows in TRACE_ROWS.items():
        groups.append(("trace", mode, fmt, rows))
        groups.extend([("spectrum",)] * 3)
    groups.extend([("spectrum",)] * 2)
    ops = []
    for group in groups:
        index = len(ops)
        alpha = float(rng.choice(ALPHAS))
        n = _log_uniform(rng, 4, 12)
        if group[0] == "spectrum":
            ops.append(_spectrum(index, n, alpha, "spectrum"))
            continue
        _, mode, fmt, rows = group
        phase = str(rng.choice(PHASES)) if mode == "collapsed" else "reverse"
        out = f"op{index:03d}.{fmt}"
        argv = ["simulate", "--n", str(n), "--alpha", str(alpha), "--steps", str(rows - 1),
                "--mode", mode, "--leaf-phase", phase, "--format", fmt, "--out", out]
        params = {"n": n, "alpha": alpha, "steps": rows - 1, "mode": mode,
                  "phase": phase, "format": fmt, "out": out}
        ops.append(Op("cli", argv, "simulate_trace", "write", params))
        ops.append(Op("read", [out, fmt], "read_back", "read", {"source": index, **params}))
    return ops


WORKLOADS = {"oracle": oracle_ops, "search": search_ops, "traces": traces_ops}


def build_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](np.random.default_rng(seed))


def ops_digest(ops: list[Op]) -> str:
    text = json.dumps([asdict(op) for op in ops], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
