"""Output checks against independent references, run outside timed regions.

A check returns a list of failures.  Each failure is (known, message):
``known`` marks the defect classes recorded in KNOWN_DEFECTS, which count
as failed operations but leave the run's ``correct`` flag set.  Any other
failure clears it.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference

P_TOL = 1e-10        # p(t_opt) against the 50-digit reference (ROADMAP item 3)
ANGLE_TOL = 1e-10    # relative, spectrum angles against the 50-digit reference
ORACLE_TOL = 1e-10   # full trace against the collapsed trace
CLOSED_TOL = 1e-10   # closed trace against the collapsed trace
# The measured domains of the known defects.  closed_form_probability's
# float64 error grows with N: its deviation stayed below 1.2e-16 * N over
# 1e3 <= N <= 1e18 and first passed 1e-10 near N = 1.7e6 (alpha = 0).
# optimal_time_exact first disagreed near N = 1.4e14 (alpha = 0).
P_PRECISION_N = 10**6
P_PRECISION_PER_N = 1e-15
T_OPT_N = 10**14

KNOWN_DEFECTS = {
    "p_precision": "closed_form_probability(N, m, t_opt) off the 50-digit reference by more "
    "than 1e-10 but at most 1e-15 * N, at N >= 1e6: float64 eigendecomposition "
    "(ROADMAP item 3).  Not known for optimal-time commands or smaller N",
    "t_opt_extreme_n": "t_opt off the 50-digit reference at N >= 1e14 (ROADMAP item 3)",
    "signed_zero": "a JSON trace read back with +0.0 where the written amplitude had a -0.0 "
    "real part, and no other difference: from_json rebuilds amplitudes as re + 1j*im",
}


class Context:
    """Shared state for the checks of one run: the output directory, the
    library (for collapsed reference traces) and cached mpmath references."""

    def __init__(self, out_dir: str, starclique):
        self.out_dir = out_dir
        self.sc = starclique
        self.captured: dict = {}  # output file name -> trace as it was written
        self._walk: dict = {}

    def walk(self, n: int, m: int) -> reference.WalkReference:
        key = (n, m)
        if key not in self._walk:
            self._walk[key] = reference.walk_reference(n, m)
        return self._walk[key]

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def collapsed(self, n: int, m: int, steps: int, phase: str):
        sc = self.sc
        leaf_phase = sc.LeafPhase.REVERSAL if phase == "reverse" else sc.LeafPhase.PLAIN
        ops = sc.build_reduced_operators(n, m, leaf_phase)
        return sc.evolve_collapsed(ops, sc.collapsed_initial_state(n, m), steps)


def key_values(stdout: str) -> dict:
    """The ``key=value`` lines a command printed."""
    return dict(line.split("=", 1) for line in stdout.split() if "=" in line)


def read_csv_columns(path: str) -> tuple[dict, np.ndarray]:
    """Metadata and the numeric rows of a trace CSV, parsed without the package."""
    metadata, rows = {}, []
    with open(path) as stream:
        lines = [line.strip() for line in stream if line.strip()]
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value
    body = [line for line in lines if not line.startswith("#")][1:]
    for line in body:
        rows.append([float(v) for v in line.split(",")])
    return metadata, np.array(rows, dtype=np.float64).reshape(-1, 6)


def _time_and_probability(n, m, t, p, ctx, float64_p: bool) -> list:
    """``float64_p``: p came from closed_form_probability, whose precision
    defect is known inside its measured domain."""
    ref = ctx.walk(n, m)
    failures = []
    if t != ref.t_opt:
        failures.append((n >= T_OPT_N, f"t_opt {t} != reference {ref.t_opt} (N={n}, m={m})"))
    dev = abs(p - ref.p_at_t_opt)
    if not dev <= P_TOL:
        known = float64_p and n >= P_PRECISION_N and dev <= P_PRECISION_PER_N * n
        failures.append((known, f"|p - p_ref| = {dev:.2e} at t_opt (N={n}, m={m})"))
    return failures


def _exit_code(result) -> list:
    if result.error is not None:
        return [(False, f"raised {result.error}")]
    if result.rc != 0:
        said = [line for line in result.stderr.splitlines() + result.stdout.splitlines()
                if line.startswith(("error", "FAIL"))]
        return [(False, f"exit code {result.rc}: {said[0][:200] if said else ''}")]
    return []


def check_simulate_full(op, result, ctx) -> list:
    failures = _exit_code(result)
    if failures:
        return failures
    meta, cols = read_csv_columns(ctx.path(op.params["out"]))
    n, m = int(meta["n"]), int(meta["m"])
    if n != op.params["n"] or len(cols) != op.params["steps"] + 1:
        return [(False, f"trace shape/size mismatch: n={n}, rows={len(cols)}")]
    ref = ctx.collapsed(n, m, op.params["steps"], op.params["phase"])
    dev = max(
        float(np.abs(cols[:, 1] - ref.p_hub).max()),
        float(np.abs(cols[:, 2] + 1j * cols[:, 3] - ref.psi_clique_in).max()),
        float(np.abs(cols[:, 4] + 1j * cols[:, 5] - ref.psi_star_in).max()),
    )
    if not dev <= ORACLE_TOL:
        failures.append((False, f"full vs collapsed deviation {dev:.2e}"))
    return failures


def check_verify(op, result, ctx) -> list:
    return _exit_code(result)


def check_optimal_time(op, result, ctx) -> list:
    failures = _exit_code(result)
    if failures:
        return failures
    values = key_values(result.stdout)
    n, m = int(values["n"]), int(values["m"])
    if n != op.params["n"]:
        return [(False, f"reported n={n}")]
    return _time_and_probability(n, m, int(values["t_opt_exact"]),
                                 float(values["p_at_t_opt"]), ctx, float64_p=False)


def check_query(op, result, ctx) -> list:
    if result.error is not None:
        return [(False, f"raised {result.error}")]
    t, p = result.value
    return _time_and_probability(op.params["n"], op.params["m"], t, p, ctx, float64_p=True)


def check_spectrum(op, result, ctx) -> list:
    failures = _exit_code(result)
    if failures:
        return failures
    with open(ctx.path(op.params["out"])) as stream:
        spectrum = json.load(stream)["spectrum"]
    ref = ctx.walk(int(spectrum["n"]), int(spectrum["m"]))
    for name, want in (("theta_1", ref.theta_1), ("theta_2", ref.theta_2)):
        rel = abs(spectrum[name] - want) / want
        if not rel <= ANGLE_TOL:
            failures.append((False, f"{name} relative error {rel:.2e} (N={spectrum['n']})"))
    return failures


def check_phase_diagram(op, result, ctx) -> list:
    failures = _exit_code(result)
    if failures:
        return failures
    path = ctx.path(op.params["out"])
    if op.params["format"] == "csv":
        with open(path) as stream:
            rows = [line for line in stream if line.strip() and not line.startswith("#")][1:]
        fitted = [float(line.split(",")[1]) for line in rows]
    else:
        with open(path) as stream:
            payload = json.load(stream)
        fitted = [row["fitted_exponent"] for row in payload["rows"]]
        for row in payload["rows"]:
            for n, t in row["samples"]:
                want = reference.optimal_time(n, reference.exact_leaves(n, row["alpha"]))
                if t != want:
                    failures.append((False, f"sample t_opt {t} != {want} (N={n})"))
    grid = op.params["grid"]
    for alpha, got in zip(op.params["alphas"], fitted):
        times = [reference.optimal_time(n, reference.exact_leaves(n, alpha)) for n in grid]
        want = float(np.polyfit(np.log(grid), np.log(times), 1)[0])
        if not abs(got - want) <= 1e-9:
            failures.append((False, f"fitted exponent {got} != {want} (alpha={alpha})"))
    if len(fitted) != len(op.params["alphas"]):
        failures.append((False, "row count differs from the alpha grid"))
    return failures


def check_simulate_trace(op, result, ctx) -> list:
    failures = _exit_code(result)
    if failures or op.params["mode"] != "closed":
        return failures
    trace = ctx.captured[op.params["out"]]
    n, m = int(trace.metadata["n"]), int(trace.metadata["m"])
    ref = ctx.collapsed(n, m, op.params["steps"], "reverse")
    dev = max(
        float(np.abs(trace.p_hub - ref.p_hub).max()),
        float(np.abs(trace.psi_clique_in - ref.psi_clique_in).max()),
        float(np.abs(trace.psi_star_in - ref.psi_star_in).max()),
    )
    if not dev <= CLOSED_TOL:
        failures.append((False, f"closed vs collapsed deviation {dev:.2e}"))
    return failures


TRACE_COLUMNS = ("times", "p_hub", "psi_clique_in", "psi_star_in")


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _bits_u64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _bit_exact(a, b) -> bool:
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).shape == getattr(b, name).shape
        and _bits(getattr(a, name)) == _bits(getattr(b, name))
        for name in TRACE_COLUMNS
    )


def _lost_negative_zero_reals(written, back) -> bool:
    """True when the only differences are complex entries whose real part is
    -0.0 as written and +0.0 as read back (the signed_zero defect)."""
    for name in TRACE_COLUMNS:
        a, b = getattr(written, name), getattr(back, name)
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if _bits(a) == _bits(b):
            continue
        if not np.iscomplexobj(a) or _bits(a.imag) != _bits(b.imag):
            return False
        differ = _bits_u64(a.real) != _bits_u64(b.real)
        lost = (a.real == 0) & np.signbit(a.real) & (b.real == 0) & ~np.signbit(b.real)
        if np.any(differ & ~lost):
            return False
    return True


def check_read_back(op, result, ctx) -> list:
    if result.error is not None:
        return [(False, f"raised {result.error}")]
    written = ctx.captured.get(op.params["out"])
    if written is None:
        return [(False, "no in-memory trace was captured for this file")]
    back = result.value
    if back.metadata == written.metadata and _bit_exact(back, written):
        return []
    fmt = op.params["format"]
    if fmt == "json" and back.metadata == written.metadata and _lost_negative_zero_reals(written, back):
        return [(True, "json round trip turned -0.0 real parts into +0.0")]
    return [(False, f"{fmt} round trip is not bit-exact")]


CHECKS = {
    "simulate_full": check_simulate_full,
    "verify": check_verify,
    "optimal_time": check_optimal_time,
    "query": check_query,
    "spectrum": check_spectrum,
    "phase_diagram": check_phase_diagram,
    "simulate_trace": check_simulate_trace,
    "read_back": check_read_back,
}
