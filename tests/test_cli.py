import argparse
import dataclasses
import json
import math
import os
import stat
import sys
import tracemalloc

import compare_traces
import numpy as np
import pytest

import starclique as sc
from starclique.cli import _PHASES, build_parser, main
from starclique.modes import MODES
from starclique.trace import ProbabilityTrace


def read_trace(path):
    with open(path) as stream:
        return ProbabilityTrace.from_csv(stream)


def test_simulate_collapsed_peak(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--n", "100", "--alpha", "0", "--steps", "300",
         "--mode", "collapsed", "--out", str(out)]
    )
    assert code == 0
    trace = read_trace(out)
    assert len(trace) == 301
    assert trace.p_hub[0] == pytest.approx(0.01, abs=1e-12)
    assert abs(int(np.argmax(trace.p_hub)) - 111) <= 2
    assert trace.metadata["n"] == "100"
    assert trace.metadata["m"] == "1"
    assert trace.metadata["mode"] == "collapsed"
    assert trace.metadata["leaf_phase"] == "reversal"


def test_simulate_alpha_one_first_peak(tmp_path):
    out = tmp_path / "trace.csv"
    assert (
        main(
            ["simulate", "--n", "100", "--alpha", "1", "--steps", "60",
             "--mode", "collapsed", "--out", str(out)]
        )
        == 0
    )
    trace = read_trace(out)
    # the first envelope period holds the peak; later quasi-periodic peaks
    # can edge slightly higher, so the window is 2 * t_opt
    t_opt = sc.optimal_time_exact(100, 100)
    window = trace.p_hub[: 2 * t_opt + 1]
    assert abs(int(np.argmax(window)) - 15) <= 2


def test_simulate_plain_baseline(tmp_path):
    out = tmp_path / "trace.csv"
    assert (
        main(
            ["simulate", "--n", "100", "--alpha", "0", "--steps", "300",
             "--leaf-phase", "plain", "--out", str(out)]
        )
        == 0
    )
    trace = read_trace(out)
    assert trace.p_hub.max() < 0.10


def test_simulate_repeat_is_byte_identical(tmp_path):
    args = ["simulate", "--n", "37", "--m", "4", "--steps", "50", "--mode", "full"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "mode, leaf_phase",
    [pytest.param(mode, phase, id=mode if phase == "reverse" else f"{mode}-{phase}")
     for mode in MODES for phase in _PHASES],
)
def test_simulate_csv_matches_library_trace(tmp_path, capsys, mode, leaf_phase):
    # a pair in the table's row is the row's series byte for byte; any
    # other pair is refused in one line, with no file
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--n", "23", "--alpha", "0.5", "--steps", "40",
                 "--mode", mode, "--leaf-phase", leaf_phase, "--out", str(out)])
    row, phase = MODES[mode], _PHASES[leaf_phase]
    if phase not in row.phases:
        err = capsys.readouterr().err
        assert err == f"error: {mode} mode does not evaluate the {phase.value} walk\n"
        assert code == 2 and not any(tmp_path.iterdir())
        return
    assert code == 0
    parsed = read_trace(out)
    expected = row.series(23, sc.leaves_from_alpha(23, 0.5), phase, 0.5)(np.arange(41))
    assert parsed.times.tobytes() == np.arange(41, dtype=np.int64).tobytes()
    for column, values in zip(("p_hub", "psi_clique_in", "psi_star_in"), expected):
        assert getattr(parsed, column).tobytes() == values.tobytes()
    assert parsed.metadata["leaf_phase"] == phase.value


def test_simulate_mode_choices_are_the_table():
    simulate = _subparser(build_parser("simulate"), "simulate")
    mode = next(action for action in simulate._actions if action.dest == "mode")
    assert mode.choices == tuple(MODES)


def test_simulate_modes_agree(tmp_path):
    traces = {}
    for mode in ("full", "collapsed", "closed"):
        out = tmp_path / f"{mode}.csv"
        assert (
            main(
                ["simulate", "--n", "50", "--alpha", "0.5", "--steps", "200",
                 "--mode", mode, "--out", str(out)]
            )
            == 0
        )
        traces[mode] = read_trace(out)
    full, collapsed, closed = (
        traces["full"].p_hub, traces["collapsed"].p_hub, traces["closed"].p_hub
    )
    assert np.abs(full - collapsed).max() < 1e-10
    assert np.abs(collapsed - closed).max() < 1e-10


def test_trace_comparison_script(tmp_path, capsys):
    # the script CI runs on two simulate modes: same rows and times, 1e-10
    paths = []
    for mode in ("full", "collapsed"):
        paths.append(str(tmp_path / f"{mode}.csv"))
        args = ["simulate", "--n", "40", "--alpha", "0.5", "--steps", "31",
                "--mode", mode, "--out", paths[-1]]
        assert main(args) == 0
    assert compare_traces.main([*paths, "32"]) == 0
    assert compare_traces.main([*paths, "31"]) == 1
    assert "row counts 32 and 32, expected 31" in capsys.readouterr().err
    trace = read_trace(paths[1])
    for name, shift in (("p_hub", 2e-10), ("psi_star_in", 2e-10j), ("times", 1)):
        changed = dataclasses.replace(trace, **{name: getattr(trace, name) + shift})
        assert compare_traces.mismatch(trace, changed, 32)


def test_simulate_json_round_trip(tmp_path):
    out = tmp_path / "trace.json"
    assert (
        main(["simulate", "--n", "11", "--m", "2", "--steps", "20",
              "--format", "json", "--out", str(out)])
        == 0
    )
    with open(out) as stream:
        parsed = ProbabilityTrace.from_json(stream)
    assert len(parsed) == 21
    assert parsed.metadata["mode"] == "collapsed"


def test_asymptotic_mode_envelope(tmp_path):
    out = tmp_path / "trace.csv"
    assert (
        main(["simulate", "--n", "100", "--alpha", "0", "--steps", "222",
              "--mode", "asymptotic", "--out", str(out)])
        == 0
    )
    trace = read_trace(out)
    # the asymptotic envelope starts at 0 (not 1/N) by construction
    assert trace.p_hub[0] == 0.0
    theta_1 = sc.discriminant_angles(100, 1).theta_1
    expected = 0.5 * np.sin(np.arange(223) * theta_1) ** 2
    assert np.abs(trace.p_hub - expected).max() < 1e-12


def test_full_mode_holds_one_real_block(tmp_path):
    # the float64 clique block is 8 N^2 bytes; no start copy sits beside it
    n = 400
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code = main(["simulate", "--n", str(n), "--m", "20", "--steps", "5",
                     "--mode", "full", "--out", str(tmp_path / "t.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.5 * 8 * n * n


def test_full_mode_from_the_uniform_start_holds_no_block(tmp_path):
    # a float64 block at N = 3000 is 72 MB; the structured oracle keeps vectors
    args = ["simulate", "--n", "3000", "--m", "55", "--steps", "20", "--mode", "full"]
    assert main(args + ["--out", str(tmp_path / "warm.csv")]) == 0
    tracemalloc.start()
    try:
        code = main(args + ["--out", str(tmp_path / "t.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000


def test_consecutive_commands_share_no_state(tmp_path, capsys):
    # commands run one after another in one process: an option given to one
    # command, or a failed parse, must not carry over into the next one
    full, default = tmp_path / "full.csv", tmp_path / "default.csv"
    base = ["simulate", "--n", "20", "--m", "3", "--steps", "5"]
    assert main(base + ["--mode", "full", "--leaf-phase", "plain", "--out", str(full)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(base + ["--mode", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["simulate", "--n"])
    assert main(base + ["--out", str(default)]) == 0
    assert read_trace(full).metadata["mode"] == "full"
    assert read_trace(default).metadata["mode"] == "collapsed"
    assert read_trace(default).metadata["leaf_phase"] == "reversal"
    capsys.readouterr()
    assert main(["verify", "--n", "10", "--m", "3", "--steps", "20"]) == 0
    assert "PASS full_vs_collapsed_probability" in capsys.readouterr().out


def test_sparse_collapsed_series_holds_one_block():
    # 10^6 steps walk through about 3900 blocks but hold one block of
    # powers, not 10^6 rows (32 MB of hub amplitudes)
    ops = sc.build_reduced_operators(10**4, 1)
    start = sc.collapsed_initial_state(10**4, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        p = sc.collapsed.hub_series(ops, start, [10**6])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p) == 1
    assert peak <= 4 * sc.collapsed._BLOCK * 25 * 8


def test_full_mode_has_no_arc_budget(tmp_path, capsys):
    # 10001408 arcs, which the old 10^7 budget refused, in O(N + m) memory
    full, reduced = tmp_path / "full.csv", tmp_path / "reduced.csv"
    base = ["simulate", "--n", "3163", "--m", "1", "--steps", "5"]
    assert main(base + ["--mode", "full", "--out", str(full)]) == 0
    assert main(base + ["--mode", "collapsed", "--out", str(reduced)]) == 0
    assert compare_traces.mismatch(read_trace(full), read_trace(reduced), 6) == ""
    capsys.readouterr()

    # beyond sys.maxsize arcs: full_walk.hub_series' addressable-size check
    out = tmp_path / "huge.csv"
    code = main(
        ["simulate", "--n", "4000000000", "--m", "1", "--steps", "5",
         "--mode", "full", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: arc count") and err.count("\n") == 1
    assert not out.exists()


def test_verify_arc_budget_exits_3_before_any_draw(tmp_path, capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("run_checks called beyond the arc budget")

    monkeypatch.setattr("starclique.cli.run_checks", no_checks)
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "4000", "--alpha", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: verify needs 15996126 arcs, beyond the budget of 10000000; "
        "raise --arc-budget\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--seed", "-1", "--seed must be non-negative, got -1"),
        ("--arc-budget", "-5", "--arc-budget must be at least 1, got -5"),
        ("--arc-budget", "0", "--arc-budget must be at least 1, got 0"),
    ],
)
def test_verify_names_a_bad_seed_or_budget_before_any_draw(
    tmp_path, capsys, monkeypatch, option, value, message
):
    # numpy's own message for a negative seed named no option, and a
    # negative budget read as a resource running out (exit 3)
    def no_checks(*args, **kwargs):
        raise AssertionError("run_checks called with a bad option")

    monkeypatch.setattr("starclique.cli.run_checks", no_checks)
    out = tmp_path / "report.json"
    args = ["verify", "--n", "10", "--m", "2", "--steps", "5", option, value, "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--n", "100", "--m", "5", "--format", "csv"],
        ["spectrum", "--n", "100", "--m", "5", "--format", "json"],
        ["simulate", "--n", "100", "--m", "5", "--steps", "10", "--arc-budget", "10"],
    ],
)
def test_removed_options_are_argparse_errors(tmp_path, capsys, args):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--n", "100", "--steps", "10"],                      # no alpha/m
        ["simulate", "--n", "100", "--alpha", "0", "--m", "5", "--steps", "10"],
        ["simulate", "--n", "2", "--m", "1", "--steps", "10"],
        ["simulate", "--n", "100", "--m", "0", "--steps", "10"],
        ["simulate", "--n", "100", "--m", "1", "--steps", "0"],
        ["simulate", "--n", "100", "--alpha", "-1", "--steps", "10"],
        ["simulate", "--n", "100", "--m", "1", "--steps", "10",
         "--mode", "closed", "--leaf-phase", "plain"],
        ["simulate", "--n", "100", "--m", "5", "--steps", "10", "--mode", "asymptotic"],
        ["phase-diagram", "--n-grid", "256,1024"],
        ["phase-diagram", "--alphas", "0.5"],
        ["optimal-time", "--n", "1000000", "--alpha", "100"],
        ["optimal-time", "--n", "100", "--alpha", "nan"],
        ["optimal-time", "--n", str(10**19), "--alpha", "0"],  # N beyond int64
        ["optimal-time", "--n", "100", "--m", str(10**400)],  # beyond the float range
        ["spectrum", "--n", "100", "--m", str(10**308)],  # (N-1)(N+m-1) beyond it
        ["simulate", "--n", str(10**200), "--m", "1", "--steps", "10", "--mode", "closed"],
        ["optimal-time", "--n", "1000000", "--alpha", "51"],  # m = 1e306 fits, the product not
        ["phase-diagram", "--alphas", "0,0.5",  # grid sizes beyond int64
         "--n-grid", ",".join(str(k * 10**20) for k in (1, 2, 4, 8))],
        ["phase-diagram", "--alphas", "0,200", "--n-grid", "256,1024,4096,16384"],
        ["phase-diagram", "--alphas", "nan,0", "--n-grid", "256,1024,4096,16384"],
        ["phase-diagram", "--alphas", "0,0.5",  # beyond the float range
         "--n-grid", ",".join(str(k * 10**200) for k in (1, 2, 4, 8))],
        ["optimal-time", "--n", str(84 * 10**17), "--alpha", "0"],  # t_opt beyond int64
        ["verify", "--n", "10", "--m", "2", "--steps", "5", "--seed", "-1"],
        ["verify", "--n", "10", "--m", "2", "--steps", "5", "--arc-budget", "-5"],
        ["phase-diagram", "--n-grid=-4,256,1024,4096"],
    ],
)
def test_config_errors_leave_no_file(tmp_path, capsys, args):
    out = tmp_path / "never.csv"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args, library_call",
    [
        (["simulate", "--n", str(10**19), "--m", "1", "--steps", "3", "--mode", "closed"],
         lambda: sc.hub_trace("closed", 10**19, 1, 3, sc.LeafPhase.REVERSAL)),
        (["spectrum", "--n", "100", "--m", str(10**308)],
         lambda: sc.audit_closed_forms(100, 10**308)),
        (["optimal-time", "--n", "1000000", "--alpha", "51"],
         lambda: sc.leaves_from_alpha(10**6, 51)),
        (["phase-diagram", "--alphas", "0,nan", "--n-grid", "256,1024,4096,16384"],
         lambda: sc.exponent_fit(math.nan, [256, 1024, 4096, 16384])),
        (["simulate", "--n", "-5", "--alpha", "0.5", "--steps", "3"],
         lambda: sc.leaves_from_alpha(-5, 0.5)),
    ],
    ids=["simulate", "spectrum", "optimal-time", "phase-diagram", "simulate-negative-n"],
)
def test_cli_refuses_sizes_as_the_library_does(tmp_path, capsys, args, library_call):
    # graph decides the domain; the command line prints its message as is
    with pytest.raises(ValueError) as exc:
        library_call()
    out = tmp_path / "never.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", [3, 1000])
def test_optimal_time_takes_the_largest_leaf_count(capsys, n):
    # the alpha that optimal-time derives from m can round N**alpha past the
    # float range; the branch formula reads no leaf count, so it must not
    # refuse an m inside the domain
    m = int(sys.float_info.max) // (n - 1) - n + 1
    assert main(["optimal-time", "--n", str(n), "--m", str(m)]) == 0
    assert f"m={m}\n" in capsys.readouterr().out


def test_unwritable_output_exits_4_and_leaves_no_file(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "missing" / "trace.csv", tmp_path / "taken"):
        args = ["simulate", "--n", "10", "--m", "2", "--steps", "5", "--out", str(out)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any((tmp_path / "taken").iterdir())


@pytest.mark.parametrize("steps", [2**63 - 513, 2**63 - 2, 2**63 - 1, 2**63])
@pytest.mark.parametrize("mode", ["full", "collapsed", "closed"])
def test_steps_near_2_63_are_config_errors(tmp_path, capsys, mode, steps):
    # numpy's arange wrapped the trace to 0 rows: a header-only file, exit 0
    out = tmp_path / "x.csv"
    args = ["simulate", "--n", "10", "--m", "2", "--steps", str(steps), "--mode", mode]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_out_of_memory_exits_3_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a trace is built whole, so a --steps too large for memory ended in
    # numpy's MemoryError, a traceback and exit 1; here the series raises it
    message = "Unable to allocate 745. GiB for an array with shape (100000000001,)"

    def no_memory(self, times):
        raise MemoryError(message)

    def fail_midway(self, stream):
        stream.write("t\n")
        raise MemoryError

    args = ["simulate", "--n", "100", "--alpha", "0.5", "--steps", "10",
            "--out", str(tmp_path / "t.csv")]
    monkeypatch.setattr(sc.EigenbasisEvaluator, "hub_series", no_memory)
    assert main(args + ["--mode", "closed"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setattr(ProbabilityTrace, "to_csv", fail_midway)
    assert main(args + ["--mode", "collapsed"]) == 3  # while the temp file is written
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_get_the_mode_open_gives(tmp_path, capsys, umask, mode):
    # mkstemp makes its temp file 0600, and the rename kept that mode
    trace, report, plain = tmp_path / "t.csv", tmp_path / "o.json", tmp_path / "plain"
    before = os.umask(umask)
    try:
        assert main(["simulate", "--n", "10", "--m", "2", "--steps", "5",
                     "--out", str(trace)]) == 0
        assert main(["optimal-time", "--n", "1000", "--alpha", "0", "--out", str(report)]) == 0
        plain.touch()
    finally:
        os.umask(before)
    for path in (trace, report, plain):
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_spectrum_smallest(tmp_path):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", "3", "--m", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spectrum"]["cos_theta_1"] == pytest.approx(0.879153, abs=1e-6)
    assert max(payload["spectrum"]["residuals"]) < 1e-10
    assert payload["closed_form_audit"]["flagged"]


def test_spectrum_at_largest_size_writes_analytic_pairs(tmp_path):
    # theta_1 is about 1.4e-18: beyond what the float64 eigensolver resolves
    n = 10**18
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", str(n), "--m", "1", "--out", str(out)]) == 0
    spectrum = json.loads(out.read_text())["spectrum"]
    assert max(spectrum["residuals"]) <= 1e-15
    assert not any(pair["in_domain"] for pair in spectrum["eigenpairs"])
    assert any("out of domain" in flag for flag in spectrum["formula_flags"])
    plus = spectrum["eigenpairs"][0]
    assert plus["value_im"] == pytest.approx(math.sqrt(2) / n, rel=1e-12)
    assert plus["residual"] <= 1e-15


def test_numeric_eigenvector_deviation_fails_spectrum_and_verify(
    tmp_path, capsys, monkeypatch
):
    eig = np.linalg.eig

    def perturbed(matrix):
        values, vectors = eig(matrix)
        vectors = vectors.copy()
        vectors[0, 0] += 1e-6
        return values, vectors

    monkeypatch.setattr(sc.spectral.np.linalg, "eig", perturbed)
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", "100", "--m", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric eigenvector deviation") and err.count("\n") == 1
    assert not out.exists()
    assert main(["verify", "--n", "10", "--m", "3", "--steps", "20"]) == 1
    assert "FAIL numeric_eigenvectors" in capsys.readouterr().out


def test_closed_mode_at_large_size(tmp_path):
    n = 10**16
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--mode", "closed", "--n", str(n), "--m", "1",
                 "--steps", "2", "--out", str(out)]) == 0
    assert abs(read_trace(out).p_hub[0] - 1 / n) <= 1e-15


def test_spectrum_alpha_one(tmp_path):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", "100", "--alpha", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spectrum"]["cos_theta_1"] == pytest.approx(0.994950, abs=1e-6)


def _parse_record(stdout: str) -> dict:
    record = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        record[key] = value
    return record


def test_optimal_time_large(capsys):
    assert main(["optimal-time", "--n", "10000", "--alpha", "0"]) == 0
    record = _parse_record(capsys.readouterr().out)
    assert int(record["t_opt_exact"]) == 11107
    assert 0.45 <= float(record["p_at_t_opt"]) <= 0.55

    # O(1) at any clique size: 1.1e18 steps, answered in closed form
    assert main(["optimal-time", "--n", str(10**18), "--alpha", "0"]) == 0
    record = _parse_record(capsys.readouterr().out)
    assert int(record["t_opt_exact"]) > 10**18
    assert abs(float(record["p_at_t_opt"]) - 0.5) < 1e-12


def test_optimal_time_names_the_int64_step_bound(capsys):
    # t_opt ~ 1.11 N: the largest N that still answers, then one beyond it
    assert main(["optimal-time", "--n", str(8 * 10**18), "--alpha", "0"]) == 0
    record = _parse_record(capsys.readouterr().out)
    assert int(record["t_opt_exact"]) == 8885765876316732494
    assert main(["optimal-time", "--n", str(84 * 10**17), "--alpha", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_opt = ") and err.count("\n") == 1
    assert "2**63 - 1" in err


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_optimal_time_probability_is_the_two_plane_row(capsys, alpha):
    assert main(["optimal-time", "--n", "200", "--alpha", alpha]) == 0
    record = _parse_record(capsys.readouterr().out)
    n, m = 200, sc.leaves_from_alpha(200, float(alpha))
    t_opt = int(record["t_opt_exact"])
    p_at_t = float(record["p_at_t_opt"])
    assert p_at_t == sc.EigenbasisEvaluator(n, m).hub_series([t_opt])[0][0]
    trace = sc.hub_trace("collapsed", n, m, t_opt, sc.LeafPhase.REVERSAL)
    assert abs(p_at_t - trace.p_hub[t_opt]) < 1e-12


def test_optimal_time_examples(capsys):
    assert main(["optimal-time", "--n", "100", "--m", "10"]) == 0
    record = _parse_record(capsys.readouterr().out)
    assert int(record["t_opt_exact"]) == 36

    assert main(["optimal-time", "--n", "100", "--alpha", "0"]) == 0
    record = _parse_record(capsys.readouterr().out)
    assert int(record["t_opt_branch"]) == 111


def test_phase_diagram_fits(tmp_path, capsys):
    out = tmp_path / "diagram.csv"
    assert main(["phase-diagram", "--out", str(out)]) == 0
    rows = {}
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("alpha"):
            continue
        alpha, fitted, theory, residual = (float(x) for x in line.split(","))
        rows[alpha] = (fitted, theory, residual)
    expected = {0.0: 1.0, 0.5: 0.75, 1.0: 0.5, 1.5: 0.5, 2.0: 0.5}
    for alpha, target in expected.items():
        fitted, theory, _ = rows[alpha]
        assert abs(fitted - target) < 0.05
        assert theory == max(0.5, (2 - alpha) / 2)

    # reruns are byte-identical
    out2 = tmp_path / "diagram2.csv"
    assert main(["phase-diagram", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_verify_smallest_instance(capsys):
    assert main(["verify", "--n", "3", "--m", "1", "--steps", "50"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_medium_instance(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert (
        main(["verify", "--n", "50", "--alpha", "0.5", "--steps", "500",
              "--out", str(out)])
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    oracle = next(
        c for c in payload["checks"] if c["name"] == "full_vs_collapsed_probability"
    )
    assert oracle["max_deviation"] < 1e-10


def test_verify_detects_injected_leaf_flip(capsys):
    code = main(
        ["verify", "--n", "10", "--m", "3", "--steps", "100",
         "--inject-leaf-phase-flip"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("STARCLIQUE_OUT_DIR", str(tmp_path))
    assert main(["simulate", "--n", "10", "--m", "2", "--steps", "5",
                 "--out", "env_trace.csv"]) == 0
    assert (tmp_path / "env_trace.csv").exists()


@pytest.mark.parametrize(
    "flag",
    ["--tol-oracle", "--tol-commutation", "--tol-unitarity", "--tol-conjugation",
     "--tol-residual", "--tol-eigenbasis"],
)
def test_verify_cannot_loosen_its_own_gate(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "10", "--m", "3", "--steps", "20", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_spectral_residual_fails_spectrum_and_verify(tmp_path, capsys, monkeypatch):
    build = sc.spectral.build_reduced_operators

    def perturbed(n, m, phase):
        ops = build(n, m, phase)
        evolution = ops.evolution.copy()
        evolution[0, 0] += 1e-6
        return dataclasses.replace(ops, evolution=evolution)

    monkeypatch.setattr(sc.spectral, "build_reduced_operators", perturbed)
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", "100", "--m", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spectral residual ") and err.endswith(" exceeds 1e-10\n")
    assert not out.exists()
    assert main(["verify", "--n", "10", "--m", "3", "--steps", "20"]) == 1
    assert "FAIL spectral_residuals" in capsys.readouterr().out


@pytest.mark.parametrize("phase, flip", [("reverse", False), ("plain", False), ("reverse", True)])
def test_verify_report_names_its_version_and_leaf_phase(tmp_path, capsys, phase, flip):
    out = tmp_path / "report.json"
    args = ["verify", "--n", "10", "--m", "3", "--steps", "20", "--leaf-phase", phase,
            "--out", str(out)]
    assert main(args + ["--inject-leaf-phase-flip"] * flip) == int(flip)
    report = json.loads(out.read_text())
    assert report["version"] == sc.__version__
    assert report["leaf_phase"] == {"reverse": "reversal", "plain": "plain"}[phase]
    assert report["inject_leaf_phase_flip"] is flip
    # the provenance is in the file only
    assert "version" not in capsys.readouterr().out


def test_optimal_time_report_names_its_version(tmp_path, capsys):
    out = tmp_path / "optimal.json"
    assert main(["optimal-time", "--n", "1000", "--alpha", "0.5", "--out", str(out)]) == 0
    record = _parse_record(capsys.readouterr().out)
    report = json.loads(out.read_text())
    assert report.pop("version") == sc.__version__
    assert list(report) == list(record)
    assert report["t_opt_exact"] == int(record["t_opt_exact"])


#: A representative argv of each command, with every option it takes.
_COMMAND_ARGV = {
    "simulate": ["simulate", "--n", "57", "--alpha", "0.5", "--steps", "300", "--mode",
                 "full", "--leaf-phase", "plain", "--format", "json", "--out", "t.json"],
    "spectrum": ["spectrum", "--n", "100", "--m", "10", "--out", "s.json"],
    "optimal-time": ["optimal-time", "--n", "1000", "--alpha", "0.5", "--out", "o.json"],
    "phase-diagram": ["phase-diagram", "--alphas", "0,1", "--n-grid", "16,32,64,128",
                      "--format", "csv", "--out", "p.csv"],
    "verify": ["verify", "--n", "30", "--m", "5", "--steps", "100", "--seed", "7",
               "--leaf-phase", "plain", "--arc-budget", "100000", "--out", "v.json",
               "--inject-leaf-phase-flip"],
}


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.mark.parametrize("command", list(_COMMAND_ARGV))
def test_one_command_parser_reads_as_the_full_parser(command):
    full, one = build_parser(), build_parser(command)
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    assert _subparser(one, command).format_help() == _subparser(full, command).format_help()
    assert _subparser(one, command).format_usage() == _subparser(full, command).format_usage()
    argv = _COMMAND_ARGV[command]
    assert one.parse_args(argv) == full.parse_args(argv)
    assert one.parse_args(argv[:1]) == full.parse_args(argv[:1])  # every default
    # the other commands are registered by name only
    for other in set(_COMMAND_ARGV) - {command}:
        assert not _subparser(one, other)._actions


def _outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--version"],
        [],
        ["optimize", "--n", "1000"],
        ["--n", "1000", "optimal-time"],
        ["optimal-time", "--n", "1000", "--alpha", "0.5", "--bogus"],
        ["optimal-time", "--n", "1000", "--alpha"],
        ["simulate", "--n", "57", "--alpha", "0.5", "--steps", "x"],
        ["verify", "--n", "30", "--m", "5", "extra"],
        ["optimal-time", "--n", "1000", "--alpha", "0.5", "--version"],
    ] + [[command, "--help"] for command in _COMMAND_ARGV],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_main_reads_argv_as_the_full_parser(argv, capsys):
    expected = _outcome(build_parser().parse_args, argv, capsys)
    assert _outcome(main, argv, capsys) == expected


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    argv = ["optimal-time", "--n", "1000", "--alpha", "0.5"]
    assert main(argv) == 0
    given = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["starclique"] + argv)
    assert main() == 0
    assert capsys.readouterr() == given
