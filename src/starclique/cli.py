"""Command-line interface: simulations, spectra, optimal times, phase
diagrams, and cross-evaluator verification, all emitting machine-readable
files.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource budget exceeded or out of memory, 4 output file cannot be
written.  Output files are written to a temporary name and renamed into
place, with the mode a plain ``open`` would give them, so a partial file is
never left behind; nothing is written at all on a configuration error.
Relative --out paths resolve against $STARCLIQUE_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import asymptotics as asym
from . import spectral
from .audit import audit_closed_forms
from .graph import INT64_MAX, LeafPhase, class_sizes, leaves_from_alpha
from .modes import MODES, hub_trace
from .trace import ProbabilityTrace
from .verify import judge, run_checks

DEFAULT_ARC_BUDGET = 10**7

_PHASES = {"reverse": LeafPhase.REVERSAL, "plain": LeafPhase.PLAIN}


class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


class ArcBudgetError(Exception):
    """Arc count beyond the configured budget; maps to exit code 3."""


class OutputError(Exception):
    """Output file cannot be written; maps to exit code 4."""


#: Exit code of each failure that ``main`` reports in one line.
_EXIT_CODES = {ConfigError: 2, ValueError: 2, ArcBudgetError: 3, MemoryError: 3, OutputError: 4}


@dataclass(frozen=True)
class Sizes:
    n: int
    m: int
    alpha: float | None


def _resolve_sizes(args: argparse.Namespace) -> Sizes:
    """The option rules only; ``graph`` refuses sizes outside the domain."""
    if args.n is None:
        raise ConfigError("--n is required")
    if args.alpha is not None and args.m is not None:
        raise ConfigError("--alpha and --m are mutually exclusive")
    if args.alpha is None and args.m is None:
        raise ConfigError("one of --alpha or --m is required")
    if args.alpha is None:
        class_sizes(args.n, args.m)
        return Sizes(n=args.n, m=args.m, alpha=None)
    return Sizes(n=args.n, m=leaves_from_alpha(args.n, args.alpha), alpha=args.alpha)


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    path = args.out if args.out else default_name
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("STARCLIQUE_OUT_DIR", "."), path)
    return path


def _atomic_write(path: str, write) -> None:
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".starclique-", suffix=".tmp")
        with os.fdopen(fd, "w") as stream:
            write(stream)
        umask = os.umask(0)  # read it: os.umask sets as it returns
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # as open(path, "w") makes it; mkstemp's is 0600
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_json(path: str, payload) -> None:
    """Write ``payload`` as JSON, indented by one, with a final newline."""
    def write(stream: io.TextIOBase) -> None:
        json.dump(payload, stream, indent=1)
        stream.write("\n")
    _atomic_write(path, write)


def _write_trace(args: argparse.Namespace, trace: ProbabilityTrace, name: str) -> str:
    path = _out_path(args, f"{name}.{args.format}")
    _atomic_write(path, trace.to_csv if args.format == "csv" else trace.to_json)
    return path


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(args: argparse.Namespace) -> int:
    sizes = _resolve_sizes(args)
    if args.steps is None or args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    phase = _PHASES[args.leaf_phase]
    trace = hub_trace(args.mode, sizes.n, sizes.m, args.steps, phase, sizes.alpha)
    path = _write_trace(args, trace, f"trace_n{sizes.n}_m{sizes.m}_{args.mode}")
    print(path)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    sizes = _resolve_sizes(args)
    audit = audit_closed_forms(sizes.n, sizes.m)
    residuals = judge("spectral_residuals", np.max(audit.report.residuals))
    if not residuals.passed:
        print(
            f"spectral residual {residuals.max_deviation:.3e} exceeds "
            f"{residuals.tolerance:g}",
            file=sys.stderr,
        )
        return 1
    numeric = judge("numeric_eigenvectors", audit.report.numeric_deviation)
    if not numeric.passed:
        print(
            f"numeric eigenvector deviation {numeric.max_deviation:.3e} exceeds "
            f"{numeric.tolerance:g} inside the numeric domain",
            file=sys.stderr,
        )
        return 1
    payload = {
        "version": __version__,
        "alpha": sizes.alpha,
        "spectrum": audit.report.to_json_dict(),
        "closed_form_audit": audit.to_json_dict(),
    }
    path = _out_path(args, f"spectrum_n{sizes.n}_m{sizes.m}.json")
    _write_json(path, payload)
    print(path)
    return 0


def _cmd_optimal_time(args: argparse.Namespace) -> int:
    sizes = _resolve_sizes(args)
    t_exact = asym.optimal_time_exact(sizes.n, sizes.m)
    if t_exact > INT64_MAX:
        raise ConfigError(f"t_opt = {t_exact} is beyond the int64 step range, 2**63 - 1")
    alpha = sizes.alpha
    if alpha is None:
        alpha = math.log(sizes.m) / math.log(sizes.n) if sizes.m > 1 else 0.0
    t_branch = asym.optimal_time_branch(sizes.n, alpha)
    p_at_t = spectral.closed_form_probability(sizes.n, sizes.m, t_exact)
    record = {
        "n": sizes.n,
        "m": sizes.m,
        "alpha": alpha,
        "t_opt_exact": t_exact,
        "t_opt_branch": t_branch,
        "p_at_t_opt": p_at_t,
    }
    for key, value in record.items():
        print(f"{key}={value}")
    if args.out:
        path = _out_path(args, "")
        _write_json(path, {"version": __version__, **record})
    return 0


def _parse_grid(text: str, kind) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def _cmd_phase_diagram(args: argparse.Namespace) -> int:
    alphas = _parse_grid(args.alphas, float)
    n_grid = _parse_grid(args.n_grid, int)
    if len(set(alphas)) < 2:
        raise ConfigError("phase diagram needs at least 2 alpha values")
    if len(set(n_grid)) < 4:
        raise ConfigError("phase diagram needs at least 4 clique sizes")
    fits = [asym.exponent_fit(alpha, n_grid) for alpha in alphas]

    path = _out_path(args, f"phase_diagram.{args.format}")
    if args.format == "json":
        _write_json(path, {
            "version": __version__,
            "n_grid": list(n_grid),
            "rows": [
                {
                    "alpha": fit.alpha,
                    "fitted_exponent": fit.fitted_exponent,
                    "theory_exponent": fit.theory_exponent,
                    "fit_residual": fit.fit_residual,
                    "samples": [list(s) for s in fit.samples],
                }
                for fit in fits
            ],
        })
    else:
        def write(stream: io.TextIOBase) -> None:
            stream.write(f"# version={__version__}\n")
            stream.write(f"# n_grid={','.join(str(n) for n in n_grid)}\n")
            stream.write("alpha,fitted_exponent,theory_exponent,fit_residual\n")
            for fit in fits:
                stream.write(
                    f"{fit.alpha:.17g},{fit.fitted_exponent:.17g},"
                    f"{fit.theory_exponent:.17g},{fit.fit_residual:.17g}\n"
                )
        _atomic_write(path, write)
    print(path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    sizes = _resolve_sizes(args)
    if args.steps is None or args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.arc_budget < 1:
        raise ConfigError(f"--arc-budget must be at least 1, got {args.arc_budget}")
    arcs = sum(class_sizes(sizes.n, sizes.m))
    if arcs > args.arc_budget:
        raise ArcBudgetError(
            f"verify needs {arcs} arcs, beyond the budget of {args.arc_budget}; "
            "raise --arc-budget"
        )
    phase = _PHASES[args.leaf_phase]
    report = run_checks(
        sizes.n,
        sizes.m,
        steps=args.steps,
        seed=args.seed,
        leaf_phase=phase,
        inject_leaf_phase_flip=args.inject_leaf_phase_flip,
    )
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: max deviation {check.max_deviation:.3e} "
            f"(tolerance {check.tolerance:.1e})"
        )
    if args.out:
        path = _out_path(args, "")
        _write_json(path, {
            "version": __version__,
            "leaf_phase": phase.value,
            "inject_leaf_phase_flip": args.inject_leaf_phase_flip,
            **report.to_json_dict(),
        })
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_size_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="clique size N (>= 3)")
    parser.add_argument(
        "--alpha", type=float, help="leaf exponent; leaf count is floor(N**alpha)"
    )
    parser.add_argument(
        "--m", type=int, help="explicit leaf count (mutually exclusive with --alpha)"
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (default: derived name)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_simulate_options(parser: argparse.ArgumentParser) -> None:
    _add_size_options(parser)
    _add_output_options(parser)
    parser.add_argument("--steps", type=int, help="number of walk steps (>= 1)")
    parser.add_argument("--mode", choices=tuple(MODES), default="collapsed")
    parser.add_argument("--leaf-phase", choices=tuple(_PHASES), default="reverse")


def _add_spectrum_options(parser: argparse.ArgumentParser) -> None:
    _add_size_options(parser)
    parser.add_argument("--out", help="JSON output path (default: derived name)")


def _add_optimal_time_options(parser: argparse.ArgumentParser) -> None:
    _add_size_options(parser)
    parser.add_argument("--out", help="optional JSON output path")


def _add_phase_diagram_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alphas", default="0,0.5,1,1.5,2", help="comma-separated alpha grid"
    )
    parser.add_argument(
        "--n-grid",
        default="256,1024,4096,16384,65536",
        help="comma-separated clique sizes (>= 4 distinct values)",
    )
    _add_output_options(parser)


def _add_verify_options(parser: argparse.ArgumentParser) -> None:
    _add_size_options(parser)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--leaf-phase", choices=tuple(_PHASES), default="reverse")
    parser.add_argument(
        "--arc-budget",
        type=int,
        default=DEFAULT_ARC_BUDGET,
        help="most arcs, N(N-1) + 2m, that verify checks (default 10^7); it "
        "draws its 20 random complex states one at a time into one buffer and "
        "holds about 1 complex copy of the arcs, 16 bytes per arc; exit code 3 "
        "when exceeded",
    )
    parser.add_argument("--out", help="optional JSON report path")
    parser.add_argument(
        "--inject-leaf-phase-flip",
        action="store_true",
        help="self-test hook: corrupt the full evolution's leaf phase",
    )


#: Each command's help line, the function that adds its options, and its handler.
_COMMANDS = {
    "simulate": ("emit a hub-probability trace", _add_simulate_options, _cmd_simulate),
    "spectrum": ("emit the reduced-walk eigensystem", _add_spectrum_options, _cmd_spectrum),
    "optimal-time": (
        "optimal running time and its probability", _add_optimal_time_options, _cmd_optimal_time
    ),
    "phase-diagram": (
        "fit scaling exponents over a grid", _add_phase_diagram_options, _cmd_phase_diagram
    ),
    "verify": ("run the cross-evaluator checks", _add_verify_options, _cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every command is registered, so the help,
    the usage line and the invalid-choice errors are always the same; the
    options and handler are added for ``command`` only, or for every command
    when it is None."""
    parser = argparse.ArgumentParser(
        prog="starclique",
        description="Quantum-walk search for the glue vertex of a clique "
        "with a pendant star.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_options, handler) in _COMMANDS.items():
        built = command is None or name == command
        subparser = sub.add_parser(name, help=help_line, add_help=built)
        if built:
            add_options(subparser)
            subparser.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
