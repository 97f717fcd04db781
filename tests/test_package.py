from pathlib import Path

import starclique as sc

README = Path(__file__).resolve().parent.parent / "README.md"

#: The package surface: each name with the route that reads it (a CLI
#: command, ``verify`` or ``tests/test_acceptance.py``) or the reason it
#: is exported.  A name added to or dropped from ``__all__`` fails below
#: until it is listed here with its route.
EXPORTS = {
    "__version__": "cli --version, and every output file's version field",
    "ArcClass": "indexes the five class amplitudes that every state and series returns",
    "Branch": "the alpha = 1 split that optimal_time_branch (optimal-time) reads",
    "ClosedFormAudit": "the result type of audit_closed_forms",
    "CollapsedState": "verify builds the five class basis states as these",
    "EigenbasisEvaluator": "the closed mode's evaluator (simulate, verify), optimal-time",
    "ExponentFit": "the result type of exponent_fit",
    "LeafPhase": "simulate and verify --leaf-phase",
    "ProbabilityTrace": "simulate writes it; the benchmark's read-back op parses it",
    "ReducedOperators": "the result type of build_reduced_operators",
    "SpectrumReport": "the result type of walk_eigensystem",
    "VerificationReport": "the result type of run_checks",
    "WalkState": "the state type that initial_state, step and lift return",
    "audit_closed_forms": "spectrum, acceptance criterion 9",
    "build_reduced_operators": "simulate --mode collapsed, verify, acceptance",
    "class_sizes": "the class sizes that collapse and lift normalise by",
    "closed_form_probability": "the benchmark's library query, one row of "
    "EigenbasisEvaluator.hub_series",
    "collapse": "collapse(state), N and m read from its shapes: verify, acceptance criterion 2",
    "collapsed_initial_state": "simulate --mode collapsed, verify, acceptance",
    "discriminant_angles": "verify, acceptance criteria 3 and 6",
    "evolve_collapsed": "the trace from a given collapsed state: the benchmark's checks",
    "exponent_fit": "phase-diagram, acceptance criterion 5",
    "hub_trace": "the one uniform-start trace of every mode: simulate, verify, acceptance",
    "initial_state": "initial_state(n, m): the uniform start as a WalkState, for step",
    "leaves_from_alpha": "every command's --alpha, acceptance",
    "lift": "lift(n, m, collapsed): verify, acceptance criterion 2",
    "optimal_time_branch": "optimal-time",
    "optimal_time_exact": "optimal-time, acceptance criteria 4, 6 and 7",
    "run_checks": "verify",
    "step": "step(state, leaf_phase), N and m read from its shapes: acceptance criterion 2",
    "walk_eigensystem": "verify's spectral checks",
}


def test_every_export_resolves():
    # a name deleted from its module but left in __all__ fails here
    for name in sc.__all__:
        getattr(sc, name)
    assert len(set(sc.__all__)) == len(sc.__all__)


def test_exports_are_the_pinned_surface():
    assert set(sc.__all__) == set(EXPORTS)
    assert all(reason.strip() for reason in EXPORTS.values())


def test_readme_library_example_runs():
    # the python block under "## Library": a deleted name or a changed
    # signature in it fails here
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
