"""Quantum-walk search for the glue vertex of a clique with a pendant star.

Three cross-validating evaluators of the same dynamics: full arc-space
evolution (the brute-force oracle), an exact 5-dimensional reduced
iteration, and spectral closed forms, plus the large-clique scaling
results (optimal running time, phase transition of the search speed).
"""

__version__ = "0.1.0"

from .asymptotics import (
    Branch,
    ExponentFit,
    exponent_fit,
    optimal_time_branch,
    optimal_time_exact,
)
from .audit import ClosedFormAudit, audit_closed_forms
from .collapsed import (
    CollapsedState,
    ReducedOperators,
    build_reduced_operators,
    collapsed_initial_state,
    evolve_collapsed,
)
from .full_walk import (
    WalkState,
    collapse,
    initial_state,
    lift,
    step,
)
from .graph import (
    ArcClass,
    LeafPhase,
    class_sizes,
    leaves_from_alpha,
)
from .modes import hub_trace
from .spectral import (
    EigenbasisEvaluator,
    SpectrumReport,
    closed_form_probability,
    discriminant_angles,
    walk_eigensystem,
)
from .trace import ProbabilityTrace
from .verify import VerificationReport, run_checks

__all__ = [
    "__version__",
    "ArcClass",
    "Branch",
    "ClosedFormAudit",
    "CollapsedState",
    "EigenbasisEvaluator",
    "ExponentFit",
    "LeafPhase",
    "ProbabilityTrace",
    "ReducedOperators",
    "SpectrumReport",
    "VerificationReport",
    "WalkState",
    "audit_closed_forms",
    "build_reduced_operators",
    "class_sizes",
    "closed_form_probability",
    "collapse",
    "collapsed_initial_state",
    "discriminant_angles",
    "evolve_collapsed",
    "exponent_fit",
    "hub_trace",
    "initial_state",
    "leaves_from_alpha",
    "lift",
    "optimal_time_branch",
    "optimal_time_exact",
    "run_checks",
    "step",
    "walk_eigensystem",
]
