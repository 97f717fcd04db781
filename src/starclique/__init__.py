"""Quantum-walk search for the glue vertex of a clique with a pendant star.

Three cross-validating evaluators of the same dynamics: full arc-space
evolution (the brute-force oracle), an exact 5-dimensional reduced
iteration, and spectral closed forms, plus the large-clique scaling
results (optimal running time, phase transition of the search speed).
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticRegime,
    Branch,
    CoefficientEstimates,
    ExponentFit,
    coefficient_estimates,
    cos_theta1_approx,
    exponent_fit,
    optimal_time_branch,
    optimal_time_exact,
    probability_approx,
    theta1_approx,
)
from .collapsed import (
    CollapsedState,
    ReducedOperators,
    build_reduced_operators,
    collapsed_initial_state,
    evolve_collapsed,
    success_probability,
)
from .full_walk import (
    WalkState,
    collapse,
    evolve,
    initial_state,
    lift,
    shift,
    step,
    vertex_probability,
)
from .graph import (
    ArcClass,
    GluedGraph,
    LeafPhase,
    build_graph,
    class_sizes,
    leaves_from_alpha,
)
from .spectral import (
    AmplitudePair,
    ClosedFormAudit,
    EigenbasisEvaluator,
    SpectrumReport,
    audit_closed_forms,
    closed_form_amplitudes,
    closed_form_probability,
    discriminant_angles,
    discriminant_eigenvectors,
    walk_eigensystem,
)
from .trace import ProbabilityTrace
from .verify import VerificationReport, run_checks

__all__ = [
    "__version__",
    "AmplitudePair",
    "ArcClass",
    "AsymptoticRegime",
    "Branch",
    "ClosedFormAudit",
    "CoefficientEstimates",
    "CollapsedState",
    "EigenbasisEvaluator",
    "ExponentFit",
    "GluedGraph",
    "LeafPhase",
    "ProbabilityTrace",
    "ReducedOperators",
    "SpectrumReport",
    "VerificationReport",
    "WalkState",
    "audit_closed_forms",
    "build_graph",
    "build_reduced_operators",
    "class_sizes",
    "closed_form_amplitudes",
    "closed_form_probability",
    "coefficient_estimates",
    "collapse",
    "collapsed_initial_state",
    "cos_theta1_approx",
    "discriminant_angles",
    "discriminant_eigenvectors",
    "evolve",
    "evolve_collapsed",
    "exponent_fit",
    "initial_state",
    "leaves_from_alpha",
    "lift",
    "optimal_time_branch",
    "optimal_time_exact",
    "probability_approx",
    "run_checks",
    "shift",
    "step",
    "success_probability",
    "theta1_approx",
    "vertex_probability",
    "walk_eigensystem",
]
