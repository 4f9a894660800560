"""Exact enumeration of skew t-Dyck paths.

Paths climb by single up-steps and fall by t-unit down-steps of two
kinds, an ordinary one and a marked (red/left) one that may never sit
next to an up-step.  The package counts them three independent ways --
exhaustive enumeration, an automaton counting table, and kernel-method
closed forms over an exact Laurent-series ring -- and cross-checks every
route against the others.
"""

from .automaton import (
    CountTable,
    Layer,
    dp_counts,
    prefix_count,
    total,
    verify_functional_equations,
)
from .closed_form import (
    CoeffReport,
    discrepancy_report,
    lagrange_identity_check,
    narayana_sum,
    r_coefficient,
    r_series,
)
from .kernel import (
    KernelSolution,
    KernelSpec,
    good_root,
    kernel_poly,
    kernel_residual,
    prefix_series_t2,
    ratio_property,
    recurrence_check,
    solve_t2,
)
from .paths import (
    PathGeometry,
    SkewWord,
    Step,
    ValidationResult,
    enumerate_words,
    is_closed,
    overlap_diagnostic,
    realize,
    validate,
)
from .render import render_document, render_svg, render_tikz
from .reverse import (
    RlSolution,
    rl_cancelling_root,
    rl_g0,
    rl_root_s1,
    solve_rl,
)
from .series import AlgebraicEq, Series, SeriesError, newton_root
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AlgebraicEq",
    "CoeffReport",
    "CountTable",
    "KernelSolution",
    "KernelSpec",
    "Layer",
    "PathGeometry",
    "RlSolution",
    "Series",
    "SeriesError",
    "SkewWord",
    "Step",
    "ValidationResult",
    "VerificationReport",
    "discrepancy_report",
    "dp_counts",
    "enumerate_words",
    "good_root",
    "is_closed",
    "kernel_poly",
    "kernel_residual",
    "lagrange_identity_check",
    "narayana_sum",
    "newton_root",
    "overlap_diagnostic",
    "prefix_count",
    "prefix_series_t2",
    "r_coefficient",
    "r_series",
    "ratio_property",
    "realize",
    "recurrence_check",
    "render_document",
    "render_svg",
    "render_tikz",
    "rl_cancelling_root",
    "rl_g0",
    "rl_root_s1",
    "run_verification",
    "solve_rl",
    "solve_t2",
    "total",
    "validate",
    "verify_functional_equations",
    "__version__",
]
