"""Exact enumeration of skew t-Dyck paths.

Paths climb by single up-steps and fall by t-unit down-steps of two
kinds, an ordinary one and a marked (red/left) one that may never sit
next to an up-step.  The package counts them three independent ways --
exhaustive enumeration, an automaton counting table, and kernel-method
closed forms over an exact Laurent-series ring -- and cross-checks every
route against the others.

Names are imported from the submodules (``skewdyck.automaton``,
``skewdyck.kernel``, ...).  The package root re-exports nothing, so
importing one layer, or starting the CLI, loads no other.
"""

__version__ = "0.1.0"

# What a figure shows: "plain" keeps the L-free words, "skew" every word.
# It lives here, not in ``render``, so the CLI parser can offer the modes
# without importing the drawing code.
RENDER_MODES = ("plain", "skew")
