"""The ``repro lint`` rule set.

Importing this package registers every rule with
:data:`repro.analysis.lint.base.REGISTRY`.  Each rule module holds one
rule class plus the constants (allowlists, symbol tables) its contract
is written in terms of, so the contract is reviewable where the check
lives.
"""

from repro.analysis.lint.rules.api001_public_all import PublicApiRule
from repro.analysis.lint.rules.det001_wall_clock import WallClockRule
from repro.analysis.lint.rules.det002_unseeded_rng import UnseededRngRule
from repro.analysis.lint.rules.det003_unordered_iter import UnorderedIterationRule
from repro.analysis.lint.rules.sim001_tie_order import HeapTieOrderRule

__all__ = [
    "PublicApiRule",
    "WallClockRule",
    "UnseededRngRule",
    "UnorderedIterationRule",
    "HeapTieOrderRule",
]
