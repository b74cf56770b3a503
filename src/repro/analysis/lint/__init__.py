"""``repro lint`` — the AST determinism & simulation-contract checker.

Every guarantee this reproduction ships (one seed -> byte-identical
``ServiceReport``, B=1-vs-wave byte equivalence,
observation-free tracing) rests on source-level invariants: no wall
clock on the sim path, no global-state RNG, no unordered iteration
feeding the event loop, the pinned completions -> flushes -> hedges ->
arrivals tie order.  End-to-end regression tests catch violations after
they are written; this package encodes the contract itself as AST rules
so a violation fails ``repro lint`` (and CI) at the line that
introduces it.

- :mod:`repro.analysis.lint.base` — ``Finding``/``Rule``/registry.
- :mod:`repro.analysis.lint.rules` — the rule set (DET001, DET002,
  DET003, API001, SIM001).
- :mod:`repro.analysis.lint.engine` — file walking, inline
  ``# repro: allow[RULE-ID]`` suppressions, deterministic ordering.
- :mod:`repro.analysis.lint.reporting` — text and ``repro-lint/1``
  JSON output.
"""

from repro.analysis.lint.base import REGISTRY, Finding, ModuleContext, Rule, all_rules
from repro.analysis.lint.engine import LintResult, collect_suppressions, run_lint
from repro.analysis.lint.reporting import JSON_SCHEMA, describe_rules, to_json, to_text

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "REGISTRY",
    "all_rules",
    "LintResult",
    "run_lint",
    "collect_suppressions",
    "JSON_SCHEMA",
    "describe_rules",
    "to_json",
    "to_text",
]
