"""repro.analysis: project-invariant static checks gating CI.

An AST-based checker for the invariants this codebase is built on but
Python cannot express: (seed, source) determinism, registry/signature
sync, version-stamped memoisation, writer lock discipline, and
workspace-pooled scratch in kernels.

Run it as ``repro-ppr lint`` or ``python -m repro.analysis``.  Rules
plug in through :func:`repro.analysis.rules.register_rule`; see
CONTRIBUTING.md for the invariant -> rule -> suppression table.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, all_rules, get_rule, register_rule, rule_ids
from repro.analysis.runner import Analyzer, AnalysisResult, main, run_lint

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "main",
    "register_rule",
    "rule_ids",
    "run_lint",
]
