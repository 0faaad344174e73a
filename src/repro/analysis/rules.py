"""The pluggable rule registry behind ``repro-ppr lint``.

A rule is a subclass of :class:`Rule` registered with
:func:`register_rule`.  Each one encodes a project invariant the
language cannot express — determinism, registry sync, lock discipline
— and reports violations as :class:`~repro.analysis.findings.Finding`
objects.  Two scopes exist:

``file``
    :meth:`Rule.check_file` is called once per parsed source file;
    the rule walks that file's AST in isolation.
``project``
    :meth:`Rule.check_project` is called once with the whole corpus;
    the rule cross-references modules (e.g. the solver registry against
    the solver signatures).  When the corpus lacks the modules a
    project rule anchors on, the rule reports nothing — linting a lone
    file must not fabricate sync violations.

Third-party rules plug in through :func:`register_rule` exactly like
the built-ins in the ``checks_*`` modules; duplicate ids raise.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.corpus import Corpus, SourceFile
from repro.analysis.findings import Finding, Severity
from repro.errors import ParameterError

__all__ = [
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "rule_ids",
    "dotted_name",
]

_RULES: dict[str, "Rule"] = {}


class Rule:
    """One checkable project invariant.

    Attributes
    ----------
    id:
        Kebab-case identifier used in reports and allow comments.
    summary:
        One-line description for ``repro-ppr lint --list-rules``.
    invariant:
        The contract this rule enforces, in prose (surfaced in docs).
    scope:
        ``"file"`` or ``"project"`` (see the module docstring).
    severity:
        Default severity of this rule's findings.
    """

    id: str = ""
    summary: str = ""
    invariant: str = ""
    scope: str = "file"
    severity: Severity = Severity.ERROR

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        """Findings for one file (``file.tree`` is never ``None``)."""
        return ()

    def check_project(self, corpus: Corpus) -> Iterable[Finding]:
        """Findings spanning the whole corpus (project-scope rules)."""
        return ()

    # -- helpers shared by the concrete rules ---------------------------
    def finding(
        self,
        file: SourceFile,
        node: ast.AST,
        message: str,
        *,
        severity: Severity | None = None,
    ) -> Finding:
        """A finding anchored at ``node``'s location in ``file``."""
        return Finding(
            rule=self.id,
            path=str(file.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity or self.severity,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Rule {self.id!r} ({self.scope})>"


def register_rule(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register ``rule_cls``.

    Duplicate ids and malformed declarations raise
    :class:`~repro.errors.ParameterError` at import time — a broken
    rule set must never silently lint less.
    """
    rule = rule_cls()
    if not rule.id:
        raise ParameterError(f"rule {rule_cls.__name__} declares no id")
    if rule.scope not in ("file", "project"):
        raise ParameterError(
            f"rule {rule.id!r} has invalid scope {rule.scope!r}"
        )
    if rule.id in _RULES:
        raise ParameterError(f"rule {rule.id!r} is already registered")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_ids() -> list[str]:
    return sorted(_RULES)


def get_rule(rule_id: str) -> Rule:
    rule = _RULES.get(rule_id)
    if rule is None:
        raise ParameterError(
            f"unknown rule {rule_id!r}; registered rules: "
            f"{', '.join(rule_ids())}"
        )
    return rule


# ---------------------------------------------------------------------------
# Small AST utilities every check module shares
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in ``tree``, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def parameter_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[str]:
    """All named parameters of ``fn`` (positional, kw-only; no *args/**kw)."""
    args = fn.args
    return [
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]


def has_kwargs(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return fn.args.kwarg is not None
