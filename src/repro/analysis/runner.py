"""The analysis driver behind ``repro-ppr lint`` / ``python -m repro.analysis``.

Loads a corpus, runs every (selected) rule over it, applies reasoned
suppressions, and renders the surviving findings.  Exit status is the
contract CI gates on: 0 for a clean tree, 1 when any gating finding
survives, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

# Importing the check modules registers the built-in rules.
from repro.analysis import (  # noqa: F401  (imported for registration)
    checks_determinism,
    checks_durability,
    checks_registry,
    checks_serving,
    reporters,
)
from repro.analysis.corpus import Corpus, SourceFile, load_corpus
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    Rule,
    all_rules,
    get_rule,
    register_rule,
    rule_ids,
)
from repro.errors import ParameterError, ReproError

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "run_lint",
    "add_lint_arguments",
    "lint_from_args",
    "main",
    "DEFAULT_LINT_PATHS",
]

#: Paths linted when none are given (the project's own source tree).
DEFAULT_LINT_PATHS = ("src/repro",)


@register_rule
class SuppressionHygieneRule(Rule):
    id = "suppression-hygiene"
    summary = (
        "every allow comment names a registered rule and gives a reason"
    )
    invariant = (
        "Suppressions are documentation: a reasonless or unknown-rule "
        "allow comment suppresses nothing and is itself a finding, so "
        "the tree never accumulates silent exemptions."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        known = set(rule_ids())
        for suppression in file.suppressions.suppressions:
            if not suppression.reason:
                yield Finding(
                    rule=self.id,
                    path=str(file.path),
                    line=suppression.line,
                    col=0,
                    message=(
                        f"allow[{suppression.rule}] without a reason "
                        f"suppresses nothing; append "
                        f"' -- <why the invariant does not apply here>'"
                    ),
                )
            elif suppression.rule not in known:
                yield Finding(
                    rule=self.id,
                    path=str(file.path),
                    line=suppression.line,
                    col=0,
                    message=(
                        f"allow names unknown rule "
                        f"{suppression.rule!r}; registered rules: "
                        f"{', '.join(sorted(known))}"
                    ),
                )


@dataclass
class AnalysisResult:
    """Everything one lint run produced (reporters consume this)."""

    findings: list[Finding]
    checked_files: int
    rules: list[Rule]


class Analyzer:
    """Runs a rule set over a corpus and applies suppressions."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = (
            list(rules) if rules is not None else all_rules()
        )

    def run(self, corpus: Corpus) -> AnalysisResult:
        raw: list[Finding] = []
        for file in corpus:
            if file.parse_error is not None:
                raw.append(file.parse_error)
        for rule in self.rules:
            if rule.scope == "file":
                for file in corpus:
                    if file.tree is None:
                        continue
                    raw.extend(rule.check_file(file))
            else:
                raw.extend(rule.check_project(corpus))
        by_path = {str(file.path): file for file in corpus}
        kept: list[Finding] = []
        for finding in raw:
            source = by_path.get(finding.path)
            if source is not None and source.suppressions.is_suppressed(
                finding.rule, finding.line
            ):
                continue
            kept.append(finding)
        kept.sort(key=lambda f: f.sort_key())
        return AnalysisResult(
            findings=kept,
            checked_files=len(corpus),
            rules=self.rules,
        )


def _split_rule_args(values: Sequence[str] | None) -> list[str] | None:
    if values is None:
        return None
    rules: list[str] = []
    for value in values:
        rules.extend(part.strip() for part in value.split(",") if part.strip())
    return rules


def resolve_rules(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Rule]:
    """The rule set a run uses; unknown ids raise ParameterError."""
    if select:
        rules = [get_rule(rule_id) for rule_id in select]
    else:
        rules = all_rules()
    if ignore:
        for rule_id in ignore:
            get_rule(rule_id)  # validate
        ignored = set(ignore)
        rules = [rule for rule in rules if rule.id not in ignored]
    return rules


def run_lint(
    paths: Sequence[str],
    *,
    fmt: str = "text",
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    stream: TextIO | None = None,
) -> int:
    """Lint ``paths``; returns the process exit code (0 clean, 1 findings)."""
    out = stream if stream is not None else sys.stdout
    rules = resolve_rules(select, ignore)
    try:
        corpus = load_corpus(paths)
    except FileNotFoundError as exc:
        raise ParameterError(str(exc)) from exc
    result = Analyzer(rules).run(corpus)
    if fmt == "json":
        reporters.render_json(result, out)
    else:
        reporters.render_text(result, out)
    return 1 if any(f.severity.gates for f in result.findings) else 0


# ---------------------------------------------------------------------------
# argparse plumbing shared by `repro-ppr lint` and `python -m repro.analysis`
# ---------------------------------------------------------------------------

def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to lint "
            f"(default: {' '.join(DEFAULT_LINT_PATHS)})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE[,RULE...]",
        default=None,
        help="run only these rule ids",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE[,RULE...]",
        default=None,
        help="skip these rule ids",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the selected rules and exit",
    )


def lint_from_args(args: argparse.Namespace) -> int:
    select = _split_rule_args(args.select)
    ignore = _split_rule_args(args.ignore)
    if args.list_rules:
        for rule in resolve_rules(select, ignore):
            print(f"{rule.id:<26} {rule.scope:<8} {rule.summary}")
        return 0
    paths = list(args.paths) if args.paths else list(DEFAULT_LINT_PATHS)
    return run_lint(paths, fmt=args.format, select=select, ignore=ignore)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=(
            "Project-invariant static checker for the repro PPR stack "
            "(determinism, workspace discipline, lock discipline)."
        ),
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return lint_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
