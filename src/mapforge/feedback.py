"""Feedback classification and keyword-matched enhancement.

Every evaluation outcome maps to one of three system feedback kinds:
compile errors (diagnostics), execution errors (simulator failures),
and performance metrics (successful runs).  Enhancement appends an
explanation and/or an adjustment suggestion chosen by case-sensitive
substring matching of ordered rules against the system message; the
feedback level controls which of the two are attached, and the rendered
text at a lower level is always a prefix of the text at a higher one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from .ast import Diagnostic
from .configs import load_yaml
from .simulator import SimError, SimResult

LEVEL_SYSTEM = "system"
LEVEL_EXPLAIN = "system+explain"
LEVEL_FULL = "system+explain+suggest"
LEVELS = (LEVEL_SYSTEM, LEVEL_EXPLAIN, LEVEL_FULL)

_KIND_LABELS = {
    "CompileError": "Compile Error",
    "ExecutionError": "Execution Error",
    "PerformanceMetric": "Performance Metric",
}


@dataclass(frozen=True)
class FeedbackReport:
    kind: str  # "CompileError" | "ExecutionError" | "PerformanceMetric"
    system_message: str
    explain: Optional[str] = None
    suggest: Optional[str] = None
    score: Optional[float] = None  # throughput; present iff PerformanceMetric


@dataclass(frozen=True)
class EnhancerRule:
    keyword: str
    explain: Optional[str] = None
    suggest: Optional[str] = None


def classify(outcome: Union[Sequence[Diagnostic], SimError, SimResult],
             metric: str = "time") -> FeedbackReport:
    """System-only feedback for one evaluation outcome."""
    if isinstance(outcome, SimResult):
        if metric == "gflops":
            message = f"Achieved throughput = {outcome.throughput / 1e9:g} GFLOPS"
        else:
            message = f"Execution time is {outcome.wall_time:g}s."
        return FeedbackReport("PerformanceMetric", message, score=outcome.throughput)
    if isinstance(outcome, (list, tuple)):
        message = " ".join(d.message for d in outcome)
        return FeedbackReport("CompileError", message)
    return FeedbackReport("ExecutionError", outcome.render())


def enhance(report: FeedbackReport, rules: Sequence[EnhancerRule],
            level: str = LEVEL_FULL) -> FeedbackReport:
    """Attach the first matching rule's texts, as permitted by the level."""
    if level not in LEVELS:
        raise ValueError(f"unknown feedback level {level!r}")
    if level == LEVEL_SYSTEM:
        return replace(report, explain=None, suggest=None)
    for rule in rules:
        if rule.keyword in report.system_message:
            explain = rule.explain
            suggest = rule.suggest if level == LEVEL_FULL else None
            return replace(report, explain=explain, suggest=suggest)
    return replace(report, explain=None, suggest=None)


def render(report: FeedbackReport) -> str:
    """Stable text form: system line, then optional Explanation and
    Suggestion lines."""
    lines = [f"{_KIND_LABELS[report.kind]}: {report.system_message}"]
    if report.explain is not None:
        lines.append(f"Explanation: {report.explain}")
    if report.suggest is not None:
        lines.append(f"Suggestion: {report.suggest}")
    return "\n".join(lines)


def load_rules(path: Union[str, Path]) -> list[EnhancerRule]:
    """The rules in a YAML file.

    Raises OSError when the file cannot be read, and ValueError when it
    is not UTF-8, not YAML, or not a list of rules.
    """
    data = load_yaml(path)
    if not isinstance(data, list):
        raise ValueError("expected a list of rules")
    rules = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or not entry.get("keyword"):
            raise ValueError(f"rule {i} needs a nonempty keyword")
        unknown = set(entry) - {"keyword", "explain", "suggest"}
        if unknown:
            raise ValueError(f"rule {i} has unknown fields {sorted(unknown)}")
        rules.append(EnhancerRule(entry["keyword"], entry.get("explain"),
                                  entry.get("suggest")))
    return rules


@functools.cache
def default_rules() -> tuple[EnhancerRule, ...]:
    """The bundled rules, read on the first call only."""
    from .evaluator import corpus_path

    return tuple(load_rules(corpus_path("feedback_rules.cfg")))
