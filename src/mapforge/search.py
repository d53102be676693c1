"""Online mapper optimization: propose, evaluate, feed back, repeat.

Each iteration a strategy proposes a candidate mapper from the full
history (prior candidates, scores, and rendered feedback texts) and the
decision-dimension domains.  The candidate is evaluated; the outcome is
classified and enhanced at the configured feedback level and appended to
the history.  Failures never stop a run: an erroring candidate is
recorded with its feedback and no score.

Evaluation has two steps, and they are the only evaluation path: the
search loop, ``mapforge check``/``simulate``, the ``optimize --baseline``
expert and the scripts all go through them.  ``compile_program`` parses
and validates a text; ``simulate_program`` resolves a compiled program
to a decision table and simulates it.  ``evaluate_program`` is the two
steps plus classification into system feedback.

Built-in strategies: ``random`` (uniform over every dimension),
``hillclimb`` (mutate one dimension of the best candidate, with random
restarts after a stall; both read from the records' ``best_so_far``),
``exhaustive`` (lexicographic enumeration), and ``external`` (an
optimizer behind the adapter wire protocol).  All built-ins are
deterministic given (history, seed).

A run evaluates each distinct program text once; a repeated text reuses
the system feedback and score of its first evaluation.  Likewise a run
turns each distinct choices vector into text once: a repeated vector
reuses its printed text, or the compile error its table raised.  A new
text reuses, through one ``simulator.SimMemo`` per run, each task's
point assignment and the exchange link totals that an earlier text with
the same inputs computed.  And through one ``parser.CompileMemo`` per
run, a new text reuses each statement that an earlier text had on the
same lines at the same line numbers, parsed, and what the validator
found in it alone.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .adapter import AdapterClient, AdapterError, build_request, parse_response
from .ast import Diagnostic, MapperProgram
from .binder import (
    DecisionDimension, decision_dimensions, emit, resolve, table_from_choices,
)
from .configs import ApplicationDescriptor, CostParams
from .feedback import (
    LEVEL_FULL, EnhancerRule, FeedbackReport, classify, enhance, render,
)
from .machine import MachineModel
from .parser import CompileMemo, parse
from .printer import print_program
from .simulator import MappingError, SimMemo, SimResult, simulate
from .validator import validate

DEFAULT_BUDGET = 10
DEFAULT_SEEDS = 5
STALL_LIMIT = 12


@dataclass(frozen=True)
class ObjectiveSpec:
    budget: int = DEFAULT_BUDGET


@dataclass
class Candidate:
    program_text: str
    choices: Optional[tuple] = None  # one option per decision dimension


@dataclass
class IterationRecord:
    index: int
    candidate: Candidate
    feedback: FeedbackReport
    rendered_feedback: str
    score: Optional[float]
    best_so_far: Optional[float]


@dataclass
class Trajectory:
    strategy: str
    seed: int
    app: str
    machine: str
    records: list[IterationRecord] = field(default_factory=list)
    best_candidate: Optional[Candidate] = None

    @property
    def best_score(self) -> Optional[float]:
        return self.records[-1].best_so_far if self.records else None


# A strategy maps (history, dims, seed) to a proposal:
#   {"choices": [...]} or {"program": dsl_text}
Strategy = Callable[[Sequence[IterationRecord], Sequence[DecisionDimension], int], dict]


def _rng(seed: int, iteration: int) -> random.Random:
    return random.Random(seed * 1_000_003 + iteration)


# --------------------------------------------------------------------------
# Built-in strategies
# --------------------------------------------------------------------------


def random_agent(history, dims, seed: int) -> dict:
    rng = _rng(seed, len(history))
    return {"choices": [rng.choice(dim.options) for dim in dims]}


def _best_index(history) -> int:
    """The index of the record that set the run's best score, or -1 before
    any success: ``best_so_far`` changes only at the record that sets it."""
    i = len(history) - 1
    best = history[i].best_so_far if history else None
    if best is None:
        return -1
    # ``in`` compares identity first, so a NaN best matches itself.
    while i > 0 and history[i - 1].best_so_far in (best,):
        i -= 1
    return i


def hill_climb(history, dims, seed: int) -> dict:
    rng = _rng(seed, len(history))
    best = _best_index(history)
    base = history[best].candidate.choices if best >= 0 else None
    stalls = len(history) - 1 - best
    if base is None or (stalls > 0 and stalls % STALL_LIMIT == 0):
        return {"choices": [rng.choice(dim.options) for dim in dims]}
    choices = list(base)
    dim_index = rng.randrange(len(dims))
    options = dims[dim_index].options
    if len(options) > 1:
        alternatives = [o for o in options if o != choices[dim_index]]
        choices[dim_index] = rng.choice(alternatives)
    return {"choices": choices}


def exhaustive(history, dims, seed: int) -> dict:
    total = math.prod(len(d.options) for d in dims)
    index = len(history) % total
    choices = [None] * len(dims)
    for k in reversed(range(len(dims))):
        options = dims[k].options
        index, pick = divmod(index, len(options))
        choices[k] = options[pick]
    return {"choices": choices}


def external_strategy(client: AdapterClient, app_name: str,
                      machine_name: str) -> Strategy:
    """Wrap an adapter endpoint as a strategy; protocol errors surface as
    AdapterError and are recorded as failed iterations.  Each request
    carries only the records the adapter does not hold yet."""

    def propose(history, dims, seed: int) -> dict:
        start = client.held
        if start > len(history):  # a new run on the same client
            start = 0
        wire_history = [{
            "iteration": record.index,
            "choices": _wire_choices(record.candidate.choices, dims),
            "program": record.candidate.program_text,
            "feedback": record.rendered_feedback,
            "score": record.score,
            "best_so_far": record.best_so_far,
        } for record in history[start:]]
        i = _best_index(history)
        best = None
        if i >= 0:
            record = history[i]
            best = {"score": record.score,
                    "choices": _wire_choices(record.candidate.choices, dims),
                    "program": record.candidate.program_text}
        request = build_request(app_name, machine_name, dims, wire_history,
                                best, start)
        try:
            return parse_response(client.propose(request), dims)
        except AdapterError:
            client.forget()
            raise

    return propose


def _wire_choices(choices, dims) -> Optional[list[int]]:
    if choices is None:
        return None
    indexes = []
    for choice, dim in zip(choices, dims):
        try:
            indexes.append(dim.options.index(choice))
        except ValueError:
            return None
    return indexes


STRATEGIES = {
    "random": random_agent,
    "hillclimb": hill_climb,
    "exhaustive": exhaustive,
}


# --------------------------------------------------------------------------
# The optimization loop
# --------------------------------------------------------------------------


def compile_program(text: str, memo: Optional[CompileMemo] = None,
                    ) -> Union[MapperProgram, list[Diagnostic]]:
    """The compile step: parse and validate one program text.  Returns
    the program, or the diagnostics of the first stage that fails.  A
    memo, kept for one run, reuses the statements of earlier texts."""
    memo = CompileMemo() if memo is None else memo
    program = parse(text, memo)
    if isinstance(program, list):
        return program
    return validate(program, memo) or program


def simulate_program(program: MapperProgram, app: ApplicationDescriptor,
                     machine: MachineModel, costs: CostParams,
                     memo: Optional[SimMemo] = None,
                     ) -> Union[list[Diagnostic],
                                tuple[Optional[SimResult], FeedbackReport]]:
    """The run step: resolve a compiled program and simulate it.  Returns
    the resolve diagnostics, or the result (None on failure) and its
    system-level feedback."""
    table = resolve(program, app, machine)
    if isinstance(table, list):
        return table
    outcome = simulate(app, table, machine, costs, memo)
    return (outcome if isinstance(outcome, SimResult) else None,
            classify(outcome, app.metric))


def evaluate_program(text: str, app: ApplicationDescriptor,
                     machine: MachineModel, costs: CostParams,
                     memo: Optional[SimMemo] = None,
                     compile_memo: Optional[CompileMemo] = None,
                     ) -> tuple[Union[SimResult, None], FeedbackReport]:
    """Compile, resolve, and simulate one candidate program; returns the
    result (None on failure) and its system-level feedback.

    Any exception that escapes a step is that step's failure, with the
    exception's text as the message: a CompileError from the compile
    step, an ExecutionError from the run step.
    """
    try:
        program = compile_program(text, compile_memo)
    except Exception as exc:
        program = [Diagnostic("error", 1, 1, _escaped(exc))]
    if isinstance(program, list):
        return None, classify(program, app.metric)
    try:
        outcome = simulate_program(program, app, machine, costs, memo)
    except Exception as exc:
        return None, classify(MappingError(_escaped(exc)), app.metric)
    if isinstance(outcome, list):
        return None, classify(outcome, app.metric)
    return outcome


def _escaped(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run(app: ApplicationDescriptor, machine: MachineModel, costs: CostParams,
        strategy: Union[str, Strategy], objective: ObjectiveSpec,
        feedback_level: str = LEVEL_FULL, seed: int = 0,
        rules: Optional[Sequence[EnhancerRule]] = None) -> Trajectory:
    """One seeded optimization run of ``objective.budget`` iterations."""
    from .feedback import default_rules

    if isinstance(strategy, str):
        strategy_name = strategy
        strategy_fn = STRATEGIES[strategy]
    else:
        strategy_name = getattr(strategy, "__name__", "custom")
        strategy_fn = strategy
    if rules is None:
        rules = default_rules()
    dims = decision_dimensions(app)
    trajectory = Trajectory(strategy_name, seed, app.name, machine.name)
    best_score: Optional[float] = None
    # Compiling and evaluating are deterministic, so a repeated choices
    # vector reuses its text, a repeated text its outcome, and a new text
    # the compiler's and the simulator's work for the parts it shares
    # with earlier ones.
    printed: dict[tuple, Union[str, FeedbackReport]] = {}
    evaluated: dict[str, FeedbackReport] = {}
    memo = SimMemo()
    compile_memo = CompileMemo()

    for iteration in range(objective.budget):
        candidate, failure = _propose(strategy_fn, trajectory.records, dims,
                                      seed, app, printed)
        report = failure
        if report is None:
            text = candidate.program_text
            if text not in evaluated:
                evaluated[text] = evaluate_program(text, app, machine, costs,
                                                   memo, compile_memo)[1]
            report = evaluated[text]
        score = report.score
        report = enhance(report, rules, feedback_level)
        if score is not None and (best_score is None or score > best_score):
            best_score = score
            trajectory.best_candidate = candidate
        trajectory.records.append(IterationRecord(
            index=iteration,
            candidate=candidate,
            feedback=report,
            rendered_feedback=render(report),
            score=score,
            best_so_far=best_score,
        ))
    return trajectory


def _propose(strategy_fn, history, dims, seed, app, printed,
             ) -> tuple[Candidate, Optional[FeedbackReport]]:
    """The candidate a strategy proposes, and the compile error that ends
    it before evaluation, if any: an adapter error, a proposal of neither
    form, or a choices vector that gives no program."""
    try:
        proposal = strategy_fn(history, dims, seed)
    except AdapterError as exc:
        return Candidate(program_text=""), FeedbackReport("CompileError", str(exc))
    try:
        if "choices" not in proposal:
            text = proposal["program"]
            if not isinstance(text, str):
                raise TypeError(f"program must be a string, not {type(text).__name__}")
            return Candidate(program_text=text), None
        choices = tuple(proposal["choices"])
    except Exception as exc:
        return Candidate(program_text=""), FeedbackReport("CompileError", _escaped(exc))
    try:
        outcome = printed[choices]
    except KeyError:
        outcome = printed[choices] = _print_choices(app, choices, dims)
    except TypeError:  # an unhashable option: the vector cannot key the memo
        outcome = _print_choices(app, choices, dims)
    if isinstance(outcome, FeedbackReport):
        return Candidate(program_text="", choices=choices), outcome
    return Candidate(program_text=outcome, choices=choices), None


def _print_choices(app, choices, dims) -> Union[str, FeedbackReport]:
    """The program text of one choices vector, or the compile error that
    building, emitting or printing its table raised: the message of a
    ValueError (the binder's own errors), ``TypeName: text`` of any other
    exception."""
    try:
        return print_program(emit(table_from_choices(app, choices, dims), app))
    except ValueError as exc:
        return FeedbackReport("CompileError", str(exc))
    except Exception as exc:
        return FeedbackReport("CompileError", _escaped(exc))


# --------------------------------------------------------------------------
# Aggregation and trajectory output
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    iteration: int
    mean_normalized_best: float


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[AggregateRow, ...]
    best_seed: int
    best_score: float
    best_normalized: float
    best_program: str


def aggregate(trajectories: Sequence[Trajectory],
              baseline_score: float) -> AggregateReport:
    """Per-iteration mean of normalized best-so-far across seeds, plus the
    single best mapper found.  Iterations with no success yet count as 0."""
    if not trajectories:
        raise ValueError("aggregate needs at least one trajectory")
    if baseline_score <= 0:
        raise ValueError("baseline score must be positive")
    budget = max(len(t.records) for t in trajectories)
    rows = []
    for i in range(budget):
        values = []
        for t in trajectories:
            best = t.records[i].best_so_far if i < len(t.records) else t.best_score
            values.append((best or 0.0) / baseline_score)
        rows.append(AggregateRow(i, sum(values) / len(values)))
    best_t = max(trajectories,
                 key=lambda t: (t.best_score is not None, t.best_score or 0.0))
    best_score = best_t.best_score or 0.0
    return AggregateReport(
        rows=tuple(rows),
        best_seed=best_t.seed,
        best_score=best_score,
        best_normalized=best_score / baseline_score,
        best_program=(best_t.best_candidate.program_text
                      if best_t.best_candidate else ""),
    )


def write_csv(trajectories: Sequence[Trajectory], path: Union[str, Path],
              baseline_score: Optional[float] = None) -> None:
    """Trajectory CSV: one row per (seed, iteration)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "iteration", "score", "best_so_far",
                         "normalized", "feedback_kind"])
        for t in trajectories:
            for record in t.records:
                normalized = ""
                if baseline_score and record.best_so_far is not None:
                    normalized = repr(record.best_so_far / baseline_score)
                writer.writerow([
                    t.seed, record.index,
                    "" if record.score is None else repr(record.score),
                    "" if record.best_so_far is None else repr(record.best_so_far),
                    normalized,
                    record.feedback.kind,
                ])
