import collections
import functools
import itertools
import json
import math
import re
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from scipy import stats

from mapforge import search, simulator
from mapforge.binder import DecisionDimension, decision_dimensions, table_from_choices
from mapforge.feedback import (
    LEVEL_FULL, LEVEL_SYSTEM, FeedbackReport, default_rules, enhance, render,
)
from mapforge.search import (
    Candidate, IterationRecord, ObjectiveSpec, Trajectory, aggregate,
    compile_program, evaluate_program, exhaustive, external_strategy, hill_climb,
    random_agent, run, write_csv,
)
from mapforge.printer import print_program
from mapforge.simulator import simulate

from conftest import APP_NAMES, corpus_dsl_files, expert_source, load_app_named
from mapforge.ast import Diagnostic
from mapforge.parser import CompileMemo, parse, parse_valid
from mapforge.binder import resolve
from mapforge.validator import MAX_CALL_DEPTH


def fake_record(index, choices, score, best):
    return IterationRecord(
        index, Candidate("", tuple(choices) if choices is not None else None),
        FeedbackReport("PerformanceMetric" if score is not None else "CompileError",
                       "x", score=score),
        "x", score, best)


def dims_of(*option_lists):
    return [DecisionDimension(("d", i), tuple(opts))
            for i, opts in enumerate(option_lists)]


# -- run loop -----------------------------------------------------------------


def test_budget_is_respected(machine, costs):
    app = load_app_named("toy16")
    trajectory = run(app, machine, costs, "random", ObjectiveSpec(budget=10),
                     seed=0)
    assert len(trajectory.records) == 10
    assert [r.index for r in trajectory.records] == list(range(10))


def test_best_so_far_is_monotone(machine, costs):
    app = load_app_named("toy256")
    trajectory = run(app, machine, costs, "random", ObjectiveSpec(budget=30),
                     seed=3)
    best = None
    for record in trajectory.records:
        if record.best_so_far is not None and best is not None:
            assert record.best_so_far >= best
        best = record.best_so_far


def test_failing_candidate_is_isolated(machine, costs):
    app = load_app_named("toy16")

    def broken(history, dims, seed):
        if len(history) == 1:
            return {"program": "def f(Task t): return 1;"}
        return random_agent(history, dims, seed)

    trajectory = run(app, machine, costs, broken, ObjectiveSpec(budget=4), seed=0)
    assert len(trajectory.records) == 4
    failed = trajectory.records[1]
    assert failed.feedback.kind == "CompileError"
    assert failed.score is None
    assert "Syntax error, unexpected :" in failed.rendered_feedback
    assert failed.best_so_far == trajectory.records[0].best_so_far


def test_seeded_runs_are_reproducible(machine, costs):
    app = load_app_named("toy256")
    a = run(app, machine, costs, "random", ObjectiveSpec(budget=8), seed=7)
    b = run(app, machine, costs, "random", ObjectiveSpec(budget=8), seed=7)
    assert [r.candidate.program_text for r in a.records] == \
        [r.candidate.program_text for r in b.records]
    assert [r.score for r in a.records] == [r.score for r in b.records]


def test_system_level_never_renders_suggestions(machine, costs):
    app = load_app_named("toy256")
    trajectory = run(app, machine, costs, "random", ObjectiveSpec(budget=10),
                     feedback_level=LEVEL_SYSTEM, seed=0)
    for record in trajectory.records:
        assert "Suggestion:" not in record.rendered_feedback
        assert "Explanation:" not in record.rendered_feedback


def test_ties_keep_the_earlier_candidate(machine, costs):
    app = load_app_named("toy16")

    def constant(history, dims, seed):
        return {"choices": ["GPU", "GPU", "CPU", "CPU"]}

    trajectory = run(app, machine, costs, constant, ObjectiveSpec(budget=3),
                     seed=0)
    assert trajectory.best_candidate is trajectory.records[0].candidate


# -- strategies ---------------------------------------------------------------


def test_random_agent_is_deterministic_per_iteration():
    dims = dims_of(["a", "b"], [1, 2, 3])
    first = random_agent([], dims, seed=5)
    again = random_agent([], dims, seed=5)
    assert first == again
    assert random_agent([], dims, seed=6) != first or True  # seeds may collide


def test_random_agent_single_option_dimension():
    dims = dims_of(["only"])
    for i in range(5):
        history = [fake_record(j, ("only",), 1.0, 1.0) for j in range(i)]
        assert random_agent(history, dims, seed=0) == {"choices": ["only"]}


def test_random_agent_uniformity_chi_square():
    dims = dims_of(["a", "b"], ["x", "y", "z", "w"])
    counts = {0: {}, 1: {}}
    for i in range(1000):
        history = [None] * i  # only the length feeds the seed
        proposal = random_agent(history, dims, seed=11)
        for d, choice in enumerate(proposal["choices"]):
            counts[d][choice] = counts[d].get(choice, 0) + 1
    for d, dim in enumerate(dims):
        observed = [counts[d].get(o, 0) for o in dim.options]
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.001, (d, observed)


def test_exhaustive_enumerates_in_lexicographic_order():
    dims = dims_of(["a", "b"], [0, 1, 2])
    seen = []
    for i in range(6):
        history = [None] * i
        seen.append(tuple(exhaustive(history, dims, seed=0)["choices"]))
    assert seen == list(itertools.product(("a", "b"), (0, 1, 2)))


def test_exhaustive_on_toy16_matches_brute_force(machine, costs):
    app = load_app_named("toy16")
    dims = decision_dimensions(app)
    total = math.prod(len(d.options) for d in dims)
    assert total == 16

    # Independent oracle: enumerate every choice tuple directly and
    # simulate without going through the search loop or the DSL.
    best_oracle = None
    oracle_argmax = set()
    for choices in itertools.product(*(d.options for d in dims)):
        result = simulate(app, table_from_choices(app, list(choices)),
                          machine, costs)
        score = result.throughput
        if best_oracle is None or score > best_oracle + 1e-12:
            best_oracle = score
            oracle_argmax = {choices}
        elif abs(score - best_oracle) <= 1e-12:
            oracle_argmax.add(choices)

    trajectory = run(app, machine, costs, "exhaustive",
                     ObjectiveSpec(budget=total), seed=0)
    assert trajectory.best_score == pytest.approx(best_oracle)
    assert tuple(trajectory.best_candidate.choices) in oracle_argmax


def test_hill_climb_mutates_one_dimension():
    dims = dims_of(["a", "b"], ["x", "y"], [0, 1, 2])
    history = [fake_record(0, ("a", "x", 0), 5.0, 5.0)]
    proposal = hill_climb(history, dims, seed=3)
    diffs = sum(1 for c, base in zip(proposal["choices"], ("a", "x", 0))
                if c != base)
    assert diffs == 1


def test_hill_climb_all_singleton_domains_stall_into_restart():
    dims = dims_of(["only"], ["one"])
    history = [fake_record(0, ("only", "one"), 1.0, 1.0)]
    for i in range(1, 30):
        proposal = hill_climb(history, dims, seed=0)
        assert proposal == {"choices": ["only", "one"]}
        history.append(fake_record(i, ("only", "one"), 1.0, 1.0))


def test_hill_climb_solves_separable_objective():
    # score = number of dimensions set to the designated good option;
    # reaching the optimum must take at most dims * STALL_LIMIT steps.
    n_dims = 8
    dims = dims_of(*[["good", "bad1", "bad2"]] * n_dims)

    def score_of(choices):
        return float(sum(1 for c in choices if c == "good"))

    for seed in range(5):
        history = []
        best = None
        budget = n_dims * 12
        for i in range(budget):
            choices = tuple(hill_climb(history, dims, seed)["choices"])
            score = score_of(choices)
            best = score if best is None else max(best, score)
            history.append(fake_record(i, choices, score, best))
            if best == n_dims:
                break
        assert best == n_dims, f"seed {seed} stuck at {best}"


def test_hill_climb_reaches_near_optimum_on_reduced_space(machine, costs):
    app = load_app_named("toy256")
    exhaust = run(app, machine, costs, "exhaustive", ObjectiveSpec(budget=256),
                  seed=0)
    optimum = exhaust.best_score
    hits = 0
    for seed in range(10):
        t = run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=100),
                seed=seed)
        if t.best_score >= 0.95 * optimum:
            hits += 1
    assert hits >= 8


# -- the best record, read from best_so_far ----------------------------------------
#
# The full-history scans that hill climbing and the external strategy used
# before they read the best record from ``best_so_far``, kept here as the
# reference.


def reference_best_with_choices(history):
    best = None
    best_score = None
    for record in history:
        if record.score is None or record.candidate.choices is None:
            continue
        if best_score is None or record.score > best_score:
            best, best_score = record.candidate, record.score
    return best


def reference_stall_length(history):
    last_improve = -1
    for i, record in enumerate(history):
        if i == 0 and record.best_so_far is not None:
            last_improve = 0
        elif record.best_so_far is not None and (
                history[i - 1].best_so_far is None
                or record.best_so_far > history[i - 1].best_so_far):
            last_improve = i
    return len(history) - 1 - last_improve


def reference_hill_climb(history, dims, seed):
    rng = search._rng(seed, len(history))
    base = reference_best_with_choices(history)
    stalls = reference_stall_length(history) if history else 0
    if base is None or (stalls > 0 and stalls % search.STALL_LIMIT == 0):
        return {"choices": [rng.choice(dim.options) for dim in dims]}
    choices = list(base.choices)
    dim_index = rng.randrange(len(dims))
    options = dims[dim_index].options
    if len(options) > 1:
        alternatives = [o for o in options if o != choices[dim_index]]
        choices[dim_index] = rng.choice(alternatives)
    return {"choices": choices}


def reference_external_request(history, dims):
    """The wire history and the ``best_so_far`` entry of a request."""
    wire_history = []
    best = None
    for record in history:
        entry = {
            "iteration": record.index,
            "choices": search._wire_choices(record.candidate.choices, dims),
            "program": record.candidate.program_text,
            "feedback": record.rendered_feedback,
            "score": record.score,
            "best_so_far": record.best_so_far,
        }
        wire_history.append(entry)
        if record.score is not None and (
                best is None or record.score > best["score"]):
            best = {"score": record.score,
                    "choices": entry["choices"],
                    "program": record.candidate.program_text}
    return wire_history, best


def history_of(entries):
    """Records of (choices, score) pairs, with ``best_so_far`` the running
    maximum as ``search.run`` keeps it."""
    history, best = [], None
    for i, (choices, score) in enumerate(entries):
        if score is not None and (best is None or score > best):
            best = score
        kind = "CompileError" if score is None else "PerformanceMetric"
        history.append(IterationRecord(i, Candidate(f"program {i}", choices),
                                       FeedbackReport(kind, "x", score=score),
                                       "x", score, best))
    return history


BEST_DIMS = dims_of(["a", "b", "c"], [0, 1], ["x"])
# Ties, failures and a NaN, each drawn as the same object every time.
SCORES = (None, None, 1.0, 2.0, 3.0, float("nan"))
ENTRIES = st.lists(st.tuples(
    st.none() | st.tuples(*(st.sampled_from(d.options) for d in BEST_DIMS)),
    st.sampled_from(SCORES)), max_size=60)


class RecordingClient:
    """Keeps the deltas of successive requests, as an adapter would."""

    def __init__(self):
        self.held = 0
        self.deltas = []

    def propose(self, request):
        assert request["history_start"] == self.held
        self.request = request
        self.deltas.append(request["history"])
        self.held = request["iteration"]
        return json.dumps({"vector": [0] * len(request["domains"])})


@settings(max_examples=300, deadline=None)
@given(ENTRIES, st.integers(0, 3))
@example([(("a", 0, "x"), None)] * 30, 0)
@example([(("a", 0, "x"), 1.0)] + [(("b", 1, "x"), 1.0)] * 40, 1)
def test_best_record_matches_the_full_scan_reference(entries, seed):
    # Hill climbing proposes only vectors, so every record has choices.
    history = history_of([(choices or ("a", 0, "x"), score)
                          for choices, score in entries])
    assert (hill_climb(history, BEST_DIMS, seed)
            == reference_hill_climb(history, BEST_DIMS, seed))
    # A mixed history, as an external optimizer makes it, proposed from
    # one prefix after another on one client.
    history = history_of(entries)
    client = RecordingClient()
    strategy = external_strategy(client, "app", "machine")
    for i in range(len(history) + 1):
        strategy(history[:i], BEST_DIMS, seed)
        wire_history, best = reference_external_request(history[:i], BEST_DIMS)
        assert client.request["best_so_far"] == best
        assert client.request["iteration"] == i
    assert [entry for delta in client.deltas for entry in delta] == wire_history
    if best is not None and best["choices"] is None:
        # The best record is a program: hill climbing restarts at random.
        assert (hill_climb(history, BEST_DIMS, seed)
                == random_agent(history, BEST_DIMS, seed))


# -- aggregation -----------------------------------------------------------------


def make_trajectory(seed, bests):
    records = [fake_record(i, None, b, b) for i, b in enumerate(bests)]
    t = Trajectory("x", seed, "app", "machine", records)
    t.best_candidate = Candidate("Task * GPU;\n")
    return t


def test_aggregate_normalizes_against_baseline():
    t1 = make_trajectory(0, [1.0, 2.0, 4.0])
    t2 = make_trajectory(1, [3.0, 3.0, 3.0])
    report = aggregate([t1, t2], baseline_score=2.0)
    assert [row.mean_normalized_best for row in report.rows] == [
        pytest.approx((0.5 + 1.5) / 2),
        pytest.approx((1.0 + 1.5) / 2),
        pytest.approx((2.0 + 1.5) / 2)]
    assert report.best_score == 4.0
    assert report.best_normalized == 2.0
    assert report.best_seed == 0


def test_baseline_equal_to_best_normalizes_to_one():
    t = make_trajectory(0, [5.0])
    report = aggregate([t], baseline_score=5.0)
    assert report.best_normalized == 1.0


def test_expert_as_single_iteration_trajectory(machine, costs):
    app = load_app_named("circuit")
    program = parse_valid(expert_source("circuit"))
    table = resolve(program, app, machine)
    expert_score = simulate(app, table, machine, costs).throughput

    def expert_strategy(history, dims, seed):
        return {"program": expert_source("circuit")}

    trajectory = run(app, machine, costs, expert_strategy,
                     ObjectiveSpec(budget=1), seed=0)
    report = aggregate([trajectory], baseline_score=expert_score)
    assert report.best_normalized == pytest.approx(1.0)


def test_aggregate_rejects_bad_baseline():
    with pytest.raises(ValueError):
        aggregate([make_trajectory(0, [1.0])], baseline_score=0.0)


def test_failed_iterations_count_as_zero_in_mean():
    records = [fake_record(0, None, None, None),
               fake_record(1, None, 2.0, 2.0)]
    t = Trajectory("x", 0, "app", "machine", records)
    report = aggregate([t], baseline_score=1.0)
    assert report.rows[0].mean_normalized_best == 0.0
    assert report.rows[1].mean_normalized_best == 2.0


def test_csv_layout(tmp_path, machine, costs):
    app = load_app_named("toy16")
    trajectories = [run(app, machine, costs, "random", ObjectiveSpec(budget=4),
                        seed=s) for s in range(2)]
    out = tmp_path / "t.csv"
    write_csv(trajectories, out, baseline_score=1.0)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,iteration,score,best_so_far,normalized,feedback_kind"
    assert len(lines) == 1 + 2 * 4


def test_evaluate_program_compile_failure(machine, costs):
    app = load_app_named("toy16")
    result, report = evaluate_program("Task ;", app, machine, costs)
    assert result is None
    assert report.kind == "CompileError"


# -- deeply nested text ---------------------------------------------------------

DEEP_HEAD = "Task * GPU;\nRegion * * * FBMEM;\nm = Machine(GPU);\n"


def nested_program(depth):
    return DEEP_HEAD + "x = " + "(" * depth + "1" + ")" * depth + ";\n"


@pytest.mark.parametrize("depth", [141, 3000])
def test_deep_nesting_is_a_compile_error(depth, machine, costs):
    app = load_app_named("circuit")
    result, report = evaluate_program(nested_program(depth), app, machine, costs)
    assert result is None
    assert report.kind == "CompileError"
    assert "nested more than" in report.system_message


@pytest.mark.parametrize("depth", [141, 3000])
def test_deep_nesting_does_not_end_a_run(depth, machine, costs):
    app = load_app_named("circuit")

    def deep(history, dims, seed):
        return {"program": nested_program(depth)}

    trajectory = run(app, machine, costs, deep, ObjectiveSpec(budget=2))
    assert [r.feedback.kind for r in trajectory.records] == ["CompileError"] * 2


def test_nesting_at_the_limit_evaluates(machine, costs):
    # Every pass over the tree (validate, resolve, print, interpret)
    # handles the deepest text the parser accepts.
    from mapforge.parser import MAX_NESTING

    app = load_app_named("circuit")
    depth = MAX_NESTING - 1
    bodies = [
        "(" * depth + "i" + ")" * depth,
        "i" + " + 0" * depth,
        "1 ? " * depth + "i" + " : 0" * depth,
    ]
    for body in bodies:
        text = (DEEP_HEAD + "def f(Task t) { i = t.ipoint[0]; x = " + body + "; "
                "return m[x % 2, 0]; }\nIndexTaskMap calculate_new_currents f;\n")
        result, report = evaluate_program(text, app, machine, costs)
        assert report.kind == "PerformanceMetric", report


# -- failures at ever earlier points ---------------------------------------------


def staggered_failures(statements, points):
    # Statement k fails only at point ``points - 1 - k``: each shorter
    # prefix of the points first fails one statement later.
    body = " ".join(f"a{k} = (0, 1)[ipoint[0] == {points - 1 - k} ? 2 : 0];"
                    for k in range(statements))
    return (DEEP_HEAD + f"def f(Task t) {{ ipoint = t.ipoint; {body} "
            "return m[0, 0]; }\nIndexTaskMap work f;\n")


def test_staggered_failures_are_an_execution_error(machine, costs):
    from mapforge.configs import (
        ApplicationDescriptor, RegionSpec, TaskArg, TaskSpec, VariantSpec,
    )
    from mapforge.evaluator import build_env, eval_launch

    task = TaskSpec("work", "index", (1200,), 1e6, (VariantSpec("GPU"),),
                    (TaskArg("r", 1e3),), ("GPU",))
    app = ApplicationDescriptor("one", "time", 1,
                                (RegionSpec("r", 8, 1e6, (("FBMEM",),)),),
                                (task,), ())
    text = staggered_failures(1100, 1200)
    start = time.perf_counter()
    result, report = evaluate_program(text, app, machine, costs)
    assert time.perf_counter() - start < 1.0
    assert result is None
    assert report.kind == "ExecutionError"
    assert report.system_message == "tuple index 2 out of range for length 2"

    # Points 0..99 map; point 100 is the first to fail (at the last statement).
    program = parse_valid(text)
    procs, error = eval_launch(program.functions["f"], "work", (1200,),
                               build_env(program, machine))
    assert procs.tolist() == [[0, 0]] * 100
    assert str(error) == "tuple index 2 out of range for length 2"


# -- totality on edited corpus text ---------------------------------------------

# What an edit puts in: symbols, words, non-ASCII letters and digits, long
# literals and deep parentheses; None copies another token of the text.
EDIT_PIECES = tuple(";,(){}[].?:=<>+-*/%#") + (
    "==", "!=", "<=", ">=", "\n", "", None, "0", "1", "7", "x", "CPU", "GPU",
    "ZCMEM", "def", "\u00b2", "\u00e9", "\u0661\u0662", "9" * 999, "9" * 5000,
    "(" * 150, ")" * 150)


@functools.cache
def app_for(path):
    name = path.stem.split("_")[0]
    return load_app_named(name if name in APP_NAMES else "circuit")


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(corpus_dsl_files()),
       edits=st.lists(st.tuples(st.sampled_from(("char", "token", "number")),
                                st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                st.sampled_from(EDIT_PIECES)),
                      min_size=1, max_size=4))
def test_evaluation_is_total_on_edited_corpus(path, edits, machine, costs):
    text = path.read_text()
    for kind, at, other, piece in edits:
        spans = [m.span() for m in re.finditer(r"\w+|\S", text)] or [(0, 0)]
        numbers = [m.span() for m in re.finditer(r"\b[0-9]+\b", text)] or spans
        if kind == "char":
            start = at % (len(text) + 1)
            end = start + other % 3
        else:
            chosen = spans if kind == "token" else numbers
            start, end = chosen[at % len(chosen)]
        if piece is None:
            a, b = spans[other % len(spans)]
            piece = text[a:b]
        text = text[:start] + piece + text[end:]
    begin = time.perf_counter()
    result, report = evaluate_program(text, app_for(path), machine, costs)
    assert time.perf_counter() - begin < 5.0
    assert isinstance(report, FeedbackReport)


# -- one compile per distinct statement ------------------------------------------

# Whole lines an edit may insert: each breaks a check of the parser or the
# validator, or puts two statements, a comment or half a statement on a line.
EDIT_LINES = (
    "Task * GPU,GPU;", "Region * * * FBMEM,FBMEM;", "Layout * * * SOA AOS Align==3;",
    "InstanceLimit t 0;", "Task * GPU; Region * * * FBMEM;", "m = Machine(GPU); # m",
    "def f(Task t) { return f(t); }", "def g(Task t) { return block2D(t); }",
    "x = g(1, 2);", "def h(Task t) {", "return m[0, 0]; }", "IndexTaskMap a h;",
    "y = (1, 2)[0][1];", "z = m.split(0);", "Region * * *", "", "# note")


def edited(text, kind, at, other, piece):
    """``text`` with one edit: a character-level one as in the totality
    test above, or an inserted, copied or dropped line."""
    lines = text.split("\n")
    if kind == "char":
        start = at % (len(text) + 1)
        return text[:start] + (piece or "") + text[start + other % 3:]
    if kind == "line":
        lines.insert(at % (len(lines) + 1), EDIT_LINES[other % len(EDIT_LINES)])
    elif kind == "copy":
        lines.insert(at % (len(lines) + 1), lines[other % len(lines)])
    else:
        del lines[at % len(lines)]
    return "\n".join(lines)


def assert_memo_compiles_afresh(texts):
    memo = CompileMemo()
    for text in texts:
        assert repr(compile_program(text, memo)) == repr(compile_program(text))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(corpus_dsl_files()), st.booleans(),
    st.lists(st.tuples(st.sampled_from(("char", "line", "copy", "drop")),
                       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                       st.sampled_from(EDIT_PIECES)), max_size=3)),
    min_size=1, max_size=8))
def test_a_shared_compile_memo_compiles_as_a_fresh_one(steps):
    # Each text is the last one edited further, or a corpus file edited
    # afresh: the memo sees texts that share most of their lines.  The
    # program's repr holds every position, a diagnostic its line, column
    # and message.
    texts, text = [], None
    for path, restart, edits in steps:
        if restart or text is None:
            text = path.read_text()
        for edit in edits:
            text = edited(text, *edit)
        texts.append(text)
    assert_memo_compiles_afresh(texts)


@pytest.mark.parametrize("texts", [
    ["x = 1;\ny = 2;\n", "x = 1;\ny = 2 \u00e9;\n"],
    ["Task * GPU;\nRegion * * * FBMEM;\nx = 1;\n", "Task * GPU;\nRegion * * FBMEM;\nx = $;\n"],
    ["def f(Task t) {\n  x = 1;\n  return m[0, 0];\n}\n",
     "def f(Task t) {\n  x = 2;\n  return m[0, 0];\n}\n",
     "def f(Task t) {\n  x = 1;\n  return m[0, 0];\n\n}\n"],
    ["Task * GPU; Region * * * FBMEM;\n", "Task * GPU; Region * * * ZCMEM;\n",
     "Task * GPU;\n"],
    ["Task * GPU; # gpu\n", "Task * GPU;\n", "Task * GPU; # cpu\n"],
    ["Task * GPU;\nRegion * * * FBMEM;", "Task * GPU;\nRegion * * *", "Task * GPU;\nRegion"],
    ["def f(Task t) { return m[0, 0]; }\nx = 1;", "def f(Task t) {\n return m[0, 0]; }"],
    ["a = 1;\nb = 2;\n", "def f(Task t) {\nb = 2;\nreturn m[0, 0]; }\n"],
    ["m = Machine(GPU);\ndef f(Task t) { return m[0, 0]; }\nIndexTaskMap a f;",
     "k = Machine(GPU);\ndef f(Task t) { return m[0, 0]; }\nIndexTaskMap a f;"],
    ["def g(int a) { return a; }\nx = g(1);", "def g(int a, int b) { return a; }\nx = g(1);"],
    ["def f(Task t) { return g(t); }\ndef g(Task t) { return m[0, 0]; }",
     "def f(Task t) { return g(t); }\ndef g(Task t) { return f(t); }",
     "def f(Task t) { return g(t); }\ndef g(Task t) { return h(t); }\n"
     "def h(Task t) { return m[0, 0]; }"],
], ids=["bad_character_on_a_kept_line", "bad_character_after_a_syntax_error",
        "function_with_a_changed_line", "two_statements_on_one_line", "trailing_comment",
        "text_ending_mid_statement", "statement_spread_over_more_lines",
        "statement_running_into_a_kept_line",
        "kept_function_loses_its_binding", "kept_call_changes_arity",
        "kept_function_becomes_recursive_or_deep"])
def test_a_shared_compile_memo_compiles_targeted_texts_afresh(texts):
    assert_memo_compiles_afresh(texts)


def test_a_bad_character_is_reported_on_its_own_line():
    memo = CompileMemo()
    compile_program("x = 1;\ny = 2;\n", memo)
    assert compile_program("x = 1;\ny = 2 $;\n", memo) == [Diagnostic(
        "error", 2, 7, "Syntax error, unexpected character '$'")]


def test_a_run_parses_each_kept_statement_once(monkeypatch, machine, costs):
    from mapforge import parser
    from mapforge.evaluator import builtin_program

    app = load_app_named("cannon")
    builtin_program()  # parsed before the run
    parsed = collections.Counter()
    statement = parser._Parser._statement

    def counting(self):
        start = self.pos
        stmt = statement(self)
        parsed[tuple(self.tokens[start:self.pos])] += 1  # positions included
        return stmt

    monkeypatch.setattr(parser._Parser, "_statement", counting)
    trajectory = run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=60), seed=5)
    lines = sum(len(text.split("\n")) for text in
                {r.candidate.program_text for r in trajectory.records})
    # A printed text holds each statement on lines of its own, so the run
    # parses each (statement text, position) once: here 56 statements
    # for 420 lines of distinct texts.
    assert max(parsed.values()) == 1
    assert 0 < sum(parsed.values()) < lines / 3


# -- huge integers --------------------------------------------------------------


def squaring_program(times):
    body = " ".join(f"x{k} = x{k - 1} * x{k - 1};" for k in range(1, times + 1))
    return (DEEP_HEAD + f"def f(Task t) {{ x0 = 12345678901234567890; {body} "
            f"return m[x{times} % 2, 0]; }}\nIndexTaskMap calculate_new_currents f;\n")


def huge_index_program():
    # Five 999-digit factors: the index would have about 5000 digits.
    product = " * ".join(["9" * 999] * 5)
    return (DEEP_HEAD + f"def f(Task t) {{ y = {product}; "
            "return m[(0, 1)[y], 0]; }\nIndexTaskMap calculate_new_currents f;\n")


@pytest.mark.parametrize("text", [squaring_program(40), huge_index_program()],
                         ids=["squaring", "huge_index"])
def test_integer_overflow_is_an_execution_error(text, machine, costs):
    app = load_app_named("circuit")
    start = time.perf_counter()
    result, report = evaluate_program(text, app, machine, costs)
    assert time.perf_counter() - start < 1.0
    assert result is None
    assert report.kind == "ExecutionError"
    assert report.system_message == "integer overflow"


# -- deep call chains -----------------------------------------------------------


def chain_program(length):
    # g{k} calls g{k-1}: a chain of ``length`` nested calls below f.
    funcs = ["def g0(int a) { return a; }"]
    funcs += [f"def g{k}(int a) {{ return g{k - 1}(a); }}" for k in range(1, length)]
    return (DEEP_HEAD + "\n".join(funcs) + "\n"
            f"def f(Task t) {{ return m[g{length - 1}(t.ipoint[0]) % 2, 0]; }}\n"
            "IndexTaskMap calculate_new_currents f;\n")


def diamond_program(layers):
    # f{k} calls a{k} and b{k}, which both call f{k-1}: 2**layers paths.
    funcs = ["def f0(int x) { return x; }"]
    for k in range(1, layers + 1):
        funcs += [f"def a{k}(int x) {{ return f{k - 1}(x); }}",
                  f"def b{k}(int x) {{ return f{k - 1}(x + 1); }}",
                  f"def f{k}(int x) {{ return a{k}(x) + b{k}(x); }}"]
    return (DEEP_HEAD + "\n".join(funcs) + "\n"
            f"def f(Task t) {{ return m[f{layers}(t.ipoint[0]) % 2, 0]; }}\n"
            "IndexTaskMap calculate_new_currents f;\n")


DEEP_CALLS = {"chain1000": chain_program(1000), "diamond25": diamond_program(25)}


@pytest.mark.parametrize("name", sorted(DEEP_CALLS))
def test_deep_call_chain_is_a_compile_error(name, machine, costs):
    app = load_app_named("circuit")
    start = time.perf_counter()
    result, report = evaluate_program(DEEP_CALLS[name], app, machine, costs)
    assert time.perf_counter() - start < 2.0
    assert result is None
    assert report.kind == "CompileError"
    assert "calls deep" in report.system_message


@pytest.mark.parametrize("name", sorted(DEEP_CALLS))
def test_deep_call_chain_does_not_end_a_run(name, machine, costs):
    app = load_app_named("circuit")

    def deep(history, dims, seed):
        return {"program": DEEP_CALLS[name]}

    trajectory = run(app, machine, costs, deep, ObjectiveSpec(budget=2))
    assert [r.feedback.kind for r in trajectory.records] == ["CompileError"] * 2


def limit_shell(inner):
    # As many ``(0, e)[1]`` around ``inner`` as one statement allows: each
    # adds one nesting level and four interpreter frames, the most of any
    # construct.
    shell = inner
    while not isinstance(parse(f"x = (0, {shell})[1];"), list):
        shell = f"(0, {shell})[1]"
    return shell


def limit_chain(calls):
    funcs = [f"def h0(int a) {{ return {limit_shell('a')}; }}"]
    funcs += [f"def h{k}(int a) {{ return {limit_shell(f'h{k - 1}(a)')}; }}"
              for k in range(1, calls)]
    return (DEEP_HEAD + "\n".join(funcs) + "\n"
            f"def f(Task t) {{ x = {limit_shell(f'h{calls - 1}(t.ipoint[0])')}; "
            "return m[x % 2, 0]; }\n"
            "IndexTaskMap calculate_new_currents f;\n")


def test_calls_and_nesting_at_their_limits_evaluate(machine, costs):
    assert sys.getrecursionlimit() == 1000
    app = load_app_named("circuit")
    result, report = evaluate_program(limit_chain(MAX_CALL_DEPTH), app, machine, costs)
    assert report.kind == "PerformanceMetric", report
    result, report = evaluate_program(limit_chain(MAX_CALL_DEPTH + 1), app,
                                      machine, costs)
    assert report.system_message == (
        f"call chain from f is more than {MAX_CALL_DEPTH} calls deep")


# -- one evaluation per distinct text ---------------------------------------------


@pytest.mark.parametrize("name", ["circuit", "cannon"])
def test_run_matches_uncached_reference(name, machine, costs):
    app = load_app_named(name)
    trajectory = run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=80),
                     seed=5)
    texts = [r.candidate.program_text for r in trajectory.records]
    assert all(texts) and len(set(texts)) < len(texts)
    best = None
    for record in trajectory.records:
        result, report = evaluate_program(record.candidate.program_text, app,
                                          machine, costs)
        report = enhance(report, default_rules(), LEVEL_FULL)
        score = result.throughput if result is not None else None
        if score is not None and (best is None or score > best):
            best = score
        assert record.feedback == report
        assert record.rendered_feedback == render(report)
        assert record.score == score
        assert record.best_so_far == best


def test_each_distinct_text_is_evaluated_once_per_run(monkeypatch, machine, costs):
    app = load_app_named("circuit")
    evaluated = []

    def counting(text, *args):
        evaluated.append(text)
        return evaluate_program(text, *args)

    monkeypatch.setattr(search, "evaluate_program", counting)
    trajectory = run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=40),
                     seed=5)
    texts = [r.candidate.program_text for r in trajectory.records]
    assert sorted(evaluated) == sorted(set(texts))
    assert len(evaluated) < len(texts)
    run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=40), seed=5)
    assert len(evaluated) == 2 * len(set(texts))


# -- one simulation step per distinct input ---------------------------------------


@pytest.mark.parametrize("name", ["cannon", "solomonik"])
def test_simulator_work_is_done_once_per_distinct_input(name, monkeypatch,
                                                        machine, costs):
    app = load_app_named(name)
    calls = collections.Counter()
    memos = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    class RecordedMemo(simulator.SimMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    for attr in ("eval_launch", "_charge_exchange"):
        monkeypatch.setattr(simulator, attr, counting(getattr(simulator, attr)))
    monkeypatch.setattr(search, "SimMemo", RecordedMemo)
    trajectory = run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=100),
                     seed=3)
    (memo,) = memos
    texts = {r.candidate.program_text for r in trajectory.records}
    # A task key names a closure exactly when a mapping function maps it.
    assert calls["eval_launch"] == sum(key[3] is not None for key in memo.tasks)
    assert calls["_charge_exchange"] == len(memo.links) * len(app.exchanges)
    assert 0 < calls["eval_launch"] < len(texts)
    assert 0 < calls["_charge_exchange"] < len(texts)


# -- one text per distinct choices vector -----------------------------------------


def test_each_distinct_vector_is_printed_once_per_run(monkeypatch, machine, costs):
    app = load_app_named("circuit")
    printed = []

    def counting(program):
        printed.append(program)
        return print_program(program)

    monkeypatch.setattr(search, "print_program", counting)
    trajectory = run(app, machine, costs, "hillclimb", ObjectiveSpec(budget=60),
                     seed=5)
    vectors = [r.candidate.choices for r in trajectory.records]
    assert len(printed) == len(set(vectors)) < len(vectors)


def cycling(*vectors):
    """A strategy that proposes ``vectors`` in turn."""
    def propose(history, dims, seed):
        return {"choices": vectors[len(history) % len(vectors)]}
    return propose


def test_unknown_mapping_function_is_the_same_error_on_every_repeat(machine, costs):
    app = load_app_named("cannon")
    dims = decision_dimensions(app)
    choices = [dim.options[0] for dim in dims]
    choices[[dim.dim_id[0] for dim in dims].index("imap")] = "no_such_map"
    trajectory = run(app, machine, costs, cycling(choices), ObjectiveSpec(budget=4))
    for record in trajectory.records:
        assert record.candidate == Candidate("", tuple(choices))
        assert record.feedback.kind == "CompileError"
        assert record.feedback.system_message == "unknown mapping function no_such_map"
        assert record.rendered_feedback == trajectory.records[0].rendered_feedback


def test_unhashable_options_give_the_same_trajectory(machine, costs):
    # A memory option given as a list names the same table as the tuple;
    # the vector cannot key the run's memo, and the run goes on without it.
    app = load_app_named("circuit")
    dims = decision_dimensions(app)
    vectors = [[dim.options[k % len(dim.options)] for dim in dims] for k in (0, 1, 0)]
    as_lists = [[list(c) if dim.dim_id[0] == "mem" else c for dim, c in zip(dims, v)]
                for v in vectors]
    expected = run(app, machine, costs, cycling(*vectors), ObjectiveSpec(budget=6))
    got = run(app, machine, costs, cycling(*as_lists), ObjectiveSpec(budget=6))
    for record, reference, vector in zip(got.records, expected.records, as_lists * 2):
        assert record.candidate.choices == tuple(vector)
        assert record.candidate.program_text == reference.candidate.program_text
        assert record.rendered_feedback == reference.rendered_feedback
        assert (record.score, record.best_so_far) == (reference.score, reference.best_so_far)


def test_tables_from_one_index_map_choice_do_not_share_functions():
    app = load_app_named("cannon")
    dims = decision_dimensions(app)
    choices = [dim.options[-1] for dim in dims]
    first = table_from_choices(app, choices)
    second = table_from_choices(app, choices)
    assert first.functions and first.functions == second.functions
    first.functions.clear()
    assert table_from_choices(app, choices).functions == second.functions != {}


# -- last-resort guard ----------------------------------------------------------


@pytest.mark.parametrize("stage, kind", [("parse", "CompileError"),
                                         ("simulate", "ExecutionError")])
def test_an_escaping_exception_is_its_steps_failure(monkeypatch, stage, kind,
                                                     machine, costs):
    def broken(*args):
        raise RuntimeError(f"broken {stage}")

    monkeypatch.setattr(search, stage, broken)
    app = load_app_named("circuit")
    result, report = evaluate_program(expert_source("circuit"), app, machine, costs)
    assert result is None
    assert report == FeedbackReport(kind, f"RuntimeError: broken {stage}")
    trajectory = run(app, machine, costs, "random", ObjectiveSpec(budget=3))
    assert [(r.feedback.kind, r.score) for r in trajectory.records] == [(kind, None)] * 3


def _malformed_proposals():
    dims = decision_dimensions(load_app_named("circuit"))
    for slot in range(len(dims)):
        choices = [dim.options[0] for dim in dims]
        choices[slot] = 5
        yield pytest.param({"choices": choices}, id=f"int-in-slot-{slot}")
    for proposal, name in (({"choices": None}, "choices-none"), ({}, "empty"),
                           (None, "none"), ({"program": None}, "program-none")):
        yield pytest.param(proposal, id=name)


@pytest.mark.parametrize("proposal", _malformed_proposals())
def test_a_malformed_proposal_is_a_compile_error(proposal, machine, costs):
    app = load_app_named("circuit")
    trajectory = run(app, machine, costs, lambda history, dims, seed: proposal,
                     ObjectiveSpec(budget=2))
    for record in trajectory.records:
        assert record.feedback.kind == "CompileError"
        assert re.match(r"[A-Za-z]+Error: ", record.feedback.system_message)
        assert record.score is None
