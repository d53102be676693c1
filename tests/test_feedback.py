import pytest
import hypothesis.strategies as st
from hypothesis import given

from mapforge.ast import Diagnostic
from mapforge.feedback import (
    LEVEL_EXPLAIN, LEVEL_FULL, LEVEL_SYSTEM, EnhancerRule, FeedbackReport,
    classify, default_rules, enhance, load_rules, render,
)
from mapforge.simulator import LayoutMismatch, MappingError, OutOfMemory, SimResult


def result_with(wall_time=0.03, throughput=None):
    throughput = throughput if throughput is not None else 1.0 / wall_time
    return SimResult(wall_time, throughput, {}, 0.0, {}, 0.0)


# The nine reference feedback rows: system message, expected explanation,
# expected suggestion at full level.
FIXTURES = [
    ("CompileError", "Syntax error, unexpected :, expecting {",
     None, "There should be no colon : in function definition."),
    ("CompileError", "IndexTaskMap's function undefined",
     None, "Define the IndexTaskMap function first before using it."),
    ("CompileError", "mgpu not found",
     None, "Include mgpu = Machine(GPU); in the generated code."),
    ("ExecutionError", "Assertion failed: stride does not match expected value.",
     "Memory layout is unexpected.",
     "Adjust the layout constraints or move tasks to different processor types."),
    ("ExecutionError", "DGEMM parameter number 8 had an illegal value",
     "Memory layout is unexpected.", "Adjust the layout constraint."),
    ("ExecutionError", "Slice processor index out of bound",
     "IndexTaskMap statements cause error.",
     "Ensure that the first index of mgpu ends with % mgpu.size[0], "
     "and the second element ends with % mgpu.size[1]."),
    ("ExecutionError", "Assertion 'event.exists()' failed",
     "InstanceLimit statements cause error.",
     "Avoid generating InstanceLimit statements."),
    ("PerformanceMetric", "Execution time is 0.03s.",
     None, "Move more tasks to GPU to reduce execution time."),
    ("PerformanceMetric", "Achieved throughput = 4877 GFLOPS",
     None, "Try using different IndexTaskMap or SingleTaskMap statements "
     "to maximize throughput."),
]


@pytest.mark.parametrize("kind,message,explain,suggest", FIXTURES,
                         ids=[f[1][:28] for f in FIXTURES])
def test_fixture_rows_reproduce_exactly(kind, message, explain, suggest):
    report = FeedbackReport(kind, message)
    enhanced = enhance(report, default_rules(), LEVEL_FULL)
    assert enhanced.explain == explain
    assert enhanced.suggest == suggest


@pytest.mark.parametrize("kind,message,explain,suggest", FIXTURES,
                         ids=[f[1][:28] for f in FIXTURES])
def test_level_outputs_are_prefixes(kind, message, explain, suggest):
    report = FeedbackReport(kind, message)
    rules = default_rules()
    system = render(enhance(report, rules, LEVEL_SYSTEM))
    explained = render(enhance(report, rules, LEVEL_EXPLAIN))
    full = render(enhance(report, rules, LEVEL_FULL))
    assert explained.startswith(system)
    assert full.startswith(explained)


def test_classify_parse_diagnostic():
    diag = Diagnostic("error", 1, 22, "Syntax error, unexpected :, expecting {")
    report = classify([diag])
    assert report.kind == "CompileError"
    assert report.system_message == "Syntax error, unexpected :, expecting {"
    assert report.score is None


def test_classify_execution_time_formatting():
    report = classify(result_with(wall_time=0.03))
    assert report.kind == "PerformanceMetric"
    assert report.system_message == "Execution time is 0.03s."
    assert report.score == pytest.approx(1.0 / 0.03)


def test_classify_gflops_formatting():
    report = classify(result_with(throughput=4877e9), metric="gflops")
    assert report.system_message == "Achieved throughput = 4877 GFLOPS"


def test_classify_sim_errors():
    assert "stride does not match expected value" in classify(
        LayoutMismatch("t", "r")).system_message
    assert classify(OutOfMemory(0, "FBMEM", 2e9, 1e9)).kind == "ExecutionError"
    assert classify(MappingError("boom")).system_message == "boom"


def test_render_single_line_for_plain_metric():
    report = FeedbackReport("PerformanceMetric", "Execution time is 0.5s.")
    assert render(report) == "Performance Metric: Execution time is 0.5s."


def test_render_three_lines_in_fixed_order():
    report = FeedbackReport("ExecutionError", "Slice processor index out of bound")
    enhanced = enhance(report, default_rules(), LEVEL_FULL)
    lines = render(enhanced).splitlines()
    assert lines[0] == "Execution Error: Slice processor index out of bound"
    assert lines[1] == "Explanation: IndexTaskMap statements cause error."
    assert lines[2].startswith("Suggestion: Ensure that the first index")


def test_render_skips_missing_explanation():
    report = FeedbackReport("CompileError",
                            "Syntax error, unexpected :, expecting {")
    enhanced = enhance(report, default_rules(), LEVEL_FULL)
    lines = render(enhanced).splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("Suggestion:")


def test_unmatched_message_gets_no_enhancement():
    report = FeedbackReport("PerformanceMetric", "everything fine")
    enhanced = enhance(report, default_rules(), LEVEL_FULL)
    assert enhanced.explain is None and enhanced.suggest is None


def test_first_matching_rule_wins():
    rules = [EnhancerRule("err", explain="first"),
             EnhancerRule("error", explain="second")]
    report = FeedbackReport("ExecutionError", "an error happened")
    assert enhance(report, rules, LEVEL_EXPLAIN).explain == "first"


def test_matching_is_case_sensitive():
    rules = [EnhancerRule("Stride", explain="matched")]
    report = FeedbackReport("ExecutionError", "stride mismatch")
    assert enhance(report, rules, LEVEL_FULL).explain is None


def test_system_level_strips_everything():
    report = FeedbackReport("ExecutionError", "Slice processor index out of bound",
                            explain="x", suggest="y")
    stripped = enhance(report, default_rules(), LEVEL_SYSTEM)
    assert stripped.explain is None and stripped.suggest is None


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        enhance(FeedbackReport("CompileError", "x"), [], "loud")


@given(st.text(min_size=0, max_size=60))
def test_level_monotonicity_on_arbitrary_messages(message):
    report = FeedbackReport("ExecutionError", message)
    rules = default_rules()
    system = render(enhance(report, rules, LEVEL_SYSTEM))
    explained = render(enhance(report, rules, LEVEL_EXPLAIN))
    full = render(enhance(report, rules, LEVEL_FULL))
    assert explained.startswith(system)
    assert full.startswith(explained)


def test_rule_file_round_trip(tmp_path):
    path = tmp_path / "rules.cfg"
    path.write_text("- keyword: boom\n  explain: it exploded\n")
    rules = load_rules(path)
    assert rules == [EnhancerRule("boom", "it exploded", None)]


def test_rule_file_rejects_missing_keyword(tmp_path):
    path = tmp_path / "rules.cfg"
    path.write_text("- explain: no keyword\n")
    with pytest.raises(ValueError, match="keyword"):
        load_rules(path)


def test_default_rules_are_read_once(monkeypatch):
    from mapforge import feedback

    first = default_rules()
    monkeypatch.setattr(feedback, "load_rules", None)
    assert default_rules() is first
    assert isinstance(first, tuple) and first
