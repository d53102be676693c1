import itertools
import math

import pytest

from mapforge.binder import decision_dimensions, table_from_choices
from mapforge.cli import main
from mapforge.evaluator import corpus_path
from mapforge.feedback import default_rules, enhance, render
from mapforge.search import evaluate_program
from mapforge.simulator import simulate

from conftest import APP_NAMES, load_app_named


APP = str(corpus_path("apps", "circuit.app"))
TOY = str(corpus_path("apps", "toy16.app"))
MACHINE = str(corpus_path("machines", "p100-cluster.machine"))
COSTS = str(corpus_path("costs", "default.costs"))
EXPERT = str(corpus_path("experts", "circuit.dsl"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ------------------------------------------------------------------


def test_check_valid_corpus_file(capsys):
    code, out, err = run_cli(capsys, "check",
                             str(corpus_path("strategies", "01.dsl")))
    assert code == 0
    assert "OK" in out


def test_check_reports_colon_error(capsys, tmp_path):
    bad = tmp_path / "bad.dsl"
    bad.write_text("def cyclic(Task task): ip = task.ipoint;\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "Syntax error, unexpected :" in err
    assert f"{bad}:1:22: error:" in err


def test_check_missing_file_is_io_error(capsys):
    code, out, err = run_cli(capsys, "check", "/nonexistent/thing.dsl")
    assert code == 2


def test_check_non_utf8_mapper_is_a_user_error(capsys, tmp_path):
    bad = tmp_path / "bin.dsl"
    bad.write_bytes(b"Task * GPU;\n\xff\xfe\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert err.startswith(f"error: invalid mapper {bad}: ")
    assert err.count("\n") == 1


# -- simulate ----------------------------------------------------------------


def test_simulate_expert_prints_metrics(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--app", APP, "--mapper", EXPERT,
        "--machine", MACHINE, "--costs", COSTS)
    assert code == 0
    assert out.startswith("Performance Metric: Execution time is")
    assert "throughput=" in out
    assert "wall_time=" in out


def test_simulate_feedback_levels_differ(capsys):
    argv = ["simulate", "--app", APP, "--mapper", EXPERT, "--machine", MACHINE]
    _, full, _ = run_cli(capsys, *argv, "--feedback-level",
                         "system+explain+suggest")
    _, system, _ = run_cli(capsys, *argv, "--feedback-level", "system")
    assert "Suggestion: Move more tasks to GPU" in full
    assert "Suggestion:" not in system


def test_simulate_oom_exits_three(capsys, tmp_path):
    app = tmp_path / "big.app"
    app.write_text("""
name: big
regions:
  - {name: r, element_size: 8, footprint: 1.0e+12, mem_options: [[FBMEM]]}
tasks:
  - name: t
    domain: [4]
    flops_per_point: 1.0
    proc_options: [GPU]
    variants: {GPU: {}}
    args: [{region: r, bytes_per_point: 1.0}]
""")
    mapper = tmp_path / "m.dsl"
    mapper.write_text("Task * GPU;\nRegion * * * FBMEM;\n")
    code, out, err = run_cli(capsys, "simulate", "--app", str(app),
                             "--mapper", str(mapper), "--machine", MACHINE)
    assert code == 3
    assert "Execution Error: Failed allocation" in out


def test_simulate_rejects_invalid_mapper(capsys, tmp_path):
    mapper = tmp_path / "m.dsl"
    mapper.write_text("IndexTaskMap t missing;\n")
    code, out, err = run_cli(capsys, "simulate", "--app", APP,
                             "--mapper", str(mapper), "--machine", MACHINE)
    assert code == 1
    assert "IndexTaskMap's function undefined" in err


def test_simulate_reports_resolve_diagnostics(capsys, tmp_path):
    # A mapper that validates but maps no task to a processor fails in
    # resolve; its diagnostics are rendered against the mapper's path.
    mapper = tmp_path / "m.dsl"
    mapper.write_text("Region * * * FBMEM;\n")
    code, out, err = run_cli(capsys, "simulate", "--app", APP,
                             "--mapper", str(mapper), "--machine", MACHINE)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"{mapper}:1:1: error: no processor mapping for task {task}"
        for task in ("calculate_new_currents", "distribute_charge",
                     "update_voltages")]


def test_simulate_is_deterministic(capsys):
    argv = ["simulate", "--app", APP, "--mapper", EXPERT, "--machine", MACHINE,
            "--costs", COSTS]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("name", APP_NAMES)
def test_simulate_agrees_with_evaluate_program(capsys, name, machine, costs):
    # The CLI's feedback lines are the search loop's rendered feedback
    # for the same text.
    app = load_app_named(name)
    expert = corpus_path("experts", f"{name}.dsl")
    code, out, _ = run_cli(capsys, "simulate", "--app",
                           str(corpus_path("apps", f"{name}.app")),
                           "--mapper", str(expert), "--machine", MACHINE,
                           "--costs", COSTS)
    _, report = evaluate_program(expert.read_text(), app, machine, costs)
    rendered = render(enhance(report, default_rules()))
    assert code == 0
    assert out.splitlines()[:len(rendered.splitlines())] == rendered.splitlines()
    assert out.splitlines()[len(rendered.splitlines())].startswith("wall_time=")


# -- space --------------------------------------------------------------------


def test_space_stencil_is_two_to_the_38(capsys):
    code, out, _ = run_cli(capsys, "space", "--app",
                           str(corpus_path("apps", "stencil.app")))
    assert code == 0
    assert out.strip() == "274877906944 (2^38)"


def test_space_toy(capsys):
    code, out, _ = run_cli(capsys, "space", "--app", TOY)
    assert out.strip() == "16 (2^4)"


def test_space_non_power_of_two(capsys):
    code, out, _ = run_cli(capsys, "space", "--app",
                           str(corpus_path("apps", "cannon.app")))
    assert out.strip() == "7168"


def test_space_invalid_descriptor(capsys, tmp_path):
    bad = tmp_path / "x.app"
    bad.write_text("tasks: []\n")
    code, out, err = run_cli(capsys, "space", "--app", str(bad))
    assert code == 1
    assert "missing required field: name" in err


@pytest.mark.parametrize("flag", ["--app", "--machine", "--costs"])
def test_non_utf8_descriptor_is_a_loader_diagnostic(capsys, tmp_path, flag):
    bad = tmp_path / "bin.yaml"
    bad.write_bytes(b"name: x\n\xff\n")
    paths = {"--app": APP, "--machine": MACHINE, "--costs": COSTS, flag: str(bad)}
    argv = [item for pair in paths.items() for item in pair]
    code, out, err = run_cli(capsys, "simulate", "--mapper", EXPERT, *argv)
    assert code == 1
    assert err.startswith("error: invalid ") and f" {bad}: " in err


@pytest.mark.parametrize("flag", ["--app", "--machine", "--costs"])
def test_missing_descriptor_is_an_io_error(capsys, tmp_path, flag):
    missing = tmp_path / "missing.yaml"
    paths = {"--app": APP, "--machine": MACHINE, "--costs": COSTS, flag: str(missing)}
    argv = [item for pair in paths.items() for item in pair]
    code, out, err = run_cli(capsys, "simulate", "--mapper", EXPERT, *argv)
    assert code == 2
    assert err == f"error: cannot read {missing}: no such file\n"


@pytest.mark.parametrize("flag, content", [
    ("--app", "name: [\n"),
    ("--app", "name: x\n\x07\n"),
    ("--rules", "- keyword: [\n"),
], ids=["app_unclosed", "app_control_char", "rules_unclosed"])
def test_yaml_error_is_one_line(capsys, tmp_path, flag, content):
    bad = tmp_path / "bad.yaml"
    bad.write_text(content)
    paths = {"--app": APP, "--machine": MACHINE, flag: str(bad)}
    argv = [item for pair in paths.items() for item in pair]
    code, out, err = run_cli(capsys, "simulate", "--mapper", EXPERT, *argv)
    assert code == 1
    assert err.count("\n") == 1 and "line 2, column 1" in err


@pytest.mark.parametrize("content, code, message", [
    (None, 2, "cannot read"),
    (b"- keyword: [\n", 1, "invalid rules"),
    (b"- explain: no keyword\n", 1, "invalid rules"),
    (b"\xff\xfe\n", 1, "invalid rules"),
], ids=["missing", "not_yaml", "no_keyword", "not_utf8"])
def test_bad_rules_file_is_an_error(capsys, tmp_path, content, code, message):
    rules = tmp_path / "rules.yaml"
    if content is not None:
        rules.write_bytes(content)
    for argv in (["simulate", "--mapper", EXPERT],
                 ["optimize", "--iters", "1", "--seeds", "1",
                  "--out", str(tmp_path / "t.csv")]):
        got, out, err = run_cli(capsys, *argv, "--app", APP, "--machine", MACHINE,
                                "--rules", str(rules))
        assert got == code
        assert err.startswith(f"error: {message} {rules}: ")


# -- optimize -----------------------------------------------------------------


def test_optimize_row_count(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--strategy", "random", "--iters", "10", "--seeds", "5",
        "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 51  # header + 10 x 5


def test_optimize_exhaustive_reaches_brute_force_optimum(
        capsys, tmp_path, machine, costs):
    app = load_app_named("toy16")
    dims = decision_dimensions(app)
    best = max(
        simulate(app, table_from_choices(app, list(choices)), machine,
                 costs).throughput
        for choices in itertools.product(*(d.options for d in dims)))

    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--costs", COSTS, "--strategy", "exhaustive", "--iters", "16",
        "--seeds", "1", "--out", str(out_csv))
    assert code == 0
    reported = float(out.split("best_throughput=")[1].splitlines()[0])
    assert math.isclose(reported, best, rel_tol=1e-9)


def test_optimize_baseline_self_consistency(capsys, tmp_path, machine, costs):
    # Emit the true optimum of the toy space as the baseline mapper; the
    # exhaustive search must then report a normalized best of exactly 1.
    from mapforge.binder import emit
    from mapforge.printer import print_program

    app = load_app_named("toy16")
    dims = decision_dimensions(app)
    best_choices = max(
        itertools.product(*(d.options for d in dims)),
        key=lambda choices: simulate(
            app, table_from_choices(app, list(choices)), machine,
            costs).throughput)
    baseline = tmp_path / "baseline.dsl"
    baseline.write_text(print_program(
        emit(table_from_choices(app, list(best_choices)), app)))

    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--costs", COSTS, "--strategy", "exhaustive", "--iters", "16",
        "--seeds", "1", "--out", str(out_csv), "--baseline", str(baseline))
    assert code == 0
    assert "best_normalized=1.0" in out


BIG_APP = """
name: big
regions:
  - {name: r, element_size: 8, footprint: 1.0e+12, mem_options: [[FBMEM]]}
tasks:
  - name: t
    domain: [4]
    flops_per_point: 1.0
    proc_options: [GPU]
    variants: {GPU: {}}
    args: [{region: r, bytes_per_point: 1.0}]
"""


@pytest.mark.parametrize("app_text, mapper_text, message", [
    (None, "IndexTaskMap t missing;\n", "has errors"),
    (None, "Region * * * FBMEM;\n", "does not resolve"),
    (BIG_APP, "Task * GPU;\nRegion * * * FBMEM;\n", "fails to execute"),
])
def test_optimize_baseline_failures_are_user_errors(
        capsys, tmp_path, app_text, mapper_text, message):
    app = TOY
    if app_text is not None:
        app = tmp_path / "big.app"
        app.write_text(app_text)
    baseline = tmp_path / "baseline.dsl"
    baseline.write_text(mapper_text)
    out_csv = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "optimize", "--app", str(app), "--machine", MACHINE,
        "--iters", "2", "--seeds", "1", "--out", str(out_csv),
        "--baseline", str(baseline))
    assert code == 1
    assert out == ""
    assert err == f"error: baseline mapper {baseline} {message}\n"
    assert not out_csv.exists()


def test_optimize_unknown_strategy(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--strategy", "annealing", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "unknown strategy" in err


def test_optimize_reads_adapter_from_environment(capsys, tmp_path, monkeypatch):
    import sys as _sys
    script = tmp_path / "vec.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    n = len(json.loads(line)['domains'])\n"
        "    print(json.dumps({'vector': [0] * n}), flush=True)\n")
    monkeypatch.setenv("MAPFORGE_ADAPTER", f"{_sys.executable} {script}")
    out_csv = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--strategy", "external", "--iters", "2", "--seeds", "1",
        "--out", str(out_csv))
    assert code == 0
    assert "best_throughput=" in out


def test_optimize_external_without_endpoint_is_user_error(capsys, tmp_path,
                                                          monkeypatch):
    monkeypatch.delenv("MAPFORGE_ADAPTER", raising=False)
    code, out, err = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--strategy", "external", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "MAPFORGE_ADAPTER" in err


def test_optimize_unreachable_adapter_is_not_fatal(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--strategy", "external", "--adapter-url", "http://127.0.0.1:1/",
        "--iters", "3", "--seeds", "1", "--out", str(out_csv))
    assert code == 0
    assert "no candidate executed successfully" in out
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("CompileError") for line in lines[1:])


def test_optimize_svg_written(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    svg = tmp_path / "curve.svg"
    code, out, _ = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--strategy", "hillclimb", "--iters", "5", "--seeds", "2",
        "--out", str(out_csv), "--svg", str(svg),
        "--baseline", EXPERT_TOY(tmp_path))
    assert code == 0
    content = svg.read_text()
    assert content.startswith("<svg")
    assert "polyline" in content


def EXPERT_TOY(tmp_path):
    path = tmp_path / "toy_expert.dsl"
    path.write_text("Task * GPU;\n")
    return str(path)


def test_optimize_rejects_nonpositive_budget(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "optimize", "--app", TOY, "--machine", MACHINE,
        "--iters", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 1


def test_optimize_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["optimize", "--app", APP, "--machine", MACHINE, "--costs", COSTS,
            "--strategy", "hillclimb", "--iters", "6", "--seeds", "2",
            "--baseline", EXPERT]
    _, out_a, _ = run_cli(capsys, *base, "--out", str(a))
    _, out_b, _ = run_cli(capsys, *base, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert out_a.replace(str(a), "X") == out_b.replace(str(b), "X")
