import itertools
import math
import re
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mapforge import search, simulator
from mapforge.binder import decision_dimensions, emit, resolve, table_from_choices
from mapforge.cli import EXIT_EXEC, main
from mapforge.configs import (
    ApplicationDescriptor, CostParams, RegionSpec, TaskArg, TaskSpec,
    VariantSpec, load_app, load_costs, load_machine,
)
from mapforge.evaluator import corpus_path, eval_launch
from mapforge.machine import MachineModel
from mapforge.parser import CompileMemo, parse, parse_valid
from mapforge.printer import print_program
from mapforge.simulator import (
    LayoutMismatch, MappingError, OutOfMemory, SimMemo, SimResult,
    assign_points, simulate,
)

from conftest import APP_NAMES, expert_source, load_app_named
from test_point_assignment import CASES, HEAD, one_task_app


def expert_table(name, machine):
    app = load_app_named(name)
    program = parse_valid(expert_source(name))
    table = resolve(program, app, machine)
    assert not isinstance(table, list)
    return app, table


def default_choices(app, overrides=None):
    """All-GPU / first-memory / SOA+C choices with optional overrides."""
    overrides = overrides or {}
    choices = []
    for dim in decision_dimensions(app):
        if dim.dim_id in overrides:
            choices.append(overrides[dim.dim_id])
        elif dim.dim_id[0] == "proc":
            choices.append("GPU" if "GPU" in dim.options else dim.options[0])
        else:
            choices.append(dim.options[0])
    return choices


# -- result structure and determinism ------------------------------------------


def test_simulate_returns_result_for_experts(machine, costs):
    for name in APP_NAMES:
        app, table = expert_table(name, machine)
        result = simulate(app, table, machine, costs)
        assert isinstance(result, SimResult), (name, result)
        assert result.wall_time > 0
        expected_units = (sum(t.flops_per_point * t.points for t in app.tasks)
                          * app.iterations if app.metric == "gflops"
                          else app.iterations)
        assert result.throughput == pytest.approx(expected_units / result.wall_time)


def test_simulate_is_deterministic(machine, costs):
    app, table = expert_table("circuit", machine)
    first = simulate(app, table, machine, costs)
    second = simulate(app, table, machine, costs)
    assert first == second  # bit-identical dataclasses


def test_point_conservation_across_corpus_mappings(machine, costs):
    # Every launch point lands on exactly one processor for every
    # bundled index-mapping choice.
    for name in ("cannon", "johnson", "solomonik"):
        app = load_app_named(name)
        for task in app.tasks:
            for option in task.map_options:
                try:
                    table = table_from_choices(
                        app, default_choices(app, {("imap", task.name): option}))
                except ValueError:
                    continue
                assignment = assign_points(app, table, machine)
                if isinstance(assignment, MappingError):
                    # uneven decompose options fail cleanly
                    assert "decompose shape" in assignment.text, (option, assignment)
                    continue
                for spec in app.tasks:
                    assert len(assignment[spec.name]) == spec.points


def test_default_block_distribution_spreads_evenly(machine, costs, stencil_app):
    app, table = expert_table("stencil", machine)
    assignment = assign_points(app, table, machine)
    counts = {}
    for proc in assignment["apply_stencil"].values():
        counts[proc] = counts.get(proc, 0) + 1
    assert set(counts.values()) == {2}  # 16 points over 8 GPUs
    assert len(counts) == 8


# -- error paths ------------------------------------------------------------------


def small_machine():
    return MachineModel(
        name="tiny", nodes=1, proc_counts={"GPU": 2, "CPU": 2},
        mem_capacity={"FBMEM": 1e6, "SYSMEM": 1e9, "ZCMEM": 1e6,
                      "RDMEM": 1e6, "SOCKMEM": 1e9},
        bandwidth={(a, b, s): 1e9 for a in ("FBMEM", "SYSMEM", "ZCMEM",
                                            "RDMEM", "SOCKMEM")
                   for b in ("FBMEM", "SYSMEM", "ZCMEM", "RDMEM", "SOCKMEM")
                   for s in (True, False)},
        latency={"GPU": 1e-5, "CPU": 1e-6},
        compute_rate={"GPU": 1e12, "CPU": 1e11},
        concurrency={"GPU": 8, "CPU": 1},
    )


def oversized_app(footprint=1e7):
    region = RegionSpec("big", 8, footprint, (("FBMEM",),))
    task = TaskSpec("load", "index", (4,), 1e6,
                    (VariantSpec("GPU"), VariantSpec("CPU")),
                    (TaskArg("big", 1e3),), ("GPU", "CPU"))
    return ApplicationDescriptor("oversized", "time", 1, (region,), (task,), ())


def test_out_of_memory_when_footprint_exceeds_capacity():
    machine = small_machine()
    app = oversized_app()
    table = table_from_choices(app, default_choices(app))
    result = simulate(app, table, machine, CostParams())
    assert isinstance(result, OutOfMemory)
    assert result.mem == "FBMEM"
    assert result.requested == pytest.approx(1e7)
    assert result.capacity == pytest.approx(1e6)
    assert "Failed allocation" in result.render()


def test_first_fit_falls_through_preference_list():
    machine = small_machine()
    app = oversized_app()
    app = replace(app, regions=(replace(app.regions[0],
                                        mem_options=(("FBMEM", "SYSMEM"),)),))
    choices = default_choices(app, {("mem", "load", "big"): ("FBMEM", "SYSMEM")})
    table = table_from_choices(app, choices)
    result = simulate(app, table, machine, CostParams())
    assert isinstance(result, SimResult)
    assert result.peak_memory[(0, "SYSMEM")] == pytest.approx(1e7)


def layout_app(metric="time", order="any", layout="SOA"):
    region = RegionSpec("r", 8, 1e5, (("FBMEM",),))
    task = TaskSpec("kernel", "index", (4,), 1e6,
                    (VariantSpec("GPU", layout=layout, order=order),),
                    (TaskArg("r", 1e3),), ("GPU",))
    return ApplicationDescriptor("layoutful", metric, 1, (region,), (task,), ())


def test_layout_mismatch_renders_stride_message():
    machine = small_machine()
    app = layout_app()
    choices = default_choices(
        app, {("layout", "kernel", "r"):
              decision_dimensions(app)[-1].options[2]})  # AOS, C_order
    table = table_from_choices(app, choices)
    result = simulate(app, table, machine, CostParams())
    assert isinstance(result, LayoutMismatch)
    assert "stride does not match expected value" in result.render()


def test_order_mismatch_in_gflops_app_renders_dgemm_message():
    machine = small_machine()
    app = layout_app(metric="gflops", order="C_order")
    choices = default_choices(
        app, {("layout", "kernel", "r"):
              decision_dimensions(app)[-1].options[1]})  # SOA, F_order
    table = table_from_choices(app, choices)
    result = simulate(app, table, machine, CostParams())
    assert isinstance(result, LayoutMismatch)
    assert result.render() == "DGEMM parameter number 8 had an illegal value"


def test_mapping_eval_error_text_is_preserved(machine, costs):
    app = load_app_named("cosma")
    table = table_from_choices(
        app, default_choices(app, {("imap", "strip_multiply"):
                                    "special_linearize3D"}))
    result = simulate(app, table, machine, costs)
    assert isinstance(result, MappingError)
    assert "decompose shape" in result.render()


def test_out_of_range_mapping_produces_slice_message(machine, costs):
    app = load_app_named("circuit")
    program = parse_valid("""
Task * GPU;
Region * * * FBMEM;
mgpu = Machine(GPU);
def overflow(Task t) { return mgpu[t.ipoint[0], 0]; }
IndexTaskMap calculate_new_currents overflow;
""")
    table = resolve(program, app, machine)
    result = simulate(app, table, machine, costs)
    assert isinstance(result, MappingError)
    assert "Slice processor index out of bound" in result.render()


# -- cost-model semantics ---------------------------------------------------------


def test_faster_rate_never_slows_wall_time(machine, costs):
    for name in ("circuit", "cannon"):
        app, table = expert_table(name, machine)
        base = simulate(app, table, machine, costs)
        for kind in ("GPU", "CPU"):
            boosted = replace(machine, compute_rate={
                **machine.compute_rate, kind: machine.compute_rate[kind] * 2})
            faster = simulate(app, table, boosted, costs)
            assert faster.wall_time <= base.wall_time


def test_bigger_footprint_never_shrinks_peak_memory(machine, costs):
    app = load_app_named("stencil")
    table = table_from_choices(app, default_choices(app))
    base = simulate(app, table, machine, costs)
    grown = replace(app, regions=tuple(
        replace(r, footprint=r.footprint * 2) for r in app.regions))
    bigger = simulate(grown, table, machine, costs)
    for key, value in base.peak_memory.items():
        assert bigger.peak_memory.get(key, 0.0) >= value


def test_aos_on_gpu_is_slower(machine, costs):
    app = load_app_named("stencil")
    soa = simulate(app, table_from_choices(app, default_choices(app)),
                   machine, costs)
    dims = decision_dimensions(app)
    aos_choices = [d.options[2] if d.dim_id[0] == "layout" else c
                   for d, c in zip(dims, default_choices(app))]
    aos = simulate(app, table_from_choices(app, aos_choices), machine, costs)
    assert aos.wall_time > soa.wall_time


def test_zcmem_trades_compute_for_free_sharing(single_node_machine, costs):
    # Placing an exchanged region in zero-copy memory removes its
    # same-node transfer cost but slows GPU compute on that task.  On one
    # node all traffic is local, so the effect shows in comm_time.
    app = load_app_named("stencil")
    machine = single_node_machine
    fb = simulate(app, table_from_choices(app, default_choices(app)),
                  machine, costs)
    zc_choices = default_choices(
        app, {("mem", "apply_stencil", "ghost_n"): ("ZCMEM",),
              ("mem", "apply_stencil", "ghost_s"): ("ZCMEM",)})
    zc = simulate(app, table_from_choices(app, zc_choices), machine, costs)
    assert zc.comm_time < fb.comm_time
    compute_fb = fb.per_task_compute["apply_stencil"]
    compute_zc = zc.per_task_compute["apply_stencil"]
    assert compute_zc > compute_fb


def test_misalignment_slows_gpu_compute(machine, costs):
    # Align==8 is below a GPU's preferred 64 bytes, so it costs
    # misalign_penalty; Align==64 does not.
    app = load_app_named("stencil")

    def compute(align, penalty):
        text = expert_source("stencil") + f"Layout * * * Align=={align};\n"
        program = parse_valid(text)
        result = simulate(app, resolve(program, app, machine), machine,
                          replace(costs, misalign_penalty=penalty))
        return result.per_task_compute["apply_stencil"]

    assert compute(8, costs.misalign_penalty) > compute(64, costs.misalign_penalty)
    assert compute(8, 1.0) == compute(64, 1.0)


def test_instance_limit_adds_waves(machine, costs):
    # Stencil puts two points on each GPU; a limit of 1 doubles the waves.
    app = load_app_named("stencil")
    base_table = table_from_choices(app, default_choices(app))
    limited = replace(base_table, instance_limit={"apply_stencil": 1})
    base = simulate(app, base_table, machine, costs)
    slow = simulate(app, limited, machine, costs)
    assert slow.wall_time > base.wall_time


def test_tiny_tasks_prefer_cpu_for_launch_overhead(machine, costs):
    app = load_app_named("toy16")
    gpu = simulate(app, table_from_choices(app, ["GPU"] * 4), machine, costs)
    mixed = simulate(app, table_from_choices(app, ["GPU", "GPU", "CPU", "CPU"]),
                     machine, costs)
    assert mixed.wall_time < gpu.wall_time


def test_collect_lowers_peak_memory(machine, costs, circuit_app):
    base = resolve(parse_valid(expert_source("circuit")), circuit_app, machine)
    collected = replace(
        base, collect=frozenset({("calculate_new_currents", "rp_wires")}))
    base_result = simulate(circuit_app, base, machine, costs)
    freed_result = simulate(circuit_app, collected, machine, costs)
    assert max(freed_result.peak_memory.values()) < max(
        base_result.peak_memory.values())


def test_expert_beats_seeded_randoms_on_stencil(machine, costs):
    # Time-metric throughput is iterations/wall, so higher throughput
    # means strictly lower wall time.
    from mapforge.search import ObjectiveSpec, run

    app, table = expert_table("stencil", machine)
    expert = simulate(app, table, machine, costs)
    random_best = max(
        (run(app, machine, costs, "random", ObjectiveSpec(budget=1),
             seed=s).records[0].score or 0.0)
        for s in range(10))
    assert expert.throughput > random_best


def test_block2d_moves_fewer_inter_node_bytes_than_cyclic2d(
        machine, costs, cannon_app):
    # Independent byte count: walk the wraparound shifts and count pairs
    # whose endpoints live on different nodes under each formula.
    domain = (4, 4)

    def node_of_block(x, y):
        return x * 2 // 4

    def node_of_cyclic(x, y):
        return x % 2

    def crossings(node_of):
        count = 0
        for x, y in itertools.product(range(4), range(4)):
            for dx, dy in ((0, 1), (1, 0)):
                sx, sy = (x + dx) % 4, (y + dy) % 4
                if node_of(x, y) != node_of(sx, sy):
                    count += 1
        return count

    assert crossings(node_of_block) < crossings(node_of_cyclic)

    results = {}
    for option in ("block2D", "cyclic2D"):
        table = table_from_choices(
            cannon_app, default_choices(
                cannon_app, {("imap", "shift_multiply"): option}))
        results[option] = simulate(cannon_app, table, machine, costs)
    assert results["block2D"].inter_node_bytes < results["cyclic2D"].inter_node_bytes


# -- descriptor loading -------------------------------------------------------------


def test_bundled_descriptors_load(machine):
    for name in APP_NAMES + ("toy16", "toy256", "toy4096"):
        app = load_app(corpus_path("apps", f"{name}.app"))
        assert isinstance(app, ApplicationDescriptor), (name, app)
    assert machine.nodes == 2
    assert machine.count("GPU") == 4


def test_stencil_descriptor_shape(stencil_app):
    assert len(stencil_app.tasks) == 2
    assert sum(len(t.args) for t in stencil_app.tasks) == 12


def test_empty_app_file_reports_missing_name(tmp_path):
    empty = tmp_path / "empty.app"
    empty.write_text("")
    result = load_app(empty)
    assert isinstance(result, list)
    assert result[0].message == "missing required field: name"


def test_unknown_field_reports_path(tmp_path):
    bad = tmp_path / "bad.app"
    bad.write_text("name: x\ntasks: []\nbogus: 1\n")
    result = load_app(bad)
    assert isinstance(result, list)
    assert "unknown field: bogus" in result[0].message


def test_nonpositive_extent_reports_field_path(tmp_path):
    bad = tmp_path / "bad.app"
    bad.write_text("""
name: x
regions: []
tasks:
  - name: t
    domain: [4, 0]
    flops_per_point: 1.0
    proc_options: [GPU]
    variants: {GPU: {}}
""")
    result = load_app(bad)
    assert isinstance(result, list)
    assert "tasks[0].domain[1]" in result[0].message


def test_exchange_region_must_exist(tmp_path):
    bad = tmp_path / "bad.app"
    bad.write_text("""
name: x
regions:
  - {name: r, element_size: 8, footprint: 1.0}
tasks:
  - name: t
    domain: [4]
    flops_per_point: 1.0
    proc_options: [GPU]
    variants: {GPU: {}}
    args: [{region: r, bytes_per_point: 1.0}]
exchanges:
  - {task: t, region: nope, pattern: stencil, offsets: [[1]], bytes_per_point: 1.0}
""")
    result = load_app(bad)
    assert isinstance(result, list)
    assert "no region argument nope" in result[0].message


SINGLE_LAUNCH_EXCHANGE = """
name: x
regions:
  - {name: r, element_size: 8, footprint: 1.0}
tasks:
  - name: t
    launch: single
    domain: [DOMAIN]
    flops_per_point: 1.0
    proc_options: [GPU]
    variants: {GPU: {}}
    args: [{region: r, bytes_per_point: 1.0}]
exchanges:
  - {task: t, region: r, pattern: stencil, offsets: [[1]], wrap: true, bytes_per_point: 1.0}
"""


def test_exchange_on_single_launch_needs_one_point(tmp_path, machine, costs):
    bad = tmp_path / "bad.app"
    bad.write_text(SINGLE_LAUNCH_EXCHANGE.replace("DOMAIN", "4"))
    result = load_app(bad)
    assert isinstance(result, list)
    assert result[0].message.startswith("exchanges[0]: task t has a single launch")
    good = tmp_path / "good.app"
    good.write_text(SINGLE_LAUNCH_EXCHANGE.replace("DOMAIN", "1"))
    app = load_app(good)
    assert not isinstance(app, list)
    table = resolve(parse_valid("Task * GPU;\nRegion * * GPU FBMEM;\n"), app, machine)
    assert isinstance(simulate(app, table, machine, costs), SimResult)


def test_machine_and_costs_loaders_validate(tmp_path):
    bad = tmp_path / "m.machine"
    bad.write_text("name: m\nnodes: 0\nprocs: {}\nmemories: {}\n")
    result = load_machine(bad)
    assert isinstance(result, list)
    assert "nodes" in result[0].message

    bad_costs = tmp_path / "c.costs"
    bad_costs.write_text("aos_gpu_penalty: 0.5\n")
    result = load_costs(bad_costs)
    assert isinstance(result, list)
    assert ">= 1" in result[0].message


def test_single_launch_task_follows_single_task_map(machine, costs):
    region = RegionSpec("scratch", 8, 1e5, (("FBMEM",),))
    single = TaskSpec("finalize", "single", (1,), 1e6,
                      (VariantSpec("GPU"),), (TaskArg("scratch", 1e3),),
                      ("GPU",))
    app = ApplicationDescriptor("singleton", "time", 1, (region,),
                                (single,), ())
    program = parse_valid("""
Task * GPU;
Region * * * FBMEM;
mgpu = Machine(GPU);
def pin(Task t) { return mgpu[1, 2]; }
SingleTaskMap finalize pin;
""")
    table = resolve(program, app, machine)
    assignment = assign_points(app, table, machine)
    assert list(assignment["finalize"].values()) == [
        __import__("mapforge.machine", fromlist=["ProcIndex"]).ProcIndex(1, 2)]
    result = simulate(app, table, machine, costs)
    assert isinstance(result, SimResult)


def test_region_names_must_be_identifiers(tmp_path):
    bad = tmp_path / "x.app"
    bad.write_text("""
name: x
regions:
  - {name: "1st", element_size: 8, footprint: 1.0}
tasks: []
""")
    result = load_app(bad)
    assert isinstance(result, list)
    assert "not a valid identifier" in result[0].message


def test_default_block_on_a_missing_processor_kind_is_a_mapping_error(
        single_node_machine, costs):
    # A vector candidate may pick a kind the machine lacks (single-node
    # has no OMP); without a mapping function this is reported, not raised.
    region = RegionSpec("r", 8, 1e5, (("SYSMEM",),))
    task = TaskSpec("t", "index", (4,), 1e6, (VariantSpec("OMP"),),
                    (TaskArg("r", 1e3),), ("OMP",))
    app = ApplicationDescriptor("omp_only", "time", 1, (region,), (task,), ())
    table = table_from_choices(app, default_choices(app))
    result = simulate(app, table, single_node_machine, costs)
    assert result == MappingError("no OMP processors on machine single-node")


# -- non-finite results ------------------------------------------------------------


def overflowing(tmp_path, fields, gpu_rate):
    """cosma with each of ``fields`` at 1.0e+308 per point, on p100-cluster
    with the GPU compute rate ``gpu_rate``: the app's and machine's paths.
    Every value is finite; their products overflow."""
    app_text = re.sub(rf"({'|'.join(fields)}): [0-9.e+]+", r"\1: 1.0e+308",
                      corpus_path("apps", "cosma.app").read_text())
    machine_text = corpus_path("machines", "p100-cluster.machine").read_text()
    assert machine_text.count("compute_rate: 4.0e+12") == 1  # the GPU rate
    machine_text = machine_text.replace("compute_rate: 4.0e+12",
                                        f"compute_rate: {gpu_rate}")
    (tmp_path / "huge.app").write_text(app_text)
    (tmp_path / "slow.machine").write_text(machine_text)
    return tmp_path / "huge.app", tmp_path / "slow.machine"


def test_a_non_finite_score_is_an_execution_error(tmp_path, costs):
    # Flops and wall time are both infinite, so their quotient would be NaN.
    app_path, machine_path = overflowing(
        tmp_path, ("flops_per_point", "bytes_per_point"), "1.0e-300")
    app, machine = load_app(app_path), load_machine(machine_path)
    table = resolve(parse_valid(expert_source("cosma")), app, machine)
    assert simulate(app, table, machine, costs) == MappingError(
        "Simulation produced a non-finite wall time: inf")
    trajectory = search.run(app, machine, costs, "hillclimb",
                            search.ObjectiveSpec(budget=40), seed=1)
    assert all(r.score is None and r.best_so_far is None for r in trajectory.records)
    assert {r.feedback.kind for r in trajectory.records} == {"ExecutionError"}
    assert any("non-finite" in r.rendered_feedback for r in trajectory.records)


def test_an_infinite_throughput_is_an_execution_error(tmp_path, costs):
    # Only the flops sum overflows; the wall time stays finite.
    app_path, machine_path = overflowing(tmp_path, ("flops_per_point",), "4.0e+12")
    app, machine = load_app(app_path), load_machine(machine_path)
    table = resolve(parse_valid(expert_source("cosma")), app, machine)
    assert simulate(app, table, machine, costs) == MappingError(
        "Simulation produced a non-finite throughput: inf")


def test_simulate_command_exits_with_an_execution_error_on_a_non_finite_score(
        tmp_path, capsys):
    app_path, machine_path = overflowing(
        tmp_path, ("flops_per_point", "bytes_per_point"), "1.0e-300")
    code = main(["simulate", "--app", str(app_path), "--machine", str(machine_path),
                 "--mapper", str(corpus_path("experts", "cosma.dsl"))])
    out = capsys.readouterr().out
    assert code == EXIT_EXEC
    assert "non-finite wall time: inf" in out
    assert "throughput=" not in out and "nan" not in out


# -- reuse within a run ------------------------------------------------------------


def simulate_shared(app, table, machine, costs, memo):
    """``simulate`` with a shared memo, checked to the bit against a call
    without one, which uses a fresh memo."""
    got = simulate(app, table, machine, costs, memo)
    want = simulate(app, table, machine, costs)
    assert repr(got) == repr(want)
    return got


def text_table(text, app, machine):
    table = resolve(parse_valid(text), app, machine)
    assert not isinstance(table, list), table
    return table


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(APP_NAMES), st.booleans(), st.data())
def test_a_shared_memo_gives_what_no_memo_gives(machine, single_node_machine, costs,
                                                name, single_node, data):
    # A run's texts differ from one another in a few decisions, so each
    # step changes one dimension of the last vector.  Every text is parsed
    # through one compile memo, as in a run, so that texts share statement
    # objects, or afresh, so that equal statements are distinct objects.
    app = load_app_named(name)
    machine = single_node_machine if single_node else machine
    dims = decision_dimensions(app)
    choices = [data.draw(st.sampled_from(dim.options)) for dim in dims]
    memo = SimMemo()
    compile_memo = CompileMemo() if data.draw(st.booleans()) else None
    for _ in range(data.draw(st.integers(1, 12))):
        k = data.draw(st.integers(0, len(dims) - 1))
        choices[k] = data.draw(st.sampled_from(dims[k].options))
        text = print_program(emit(table_from_choices(app, choices, dims), app))
        table = resolve(parse(text, compile_memo), app, machine)
        if not isinstance(table, list):
            simulate_shared(app, table, machine, costs, memo)


def test_a_shared_memo_keeps_each_mapping_error(machine, costs):
    # The hand-written point-assignment cases, failing and out of bound
    # ones among them, each seen twice by one memo per launch domain.
    groups = {}
    for function, domain, kind, outcome in CASES.values():
        groups.setdefault((domain, kind), []).append((function, outcome))
    for (domain, kind), cases in groups.items():
        app = one_task_app(domain, kind)
        memo = SimMemo()
        for function, outcome in cases * 2:
            text = HEAD.format(kind=kind) + function + "\nIndexTaskMap work f;\n"
            result = simulate_shared(app, text_table(text, app, machine), machine,
                                     costs, memo)
            if isinstance(outcome, str):
                assert result == MappingError(outcome)


def test_a_binding_that_fails_is_the_same_error_when_seen_again(machine, costs):
    app = one_task_app((8,), "GPU")
    text = (HEAD.format(kind="GPU") + "s = m.split(1, 3);\n"
            "def f(Task t) { return s[0, 0, 0]; }\nIndexTaskMap work f;\n")
    memo = SimMemo()
    for _ in range(2):
        result = simulate_shared(app, text_table(text, app, machine), machine,
                                 costs, memo)
        assert result == MappingError(
            "split factor 3 does not divide extent 4 of dimension 1")


def test_functions_with_one_name_and_different_bodies_are_told_apart(machine, costs):
    app = one_task_app((8,), "GPU")
    memo = SimMemo()
    results = []
    for node in (0, 1, 0):
        text = (HEAD.format(kind="GPU") + f"def f(Task t) {{ return m[{node}, "
                "t.ipoint[0] % 4]; }\nIndexTaskMap work f;\n")
        results.append(simulate_shared(app, text_table(text, app, machine),
                                       machine, costs, memo))
    assert results[0] != results[1] and results[0] == results[2]
    assert len(memo.tasks) == 2


def test_closures_of_distinct_statements_are_never_confused(machine, costs):
    # Each text is parsed afresh and its table dropped after the call:
    # four texts give two closures by comparing them.
    app = one_task_app((8,), "GPU")
    memo = SimMemo()
    for node in (0, 1, 0, 1):
        text = (HEAD.format(kind="GPU") + f"def f(Task t) {{ return m[{node}, "
                "t.ipoint[0] % 4]; }\nIndexTaskMap work f;\n")
        result = simulate_shared(app, text_table(text, app, machine), machine,
                                 costs, memo)
        assert [key[0] for key in result.peak_memory] == [node]
    assert len(memo.closures) == 2


def test_an_equal_closure_on_other_lines_is_found_by_value(machine, costs,
                                                           monkeypatch):
    # The second text has its def one line lower, so a run's compile memo
    # parses it into new statement objects; the closure is still found.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eval_launch(*args, **kwargs)

    monkeypatch.setattr(simulator, "eval_launch", counted)
    app = one_task_app((8,), "GPU")
    function = "def f(Task t) { return m[1, t.ipoint[0] % 4]; }\nIndexTaskMap work f;\n"
    memo = SimMemo()
    compile_memo = CompileMemo()
    tables, results = [], []
    for gap in ("", "\n"):
        text = HEAD.format(kind="GPU") + gap + function
        tables.append(resolve(parse(text, compile_memo), app, machine))
        results.append(simulate(app, tables[-1], machine, costs, memo))
    assert tables[0].functions["f"] is not tables[1].functions["f"]
    assert isinstance(results[0], SimResult) and results[0] == results[1]
    assert len(memo.closures) == 1 and len(memo.tasks) == 1
    assert calls == ["work"]
