import random
from dataclasses import replace

import pytest

from mapforge.ast import MapperProgram, RegionStmt, TaskStmt
from mapforge.binder import (
    LayoutChoice, closure_of, decision_dimensions, emit, resolve,
    search_space_size, table_from_choices,
)
from mapforge.configs import (
    ApplicationDescriptor, RegionSpec, TaskArg, TaskSpec, VariantSpec, load_app,
)
from mapforge.parser import parse, parse_valid
from mapforge.printer import print_program
from mapforge.validator import validate

from conftest import corpus_dsl_files, expert_source, load_app_named
from mapforge.evaluator import corpus_path


def resolve_text(source, app, machine):
    program = parse_valid(source)
    assert not validate(program)
    table = resolve(program, app, machine)
    assert not isinstance(table, list), [d.message for d in table]
    return table


def make_app(tasks, regions=()):
    return ApplicationDescriptor("synthetic", "time", 1, tuple(regions),
                                 tuple(tasks), ())


def simple_task(name, procs=("GPU", "CPU"), args=(), variants=None, domain=(4,)):
    variants = variants or tuple(VariantSpec(p) for p in procs)
    return TaskSpec(name, "index", domain, 1e9, variants, tuple(args), tuple(procs))


# -- processor selection -------------------------------------------------------


def test_first_supported_kind_wins(machine):
    app = make_app([simple_task("t", procs=("GPU", "CPU"),
                                variants=(VariantSpec("CPU"),))])
    table = resolve_text("Task * GPU,CPU;\nRegion * * * SYSMEM;", app, machine)
    assert table.task_proc == {"t": "CPU"}


def test_no_viable_processor_is_diagnosed(machine):
    app = make_app([simple_task("t", procs=("GPU",),
                                variants=(VariantSpec("OMP"),))])
    program = parse_valid("Task * GPU;\nRegion * * * SYSMEM;")
    result = resolve(program, app, machine)
    assert isinstance(result, list)
    assert "no viable processor for task t" in result[0].message


def test_specific_task_statement_beats_wildcard(machine, circuit_app):
    table = resolve_text(corpus_path("strategies", "06.dsl").read_text(),
                         circuit_app, machine)
    assert table.task_proc["calculate_new_currents"] == "CPU"
    assert table.task_proc["distribute_charge"] == "GPU"


def test_last_statement_wins_among_equals(machine):
    app = make_app([simple_task("t")])
    table = resolve_text("Task * CPU;\nTask * GPU;\nRegion * * * SYSMEM;",
                         app, machine)
    assert table.task_proc == {"t": "GPU"}


# -- region and layout resolution ----------------------------------------------


def test_strategy2_sends_shared_and_ghost_to_zcmem(machine, circuit_app):
    table = resolve_text(corpus_path("strategies", "02.dsl").read_text(),
                         circuit_app, machine)
    for task in ("calculate_new_currents", "distribute_charge", "update_voltages"):
        assert table.region_mem[(task, "rp_shared")] == ("ZCMEM",)
        assert table.region_mem[(task, "rp_ghost")] == ("ZCMEM",)
        assert table.region_mem[(task, "rp_private")] == ("FBMEM",)


def test_positional_region_pattern(machine, circuit_app):
    table = resolve_text(corpus_path("strategies", "09.dsl").read_text(),
                         circuit_app, machine)
    # argument 1 of distribute_charge is rp_shared
    assert table.region_mem[("distribute_charge", "rp_shared")] == ("ZCMEM",)
    assert table.region_mem[("calculate_new_currents", "rp_shared")] == ("FBMEM",)


def test_region_proc_slot_guards_on_chosen_kind(machine):
    region = RegionSpec("r", 8, 1e6)
    app = make_app(
        [simple_task("gputask", procs=("GPU",), args=[TaskArg("r", 1.0)]),
         simple_task("cputask", procs=("CPU",), args=[TaskArg("r", 1.0)])],
        regions=[region])
    table = resolve_text("Task * GPU,CPU;\nRegion * * GPU FBMEM;\n"
                         "Region * * CPU SYSMEM;", app, machine)
    assert table.region_mem[("gputask", "r")] == ("FBMEM",)
    assert table.region_mem[("cputask", "r")] == ("SYSMEM",)


def test_missing_memory_placement_is_diagnosed(machine):
    region = RegionSpec("r", 8, 1e6)
    app = make_app([simple_task("t", procs=("GPU",), args=[TaskArg("r", 1.0)])],
                   regions=[region])
    program = parse_valid("Task * GPU;\nRegion * * CPU SYSMEM;")
    result = resolve(program, app, machine)
    assert [d.message for d in result] == ["no memory placement for task t region r"]


def test_layout_defaults_and_overrides(machine, circuit_app):
    table = resolve_text(corpus_path("strategies", "03.dsl").read_text(),
                         circuit_app, machine)
    choice = table.region_layout[("calculate_new_currents", "rp_private")]
    assert choice == LayoutChoice("AOS", "C_order", None)

    table = resolve_text(corpus_path("strategies", "05.dsl").read_text(),
                         circuit_app, machine)
    choice = table.region_layout[("calculate_new_currents", "rp_private")]
    assert choice == LayoutChoice("SOA", "F_order", ("==", 64))


def test_instance_limit_and_collect(machine, circuit_app):
    table = resolve_text(corpus_path("strategies", "08.dsl").read_text(),
                         circuit_app, machine)
    assert table.instance_limit == {"calculate_new_currents": 4}

    table = resolve_text(corpus_path("strategies", "07.dsl").read_text(),
                         circuit_app, machine)
    assert table.collect == frozenset(
        ("calculate_new_currents", r)
        for r in ("rp_private", "rp_shared", "rp_ghost", "rp_wires"))


def test_multiple_index_task_maps_last_wins(machine):
    source = corpus_path("generated", "solomonik_iter10.dsl").read_text()
    app = load_app_named("solomonik")
    table = resolve_text(source, app, machine)
    assert table.index_map == {"task_1": "linearize2D", "task_2": "linearize2D"}
    assert set(table.functions) == {"linearize2D"}
    assert [b.name for b in table.bindings] == ["mgpu"]


def test_statements_for_unknown_tasks_are_inert(machine):
    app = make_app([simple_task("t")])
    table = resolve_text("Task * GPU;\nTask elsewhere CPU;\nRegion * * * SYSMEM;",
                         app, machine)
    assert table.task_proc == {"t": "GPU"}


# -- decision dimensions ---------------------------------------------------------


def test_stencil_dimension_structure(stencil_app):
    dims = decision_dimensions(stencil_app)
    kinds = [d.dim_id[0] for d in dims]
    assert kinds == ["proc"] * 2 + ["mem"] * 12 + ["layout"] * 12
    sizes = [len(d.options) for d in dims]
    assert sizes == [2] * 2 + [2] * 12 + [4] * 12
    assert search_space_size(stencil_app) == 2 ** 38


def test_single_task_no_region_app_has_one_dimension():
    app = make_app([simple_task("only", procs=("GPU", "CPU"))])
    dims = decision_dimensions(app)
    assert len(dims) == 1
    assert dims[0].dim_id == ("proc", "only")
    assert search_space_size(app) == 2


def test_map_options_add_a_dimension(cannon_app):
    dims = decision_dimensions(cannon_app)
    assert dims[-1].dim_id == ("imap", "shift_multiply")
    assert len(dims[-1].options) == 7
    assert search_space_size(cannon_app) == 2 * 2 ** 3 * 4 ** 3 * 7


def table_choices(table, app):
    """The option ``table`` holds in each decision dimension of ``app``,
    which may fall outside the declared options for a hand-written
    mapper."""
    choices = []
    for dim in decision_dimensions(app):
        kind, key = dim.dim_id[0], dim.dim_id[1:]
        if kind == "proc":
            choices.append(table.task_proc[key[0]])
        elif kind == "mem":
            choices.append(table.region_mem[key])
        elif kind == "layout":
            choices.append(table.region_layout[key])
        else:  # imap
            choices.append(table.index_map.get(key[0]))
    return choices


def test_vector_round_trip_on_corpus_tables(machine, circuit_app):
    # Circuit declares no index-map candidates, so its vectors cover
    # processor, memory, and layout dimensions.
    for strategy in range(1, 11):
        source = corpus_path("strategies", f"{strategy:02d}.dsl").read_text()
        program = parse_valid(source)
        table = resolve(program, circuit_app, machine)
        rebuilt = table_from_choices(circuit_app, table_choices(table, circuit_app))
        assert rebuilt.task_proc == table.task_proc
        assert rebuilt.region_mem == table.region_mem
        assert rebuilt.region_layout == table.region_layout


def test_vector_round_trip_covers_index_maps(machine):
    # Index-map choices name built-in functions; a table resolved from
    # the emitted text gives back the same choices and definitions.
    app = load_app_named("solomonik")
    choices = [d.options[-1] for d in decision_dimensions(app)]
    program = emit(table_from_choices(app, choices), app)
    table = resolve_text(print_program(program), app, machine)
    rebuilt = table_from_choices(app, table_choices(table, app))
    assert rebuilt.index_map == table.index_map == {
        "task_1": "special_linearize3D", "task_2": "cyclic2D"}
    assert rebuilt.functions == table.functions
    assert rebuilt.bindings == table.bindings


# -- emit -------------------------------------------------------------------------


def test_uniform_table_compresses_to_wildcard(machine):
    app = make_app([simple_task("a"), simple_task("b")])
    table = resolve_text("Task * GPU;\nRegion * * * SYSMEM;", app, machine)
    program = emit(table, app)
    assert program.statements[0] == TaskStmt("*", ("GPU",))
    assert not any(isinstance(s, TaskStmt) and s.task_pattern != "*"
                   for s in program.statements)


def test_exceptional_tasks_get_override_statements(machine):
    app = make_app([simple_task("a"), simple_task("b"), simple_task("c")])
    table = resolve_text("Task * GPU;\nTask b CPU;\nRegion * * * SYSMEM;",
                         app, machine)
    program = emit(table, app)
    assert TaskStmt("b", ("CPU",)) in program.statements


def emit_round_trip(table, app, machine):
    program = emit(table, app)
    text = print_program(program)
    reparsed = parse_valid(text)
    assert not validate(reparsed)
    again = resolve(reparsed, app, machine)
    assert not isinstance(again, list)
    assert again == table


def test_emit_fixed_point_on_experts(machine):
    for name in ("stencil", "circuit", "pennant", "cannon", "solomonik"):
        app = load_app_named(name)
        table = resolve_text(expert_source(name), app, machine)
        emit_round_trip(table, app, machine)


def test_emit_of_an_app_without_tasks_is_empty(machine):
    app = make_app([])
    table = table_from_choices(app, [])
    assert emit(table, app) == MapperProgram(())
    emit_round_trip(table, app, machine)


def test_emit_keeps_extras(machine, circuit_app):
    table = resolve_text(corpus_path("strategies", "08.dsl").read_text(),
                         circuit_app, machine)
    emit_round_trip(table, circuit_app, machine)
    table = resolve_text(corpus_path("strategies", "07.dsl").read_text(),
                         circuit_app, machine)
    emit_round_trip(table, circuit_app, machine)


def test_emit_round_trip_on_every_resolving_corpus_pair(machine, single_node_machine):
    # Every corpus mapper against every bundled app on both machines;
    # the pairs that resolve include hand-written Align layouts.
    programs = [parse(path.read_text()) for path in corpus_dsl_files()]
    tables = aligned = 0
    for model in (machine, single_node_machine):
        for path in sorted(corpus_path("apps").glob("*.app")):
            app = load_app(path)
            for program in programs:
                table = resolve(program, app, model)
                if isinstance(table, list):
                    continue
                emit_round_trip(table, app, model)
                tables += 1
                aligned += any(layout.align for layout in table.region_layout.values())
    assert (tables, aligned) == (552, 44)


def test_emit_round_trip_keeps_single_task_map(machine):
    region = RegionSpec("scratch", 8, 1e5, (("FBMEM",),))
    single = TaskSpec("finalize", "single", (1,), 1e6, (VariantSpec("GPU"),),
                      (TaskArg("scratch", 1e3),), ("GPU",))
    app = make_app([single], regions=[region])
    table = resolve_text("""
Task * GPU;
Region * * * FBMEM;
mgpu = Machine(GPU);
def pin(Task t) { return mgpu[1, 2]; }
SingleTaskMap finalize pin;
""", app, machine)
    assert table.single_map == {"finalize": "pin"}
    emit_round_trip(table, app, machine)


@pytest.mark.parametrize("app_name", ["stencil", "circuit"])
def test_resolve_emit_identity_on_randomized_tables(app_name, machine):
    app = load_app_named(app_name)
    dims = decision_dimensions(app)
    rng = random.Random(1234)
    tasks = [t.name for t in app.tasks]
    for trial in range(1000):
        choices = [rng.choice(d.options) for d in dims]
        table = table_from_choices(app, choices)
        if trial % 3 == 0:
            table.instance_limit[rng.choice(tasks)] = rng.randrange(1, 9)
        if trial % 5 == 0:
            task = rng.choice(app.tasks)
            if task.args:
                table = replace(table, collect=frozenset(
                    {(task.name, rng.choice(task.args).region)}))
        emit_round_trip(table, app, machine)


def test_redundant_wildcard_before_specific_never_changes_table(
        machine, circuit_app):
    source = corpus_path("strategies", "09.dsl").read_text()
    program = parse_valid(source)
    base_table = resolve(program, circuit_app, machine)
    # Insert redundant wildcards at the front: specific statements still win.
    padded = MapperProgram(
        (TaskStmt("*", ("CPU", "GPU")),
         RegionStmt("*", "*", "*", ("RDMEM",))) + program.statements)
    padded_table = resolve(padded, circuit_app, machine)
    assert padded_table.task_proc == base_table.task_proc
    assert padded_table.region_mem == base_table.region_mem

    # Appending an equally specific statement after changes only the
    # slots that no more specific statement covers.
    appended = MapperProgram(
        program.statements + (RegionStmt("*", "*", "GPU", ("RDMEM",)),))
    appended_table = resolve(appended, circuit_app, machine)
    assert appended_table.region_mem[("distribute_charge", "rp_shared")] == ("ZCMEM",)
    assert appended_table.region_mem[("calculate_new_currents", "rp_private")] == ("RDMEM",)


def test_resolve_is_deterministic(machine, circuit_app):
    source = corpus_path("strategies", "02.dsl").read_text()
    program = parse_valid(source)
    assert resolve(program, circuit_app, machine) == resolve(
        program, circuit_app, machine)


# -- closure of the bindings a mapping function needs ---------------------------


@pytest.mark.parametrize("name,options", [
    ("cannon", ("block1D_x", "block1D_y", "cyclic1D_x", "cyclic1D_y")),
    ("pumma", ("block1D_x", "block1D_y", "cyclic1D_x", "cyclic1D_y")),
    ("summa", ("block1D_x", "block1D_y", "cyclic1D_x", "cyclic1D_y")),
    ("cosma", ("block3d",)),
    ("johnson", ("block3d",)),
])
def test_vector_candidates_keep_transitive_bindings(name, options, machine, costs):
    # m1 = m.merge(0, 1).split(0, 1) needs m; m_6d = m.split(...) needs m.
    from mapforge.simulator import SimResult, simulate

    app = load_app_named(name)
    dims = decision_dimensions(app)
    for option in options:
        choices = [option if d.dim_id[0] == "imap" else
                   ("GPU" if "GPU" in d.options else d.options[0]) for d in dims]
        table = table_from_choices(app, choices)
        assert {b.name for b in table.bindings} >= {"m"}
        result = simulate(app, table, machine, costs)
        assert isinstance(result, SimResult), (option, result)


def test_closure_follows_bindings_transitively():
    program = parse_valid("""
a = Machine(GPU);
b = a.merge(0, 1);
c = b.split(0, 1);
unused = Machine(CPU);
def f(Task t) { return c[0, 0]; }
""")
    functions, bindings = closure_of(program.functions, program, {"f"})
    assert list(functions) == ["f"]
    assert [b.name for b in bindings] == ["a", "b", "c"]


def test_closure_keeps_every_binding_of_a_rebound_name():
    program = parse_valid("""
a = Machine(GPU);
b = Machine(CPU);
a = b.merge(0, 1);
unused = Machine(OMP);
def f(Task t) { return a[0]; }
""")
    functions, bindings = closure_of(program.functions, program, {"f"})
    assert list(functions) == ["f"]
    assert bindings == program.statements[:3]


def test_a_vector_text_binds_m_once(machine):
    # block2D uses m, which common_mappings.dsl and block3d.dsl both bind;
    # the merged library keeps one binding, so the text carries one.
    app = load_app_named("cannon")
    dims = decision_dimensions(app)
    choices = [("block2D" if d.dim_id[0] == "imap" else d.options[0]) for d in dims]
    text = print_program(emit(table_from_choices(app, choices), app))
    assert text.split("\n").count("m = Machine(GPU);") == 1
    assert resolve(parse(text), app, machine) == table_from_choices(app, choices)
