import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mapforge.evaluator import (
    INT_LIMIT, EvalEnv, EvalError, TaskHandle, build_env, builtin_library,
    builtin_program, call_function, corpus_path, eval_expr, eval_launch,
    eval_mapping, idiv, imod,
)
from mapforge.machine import ProcIndex, default_machine
from mapforge.parser import parse_valid
from mapforge.validator import validate


def expr_of(source):
    return parse_valid(f"x = {source};").statements[0].expr


def ev(source, machine=None, bindings=None):
    env = EvalEnv(machine or default_machine(2, 2), globals=bindings or {})
    return eval_expr(expr_of(source), env)


def handle(ipoint, ispace, **kwargs):
    return TaskHandle("t", tuple(ipoint), tuple(ispace), **kwargs)


def points_of(ispace):
    return itertools.product(*(range(e) for e in ispace))


# -- integer and tuple semantics ---------------------------------------------


def test_division_truncates_toward_zero():
    assert ev("5 / 2") == 2
    assert idiv(-5, 2) == -2
    assert idiv(5, -2) == -2
    assert imod(-5, 2) == -1  # a == idiv(a,b)*b + imod(a,b)


def test_elementwise_tuple_arithmetic():
    assert ev("(3, 1) * (2, 2) / (4, 4)") == (1, 0)


def test_tuple_scalar_broadcast():
    assert ev("(3, 5) % 2") == (1, 1)
    assert ev("8 / (2, 4)") == (4, 2)


def test_tuple_length_mismatch():
    with pytest.raises(EvalError, match="length mismatch"):
        ev("(1, 2) + (1, 2, 3)")


def test_division_by_zero():
    with pytest.raises(EvalError, match="division by zero"):
        ev("1 / 0")


def test_ternary_is_lazy():
    assert ev("x ? 3 : 0 / 0", bindings={"x": 1}) == 3
    assert ev("x ? 0 / 0 : 4", bindings={"x": 0}) == 4


def test_comparisons_yield_ints():
    assert ev("3 > 2") == 1
    assert ev("(3 > 2) + (1 == 2)") == 1


def test_space_size_and_subscript():
    machine = default_machine(2, 4)
    assert ev("Machine(GPU).size", machine) == (2, 4)
    assert ev("Machine(GPU)[1, 3]", machine) == ProcIndex(1, 3)


def test_splat_expands_tuple_subscripts():
    machine = default_machine(2, 4)
    assert ev("Machine(GPU)[*t]", machine, {"t": (1, 2)}) == ProcIndex(1, 2)


def test_space_subscript_arity_checked():
    with pytest.raises(EvalError, match="takes 2 subscripts"):
        ev("Machine(GPU)[1]")


def test_tuple_index_bounds():
    with pytest.raises(EvalError, match="out of range"):
        ev("t[5]", bindings={"t": (1, 2)})


def test_results_past_the_integer_limit_are_errors():
    half = {"a": 2 ** 2048}
    assert ev("a * (a - 1)", bindings=half) == INT_LIMIT - 2 ** 2048
    for source in ("a * a", "0 - a * (a - 1) - a"):
        with pytest.raises(EvalError, match="integer overflow"):
            ev(source, bindings=half)


def test_integer_overflow_is_reported_at_the_first_point():
    big = "9" * 1000
    program = parse_valid(
        f"m = Machine(GPU);\ndef f(Task t) {{ x = (t.ipoint[0] > 2 ? {big} : 1) * {big}; "
        "return m[0, 0]; }")
    procs, error = eval_launch(program.functions["f"], "t", (8,),
                               build_env(program, default_machine(2, 2)))
    assert procs.tolist() == [[0, 0]] * 3
    assert str(error) == "integer overflow"


@given(st.integers(-100, 100), st.integers(-100, 100).filter(bool))
def test_trunc_division_identity(a, b):
    assert idiv(a, b) * b + imod(a, b) == a
    assert abs(imod(a, b)) < abs(b)


# -- mapping functions ---------------------------------------------------


def test_cyclic_from_intro_example():
    program = parse_valid(corpus_path("examples", "intro_gpu_cyclic.dsl").read_text())
    env = build_env(program, default_machine(2, 2))
    result = eval_mapping(program.functions["cyclic"], handle((3,), (8,)), env)
    assert result == ProcIndex(1, 1)


def test_cyclic1d_from_strategy_corpus():
    program = parse_valid(corpus_path("strategies", "10.dsl").read_text())
    env = build_env(program, default_machine(2, 4))
    result = eval_mapping(program.functions["cyclic1d"], handle((5,), (8,)), env)
    assert result == ProcIndex(1, 2)  # node 5%2, gpu (5/2)%4


def test_origin_maps_to_origin_for_all_builtins():
    program = builtin_program()
    env = build_env(program, default_machine(2, 2))
    for name in ["block2D", "block1D_x", "block1D_y", "cyclic2D",
                 "cyclic1D_x", "cyclic1D_y", "blockcyclic"]:
        func = program.functions[name]
        assert eval_mapping(func, handle((0, 0), (4, 4)), env) == ProcIndex(0, 0)


def test_block2d_assigns_contiguous_quadrants():
    # Brute force: with a (2, 2) machine over a (4, 4) space each
    # processor must receive exactly the 2x2 box of points whose halves
    # match its coordinates.
    program = builtin_program()
    env = build_env(program, default_machine(2, 2))
    func = program.functions["block2D"]
    owners = {}
    for point in points_of((4, 4)):
        proc = eval_mapping(func, handle(point, (4, 4)), env)
        owners.setdefault((proc.node, proc.local), set()).add(point)
    assert owners == {
        (a, b): {(x, y) for x in range(2 * a, 2 * a + 2)
                 for y in range(2 * b, 2 * b + 2)}
        for a in range(2) for b in range(2)}


def test_block2d_even_coverage_forms_boxes():
    program = builtin_program()
    env = build_env(program, default_machine(2, 4))
    func = program.functions["block2D"]
    ispace = (4, 8)
    owners = {}
    for point in points_of(ispace):
        proc = eval_mapping(func, handle(point, ispace), env)
        owners.setdefault(proc, []).append(point)
    per_proc = len(list(points_of(ispace))) // 8
    for points in owners.values():
        assert len(points) == per_proc
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        box = {(x, y) for x in range(min(xs), max(xs) + 1)
               for y in range(min(ys), max(ys) + 1)}
        assert set(points) == box


def test_cyclic2d_wraps_coordinates():
    program = builtin_program()
    env = build_env(program, default_machine(2, 2))
    func = program.functions["cyclic2D"]
    assert eval_mapping(func, handle((3, 3), (4, 4)), env) == ProcIndex(1, 1)


def test_blockcyclic_formula():
    program = builtin_program()
    env = build_env(program, default_machine(2, 2))
    func = program.functions["blockcyclic"]
    # idx = ipoint / m.size % m.size at (5, 1): ((5/2)%2, (1/2)%2) = (0, 0)
    assert eval_mapping(func, handle((5, 1), (8, 8)), env) == ProcIndex(0, 0)


def test_helper_primitives_compute_components():
    program = builtin_program()
    env = build_env(program, default_machine(2, 4))
    block = program.functions["block_primitive"]
    cyclic = program.functions["cyclic_primitive"]
    assert call_function(block, [(3, 1), (4, 4), (2, 4), 0, 0], env) == 1
    assert call_function(cyclic, [(3, 1), (4, 4), (2, 4), 1, 1], env) == 1


def test_parent_processor_routing():
    program = parse_valid(corpus_path("generated", "circuit_iter10.dsl").read_text())
    env = build_env(program, default_machine(2, 4))
    parent = TaskHandle("leader", (0,), (1,), processor=ProcIndex(1, 2))
    child = handle((0,), (1,), parent=parent)
    assert eval_mapping(program.functions["same_point"], child, env) == ProcIndex(1, 2)


def test_unmapped_parent_errors():
    program = parse_valid(corpus_path("generated", "circuit_iter10.dsl").read_text())
    env = build_env(program, default_machine(2, 4))
    child = handle((0,), (1,), parent=TaskHandle("leader", (0,), (1,)))
    with pytest.raises(EvalError, match="not mapped to a processor"):
        eval_mapping(program.functions["same_point"], child, env)


def test_missing_parent_errors():
    program = parse_valid(corpus_path("generated", "circuit_iter10.dsl").read_text())
    env = build_env(program, default_machine(2, 4))
    with pytest.raises(EvalError, match="has no parent"):
        eval_mapping(program.functions["same_point"], handle((0,), (1,)), env)


def test_mapping_signature_is_checked_as_the_validator_does():
    program = parse_valid("def f(int a) { return a; }\nIndexTaskMap t f;")
    env = EvalEnv(default_machine(), functions=program.functions)
    message = ("function f must take (Task task) or "
               "(Tuple ipoint, Tuple ispace) parameters")
    assert message in [d.message for d in validate(program)]
    with pytest.raises(EvalError) as raised:
        eval_mapping(program.functions["f"], handle((0,), (1,)), env)
    assert str(raised.value) == message


def test_mapping_must_return_processor():
    program = parse_valid("def f(Task t) { return 3; }")
    env = EvalEnv(default_machine(), functions=program.functions)
    with pytest.raises(EvalError, match="must return a processor"):
        eval_mapping(program.functions["f"], handle((0,), (1,)), env)


def test_out_of_range_subscript_propagates_lookup_message():
    program = parse_valid("""
mgpu = Machine(GPU);
def f(Task t) { return mgpu[t.ipoint[0], 0]; }
""")
    env = build_env(program, default_machine(2, 4))
    with pytest.raises(EvalError, match="Slice processor index out of bound"):
        eval_mapping(program.functions["f"], handle((7,), (8,)), env)


def test_special_linearize_needs_even_decompose(single_node_machine):
    program = parse_valid(corpus_path("builtins", "matmul_mappings.dsl").read_text())
    func = program.functions["special_linearize3D"]
    env = build_env(program, single_node_machine)
    assert eval_mapping(func, handle((1, 0, 0), (4, 2, 2)), env).node == 0
    env2 = build_env(program, default_machine(2, 4))
    with pytest.raises(EvalError, match="decompose shape"):
        eval_mapping(func, handle((1, 0, 0), (4, 2, 2)), env2)


# -- totality over the corpus -------------------------------------------------

TOTALITY_CASES = [
    # (file, function, iteration space)
    (("examples", "intro_gpu_cyclic.dsl"), "cyclic", (8,)),
    (("strategies", "01.dsl"), "linearblock", (8,)),
    (("strategies", "10.dsl"), "cyclic1d", (8,)),
    (("generated", "solomonik_iter2.dsl"), "block1d", (8,)),
    (("generated", "solomonik_iter10.dsl"), "block1d", (8,)),
    (("generated", "solomonik_iter10.dsl"), "cyclic1d", (4, 4, 4)),
    (("generated", "solomonik_iter10.dsl"), "cyclic2d", (4, 4, 4)),
    (("generated", "solomonik_iter10.dsl"), "linearize3D", (4, 4, 4)),
    (("generated", "solomonik_iter10.dsl"), "linearize2D", (4, 4, 4)),
    (("builtins", "common_mappings.dsl"), "block2D", (4, 4)),
    (("builtins", "common_mappings.dsl"), "block1D_x", (4, 4)),
    (("builtins", "common_mappings.dsl"), "block1D_y", (4, 4)),
    (("builtins", "common_mappings.dsl"), "cyclic2D", (4, 4)),
    (("builtins", "common_mappings.dsl"), "cyclic1D_x", (4, 4)),
    (("builtins", "common_mappings.dsl"), "cyclic1D_y", (4, 4)),
    (("builtins", "common_mappings.dsl"), "blockcyclic", (4, 4)),
    (("builtins", "matmul_mappings.dsl"), "linearize_cyclic", (4, 4, 4)),
    (("builtins", "matmul_mappings.dsl"), "conditional_linearize3D", (4, 4, 4)),
    (("builtins", "block3d.dsl"), "block3d", (4, 4, 4)),
]


@pytest.mark.parametrize("location,name,ispace", TOTALITY_CASES,
                         ids=[c[1] + str(c[2]) for c in TOTALITY_CASES])
def test_corpus_functions_total_on_two_node_machine(location, name, ispace):
    machine = default_machine(2, 4)
    program = parse_valid(corpus_path(*location).read_text())
    env = build_env(program, machine)
    func = program.functions[name]
    for point in points_of(ispace):
        proc = eval_mapping(func, handle(point, ispace), env)
        assert 0 <= proc.node < machine.nodes
        assert 0 <= proc.local < machine.count("GPU")


def test_same_point_total_for_mapped_parents():
    machine = default_machine(2, 4)
    for file in ("circuit_iter2.dsl", "circuit_iter10.dsl",
                 "solomonik_iter2.dsl", "solomonik_iter10.dsl"):
        program = parse_valid(corpus_path("generated", file).read_text())
        env = build_env(program, machine)
        func = program.functions["same_point"]
        for node in range(2):
            for local in range(4):
                parent = TaskHandle("p", (0,), (1,), processor=ProcIndex(node, local))
                result = eval_mapping(func, handle((0,), (1,), parent=parent), env)
                assert result == ProcIndex(node, local)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_modular_node_and_local_never_out_of_bounds(raw):
    # Any function whose node index ends in % size[0] and local index in
    # % size[1] stays in range; this is the standard out-of-bounds fix.
    machine = default_machine(2, 4)
    program = parse_valid("""
mgpu = Machine(GPU);
def f(Task t) {
    return mgpu[t.ipoint[0] % mgpu.size[0], t.ipoint[0] % mgpu.size[1]];
}
""")
    env = build_env(program, machine)
    proc = eval_mapping(program.functions["f"], handle((raw,), (10 ** 6 + 1,)), env)
    assert 0 <= proc.node < 2 and 0 <= proc.local < 4


def test_determinism():
    program = builtin_program()
    env = build_env(program, default_machine(2, 4))
    func = program.functions["block2D"]
    results = {eval_mapping(func, handle((2, 3), (4, 4)), env) for _ in range(5)}
    assert len(results) == 1


def test_builtin_library_names():
    library = builtin_library()
    for name in ["block2D", "block1D_x", "block1D_y", "cyclic2D", "cyclic1D_x",
                 "cyclic1D_y", "blockcyclic", "block_primitive",
                 "cyclic_primitive", "linearize_cyclic", "special_linearize3D",
                 "conditional_linearize3D", "block3d"]:
        assert name in library


def test_builtins_are_parsed_once_across_candidates(monkeypatch):
    from mapforge import parser
    from mapforge.binder import decision_dimensions, table_from_choices

    from conftest import load_app_named

    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_valid(text)

    builtin_program.cache_clear()
    monkeypatch.setattr(parser, "parse_valid", counting)
    for name in ("cannon", "circuit"):
        app = load_app_named(name)
        dims = decision_dimensions(app)
        for k in range(20):
            table_from_choices(app, [d.options[k % len(d.options)] for d in dims])
    assert len(parsed) == 3


def test_builtin_library_is_unchanged_by_callers():
    library = builtin_library()
    names = list(library)
    del library["block2D"]
    library["cyclic2D"] = None
    assert list(builtin_library()) == names
    assert builtin_library()["cyclic2D"] is builtin_program().functions["cyclic2D"]
