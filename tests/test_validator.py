import random
import time

from mapforge.parser import parse
from mapforge.validator import MAX_CALL_DEPTH, free_names, validate

from conftest import corpus_dsl_files


def diags(source):
    program = parse(source)
    assert not isinstance(program, list), program[0].message
    return [d.message for d in validate(program)]


def test_corpus_validates_clean():
    for path in corpus_dsl_files():
        program = parse(path.read_text())
        problems = validate(program)
        assert not problems, (path.name, [d.message for d in problems])


def test_undefined_index_task_map_function():
    assert diags("IndexTaskMap task0 nosuch;") == ["IndexTaskMap's function undefined"]


def test_undefined_single_task_map_function():
    assert diags("SingleTaskMap task0 nosuch;") == ["SingleTaskMap's function undefined"]


def test_unbound_global_in_function_body():
    messages = diags("def f(Task task) { return mgpu[0, 0]; }")
    assert "mgpu not found" in messages


def test_top_level_binding_makes_name_available():
    source = """
mgpu = Machine(GPU);
def f(Task task) { return mgpu[0, 0]; }
IndexTaskMap task0 f;
"""
    assert diags(source) == []


def test_local_assignment_binds_in_order():
    assert "ip not found" in diags("def f(Task t) { x = ip; ip = t.ipoint; }")
    assert diags("def f(Task t) { ip = t.ipoint; x = ip; }") == []


def test_unbound_name_in_top_level_binding():
    assert diags("x = y + 1;") == ["y not found"]


def test_duplicate_function_definition():
    source = "def f(Task t) { return t; }\ndef f(Task t) { return t; }"
    assert any("defined more than once" in m for m in diags(source))


def test_duplicate_proc_and_mem():
    assert any("duplicate processor" in m for m in diags("Task t GPU,GPU;"))
    assert any("duplicate memory" in m for m in diags("Region t r GPU FBMEM,FBMEM;"))


def test_conflicting_layout_constraints():
    assert any("at most one of SOA" in m for m in diags("Layout * * * SOA AOS;"))
    assert any("at most one of C_order" in m
               for m in diags("Layout * * * C_order F_order;"))


def test_alignment_power_of_two():
    assert any("power of two" in m for m in diags("Layout * * * Align==48;"))
    assert diags("Layout * * * Align==128;") == []


def test_instance_limit_minimum():
    assert any("at least 1" in m for m in diags("InstanceLimit t 0;"))


def test_recursion_rejected():
    source = """
mgpu = Machine(GPU);
def f(Task t) { x = g(1); return mgpu[0, 0]; }
def g(int n) { return f(n); }
"""
    messages = diags(source)
    assert any("recursive" in m for m in messages)


def test_call_arity_checked():
    source = """
def helper(int a, int b) { return a + b; }
x = helper(1);
"""
    assert any("expected 2" in m for m in diags(source))


def test_entry_function_must_return_processor():
    source = """
def f(Task t) { return 3; }
IndexTaskMap task0 f;
"""
    assert any("must return a processor" in m for m in diags(source))


def test_entry_function_needs_mapping_signature():
    source = """
def f(int a) { return a; }
IndexTaskMap task0 f;
"""
    assert any("must take" in m for m in diags(source))


def test_entry_function_via_space_variable_is_accepted():
    source = """
mgpu = Machine(GPU);
def f(Tuple ipoint, Tuple ispace) {
    m2 = mgpu.merge(0, 1).split(0, 4);
    idx = ipoint % m2.size;
    return m2[*idx];
}
IndexTaskMap task0 f;
"""
    assert diags(source) == []


def test_unknown_space_attribute_flagged():
    source = "mgpu = Machine(GPU);\nx = mgpu.extent;"
    assert any(".extent" in m for m in diags(source))


def test_free_names_sees_through_locals():
    program = parse("""
def f(Task t) {
    ip = t.ipoint;
    idx = ip[0] % mgpu.size[0];
    return mgpu[idx, other];
}
""")
    func = program.functions["f"]
    assert free_names(func) == {"mgpu", "other"}


def test_validation_is_pure():
    source = corpus_dsl_files()[0].read_text()
    program = parse(source)
    assert validate(program) == validate(program)


def recursive_by_paths(calls):
    """Reference: the functions on some call cycle, found by following
    every call path (exponential in the worst case)."""
    recursive = set()

    def visit(name, stack):
        if name in stack:
            recursive.update(stack[stack.index(name):])
            return
        for callee in calls[name]:
            visit(callee, stack + (name,))

    for name in calls:
        visit(name, ())
    return recursive


def call_graph_program(calls):
    lines = []
    for name, callees in calls.items():
        body = " + ".join(f"{c}(a)" for c in sorted(callees)) or "a"
        lines.append(f"def {name}(int a) {{ return {body}; }}")
    return "\n".join(lines)


def recursive_reported(source):
    prefix = "recursive mapping function "
    return {m[len(prefix):] for m in diags(source) if m.startswith(prefix)}


def test_recursion_set_matches_path_enumeration():
    # f1 -> f3 -> f2 -> f1 is a cycle that a back-edge-only search misses
    # when f2 is finished before f3 is reached.
    cases = [{"f1": {"f2", "f3"}, "f2": {"f1"}, "f3": {"f2"}}]
    rng = random.Random(0)
    for _ in range(300):
        names = [f"f{i}" for i in range(rng.randint(1, 7))]
        cases.append({n: {c for c in names if rng.random() < 0.25} for n in names})
    for calls in cases:
        assert recursive_reported(call_graph_program(calls)) == \
            recursive_by_paths(calls), calls


def test_diamond_call_graph_validates_in_linear_time():
    # f{k} calls a{k} and b{k}, which both call f{k-1}.
    calls = {"f0": set()}
    for k in range(1, 41):
        calls.update({f"a{k}": {f"f{k - 1}"}, f"b{k}": {f"f{k - 1}"},
                      f"f{k}": {f"a{k}", f"b{k}"}})
    start = time.perf_counter()
    messages = diags(call_graph_program(calls))
    assert time.perf_counter() - start < 2.0
    assert messages == [f"call chain from f40 is more than {MAX_CALL_DEPTH} calls deep"]
    calls["f0"] = {"f40"}
    assert recursive_reported(call_graph_program(calls)) == set(calls)


def test_call_chain_limit_counts_calls_from_bindings_and_functions():
    chain = ["def g0(int a) { return a; }"]
    chain += [f"def g{k}(int a) {{ return g{k - 1}(a); }}"
              for k in range(1, MAX_CALL_DEPTH + 1)]
    source = "\n".join(chain) + "\n"
    top = f"g{MAX_CALL_DEPTH}"
    assert diags(source + f"x = g{MAX_CALL_DEPTH - 1}(1);") == []
    assert diags(source + f"x = {top}(1);") == [
        f"call chain from x is more than {MAX_CALL_DEPTH} calls deep"]
    assert diags(source + f"def f(int a) {{ return {top}(a); }}") == [
        f"call chain from f is more than {MAX_CALL_DEPTH} calls deep"]
