"""Point assignment and simulation against per-point references.

The simulator runs each mapping function once per task over all launch
points.  These tests hold it to what evaluating the points one by one
gives: outputs pinned bit for bit from the per-point simulator, error
texts written down from it, and a per-point loop over ``eval_mapping``
kept here as the reference.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mapforge.binder import decision_dimensions, resolve, table_from_choices
from mapforge.configs import (
    ApplicationDescriptor, RegionSpec, TaskArg, TaskSpec, VariantSpec,
)
from mapforge.ast import MapperProgram
from mapforge.evaluator import EvalError, TaskHandle, build_env, eval_mapping
from mapforge.machine import ProcIndex, SpaceError
from mapforge.parser import parse_valid
from mapforge.simulator import MappingError, SimResult, assign_points, simulate

import pinned_outputs
from conftest import APP_NAMES, TOY_NAMES, load_app_named


def per_point(app, table, machine):
    """Reference: ``assign_points`` as a loop over the points, calling
    ``eval_mapping`` on each, or the block formula without a function."""
    program = MapperProgram(table.bindings + tuple(table.functions.values()))
    try:
        env = build_env(program, machine)
    except (EvalError, SpaceError) as exc:
        return MappingError(str(exc))
    root = TaskHandle("__root__", (0,), (1,), processor=ProcIndex(0, 0))
    assignment = {}
    for task in app.tasks:
        kind = table.task_proc[task.name]
        name = (table.index_map.get(task.name) if task.launch == "index"
                else table.single_map.get(task.name))
        func = table.functions.get(name) if name else None
        domain = task.domain if task.launch == "index" else (1,) * len(task.domain)
        points = {}
        for linear, ipoint in enumerate(itertools.product(*map(range, domain))):
            if func is None:
                total = machine.nodes * machine.count(kind)
                block = min(linear * total // math.prod(domain), total - 1)
                points[ipoint] = ProcIndex(*divmod(block, machine.count(kind)))
                continue
            try:
                proc = eval_mapping(func, TaskHandle(task.name, ipoint, domain,
                                                     parent=root), env)
            except EvalError as exc:
                return MappingError(str(exc))
            if not (0 <= proc.node < machine.nodes
                    and 0 <= proc.local < machine.count(kind)):
                return MappingError(
                    f"Slice processor index out of bound: mapping function "
                    f"{name} produced ({proc.node}, {proc.local}) for "
                    f"{machine.nodes} nodes with {machine.count(kind)} "
                    f"{kind} processors each")
            points[ipoint] = proc
        assignment[task.name] = points
    return assignment


def assert_matches_per_point(app, table, machine):
    got = assign_points(app, table, machine)
    want = per_point(app, table, machine)
    if isinstance(want, MappingError):
        assert got == want
        return
    assert not isinstance(got, MappingError), got
    assert {t: list(p.items()) for t, p in got.items()} == {
        t: list(p.items()) for t, p in want.items()}


# -- outputs pinned from the per-point simulator ------------------------------


def test_simulate_matches_pinned_outputs():
    want = json.loads(pinned_outputs.PINNED.read_text())
    got = pinned_outputs.compute()
    assert got.keys() == want.keys()
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, [(k, want[k], got[k]) for k in differing[:3]]


def test_assign_points_matches_per_point_on_pinned_cases():
    for _, app, table, machine in pinned_outputs.cases():
        assert_matches_per_point(app, table, machine)


def test_assign_points_matches_per_point_on_vector_candidates(machine):
    for name in APP_NAMES + TOY_NAMES:
        app = load_app_named(name)
        for dim in decision_dimensions(app):
            if dim.dim_id[0] != "imap":
                continue
            for option in dim.options:
                choices = [option if d.dim_id == dim.dim_id
                           else ("GPU" if "GPU" in d.options else d.options[0])
                           for d in decision_dimensions(app)]
                table = table_from_choices(app, choices)
                assert_matches_per_point(app, table, machine)


# -- hand-written cases, with the per-point simulator's outputs ----------------

HEAD = "Task * {kind};\nRegion * * * FBMEM;\nm = Machine(GPU);\n"

CASES = {
    # name: (function text, launch domain, processor kind, outcome)
    "late_subscript": (
        "def f(Task t) { return m[t.ipoint[0] / 2, t.ipoint[0] % 4]; }", (8,), "GPU",
        "Slice processor index out of bound: (2, 0) is not within a space of size (2, 4)"),
    "late_subscript_2d": (
        "def f(Task t) { return m[t.ipoint[1] / 3, t.ipoint[0]]; }", (4, 8), "GPU",
        "Slice processor index out of bound: (2, 0) is not within a space of size (2, 4)"),
    "division_by_zero": (
        "def f(Task t) { x = 8 / (5 - t.ipoint[0]); return m[0, x % 4]; }", (8,), "GPU",
        "division by zero"),
    "untaken_branch": (
        "def f(Task t) { return t.ipoint[0] < 100 ? m[0, 0] : m[0 / 0, 0]; }",
        (8,), "GPU", [(0, 0)] * 8),
    "partly_taken_branch": (
        "def f(Task t) { x = t.ipoint[0] < 6 ? 0 : 1 / 0; return m[x, 0]; }",
        (8,), "GPU", "division by zero"),
    # Point 5 fails at the first statement, point 3 only at the second:
    # the first failing point in row-major order is reported.
    "first_point_not_first_statement": (
        "def f(Task t) { a = t.ipoint[0] == 5 ? 1 / 0 : 0; "
        "b = t.ipoint[0] == 3 ? (1, 2)[7] : 0; return m[a + b, 0]; }",
        (8,), "GPU", "tuple index 7 out of range for length 2"),
    "huge_constant": (
        "def f(Task t) { n = 99999999999999999999 * t.ipoint[0]; return m[n % 2, n % 3]; }",
        (8,), "GPU", [(0, 0), (1, 0)] * 4),
    "huge_index": (
        "def f(Task t) { return m[t.ipoint[0] * 10000000000000000000, 0]; }",
        (8,), "GPU",
        "Slice processor index out of bound: (10000000000000000000, 0) is not "
        "within a space of size (2, 4)"),
    "overflow_cancels": (
        "def f(Task t) { x = (t.ipoint[0] + 9223372036854775807) - 9223372036854775807; "
        "y = t.ipoint[0] * 4611686018427387904 / 4611686018427387904; "
        "return m[x % 2, y % 4]; }",
        (8,), "GPU", [(0, 0), (1, 1), (0, 2), (1, 3)] * 2),
    "huge_comparison": (
        "def f(Task t) { x = t.ipoint[0] * 10000000000000000000 "
        "> 30000000000000000000 ? 1 : 0; return m[x, 0]; }",
        (8,), "GPU", [(0, 0)] * 4 + [(1, 0)] * 4),
    "negative_truncation": (
        "def f(Task t) { x = (t.ipoint[0] - 3) / 2; y = (t.ipoint[0] - 5) % 3; "
        "return m[x + 1, y + 2]; }", (8,), "GPU",
        "Slice processor index out of bound: (2, 2) is not within a space of size (2, 4)"),
    "point_dependent_slice": (
        "def f(Task t) { s = m.slice(1, t.ipoint[0] % 3, 3); "
        "return s[t.ipoint[0] % 2, 0]; }",
        (8,), "GPU",
        [(0, 0), (1, 1), (0, 2), (1, 0), (0, 1), (1, 2), (0, 0), (1, 1)]),
    "point_dependent_split": (
        "def f(Task t) { s = m.split(1, t.ipoint[0] % 2 + 1); "
        "return s[0, 0, t.ipoint[0] % 2]; }", (8,), "GPU", [(0, 0), (0, 2)] * 4),
    "point_dependent_split_error": (
        "def f(Task t) { s = m.split(1, t.ipoint[0] % 4 + 1); return s[0, 0, 0]; }",
        (8,), "GPU", "split factor 3 does not divide extent 4 of dimension 1"),
    "branch_tuple_lengths": (
        "def f(Task t) { u = t.ipoint[0] % 2 == 0 ? (1, 2) : (1, 2, 3); "
        "return m[u[0], u[t.ipoint[0] % 2 + 1]]; }", (8,), "GPU", [(1, 2), (1, 3)] * 4),
    "branch_tuple_lengths_error": (
        "def f(Task t) { u = t.ipoint[0] % 2 == 0 ? (1, 2) : (1, 2, 3); "
        "return m[u[0], u[2]]; }", (8,), "GPU", "tuple index 2 out of range for length 2"),
    # A split by value inside one branch of a ternary, merged back into
    # the whole batch; the last case fails on some of its points.
    "branch_split": (
        "def f(Task t) { return t.ipoint[0] < 5 "
        "? m.split(1, t.ipoint[0] % 2 + 1)[0, t.ipoint[0] % 2, 1] : m[1, t.ipoint[0] % 4]; }",
        (9,), "GPU",
        [(0, 1), (0, 3), (0, 1), (0, 3), (0, 1), (1, 1), (1, 2), (1, 3), (1, 0)]),
    "nested_branch_split": (
        "def f(Task t) { return t.ipoint[0] < 5 ? (t.ipoint[0] > 0 "
        "? m.split(1, t.ipoint[0] % 2 + 1)[0, t.ipoint[0] % 2, 1] : m[0, 3]) "
        ": m[1, t.ipoint[0] % 4]; }",
        (9,), "GPU",
        [(0, 3), (0, 3), (0, 1), (0, 3), (0, 1), (1, 1), (1, 2), (1, 3), (1, 0)]),
    "branch_split_error": (
        "def f(Task t) { return t.ipoint[0] < 5 "
        "? m.split(1, t.ipoint[0] % 3 + 1)[0, 0, 0] : m[0, 0]; }",
        (9,), "GPU", "split factor 3 does not divide extent 4 of dimension 1"),
    "branch_tuples": (
        "def f(Task t) { u = t.ipoint[0] < 4 ? (0, t.ipoint[0]) : (1, t.ipoint[0] % 4); "
        "return m[*u]; }", (9,), "GPU",
        [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (1, 0)]),
    "branch_spaces": (
        "def f(Task t) { s = t.ipoint[0] < 4 ? m : m; "
        "return s[t.ipoint[0] % 2, t.ipoint[0] % 4]; }", (9,), "GPU",
        [(0, 0), (1, 1), (0, 2), (1, 3), (0, 0), (1, 1), (0, 2), (1, 3), (0, 0)]),
    "branch_kinds": (
        "def f(Task t) { u = t.ipoint[0] < 4 ? m[0, 1] : 3; return u; }", (8,), "GPU",
        "mapping function f must return a processor, got int"),
    "branch_processors": (
        "def f(Task t) { return t.ipoint[0] < 4 "
        "? m[0, t.ipoint[0]] : m[1, 7 - t.ipoint[0]]; }",
        (8,), "GPU",
        [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (1, 1), (1, 0)]),
    "nested_call": (
        "def g(Tuple p, Tuple s) { return p[0] * m.size[1] / s[0]; }\n"
        "def f(Tuple p, Tuple s) { return m[p[1] % 2, g(p, s)]; }", (8, 2), "GPU",
        [(0, 0), (1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (0, 1), (1, 1),
         (0, 2), (1, 2), (0, 2), (1, 2), (0, 3), (1, 3), (0, 3), (1, 3)]),
    "outside_the_machine": (
        "def f(Task t) { return m[0, t.ipoint[0] % 4]; }", (8,), "OMP",
        "Slice processor index out of bound: mapping function f produced (0, 2) "
        "for 2 nodes with 2 OMP processors each"),
    "outside_the_machine_first": (
        "def f(Task t) { x = 6 / (6 - t.ipoint[0]); return m[0, t.ipoint[0] % 4]; }",
        (8,), "OMP",
        "Slice processor index out of bound: mapping function f produced (0, 2) "
        "for 2 nodes with 2 OMP processors each"),
    "error_before_outside_the_machine": (
        "def f(Task t) { x = 6 / (1 - t.ipoint[0]); return m[0, t.ipoint[0] % 4]; }",
        (8,), "OMP", "division by zero"),
}


def one_task_app(domain, kind):
    region = RegionSpec("r", 8, 1e6, (("FBMEM",),))
    task = TaskSpec("work", "index", domain, 1e6, (VariantSpec(kind),),
                    (TaskArg("r", 1e3),), (kind,))
    return ApplicationDescriptor("one", "time", 1, (region,), (task,), ())


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_written_case(name, machine, costs):
    function, domain, kind, outcome = CASES[name]
    app = one_task_app(domain, kind)
    program = parse_valid(HEAD.format(kind=kind) + function + "\nIndexTaskMap work f;\n")
    table = resolve(program, app, machine)
    assignment = assign_points(app, table, machine)
    if isinstance(outcome, str):
        assert assignment == MappingError(outcome)
        assert simulate(app, table, machine, costs) == MappingError(outcome)
    else:
        assert [(p.node, p.local) for p in assignment["work"].values()] == outcome
        assert isinstance(simulate(app, table, machine, costs), SimResult)
    assert_matches_per_point(app, table, machine)


# -- random mapping functions against the per-point reference -------------------

def int_exprs():
    leaves = st.sampled_from(["0", "1", "2", "3", "7", "100000000000000000000",
                              "p[0]", "p[1]", "s[0]", "m.size[1]"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/%"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from(["<", "==", ">="]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, inner, inner).map(
                lambda t: f"({t[0]} ? {t[1]} : {t[2]})"),
            st.tuples(inner, inner, inner).map(
                lambda t: f"({t[0]}, {t[1]})[{t[2]}]"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(int_exprs(), int_exprs(), st.booleans())
def test_random_functions_match_per_point(machine, node, local, wrap):
    if wrap:
        node, local = f"({node}) % 2", f"({local}) % 4"
    function = (f"def f(Tuple p, Tuple s) {{ a = {node}; b = {local}; "
                f"return m[a, b]; }}")
    app = one_task_app((4, 3), "GPU")
    program = parse_valid(HEAD.format(kind="GPU") + function + "\nIndexTaskMap work f;\n")
    assert_matches_per_point(app, resolve(program, app, machine), machine)
