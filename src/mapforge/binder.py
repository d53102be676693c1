"""Resolve mapper programs against applications into decision tables.

The binder turns a validated :class:`MapperProgram` plus an
:class:`ApplicationDescriptor` and :class:`MachineModel` into a
:class:`MappingDecisionTable` holding the four mapping decision kinds:
processor per task, ordered memory preferences and layout per (task,
region argument), and index/single-task mapping functions, plus
instance limits and collect flags.

Statement precedence: the most specific matching statement wins (an
exact name beats ``*`` in each pattern slot, more exact slots beat
fewer), and among equally specific statements the last one in program
order wins.  Statements naming tasks or regions the application does
not have are inert.

A table can also be flattened into a decision vector over enumerable
dimensions (the search coordinate system) and re-rendered into a DSL
program with ``emit``; ``resolve(emit(table))`` reproduces the table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .ast import (
    Align, AssignStmt, CollectStmt, Diagnostic, FuncDef, IndexTaskMapStmt,
    InstanceLimitStmt, LayoutStmt, MapperProgram, RegionStmt,
    SingleTaskMapStmt, TaskStmt, WILDCARD,
)
from .configs import ApplicationDescriptor
from .machine import MachineModel
from .validator import expr_names, free_names

LAYOUT_COMBOS = (("SOA", "C_order"), ("SOA", "F_order"),
                 ("AOS", "C_order"), ("AOS", "F_order"))


@dataclass(frozen=True)
class LayoutChoice:
    aos_or_soa: str = "SOA"
    order: str = "C_order"
    align: Optional[tuple[str, int]] = None


DEFAULT_LAYOUT = LayoutChoice()


@dataclass(frozen=True)
class MappingDecisionTable:
    task_proc: dict[str, str]
    region_mem: dict[tuple[str, str], tuple[str, ...]]
    region_layout: dict[tuple[str, str], LayoutChoice]
    index_map: dict[str, str]    # task -> function name
    single_map: dict[str, str]
    instance_limit: dict[str, int]
    collect: frozenset[tuple[str, str]]
    functions: dict[str, FuncDef]       # definitions for index/single maps
    bindings: tuple[AssignStmt, ...]    # top-level bindings those functions use


# --------------------------------------------------------------------------
# Pattern matching
# --------------------------------------------------------------------------


def _match_name(pattern: str, name: str) -> Optional[int]:
    """Specificity of a task or processor match: 1 exact, 0 wildcard, None miss."""
    if pattern == WILDCARD:
        return 0
    return 1 if pattern == name else None


def _match_region(pattern, name: str, index: int) -> Optional[int]:
    if pattern == WILDCARD:
        return 0
    if isinstance(pattern, int):
        return 1 if pattern == index else None
    return 1 if pattern == name else None


def _best(candidates):
    """Pick by (specificity, program order): most specific, then last wins."""
    return max(candidates, key=lambda c: (c[0], c[1]))[2] if candidates else None


# --------------------------------------------------------------------------
# resolve
# --------------------------------------------------------------------------


def resolve(program: MapperProgram, app: ApplicationDescriptor,
            machine: MachineModel) -> MappingDecisionTable | list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    statements = program.statements
    functions = program.functions

    task_proc: dict[str, str] = {}
    region_mem: dict[tuple[str, str], tuple[str, ...]] = {}
    region_layout: dict[tuple[str, str], LayoutChoice] = {}
    index_map: dict[str, str] = {}
    single_map: dict[str, str] = {}
    instance_limit: dict[str, int] = {}
    collect: set[tuple[str, str]] = set()

    for task in app.tasks:
        # Processor selection: scan the winning statement's kinds in order
        # and take the first kind both present on the machine and supported
        # by a task variant.
        candidates = []
        for order, stmt in enumerate(statements):
            if isinstance(stmt, TaskStmt):
                spec = _match_name(stmt.task_pattern, task.name)
                if spec is not None:
                    candidates.append((spec, order, stmt))
        winner = _best(candidates)
        if winner is None:
            diagnostics.append(Diagnostic(
                "error", 1, 1, f"no processor mapping for task {task.name}"))
            continue
        chosen = None
        for kind in winner.procs:
            if machine.count(kind) > 0 and task.variant_for(kind) is not None:
                chosen = kind
                break
        if chosen is None:
            diagnostics.append(Diagnostic(
                "error", 1, 1, f"no viable processor for task {task.name}"))
            continue
        task_proc[task.name] = chosen

        for arg_index, arg in enumerate(task.args):
            key = (task.name, arg.region)
            mem_candidates = []
            lay_candidates = []
            for order, stmt in enumerate(statements):
                if isinstance(stmt, RegionStmt):
                    specs = (_match_name(stmt.task_pattern, task.name),
                             _match_region(stmt.region_pattern, arg.region, arg_index),
                             _match_name(stmt.proc, chosen))
                    if all(s is not None for s in specs):
                        mem_candidates.append((sum(specs), order, stmt))
                elif isinstance(stmt, LayoutStmt):
                    specs = (_match_name(stmt.task_pattern, task.name),
                             _match_region(stmt.region_pattern, arg.region, arg_index),
                             _match_name(stmt.proc_pattern, chosen))
                    if all(s is not None for s in specs):
                        lay_candidates.append((sum(specs), order, stmt))
            mem_winner = _best(mem_candidates)
            if mem_winner is None:
                diagnostics.append(Diagnostic(
                    "error", 1, 1,
                    f"no memory placement for task {task.name} "
                    f"region {arg.region}"))
            else:
                region_mem[key] = mem_winner.memories
            region_layout[key] = _layout_choice(_best(lay_candidates))

        # Index / single task mapping: last statement naming the task wins.
        for stmt in statements:
            if isinstance(stmt, IndexTaskMapStmt) and task.name in stmt.task_names:
                index_map[task.name] = stmt.func_name
            elif isinstance(stmt, SingleTaskMapStmt) and task.name in stmt.task_names:
                single_map[task.name] = stmt.func_name

        for stmt in statements:
            if isinstance(stmt, InstanceLimitStmt) and stmt.task_name == task.name:
                instance_limit[task.name] = stmt.limit
            elif isinstance(stmt, CollectStmt):
                if _match_name(stmt.task_name, task.name) is None:
                    continue
                for arg_index, arg in enumerate(task.args):
                    if _match_region(stmt.region_pattern, arg.region, arg_index) is not None:
                        collect.add((task.name, arg.region))

    if diagnostics:
        return diagnostics

    used = set(index_map.values()) | set(single_map.values())
    kept_functions, bindings = closure_of(functions, program, used)
    return MappingDecisionTable(
        task_proc, region_mem, region_layout, index_map, single_map,
        instance_limit, frozenset(collect), kept_functions, bindings)


def _layout_choice(stmt: Optional[LayoutStmt]) -> LayoutChoice:
    # Defaults match the conventional fixed preamble: SOA, C order, no
    # alignment constraint.  A winning statement overrides the fields it
    # mentions; No_Align explicitly clears the alignment.
    if stmt is None:
        return DEFAULT_LAYOUT
    aos_or_soa = DEFAULT_LAYOUT.aos_or_soa
    order = DEFAULT_LAYOUT.order
    align = None
    for constraint in stmt.constraints:
        if constraint in ("SOA", "AOS"):
            aos_or_soa = constraint
        elif constraint in ("C_order", "F_order"):
            order = constraint
        elif isinstance(constraint, Align):
            align = (constraint.op, constraint.bytes)
        # No_Align leaves align = None
    return LayoutChoice(aos_or_soa, order, align)


def closure_of(functions: dict[str, FuncDef], program: MapperProgram,
               used: set[str]) -> tuple[dict[str, FuncDef], tuple[AssignStmt, ...]]:
    """The used functions and all they reach, in program order: the
    functions and top-level bindings they name, and in turn whatever
    those bindings' expressions name (``m1 = m.merge(0, 1)`` keeps
    ``m``)."""
    bindings = [s for s in program.statements if isinstance(s, AssignStmt)]
    kept: set[str] = set()
    frontier = [name for name in used if name in functions]
    while frontier:
        name = frontier.pop()
        if name in kept:
            continue
        kept.add(name)
        if name in functions:
            frontier.extend(free_names(functions[name]))
        frontier.extend(ref for stmt in bindings if stmt.name == name
                        for ref in expr_names(stmt.expr))
    ordered = {name: func for name, func in functions.items() if name in kept}
    return ordered, tuple(s for s in bindings if s.name in kept)


# --------------------------------------------------------------------------
# Decision vectors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionDimension:
    dim_id: tuple
    options: tuple


def decision_dimensions(app: ApplicationDescriptor) -> list[DecisionDimension]:
    """The enumerable decision dimensions of an application, in a fixed
    order: processor per task, then memory and layout per (task, region
    argument), then index-mapping function per task that declares
    candidates."""
    dims: list[DecisionDimension] = []
    for task in app.tasks:
        dims.append(DecisionDimension(("proc", task.name), task.proc_options))
    for task in app.tasks:
        for arg in task.args:
            options = app.region(arg.region).mem_options
            if not options:
                options = (("SYSMEM",),)
            dims.append(DecisionDimension(("mem", task.name, arg.region), options))
    for task in app.tasks:
        for arg in task.args:
            dims.append(DecisionDimension(
                ("layout", task.name, arg.region),
                tuple(LayoutChoice(soa, order) for soa, order in LAYOUT_COMBOS)))
    for task in app.tasks:
        if task.map_options:
            dims.append(DecisionDimension(("imap", task.name), task.map_options))
    return dims


def search_space_size(app: ApplicationDescriptor) -> int:
    """Exact number of decision tables expressible over the declared
    dimensions."""
    return math.prod(len(d.options) for d in decision_dimensions(app))


def decision_vector(table: MappingDecisionTable,
                    app: ApplicationDescriptor) -> list[tuple[tuple, object, tuple]]:
    """Flatten a table into (dimension id, chosen option, option domain)
    entries.  The chosen option may fall outside the declared domain when
    the table came from a hand-written mapper."""
    vector = []
    for dim in decision_dimensions(app):
        kind = dim.dim_id[0]
        if kind == "proc":
            chosen = table.task_proc[dim.dim_id[1]]
        elif kind == "mem":
            chosen = table.region_mem[(dim.dim_id[1], dim.dim_id[2])]
        elif kind == "layout":
            chosen = table.region_layout[(dim.dim_id[1], dim.dim_id[2])]
        else:  # imap
            chosen = table.index_map.get(dim.dim_id[1])
        vector.append((dim.dim_id, chosen, dim.options))
    return vector


def table_from_choices(app: ApplicationDescriptor, choices: Sequence,
                       ) -> MappingDecisionTable:
    """Build a table from one chosen option per decision dimension.

    Index-mapping choices are names of built-in library functions.
    """
    from .evaluator import builtin_program

    dims = decision_dimensions(app)
    if len(choices) != len(dims):
        raise ValueError(f"expected {len(dims)} choices, got {len(choices)}")
    library = builtin_program()
    functions = library.functions

    task_proc: dict[str, str] = {}
    region_mem: dict[tuple[str, str], tuple[str, ...]] = {}
    region_layout: dict[tuple[str, str], LayoutChoice] = {}
    index_map: dict[str, str] = {}
    for dim, choice in zip(dims, choices):
        kind = dim.dim_id[0]
        if kind == "proc":
            task_proc[dim.dim_id[1]] = choice
        elif kind == "mem":
            region_mem[(dim.dim_id[1], dim.dim_id[2])] = tuple(choice)
        elif kind == "layout":
            region_layout[(dim.dim_id[1], dim.dim_id[2])] = choice
        elif choice is not None:
            if choice not in functions:
                raise ValueError(f"unknown mapping function {choice}")
            index_map[dim.dim_id[1]] = choice

    kept, kept_bindings = closure_of(functions, library, set(index_map.values()))
    return MappingDecisionTable(
        task_proc, region_mem, region_layout, index_map, {}, {}, frozenset(),
        kept, kept_bindings)


# --------------------------------------------------------------------------
# emit
# --------------------------------------------------------------------------


def _majority(values, tie_order):
    counts = Counter(values)
    return max(counts, key=lambda v: (counts[v], -tie_order.index(v)))


def emit(table: MappingDecisionTable, app: ApplicationDescriptor) -> MapperProgram:
    """Render a table as a DSL program that resolves back to this table."""
    statements: list = []

    tasks = [t.name for t in app.tasks]
    procs_chosen = [table.task_proc[t] for t in tasks]
    majority_proc = _majority(procs_chosen, procs_chosen)
    statements.append(TaskStmt(WILDCARD, (majority_proc,)))
    for name, proc in zip(tasks, procs_chosen):
        if proc != majority_proc:
            statements.append(TaskStmt(name, (proc,)))

    mem_keys = [(t.name, a.region) for t in app.tasks for a in t.args]
    if mem_keys:
        mems_chosen = [table.region_mem[k] for k in mem_keys]
        majority_mem = _majority(mems_chosen, mems_chosen)
        statements.append(RegionStmt(WILDCARD, WILDCARD, WILDCARD, majority_mem))
        for key, mems in zip(mem_keys, mems_chosen):
            if mems != majority_mem:
                statements.append(RegionStmt(key[0], key[1], WILDCARD, mems))

        layouts_chosen = [table.region_layout[k] for k in mem_keys]
        majority_layout = _majority(layouts_chosen, layouts_chosen)
        statements.append(LayoutStmt(WILDCARD, WILDCARD, WILDCARD,
                                     _layout_constraints(majority_layout)))
        for key, layout in zip(mem_keys, layouts_chosen):
            if layout != majority_layout:
                statements.append(LayoutStmt(key[0], key[1], WILDCARD,
                                             _layout_constraints(layout)))

    statements.extend(table.bindings)
    statements.extend(table.functions.values())
    for task, func in table.index_map.items():
        statements.append(IndexTaskMapStmt((task,), func))
    for task, func in table.single_map.items():
        statements.append(SingleTaskMapStmt((task,), func))
    for task, limit in table.instance_limit.items():
        statements.append(InstanceLimitStmt(task, limit))
    for task, region in sorted(table.collect):
        statements.append(CollectStmt(task, region))
    return MapperProgram(tuple(statements))


def _layout_constraints(layout: LayoutChoice) -> tuple:
    constraints: list = [layout.aos_or_soa, layout.order]
    if layout.align is not None:
        constraints.append(Align(layout.align[0], layout.align[1]))
    return tuple(constraints)
