"""Resolve mapper programs against applications into decision tables.

The binder turns a validated :class:`MapperProgram` plus an
:class:`ApplicationDescriptor` and :class:`MachineModel` into a
:class:`MappingDecisionTable` holding the four mapping decision kinds:
processor per task, ordered memory preferences and layout per (task,
region argument), and index/single-task mapping functions, plus
instance limits and collect flags.

Statement precedence is one rule, ``_winner``: the most specific
matching statement wins (an exact name beats ``*`` in each pattern
slot, more exact slots beat fewer), and among equally specific
statements the last one in program order wins.  For IndexTaskMap,
SingleTaskMap and InstanceLimit the last statement naming the task
wins.  Statements naming tasks or regions the application does not have
are inert.  docs/file_formats.md states the rule for mapper authors.

A table can also be built from one chosen option per enumerable
decision dimension (the search coordinate system) with
``table_from_choices``, and re-rendered into a DSL program with
``emit``; ``resolve(emit(table))`` reproduces the table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from .ast import (
    DIM_ORDERS, FIELD_LAYOUTS, Align, AssignStmt, CollectStmt, Diagnostic,
    FuncDef, IndexTaskMapStmt, InstanceLimitStmt, LayoutStmt, MapperProgram,
    RegionStmt, SingleTaskMapStmt, TaskStmt, WILDCARD,
)
from .configs import ApplicationDescriptor
from .evaluator import builtin_program
from .machine import MachineModel
from .validator import expr_names, free_names

@dataclass(frozen=True)
class LayoutChoice:
    aos_or_soa: str = FIELD_LAYOUTS[0]
    order: str = DIM_ORDERS[0]
    align: Optional[tuple[str, int]] = None


DEFAULT_LAYOUT = LayoutChoice()

# The options of a layout decision dimension: every field layout with
# every dimension order.
LAYOUT_OPTIONS = tuple(itertools.starmap(
    LayoutChoice, itertools.product(FIELD_LAYOUTS, DIM_ORDERS)))


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


def _match(pattern, *names) -> Optional[int]:
    """Specificity of one pattern slot: 0 for the wildcard, 1 for an exact
    match of one of ``names`` (a region matches by name or position),
    None for a miss."""
    if pattern == WILDCARD:
        return 0
    return 1 if pattern in names else None


def _slot_specificity(region: str, index: int, proc: str):
    """The specificity of a Region or Layout statement, whose task
    pattern already matches, for one region argument of a task placed on
    ``proc``: the number of exact (task, region, processor) slots, or
    None when a slot misses."""
    def specificity(stmt) -> Optional[int]:
        proc_pattern = stmt.proc if isinstance(stmt, RegionStmt) else stmt.proc_pattern
        region_slot = _match(stmt.region_pattern, region, index)
        proc_slot = _match(proc_pattern, proc)
        if region_slot is None or proc_slot is None:
            return None
        return (stmt.task_pattern != WILDCARD) + region_slot + proc_slot
    return specificity


def _winner(statements, specificity):
    """The statement of highest specificity, the last among equals; None
    when no statement matches."""
    winner, best = None, -1
    for stmt in statements:
        spec = specificity(stmt)
        if spec is not None and spec >= best:
            winner, best = stmt, spec
    return winner


# --------------------------------------------------------------------------
# resolve
# --------------------------------------------------------------------------


def resolve(program: MapperProgram, app: ApplicationDescriptor,
            machine: MachineModel) -> MappingDecisionTable | list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    of_type: dict[type, list] = defaultdict(list)
    for stmt in program.statements:
        of_type[type(stmt)].append(stmt)

    task_proc: dict[str, str] = {}
    region_mem: dict[tuple[str, str], tuple[str, ...]] = {}
    region_layout: dict[tuple[str, str], LayoutChoice] = {}
    index_map: dict[str, str] = {}
    single_map: dict[str, str] = {}
    instance_limit: dict[str, int] = {}
    collect: set[tuple[str, str]] = set()

    for task in app.tasks:
        name = task.name
        # Processor selection: the first of the winning statement's kinds
        # both present on the machine and supported by a task variant.
        winner = _winner(of_type[TaskStmt],
                         lambda stmt: _match(stmt.task_pattern, name))
        if winner is None:
            diagnostics.append(Diagnostic(
                "error", 1, 1, f"no processor mapping for task {name}"))
            continue
        chosen = next((kind for kind in winner.procs if machine.count(kind) > 0
                       and task.variant_for(kind) is not None), None)
        if chosen is None:
            diagnostics.append(Diagnostic(
                "error", 1, 1, f"no viable processor for task {name}"))
            continue
        task_proc[name] = chosen

        # Region and Layout statements whose task pattern matches, in
        # program order.
        regions = [stmt for stmt in of_type[RegionStmt]
                   if _match(stmt.task_pattern, name) is not None]
        layouts = [stmt for stmt in of_type[LayoutStmt]
                   if _match(stmt.task_pattern, name) is not None]
        for index, arg in enumerate(task.args):
            key = (name, arg.region)
            specificity = _slot_specificity(arg.region, index, chosen)
            memory = _winner(regions, specificity)
            if memory is None:
                diagnostics.append(Diagnostic(
                    "error", 1, 1,
                    f"no memory placement for task {name} region {arg.region}"))
            else:
                region_mem[key] = memory.memories
            region_layout[key] = _layout_choice(_winner(layouts, specificity))

        # Index / single task mapping and instance limits: the last
        # statement naming the task wins.
        for stmt in of_type[IndexTaskMapStmt]:
            if name in stmt.task_names:
                index_map[name] = stmt.func_name
        for stmt in of_type[SingleTaskMapStmt]:
            if name in stmt.task_names:
                single_map[name] = stmt.func_name
        for stmt in of_type[InstanceLimitStmt]:
            if stmt.task_name == name:
                instance_limit[name] = stmt.limit
        for stmt in of_type[CollectStmt]:
            if _match(stmt.task_name, name) is not None:
                collect.update(
                    (name, arg.region) for index, arg in enumerate(task.args)
                    if _match(stmt.region_pattern, arg.region, index) is not None)

    if diagnostics:
        return diagnostics

    used = set(index_map.values()) | set(single_map.values())
    kept_functions, bindings = closure_of(program.functions, program, used)
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
        if constraint in FIELD_LAYOUTS:
            aos_or_soa = constraint
        elif constraint in DIM_ORDERS:
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
    bindings: dict[str, list[AssignStmt]] = defaultdict(list)
    for stmt in program.statements:
        if isinstance(stmt, AssignStmt):
            bindings[stmt.name].append(stmt)
    kept: set[str] = set()
    frontier = [name for name in used if name in functions]
    while frontier:
        name = frontier.pop()
        if name in kept:
            continue
        kept.add(name)
        if name in functions:
            frontier.extend(free_names(functions[name]))
        for stmt in bindings.get(name, ()):
            frontier.extend(expr_names(stmt.expr))
    ordered = {name: func for name, func in functions.items() if name in kept}
    return ordered, tuple(stmt for stmt in program.statements
                          if isinstance(stmt, AssignStmt) and stmt.name in kept)


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
            dims.append(DecisionDimension(("layout", task.name, arg.region),
                                          LAYOUT_OPTIONS))
    for task in app.tasks:
        if task.map_options:
            dims.append(DecisionDimension(("imap", task.name), task.map_options))
    return dims


def search_space_size(app: ApplicationDescriptor) -> int:
    """Exact number of decision tables expressible over the declared
    dimensions."""
    return math.prod(len(d.options) for d in decision_dimensions(app))


# The built-in library, its functions by name and its closures by set of
# chosen names, kept for as long as ``builtin_program`` returns the same
# program.
_library_cache: tuple = (None, {}, {})


def _library() -> tuple[MapperProgram, dict[str, FuncDef], dict]:
    global _library_cache
    library = builtin_program()
    if _library_cache[0] is not library:
        _library_cache = (library, library.functions, {})
    return _library_cache


def table_from_choices(app: ApplicationDescriptor, choices: Sequence,
                       dims: Optional[Sequence[DecisionDimension]] = None,
                       ) -> MappingDecisionTable:
    """Build a table from one chosen option per decision dimension.

    ``dims`` are the app's decision dimensions, when the caller has
    computed them already.  Index-mapping choices are names of built-in
    library functions.
    """
    if dims is None:
        dims = decision_dimensions(app)
    if len(choices) != len(dims):
        raise ValueError(f"expected {len(dims)} choices, got {len(choices)}")
    library, functions, closures = _library()

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

    used = frozenset(index_map.values())
    if used not in closures:
        closures[used] = closure_of(functions, library, used)
    kept, kept_bindings = closures[used]
    # Each table gets its own dict, so no caller can change the memo.
    return MappingDecisionTable(
        task_proc, region_mem, region_layout, index_map, {}, {}, frozenset(),
        dict(kept), kept_bindings)


# --------------------------------------------------------------------------
# emit
# --------------------------------------------------------------------------


def _majority(values):
    """The most common value, the first seen among equally common ones."""
    return Counter(values).most_common(1)[0][0]


def _wildcard_and_exceptions(chosen: dict, keys: list, wildcard, statement) -> list:
    """``statement(wildcard, v)`` for the most common value ``v`` of
    ``chosen`` over ``keys``, then ``statement(key, value)`` for each key
    whose value differs."""
    if not keys:
        return []
    values = [chosen[key] for key in keys]
    majority = _majority(values)
    return [statement(wildcard, majority)] + [
        statement(key, value) for key, value in zip(keys, values) if value != majority]


def emit(table: MappingDecisionTable, app: ApplicationDescriptor) -> MapperProgram:
    """Render a table as a DSL program that resolves back to this table."""
    args = [(t.name, a.region) for t in app.tasks for a in t.args]
    statements = (
        _wildcard_and_exceptions(table.task_proc, [t.name for t in app.tasks], WILDCARD,
                                 lambda task, proc: TaskStmt(task, (proc,)))
        + _wildcard_and_exceptions(table.region_mem, args, (WILDCARD, WILDCARD),
                                   lambda key, mems: RegionStmt(*key, WILDCARD, mems))
        + _wildcard_and_exceptions(
            table.region_layout, args, (WILDCARD, WILDCARD),
            lambda key, layout: LayoutStmt(*key, WILDCARD, _layout_constraints(layout))))
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
