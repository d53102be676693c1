"""Semantic checks for parsed mapper programs.

``validate`` returns an empty list iff the program is well-formed:
every IndexTaskMap/SingleTaskMap names a defined function, every
variable resolves to a parameter, a prior local, or a top-level
binding, mapping entry points return a processor-space subscript,
alignment constraints are powers of two, there is no recursion, and
no chain of nested calls is longer than ``MAX_CALL_DEPTH``.

The checks use a small type inference over the value kinds of
``ast`` (int / tuple / space / processor / task) and "unknown";
anything that cannot be decided statically is left to evaluation time.

``validate`` takes the parser's :class:`~mapforge.parser.CompileMemo`.
What it finds in one statement alone (the structural errors, and the
names and calls of each expression) is kept under the statement's id.
The entry holds the statement, so no other object can take that id
while the memo lives, and statements are immutable.  The checks that
span statements (names against the program's bindings and functions,
call arity, recursion and call depth, type inference and the
entry-function rule) run on the whole program every time, in the same
order, so the diagnostics are those of a call without a memo.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .ast import (
    ATTRIBUTES, COMPARE_OPS, DIM_ORDERS, ELEMENTS, FIELD_LAYOUTS, METHODS,
    PARAM_KINDS, SPACE_METHODS, Align, AssignStmt, Attr, BinOp, Call,
    Diagnostic, Expr, FuncDef, IndexTaskMapStmt, InstanceLimitStmt, IntLit,
    LayoutStmt, LocalAssign, MachineExpr, MapperProgram, MethodCall, Name,
    RegionStmt, ReturnStmt, SingleTaskMapStmt, Splat, Subscript, TaskStmt,
    Ternary, TupleLit, entry_signature_error, no_elements, no_member,
)
from .parser import CompileMemo

# Most calls a chain of nested calls may hold, counted from a mapping
# function or a top-level binding.  A body nested ``MAX_NESTING`` levels
# deep can take about 390 interpreter frames, so a caller and one callee
# both at that limit take about 780 of Python's default 1000; one more
# level would not fit.
MAX_CALL_DEPTH = 1


def _pos(node) -> tuple[int, int]:
    """Where ``node`` starts: its own position, or else that of the first
    positioned node in it in source order, such as a chain's root name."""
    stack = [node]
    while stack:
        node = stack.pop()
        if getattr(node, "pos", None):
            return node.pos
        stack.extend(reversed(_children(node)))
    return (1, 1)


def _error(node, message: str) -> Diagnostic:
    line, col = _pos(node)
    return Diagnostic("error", line, col, message)


# --------------------------------------------------------------------------
# Name collection helpers (also used by the binder when emitting programs)
# --------------------------------------------------------------------------


def expr_names(expr: Expr) -> set[str]:
    """All variable and function names referenced by an expression."""
    return _uses(expr)[0]


def free_names(func: FuncDef) -> set[str]:
    """Names a function body needs from the enclosing program scope."""
    return set().union(*(needed for _, needed, _ in _statement_facts(func).uses))


def _uses(expr: Expr) -> tuple[set[str], tuple[tuple[str, int], ...]]:
    """The variable and function names ``expr`` refers to, and its calls
    as (function name, argument count) in pre-order."""
    names: set[str] = set()
    calls = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.add(node.ident)
        elif isinstance(node, Call):
            names.add(node.func)
            calls.append((node.func, len(node.args)))
        stack.extend(reversed(_children(node)))
    return names, tuple(calls)


# --------------------------------------------------------------------------
# Type inference
# --------------------------------------------------------------------------

class _Inference:
    def __init__(self, program: MapperProgram, diagnostics: list[Diagnostic]):
        self.program = program
        self.functions = program.functions
        self.diagnostics = diagnostics
        self._return_cache: dict[str, str] = {}
        self.global_types: dict[str, str] = {}
        for stmt in program.statements:
            if isinstance(stmt, AssignStmt):
                self.global_types[stmt.name] = self.infer(stmt.expr,
                                                          self.global_types)

    def func_return_type(self, func: FuncDef) -> str:
        if func.name in self._return_cache:
            return self._return_cache[func.name]
        self._return_cache[func.name] = "unknown"  # cycle guard
        env = dict(self.global_types)
        for p in func.params:
            env[p.name] = PARAM_KINDS[p.kind]
        rtype = "unknown"
        for stmt in func.body:
            if isinstance(stmt, LocalAssign):
                env[stmt.name] = self.infer(stmt.expr, env)
            elif isinstance(stmt, ReturnStmt):
                rtype = self.infer(stmt.expr, env)
                break
        self._return_cache[func.name] = rtype
        return rtype

    def infer(self, expr: Expr, env: dict[str, str]) -> str:
        if isinstance(expr, IntLit):
            return "int"
        if isinstance(expr, TupleLit):
            return "tuple"
        if isinstance(expr, MachineExpr):
            return "space"
        if isinstance(expr, Name):
            return env.get(expr.ident, "unknown")
        if isinstance(expr, BinOp):
            if expr.op in COMPARE_OPS:
                return "int"
            lhs = self.infer(expr.lhs, env)
            rhs = self.infer(expr.rhs, env)
            if "tuple" in (lhs, rhs):
                return "tuple"
            if lhs == rhs == "int":
                return "int"
            return "unknown"
        if isinstance(expr, (Attr, MethodCall)):
            base = self.infer(expr.base, env)
            method = isinstance(expr, MethodCall)
            name, args = (expr.method, expr.args) if method else (expr.name, ())
            for arg in args:
                self.infer(arg, env)
            members = (METHODS if method else ATTRIBUTES).get(base)
            if members is None:
                return "unknown"
            if name not in members:
                message = no_member(base, name, method)
            elif base == "space" and method and len(args) != len(SPACE_METHODS[name]):
                message = f"wrong number of arguments for .{name}()"
            else:
                return members[name]
            self.diagnostics.append(_error(expr.base, message))
            return "unknown"
        if isinstance(expr, Subscript):
            base = self.infer(expr.base, env)
            for idx in expr.indices:
                inner = idx.value if isinstance(idx, Splat) else idx
                self.infer(inner, env)
            if base not in ELEMENTS and base != "unknown":
                self.diagnostics.append(_error(expr.base, no_elements(base)))
            return ELEMENTS.get(base, "unknown")
        if isinstance(expr, Splat):
            return self.infer(expr.value, env)
        if isinstance(expr, Ternary):
            self.infer(expr.cond, env)
            then = self.infer(expr.then, env)
            other = self.infer(expr.other, env)
            return then if then == other else "unknown"
        if isinstance(expr, Call):
            for arg in expr.args:
                self.infer(arg, env)
            func = self.functions.get(expr.func)
            if func is None:
                return "unknown"  # undefined-name check reports this
            return self.func_return_type(func)
        return "unknown"


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


class _Facts(NamedTuple):
    """What ``validate`` finds in one statement alone.

    ``errors`` are its structural errors.  ``uses`` holds, for each
    expression owner (a top-level binding, or each statement of a
    function body), the owner, the names it needs from the program
    scope, and its calls as (function name, argument count) in
    pre-order.  ``callees`` names every function the statement calls.
    """

    errors: tuple[Diagnostic, ...]
    uses: tuple[tuple[object, frozenset[str], tuple[tuple[str, int], ...]], ...]
    callees: frozenset[str]


# The facts of most statements, shared to keep the memo small.
_NO_FACTS = _Facts((), (), frozenset())


def _facts(stmt, checks: dict) -> _Facts:
    """The facts of ``stmt``, kept in ``checks`` under its id."""
    entry = checks.get(id(stmt))
    if entry is None:
        entry = checks[id(stmt)] = (stmt, _statement_facts(stmt))
    return entry[1]


def _statement_facts(stmt) -> _Facts:
    errors = []
    uses = []
    if isinstance(stmt, TaskStmt):
        seen = set()
        for proc in stmt.procs:
            if proc in seen:
                errors.append(_error(stmt, f"duplicate processor kind {proc}"))
            seen.add(proc)
    elif isinstance(stmt, RegionStmt):
        seen = set()
        for mem in stmt.memories:
            if mem in seen:
                errors.append(_error(stmt, f"duplicate memory kind {mem}"))
            seen.add(mem)
    elif isinstance(stmt, InstanceLimitStmt):
        if stmt.limit < 1:
            errors.append(_error(stmt, "instance limit must be at least 1"))
    elif isinstance(stmt, LayoutStmt):
        for keywords in (FIELD_LAYOUTS, DIM_ORDERS):
            if sum(c in keywords for c in stmt.constraints) > 1:
                errors.append(_error(
                    stmt, f"conflicting layout constraints: at most one of "
                          f"{', '.join(keywords)}"))
        aligns = [c for c in stmt.constraints if isinstance(c, Align)]
        if len(aligns) > 1:
            errors.append(_error(
                stmt, "conflicting layout constraints: at most one Align"))
        for align in aligns:
            if align.bytes < 1 or align.bytes & (align.bytes - 1):
                errors.append(_error(
                    stmt, f"alignment must be a power of two, got {align.bytes}"))
    elif isinstance(stmt, AssignStmt):
        names, calls = _uses(stmt.expr)
        uses.append((stmt, frozenset(names), calls))
    elif isinstance(stmt, FuncDef):
        bound = {p.name for p in stmt.params}
        for body_stmt in stmt.body:
            names, calls = _uses(body_stmt.expr)
            uses.append((body_stmt, frozenset(names - bound), calls))
            if isinstance(body_stmt, LocalAssign):
                bound.add(body_stmt.name)
    if not (errors or uses):
        return _NO_FACTS
    callees = frozenset(callee for _, _, calls in uses for callee, _ in calls)
    return _Facts(tuple(errors), tuple(uses), callees)


def validate(program: MapperProgram,
             memo: Optional[CompileMemo] = None) -> list[Diagnostic]:
    """The program's diagnostics, empty iff it is well-formed.  A memo,
    kept for one run, reuses what earlier calls found in each statement
    alone; without one the call uses a fresh memo."""
    checks = (CompileMemo() if memo is None else memo).checks
    diagnostics: list[Diagnostic] = []
    functions: dict[str, FuncDef] = {}
    global_names: set[str] = set()

    for stmt in program.statements:
        if isinstance(stmt, FuncDef):
            if stmt.name in functions:
                diagnostics.append(_error(
                    stmt, f"function {stmt.name} defined more than once"))
            functions[stmt.name] = stmt
            global_names.add(stmt.name)
        elif isinstance(stmt, AssignStmt):
            global_names.add(stmt.name)

    facts = [_facts(stmt, checks) for stmt in program.statements]

    # Statement-local structural checks.
    for fact in facts:
        diagnostics.extend(fact.errors)

    # Name resolution in top-level bindings and function bodies.
    uses = [use for fact in facts for use in fact.uses]
    for owner, needed, _ in uses:
        for name in sorted(needed - global_names):
            diagnostics.append(_error(owner, f"{name} not found"))

    # Call arity.
    for owner, _, calls in uses:
        for callee, count in calls:
            func = functions.get(callee)
            if func is not None and count != len(func.params):
                diagnostics.append(_error(
                    owner, f"call to {callee} has {count} arguments, "
                           f"expected {len(func.params)}"))

    # Recursion is rejected: mapping functions must terminate.
    calls = {name: _facts(f, checks).callees & functions.keys()
             for name, f in functions.items()}
    components = _components(calls)
    recursive = {name for component in components for name in component
                 if len(component) > 1 or name in calls[name]}
    for name in sorted(recursive):
        diagnostics.append(_error(functions[name], f"recursive mapping function {name}"))

    # Each call nests the interpreter and the type inference one function
    # deeper, so call chains are bounded like expression nesting.
    too_deep = []
    if not recursive:
        depth: dict[str, int] = {}  # calls on the longest chain below
        for (name,) in components:
            depth[name] = max((1 + depth[c] for c in calls[name]), default=0)
        called = set().union(*calls.values())
        too_deep = [functions[name] for name in functions
                    if name not in called and depth[name] > MAX_CALL_DEPTH]
        too_deep += [stmt for stmt, fact in zip(program.statements, facts)
                     if isinstance(stmt, AssignStmt)
                     and max((1 + depth[c] for c in fact.callees if c in depth),
                             default=0) > MAX_CALL_DEPTH]
        for stmt in too_deep:
            diagnostics.append(_error(
                stmt, f"call chain from {stmt.name} is more than "
                      f"{MAX_CALL_DEPTH} calls deep"))

    # Mapping entry points must exist and return a space subscript.
    inference = None if recursive or too_deep else _Inference(program, diagnostics)
    for stmt in program.statements:
        if isinstance(stmt, (IndexTaskMapStmt, SingleTaskMapStmt)):
            kind = "IndexTaskMap" if isinstance(stmt, IndexTaskMapStmt) else "SingleTaskMap"
            func = functions.get(stmt.func_name)
            if func is None:
                diagnostics.append(_error(stmt, f"{kind}'s function undefined"))
                continue
            signature_error = entry_signature_error(func)
            if signature_error:
                diagnostics.append(_error(stmt, signature_error))
            if not any(isinstance(b, ReturnStmt) for b in func.body):
                diagnostics.append(_error(
                    func, f"function {func.name} must return a processor"))
            elif inference is not None:
                rtype = inference.func_return_type(func)
                if rtype not in ("processor", "unknown"):
                    diagnostics.append(_error(
                        func,
                        f"function {func.name} must return a processor "
                        f"(a machine space subscript), not a {rtype}"))

    return diagnostics


# The direct subexpressions of each expression node type; the others
# (names, literals, machine expressions) have none.
_CHILDREN = {
    Call: lambda e: e.args,
    TupleLit: lambda e: e.items,
    Attr: lambda e: (e.base,),
    MethodCall: lambda e: (e.base, *e.args),
    BinOp: lambda e: (e.lhs, e.rhs),
    Subscript: lambda e: (e.base, *e.indices),
    Splat: lambda e: (e.value,),
    Ternary: lambda e: (e.cond, e.then, e.other),
}


def _children(expr: Expr):
    children = _CHILDREN.get(type(expr))
    return children(expr) if children else ()


def _components(calls: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components of a call graph, each after every
    component it calls.

    Tarjan's algorithm, iterative and linear in the size of the graph.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in calls:
        if root in index:
            continue
        work = [(root, iter(calls[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            name, callees = work[-1]
            callee = next(callees, None)
            if callee is not None:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(calls[callee])))
                elif callee in on_stack:
                    low[name] = min(low[name], index[callee])
                continue
            work.pop()
            if work:
                caller = work[-1][0]
                low[caller] = min(low[caller], low[name])
            if low[name] == index[name]:
                component = []
                while not component or component[-1] != name:
                    component.append(stack.pop())
                    on_stack.discard(component[-1])
                components.append(component)
    return components
