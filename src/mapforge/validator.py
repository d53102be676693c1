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
"""

from __future__ import annotations

from .ast import (
    ATTRIBUTES, COMPARE_OPS, DIM_ORDERS, ELEMENTS, FIELD_LAYOUTS, METHODS,
    PARAM_KINDS, SPACE_METHODS, Align, AssignStmt, Attr, BinOp, Call,
    Diagnostic, Expr, FuncDef, IndexTaskMapStmt, InstanceLimitStmt, IntLit,
    LayoutStmt, LocalAssign, MachineExpr, MapperProgram, MethodCall, Name,
    RegionStmt, ReturnStmt, SingleTaskMapStmt, Splat, Subscript, TaskStmt,
    Ternary, TupleLit, entry_signature_error, no_elements, no_member,
)

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
    names = set()
    for node in _walk(expr):
        if isinstance(node, Name):
            names.add(node.ident)
        elif isinstance(node, Call):
            names.add(node.func)
    return names


def free_names(func: FuncDef) -> set[str]:
    """Names a function body needs from the enclosing program scope."""
    bound = {p.name for p in func.params}
    free: set[str] = set()
    for stmt in func.body:
        expr = stmt.expr
        free |= expr_names(expr) - bound
        if isinstance(stmt, LocalAssign):
            bound.add(stmt.name)
    return free


def called_functions(func: FuncDef) -> set[str]:
    names: set[str] = set()
    for stmt in func.body:
        names |= _calls_in(stmt.expr)
    return names


def _calls_in(expr: Expr) -> set[str]:
    return {node.func for node in _walk(expr) if isinstance(node, Call)}


def _walk(expr: Expr) -> list[Expr]:
    """``expr`` and every expression nested in it."""
    nodes = [expr]
    for node in nodes:
        nodes.extend(_children(node))
    return nodes


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


def validate(program: MapperProgram) -> list[Diagnostic]:
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

    # Statement-local structural checks.
    for stmt in program.statements:
        if isinstance(stmt, TaskStmt):
            seen = set()
            for proc in stmt.procs:
                if proc in seen:
                    diagnostics.append(_error(stmt, f"duplicate processor kind {proc}"))
                seen.add(proc)
        elif isinstance(stmt, RegionStmt):
            seen = set()
            for mem in stmt.memories:
                if mem in seen:
                    diagnostics.append(_error(stmt, f"duplicate memory kind {mem}"))
                seen.add(mem)
        elif isinstance(stmt, InstanceLimitStmt):
            if stmt.limit < 1:
                diagnostics.append(_error(stmt, "instance limit must be at least 1"))
        elif isinstance(stmt, LayoutStmt):
            for keywords in (FIELD_LAYOUTS, DIM_ORDERS):
                if sum(c in keywords for c in stmt.constraints) > 1:
                    diagnostics.append(_error(
                        stmt, f"conflicting layout constraints: at most one of "
                              f"{', '.join(keywords)}"))
            aligns = [c for c in stmt.constraints if isinstance(c, Align)]
            if len(aligns) > 1:
                diagnostics.append(_error(
                    stmt, "conflicting layout constraints: at most one Align"))
            for align in aligns:
                if align.bytes < 1 or align.bytes & (align.bytes - 1):
                    diagnostics.append(_error(
                        stmt, f"alignment must be a power of two, got {align.bytes}"))

    # Name resolution in top-level bindings and function bodies.
    for stmt in program.statements:
        if isinstance(stmt, AssignStmt):
            for name in sorted(expr_names(stmt.expr) - global_names):
                diagnostics.append(_error(stmt, f"{name} not found"))
        elif isinstance(stmt, FuncDef):
            bound = {p.name for p in stmt.params}
            for body_stmt in stmt.body:
                missing = expr_names(body_stmt.expr) - bound - global_names
                for name in sorted(missing):
                    diagnostics.append(_error(body_stmt, f"{name} not found"))
                if isinstance(body_stmt, LocalAssign):
                    bound.add(body_stmt.name)

    # Call arity.
    def check_calls(expr: Expr, owner):
        if isinstance(expr, Call):
            func = functions.get(expr.func)
            if func is not None and len(expr.args) != len(func.params):
                diagnostics.append(_error(
                    owner,
                    f"call to {expr.func} has {len(expr.args)} arguments, "
                    f"expected {len(func.params)}"))
        for child in _children(expr):
            check_calls(child, owner)

    for stmt in program.statements:
        if isinstance(stmt, FuncDef):
            for body_stmt in stmt.body:
                check_calls(body_stmt.expr, body_stmt)
        elif isinstance(stmt, AssignStmt):
            check_calls(stmt.expr, stmt)

    # Recursion is rejected: mapping functions must terminate.
    calls = {name: called_functions(f) & functions.keys()
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
        too_deep += [stmt for stmt in program.statements
                     if isinstance(stmt, AssignStmt)
                     and max((1 + depth[c] for c in _calls_in(stmt.expr)
                              if c in depth), default=0) > MAX_CALL_DEPTH]
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
