"""Canonical pretty-printer for mapper programs.

Printing is the inverse of parsing up to structural equality:
``parse(print_program(p)) == p``.  Comments and original formatting are
not preserved; memory-kind aliases print in canonical spelling.
"""

from __future__ import annotations

from .ast import (
    Align, AssignStmt, Attr, BinOp, Call, CollectStmt, Expr, FuncDef,
    IndexTaskMapStmt, InstanceLimitStmt, IntLit, LayoutStmt, LocalAssign,
    MachineExpr, MapperProgram, MethodCall, Name, RegionStmt, ReturnStmt,
    SingleTaskMapStmt, Splat, Statement, Subscript, TaskStmt, Ternary,
    TupleLit,
)

INDENT = "    "

# Binding strength used to decide where parentheses are required.
_TERNARY, _COMPARE, _ADD, _MUL, _POSTFIX = range(5)

_PRECEDENCE = {
    "+": _ADD, "-": _ADD,
    "*": _MUL, "/": _MUL, "%": _MUL,
    "==": _COMPARE, "!=": _COMPARE,
    "<": _COMPARE, ">": _COMPARE, "<=": _COMPARE, ">=": _COMPARE,
}


def print_expr(expr: Expr, parent_prec: int = _TERNARY) -> str:
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, TupleLit):
        return "(" + ", ".join(print_expr(e) for e in expr.items) + ")"
    if isinstance(expr, MachineExpr):
        return f"Machine({expr.kind})"
    if isinstance(expr, Call):
        return expr.func + "(" + ", ".join(print_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Attr):
        return print_expr(expr.base, _POSTFIX) + "." + expr.name
    if isinstance(expr, MethodCall):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{print_expr(expr.base, _POSTFIX)}.{expr.method}({args})"
    if isinstance(expr, Subscript):
        indices = ", ".join(print_expr(i) for i in expr.indices)
        return f"{print_expr(expr.base, _POSTFIX)}[{indices}]"
    if isinstance(expr, Splat):
        return "*" + print_expr(expr.value, _POSTFIX)
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        # Left-associative chains; the right operand needs parentheses at
        # equal precedence, comparisons are non-associative on both sides.
        lhs = print_expr(expr.lhs, prec + 1 if prec == _COMPARE else prec)
        rhs = print_expr(expr.rhs, prec + 1)
        text = f"{lhs} {expr.op} {rhs}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, Ternary):
        text = (f"{print_expr(expr.cond, _COMPARE)} ? "
                f"{print_expr(expr.then)} : {print_expr(expr.other)}")
        if parent_prec > _TERNARY:
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node: {expr!r}")


def _pattern(p) -> str:
    return str(p)


def _constraint(c) -> str:
    if isinstance(c, Align):
        return f"Align{c.op}{c.bytes}"
    return c


def print_statement(stmt: Statement) -> str:
    if isinstance(stmt, TaskStmt):
        return f"Task {stmt.task_pattern} {','.join(stmt.procs)};"
    if isinstance(stmt, RegionStmt):
        return (f"Region {stmt.task_pattern} {_pattern(stmt.region_pattern)} "
                f"{stmt.proc} {','.join(stmt.memories)};")
    if isinstance(stmt, LayoutStmt):
        cons = " ".join(_constraint(c) for c in stmt.constraints)
        return (f"Layout {stmt.task_pattern} {_pattern(stmt.region_pattern)} "
                f"{stmt.proc_pattern} {cons};")
    if isinstance(stmt, IndexTaskMapStmt):
        return f"IndexTaskMap {','.join(stmt.task_names)} {stmt.func_name};"
    if isinstance(stmt, SingleTaskMapStmt):
        return f"SingleTaskMap {','.join(stmt.task_names)} {stmt.func_name};"
    if isinstance(stmt, InstanceLimitStmt):
        return f"InstanceLimit {stmt.task_name} {stmt.limit};"
    if isinstance(stmt, CollectStmt):
        return f"CollectMemory {stmt.task_name} {_pattern(stmt.region_pattern)};"
    if isinstance(stmt, AssignStmt):
        return f"{stmt.name} = {print_expr(stmt.expr)};"
    if isinstance(stmt, FuncDef):
        params = ", ".join(f"{p.kind} {p.name}" for p in stmt.params)
        lines = [f"def {stmt.name}({params}) {{"]
        for body_stmt in stmt.body:
            if isinstance(body_stmt, ReturnStmt):
                lines.append(f"{INDENT}return {print_expr(body_stmt.expr)};")
            elif isinstance(body_stmt, LocalAssign):
                lines.append(f"{INDENT}{body_stmt.name} = {print_expr(body_stmt.expr)};")
            else:
                raise TypeError(f"unknown body statement: {body_stmt!r}")
        lines.append("}")
        return "\n".join(lines)
    raise TypeError(f"unknown statement node: {stmt!r}")


def print_program(program: MapperProgram) -> str:
    if not program.statements:
        return ""
    return "\n".join(print_statement(s) for s in program.statements) + "\n"
