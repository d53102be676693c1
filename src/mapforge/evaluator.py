"""Batch interpreter for mapping-function bodies and DSL expressions.

A mapping function runs once per task over all of its launch points.
Every value is either uniform (the same at every point of the batch) or
holds one entry per point:

* an integer is an ``int``, or a 1-D NumPy array with one entry per
  point: int64, or ``object`` holding Python ints where int64 could
  overflow;
* a tuple holds such integers;
* a processor is a :class:`ProcIndex`, or an (N, 2) int64 array of
  (node, local) rows;
* a :class:`ProcessorSpace` is always uniform, and a
  :class:`TaskHandle`'s ``ipoint`` may hold arrays.

The single-point entry points (``eval_expr``, ``call_function``,
``eval_mapping``) run the same code on values that are all uniform, and
``eval_launch`` runs a function over a whole launch domain.  Per-point
semantics are those of evaluating each point alone.  Arithmetic is
exact integer math: arrays stay int64 only where no result can
overflow.  ``/`` truncates toward zero and ``%`` is the matching
remainder (all in-range indices are nonnegative, where this equals
floor semantics).  Tuple-tuple operators are elementwise and require
equal lengths; tuple-int broadcasts the scalar.  A ternary evaluates
each branch only on the points that take it, so an error in a branch
no point takes never fires.  Where the points of a batch disagree on
something other than an integer (a space-method argument, or the kind
or length of a ternary's two results), the batch is split by value and
each part is evaluated on its own.  An error is the one a per-point
loop would report: that of the first failing point in row-major order,
at the first failing step of that point.  An arithmetic result of
magnitude ``INT_LIMIT`` (2**4096) or more is the error "integer
overflow".

Evaluation is pure: identical (function, task, environment) inputs
always produce the identical processor index.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .ast import (
    ATTRIBUTES, COMPARE_OPS, METHODS, SPACE_METHODS, AssignStmt, Attr, BinOp,
    Call, Expr, FuncDef, IntLit, LocalAssign, MachineExpr, MapperProgram,
    MethodCall, Name, ReturnStmt, Splat, Subscript, Ternary, TupleLit,
    entry_signature_error, no_elements, no_member,
)
from .machine import MachineModel, ProcIndex, ProcessorSpace, SpaceError, machine_space


class EvalError(ValueError):
    """Raised when a mapping function cannot be evaluated.

    ``row`` is the position of the first failing point in the batch
    being evaluated; an error every point meets alike has row 0.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class _Split(Exception):
    """The points of a batch disagree on a value that is not an integer.

    ``labels`` holds one group number per point; each group is then
    evaluated on its own.
    """

    def __init__(self, labels: np.ndarray):
        super().__init__("batch split")
        self.labels = labels


@dataclass
class TaskHandle:
    name: str
    ipoint: tuple
    ispace: tuple[int, ...]
    parent: Optional["TaskHandle"] = None
    processor: Optional[ProcIndex] = None


Value = Union[int, np.ndarray, tuple, ProcessorSpace, ProcIndex, TaskHandle]


@dataclass
class EvalEnv:
    machine: MachineModel
    globals: dict[str, Value] = field(default_factory=dict)
    functions: dict[str, FuncDef] = field(default_factory=dict)
    locals: dict[str, Value] = field(default_factory=dict)

    def resolve(self, name: str) -> Value:
        if name in self.locals:
            return self.locals[name]
        if name in self.globals:
            return self.globals[name]
        raise EvalError(f"{name} not found")

    def with_locals(self, local_bindings: dict[str, Value]) -> "EvalEnv":
        return EvalEnv(self.machine, self.globals, self.functions, local_bindings)


def build_env(program: MapperProgram, machine: MachineModel) -> EvalEnv:
    """Evaluate a program's top-level bindings into an environment."""
    env = EvalEnv(machine, functions=program.functions)
    for name, binding in program.bindings.items():
        env.globals[name] = eval_expr(binding.expr, env)
    return env


# --------------------------------------------------------------------------
# Integer semantics: / truncates toward zero, % is the matching remainder.
# Arrays are int64 while every operand and result fits, else Python ints
# in object arrays.
# --------------------------------------------------------------------------

INT64_MAX = 2 ** 63 - 1

# An arithmetic result of at least this magnitude is an error, so that
# repeated squaring cannot run for ever and every integer formats as text.
INT_LIMIT = 2 ** 4096


def idiv(a, b):
    if isinstance(b, int):
        if b == 0:
            raise EvalError("division by zero")
    else:
        zero = b == 0
        if zero.any():
            raise EvalError("division by zero", int(np.argmax(zero)))
    q = abs(a) // abs(b)
    if isinstance(q, int):
        return q if (a >= 0) == (b >= 0) else -q
    return np.where((a >= 0) == (b >= 0), q, -q)


def imod(a, b):
    return a - idiv(a, b) * b


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": idiv,
    "%": imod,
}

_COMPARE = dict(zip(COMPARE_OPS, (operator.eq, operator.ne, operator.lt,
                                   operator.gt, operator.le, operator.ge)))


def _is_int(value: Value) -> bool:
    return isinstance(value, int) or (isinstance(value, np.ndarray) and value.ndim == 1)


def _magnitude(value) -> int:
    if isinstance(value, int):
        return abs(value)
    return max(int(value.max()), -int(value.min()))


def _exact(value):
    """``value`` as Python ints: an object array, or the int itself."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        return value.astype(object)
    return value


def _bounded(value):
    """``value``, or an EvalError at its first entry of magnitude INT_LIMIT."""
    if isinstance(value, int):
        if -INT_LIMIT < value < INT_LIMIT:
            return value
        raise EvalError("integer overflow")
    over = np.abs(value) >= INT_LIMIT
    if over.any():
        raise EvalError("integer overflow", int(np.argmax(over)))
    return value


def _int_op(op: str, a, b):
    if isinstance(a, int) and isinstance(b, int):
        if op in _COMPARE:
            return int(_COMPARE[op](a, b))
        return _bounded(_ARITH[op](a, b))
    # Bound the operands and every result by the operands' magnitudes;
    # past int64, compute with Python ints.
    ma, mb = _magnitude(a), _magnitude(b)
    bound = ma * mb if op == "*" else ma + mb if op in "+-" else 0
    wide = max(bound, ma, mb) > INT64_MAX
    if wide:
        a, b = _exact(a), _exact(b)
    if op in _COMPARE:
        return np.asarray(_COMPARE[op](a, b)).astype(np.int64)
    result = _ARITH[op](a, b)
    return _bounded(result) if wide else result


def _binary(op: str, lhs: Value, rhs: Value) -> Value:
    if op in _COMPARE:
        if _is_int(lhs) and _is_int(rhs):
            return _int_op(op, lhs, rhs)
        raise EvalError(f"comparison {op} requires integers")
    if _is_int(lhs) and _is_int(rhs):
        return _int_op(op, lhs, rhs)
    if isinstance(lhs, tuple) and isinstance(rhs, tuple):
        if len(lhs) != len(rhs):
            raise EvalError(
                f"tuple length mismatch: {len(lhs)} vs {len(rhs)} for operator {op}")
        return tuple(_int_op(op, a, b) for a, b in zip(lhs, rhs))
    if isinstance(lhs, tuple) and _is_int(rhs):
        return tuple(_int_op(op, a, rhs) for a in lhs)
    if _is_int(lhs) and isinstance(rhs, tuple):
        return tuple(_int_op(op, lhs, b) for b in rhs)
    raise EvalError(f"operator {op} is not defined for {_kind(lhs)} and {_kind(rhs)}")


def _kind(value: Value) -> str:
    """The value's kind, as the kind tables of ``ast`` name it."""
    if _is_int(value):
        return "int"
    if isinstance(value, tuple):
        return "tuple"
    if isinstance(value, ProcessorSpace):
        return "space"
    if isinstance(value, TaskHandle):
        return "task"
    return "processor"


def _expect_int(value: Value, what: str):
    if _is_int(value):
        return value
    raise EvalError(f"{what} must be an integer, got {_kind(value)}")


def _expect_tuple(value: Value, what: str) -> tuple:
    if isinstance(value, tuple):
        return value
    raise EvalError(f"{what} must be a tuple, got {_kind(value)}")


# --------------------------------------------------------------------------
# Batch plumbing: restricting values to some points, merging the two
# branches of a ternary, and splitting a batch by value.
# --------------------------------------------------------------------------


def _take(value: Value, rows: np.ndarray) -> Value:
    """``value`` restricted to the points ``rows`` of its batch."""
    if isinstance(value, np.ndarray):
        return value[rows]
    if isinstance(value, tuple):
        return tuple(_take(v, rows) for v in value)
    if isinstance(value, TaskHandle):
        return TaskHandle(value.name, _take(value.ipoint, rows), value.ispace,
                          value.parent, value.processor)
    return value


def _is_proc(value: Value) -> bool:
    return isinstance(value, ProcIndex) or (
        isinstance(value, np.ndarray) and value.ndim == 2)


def _int_dtype(*values):
    wide = any(_magnitude(v) > INT64_MAX if isinstance(v, int) else v.dtype == object
               for v in values)
    return object if wide else np.int64


def _select(taken: np.ndarray, then: Value, other: Value) -> Value:
    """Merge a ternary's branch results, each given on its own points."""
    if _is_int(then) and _is_int(other):
        out = np.empty(len(taken), dtype=_int_dtype(then, other))
    elif _is_proc(then) and _is_proc(other):
        out = np.empty((len(taken), 2), dtype=np.int64)
        then, other = (np.array([v.node, v.local]) if isinstance(v, ProcIndex) else v
                       for v in (then, other))
    elif (isinstance(then, tuple) and isinstance(other, tuple)
          and len(then) == len(other)):
        return tuple(_select(taken, a, b) for a, b in zip(then, other))
    elif isinstance(then, ProcessorSpace) and then == other:
        return then
    else:
        raise _Split(taken.astype(np.int64))
    out[taken] = then
    out[~taken] = other
    return out


def _uniform(value: Value) -> Value:
    """``value`` as a uniform value, or a split of the batch by value."""
    if isinstance(value, tuple):
        return tuple(_uniform(v) for v in value)
    if not (isinstance(value, np.ndarray) and value.ndim == 1):
        return value
    first = value[0]
    if (value == first).all():
        return int(first)
    groups: dict[int, int] = {}
    raise _Split(np.array([groups.setdefault(v, len(groups)) for v in value.tolist()]))


def _eval_on(expr: Expr, env: EvalEnv, rows: np.ndarray, size: int) -> Value:
    """Evaluate ``expr`` on the points ``rows`` of a batch of ``size``."""
    sub = env.with_locals({k: _take(v, rows) for k, v in env.locals.items()})
    try:
        return eval_expr(expr, sub)
    except (EvalError, SpaceError) as exc:
        exc.row = int(rows[exc.row])
        raise
    except _Split as split:
        labels = np.full(size, -1)
        labels[rows] = split.labels
        split.labels = labels
        raise


# --------------------------------------------------------------------------
# Expression evaluation
# --------------------------------------------------------------------------


def eval_expr(expr: Expr, env: EvalEnv) -> Value:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Name):
        return env.resolve(expr.ident)
    if isinstance(expr, TupleLit):
        return tuple(_expect_int(eval_expr(e, env), "tuple element")
                     for e in expr.items)
    if isinstance(expr, MachineExpr):
        return machine_space(env.machine, expr.kind)
    if isinstance(expr, BinOp):
        return _binary(expr.op, eval_expr(expr.lhs, env), eval_expr(expr.rhs, env))
    if isinstance(expr, Ternary):
        return _eval_ternary(expr, env)
    if isinstance(expr, Attr):
        return _eval_attr(expr, env)
    if isinstance(expr, MethodCall):
        return _eval_method(expr, env)
    if isinstance(expr, Subscript):
        return _eval_subscript(expr, env)
    if isinstance(expr, Call):
        func = env.functions.get(expr.func)
        if func is None:
            raise EvalError(f"{expr.func} not found")
        args = [eval_expr(a, env) for a in expr.args]
        return call_function(func, args, env)
    if isinstance(expr, Splat):
        raise EvalError("splat is only allowed inside an index access")
    raise EvalError(f"cannot evaluate expression node {type(expr).__name__}")


def _eval_ternary(expr: Ternary, env: EvalEnv) -> Value:
    cond = _expect_int(eval_expr(expr.cond, env), "ternary condition")
    if isinstance(cond, int):
        return eval_expr(expr.then if cond else expr.other, env)
    taken = cond != 0
    if taken.all():
        return eval_expr(expr.then, env)
    if not taken.any():
        return eval_expr(expr.other, env)
    then = _eval_on(expr.then, env, np.flatnonzero(taken), len(taken))
    other = _eval_on(expr.other, env, np.flatnonzero(~taken), len(taken))
    return _select(taken, then, other)


def _eval_attr(expr: Attr, env: EvalEnv) -> Value:
    base = eval_expr(expr.base, env)
    kind = _kind(base)
    if expr.name not in ATTRIBUTES.get(kind, ()):
        raise EvalError(no_member(kind, expr.name, method=False))
    if kind == "space":  # its one attribute, the extents
        return base.dims
    value = getattr(base, expr.name)
    if value is None:
        raise EvalError(f"task {base.name} has no {expr.name}")
    return value


def _eval_method(expr: MethodCall, env: EvalEnv) -> Value:
    base = eval_expr(expr.base, env)
    args = [eval_expr(a, env) for a in expr.args]
    kind = _kind(base)
    if expr.method not in METHODS.get(kind, ()):
        raise EvalError(no_member(kind, expr.method, method=True))
    if kind == "task":
        if len(args) != 1 or not isinstance(args[0], ProcessorSpace):
            raise EvalError(f".{expr.method}() takes a processor space argument")
        if base.processor is None:
            raise EvalError(f"task {base.name} is not mapped to a processor yet")
        return args[0].index_of(base.processor)
    args = [_uniform(a) for a in args]
    roles = SPACE_METHODS[expr.method]
    for role, arg in zip(roles, args):  # "split factor must be an integer"
        (_expect_tuple if role == "shape" else _expect_int)(arg, f"{expr.method} {role}")
    if len(args) != len(roles):
        raise EvalError(f"wrong number of arguments for .{expr.method}()")
    return getattr(base, expr.method)(*args)


def _eval_subscript(expr: Subscript, env: EvalEnv) -> Value:
    base = eval_expr(expr.base, env)
    flat: list = []
    for index_expr in expr.indices:
        if isinstance(index_expr, Splat):
            value = eval_expr(index_expr.value, env)
            flat.extend(_expect_tuple(value, "splat operand"))
        else:
            flat.append(_expect_int(eval_expr(index_expr, env), "subscript"))
    if isinstance(base, ProcessorSpace):
        if len(flat) != base.rank:
            raise EvalError(
                f"space of size {base.dims} takes {base.rank} subscripts, "
                f"got {len(flat)}")
        if all(isinstance(i, int) for i in flat):
            return base.lookup(tuple(flat))
        size = next(len(i) for i in flat if not isinstance(i, int))
        index = np.empty((size, len(flat)), dtype=_int_dtype(*flat))
        for k, column in enumerate(flat):
            index[:, k] = column
        return base.lookup_all(index)
    if isinstance(base, tuple):
        if len(flat) != 1:
            raise EvalError("tuples take exactly one subscript")
        i = flat[0]
        bad = (i < 0) | (i >= len(base))
        if isinstance(i, int):
            if bad:
                raise EvalError(f"tuple index {i} out of range for length {len(base)}")
            return base[i]
        if bad.any():
            row = int(np.argmax(bad))
            raise EvalError(
                f"tuple index {int(i[row])} out of range for length {len(base)}", row)
        out = np.empty(len(i), dtype=_int_dtype(*base))
        for k, item in enumerate(base):
            hit = i == k
            out[hit] = item[hit] if isinstance(item, np.ndarray) else item
        return out
    raise EvalError(no_elements(_kind(base)))


# --------------------------------------------------------------------------
# Mapping-function invocation
# --------------------------------------------------------------------------


def call_function(func: FuncDef, args: list[Value], env: EvalEnv) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"call to {func.name} has {len(args)} arguments, "
            f"expected {len(func.params)}")
    local_bindings = {p.name: v for p, v in zip(func.params, args)}
    body_env = env.with_locals(local_bindings)
    for stmt in func.body:
        if isinstance(stmt, LocalAssign):
            body_env.locals[stmt.name] = eval_expr(stmt.expr, body_env)
        elif isinstance(stmt, ReturnStmt):
            return eval_expr(stmt.expr, body_env)
    raise EvalError(f"function {func.name} returned no value")


def mapping_args(func: FuncDef, task: TaskHandle) -> list[Value]:
    """Adapt a task to the function's calling convention.

    Both conventions are supported: a single Task parameter, or the
    (Tuple ipoint, Tuple ispace) pair.
    """
    signature_error = entry_signature_error(func)
    if signature_error:
        raise EvalError(signature_error)
    return [task] if len(func.params) == 1 else [task.ipoint, task.ispace]


def eval_mapping(func: FuncDef, task: TaskHandle, env: EvalEnv) -> ProcIndex:
    """Run one mapping function on one launch point."""
    try:
        result = call_function(func, mapping_args(func, task), env)
    except SpaceError as exc:
        raise EvalError(str(exc)) from exc
    if not isinstance(result, ProcIndex):
        raise EvalError(
            f"mapping function {func.name} must return a processor, "
            f"got {_kind(result)}")
    return result


def eval_launch(func: FuncDef, name: str, ispace: tuple[int, ...], env: EvalEnv,
                parent: Optional[TaskHandle] = None,
                ) -> tuple[np.ndarray, Optional[EvalError]]:
    """Run one mapping function once over every point of a launch domain.

    Returns the (node, local) rows of the points in row-major order, up
    to the first point that fails, and that point's error (None when
    every point maps).  The error is the one ``eval_mapping`` raises on
    that point.
    """
    size = math.prod(ispace)
    columns = tuple(np.indices(ispace).reshape(len(ispace), size))

    def run(rows: np.ndarray) -> np.ndarray:
        task = TaskHandle(name, tuple(c[rows] for c in columns), ispace, parent)
        result = call_function(func, mapping_args(func, task), env)
        if isinstance(result, ProcIndex):
            return np.tile([result.node, result.local], (len(rows), 1))
        if not _is_proc(result):
            raise EvalError(
                f"mapping function {func.name} must return a processor, "
                f"got {_kind(result)}")
        return result

    procs, failure = _first_failure(run, size)
    if failure is None:
        return procs, None
    error = failure[1]
    if not isinstance(error, EvalError):
        error = EvalError(str(error))
    return procs, error


def _first_failure(run, size: int):
    """Evaluate ``run`` on the points 0 .. size-1.

    Returns (procs, failure): the (node, local) rows of the points before
    the first failing one, and (its position, its error), or None when no
    point fails.  Points are evaluated in groups taken from a work list,
    lowest first.  A group that fails at one of its points makes that
    point a candidate; it is final once every point before it has been
    evaluated, since one of them may fail at a later step.  The group's
    points before the failing one go back on the list in two halves, so
    that failures at ever earlier points take a logarithmic number of
    runs rather than one run each.  A group that splits goes back as its
    parts.
    """
    done = []  # (rows, procs) of each group that evaluated without failing
    limit, error = size, None  # the first failing point found so far
    work = [np.arange(size)]
    while work:
        rows = work.pop()
        rows = rows[:np.searchsorted(rows, limit)]  # rows ascend
        if not len(rows):
            continue
        try:
            done.append((rows, run(rows)))
        except (EvalError, SpaceError) as exc:
            limit, error = int(rows[exc.row]), exc
            half = exc.row // 2
            work += [rows[half:exc.row], rows[:half]]
        except _Split as split:
            labels = sorted(set(split.labels.tolist()), reverse=True)
            work += [rows[split.labels == label] for label in labels]
    if error is None and len(done) == 1:
        return done[0][1], None  # every point in one run
    procs = np.empty((size, 2), dtype=np.int64)
    for rows, part in done:
        procs[rows] = part
    return procs[:limit], None if error is None else (limit, error)


# --------------------------------------------------------------------------
# Built-in mapping function library
# --------------------------------------------------------------------------

_BUILTIN_FILES = ("common_mappings.dsl", "matmul_mappings.dsl", "block3d.dsl")


def corpus_path(*parts: str) -> Path:
    """Path of a bundled corpus file or directory."""
    return Path(resources.files("mapforge") / "corpus").joinpath(*parts)


@functools.cache
def builtin_program() -> MapperProgram:
    """All bundled mapping functions and their transformation preludes,
    merged into one program.  A top-level binding equal to the one
    already in force for its name is left out, so that a file can bind
    what it uses (``m = Machine(GPU);``) and still be loaded alone.

    The files are parsed on the first call only; later calls return the
    same program.  It is immutable: its ``functions`` and ``bindings``
    build a new dict on every access, so a caller on a hot path keeps
    the dict for as long as this returns the same program, as
    ``binder.table_from_choices`` does.
    """
    from .parser import parse_valid

    statements = []
    in_force: dict[str, AssignStmt] = {}
    for filename in _BUILTIN_FILES:
        text = corpus_path("builtins", filename).read_text()
        for stmt in parse_valid(text).statements:
            if isinstance(stmt, AssignStmt):
                if in_force.get(stmt.name) == stmt:
                    continue
                in_force[stmt.name] = stmt
            statements.append(stmt)
    return MapperProgram(tuple(statements))
