"""AST node types for the mapper DSL.

All nodes are frozen dataclasses compared structurally, so that
parse -> print -> parse round trips can be checked with ``==``.
Source positions are carried on ``compare=False`` fields: they are
available for diagnostics but do not participate in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

PROC_KINDS = ("CPU", "GPU", "OMP")
MEM_KINDS = ("SYSMEM", "FBMEM", "ZCMEM", "RDMEM", "SOCKMEM")

# Alternate spellings of SYSMEM that appear in real mapper sources.
MEM_ALIASES = {
    "SYMEM": "SYSMEM",
    "SYSEM": "SYSMEM",
    "SYSTEM": "SYSMEM",
    "SYSTEMEM": "SYSMEM",
}

ALIGN_OPS = ("==", "<=", ">=")

# The comparison operators: non-associative, binding looser than
# arithmetic, and yielding 0 or 1.
COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")

# A DSL identifier, ASCII only.  The tokenizer and the descriptor loaders
# both use it: task and region names in descriptors appear in mappers.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# A task/region pattern is an identifier, a positional index (regions
# only), or the wildcard "*".
Pattern = Union[str, int]
WILDCARD = "*"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int  # 1-based
    col: int  # 1-based
    message: str

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Name:
    ident: str
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class TupleLit:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class MachineExpr:
    """Machine(GPU) and friends: the root processor space of one kind."""

    kind: str


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class Attr:
    base: "Expr"
    name: str


@dataclass(frozen=True)
class MethodCall:
    base: "Expr"
    method: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % == != < > <= >=
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Subscript:
    base: "Expr"
    indices: tuple["Expr", ...]


@dataclass(frozen=True)
class Splat:
    """*expr inside a subscript argument list; expands a tuple value."""

    value: "Expr"


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[
    Name, IntLit, TupleLit, MachineExpr, Call, Attr, MethodCall, BinOp,
    Subscript, Splat, Ternary,
]


# --------------------------------------------------------------------------
# Layout constraints
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Align:
    op: str  # one of ALIGN_OPS
    bytes: int


# SOA / AOS / C_order / F_order / No_Align are represented as plain strings.
LayoutConstraint = Union[str, Align]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskStmt:
    task_pattern: str
    procs: tuple[str, ...]
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class RegionStmt:
    task_pattern: str
    region_pattern: Pattern
    proc: str  # processor kind or "*": a guard on the task's chosen kind
    memories: tuple[str, ...]
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class LayoutStmt:
    task_pattern: str
    region_pattern: Pattern
    proc_pattern: str
    constraints: tuple[LayoutConstraint, ...]
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class IndexTaskMapStmt:
    task_names: tuple[str, ...]
    func_name: str
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class SingleTaskMapStmt:
    task_names: tuple[str, ...]
    func_name: str
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class InstanceLimitStmt:
    task_name: str
    limit: int
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class CollectStmt:
    """GarbageCollect / CollectMemory: free a region's instances eagerly."""

    task_name: str
    region_pattern: Pattern
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class AssignStmt:
    """Top-level binding such as ``mgpu = Machine(GPU);``."""

    name: str
    expr: Expr
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class Param:
    kind: str  # "Task" | "Tuple" | "int"
    name: str


@dataclass(frozen=True)
class LocalAssign:
    name: str
    expr: Expr
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
class ReturnStmt:
    expr: Expr
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


FuncStmt = Union[LocalAssign, ReturnStmt]


@dataclass(frozen=True)
class FuncDef:
    name: str
    params: tuple[Param, ...]
    body: tuple[FuncStmt, ...]
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


def entry_signature_error(func: FuncDef) -> Optional[str]:
    """Why ``func`` cannot be an IndexTaskMap/SingleTaskMap entry point,
    or None when it can: it takes one Task, or the (Tuple ipoint, Tuple
    ispace) pair."""
    if [p.kind for p in func.params] in (["Task"], ["Tuple", "Tuple"]):
        return None
    return (f"function {func.name} must take (Task task) or "
            f"(Tuple ipoint, Tuple ispace) parameters")


Statement = Union[
    TaskStmt, RegionStmt, LayoutStmt, IndexTaskMapStmt, SingleTaskMapStmt,
    InstanceLimitStmt, CollectStmt, AssignStmt, FuncDef,
]


@dataclass(frozen=True)
class MapperProgram:
    statements: tuple[Statement, ...]

    @property
    def functions(self) -> dict[str, FuncDef]:
        """Function definitions by name, in program order."""
        return {s.name: s for s in self.statements if isinstance(s, FuncDef)}

    @property
    def bindings(self) -> dict[str, AssignStmt]:
        """Top-level variable bindings by name, in program order."""
        return {s.name: s for s in self.statements if isinstance(s, AssignStmt)}
