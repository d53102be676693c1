"""Lexer and recursive-descent parser for the mapper DSL.

Surface grammar (EBNF):

    program    = { statement }
    statement  = task | region | layout | indexmap | singlemap
               | limit | collect | funcdef | binding
    task       = "Task" pattern proc { "," proc } ";"
    region     = "Region" pattern rpattern ppattern mem { "," mem } ";"
    layout     = "Layout" pattern rpattern ppattern constraint { constraint } ";"
    indexmap   = "IndexTaskMap" name { "," name } name ";"
    singlemap  = "SingleTaskMap" name { "," name } name ";"
    limit      = ("InstanceLimit" | "Instancelimit") name INT ";"
    collect    = ("CollectMemory" | "GarbageCollect") name rpattern ";"
    binding    = name "=" expr ";"
    funcdef    = "def" name "(" param { "," param } ")" "{" { funcstmt } "}"
    param      = ("Task" | "Tuple" | "int") name
    funcstmt   = "return" expr ";" | name "=" expr ";"

    pattern    = name | "*"
    rpattern   = name | INT | "*"
    ppattern   = proc | "*"
    proc       = "CPU" | "GPU" | "OMP"
    mem        = "SYSMEM" | "FBMEM" | "ZCMEM" | "RDMEM" | "SOCKMEM"
    constraint = "SOA" | "AOS" | "C_order" | "F_order" | "No_Align"
               | "Align" ("==" | "<=" | ">=") INT

    expr       = ternary
    ternary    = compare [ "?" ternary ":" ternary ]
    compare    = additive [ ("==" | "!=" | "<" | ">" | "<=" | ">=") additive ]
    additive   = multiplic { ("+" | "-") multiplic }
    multiplic  = postfix { ("*" | "/" | "%") postfix }
    postfix    = primary { "." name [ "(" exprlist ")" ] | "[" subargs "]" }
    primary    = INT | "(" expr { "," expr } ")" | "Machine" "(" proc ")"
               | name [ "(" exprlist ")" ]
    subargs    = [ "*" ] expr { "," [ "*" ] expr }

A name is ASCII: a letter or ``_``, then letters, digits and ``_``
(``ast.IDENT``).  An INT is a run of ASCII digits ``0-9``, at most
``MAX_DIGITS`` long.  Any other character outside a comment is a syntax
error.  ``#`` starts a line comment.  Common misspellings of SYSMEM
(SYMEM, SYSEM, SYSTEM, SYSTEMEM) are accepted and canonicalized.
Parenthesized expressions are folded away at parse time; ``(e1, e2,
...)`` with at least one comma is a tuple literal.

``parse`` returns a :class:`MapperProgram`, or a list of
:class:`Diagnostic` on failure.  Every syntax diagnostic message begins
with ``"Syntax error,"`` and carries the 1-based line/column of the
offending token.  An expression may nest at most ``MAX_NESTING`` levels
deep, counting each parenthesis, argument list, subscript and ternary
branch and each operator or postfix access in a chain, so that no
recursive pass over the tree (parser, validator, printer, interpreter)
can exhaust the Python stack.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import (
    ALIGN_OPS, IDENT, MEM_ALIASES, MEM_KINDS, PROC_KINDS, WILDCARD,
    Align, AssignStmt, Attr, BinOp, Call, CollectStmt, Diagnostic, Expr,
    FuncDef, IndexTaskMapStmt, InstanceLimitStmt, IntLit, LayoutStmt,
    LocalAssign, MachineExpr, MapperProgram, MethodCall, Name, Param,
    Pattern, RegionStmt, ReturnStmt, SingleTaskMapStmt, Splat, Statement,
    Subscript, TaskStmt, Ternary, TupleLit,
)

PARAM_KINDS = ("Task", "Tuple", "int")

LAYOUT_KEYWORDS = ("SOA", "AOS", "C_order", "F_order", "No_Align")

MAX_NESTING = 100

# Longer integer literals are a syntax error: every literal stays far
# below the interpreter's integer bound and formats as text.
MAX_DIGITS = 1000

_COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")

# Whitespace and comments match no named group, so ``lastgroup`` is None.
_TOKEN = re.compile(
    rf"[ \t\r]+|#[^\n]*|(?P<newline>\n)|(?P<IDENT>{IDENT})|(?P<INT>[0-9]+)"
    r"|(?P<symbol>==|!=|<=|>=|[;,(){}\[\].?:=<>+\-*/%])|(?P<bad>.)")


class Token(NamedTuple):
    """``type`` is "IDENT", "INT", "EOF", or the symbol's own text."""

    type: str
    text: str
    line: int
    col: int

    def describe(self) -> str:
        if self.type == "EOF":
            return "end of input"
        return self.text


class _SyntaxFailure(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.diagnostic = Diagnostic("error", line, col, message)


def tokenize(source: str) -> list[Token]:
    """Tokenize DSL source; raises _SyntaxFailure on an illegal character."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        text = match.group()
        col = match.start() - line_start + 1
        if kind == "bad":
            raise _SyntaxFailure(line, col, f"Syntax error, unexpected character {text!r}")
        if kind == "INT" and len(text) > MAX_DIGITS:
            raise _SyntaxFailure(
                line, col, f"Syntax error, integer literal longer than {MAX_DIGITS} digits")
        tokens.append(Token(text if kind == "symbol" else kind, text, line, col))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # expression nesting levels open at the current token

    # -- token access --------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        # Callers look ahead only from an IDENT, so EOF is still in range.
        return self.tokens[self.pos + ahead]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def _fail(self, tok: Token, expecting: str) -> _SyntaxFailure:
        return _SyntaxFailure(
            tok.line, tok.col,
            f"Syntax error, unexpected {tok.describe()}, expecting {expecting}",
        )

    def _expect(self, token_type: str, expecting: str | None = None) -> Token:
        tok = self._peek()
        if tok.type != token_type:
            raise self._fail(tok, expecting or token_type)
        return self._advance()

    def _ident(self, expecting: str = "identifier") -> str:
        return self._expect("IDENT", expecting).text

    def _match(self, token_type: str) -> Token | None:
        if self._peek().type == token_type:
            return self._advance()
        return None

    def _comma_list(self, item, *args) -> tuple:
        """``item {"," item}``: one or more items, each parsed by ``item(*args)``."""
        items = [item(*args)]
        while self._match(","):
            items.append(item(*args))
        return tuple(items)

    def _too_deep(self) -> _SyntaxFailure:
        tok = self._peek()
        return _SyntaxFailure(
            tok.line, tok.col,
            f"Syntax error, expression nested more than {MAX_NESTING} levels deep")

    # -- top level -----------------------------------------------------

    def parse_program(self) -> MapperProgram:
        statements: list[Statement] = []
        while self._peek().type != "EOF":
            statements.append(self._statement())
        return MapperProgram(tuple(statements))

    def _statement(self) -> Statement:
        tok = self._peek()
        if tok.type == "IDENT":
            rule = _STATEMENT_RULES.get(tok.text)
            if rule is not None:
                return rule(self)
            if self._peek(1).type == "=":
                return self._assignment(AssignStmt)
        raise self._fail(tok, "a statement")

    def _task_stmt(self) -> TaskStmt:
        kw = self._advance()
        pattern = self._pattern()
        procs = self._comma_list(self._proc_kind)
        self._expect(";")
        return TaskStmt(pattern, procs, pos=(kw.line, kw.col))

    def _region_stmt(self) -> RegionStmt:
        kw = self._advance()
        task, region, proc = self._pattern(), self._region_pattern(), self._proc_pattern()
        mems = self._comma_list(self._mem_kind)
        self._expect(";")
        return RegionStmt(task, region, proc, mems, pos=(kw.line, kw.col))

    def _layout_stmt(self) -> LayoutStmt:
        kw = self._advance()
        task, region, proc = self._pattern(), self._region_pattern(), self._proc_pattern()
        constraints = [self._constraint()]
        while self._peek().type != ";":
            constraints.append(self._constraint())
        self._expect(";")
        return LayoutStmt(task, region, proc, tuple(constraints), pos=(kw.line, kw.col))

    def _taskmap_stmt(self) -> Statement:
        kw = self._advance()
        names = self._comma_list(self._ident, "task name")
        func = self._ident("function name")
        self._expect(";")
        cls = IndexTaskMapStmt if kw.text == "IndexTaskMap" else SingleTaskMapStmt
        return cls(names, func, pos=(kw.line, kw.col))

    def _limit_stmt(self) -> InstanceLimitStmt:
        kw = self._advance()
        task = self._ident("task name")
        limit = self._expect("INT", "instance limit")
        self._expect(";")
        return InstanceLimitStmt(task, int(limit.text), pos=(kw.line, kw.col))

    def _collect_stmt(self) -> CollectStmt:
        kw = self._advance()
        task = self._ident("task name")
        region = self._region_pattern()
        self._expect(";")
        return CollectStmt(task, region, pos=(kw.line, kw.col))

    def _assignment(self, cls):
        """``name "=" expr ";"`` as a top-level or a function-local binding."""
        name = self._advance()
        self._expect("=")
        expr = self._expr()
        self._expect(";")
        return cls(name.text, expr, pos=(name.line, name.col))

    def _func_def(self) -> FuncDef:
        kw = self._advance()
        name = self._ident("function name")
        self._expect("(")
        params = self._comma_list(self._param)
        self._expect(")")
        self._expect("{")
        body: list = []
        while self._peek().type != "}":
            if self._peek().type == "EOF":
                raise self._fail(self._peek(), "}")
            body.append(self._func_stmt())
        self._expect("}")
        return FuncDef(name, params, tuple(body), pos=(kw.line, kw.col))

    def _param(self) -> Param:
        tok = self._peek()
        if tok.type != "IDENT" or tok.text not in PARAM_KINDS:
            raise self._fail(tok, "Task, Tuple, or int")
        self._advance()
        return Param(tok.text, self._ident("parameter name"))

    def _func_stmt(self):
        tok = self._peek()
        if tok.type == "IDENT" and tok.text == "return":
            self._advance()
            expr = self._expr()
            self._expect(";")
            return ReturnStmt(expr, pos=(tok.line, tok.col))
        if tok.type == "IDENT" and self._peek(1).type == "=":
            return self._assignment(LocalAssign)
        raise self._fail(tok, "an assignment or return")

    # -- patterns and kind names ----------------------------------------

    def _pattern(self) -> str:
        tok = self._peek()
        if tok.type == "*":
            self._advance()
            return WILDCARD
        if tok.type == "IDENT":
            return self._advance().text
        raise self._fail(tok, "a task name or *")

    def _region_pattern(self) -> Pattern:
        tok = self._peek()
        if tok.type == "INT":
            return int(self._advance().text)
        if tok.type == "*":
            self._advance()
            return WILDCARD
        if tok.type == "IDENT":
            return self._advance().text
        raise self._fail(tok, "a region name, index, or *")

    def _proc_kind(self) -> str:
        tok = self._peek()
        if tok.type == "IDENT" and tok.text in PROC_KINDS:
            return self._advance().text
        raise self._fail(tok, "a processor kind (CPU, GPU, or OMP)")

    def _proc_pattern(self) -> str:
        if self._match("*"):
            return WILDCARD
        return self._proc_kind()

    def _mem_kind(self) -> str:
        tok = self._peek()
        if tok.type == "IDENT":
            text = MEM_ALIASES.get(tok.text, tok.text)
            if text in MEM_KINDS:
                self._advance()
                return text
        raise self._fail(tok, "a memory kind")

    def _constraint(self):
        tok = self._peek()
        if tok.type != "IDENT":
            raise self._fail(tok, "a layout constraint")
        if tok.text in LAYOUT_KEYWORDS:
            return self._advance().text
        if tok.text == "Align":
            self._advance()
            op = self._peek()
            if op.type not in ALIGN_OPS:
                raise self._fail(op, "==, <=, or >=")
            self._advance()
            value = self._expect("INT", "alignment in bytes")
            return Align(op.type, int(value.text))
        raise self._fail(tok, "a layout constraint")

    # -- expressions -----------------------------------------------------

    # ``depth`` counts the expression levels open at the current token.
    # It is checked wherever parsing recurses and at the end of each
    # left-nested chain; chains restore it once built.  A nesting level
    # costs at most five Python frames: _expr, _ternary, _arith, _postfix
    # and one of _primary, _comma_list or _subscript_arg.  So the
    # argument lists of _primary and _postfix's subscripts stay inline
    # loops: a _comma_list frame there would make a sixth.

    def _expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._too_deep()
        expr = self._ternary()
        self.depth -= 1
        return expr

    def _ternary(self) -> Expr:
        cond = self._arith()
        if self._peek().type in _COMPARE_OPS:
            op = self._advance().type
            cond = BinOp(op, cond, self._arith())
        if self._peek().type == "?":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self._too_deep()
            self._advance()
            then = self._ternary()
            self._expect(":")
            other = self._ternary()
            self.depth -= 1
            return Ternary(cond, then, other)
        return cond

    def _end_chain(self, depth: int) -> None:
        if self.depth > MAX_NESTING:
            raise self._too_deep()
        self.depth = depth

    def _arith(self) -> Expr:
        """A ``+ -`` chain of ``* / %`` chains of postfix operands."""
        outer = self.depth
        expr, op = None, None
        while True:
            inner = self.depth
            term = self._postfix()
            while self._peek().type in ("*", "/", "%"):
                self.depth += 1
                term = BinOp(self._advance().type, term, self._postfix())
            if self.depth != inner:
                self._end_chain(inner)
            expr = term if op is None else BinOp(op, expr, term)
            if self._peek().type not in ("+", "-"):
                break
            self.depth += 1
            op = self._advance().type
        if self.depth != outer:
            self._end_chain(outer)
        return expr

    def _postfix(self) -> Expr:
        depth = self.depth
        expr = self._primary()
        while True:
            if self._match("."):
                self.depth += 1
                name = self._ident("attribute name")
                if self._match("("):
                    args = self._comma_list(self._expr)
                    self._expect(")")
                    expr = MethodCall(expr, name, args)
                else:
                    expr = Attr(expr, name)
            elif self._match("["):
                self.depth += 1
                if self.depth > MAX_NESTING:  # a splat recurses here
                    raise self._too_deep()
                indices = [self._subscript_arg()]
                while self._match(","):
                    indices.append(self._subscript_arg())
                self._expect("]")
                expr = Subscript(expr, tuple(indices))
            else:
                if self.depth != depth:
                    self._end_chain(depth)
                return expr

    def _subscript_arg(self) -> Expr:
        if self._match("*"):
            return Splat(self._postfix())
        return self._expr()

    def _primary(self) -> Expr:
        tok = self._advance()
        if tok.type == "INT":
            return IntLit(int(tok.text))
        if tok.type == "IDENT":
            if tok.text == "Machine" and self._peek().type == "(":
                self._advance()
                kind = self._proc_kind()
                self._expect(")")
                return MachineExpr(kind)
            if not self._match("("):
                return Name(tok.text, pos=(tok.line, tok.col))
        elif tok.type != "(":
            raise self._fail(tok, "an expression")
        # Call arguments, or a parenthesized expression or tuple.
        items = [self._expr()]
        while self._match(","):
            items.append(self._expr())
        self._expect(")")
        if tok.type == "IDENT":
            return Call(tok.text, tuple(items), pos=(tok.line, tok.col))
        if len(items) == 1:
            return items[0]  # grouping parentheses fold away
        return TupleLit(tuple(items))


_STATEMENT_RULES = {
    "Task": _Parser._task_stmt,
    "Region": _Parser._region_stmt,
    "Layout": _Parser._layout_stmt,
    "IndexTaskMap": _Parser._taskmap_stmt,
    "SingleTaskMap": _Parser._taskmap_stmt,
    "InstanceLimit": _Parser._limit_stmt,
    "Instancelimit": _Parser._limit_stmt,
    "CollectMemory": _Parser._collect_stmt,
    "GarbageCollect": _Parser._collect_stmt,
    "def": _Parser._func_def,
}


def parse(source: str) -> MapperProgram | list[Diagnostic]:
    """Parse DSL source into a program, or diagnostics on failure."""
    try:
        tokens = tokenize(source)
        return _Parser(tokens).parse_program()
    except _SyntaxFailure as exc:
        return [exc.diagnostic]


def parse_valid(source: str) -> MapperProgram:
    """Parse source known to be valid; raises ValueError otherwise."""
    result = parse(source)
    if isinstance(result, list):
        raise ValueError(result[0].render())
    return result
