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

``#`` starts a line comment.  Common misspellings of SYSMEM (SYMEM,
SYSEM, SYSTEM, SYSTEMEM) are accepted and canonicalized.  Parenthesized
expressions are folded away at parse time; ``(e1, e2, ...)`` with at
least one comma is a tuple literal.

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

from dataclasses import dataclass

from .ast import (
    ALIGN_OPS, MEM_ALIASES, MEM_KINDS, PROC_KINDS, WILDCARD,
    Align, AssignStmt, Attr, BinOp, Call, CollectStmt, Diagnostic, Expr,
    FuncDef, IndexTaskMapStmt, InstanceLimitStmt, IntLit, LayoutStmt,
    LocalAssign, MachineExpr, MapperProgram, MethodCall, Name, Param,
    Pattern, RegionStmt, ReturnStmt, SingleTaskMapStmt, Splat, Statement,
    Subscript, TaskStmt, Ternary, TupleLit,
)

# Tokens are (type, text, line, col); type is "IDENT", "INT", "EOF", or
# the literal symbol text.
SYMBOLS = (
    "==", "!=", "<=", ">=",
    ";", ",", "(", ")", "{", "}", "[", "]",
    ".", "?", ":", "=", "<", ">", "+", "-", "*", "/", "%",
)

PARAM_KINDS = ("Task", "Tuple", "int")

LAYOUT_KEYWORDS = ("SOA", "AOS", "C_order", "F_order", "No_Align")

MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
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
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start, start_col = i, col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("INT", source[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("IDENT", source[start:i], line, start_col))
            continue
        two = source[i:i + 2]
        if two in ("==", "!=", "<=", ">="):
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in ";,(){}[].?:=<>+-*/%":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise _SyntaxFailure(line, col, f"Syntax error, unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # expression nesting levels open at the current token

    # -- token access --------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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

    def _expect_ident(self, expecting: str = "identifier") -> Token:
        return self._expect("IDENT", expecting)

    def _match(self, token_type: str) -> Token | None:
        if self._peek().type == token_type:
            return self._advance()
        return None

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
        if tok.type != "IDENT":
            raise self._fail(tok, "a statement")
        word = tok.text
        if word == "Task":
            return self._task_stmt()
        if word == "Region":
            return self._region_stmt()
        if word == "Layout":
            return self._layout_stmt()
        if word == "IndexTaskMap":
            return self._taskmap_stmt(IndexTaskMapStmt)
        if word == "SingleTaskMap":
            return self._taskmap_stmt(SingleTaskMapStmt)
        if word in ("InstanceLimit", "Instancelimit"):
            return self._limit_stmt()
        if word in ("CollectMemory", "GarbageCollect"):
            return self._collect_stmt()
        if word == "def":
            return self._func_def()
        if self._peek(1).type == "=":
            return self._binding()
        raise self._fail(tok, "a statement")

    def _task_stmt(self) -> TaskStmt:
        kw = self._advance()
        pattern = self._pattern()
        procs = [self._proc_kind()]
        while self._match(","):
            procs.append(self._proc_kind())
        self._expect(";")
        return TaskStmt(pattern, tuple(procs), pos=(kw.line, kw.col))

    def _region_stmt(self) -> RegionStmt:
        kw = self._advance()
        task = self._pattern()
        region = self._region_pattern()
        proc = self._proc_pattern()
        mems = [self._mem_kind()]
        while self._match(","):
            mems.append(self._mem_kind())
        self._expect(";")
        return RegionStmt(task, region, proc, tuple(mems), pos=(kw.line, kw.col))

    def _layout_stmt(self) -> LayoutStmt:
        kw = self._advance()
        task = self._pattern()
        region = self._region_pattern()
        proc = self._proc_pattern()
        constraints = [self._constraint()]
        while self._peek().type != ";":
            constraints.append(self._constraint())
        self._expect(";")
        return LayoutStmt(task, region, proc, tuple(constraints), pos=(kw.line, kw.col))

    def _taskmap_stmt(self, cls) -> Statement:
        kw = self._advance()
        names = [self._expect_ident("task name").text]
        while self._match(","):
            names.append(self._expect_ident("task name").text)
        func = self._expect_ident("function name").text
        self._expect(";")
        return cls(tuple(names), func, pos=(kw.line, kw.col))

    def _limit_stmt(self) -> InstanceLimitStmt:
        kw = self._advance()
        task = self._expect_ident("task name").text
        limit = self._expect("INT", "instance limit")
        self._expect(";")
        return InstanceLimitStmt(task, int(limit.text), pos=(kw.line, kw.col))

    def _collect_stmt(self) -> CollectStmt:
        kw = self._advance()
        task = self._expect_ident("task name").text
        region = self._region_pattern()
        self._expect(";")
        return CollectStmt(task, region, pos=(kw.line, kw.col))

    def _binding(self) -> AssignStmt:
        name = self._advance()
        self._expect("=")
        expr = self._expr()
        self._expect(";")
        return AssignStmt(name.text, expr, pos=(name.line, name.col))

    def _func_def(self) -> FuncDef:
        kw = self._advance()
        name = self._expect_ident("function name").text
        self._expect("(")
        params = [self._param()]
        while self._match(","):
            params.append(self._param())
        self._expect(")")
        self._expect("{")
        body: list = []
        while self._peek().type != "}":
            if self._peek().type == "EOF":
                raise self._fail(self._peek(), "}")
            body.append(self._func_stmt())
        self._expect("}")
        return FuncDef(name, tuple(params), tuple(body), pos=(kw.line, kw.col))

    def _param(self) -> Param:
        tok = self._peek()
        if tok.type != "IDENT" or tok.text not in PARAM_KINDS:
            raise self._fail(tok, "Task, Tuple, or int")
        self._advance()
        name = self._expect_ident("parameter name").text
        return Param(tok.text, name)

    def _func_stmt(self):
        tok = self._peek()
        if tok.type == "IDENT" and tok.text == "return":
            self._advance()
            expr = self._expr()
            self._expect(";")
            return ReturnStmt(expr, pos=(tok.line, tok.col))
        if tok.type == "IDENT" and self._peek(1).type == "=":
            self._advance()
            self._expect("=")
            expr = self._expr()
            self._expect(";")
            return LocalAssign(tok.text, expr, pos=(tok.line, tok.col))
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
        if self._peek().type == "*":
            self._advance()
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
    # left-nested chain; chains restore it once built.

    def _expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._too_deep()
        expr = self._ternary()
        self.depth -= 1
        return expr

    def _ternary(self) -> Expr:
        cond = self._compare()
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

    def _compare(self) -> Expr:
        lhs = self._additive()
        tok = self._peek()
        if tok.type in ("==", "!=", "<", ">", "<=", ">="):
            self._advance()
            rhs = self._additive()
            return BinOp(tok.type, lhs, rhs)
        return lhs

    def _end_chain(self, depth: int) -> None:
        if self.depth > MAX_NESTING:
            raise self._too_deep()
        self.depth = depth

    def _additive(self) -> Expr:
        depth = self.depth
        expr = self._multiplicative()
        while self._peek().type in ("+", "-"):
            self.depth += 1
            op = self._advance().type
            expr = BinOp(op, expr, self._multiplicative())
        if self.depth != depth:
            self._end_chain(depth)
        return expr

    def _multiplicative(self) -> Expr:
        depth = self.depth
        expr = self._postfix()
        while self._peek().type in ("*", "/", "%"):
            self.depth += 1
            op = self._advance().type
            expr = BinOp(op, expr, self._postfix())
        if self.depth != depth:
            self._end_chain(depth)
        return expr

    def _postfix(self) -> Expr:
        depth = self.depth
        expr = self._primary()
        while True:
            if self._match("."):
                self.depth += 1
                name = self._expect_ident("attribute name").text
                if self._match("("):
                    args = self._expr_list()
                    self._expect(")")
                    expr = MethodCall(expr, name, args)
                else:
                    expr = Attr(expr, name)
            elif self._match("["):
                self.depth += 1
                if self.depth > MAX_NESTING:  # a splat recurses here
                    raise self._too_deep()
                indices = self._subscript_args()
                self._expect("]")
                expr = Subscript(expr, indices)
            else:
                if self.depth != depth:
                    self._end_chain(depth)
                return expr

    def _primary(self) -> Expr:
        tok = self._peek()
        if tok.type == "INT":
            self._advance()
            return IntLit(int(tok.text))
        if tok.type == "(":
            self._advance()
            items = [self._expr()]
            while self._match(","):
                items.append(self._expr())
            self._expect(")")
            if len(items) == 1:
                return items[0]  # grouping parentheses fold away
            return TupleLit(tuple(items))
        if tok.type == "IDENT":
            if tok.text == "Machine" and self._peek(1).type == "(":
                self._advance()
                self._advance()
                kind = self._proc_kind()
                self._expect(")")
                return MachineExpr(kind)
            self._advance()
            if self._match("("):
                args = self._expr_list()
                self._expect(")")
                return Call(tok.text, args, pos=(tok.line, tok.col))
            return Name(tok.text, pos=(tok.line, tok.col))
        raise self._fail(tok, "an expression")

    def _expr_list(self) -> tuple[Expr, ...]:
        args = [self._expr()]
        while self._match(","):
            args.append(self._expr())
        return tuple(args)

    def _subscript_args(self) -> tuple[Expr, ...]:
        args = [self._subscript_arg()]
        while self._match(","):
            args.append(self._subscript_arg())
        return tuple(args)

    def _subscript_arg(self) -> Expr:
        if self._match("*"):
            return Splat(self._postfix())
        return self._expr()


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
