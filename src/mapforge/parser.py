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

A search run parses many texts that share most lines, so ``parse``
takes a :class:`CompileMemo`.  It keeps each statement that makes up
whole lines (from the first token of a line to the last token of a
line) under (first line number, the texts of the lines it spans).  That
is sound because a statement's parse reads only its own tokens, and the
same lines at the same line numbers give the same tokens, positions
included: a kept statement is the very statement a fresh parse of those
lines builds.  Only the lines between kept statements are tokenized and
parsed.  A syntax error there, or a statement that runs on into a kept
one, sends the rest of the text through a whole parse, so diagnostics
are those of a parse without a memo: an illegal character on any line
is still reported before a syntax error.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from sys import intern
from typing import NamedTuple, Optional

from .ast import (
    ALIGN_OPS, COMPARE_OPS, IDENT, LAYOUT_KEYWORDS, MEM_ALIASES, MEM_KINDS,
    PARAM_KINDS, PROC_KINDS, WILDCARD,
    Align, AssignStmt, Attr, BinOp, Call, CollectStmt, Diagnostic, Expr,
    FuncDef, IndexTaskMapStmt, InstanceLimitStmt, IntLit, LayoutStmt,
    LocalAssign, MachineExpr, MapperProgram, MethodCall, Name, Param,
    Pattern, RegionStmt, ReturnStmt, SingleTaskMapStmt, Splat, Statement,
    Subscript, TaskStmt, Ternary, TupleLit,
)

MAX_NESTING = 100

# Longer integer literals are a syntax error: every literal stays far
# below the interpreter's integer bound and formats as text.
MAX_DIGITS = 1000

# One match per token, whitespace run or comment, over one line: every
# character of a line is in exactly one match.  A match's kind is found
# from its first character (``_KINDS``); whitespace and comments have
# none, and a symbol is its own kind.
_TOKEN = re.compile(rf"[ \t\r]+|#.*|{IDENT}|[0-9]+|==|!=|<=|>=|.")
_SYMBOLS = frozenset(("==", "!=", "<=", ">=", *";,(){}[].?:=<>+-*/%"))
_KINDS = {**dict.fromkeys(string.ascii_letters + "_", "IDENT"),
          **dict.fromkeys(string.digits, "INT"), **dict.fromkeys(" \t\r#")}


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


@dataclass
class CompileMemo:
    """What ``parse`` and ``validator.validate`` reuse within one run.

    ``statements`` maps (first line number, then the text of each line
    the statement spans) to a statement that spans whole lines, and
    ``spans`` maps (line number, line text) to the line counts of the
    kept statements of more than one line that begin there.  ``checks``
    maps the id of a statement to (the statement, what ``validate``
    finds in it alone); the entry holds the statement, so that its id is
    not reused.  Nothing is evicted, so a memo is kept for one run only.
    """
    statements: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)


class _SyntaxFailure(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.diagnostic = Diagnostic("error", line, col, message)


def tokenize(source: str) -> list[Token]:
    """Tokenize DSL source; raises _SyntaxFailure on an illegal character."""
    lines = source.split("\n")
    return [*_tokens(lines, 0, len(lines)), _eof(lines)]


def _tokens(lines: list[str], start: int, end: int) -> list[Token]:
    """The tokens of the lines from line start + 1 up to line end."""
    return [tok for i in range(start, end) for tok in _tokenize_line(i + 1, lines[i])]


def _tokenize_line(line: int, text: str) -> list[Token]:
    tokens: list[Token] = []
    append, new_token = tokens.append, tuple.__new__  # skips Token's Python __new__
    col = 1
    for match in _TOKEN.findall(text):
        kind = _KINDS.get(match[0], "")
        if kind == "IDENT":  # interned: a run's memo keeps many copies of few names
            append(new_token(Token, (kind, intern(match), line, col)))
        elif match in _SYMBOLS:
            append(new_token(Token, (match, match, line, col)))
        elif kind == "INT":
            if len(match) > MAX_DIGITS:
                raise _SyntaxFailure(
                    line, col,
                    f"Syntax error, integer literal longer than {MAX_DIGITS} digits")
            append(new_token(Token, (kind, match, line, col)))
        elif kind is not None:
            raise _SyntaxFailure(
                line, col, f"Syntax error, unexpected character {match!r}")
        col += len(match)
    return tokens


def _eof(lines: list[str]) -> Token:
    return Token("EOF", "", len(lines), len(lines[-1]) + 1)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        # The hot rules read ``types[pos]`` and step ``pos`` themselves.
        # They step only past a token whose type they have checked, so
        # ``pos`` never moves past EOF.
        self.types = [tok.type for tok in tokens]
        self.pos = 0
        self.depth = 0  # expression nesting levels open at the current token

    # -- token access --------------------------------------------------

    def _advance(self) -> Token:
        """The current token, stepping past it; callers have checked that
        it is an IDENT."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, tok: Token, expecting: str) -> _SyntaxFailure:
        return _SyntaxFailure(
            tok.line, tok.col,
            f"Syntax error, unexpected {tok.describe()}, expecting {expecting}",
        )

    def _expect(self, token_type: str, expecting: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != token_type:
            raise self._fail(tok, expecting or token_type)
        self.pos += 1
        return tok

    def _ident(self, expecting: str = "identifier") -> str:
        return self._expect("IDENT", expecting).text

    def _comma_list(self, item, *args) -> tuple:
        """``item {"," item}``: one or more items, each parsed by ``item(*args)``."""
        items = [item(*args)]
        while self.types[self.pos] == ",":
            self.pos += 1
            items.append(item(*args))
        return tuple(items)

    def _too_deep(self) -> _SyntaxFailure:
        tok = self.tokens[self.pos]
        return _SyntaxFailure(
            tok.line, tok.col,
            f"Syntax error, expression nested more than {MAX_NESTING} levels deep")

    # -- top level -----------------------------------------------------

    def _whole_lines(self, start: int) -> bool:
        """Whether the tokens from ``start`` up to the current one make up
        whole lines."""
        tokens, end = self.tokens, self.pos
        return ((start == 0 or tokens[start - 1].line < tokens[start].line)
                and (tokens[end].type == "EOF" or tokens[end].line > tokens[end - 1].line))

    def _statement(self) -> Statement:
        tok = self.tokens[self.pos]
        if tok.type == "IDENT":
            rule = _STATEMENT_RULES.get(tok.text)
            if rule is not None:
                return rule(self)
            # Looking ahead from an IDENT, EOF is still in range.
            if self.types[self.pos + 1] == "=":
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
        while self.types[self.pos] != ";":
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
        while self.types[self.pos] != "}":
            if self.types[self.pos] == "EOF":
                raise self._fail(self.tokens[self.pos], "}")
            body.append(self._func_stmt())
        self._expect("}")
        return FuncDef(name, params, tuple(body), pos=(kw.line, kw.col))

    def _param(self) -> Param:
        tok = self.tokens[self.pos]
        if tok.type != "IDENT" or tok.text not in PARAM_KINDS:
            raise self._fail(tok, "Task, Tuple, or int")
        self.pos += 1
        return Param(tok.text, self._ident("parameter name"))

    def _func_stmt(self):
        tok = self.tokens[self.pos]
        if tok.type == "IDENT" and tok.text == "return":
            self.pos += 1
            expr = self._expr()
            self._expect(";")
            return ReturnStmt(expr, pos=(tok.line, tok.col))
        if tok.type == "IDENT" and self.types[self.pos + 1] == "=":
            return self._assignment(LocalAssign)
        raise self._fail(tok, "an assignment or return")

    # -- patterns and kind names ----------------------------------------

    def _pattern(self) -> str:
        tok = self.tokens[self.pos]
        if tok.type == "*" or tok.type == "IDENT":
            self.pos += 1
            return tok.text  # the wildcard's text is WILDCARD
        raise self._fail(tok, "a task name or *")

    def _region_pattern(self) -> Pattern:
        tok = self.tokens[self.pos]
        if tok.type == "INT":
            self.pos += 1
            return int(tok.text)
        if tok.type == "*" or tok.type == "IDENT":
            self.pos += 1
            return tok.text
        raise self._fail(tok, "a region name, index, or *")

    def _proc_kind(self) -> str:
        tok = self.tokens[self.pos]
        if tok.type == "IDENT" and tok.text in PROC_KINDS:
            self.pos += 1
            return tok.text
        raise self._fail(tok, "a processor kind (CPU, GPU, or OMP)")

    def _proc_pattern(self) -> str:
        if self.types[self.pos] == "*":
            self.pos += 1
            return WILDCARD
        return self._proc_kind()

    def _mem_kind(self) -> str:
        tok = self.tokens[self.pos]
        if tok.type == "IDENT":
            text = MEM_ALIASES.get(tok.text, tok.text)
            if text in MEM_KINDS:
                self.pos += 1
                return text
        raise self._fail(tok, "a memory kind")

    def _constraint(self):
        tok = self.tokens[self.pos]
        if tok.type != "IDENT":
            raise self._fail(tok, "a layout constraint")
        if tok.text in LAYOUT_KEYWORDS:
            self.pos += 1
            return tok.text
        if tok.text == "Align":
            op = self.tokens[self.pos + 1]
            if op.type not in ALIGN_OPS:
                raise self._fail(op, "==, <=, or >=")
            self.pos += 2
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
        types = self.types
        if types[self.pos] in COMPARE_OPS:
            op = types[self.pos]
            self.pos += 1
            cond = BinOp(op, cond, self._arith())
        if types[self.pos] == "?":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self._too_deep()
            self.pos += 1
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
        types = self.types
        outer = self.depth
        expr, op = None, None
        while True:
            inner = self.depth
            term = self._postfix()
            while types[self.pos] in ("*", "/", "%"):
                self.depth += 1
                mul = types[self.pos]
                self.pos += 1
                term = BinOp(mul, term, self._postfix())
            if self.depth != inner:
                self._end_chain(inner)
            expr = term if op is None else BinOp(op, expr, term)
            if types[self.pos] not in ("+", "-"):
                break
            self.depth += 1
            op = types[self.pos]
            self.pos += 1
        if self.depth != outer:
            self._end_chain(outer)
        return expr

    def _postfix(self) -> Expr:
        types = self.types
        depth = self.depth
        expr = self._primary()
        while True:
            kind = types[self.pos]
            if kind == ".":
                self.pos += 1
                self.depth += 1
                name = self._ident("attribute name")
                if types[self.pos] == "(":
                    self.pos += 1
                    args = self._comma_list(self._expr)
                    self._expect(")")
                    expr = MethodCall(expr, name, args)
                else:
                    expr = Attr(expr, name)
            elif kind == "[":
                self.pos += 1
                self.depth += 1
                if self.depth > MAX_NESTING:  # a splat recurses here
                    raise self._too_deep()
                indices = [self._subscript_arg()]
                while types[self.pos] == ",":
                    self.pos += 1
                    indices.append(self._subscript_arg())
                self._expect("]")
                expr = Subscript(expr, tuple(indices))
            else:
                if self.depth != depth:
                    self._end_chain(depth)
                return expr

    def _subscript_arg(self) -> Expr:
        if self.types[self.pos] == "*":
            self.pos += 1
            return Splat(self._postfix())
        return self._expr()

    def _primary(self) -> Expr:
        types, pos = self.types, self.pos
        tok = self.tokens[pos]
        if tok.type == "INT":
            self.pos = pos + 1
            return IntLit(int(tok.text))
        if tok.type == "IDENT":
            if types[pos + 1] != "(":
                self.pos = pos + 1
                return Name(tok.text, pos=(tok.line, tok.col))
            self.pos = pos + 2
            if tok.text == "Machine":
                kind = self._proc_kind()
                self._expect(")")
                return MachineExpr(kind)
        elif tok.type == "(":
            self.pos = pos + 1
        else:
            raise self._fail(tok, "an expression")
        # Call arguments, or a parenthesized expression or tuple.
        items = [self._expr()]
        while types[self.pos] == ",":
            self.pos += 1
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


def parse(source: str, memo: Optional[CompileMemo] = None,
          ) -> MapperProgram | list[Diagnostic]:
    """Parse DSL source into a program, or diagnostics on failure.  A
    memo, kept for one run, reuses the statements of earlier calls;
    without one the call uses a fresh memo."""
    memo = CompileMemo() if memo is None else memo
    try:
        return _parse(source.split("\n"), memo)
    except _SyntaxFailure as exc:
        return [exc.diagnostic]


def _parse(lines: list[str], memo: CompileMemo) -> MapperProgram:
    statements: list[Statement] = []
    i = 0  # the next statement begins on line i + 1 or later, at a line's first token
    while i < len(lines):
        stmt, span = _kept_statement(memo, lines, i)
        if stmt is not None:
            statements.append(stmt)
            i += span
            continue
        end = i + 1  # parse the lines up to the next kept statement
        while end < len(lines) and _kept_statement(memo, lines, end)[0] is None:
            end += 1
        before = len(statements)
        try:
            parser = _Parser([*_tokens(lines, i, end), _eof(lines)])
            while parser.types[parser.pos] != "EOF":
                start = parser.pos
                statements.append(parser._statement())
                if parser._whole_lines(start):
                    _keep(memo, lines, statements[-1], parser.tokens[start].line,
                          parser.tokens[parser.pos - 1].line)
        except _SyntaxFailure:
            # A syntax error, or a statement that runs on past line ``end``:
            # parse the rest of the text whole, which reports an illegal
            # character on any later line first, as without a memo.
            del statements[before:]
            parser = _Parser([*_tokens(lines, i, len(lines)), _eof(lines)])
            while parser.types[parser.pos] != "EOF":
                statements.append(parser._statement())
            break
        i = end
    return MapperProgram(tuple(statements))


def _keep(memo: CompileMemo, lines: list[str], stmt: Statement,
          first: int, last: int) -> None:
    """Keep ``stmt``, which spans the whole lines first to last."""
    memo.statements[(first, *lines[first - 1:last])] = stmt
    if last > first:
        memo.spans.setdefault((first, lines[first - 1]), set()).add(last - first + 1)


def _kept_statement(memo: CompileMemo, lines: list[str], i: int,
                    ) -> tuple[Optional[Statement], int]:
    """The statement ``memo`` keeps for the lines from line i + 1 on, and
    the number of lines it spans; (None, 0) when it keeps none."""
    first = (i + 1, lines[i])
    stmt = memo.statements.get(first)
    if stmt is not None:
        return stmt, 1
    for span in memo.spans.get(first, ()):
        stmt = memo.statements.get((*first, *lines[i + 1:i + span]))
        if stmt is not None:
            return stmt, span
    return None, 0


def parse_valid(source: str) -> MapperProgram:
    """Parse source known to be valid; raises ValueError otherwise."""
    result = parse(source)
    if isinstance(result, list):
        raise ValueError(result[0].render())
    return result
