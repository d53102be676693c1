import hashlib
import sys

import pytest

from mapforge.ast import (
    Align, AssignStmt, CollectStmt, Diagnostic, FuncDef, IndexTaskMapStmt,
    InstanceLimitStmt, IntLit, MachineExpr, Name, RegionStmt, TaskStmt,
)
from mapforge.parser import parse, tokenize

from conftest import corpus_dsl_files


def ok(source):
    program = parse(source)
    assert not isinstance(program, list), program[0].message
    return program


def first_diag(source) -> Diagnostic:
    result = parse(source)
    assert isinstance(result, list) and result
    return result[0]


def test_task_statement():
    program = ok("Task task0 GPU;")
    assert program.statements == (TaskStmt("task0", ("GPU",)),)


def test_task_wildcard_and_multiple_procs():
    program = ok("Task * GPU,CPU;")
    assert program.statements == (TaskStmt("*", ("GPU", "CPU")),)


def test_region_with_positional_index():
    program = ok("Region distribute_charge 1 GPU ZCMEM;")
    assert program.statements == (
        RegionStmt("distribute_charge", 1, "GPU", ("ZCMEM",)),)


def test_region_memory_fallback_list():
    program = ok("Region * * * SOCKMEM,SYSMEM;")
    (stmt,) = program.statements
    assert stmt.memories == ("SOCKMEM", "SYSMEM")


@pytest.mark.parametrize("alias", ["SYMEM", "SYSEM", "SYSTEM", "SYSTEMEM"])
def test_sysmem_aliases_canonicalize(alias):
    program = ok(f"Region * * CPU {alias};")
    assert program.statements[0].memories == ("SYSMEM",)


def test_layout_constraints():
    program = ok("Layout * * * C_order SOA Align==64;")
    (stmt,) = program.statements
    assert stmt.constraints == ("C_order", "SOA", Align("==", 64))


def test_no_align_accepted():
    program = ok("Layout * * * C_order SOA No_Align;")
    assert program.statements[0].constraints[-1] == "No_Align"


def test_index_task_map_lists():
    program = ok("IndexTaskMap a,b, c f;")
    assert program.statements == (IndexTaskMapStmt(("a", "b", "c"), "f"),)


def test_instance_limit_both_spellings():
    upper = ok("InstanceLimit calculate_new_currents 4;")
    lower = ok("Instancelimit calculate_new_currents 4;")
    assert upper == lower
    assert upper.statements == (InstanceLimitStmt("calculate_new_currents", 4),)


def test_collect_both_spellings():
    a = ok("CollectMemory calculate_new_currents *;")
    b = ok("GarbageCollect calculate_new_currents *;")
    assert a == b == (
        type(a)((CollectStmt("calculate_new_currents", "*"),)))


def test_top_level_binding():
    program = ok("mgpu = Machine(GPU);")
    assert program.statements == (AssignStmt("mgpu", MachineExpr("GPU")),)


def test_function_definition_shape():
    program = ok("""
def linearblock(Task task) {
    return mgpu[task.ipoint[0] / mgpu.size[1], task.ipoint[0] % mgpu.size[1]];
}
""")
    (func,) = program.statements
    assert isinstance(func, FuncDef)
    assert [(p.kind, p.name) for p in func.params] == [("Task", "task")]
    assert len(func.body) == 1


def test_grouping_parens_fold_away():
    a = ok("x = (1 + 2) * 3;")
    b = ok("y = (((1 + 2))) * 3;")
    assert a.statements[0].expr == b.statements[0].expr


def test_tuple_literal():
    program = ok("x = m.decompose(0, (1, 1, 2));")
    call = program.statements[0].expr
    assert call.args[1].items == (IntLit(1), IntLit(1), IntLit(2))


def test_ternary_parses():
    program = ok("g = a > b ? a : b;")
    expr = program.statements[0].expr
    assert expr.cond.op == ">"
    assert expr.then == Name("a")


# -- diagnostics -----------------------------------------------------------


@pytest.mark.parametrize("source, col", [("x = \u00b2;", 5), ("\u00e9 = 1;", 1),
                                         ("x = \u0661\u0662;", 5)])
def test_non_ascii_characters_are_unexpected(source, col):
    diag = first_diag(source)
    assert diag.message == f"Syntax error, unexpected character {source[col - 1]!r}"
    assert (diag.line, diag.col) == (1, col)


def test_overlong_integer_literal_is_a_syntax_error():
    from mapforge.parser import MAX_DIGITS

    ok("x = " + "9" * MAX_DIGITS + ";")
    diag = first_diag("x = 1;\ny = " + "9" * (MAX_DIGITS + 1) + ";")
    assert diag.message == (
        f"Syntax error, integer literal longer than {MAX_DIGITS} digits")
    assert (diag.line, diag.col) == (2, 5)


def test_end_of_input_after_a_comment_is_past_the_comment():
    diag = first_diag("x = 1 # no semicolon")
    assert diag.message == "Syntax error, unexpected end of input, expecting ;"
    assert (diag.line, diag.col) == (1, 21)


def test_colon_function_body_message():
    diag = first_diag("def cyclic(Task task): ip = task.ipoint;")
    assert "Syntax error, unexpected :, expecting {" in diag.message
    assert diag.line == 1
    assert diag.col == 22


def test_all_parse_failures_start_with_syntax_error():
    sources = ["Task task0 GPU", "Region * ;", "def f() { }", "x = ;", "@",
               "Task task0 BADPROC;", "Layout * * * Whatever;"]
    for source in sources:
        diag = first_diag(source)
        assert diag.message.startswith("Syntax error,"), (source, diag.message)


def test_unterminated_function_body():
    diag = first_diag("def f(Task t) { x = 1;")
    assert "expecting }" in diag.message


def test_positions_are_one_based():
    diag = first_diag("Task task0 GPU;\nTask ;")
    assert (diag.line, diag.col) == (2, 6)


def test_parse_is_pure():
    source = corpus_dsl_files()[0].read_text()
    assert parse(source) == parse(source)
    bad = "def f(Task t): return 1;"
    assert parse(bad) == parse(bad)


# -- corpus ----------------------------------------------------------------


def test_whole_corpus_parses():
    files = corpus_dsl_files()
    assert len(files) >= 18
    for path in files:
        program = parse(path.read_text())
        assert not isinstance(program, list), (path.name, program[0].message)


def _token_positions(source):
    return [(t.line, t.col, t.text) for t in tokenize(source)[:-1]]


@pytest.mark.parametrize("garbage", ["@", "def"])
def test_single_token_corruption_reports_corrupted_line(garbage):
    # Replacing any one token with something illegal must yield a
    # diagnostic on that token's line.
    for path in corpus_dsl_files():
        source = path.read_text()
        lines = source.splitlines(keepends=True)
        offsets = [0]
        for line in lines:
            offsets.append(offsets[-1] + len(line))
        for line_no, col, text in _token_positions(source):
            if text == garbage:
                continue
            start = offsets[line_no - 1] + col - 1
            # Spaces keep the replacement a single token rather than
            # merging with its neighbors.
            corrupted = (source[:start] + f" {garbage} "
                         + source[start + len(text):])
            result = parse(corrupted)
            if not isinstance(result, list):
                continue  # the corruption happened to stay grammatical
            assert result[0].line == line_no, (path.name, line_no, col, result[0])


# -- nesting limit --------------------------------------------------------------


def nested_parens(depth):
    return "x = " + "(" * depth + "1" + ")" * depth + ";"


def test_nesting_up_to_the_limit_parses():
    from mapforge.parser import MAX_NESTING

    # The binding's expression is one level; each parenthesis adds one.
    ok(nested_parens(MAX_NESTING - 1))
    ok("x = 1" + " + 1" * (MAX_NESTING - 1) + ";")


def test_nesting_at_the_limit_fits_in_600_frames():
    from mapforge.parser import MAX_NESTING

    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 600)
    try:
        result = parse(nested_parens(MAX_NESTING - 1))
    finally:
        sys.setrecursionlimit(limit)
    assert not isinstance(result, list)


@pytest.mark.parametrize("depth", [141, 3000])
def test_deep_nesting_is_a_syntax_error(depth):
    diag = first_diag(nested_parens(depth))
    assert diag.message.startswith("Syntax error, expression nested more than")
    assert (diag.line, diag.col) == (1, 5 + 100)


@pytest.mark.parametrize("source", [
    "x = 1" + " + 1" * 3000 + ";",
    "x = " + "1 ? " * 3000 + "1" + " : 0" * 3000 + ";",
    "x = m" + ".swap(0, 1)" * 3000 + ";",
    "x = " + "t[" * 3000 + "0" + "]" * 3000 + ";",
    "x = " + "g(" * 3000 + "1" + ")" * 3000 + ";",
], ids=["sum", "ternary", "methods", "subscripts", "calls"])
def test_long_chains_count_as_nesting(source):
    assert "nested more than" in first_diag(source).message


# -- the lexer against pinned token lists ----------------------------------
#
# Token counts and digests of every corpus file, and the tokens and
# diagnostics of edited texts, as the tokenizer produced them before it
# read the source line by line.  Any change to a type, text, line or
# column changes a digest.

CORPUS_TOKENS = {
    "builtins/block3d.dsl": (181, "2f629fd8dacb89ae"),
    "builtins/common_mappings.dsl": (236, "5f7760b72586b8b5"),
    "builtins/matmul_mappings.dsl": (312, "46151126caba382c"),
    "examples/intro_gpu_cyclic.dsl": (82, "0a44359f7e1b9e50"),
    "experts/cannon.dsl": (65, "f6f0d4a9ee275fb0"),
    "experts/circuit.dsl": (26, "4f23593caffb0cc7"),
    "experts/cosma.dsl": (119, "7b7fe47ef69e695e"),
    "experts/johnson.dsl": (119, "c5686646eec23d5d"),
    "experts/pennant.dsl": (26, "4f23593caffb0cc7"),
    "experts/pumma.dsl": (65, "ff2341e9823123fb"),
    "experts/solomonik.dsl": (242, "99bb37bb8887d102"),
    "experts/stencil.dsl": (26, "4f23593caffb0cc7"),
    "experts/summa.dsl": (65, "ca3438047c283e84"),
    "generated/circuit_iter10.dsl": (69, "e04bb0ffa3b06a56"),
    "generated/circuit_iter2.dsl": (134, "3b7ec361bcacfb1d"),
    "generated/solomonik_iter10.dsl": (398, "eb89f3344b2d7cf3"),
    "generated/solomonik_iter2.dsl": (112, "f05c7dcb69fe598b"),
    "strategies/01.dsl": (88, "8eaa3d3541893587"),
    "strategies/02.dsl": (52, "609cf764d15338ee"),
    "strategies/03.dsl": (39, "6c38f36b40eacac1"),
    "strategies/04.dsl": (39, "fdc43fcad4f3baa1"),
    "strategies/05.dsl": (42, "68c07f4ca7b5c13d"),
    "strategies/06.dsl": (44, "1e94029d32b5463a"),
    "strategies/07.dsl": (44, "87038818e08534ed"),
    "strategies/08.dsl": (44, "69c9739be816a091"),
    "strategies/09.dsl": (46, "4dac99b25e2b5fba"),
    "strategies/10.dsl": (97, "e881749ccf8baf0b"),
}


def _token_digest(tokens):
    lines = "\n".join(f"{t.type} {t.text} {t.line} {t.col}" for t in tokens)
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def test_corpus_tokens_are_pinned():
    from mapforge.evaluator import corpus_path

    root = corpus_path()
    seen = {}
    for path in corpus_dsl_files():
        source = path.read_text()
        tokens = tokenize(source)
        seen[path.relative_to(root).as_posix()] = (len(tokens), _token_digest(tokens))
        # CRLF line ends and a trailing comment with no newline move no token.
        assert tokenize(source.replace("\n", "\r\n")) == tokens
        commented = tokenize(source + "# end")
        assert commented[:-1] == tokens[:-1]
        assert commented[-1] == tokens[-1]._replace(col=tokens[-1].col + 5)
    assert seen == CORPUS_TOKENS


@pytest.mark.parametrize("source, expected", [
    ("", [("EOF", "", 1, 1)]),
    ("Task * GPU;\r\nRegion * * * FBMEM;\r\n",
     [("IDENT", "Task", 1, 1), ("*", "*", 1, 6), ("IDENT", "GPU", 1, 8), (";", ";", 1, 11),
      ("IDENT", "Region", 2, 1), ("*", "*", 2, 8), ("*", "*", 2, 10), ("*", "*", 2, 12),
      ("IDENT", "FBMEM", 2, 14), (";", ";", 2, 19), ("EOF", "", 3, 1)]),
    ("x = 1; # done",
     [("IDENT", "x", 1, 1), ("=", "=", 1, 3), ("INT", "1", 1, 5), (";", ";", 1, 6),
      ("EOF", "", 1, 14)]),
    ("x = 1;\n# done",
     [("IDENT", "x", 1, 1), ("=", "=", 1, 3), ("INT", "1", 1, 5), (";", ";", 1, 6),
      ("EOF", "", 2, 7)]),
    ("\tx=(1,2)[0]!=3;\r\n\r\n",
     [("IDENT", "x", 1, 2), ("=", "=", 1, 3), ("(", "(", 1, 4), ("INT", "1", 1, 5),
      (",", ",", 1, 6), ("INT", "2", 1, 7), (")", ")", 1, 8), ("[", "[", 1, 9),
      ("INT", "0", 1, 10), ("]", "]", 1, 11), ("!=", "!=", 1, 12), ("INT", "3", 1, 14),
      (";", ";", 1, 15), ("EOF", "", 3, 1)]),
    ("x = " + "9" * 1000 + ";",
     [("IDENT", "x", 1, 1), ("=", "=", 1, 3), ("INT", "9" * 1000, 1, 5),
      (";", ";", 1, 1005), ("EOF", "", 1, 1006)]),
], ids=["empty", "crlf", "trailing_comment", "comment_line", "tabs_and_blank_lines",
        "longest_literal"])
def test_edited_texts_tokenize_as_pinned(source, expected):
    assert [tuple(token) for token in tokenize(source)] == expected


@pytest.mark.parametrize("source, expected", [
    ("Task * GPU;\n  x = a $ b;\n",
     (2, 9, "Syntax error, unexpected character '$'")),
    ("Task * GPU;\r\n  y = é;", (2, 7, "Syntax error, unexpected character 'é'")),
    ("x = 1 !\n", (1, 7, "Syntax error, unexpected character '!'")),
    ("x = 1;\n\ny = " + "9" * 1001 + ";",
     (3, 5, "Syntax error, integer literal longer than 1000 digits")),
    ("x = 1 # done", (1, 13, "Syntax error, unexpected end of input, expecting ;")),
    ("Task * GPU\r\n", (2, 1, "Syntax error, unexpected end of input, expecting ;")),
    ("Task * GPU;\r\nRegion * * * FBMEM\r\n# end",
     (3, 6, "Syntax error, unexpected end of input, expecting ;")),
], ids=["bad_char_line_2", "non_ascii_after_crlf", "lone_bang", "overlong_literal_line_3",
        "eof_after_comment", "eof_after_crlf", "eof_after_crlf_comment"])
def test_edited_texts_diagnose_as_pinned(source, expected):
    assert parse(source) == [Diagnostic("error", *expected)]
