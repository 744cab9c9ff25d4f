"""Lexing, parsing, precedence, sugar, definitions, and error positions."""

import hashlib
import itertools
import re
import sys
import time
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_NAMES, campaign_programs, corpus_expr, corpus_source
from foldcost import syntax
from foldcost.gen import gen_typed_term
from foldcost.parser import KEYWORDS, ParseError, _lex, _positions, parse
from foldcost.syntax import (
    BOOL,
    INT,
    INT_LIST,
    INT_MAX,
    INT_MIN,
    App,
    ArrowTy,
    BinOp,
    BoolLit,
    Case,
    Cons,
    Expr,
    Fold,
    If,
    IntLit,
    Lam,
    Nil,
    Ty,
    Var,
    to_source,
)
from oracles import free_vars, names, subst

# ---------------------------------------------------------------- round trips


def test_roundtrip_corpus():
    for name in CORPUS_NAMES:
        e = corpus_expr(name)
        assert parse(to_source(e)) == e


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from([INT, BOOL, INT_LIST, ArrowTy(INT, INT_LIST)]))
def test_roundtrip_generated(seed, ty):
    e = gen_typed_term(seed, depth=4, ty=ty)
    assert parse(to_source(e)) == e


def test_negative_literal_roundtrip():
    # A bare negative rhs would lex "--" as a comment, so the printer
    # parenthesizes negative literals.
    e = BinOp("-", IntLit(1), IntLit(-5))
    assert to_source(e) == "1 - (-5)"
    assert parse(to_source(e)) == e


# ---------------------------------------------------------------- precedence


def test_mul_binds_tighter_than_add():
    assert parse("1 + 2 * 3") == BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))
    assert parse("(1 + 2) * 3") == BinOp("*", BinOp("+", IntLit(1), IntLit(2)), IntLit(3))


def test_add_left_associative():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))


def test_cons_right_associative_and_looser_than_add():
    assert parse("0 :: 1 :: nil") == Cons(IntLit(0), Cons(IntLit(1), Nil()))
    assert parse("1 + 2 :: nil") == Cons(BinOp("+", IntLit(1), IntLit(2)), Nil())


def test_rel_non_associative():
    assert parse("1 < 2") == BinOp("<", IntLit(1), IntLit(2))
    with pytest.raises(ParseError):
        parse("1 < 2 < 3")


def test_rel_operators_are_lt_le_and_eq():
    for op in ("<", "<=", "="):
        assert parse(f"1 {op} 2") == BinOp(op, IntLit(1), IntLit(2))
    for op in ("==", ">=", ">"):
        with pytest.raises(ParseError):
            parse(f"1 {op} 2")


def test_rel_compares_cons_operands():
    assert parse("x :: nil = nil") == BinOp("=", Cons(Var("x"), Nil()), Nil())


def test_application_left_associative_and_tightest():
    assert parse("f x y") == App(App(Var("f"), Var("x")), Var("y"))
    assert parse("f x + g y") == BinOp("+", App(Var("f"), Var("x")), App(Var("g"), Var("y")))
    assert parse("f x * g y") == BinOp("*", App(Var("f"), Var("x")), App(Var("g"), Var("y")))


def test_minus_after_atom_is_subtraction():
    # "-" only starts a literal in atom position, so this is not f(-5).
    assert parse("f - 5") == BinOp("-", Var("f"), IntLit(5))
    assert parse("f (-5)") == App(Var("f"), IntLit(-5))


def test_if_and_lambda_extend_right():
    assert parse("if true then 1 else 2 + 3") == If(
        BoolLit(True), IntLit(1), BinOp("+", IntLit(2), IntLit(3)))
    assert parse("\\x:int. x + 1") == Lam("x", INT, BinOp("+", Var("x"), IntLit(1)))


# ---------------------------------------------------------------- forms and sugar


def test_list_sugar():
    assert parse("[]") == Nil()
    assert parse("[1, 2, 3]") == Cons(IntLit(1), Cons(IntLit(2), Cons(IntLit(3), Nil())))
    assert parse("[1 + 2]") == Cons(BinOp("+", IntLit(1), IntLit(2)), Nil())


def test_case_form():
    assert parse("case xs of (0, [h, t] h)") == Case(
        Var("xs"), IntLit(0), "h", "t", Var("h"))


def test_fold_form():
    assert parse("fold xs of (nil, [h, t, w] h :: w)") == Fold(
        Var("xs"), Nil(), "h", "t", "w", Cons(Var("h"), Var("w")))


def test_type_annotations():
    assert parse("\\xs:int*. xs") == Lam("xs", INT_LIST, Var("xs"))
    assert parse("\\f:int -> int -> int. f").param_ty == ArrowTy(INT, ArrowTy(INT, INT))
    assert parse("\\f:(int -> int) -> bool. f").param_ty == ArrowTy(ArrowTy(INT, INT), BOOL)


def test_comments_run_to_end_of_line():
    assert parse("1 -- the rest is ignored\n+ 2") == BinOp("+", IntLit(1), IntLit(2))
    assert _lex("x--3")[0] == ["ident", "eof"]


def test_int_literal_bounds():
    assert parse(str(INT_MAX)) == IntLit(INT_MAX)
    assert parse(f"({INT_MIN})") == IntLit(INT_MIN)
    with pytest.raises(ParseError, match="64-bit"):
        parse(str(INT_MAX + 1))
    with pytest.raises(ParseError, match="64-bit"):
        parse(f"({INT_MIN - 1})")


# ---------------------------------------------------------------- definitions


def test_defs_expand_in_order():
    e = parse("def two = 2\ndef four = two + two\nfour * two")
    assert e == BinOp("*", BinOp("+", IntLit(2), IntLit(2)), IntLit(2))


# A definition cannot see itself, and a free variable in its body could
# never be bound, so it is reported at the definition's name; a binder covers
# its own body only, and a parse error inside the body comes first.
UNCLOSED_DEFS = [
    ("def f = f\nf", "1:5: unbound variable 'f' in definition of 'f'"),
    ("def one = 1\n\n  def  f = x + one\n\\x:int. f",
     "3:8: unbound variable 'x' in definition of 'f'"),
    ("def f = fold nil of (w, [h, t, w] w)\nf", "1:5: unbound variable 'w' in definition of 'f'"),
    ("def f = b + a\nf", "1:5: unbound variable 'a' in definition of 'f'"),
    ("def f = x +", "1:12: expected an expression, found end of input"),
]


def test_defs_are_not_recursive():
    for source, message in UNCLOSED_DEFS:
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == message, source


# Each binder hides a definition of its name in its body only; the other
# definitions, and the same one outside the body, are still resolved.
DEF_SCOPES = [
    ("def n = 5\n\\n:int. n", Lam("n", INT, Var("n"))),
    ("def n = 5\ndef m = 6\n\\n:int. n + m", Lam("n", INT, BinOp("+", Var("n"), IntLit(6)))),
    ("def n = 5\n(\\n:int. n) n", App(Lam("n", INT, Var("n")), IntLit(5))),
    ("def h = 1\ncase nil of (h :: nil, [h, t] h :: t)",
     Case(Nil(), Cons(IntLit(1), Nil()), "h", "t", Cons(Var("h"), Var("t")))),
    ("def t = nil\ncase t of (t, [h, t] t)", Case(Nil(), Nil(), "h", "t", Var("t"))),
    ("def h = 1\nfold nil of (h :: nil, [h, t, w] h :: w)",
     Fold(Nil(), Cons(IntLit(1), Nil()), "h", "t", "w", Cons(Var("h"), Var("w")))),
    ("def t = nil\nfold t of (t, [h, t, w] t)", Fold(Nil(), Nil(), "h", "t", "w", Var("t"))),
    ("def w = nil\nfold w of (w, [h, t, w] h :: w)",
     Fold(Nil(), Nil(), "h", "t", "w", Cons(Var("h"), Var("w")))),
    ("def n = 1\ndef f = \\n:int. n\nf", Lam("n", INT, Var("n"))),
    # An inner binder of the same name leaves the outer one's name bound.
    ("def f = \\x:int. (\\x:int. x) x\nf", Lam("x", INT, App(Lam("x", INT, Var("x")), Var("x")))),
    ("def x = 1\n\\x:int. (\\x:int. x) x", Lam("x", INT, App(Lam("x", INT, Var("x")), Var("x")))),
]


def test_def_does_not_cross_binders():
    for source, want in DEF_SCOPES:
        assert parse(source) == want, source
    # Every use of a definition is the one node of its body.
    e = parse("def f = \\y:int. y\nf (f 1)")
    assert e == App(Lam("y", INT, Var("y")), App(Lam("y", INT, Var("y")), IntLit(1)))
    assert e.fn is e.arg.fn


def test_def_resolution_agrees_with_substitution():
    # Each program uses a definition's name both free and as the name of one
    # of its binders, whose body hides the definition; resolving names while
    # parsing must give what capture-avoiding substitution gives, and a body
    # is closed by the parser exactly when it is by `free_vars`.
    checked = 0
    for seed in itertools.count():
        m = gen_typed_term(seed, 4, INT, {"k": INT})
        binders = sorted(names(m) - {"k"})
        if not binders:
            continue
        source = re.sub(rf"\b{binders[seed % len(binders)]}\b", "k", to_source(m))
        e = parse(source)
        if "k" not in free_vars(e):
            continue
        body = to_source(gen_typed_term(seed, 3, INT))
        assert parse(f"def k = {body}\n{source}") == subst(e, {"k": parse(body)}), source
        checked += 1
        if checked == 500:
            break
    # Bodies drawn with free `y` and `z`, a binder renamed to `z` in every
    # other one so that some uses are bound: a body is accepted, as the tree
    # it parses to alone, exactly when it has no free variable.
    accepted = rejected = 0
    for seed in range(500):
        m = gen_typed_term(seed, 3, INT, {"y": INT, "z": INT_LIST})
        source = to_source(m)
        binders = sorted(names(m) - {"y", "z"})
        if binders and seed % 2:
            source = re.sub(rf"\b{binders[seed % len(binders)]}\b", "z", source)
        e = parse(source)
        free = free_vars(e)
        if free:
            with pytest.raises(ParseError) as exc:
                parse(f"def k = {source}\nk")
            assert str(exc.value) == f"1:5: unbound variable '{min(free)}' in definition of 'k'"
            rejected += 1
        else:
            assert parse(f"def k = {source}\nk") == e, source
            accepted += 1
    assert accepted > 50 and rejected > 50


def _doubling_defs(k: int, free: str = "") -> str:
    """`def a0 = 1`, then `def ai = a(i-1) + a(i-1)` for i up to k, and `ak`:
    a body of 2^k leaves as a tree, k + 1 nodes shared."""
    lines = ["def a0 = 1"] + [f"def a{i} = a{i - 1} + a{i - 1}" for i in range(1, k + 1)]
    return "\n".join(lines) + free + f"\na{k}"


def test_def_closedness_is_linear_in_def_nesting():
    # Closedness is recorded while the body is read, so nothing walks the
    # shared body as a tree: k = 20 took 1.3 s when each body was walked.
    start = time.perf_counter()
    e = parse(_doubling_defs(40))
    elapsed = time.perf_counter() - start
    assert e.lhs is e.rhs and e.lhs.lhs is e.lhs.rhs
    assert elapsed < 0.1
    with pytest.raises(ParseError) as exc:
        parse(_doubling_defs(40, " + z"))
    assert str(exc.value) == "41:5: unbound variable 'z' in definition of 'a40'"


def test_def_expansion_is_linear_in_binder_depth():
    # A `def` name is resolved as it is read, and a binder of another name
    # leaves the definitions in scope as they are: under 2,000 nested
    # lambdas parsing takes milliseconds, where free variables taken at
    # every binder took seconds.
    n = 2000
    text = "def f = \\y:int. y\n" + "".join(f"\\x{k}:int. " for k in range(n)) + "f x0"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * n))
    try:
        start = time.perf_counter()
        e = parse(text)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    for k in range(n):
        assert (type(e), e.param) == (Lam, f"x{k}")
        e = e.body
    assert e == App(Lam("y", INT, Var("y")), Var("x0"))
    assert elapsed < 0.5


def test_subst_renamed_binder_avoids_binding_keys():
    # Renaming y to y' would let the y' binding be substituted into it.
    lam = Lam("y", INT, BinOp("+", Var("x"), Var("y")))
    out = subst(lam, {"x": Var("y"), "y'": IntLit(5)})
    assert out == Lam("y''", INT, BinOp("+", Var("y"), Var("y''")))


AST_CLASSES = [c for c in vars(syntax).values()
               if isinstance(c, type) and issubclass(c, (Expr, Ty)) and c not in (Expr, Ty)]
# One case per AST class, except that BinOp gets one case per operator group
# of OPS: arithmetic (int result) and comparison (bool result).
AST_CASES = [pytest.param(c, id=c.__name__) for c in AST_CLASSES if c is not BinOp] + [
    pytest.param(BinOp, id="Arith"), pytest.param(BinOp, id="Rel")]


@pytest.mark.parametrize("cls", AST_CASES)
def test_ast_nodes_are_slotted_and_frozen(cls):
    # Per-instance dicts take a probe program's AST from about 1.9 KB to
    # 3.2 KB, and every probe program is held as an AST.  `vars(node)`
    # still lists the fields.
    node = cls(*[None] * len(fields(cls)))
    assert cls.__dictoffset__ == 0
    if isinstance(node, Expr):
        assert vars(node) == {field.name: None for field in fields(cls)}
    for field in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(node, field.name, None)


def test_application_stops_at_line_break_outside_groups():
    # Top level: the new line ends the application, leaving a stray atom.
    with pytest.raises(ParseError, match="after expression"):
        parse("f\n5")
    # Inside a group the next `,` or closer delimits, so line breaks are free.
    assert parse("(f\n 5)") == App(Var("f"), IntLit(5))
    assert parse("case xs of (f\n 1, [h, t] 0)").nil_branch == App(Var("f"), IntLit(1))


def test_corpus_def_program_parses():
    # ins_sort is written with a def; its expansion contains the fold twice.
    e = corpus_expr("ins_sort")
    assert isinstance(e, Lam)
    assert "def" in corpus_source("ins_sort")


# ---------------------------------------------------------------- errors


def test_error_reports_line_and_column():
    with pytest.raises(ParseError, match="end of input") as exc:
        parse("(1 + ")
    assert exc.value.line == 1 and exc.value.col == 6

    with pytest.raises(ParseError) as exc:
        parse("1 +\n<")
    assert exc.value.line == 2 and exc.value.col == 1


def test_reserved_words_are_not_identifiers():
    with pytest.raises(ParseError, match="reserved word"):
        parse("\\if:int. 1")


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character '@'") as exc:
        parse("1 @ 2")
    assert exc.value.col == 3


def test_keyword_in_expression_position():
    with pytest.raises(ParseError, match="expected an expression"):
        parse("then")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError, match="after expression"):
        parse("1 2 )")


# Exact messages, as first recorded; they pin the error paths of every
# precedence level and the positions the lexer reports.
DIAGNOSTICS = [
    ("1 +\t@ 2", "1:5: unexpected character '@'"),
    ("1 +\n2 +\n  3 # 4", "3:5: unexpected character '#'"),
    ("\u00bd", "1:1: unexpected character '\u00bd'"),
    ("a < b < c", "1:7: unexpected '<' after expression"),
    ("a = b < c", "1:7: unexpected '<' after expression"),
    ("(a < b < c)", "1:8: expected ')', found '<'"),
    ("[x :: xs = nil < 1]", "1:16: expected ']', found '<'"),
    ("\\then:int. 1", "1:2: 'then' is a reserved word"),
    ("case xs of (0, [if, t] 0)", "1:17: 'if' is a reserved word"),
    ("case xs of (", "1:13: expected an expression, found end of input"),
    ("-9223372036854775809", "1:1: integer literal out of 64-bit range"),
    ("1 +", "1:4: expected an expression, found end of input"),
    ("1 + -- nothing follows", "1:5: expected an expression, found end of input"),
    ("1 :: 2 <", "1:9: expected an expression, found end of input"),
    ("[1, 2", "1:6: expected ']', found end of input"),
    ("(1 + 2", "1:7: expected ')', found end of input"),
    ("[1,]", "1:4: expected an expression, found ']'"),
    ("f\n5", "2:1: unexpected '5' after expression"),
    ("\\x:int. x )", "1:11: unexpected ')' after expression"),
    ("\\x:int -> . x", "1:11: expected a type, found '.'"),
    ("def 1 = 2\n1", "1:5: expected an identifier, found '1'"),
    ("if true then 1", "1:15: expected 'else', found end of input"),
    ("fold xs of (0, [h, t] 0)", "1:21: expected ',', found ']'"),
    ("1 +\r\n@", "2:1: unexpected character '@'"),
    ("-- c\n  1 +\n", "3:1: expected an expression, found end of input"),
    ("- x", "1:1: expected an expression, found '-'"),
    ("x -- c\n)", "2:1: unexpected ')' after expression"),
    ("\\x:int. x\n  y", "2:3: unexpected 'y' after expression"),
    ("(f\n 5", "2:3: expected ')', found end of input"),
]


@pytest.mark.parametrize("text, message", DIAGNOSTICS)
def test_diagnostics_are_frozen(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


# ---------------------------------------------------------------- token stream

# Layout the printer never produces: tabs, CRLF, comments, primes, non-ASCII
# identifiers, definitions, and applications split across lines.
LAYOUT_CASES = [
    "",
    "  \n\n\t ",
    "\tx\t+\t1\t",
    "def a = 1\r\ndef b = a + 2\r\nb * a\r\n",
    "1 -- the rest is ignored\n+ 2",
    "x--3",
    "x -- trailing comment",
    "--only\n--comments\n",
    "x' + x''",
    "\\\u03bb:int. \u03bb + x\u00b2 + _a1",
    "def inc = \\x:int. x + 1\ndef twice = \\f:int -> int. \\x:int. f (f x)\ntwice inc 3",
    "f\n5",
    "(f\n 5)",
    "-> :: <= < = + - * ( ) [ ] , . : \\ -->",
    "if1 iff then1 1x x1 -3 f -3",
]

# sha256 of (kind, text, line, col) over the corpus, the first 2,000 printed
# campaign programs and LAYOUT_CASES, as first recorded.  The lexer's kinds
# are mapped back to the recorded ones: a keyword was "kw" and INT "int".
TOKEN_STREAM_SHA256 = "fdb757bbce9bc280830ec7fcca25eec3be504dff4637601a6999171374d5bbb0"


def _campaign_source(k):
    return to_source(campaign_programs()[k])


def _token_stream_sha256():
    sources = [corpus_source(name) for name in CORPUS_NAMES]
    sources += [_campaign_source(k) for k in range(2000)]
    sources += LAYOUT_CASES
    h = hashlib.sha256()
    for text in sources:
        kinds, texts, lines = _lex(text)
        positions = _positions(text)
        for kind, tok, line, (pos_line, col) in zip(kinds, texts, lines, positions, strict=True):
            assert line == pos_line
            kind = "kw" if kind in KEYWORDS else "int" if kind == "number" else kind
            h.update(repr((kind, tok, line, col)).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def test_token_stream_is_frozen():
    assert _token_stream_sha256() == TOKEN_STREAM_SHA256


# ---------------------------------------------------------------- parse cost

# Python-level calls (sys.setprofile "call" events) that `parse` makes per
# token over the corpus and 200 printed campaign programs, as first recorded;
# the test allows 5% more.
PARSE_CALLS_PER_TOKEN = 2.1917


def test_parse_calls_per_token_are_bounded():
    sources = [corpus_source(name) for name in CORPUS_NAMES]
    sources += [_campaign_source(k) for k in range(200)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for text in sources:
            parse(text)
    finally:
        sys.setprofile(None)
    tokens = sum(len(_lex(text)[0]) for text in sources)
    assert calls / tokens <= PARSE_CALLS_PER_TOKEN * 1.05
