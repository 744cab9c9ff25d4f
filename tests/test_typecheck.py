"""Typing rules: corpus types, rule coverage, shadowing, and errors."""

import pytest

from conftest import corpus_expr
from foldcost.parser import parse
from foldcost.syntax import BOOL, INT, INT_LIST, ArrowTy, BinOp, IntLit, Var
from foldcost.typecheck import TypeCheckError, typecheck

# ---------------------------------------------------------------- corpus


def test_corpus_types():
    assert str(typecheck({}, corpus_expr("case_if"))) == "int*"
    assert str(typecheck({}, corpus_expr("ins"))) == "int -> int* -> int*"
    assert str(typecheck({}, corpus_expr("ins_sort"))) == "int* -> int*"
    assert str(typecheck({}, corpus_expr("map"))) == "(int -> int) -> int* -> int*"
    assert str(typecheck({}, corpus_expr("list_fold"))) == \
        "(int -> int* -> int*) -> int* -> int* -> int*"


def test_arrow_str_parenthesizes_domains_only():
    assert str(ArrowTy(ArrowTy(INT, BOOL), INT_LIST)) == "(int -> bool) -> int*"
    assert str(ArrowTy(INT, ArrowTy(INT, INT))) == "int -> int -> int"


# ---------------------------------------------------------------- rules


def test_literals_and_operators():
    assert typecheck({}, parse("5")) == INT
    assert typecheck({}, parse("true")) == BOOL
    assert typecheck({}, parse("nil")) == INT_LIST
    assert typecheck({}, parse("1 + 2 * 3")) == INT
    assert typecheck({}, parse("1 <= 2")) == BOOL
    assert typecheck({}, parse("1 :: [2, 3]")) == INT_LIST


def test_if_branches_agree():
    assert typecheck({}, parse("if true then nil else [1]")) == INT_LIST
    assert typecheck({}, parse("if 1 < 2 then \\x:int. x else \\y:int. 0")) == ArrowTy(INT, INT)


def test_lambda_and_application():
    assert typecheck({}, parse("\\x:int. x :: nil")) == ArrowTy(INT, INT_LIST)
    assert typecheck({}, parse("(\\x:int. x :: nil) 3")) == INT_LIST
    assert typecheck({"f": ArrowTy(INT, BOOL)}, parse("f 0")) == BOOL


def test_case_and_fold_branch_contexts():
    assert typecheck({}, parse("case [1] of (0, [h, t] h)")) == INT
    assert typecheck({}, parse("case [1] of (nil, [h, t] t)")) == INT_LIST
    assert typecheck({}, parse("fold [1] of (0, [h, t, w] h + w)")) == INT
    # The accumulator may be of any type, including functions.
    assert typecheck({}, parse("fold nil of (\\x:int. x, [h, t, w] w)")) == ArrowTy(INT, INT)


def test_binders_shadow_left_to_right():
    assert typecheck({}, parse("\\x:int. \\x:bool. x")) == ArrowTy(INT, ArrowTy(BOOL, BOOL))
    # A fold accumulator named like the head shadows it in the step.
    assert typecheck({}, parse("fold [1] of (nil, [w, t, w] w)")) == INT_LIST


# ---------------------------------------------------------------- errors


def test_unbound_variable():
    with pytest.raises(TypeCheckError, match="unbound variable: y"):
        typecheck({}, parse("y"))


def test_mismatch_messages_show_source():
    with pytest.raises(TypeCheckError, match=r"expected int, got bool in: true \+ 1"):
        typecheck({}, parse("true + 1"))
    with pytest.raises(TypeCheckError, match="expected int"):
        typecheck({}, parse("nil < 1"))
    with pytest.raises(TypeCheckError, match=r"expected int\*, got int"):
        typecheck({}, parse("1 :: 2"))


# Terms whose two operands are both ill-typed: the left one is reported,
# so the left operand is typed and checked before the right one is typed.
OPERAND_ORDER = [
    pytest.param(parse("true :: 1"), "expected int, got bool in: true :: 1", id="cons-types"),
    pytest.param(parse("nil :: ghost"), "expected int, got int* in: nil :: ghost",
                 id="cons-head-before-unbound-tail"),
    pytest.param(parse("true + nil"), "expected int, got bool in: true + nil", id="op-types"),
    pytest.param(parse("nil < ghost"), "expected int, got int* in: nil < ghost",
                 id="op-lhs-before-unbound-rhs"),
    pytest.param(BinOp("/", Var("q"), Var("r")), "unknown operator: /",
                 id="op-operator-before-operands"),
]


@pytest.mark.parametrize("e, message", OPERAND_ORDER)
def test_ill_typed_operands_are_reported_left_first(e, message):
    with pytest.raises(TypeCheckError) as info:
        typecheck({}, e)
    assert str(info.value) == message


def test_unknown_operator():
    # The parser builds no such node, but a library caller can; it must not
    # typecheck, or evaluation fails on a bare KeyError.
    for op in ("!=", "/"):
        with pytest.raises(TypeCheckError, match=f"unknown operator: {op}"):
            typecheck({}, BinOp(op, IntLit(1), IntLit(2)))


def test_if_branch_disagreement():
    with pytest.raises(TypeCheckError, match="expected int, got bool"):
        typecheck({}, parse("if true then 1 else false"))
    with pytest.raises(TypeCheckError, match="expected bool, got int"):
        typecheck({}, parse("if 1 then 2 else 3"))


def test_application_errors():
    with pytest.raises(TypeCheckError, match="expected a function, got int"):
        typecheck({}, parse("1 2"))
    with pytest.raises(TypeCheckError, match="expected int, got bool"):
        typecheck({}, parse("(\\x:int. x) true"))


def test_case_fold_errors():
    with pytest.raises(TypeCheckError, match=r"expected int\*"):
        typecheck({}, parse("case 1 of (0, [h, t] h)"))
    with pytest.raises(TypeCheckError, match=r"expected int, got int\*"):
        typecheck({}, parse("fold [1] of (0, [h, t, w] t)"))
