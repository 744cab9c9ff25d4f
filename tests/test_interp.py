"""Evaluation: values, derivation-size costs, limits, and the oracle."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_NAMES, PROBE_TYPES, corpus_expr
from foldcost.gen import ProbeConfig, _gen, gen_typed_term
from foldcost.harness import _probe_args
from foldcost.interp import (
    DEFAULT_BUDGET,
    ArithOverflowError,
    BudgetExceededError,
    EvalError,
    VClosure,
    eval_expr,
    render_value,
    value_size,
)
from foldcost.parser import parse
from foldcost.syntax import BOOL, INT, INT_LIST, INT_MAX, ArrowTy, Var
from oracles import derivation_nodes, derive

# ---------------------------------------------------------------- frozen costs

# cost = derivation size: one per rule instance, plus one per comparison or
# arithmetic side condition.
FROZEN = [
    ("5", 5, 1),
    ("true", True, 1),
    ("nil", (), 1),
    ("3 <= 5", True, 4),
    ("1 + 2", 3, 4),
    ("[0, 0]", (0, 0), 5),
    ("if true then 1 else 2", 1, 3),
    ("(\\x:int. x) 5", 5, 4),
    ("(\\x:int. \\y:int. x + y) 3 4", 7, 10),
    ("case nil of (0, [h, t] h)", 0, 3),
    ("case [7] of (0, [h, t] h)", 7, 5),
]


def typed(v):
    """A value with its exact type, so that True and 1 compare unequal."""
    return type(v), v


@pytest.mark.parametrize("source,value,cost", FROZEN,
                         ids=[f"{s}-value{i}-{c}" for i, (s, _, c) in enumerate(FROZEN)])
def test_frozen_costs(source, value, cost):
    result = eval_expr(parse(source))
    assert typed(result.value) == typed(value)
    assert result.cost == cost


def test_worked_example_cost_and_size():
    result = eval_expr(corpus_expr("case_if"))
    assert result.value == (0, 0)
    assert result.cost == 9
    assert value_size(result.value) == 2


def test_if_charges_only_taken_branch():
    cheap = eval_expr(parse("if true then 1 else fold [1, 2, 3] of (0, [h, t, w] h + w)"))
    assert cheap.cost == 3  # if + test + taken literal; the untaken fold is free


# ---------------------------------------------------------------- fold costs

def test_fold_unrolling_cost_law():
    # fold over a k-element literal list, with unit branches:
    # 1 (fold) + (2k+1) (scrutinee) + 2k (unrollings) + 1 (nil) + k (steps).
    for k in range(6):
        lst = "[" + ", ".join("1" for _ in range(k)) + "]"
        result = eval_expr(parse(f"fold {lst} of (nil, [h, t, w] w)"))
        assert result.cost == 5 * k + 3
        assert result.value == ()


def test_fold_is_a_right_fold():
    assert eval_expr(parse("fold [1, 2, 3] of (nil, [h, t, w] h :: w)")).value == \
        (1, 2, 3)
    # 1 - (2 - (3 - 0)): the first step to run combines the last element.
    assert eval_expr(parse("fold [1, 2, 3] of (0, [h, t, w] h - w)")).value == 2


def test_fold_tail_binding():
    # The step sees the tail of the element being folded; the outermost step
    # runs last, so the result is the tail of the first element.
    assert eval_expr(parse("fold [5, 6, 7] of (nil, [h, t, w] t)")).value == (6, 7)


def test_closures_capture_their_environment():
    e = parse("(\\x:int. \\y:int. x * y) 6 7")
    assert eval_expr(e).value == 42
    # The environment is used as given, not copied.
    env = {"y": 6}
    value, cost = eval_expr(parse("\\x:int. x * y"), env)
    assert value.env is env and cost == 1


# ---------------------------------------------------------------- limits

def test_budget_exceeded():
    e = parse("fold [1, 2, 3, 4] of (0, [h, t, w] h + w)")
    full = eval_expr(e)
    with pytest.raises(BudgetExceededError) as exc:
        eval_expr(e, budget=full.cost - 1)
    assert exc.value.budget == full.cost - 1
    assert eval_expr(e, budget=full.cost).cost == full.cost


def test_arithmetic_overflow_checked():
    with pytest.raises(ArithOverflowError):
        eval_expr(parse(f"{INT_MAX} + 1"))
    with pytest.raises(ArithOverflowError):
        eval_expr(parse(f"{INT_MAX} * 2"))
    assert eval_expr(parse(f"{INT_MAX} - 1")).value == INT_MAX - 1


def _outcome(e, env, budget):
    try:
        result = eval_expr(e, env, budget=budget)
    except EvalError as exc:
        return type(exc).__name__
    return f"{render_value(result.value)}:{result.cost}"


def _budget_outcomes(e, env):
    """The outcome at budgets cost, cost - 1 and cost // 2, where cost is the
    least budget the run does not exceed (an overflowing run's cost counts
    the ticks up to the overflowing operator's side condition)."""
    try:
        cost = eval_expr(e, env).cost
    except ArithOverflowError:
        lo, hi = 0, DEFAULT_BUDGET  # exceeded at lo, overflows at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _outcome(e, env, mid) == "BudgetExceededError":
                lo = mid
            else:
                hi = mid
        cost = hi
    return [_outcome(e, env, b) for b in (cost, cost - 1, cost // 2)]


# Literals and probes this wide make most arithmetic overflow.
_WIDE_INTS = ProbeConfig(int_lo=-2**62, int_hi=2**62)

# sha256 of the outcomes below, recorded before `_eval` dispatched on exact
# node types: it pins where every tick falls, which decides whether a run
# stops with budget-exceeded or int-overflow.
BUDGET_OUTCOMES_SHA256 = "41bfedaf1bd3c363fe24469a3122b38de0a8b528a9ca8f2e66b7ec51aaa5f82b"


def test_budget_outcomes_are_frozen():
    lines = []
    for seed in range(150):
        ty = (INT, BOOL, INT_LIST)[seed % 3]
        if seed % 2:
            e = _gen(random.Random(seed), 6, ty, {}, _WIDE_INTS)
        else:
            e = gen_typed_term(seed, 6, ty)
        lines.append(_budget_outcomes(e, {}))
    # Function-typed programs, each body run on one sampled probe argument.
    for seed in range(150):
        ty = PROBE_TYPES[seed % 4]
        clo = eval_expr(gen_typed_term(seed, 4, ty)).value
        cfg = _WIDE_INTS if seed % 2 and type(ty.dom) is not ArrowTy else ProbeConfig()
        (arg, _), = _probe_args(ty.dom, 1, cfg, random.Random(seed))
        lines.append(_budget_outcomes(clo.body, {**clo.env, clo.param: arg}))
    outcomes = [o for line in lines for o in line]
    assert sum(o == "ArithOverflowError" for o in outcomes) >= 30
    text = "\n".join("\t".join(line) for line in lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BUDGET_OUTCOMES_SHA256


def test_unbound_variable_at_runtime():
    with pytest.raises(EvalError, match="unbound variable"):
        eval_expr(Var("ghost"))


# ---------------------------------------------------------------- values

def test_render_value():
    assert render_value(-3) == "-3"
    assert render_value(True) == "true"
    assert render_value((0, 0)) == "[0,0]"
    assert render_value(()) == "[]"
    assert render_value(eval_expr(parse("\\x:int. x")).value) == "<fun>"


def test_value_size():
    assert value_size(999) == 1
    assert value_size(False) == 1
    assert value_size((1, 2, 3)) == 3
    with pytest.raises(ValueError, match="no size measure"):
        value_size(eval_expr(parse("\\x:int. x")).value)


def test_bools_and_ints_stay_apart():
    # bool is a subclass of int and True == 1; values must not mix them up.
    assert type(eval_expr(parse("1 = 1")).value) is bool
    assert render_value(True) == "true"
    assert render_value(1) == "1"
    with pytest.raises(ValueError, match="no size measure"):
        value_size(VClosure("x", Var("x"), {}))
    with pytest.raises(EvalError, match="expected an integer, got: true"):
        eval_expr(parse("x + 1"), {"x": True})
    with pytest.raises(EvalError, match="expected a boolean, got: 1"):
        eval_expr(parse("if x then 1 else 2"), {"x": 1})


# ---------------------------------------------------------------- derivation oracle

def test_derivation_matches_counter_on_examples():
    for source, _, cost in FROZEN:
        d = derive(parse(source))
        assert d.size() == cost
        assert typed(d.value) == typed(eval_expr(parse(source)).value)


def test_derivation_fold_unrolls_through_fresh_variable():
    d = derive(parse("fold [1, 2] of (nil, [h, t, w] w)"))
    rules = sorted(n.rule for n in derivation_nodes(d))
    # Two fold-cons unrollings read the remaining tail through a fresh
    # variable lookup each; the innermost fold-nil closes the recursion.
    assert rules.count("fold-cons") == 2
    assert rules.count("fold-nil") == 1
    assert rules.count("var") >= 2


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32), st.sampled_from([INT, BOOL, INT_LIST]))
def test_counter_equals_derivation_size(seed, ty):
    e = gen_typed_term(seed, depth=4, ty=ty)
    try:
        result = eval_expr(e)
    except ArithOverflowError:
        return
    d = derive(e)
    assert d.size() == result.cost
    assert typed(d.value) == typed(result.value)


def test_corpus_closures_cost_one():
    for name in CORPUS_NAMES:
        e = corpus_expr(name)
        result = eval_expr(e)
        assert derive(e).size() == result.cost
        if isinstance(result.value, VClosure):
            assert result.cost == 1
