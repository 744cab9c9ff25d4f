"""Complexity language: typing, denotation, maxima, and checked naturals."""

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_sem_max, fun_acc_fold
from foldcost import complexity
from foldcost.complexity import (
    LIT_PAIR,
    NAT,
    NAT_MAX,
    NAT_PAIR,
    NIL_PAIR,
    NUM_1,
    MAX_PRINTED,
    ArrowPotTy,
    CCase,
    CCons,
    CFold,
    Charge,
    CIf,
    CLam,
    CLet,
    CMax,
    CNum,
    COp,
    CPair,
    CPlus,
    CostOf,
    CplxExpr,
    CTy,
    CVar,
    CplxTypeError,
    DenoteError,
    NatOverflowError,
    PCase,
    PFold,
    PotOf,
    ProdTy,
    SPair,
    StarApp,
    cplx_to_source,
    ctypecheck,
    denote,
    sem_apply,
    sem_max,
)
from foldcost.interp import DEFAULT_BUDGET, BudgetExceededError
from foldcost.parser import parse
from foldcost.translate import translate
from oracles import expand_derived

def PAIR(c: int, p: int) -> CPair:
    return CPair(CNum(c), CNum(p))

# ---------------------------------------------------------------- nodes

NODE_CLASSES = [c for c in vars(complexity).values() if isinstance(c, type)
                and issubclass(c, (CplxExpr, CTy)) and c not in (CplxExpr, CTy)]


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_nodes_are_slotted_and_frozen(cls):
    # A translation has a few hundred nodes, so none keeps a per-instance
    # dict; `vars(node)` still lists an expression's fields, and keyword
    # construction, which `oracles.subst` uses through `dataclasses.replace`,
    # still works.
    names = [field.name for field in fields(cls)]
    node = cls(*[None] * len(names))
    assert cls.__dictoffset__ == 0
    if isinstance(node, CplxExpr):
        assert vars(node) == dict.fromkeys(names)
    assert cls(**dict.fromkeys(names)) == node
    for name in names or ["value"]:  # a class with no fields is frozen too
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, 0)


# ---------------------------------------------------------------- typing


def test_type_rendering():
    assert str(NAT) == "N"
    assert str(NAT_PAIR) == "N x N"
    assert str(ProdTy(ArrowPotTy(NAT, NAT_PAIR))) == "N x (N -> N x N)"
    assert str(ArrowPotTy(ArrowPotTy(NAT, NAT_PAIR), NAT_PAIR)) == "(N -> N x N) -> N x N"


def test_numerals_are_naturals():
    assert ctypecheck({}, CNum(0)) == NAT
    assert ctypecheck({}, CNum(NAT_MAX)) == NAT
    with pytest.raises(CplxTypeError, match="natural range"):
        ctypecheck({}, CNum(-1))
    with pytest.raises(CplxTypeError, match="natural range"):
        ctypecheck({}, CNum(NAT_MAX + 1))


def test_operator_typing():
    assert ctypecheck({}, CPlus(CNum(1), CNum(2))) == NAT
    assert ctypecheck({}, CMax(PAIR(1, 2), PAIR(3, 0))) == NAT_PAIR
    with pytest.raises(CplxTypeError, match="left operand"):
        ctypecheck({}, CPlus(PAIR(1, 1), CNum(2)))
    with pytest.raises(CplxTypeError, match="mismatched types"):
        ctypecheck({}, CMax(CNum(1), PAIR(1, 1)))


def test_pair_and_projection_typing():
    assert ctypecheck({}, PAIR(1, 1)) == NAT_PAIR
    assert ctypecheck({}, CostOf(PAIR(1, 1))) == NAT
    assert ctypecheck({}, PotOf(PAIR(1, 1))) == NAT
    with pytest.raises(CplxTypeError, match="non-potential"):
        ctypecheck({}, CPair(CNum(1), PAIR(1, 1)))
    with pytest.raises(CplxTypeError, match="pair"):
        ctypecheck({}, CostOf(CNum(1)))


@pytest.mark.parametrize("shared, pot", [(LIT_PAIR, 1), (NIL_PAIR, 0)], ids=["literal", "nil"])
def test_shared_pairs_answer_as_fresh_ones(shared, pot):
    # ctypecheck and denote answer the shared pairs by identity; a fresh
    # pair of the same numerals, walked node by node, gives the same answers.
    fresh = CPair(CNum(1), CNum(pot))
    assert fresh == shared and fresh is not shared
    for make in (lambda e: e, CostOf, PotOf,
                 lambda e: CPlus(CostOf(e), CostOf(e)), lambda e: Charge(CNum(2), e)):
        assert ctypecheck({}, make(fresh)) is ctypecheck({}, make(shared))
        assert denote(make(fresh)) == denote(make(shared))
    assert denote(shared) == SPair(1, pot)


def test_lambda_and_application_typing():
    lam = CLam("x", NAT, CVar("x"))
    assert ctypecheck({}, lam) == ProdTy(ArrowPotTy(NAT, NAT_PAIR))
    assert ctypecheck({}, StarApp(lam, PAIR(1, 5))) == NAT_PAIR
    with pytest.raises(CplxTypeError, match="non-function"):
        ctypecheck({}, StarApp(PAIR(1, 1), PAIR(1, 1)))
    with pytest.raises(CplxTypeError, match="does not match"):
        ctypecheck({}, StarApp(CLam("f", ArrowPotTy(NAT, NAT_PAIR), CVar("f")), PAIR(1, 1)))


def test_pcase_pfold_typing():
    pc = PCase(CNum(3), PAIR(1, 0), "p", "ps", CPair(CVar("p"), CVar("ps")))
    assert ctypecheck({}, pc) == NAT_PAIR
    with pytest.raises(CplxTypeError, match="disagree"):
        ctypecheck({}, PCase(CNum(3), CNum(1), "p", "ps", PAIR(1, 1)))
    pf = PFold(CNum(3), PAIR(1, 0), "p", "ps", "w", CPair(CostOf(CVar("w")), CVar("ps")))
    assert ctypecheck({}, pf) == NAT_PAIR
    with pytest.raises(CplxTypeError, match="must be pairs"):
        ctypecheck({}, PFold(CNum(3), CNum(0), "p", "ps", "w", CNum(0)))


def test_charge_and_let_type_and_denote():
    # 3 +_c (2, 7) is (3 + 2, 7); a let names its bound in its body only,
    # where it shadows an outer binding of the same name.
    assert ctypecheck({}, Charge(CNum(3), PAIR(2, 7))) == NAT_PAIR
    assert denote(Charge(CNum(3), PAIR(2, 7))) == SPair(5, 7)
    with pytest.raises(CplxTypeError, match="charged cost"):
        ctypecheck({}, Charge(PAIR(1, 1), PAIR(2, 7)))
    with pytest.raises(CplxTypeError, match="pair"):
        ctypecheck({}, Charge(CNum(1), CNum(2)))
    s = CVar("s")
    let = CLet("s", PAIR(4, 6), CPair(CPlus(CostOf(s), PotOf(s)), CostOf(CVar("t"))))
    assert ctypecheck({"s": NAT, "t": NAT_PAIR}, let) == NAT_PAIR
    assert denote(let, {"s": 0, "t": SPair(9, 9)}) == SPair(10, 9)
    with pytest.raises(CplxTypeError, match="unbound variable: s"):
        ctypecheck({}, CPair(let.body, CNum(0)))


def test_unbound_variable():
    with pytest.raises(CplxTypeError, match="unbound variable: q"):
        ctypecheck({}, CVar("q"))


# ---------------------------------------------------------------- denotation


def test_denote_costed_application():
    # Applying a one-unit lambda to a pair charges one unit plus both costs.
    e = StarApp(CLam("x", NAT, CVar("x")), PAIR(1, 5))
    assert denote(e) == SPair(4, 5)


def test_denote_pfold_recurrence():
    # acc(0) = (3, 1); acc(q+1) = (2 + acc(q)_c + step_c, max(1, step_p))
    # with the step at (10 + w_c, max(2 + ps, 1 + w_p)) and w = (1, acc(q)_p).
    succ = CPair(
        CPlus(CNum(10), CostOf(CVar("w"))),
        CMax(CPlus(CNum(2), CVar("ps")), CPlus(CNum(1), PotOf(CVar("w")))))
    pf = PFold(CNum(2), PAIR(3, 1), "p", "ps", "w", succ)
    assert ctypecheck({}, pf) == NAT_PAIR
    assert denote(pf) == SPair(29, 3)
    # Hand recurrence: acc(1) = (2+3+11, max(1,2)) = (16, 2);
    #                  acc(2) = (2+16+11, max(1,3)) = (29, 3).


def test_denote_pcase_max_of_branches():
    succ = CPair(CNum(9), CPlus(CVar("p"), CVar("ps")))
    assert denote(PCase(CNum(0), PAIR(2, 7), "p", "ps", succ)) == SPair(2, 7)
    # At q+1 the head potential is fixed at 1 and ps is q; branches are maxed.
    assert denote(PCase(CNum(4), PAIR(2, 7), "p", "ps", succ)) == SPair(9, 7)
    assert denote(PCase(CNum(9), PAIR(2, 7), "p", "ps", succ)) == SPair(9, 9)


def test_denote_lambda_binds_value_pairs():
    # The parameter stands for a value: cost 1, the argument's potential.
    e = StarApp(CLam("x", NAT, CPair(CostOf(CVar("x")), PotOf(CVar("x")))), PAIR(6, 5))
    assert denote(e) == SPair(1 + 1 + 6 + 1, 5)


# `twice` is a closed `def` inlined into the fold step, so denote evaluates it
# once and remembers its results at natural arguments.  Each step applies it
# to two different functions; remembering a result at a function argument
# would mix their costs up.  The costs were recorded before closed lambdas
# were memoised.
TWICE = r"""def twice = \f:int -> int. \x:int. f (f x)
\xs:int*. fold xs of (0, [y, ys, w]
  twice (\a:int. a + 1) y + twice (\a:int. fold ys of (a, [b, bs, v] v + b)) w)"""


def test_closed_definition_applied_to_different_functions():
    pot = denote(translate(parse(TWICE))).pot
    sizes = (5, 0, 3, 1, 4, 2, 5)
    costs = (323, 3, 159, 43, 235, 95, 323)
    assert [pot(n) for n in sizes] == [SPair(c, 1) for c in costs]


def test_every_lambda_remembers_its_results():
    # An open lambda's potential function remembers its results as a closed
    # one's does: the same argument gives back the same object.
    lam = CLam("y", NAT, CPair(CNum(2), CPlus(PotOf(CVar("x")), PotOf(CVar("y")))))
    chi = denote(lam, {"x": SPair(1, 3)})
    assert chi.cost == 1
    assert chi.pot(4) is chi.pot(4) == SPair(2, 7)
    assert chi.pot(5) == SPair(2, 8)
    readme = "case (if true then nil else [0]) of ([0, 0], [x, xs] nil)"
    assert repr(denote(translate(parse(readme)))) == "SPair(cost=11, pot=2)"


def test_denote_env_and_errors():
    assert denote(CVar("x"), {"x": 3}) == 3
    with pytest.raises(DenoteError, match="unbound"):
        denote(CVar("x"))
    with pytest.raises(DenoteError, match="naturals"):
        denote(CPlus(PAIR(1, 1), CNum(1)))
    with pytest.raises(DenoteError, match="non-function"):
        denote(StarApp(PAIR(1, 1), PAIR(1, 1)))


_OVERFLOW = "cost/potential arithmetic overflowed 64 bits"
_NOT_A_PAIR = "expected a cost/potential pair, got: 3"

# The errors of the `+` and projection closures, with the class and text
# they had before staging fused any shape; the derived nodes' closures,
# which stand for these shapes, must raise the same (DERIVED_DENOTATIONS).
FUSED_ERRORS = [
    pytest.param(CostOf(CVar("x")), {}, DenoteError,
                 "unbound variable at denotation time: x", id="cost-of-unbound"),
    pytest.param(PotOf(CVar("x")), {}, DenoteError,
                 "unbound variable at denotation time: x", id="pot-of-unbound"),
    pytest.param(CostOf(CVar("x")), {"x": 3}, DenoteError, _NOT_A_PAIR, id="cost-of-natural"),
    pytest.param(PotOf(CVar("x")), {"x": 3}, DenoteError, _NOT_A_PAIR, id="pot-of-natural"),
    pytest.param(CostOf(CNum(3)), {}, DenoteError, _NOT_A_PAIR, id="cost-of-numeral"),
    pytest.param(CPlus(CNum(1), PAIR(1, 1)), {}, DenoteError,
                 "operands of + must be naturals", id="one-plus-pair"),
    pytest.param(CPlus(CNum(1), CVar("x")), {}, DenoteError,
                 "unbound variable at denotation time: x", id="k-plus-unbound"),
    pytest.param(CPlus(CNum(1), CVar("x")), {"x": NAT_MAX}, NatOverflowError, _OVERFLOW,
                 id="k-plus-overflow"),
    pytest.param(CPlus(CNum(NAT_MAX), CNum(1)), {}, NatOverflowError, _OVERFLOW,
                 id="numerals-overflow"),
    pytest.param(CPlus(CostOf(CVar("a")), CostOf(CVar("b"))),
                 {"a": SPair(NAT_MAX, 0), "b": SPair(1, 0)}, NatOverflowError, _OVERFLOW,
                 id="costs-overflow"),
    pytest.param(CPlus(CostOf(CVar("a")), CostOf(CVar("b"))), {"a": 3}, DenoteError,
                 _NOT_A_PAIR, id="costs-left-natural"),
    pytest.param(CPlus(CostOf(CVar("a")), CostOf(CVar("b"))), {"a": SPair(1, 0), "b": 3},
                 DenoteError, _NOT_A_PAIR, id="costs-right-natural"),
    pytest.param(CPlus(CostOf(CVar("a")), CostOf(CVar("b"))), {"b": 3}, DenoteError,
                 "unbound variable at denotation time: a", id="costs-left-unbound"),
    pytest.param(CPlus(CostOf(CVar("a")), CostOf(CVar("b"))), {"a": SPair(SPair(1, 1), 0),
                 "b": SPair(1, 0)}, DenoteError, "operands of + must be naturals",
                 id="costs-not-naturals"),
]


@pytest.mark.parametrize("e, env, cls, message", FUSED_ERRORS)
def test_fused_staging_keeps_error_text(e, env, cls, message):
    with pytest.raises(DenoteError) as info:
        denote(e, env)
    assert (type(info.value), str(info.value)) == (cls, message)


_W = CVar("w")
_GROW = lambda q: SPair(1, q)  # noqa: E731
_NOT_A_NATURAL = "expected a natural, got: SPair(cost=1, pot=1)"
_MISMATCHED = "max of mismatched values: 1 and SPair(cost=1, pot=1)"

# The kernel tests exact types first and calls its checking helpers only
# when a test fails; every error keeps its class and text, recorded before
# the exact-type tests were added.
KERNEL_ERRORS = [
    pytest.param(StarApp(CNum(3), PAIR(1, 1)), {}, DenoteError, _NOT_A_PAIR, id="apply-fn-not-pair"),
    pytest.param(StarApp(CNum(3), CNum(4)), {}, DenoteError, _NOT_A_PAIR,
                 id="apply-both-not-pairs"),
    pytest.param(StarApp(CLam("x", NAT, CVar("x")), CNum(4)), {}, DenoteError,
                 "expected a cost/potential pair, got: 4", id="apply-arg-not-pair"),
    pytest.param(StarApp(PAIR(1, 1), PAIR(1, 1)), {}, DenoteError,
                 "applied a value with non-function potential", id="apply-non-function"),
    pytest.param(StarApp(CLam("x", NAT, CNum(5)), PAIR(1, 1)), {}, DenoteError,
                 "expected a cost/potential pair, got: 5", id="apply-body-not-pair"),
    pytest.param(StarApp(CVar("f"), PAIR(1, 1)), {"f": SPair(NAT_MAX - 2, _GROW)},
                 NatOverflowError, _OVERFLOW, id="apply-overflow"),
    pytest.param(CMax(CNum(1), PAIR(1, 1)), {}, DenoteError, _MISMATCHED, id="max-nat-pair"),
    pytest.param(CMax(PAIR(1, 1), CNum(1)), {}, DenoteError,
                 "max of mismatched values: SPair(cost=1, pot=1) and 1", id="max-pair-nat"),
    pytest.param(CMax(PAIR(1, 1), CPair(CNum(1), PAIR(1, 1))), {}, DenoteError, _MISMATCHED,
                 id="max-pots-mismatched"),
    pytest.param(PFold(PAIR(1, 1), PAIR(1, 0), "p", "ps", "w", _W), {}, DenoteError,
                 _NOT_A_NATURAL, id="pfold-pair-scrutinee"),
    pytest.param(PFold(CNum(2), CNum(0), "p", "ps", "w", _W), {}, DenoteError,
                 "expected a cost/potential pair, got: 0", id="pfold-zero-not-pair"),
    pytest.param(PFold(CNum(2), PAIR(1, 0), "p", "ps", "w", CNum(5)), {}, DenoteError,
                 "expected a cost/potential pair, got: 5", id="pfold-step-not-pair"),
    pytest.param(PFold(CNum(1), CVar("z"), "p", "ps", "w", _W), {"z": SPair(NAT_MAX - 2, 0)},
                 NatOverflowError, _OVERFLOW, id="pfold-overflow"),
    pytest.param(PCase(PAIR(1, 1), PAIR(2, 7), "p", "ps", PAIR(9, 9)), {}, DenoteError,
                 _NOT_A_NATURAL, id="pcase-pair-scrutinee"),
    pytest.param(Charge(PAIR(1, 1), PAIR(2, 7)), {}, DenoteError, _NOT_A_NATURAL,
                 id="charge-pair-extra"),
    pytest.param(Charge(CNum(1), CNum(2)), {}, DenoteError,
                 "expected a cost/potential pair, got: 2", id="charge-not-pair"),
    pytest.param(Charge(PAIR(1, 1), CNum(2)), {}, DenoteError,
                 "expected a cost/potential pair, got: 2", id="charge-both-wrong"),
    pytest.param(Charge(CNum(NAT_MAX), PAIR(1, 0)), {}, NatOverflowError, _OVERFLOW,
                 id="charge-overflow"),
    pytest.param(CPair(PAIR(1, 1), CNum(1)), {}, DenoteError, _NOT_A_NATURAL,
                 id="pair-pair-cost"),
    pytest.param(CPair(CVar("x"), CVar("y")), {}, DenoteError,
                 "unbound variable at denotation time: x", id="pair-cost-first"),
    pytest.param(CostOf(CPlus(CNum(1), CNum(2))), {}, DenoteError, _NOT_A_PAIR,
                 id="cost-of-sum"),
    pytest.param(PotOf(CMax(CNum(1), CNum(2))), {}, DenoteError,
                 "expected a cost/potential pair, got: 2", id="pot-of-max"),
]


@pytest.mark.parametrize("e, env, cls, message", KERNEL_ERRORS)
def test_kernel_keeps_error_text(e, env, cls, message):
    with pytest.raises(DenoteError) as info:
        denote(e, env)
    assert (type(info.value), str(info.value)) == (cls, message)


# A bool passes `isinstance(v, int)` but no exact-type test, so it takes the
# checking path; these results, with the types of their parts, were recorded
# before the exact-type tests were added.
KERNEL_BOOLS = [
    pytest.param(CMax(CNum(True), CNum(0)), {}, True, id="max-bool-nat"),
    pytest.param(CMax(CNum(1), CNum(True)), {}, 1, id="max-nat-bool"),
    pytest.param(CMax(CVar("a"), CVar("b")), {"a": SPair(True, False), "b": SPair(0, 1)},
                 SPair(True, 1), id="max-bool-pairs"),
    pytest.param(StarApp(CVar("f"), PAIR(1, 1)), {"f": SPair(True, _GROW)}, SPair(4, 1),
                 id="apply-bool-cost"),
    pytest.param(StarApp(CLam("x", NAT, CPair(CostOf(CVar("x")), PotOf(CVar("x")))), CVar("a")),
                 {"a": SPair(True, True)}, SPair(4, True), id="apply-bool-pot"),
    pytest.param(PFold(CNum(True), PAIR(3, 1), "p", "ps", "w",
                       CPair(CVar("ps"), CPlus(CNum(1), PotOf(_W)))), {}, SPair(5, 2),
                 id="pfold-bool-scrutinee"),
    pytest.param(PFold(CVar("n"), PAIR(3, 1), "p", "ps", "w", _W), {"n": -1}, SPair(3, 1),
                 id="pfold-negative-scrutinee"),
    pytest.param(PCase(CNum(True), PAIR(2, 7), "p", "ps",
                       CPair(CNum(9), CPlus(CVar("p"), CVar("ps")))), {}, SPair(9, 7),
                 id="pcase-bool-scrutinee"),
    pytest.param(Charge(CNum(True), PAIR(2, 7)), {}, SPair(3, 7), id="charge-bool-extra"),
    pytest.param(CPair(CVar("x"), CNum(1)), {"x": True}, SPair(True, 1), id="pair-bool-cost"),
    pytest.param(CPlus(CostOf(CVar("a")), CostOf(CVar("b"))),
                 {"a": SPair(True, 0), "b": SPair(1, 0)}, 2, id="costs-bool"),
]


def _typed(v):
    return (type(v), v, *map(type, v)) if type(v) is SPair else (type(v), v)


@pytest.mark.parametrize("e, env, want", KERNEL_BOOLS)
def test_kernel_bools_take_the_checking_path(e, env, want):
    assert _typed(denote(e, env)) == _typed(want)


# The full text of each CplxTypeError, where the typing tests above match a
# part; recorded before ctypecheck's exact-type tests were added.
CPLX_TYPE_ERRORS = [
    pytest.param(CNum(-1), "numeral out of natural range: -1", id="numeral-negative"),
    pytest.param(CNum(NAT_MAX + 1), "numeral out of natural range: 9223372036854775808",
                 id="numeral-too-large"),
    pytest.param(CPlus(PAIR(1, 1), CNum(2)), "left operand of +: expected N, got N x N",
                 id="plus-left"),
    pytest.param(CPlus(CNum(2), PAIR(1, 1)), "right operand of +: expected N, got N x N",
                 id="plus-right"),
    pytest.param(CMax(CNum(1), PAIR(1, 1)), "max of mismatched types: N and N x N",
                 id="max-mismatched"),
    pytest.param(CPair(CNum(1), PAIR(1, 1)), "pair potential has non-potential type N x N",
                 id="pair-non-potential"),
    pytest.param(CPair(PAIR(1, 1), CNum(1)), "cost component: expected N, got N x N",
                 id="pair-cost"),
    pytest.param(CostOf(CNum(1)), "expected a cost/potential pair, got N", id="cost-of-natural"),
    pytest.param(PotOf(CNum(1)), "expected a cost/potential pair, got N", id="pot-of-natural"),
    pytest.param(StarApp(PAIR(1, 1), PAIR(1, 1)), "applied a non-function of type N x N",
                 id="apply-non-function"),
    pytest.param(StarApp(CLam("f", ArrowPotTy(NAT, NAT_PAIR), CVar("f")), PAIR(1, 1)),
                 "argument potential N does not match parameter N -> N x N",
                 id="apply-mismatched"),
    pytest.param(StarApp(CLam("x", NAT, CVar("x")), CNum(1)),
                 "expected a cost/potential pair, got N", id="apply-arg-not-pair"),
    pytest.param(CLam("x", NAT_PAIR, CVar("x")), "lambda parameter has non-potential type N x N",
                 id="lam-non-potential"),
    pytest.param(PCase(CNum(3), CNum(1), "p", "ps", PAIR(1, 1)),
                 "pcase branches disagree: N and N x N", id="pcase-disagree"),
    pytest.param(PCase(PAIR(1, 1), CNum(1), "p", "ps", CNum(1)),
                 "pcase scrutinee: expected N, got N x N", id="pcase-scrutinee"),
    pytest.param(PFold(CNum(3), CNum(0), "p", "ps", "w", CNum(0)),
                 "pfold branches must be pairs, got N", id="pfold-not-pairs"),
    pytest.param(PFold(CNum(3), PAIR(1, 0), "p", "ps", "w", CNum(0)),
                 "pfold branches disagree: N x N and N", id="pfold-disagree"),
    pytest.param(PFold(PAIR(1, 1), PAIR(1, 0), "p", "ps", "w", _W),
                 "pfold scrutinee: expected N, got N x N", id="pfold-scrutinee"),
    pytest.param(Charge(PAIR(1, 1), PAIR(2, 7)), "charged cost: expected N, got N x N",
                 id="charge-cost"),
    pytest.param(Charge(CNum(1), CNum(2)), "expected a cost/potential pair, got N",
                 id="charge-pair"),
    pytest.param(CVar("q"), "unbound variable: q", id="unbound"),
]


@pytest.mark.parametrize("e, message", CPLX_TYPE_ERRORS)
def test_type_errors_keep_their_text(e, message):
    with pytest.raises(CplxTypeError) as info:
        ctypecheck({}, e)
    assert str(info.value) == message


# ---------------------------------------------------------------- derived forms


def _outcome(run):
    """run()'s value with the types of its parts, or its error's class and text."""
    try:
        v = run()
    except (CplxTypeError, DenoteError) as err:
        return type(err), str(err)
    return _typed(v)


_H, _T, _L, _R = CVar("h"), CVar("t"), CVar("l"), CVar("r")
_PAIR_ERROR = "expected a cost/potential pair, got: "
_NOT_NATURALS = (DenoteError, "operands of + must be naturals")
_OVERFLOWED = (NatOverflowError, _OVERFLOW)

_IF = CIf(CVar("b"), _L, _R)
# A case of s whose cons branch is (ps, p), and a fold of s whose step is
# the translation of `h :: w`; the scrutinee of the last two is compound,
# so their expansions bind it by a `let`.
_CASE = CCase(CVar("s"), CVar("z"), "p", "ps", CPair(CVar("ps"), CVar("p")))
_FOLD = CFold(CVar("s"), CVar("z"), "p", "ps", "w", CCons(CPair(NUM_1, CVar("p")), _W))
_CASE_OF_CONS = CCase(CCons(_H, _T), CVar("z"), "p", "ps", CPair(CVar("ps"), CVar("p")))
_FOLD_OF_OP = CFold(COp(_L, _R), CVar("z"), "p", "ps", "w", _W)
_BRANCHES = {"l": SPair(2, 3), "r": SPair(4, 1)}

# The derived nodes denote as their expansions (`expand_derived`): the same
# value, or the same first error, at every check of every addition.
DERIVED_DENOTATIONS = [
    pytest.param(CCons(_H, _T), {"h": SPair(2, 1), "t": SPair(3, 4)}, SPair(6, 5), id="cons"),
    pytest.param(CCons(_H, _T), {"h": 3, "t": SPair(1, 0)}, (DenoteError, _PAIR_ERROR + "3"),
                 id="cons-head-natural"),
    pytest.param(CCons(_H, _T), {"h": SPair(1, 1), "t": 4}, (DenoteError, _PAIR_ERROR + "4"),
                 id="cons-tail-natural"),
    pytest.param(CCons(_H, _T), {"h": 3, "t": 4}, (DenoteError, _PAIR_ERROR + "3"),
                 id="cons-both-natural"),
    pytest.param(CCons(_H, _T), {"h": 3}, (DenoteError, "unbound variable at denotation time: t"),
                 id="cons-tail-first"),
    pytest.param(CCons(_H, CPlus(CNum(1), PAIR(1, 1))), {}, _NOT_NATURALS,
                 id="cons-tail-before-head"),
    pytest.param(CCons(_H, _T), {"h": SPair(True, 1), "t": SPair(True, True)}, SPair(3, 2),
                 id="cons-bools"),
    pytest.param(CCons(_H, _T), {"h": SPair(NAT_MAX, 1), "t": SPair(1, 0)}, _OVERFLOWED,
                 id="cons-costs-overflow"),
    pytest.param(CCons(_H, _T), {"h": SPair(NAT_MAX - 1, 1), "t": SPair(1, 0)}, _OVERFLOWED,
                 id="cons-one-plus-overflows"),
    pytest.param(CCons(_H, _T), {"h": SPair(NAT_MAX - 2, 1), "t": SPair(1, 0)},
                 SPair(NAT_MAX, 1), id="cons-cost-at-max"),
    pytest.param(CCons(_H, _T), {"h": SPair(1, 1), "t": SPair(1, NAT_MAX)}, _OVERFLOWED,
                 id="cons-potential-overflows"),
    pytest.param(CCons(_H, _T), {"h": SPair(1, 1), "t": SPair(1, NAT_MAX - 1)},
                 SPair(3, NAT_MAX), id="cons-potential-at-max"),
    pytest.param(CCons(_H, _T), {"h": SPair(_GROW, 1), "t": SPair(1, 0)}, _NOT_NATURALS,
                 id="cons-function-cost"),
    pytest.param(CCons(_H, _T), {"h": SPair(1, 1), "t": SPair(1, _GROW)}, _NOT_NATURALS,
                 id="cons-function-potential"),
    pytest.param(CCons(_H, _T), {"h": SPair(NAT_MAX, 1), "t": SPair(1, _GROW)}, _OVERFLOWED,
                 id="cons-cost-before-potential"),
    pytest.param(COp(_L, _R), {"l": SPair(2, 1), "r": SPair(3, 9)}, SPair(7, 1), id="op"),
    pytest.param(COp(_L, _R), {"l": 3, "r": SPair(1, 1)}, (DenoteError, _PAIR_ERROR + "3"),
                 id="op-left-natural"),
    pytest.param(COp(_L, _R), {"l": SPair(1, 1), "r": 4}, (DenoteError, _PAIR_ERROR + "4"),
                 id="op-right-natural"),
    pytest.param(COp(_L, _R), {"l": 3}, (DenoteError, _PAIR_ERROR + "3"), id="op-left-first"),
    pytest.param(COp(_L, _R), {"r": 4}, (DenoteError, "unbound variable at denotation time: l"),
                 id="op-left-unbound"),
    pytest.param(COp(_L, _R), {"l": SPair(True, 1), "r": SPair(False, 5)}, SPair(3, 1),
                 id="op-bools"),
    pytest.param(COp(_L, _R), {"l": SPair(NAT_MAX, 1), "r": SPair(1, 1)}, _OVERFLOWED,
                 id="op-costs-overflow"),
    pytest.param(COp(_L, _R), {"l": SPair(NAT_MAX - 2, 1), "r": SPair(1, 1)}, _OVERFLOWED,
                 id="op-two-plus-overflows"),
    pytest.param(COp(_L, _R), {"l": SPair(NAT_MAX - 3, 1), "r": SPair(1, 1)},
                 SPair(NAT_MAX, 1), id="op-cost-at-max"),
    pytest.param(COp(_L, _R), {"l": SPair(_GROW, 1), "r": SPair(1, 1)}, _NOT_NATURALS,
                 id="op-function-cost"),
    pytest.param(COp(_L, _R), {"l": SPair(1, _GROW), "r": SPair(1, _GROW)}, SPair(4, 1),
                 id="op-function-potentials"),
    pytest.param(CCons(COp(LIT_PAIR, PAIR(3, 1)), CCons(LIT_PAIR, NIL_PAIR)), {}, SPair(10, 2),
                 id="nested"),
    pytest.param(_IF, {"b": SPair(1, 1), **_BRANCHES}, SPair(6, 3), id="if"),
    pytest.param(_IF, {"b": 3, **_BRANCHES}, (DenoteError, _PAIR_ERROR + "3"),
                 id="if-test-natural"),
    pytest.param(_IF, {"b": 3}, (DenoteError, "unbound variable at denotation time: l"),
                 id="if-branches-first"),
    pytest.param(_IF, {"l": 1, "r": 2}, (DenoteError, _PAIR_ERROR + "2"),
                 id="if-branch-check-before-test"),
    pytest.param(_IF, {"b": SPair(1, 1), "l": SPair(1, 1), "r": 3},
                 (DenoteError, "max of mismatched values: SPair(cost=1, pot=1) and 3"),
                 id="if-branches-mismatched"),
    pytest.param(_IF, {"b": SPair(True, 1), "l": SPair(True, 1), "r": SPair(False, 1)},
                 SPair(3, 1), id="if-bools"),
    pytest.param(_IF, {"b": SPair(NAT_MAX, 1), **_BRANCHES}, _OVERFLOWED,
                 id="if-one-plus-overflows"),
    pytest.param(_IF, {"b": SPair(NAT_MAX - 4, 1), **_BRANCHES}, _OVERFLOWED,
                 id="if-sum-overflows"),
    pytest.param(_IF, {"b": SPair(NAT_MAX - 5, 1), **_BRANCHES}, SPair(NAT_MAX, 3),
                 id="if-cost-at-max"),
    pytest.param(_IF, {"b": SPair(_GROW, 1), **_BRANCHES}, _NOT_NATURALS,
                 id="if-function-cost"),
    pytest.param(_CASE, {"s": SPair(2, 3), "z": SPair(1, 0)}, SPair(5, 1), id="case"),
    pytest.param(_CASE, {"s": SPair(2, 0), "z": SPair(1, 0)}, SPair(4, 0), id="case-at-zero"),
    pytest.param(_CASE, {"s": 3, "z": SPair(1, 0)}, (DenoteError, _PAIR_ERROR + "3"),
                 id="case-scrutinee-natural"),
    pytest.param(_CASE, {"s": SPair(1, SPair(1, 1)), "z": SPair(1, 0)},
                 (DenoteError, _NOT_A_NATURAL), id="case-potential-pair"),
    pytest.param(_CASE, {"z": 4}, (DenoteError, "unbound variable at denotation time: s"),
                 id="case-scrutinee-first"),
    pytest.param(_CASE, {"s": SPair(1, 1)},
                 (DenoteError, "unbound variable at denotation time: z"),
                 id="case-zero-unbound"),
    pytest.param(_CASE, {"s": SPair(1, 0), "z": 4}, (DenoteError, _PAIR_ERROR + "4"),
                 id="case-zero-natural"),
    pytest.param(_CASE, {"s": SPair(1, 1), "z": 4},
                 (DenoteError, "max of mismatched values: 4 and SPair(cost=0, pot=1)"),
                 id="case-branches-mismatched"),
    pytest.param(_CASE, {"s": SPair(True, True), "z": SPair(1, 0)}, SPair(3, 1),
                 id="case-bools"),
    pytest.param(_CASE, {"s": SPair(NAT_MAX, 0), "z": SPair(1, 0)}, _OVERFLOWED,
                 id="case-one-plus-overflows"),
    pytest.param(_CASE, {"s": SPair(NAT_MAX - 1, 0), "z": SPair(1, 0)}, _OVERFLOWED,
                 id="case-sum-overflows"),
    pytest.param(_CASE, {"s": SPair(NAT_MAX - 2, 0), "z": SPair(1, 0)}, SPair(NAT_MAX, 0),
                 id="case-cost-at-max"),
    pytest.param(_CASE, {"s": SPair(_GROW, 0), "z": SPair(1, 0)}, _NOT_NATURALS,
                 id="case-function-cost"),
    pytest.param(_CASE_OF_CONS, {"h": SPair(1, 1), "t": SPair(1, 2), "z": SPair(1, 0)},
                 SPair(6, 1), id="case-of-cons"),
    pytest.param(_CASE_OF_CONS, {"z": 4}, (DenoteError, "unbound variable at denotation time: t"),
                 id="case-of-cons-scrutinee-first"),
    pytest.param(_FOLD, {"s": SPair(1, 2), "z": SPair(1, 0)}, SPair(13, 2), id="fold"),
    pytest.param(_FOLD, {"s": 3, "z": SPair(1, 0)}, (DenoteError, _PAIR_ERROR + "3"),
                 id="fold-scrutinee-natural"),
    pytest.param(_FOLD, {"s": SPair(1, SPair(1, 1)), "z": SPair(1, 0)},
                 (DenoteError, _NOT_A_NATURAL), id="fold-potential-pair"),
    pytest.param(_FOLD, {"z": 4}, (DenoteError, "unbound variable at denotation time: s"),
                 id="fold-scrutinee-first"),
    pytest.param(_FOLD, {"s": SPair(1, 1), "z": 4}, (DenoteError, _PAIR_ERROR + "4"),
                 id="fold-zero-natural"),
    pytest.param(_FOLD, {"s": SPair(True, True), "z": SPair(False, 0)}, SPair(7, 1),
                 id="fold-bools"),
    pytest.param(_FOLD, {"s": SPair(NAT_MAX, 0), "z": SPair(1, 0)}, _OVERFLOWED,
                 id="fold-one-plus-overflows"),
    pytest.param(_FOLD, {"s": SPair(NAT_MAX - 1, 0), "z": SPair(1, 0)}, _OVERFLOWED,
                 id="fold-sum-overflows"),
    pytest.param(_FOLD, {"s": SPair(NAT_MAX - 2, 0), "z": SPair(1, 0)}, SPair(NAT_MAX, 0),
                 id="fold-cost-at-max"),
    pytest.param(_FOLD_OF_OP, {"l": SPair(1, 1), "r": SPair(1, 1), "z": SPair(1, 0)},
                 SPair(9, 0), id="fold-of-op"),
    pytest.param(_FOLD_OF_OP, {"r": SPair(1, 1)},
                 (DenoteError, "unbound variable at denotation time: l"),
                 id="fold-of-op-scrutinee-first"),
]


@pytest.mark.parametrize("e, env, want", DERIVED_DENOTATIONS)
def test_derived_forms_denote_as_their_expansions(e, env, want):
    got = _outcome(lambda: denote(e, env))
    assert got == _outcome(lambda: denote(expand_derived(e), env))
    assert got == (_typed(want) if type(want) is SPair else want)


_FUN_PAIR = CLam("x", NAT, CVar("x"))

DERIVED_TYPES = [
    pytest.param(CCons(LIT_PAIR, NIL_PAIR), NAT_PAIR, id="cons"),
    pytest.param(CCons(CNum(1), NIL_PAIR), "expected a cost/potential pair, got N",
                 id="cons-head-natural"),
    pytest.param(CCons(LIT_PAIR, CNum(0)), "expected a cost/potential pair, got N",
                 id="cons-tail-natural"),
    pytest.param(CCons(LIT_PAIR, _FUN_PAIR), "right operand of +: expected N, got N -> N x N",
                 id="cons-tail-function"),
    pytest.param(CCons(CVar("q"), CVar("r")), "unbound variable: r", id="cons-tail-first"),
    pytest.param(COp(LIT_PAIR, _FUN_PAIR), NAT_PAIR, id="op"),
    pytest.param(COp(CNum(1), LIT_PAIR), "expected a cost/potential pair, got N",
                 id="op-left-natural"),
    pytest.param(COp(LIT_PAIR, CNum(1)), "expected a cost/potential pair, got N",
                 id="op-right-natural"),
    pytest.param(COp(CVar("q"), CVar("r")), "unbound variable: q", id="op-left-first"),
    pytest.param(CIf(LIT_PAIR, LIT_PAIR, NIL_PAIR), NAT_PAIR, id="if"),
    pytest.param(CIf(CNum(1), LIT_PAIR, LIT_PAIR), "expected a cost/potential pair, got N",
                 id="if-test-natural"),
    pytest.param(CIf(CNum(1), CVar("q"), CVar("r")), "expected a cost/potential pair, got N",
                 id="if-test-first"),
    pytest.param(CIf(CVar("q"), CVar("r"), CVar("s")), "unbound variable: q",
                 id="if-test-unbound-first"),
    pytest.param(CIf(LIT_PAIR, LIT_PAIR, _FUN_PAIR),
                 "max of mismatched types: N x N and N x (N -> N x N)", id="if-mismatched"),
    pytest.param(CIf(LIT_PAIR, CNum(1), CNum(2)), "expected a cost/potential pair, got N",
                 id="if-branches-natural"),
    pytest.param(CCase(LIT_PAIR, NIL_PAIR, "p", "ps", CPair(NUM_1, CVar("ps"))), NAT_PAIR,
                 id="case"),
    pytest.param(CCase(CCons(LIT_PAIR, NIL_PAIR), NIL_PAIR, "p", "ps",
                       CPair(CVar("p"), CVar("ps"))),
                 NAT_PAIR, id="case-of-cons"),
    pytest.param(CCase(CNum(1), NIL_PAIR, "p", "ps", NIL_PAIR),
                 "expected a cost/potential pair, got N", id="case-scrutinee-natural"),
    pytest.param(CCase(_FUN_PAIR, NIL_PAIR, "p", "ps", NIL_PAIR),
                 "pcase scrutinee: expected N, got N -> N x N", id="case-scrutinee-function"),
    pytest.param(CCase(CVar("q"), CVar("r"), "p", "ps", CVar("s")), "unbound variable: q",
                 id="case-scrutinee-first"),
    pytest.param(CCase(LIT_PAIR, CVar("r"), "p", "ps", CVar("s")), "unbound variable: r",
                 id="case-zero-before-succ"),
    pytest.param(CCase(LIT_PAIR, NIL_PAIR, "p", "ps", _FUN_PAIR),
                 "pcase branches disagree: N x N and N x (N -> N x N)", id="case-disagree"),
    pytest.param(CCase(LIT_PAIR, CNum(0), "p", "ps", CVar("ps")),
                 "expected a cost/potential pair, got N", id="case-branches-natural"),
    pytest.param(CFold(LIT_PAIR, NIL_PAIR, "p", "ps", "w", CVar("w")), NAT_PAIR, id="fold"),
    pytest.param(CFold(COp(LIT_PAIR, LIT_PAIR), NIL_PAIR, "p", "ps", "p", CVar("p")), NAT_PAIR,
                 id="fold-accumulator-shadows"),
    pytest.param(CFold(LIT_PAIR, CNum(0), "p", "ps", "w", CVar("w")),
                 "pfold branches must be pairs, got N", id="fold-zero-natural"),
    pytest.param(CFold(_FUN_PAIR, NIL_PAIR, "p", "ps", "w", CVar("w")),
                 "pfold scrutinee: expected N, got N -> N x N", id="fold-scrutinee-function"),
    pytest.param(CFold(NIL_PAIR, NIL_PAIR, "p", "ps", "w", _FUN_PAIR),
                 "pfold branches disagree: N x N and N x (N -> N x N)", id="fold-disagree"),
    pytest.param(CFold(CVar("q"), CVar("r"), "p", "ps", "w", CVar("s")), "unbound variable: q",
                 id="fold-scrutinee-first"),
]


@pytest.mark.parametrize("e, want", DERIVED_TYPES)
def test_derived_forms_typecheck_and_print_as_their_expansions(e, want):
    got = _outcome(lambda: ctypecheck({}, e))
    assert got == _outcome(lambda: ctypecheck({}, expand_derived(e)))
    assert got == (_typed(want) if isinstance(want, CTy) else (CplxTypeError, want))
    assert cplx_to_source(e) == cplx_to_source(expand_derived(e))


def test_pfold_over_the_budget_stops_before_its_first_step(monkeypatch):
    # The zero and the step are unbound, so a pfold that ran either would
    # raise DenoteError; one over the budget raises before both.
    fold = PFold(CVar("n"), CVar("z"), "p", "ps", "w", CVar("s"))
    with pytest.raises(BudgetExceededError) as info:
        denote(fold, {"n": DEFAULT_BUDGET + 1})
    assert str(info.value) == "pfold of 10000001 steps is over the budget of 10000000"
    assert info.value.budget == DEFAULT_BUDGET
    monkeypatch.setattr(complexity, "DEFAULT_BUDGET", 5)
    with pytest.raises(BudgetExceededError, match="pfold of 6 steps"):
        denote(fold, {"n": 6})
    steps = PFold(CVar("n"), PAIR(1, 0), "p", "ps", "w", CPair(CNum(0), CPlus(CNum(1), PotOf(_W))))
    assert denote(steps, {"n": 5}) == SPair(11, 5)
    # A fold node and its expansion stop there too, after the scrutinee.
    derived = CFold(CVar("s"), CVar("z"), "p", "ps", "w", CVar("t"))
    for e in (derived, expand_derived(derived)):
        with pytest.raises(BudgetExceededError, match="pfold of 6 steps"):
            denote(e, {"s": SPair(1, 6)})
        with pytest.raises(DenoteError, match="unbound variable at denotation time: s"):
            denote(e, {})


def test_case_and_fold_branches_see_no_scrutinee_name():
    # The expansions name a compound scrutinee `$s`; the derived nodes bind
    # no such name around their branches.
    for e in (CCase(COp(LIT_PAIR, LIT_PAIR), CVar("$s"), "p", "ps", NIL_PAIR),
              CFold(COp(LIT_PAIR, LIT_PAIR), CVar("$s"), "p", "ps", "w", NIL_PAIR)):
        with pytest.raises(CplxTypeError, match=r"unbound variable: \$s"):
            ctypecheck({}, e)
        with pytest.raises(DenoteError, match=r"unbound variable at denotation time: \$s"):
            denote(e)


# ---------------------------------------------------------------- maxima and naturals


@settings(deadline=None)
@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_sem_max_pairs_pointwise(a, b, c, d):
    m = sem_max(SPair(a, b), SPair(c, d))
    assert m == SPair(max(a, c), max(b, d))


def test_sem_max_functions_lazy_pointwise():
    f = lambda q: SPair(q, 2 * q)
    g = lambda q: SPair(10, q + 1)
    m = sem_max(f, g)
    assert callable(m)
    for q in range(6):
        assert m(q) == SPair(max(q, 10), max(2 * q, q + 1))


def test_function_join_remembers_every_argument():
    calls = []

    def f(q):
        calls.append(q)
        return q(0) if callable(q) else SPair(q, q)

    m = sem_max(f, lambda q: SPair(0, 0))
    assert [m(3), m(3), m(4)] == [SPair(3, 3), SPair(3, 3), SPair(4, 4)]
    assert calls == [3, 4]
    # A function argument is a key by identity: the same function is
    # computed once, and two different functions give their two different
    # results.
    g, h = lambda q: SPair(1, 5), lambda q: SPair(3, 7)
    assert [m(g), m(h), m(g)] == [SPair(1, 5), SPair(3, 7), SPair(1, 5)]
    assert calls == [3, 4, g, h]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_function_accumulator_fold_joins_in_linear_work(monkeypatch, n):
    # Each step joins the accumulator with itself (the if) and with the
    # zero (the pfold's max).  Unless a join remembers its results, applying
    # the root applies every earlier accumulator twice, about 2**n calls to
    # sem_max; the count is capped so that such a run fails at once.
    count_sem_max(monkeypatch, 50 * n)
    chi = denote(translate(parse(fun_acc_fold(n))))
    assert chi.cost == 7 * n + 3
    assert [chi.pot(q) for q in range(9)] == [SPair(1, 1)] * 9


@pytest.mark.parametrize("n", [16, 32, 64])
def test_function_argument_fold_joins_in_linear_work(monkeypatch, n):
    # As above, but the accumulator is applied at a function, so only a
    # join that remembers its result at a function argument avoids about
    # 2**n calls to sem_max; the cap makes such a run fail at once.
    count_sem_max(monkeypatch, 50 * n)
    chi = denote(translate(parse(fun_acc_fold(n, "int -> int"))))
    assert chi.cost == 7 * n + 3
    probe, other = lambda q: SPair(1, q), lambda q: SPair(2, 0)
    assert [chi.pot(probe), chi.pot(other), chi.pot(probe)] == [SPair(1, 1)] * 3


def test_sem_max_mismatch():
    with pytest.raises(DenoteError, match="mismatched"):
        sem_max(1, SPair(1, 1))


def test_sem_apply_charges_one_unit_plus_both_sides_and_the_body():
    f = SPair(2, lambda q: SPair(5, q + 1))
    assert sem_apply(f, SPair(3, 4)) == SPair(1 + 2 + 3 + 5, 5)
    with pytest.raises(DenoteError, match="non-function potential"):
        sem_apply(SPair(1, 1), SPair(1, 1))


def test_nat_overflow():
    # NAT_MAX itself is a natural; one more overflows.
    assert denote(CPlus(CNum(NAT_MAX - 1), CNum(1))) == NAT_MAX
    assert sem_apply(SPair(NAT_MAX - 3, lambda q: SPair(1, q)), SPair(1, 1)).cost == NAT_MAX
    with pytest.raises(NatOverflowError):
        denote(CPlus(CNum(NAT_MAX), CNum(1)))
    with pytest.raises(NatOverflowError):
        sem_apply(SPair(NAT_MAX, lambda q: SPair(0, q)), SPair(0, 1))
    succ = CPair(CPlus(CostOf(CVar("w")), CNum(NAT_MAX)), CNum(0))
    with pytest.raises(NatOverflowError):
        denote(PFold(CNum(1), PAIR(0, 0), "p", "ps", "w", succ))


# ---------------------------------------------------------------- rendering


def test_cplx_to_source():
    assert cplx_to_source(CPlus(CPlus(CNum(1), CNum(2)), CNum(3))) == "1 + 2 + 3"
    assert cplx_to_source(CPlus(CNum(1), CPlus(CNum(2), CNum(3)))) == "1 + (2 + 3)"
    assert cplx_to_source(CostOf(PAIR(1, 2))) == "(1, 2)_c"
    assert cplx_to_source(CMax(CNum(1), PotOf(CVar("x")))) == "max(1, x_p)"
    assert cplx_to_source(CLam("x", NAT, CVar("x"))) == "\\*x:N. x"
    assert cplx_to_source(StarApp(CVar("f"), PAIR(1, 1))) == "f * (1, 1)"
    assert cplx_to_source(PCase(CNum(2), PAIR(1, 0), "p", "ps", CVar("ps"))) == \
        "pcase 2 of ((1, 0), [p, ps] ps)"
    assert cplx_to_source(
        PFold(CNum(2), PAIR(1, 0), "p", "ps", "w", CostOf(CVar("w")))) == \
        "pfold 2 of ((1, 0), [p, ps, w] w_c)"
    # +_c and let print written out; a let variable as its bound under a
    # projection, where translations put it.
    assert cplx_to_source(Charge(CPlus(CNum(1), CNum(2)), StarApp(CVar("f"), PAIR(1, 1)))) == \
        "(1 + 2 + (f * (1, 1))_c, (f * (1, 1))_p)"
    s = CVar("s")
    assert cplx_to_source(CLet("s", StarApp(CVar("f"), CVar("x")),
                               CPair(CostOf(s), CMax(s, s)))) == "((f * x)_c, max((f * x), (f * x)))"


def test_printing_refuses_text_over_the_limit():
    # k nested +_c over (1, 1) print 18 * 2**k - 12 bytes: 9.4 MB at k = 19,
    # and 18.9 MB, over MAX_PRINTED, at k = 20.
    e = PAIR(1, 1)
    for _ in range(19):
        e = Charge(CNum(0), e)
    assert len(cplx_to_source(e)) == 18 * 2**19 - 12 < MAX_PRINTED
    with pytest.raises(ValueError, match=f"^recurrence too large to print \\(over {MAX_PRINTED} bytes"):
        cplx_to_source(Charge(CNum(0), e))

