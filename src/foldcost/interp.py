"""Big-step evaluator with evaluation-cost instrumentation.

The cost of running a program is the size of its big-step derivation: every
rule instance contributes 1, and the one binary-operator rule one more for
its side condition.  So literals, variables, and lambdas cost 1; `r op s`
costs 2 plus its operands; `if` pays for the test and the taken branch
only; application pays for function, argument, and body; `fold` over a
k-element list unrolls into k+1 rule instances, with each unrolling after
the first reading the remaining tail from a fresh variable (one per lookup).

Runtime values are plain Python values: an `int`, a `bool`, a `tuple` of
ints for a list, or a `VClosure` for a function.

`eval_expr` evaluates well-typed programs only, as the paper's semantics
does: e must be accepted by `typecheck` under the types of the
environment's values, as each caller confirms or `gen` ensures, so no
value's type is tested.  On those programs evaluation stops only at two
checked limits: `ArithOverflowError` (64-bit overflow) and
`BudgetExceededError` (the cost budget).

`eval_expr` is the one entry point, for the command line, `check_program`
and every probe; its `EvalResult` unpacks at tuple cost.

`_eval` dispatches on the exact node type, most frequent first, and adds to
the cost counter in place, testing the budget after each addition.  Where
the ticks fall decides which limit a run hits first, so they stay fixed: one
on entering each node; an operator's side condition after both operands and
before the checked operation; a fold's 2k unrollings after its scrutinee and
before its nil branch.  The tests' derivation oracle, `oracles.derive`,
follows the rules by structural `match` instead and is written separately
on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Union

from .syntax import (
    INT_MAX,
    INT_MIN,
    OPS,
    App,
    BinOp,
    BoolLit,
    Case,
    Cons,
    Expr,
    Fold,
    IntLit,
    Lam,
    Nil,
    Var,
)

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(Exception):
    def __init__(self, budget: int, message: str | None = None):
        super().__init__(message or f"evaluation exceeded the cost budget of {budget}")
        self.budget = budget


class ArithOverflowError(Exception):
    pass


# ---------------------------------------------------------------- values

@dataclass(frozen=True, eq=False)
class VClosure:
    """A function value: a lambda's parameter and body, closed over `env`."""

    param: str
    body: Expr
    env: Mapping[str, Value]


# bool is a subclass of int and True == 1, so values are told apart by their
# exact type, never by isinstance or equality.
Value = Union[int, bool, tuple, VClosure]
ValueEnv = Mapping[str, Value]


def render_value(v: Value) -> str:
    t = type(v)
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return str(v)
    if t is tuple:
        return "[" + ",".join(map(str, v)) + "]"
    return "<fun>"  # VClosure


def value_size(v: Value) -> int:
    """Size of a first-order value: 1 for ints and booleans, length for lists.

    v must be a value of a base type (int, bool or int*); function values
    have no size measure, and the harness bounds them by probing them
    pointwise instead.
    """
    return len(v) if type(v) is tuple else 1


# ---------------------------------------------------------------- evaluator

class EvalResult(NamedTuple):
    value: Value
    cost: int


class _Counter:
    __slots__ = ("cost", "budget")

    def __init__(self, budget: int):
        self.cost = 0
        self.budget = budget


def _checked(op: str, a: int, b: int) -> int | bool:
    n = OPS[op].fn(a, b)
    if not INT_MIN <= n <= INT_MAX:
        raise ArithOverflowError(f"64-bit overflow: {a} {op} {b}")
    return n


def eval_expr(e: Expr, env: ValueEnv | None = None, budget: int = DEFAULT_BUDGET) -> EvalResult:
    """Evaluate e under env, returning its value and evaluation cost.

    e must be accepted by `typecheck` under the types of env's values; it
    raises only `BudgetExceededError` and `ArithOverflowError`.

    env is used as given, not copied, so the caller must not change it
    afterwards: closures made by the run keep it.
    """
    counter = _Counter(budget)
    value = _eval(e, {} if env is None else env, counter)
    return tuple.__new__(EvalResult, (value, counter.cost))  # no NamedTuple `__new__` frame


def _eval(e: Expr, env: ValueEnv, counter: _Counter) -> Value:
    counter.cost += 1  # this rule instance
    if counter.cost > counter.budget:
        raise BudgetExceededError(counter.budget)
    t = type(e)
    if t is IntLit:
        return e.value
    if t is Cons:
        return (_eval(e.head, env, counter),) + _eval(e.tail, env, counter)
    if t is Var:
        return env[e.name]
    if t is Nil:
        return ()
    if t is Lam:
        return VClosure(e.param, e.body, env)
    if t is BoolLit:
        return e.value
    if t is BinOp:
        a = _eval(e.lhs, env, counter)
        b = _eval(e.rhs, env, counter)
        counter.cost += 1  # operator side condition
        if counter.cost > counter.budget:
            raise BudgetExceededError(counter.budget)
        return _checked(e.op, a, b)
    if t is App:
        f = _eval(e.fn, env, counter)
        a = _eval(e.arg, env, counter)
        return _eval(f.body, {**f.env, f.param: a}, counter)
    if t is Fold:
        items = _eval(e.scrutinee, env, counter)
        # Unrolling the recursion: each level below the first re-reads the
        # remaining tail through a fresh variable, so it costs one rule
        # instance plus one lookup.  Iterating (rather than recursing via
        # that fresh variable, as the derivation oracle does) keeps long
        # lists off the Python stack; the cost and the evaluation order
        # (k unrolling instances, then the nil branch, then the steps from
        # the last element back to the first) are identical.
        counter.cost += 2 * len(items)
        if counter.cost > counter.budget:
            raise BudgetExceededError(counter.budget)
        v = _eval(e.nil_branch, env, counter)
        head, tail, acc, step = e.head, e.tail, e.acc, e.step
        for j in reversed(range(len(items))):
            v = _eval(step, {**env, head: items[j], tail: items[j + 1:], acc: v}, counter)
        return v
    if t is Case:
        items = _eval(e.scrutinee, env, counter)
        if not items:
            return _eval(e.nil_branch, env, counter)
        return _eval(e.cons_branch, {**env, e.head: items[0], e.tail: items[1:]}, counter)
    # If
    test = _eval(e.test, env, counter)
    return _eval(e.then if test else e.orelse, env, counter)
