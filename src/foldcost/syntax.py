"""Abstract syntax for the target language.

The target language is a simply typed call-by-value language with integers,
booleans, integer lists, and functions.  Lists are consumed by `case` (one
step of pattern matching) and `fold` (structural recursion); there is no
general recursion, so every well-typed program terminates.

Invariants:
  - Expression and type nodes are immutable and slotted: no node keeps a
    per-instance dict (an expression's `vars()` is built from its fields).
    Sharing is safe, and generated programs rely on it: the harness's
    generator hands out one shared node for `nil`, `true`, `false`, each
    small integer literal and each of its first 64 variables, and interned
    binder names.
  - Comparisons and arithmetic are one node, `BinOp`, whose operator every
    walker looks up in one table, `OPS`; an operator not in it is ill-typed.
  - `subst` is capture-avoiding and renames binders only when necessary.
  - `free_vars`, `to_source`, `typecheck`, `translate` and the evaluator's
    `_eval` dispatch on the exact node type, most frequent first, not on
    `match` patterns, which test isinstance case by case; so node classes
    are never subclassed.
  - `to_source` prints minimal parentheses and round-trips through the parser:
    parse(to_source(e)) == e for every well-formed expression e.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


# ---------------------------------------------------------------- types

class Ty:
    """Base class for target-language types."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntTy(Ty):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True, slots=True)
class BoolTy(Ty):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True, slots=True)
class ListTy(Ty):
    """Lists of integers; the only compound data type."""

    def __str__(self) -> str:
        return "int*"


@dataclass(frozen=True, slots=True)
class ArrowTy(Ty):
    dom: Ty
    cod: Ty

    def __str__(self) -> str:
        # -> is right-associative, so only the domain ever needs parentheses.
        dom = f"({self.dom})" if isinstance(self.dom, ArrowTy) else str(self.dom)
        return f"{dom} -> {self.cod}"


INT = IntTy()
BOOL = BoolTy()
INT_LIST = ListTy()


# ---------------------------------------------------------------- expressions

class Expr:
    """Base class for target-language expressions."""

    __slots__ = ()

    @property
    def __dict__(self) -> dict[str, object]:
        """The node's fields by name, so that `vars(node)` still works."""
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True, slots=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True, slots=True)
class Nil(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Cons(Expr):
    head: Expr
    tail: Expr


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    """A binary operator on two integers: a comparison or arithmetic."""

    op: str  # a key of OPS
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class If(Expr):
    test: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True, slots=True)
class Lam(Expr):
    param: str
    param_ty: Ty  # annotation is mandatory; typechecking never infers it
    body: Expr


@dataclass(frozen=True, slots=True)
class App(Expr):
    fn: Expr
    arg: Expr


@dataclass(frozen=True, slots=True)
class Case(Expr):
    """One-step list match: case r of (s, [x, xs] t)."""

    scrutinee: Expr
    nil_branch: Expr
    head: str
    tail: str
    cons_branch: Expr


@dataclass(frozen=True, slots=True)
class Fold(Expr):
    """Structural list recursion: fold r of (s, [x, xs, w] t).

    In the step t, x is the head, xs the tail, and w the result of folding
    the tail.  This is the only recursion construct in the language.
    """

    scrutinee: Expr
    nil_branch: Expr
    head: str
    tail: str
    acc: str
    step: Expr


class Op(NamedTuple):
    fn: Callable[[int, int], int | bool]
    result: Ty  # BOOL for a comparison, INT for arithmetic
    prec: int  # binding power, shared by the parser and the printer


OPS: Mapping[str, Op] = {
    "<": Op(operator.lt, BOOL, 1),
    "<=": Op(operator.le, BOOL, 1),
    "=": Op(operator.eq, BOOL, 1),
    "+": Op(operator.add, INT, 3),
    "-": Op(operator.sub, INT, 3),
    "*": Op(operator.mul, INT, 4),
}


# ---------------------------------------------------------------- free variables

def free_vars(e: Expr) -> frozenset[str]:
    t = type(e)
    if t is IntLit or t is Nil or t is BoolLit:
        return frozenset()
    if t is Cons:
        return free_vars(e.head) | free_vars(e.tail)
    if t is Var:
        return frozenset((e.name,))
    if t is BinOp:
        return free_vars(e.lhs) | free_vars(e.rhs)
    if t is Lam:
        return free_vars(e.body) - {e.param}
    if t is If:
        return free_vars(e.test) | free_vars(e.then) | free_vars(e.orelse)
    if t is Fold:
        branch = free_vars(e.step) - {e.head, e.tail, e.acc}
        return free_vars(e.scrutinee) | free_vars(e.nil_branch) | branch
    if t is App:
        return free_vars(e.fn) | free_vars(e.arg)
    if t is Case:
        branch = free_vars(e.cons_branch) - {e.head, e.tail}
        return free_vars(e.scrutinee) | free_vars(e.nil_branch) | branch
    raise TypeError(f"not an expression: {e!r}")


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A name not in `avoid`, derived from `base` by priming."""
    name = base
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------- substitution

def rename_apart(binders: list[str], danger: frozenset[str], taken: Iterable[str]) -> list[str]:
    """New names for binders: each one in `danger` gets a fresh name, apart
    from `danger`, `taken`, the binders and the names already given.

    Binders shadow left to right, so a later binder wins when two share a
    name.  Substituting under renamed binders cannot capture as long as
    `taken` holds the body's free variables and the substitution's keys.
    """
    taken = {*danger, *taken, *binders}
    out: list[str] = []
    for b in binders:
        if b in danger:
            b = fresh_name(b, taken)
            taken.add(b)
        out.append(b)
    return out


def subst(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution of bindings into e."""
    if not bindings:
        return e

    # Names that must not capture anything we substitute in.
    danger = frozenset().union(*(free_vars(v) for v in bindings.values()))

    def go_under(binders: list[str], body: Expr) -> tuple[list[str], Expr]:
        new_binders = rename_apart(binders, danger, free_vars(body) | bindings.keys())
        renaming = {b: Var(nb) for b, nb in zip(binders, new_binders) if b != nb}
        if renaming:
            body = subst(body, renaming)
        inner = {k: v for k, v in bindings.items() if k not in binders}
        return new_binders, subst(body, inner)

    match e:
        case Var(name):
            return bindings.get(name, e)
        case IntLit() | BoolLit() | Nil():
            return e
        case Cons(head, tail):
            return Cons(subst(head, bindings), subst(tail, bindings))
        case BinOp(op, lhs, rhs):
            return BinOp(op, subst(lhs, bindings), subst(rhs, bindings))
        case If(test, then, orelse):
            return If(subst(test, bindings), subst(then, bindings), subst(orelse, bindings))
        case Lam(param, param_ty, body):
            (new_param,), new_body = go_under([param], body)
            return Lam(new_param, param_ty, new_body)
        case App(fn, arg):
            return App(subst(fn, bindings), subst(arg, bindings))
        case Case(scrutinee, nil_branch, head, tail, cons_branch):
            (nh, nt), nb = go_under([head, tail], cons_branch)
            return Case(subst(scrutinee, bindings), subst(nil_branch, bindings), nh, nt, nb)
        case Fold(scrutinee, nil_branch, head, tail, acc, step):
            (nh, nt, na), ns = go_under([head, tail, acc], step)
            return Fold(subst(scrutinee, bindings), subst(nil_branch, bindings), nh, nt, na, ns)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------- printing

# Precedence levels, loosest to tightest.  Binders and branching forms extend
# as far right as possible, so they only parenthesize when used as operands.
_PREC_OPEN = 0  # \ if case fold
_PREC_CONS = 2  # between OPS's comparisons (1) and arithmetic (3 and 4)
_PREC_APP = 5


def to_source(e: Expr) -> str:
    """Concrete syntax for e, with minimal parentheses."""
    return _show(e, 0)


def _show(e: Expr, ctx: int) -> str:
    t = type(e)
    if t is IntLit:
        # Negative literals are atoms only inside parentheses.
        return str(e.value) if e.value >= 0 else _wrap(str(e.value), True)
    if t is Cons:
        s = f"{_show(e.head, _PREC_CONS + 1)} :: {_show(e.tail, _PREC_CONS)}"
        return _wrap(s, ctx > _PREC_CONS)
    if t is Var:
        return e.name
    if t is Nil:
        return "nil"
    if t is BinOp:
        op = OPS[e.op]
        # A comparison does not associate; arithmetic associates to the left.
        left = op.prec + 1 if op.result == BOOL else op.prec
        s = f"{_show(e.lhs, left)} {e.op} {_show(e.rhs, op.prec + 1)}"
        return _wrap(s, ctx > op.prec)
    if t is BoolLit:
        return "true" if e.value else "false"
    if t is Lam:
        s = f"\\{e.param}:{e.param_ty}. {_show(e.body, 0)}"
        return _wrap(s, ctx > _PREC_OPEN)
    if t is If:
        s = f"if {_show(e.test, 0)} then {_show(e.then, 0)} else {_show(e.orelse, 0)}"
        return _wrap(s, ctx > _PREC_OPEN)
    if t is Fold:
        s = (f"fold {_show(e.scrutinee, 0)} of ({_show(e.nil_branch, 0)}, "
             f"[{e.head}, {e.tail}, {e.acc}] {_show(e.step, 0)})")
        return _wrap(s, ctx > _PREC_OPEN)
    if t is App:
        s = f"{_show(e.fn, _PREC_APP)} {_show(e.arg, _PREC_APP + 1)}"
        return _wrap(s, ctx > _PREC_APP)
    if t is Case:
        s = (f"case {_show(e.scrutinee, 0)} of ({_show(e.nil_branch, 0)}, "
             f"[{e.head}, {e.tail}] {_show(e.cons_branch, 0)})")
        return _wrap(s, ctx > _PREC_OPEN)
    raise TypeError(f"not an expression: {e!r}")


def _wrap(s: str, needed: bool) -> str:
    return f"({s})" if needed else s
