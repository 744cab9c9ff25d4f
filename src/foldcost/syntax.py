"""Abstract syntax for the target language.

The target language is a simply typed call-by-value language with integers,
booleans, integer lists, and functions.  Lists are consumed by `case` (one
step of pattern matching) and `fold` (structural recursion); there is no
general recursion, so every well-typed program terminates.

Invariants:
  - Expression and type nodes of both languages are made by `node`:
    immutable and slotted, so no node keeps a per-instance dict (an
    expression's `vars()` is built from its fields by `fields_dict`), and
    import compiles none of their methods, each compiled at its first call.
    Sharing is safe, and generated programs rely on it: the harness's
    generator hands out one shared node for `nil`, `true`, `false`, each
    small integer literal and each of its first 64 variables, and interned
    binder names.
  - Comparisons and arithmetic are one node, `BinOp`, whose operator every
    walker looks up in one table, `OPS`; an operator not in it is ill-typed.
  - Binder nodes (`Lam`, `Case`, `Fold`, and the complexity language's
    `CLet`, `CLam`, `PCase`, `PFold`, `CCase`, `CFold`) declare the names
    they bind and the one field those scope over (see `Expr`).  The tests'
    `oracles.names`, `oracles.free_vars` and `oracles.subst` read that and
    serve both languages.  The library walks no term for its names or its
    free variables: `translate` collects names in its own walk, and the
    parser checks that a `def` body is closed while reading it.
  - `to_source`, `typecheck`, `translate`, `ctypecheck` and the evaluator's
    `_eval` dispatch on the exact node type, most frequent first, not on
    `match` patterns, which test isinstance case by case; so node classes
    are never subclassed.
  - `to_source` prints minimal parentheses and round-trips through the parser:
    parse(to_source(e)) == e for every well-formed expression e.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, fields
from reprlib import recursive_repr
from typing import Callable, Mapping, NamedTuple

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


# ---------------------------------------------------------------- nodes

def node(cls: type) -> type:
    """Make cls a frozen, slotted dataclass, as every node and type class of
    both languages is, whose methods are compiled at first use (`_lazy`).

    `__eq__`, `__hash__` and `__repr__` are the ones `dataclass(frozen=True)`
    generates.  `__init__` stores each field through its slot descriptor, in
    two thirds of the time of `object.__setattr__`, and takes keywords too.
    Assignment and deletion raise FrozenInstanceError, so pickle and copy
    rebuild a node from its fields (`_reduce`).  A class with no docstring
    gets its field names as one, sparing `dataclass` an `inspect.signature`.
    """
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__annotations__)})"
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = _STUBS
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _frozen_setattr, _frozen_delattr, _reduce
    return cls


def _lazy(name: str) -> Callable:
    """A stub for method `name` that compiles and installs the class's own
    at its first call, then runs it.  Compiling all 144 at import would add
    about 7 ms, a third, to `import foldcost` (Python 3.11)."""
    def stub(self: object, *args: object, **kwargs: object) -> object:
        cls = type(self)
        names = [f.name for f in fields(cls)]
        own = f"({''.join(f'self.{n},' for n in names)})"
        scope = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
        exec(_TEXT[name].format(
            params="".join(f", {n}" for n in names), own=own, other=own.replace("self.", "other."),
            stores="".join(f" _set_{n}(self, {n});" for n in names) or " pass",
            shown=", ".join(f"{n}={{self.{n}!r}}" for n in names)), scope)
        setattr(cls, name, recursive_repr()(scope[name]) if name == "__repr__" else scope[name])
        return getattr(cls, name)(self, *args, **kwargs)
    return stub


# Each method's text: as `dataclass(frozen=True)` writes it, except `__init__` (see `node`).
_TEXT = {
    "__init__": "def __init__(self{params}):{stores}",
    "__eq__": ("def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
               "  return {own}=={other}\n return NotImplemented"),
    "__hash__": "def __hash__(self): return hash({own})",
    "__repr__": 'def __repr__(self): return self.__class__.__qualname__ + f"({shown})"',
}
_STUBS = tuple(map(_lazy, _TEXT))


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self: object) -> tuple[type, tuple]:
    return type(self), tuple(getattr(self, name) for name in self.__slots__)


@property
def fields_dict(self) -> dict[str, object]:
    """A slotted node's fields by name, so that `vars(node)` still works."""
    return {name: getattr(self, name) for name in self.__slots__}


# ---------------------------------------------------------------- types

class Ty:
    """Base class for target-language types."""

    __slots__ = ()


@node
class IntTy(Ty):
    def __str__(self) -> str:
        return "int"


@node
class BoolTy(Ty):
    def __str__(self) -> str:
        return "bool"


@node
class ListTy(Ty):
    """Lists of integers; the only compound data type."""

    def __str__(self) -> str:
        return "int*"


@node
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
    """Base class for target-language expressions.

    A binder node's class attributes, not fields, name the fields holding
    the names it binds (`binds`) and the one subterm field they scope over
    (`scope`); `var_class`, set below, is the variable node.
    """

    __slots__ = ()
    binds: tuple[str, ...] = ()
    scope: str | None = None

    __dict__ = fields_dict


@node
class Var(Expr):
    name: str


Expr.var_class = Var


@node
class IntLit(Expr):
    value: int


@node
class BoolLit(Expr):
    value: bool


@node
class Nil(Expr):
    pass


@node
class Cons(Expr):
    head: Expr
    tail: Expr


@node
class BinOp(Expr):
    """A binary operator on two integers: a comparison or arithmetic."""

    op: str  # a key of OPS
    lhs: Expr
    rhs: Expr


@node
class If(Expr):
    test: Expr
    then: Expr
    orelse: Expr


@node
class Lam(Expr):
    param: str
    param_ty: Ty  # annotation is mandatory; typechecking never infers it
    body: Expr
    binds, scope = ("param",), "body"


@node
class App(Expr):
    fn: Expr
    arg: Expr


@node
class Case(Expr):
    """One-step list match: case r of (s, [x, xs] t)."""

    scrutinee: Expr
    nil_branch: Expr
    head: str
    tail: str
    cons_branch: Expr
    binds, scope = ("head", "tail"), "cons_branch"


@node
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
    binds, scope = ("head", "tail", "acc"), "step"


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


# ---------------------------------------------------------------- binding structure

def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A name not in `avoid`, derived from `base` by priming."""
    name = base
    while name in avoid:
        name += "'"
    return name


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
