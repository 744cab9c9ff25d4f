"""The complexity language: recurrences over costs and potentials.

Programs in the target language are translated (see translate.py) into this
first-order-data language of naturals, cost/potential pairs, and potential
functions.  A pair (c, p) reads as "costs at most c to produce a value of
potential at most p"; potentials of functions map argument potentials to
pairs for the result.

Expressions: variables; numerals; + and max; pairs with projections `_c` and
`_p`; the paper's `c +_c E`, the pair E with c more cost units; `let x = E
in E'`; costed lambdas and applications; `pcase`, a one-step match on a
natural; and `pfold`, primitive recursion on a natural.  These core nodes
are the paper's complexity language.  A translation is written in five
derived forms instead, one node per target construct where the core nodes
would take four to eight, each printed, typed and denoted as its
expansion: the pair of a cons, `CCons` (1 + (r_c + s_c), 1 + s_p); of an
operator, `COp` (2 + (r_c + s_c), 1); of an `if`, `CIf` (1 + test_c) +_c
max(then, orelse); and of a `case` or `fold`, `CCase` and `CFold`, (1 +
s_c) +_c pcase s_p of ... and the same with pfold, over the scrutinee s
computed once.  `CCase` and `CFold` run the pcase and pfold loops and
branch checks that `PCase` and `PFold` run.  Branch results of pcase/pfold
are combined with max rather than chosen, so the denotation is an upper
bound regardless of which branch a run of the original program takes.
`sem_apply` is the one application rule, charging one unit plus both sides'
costs plus the body's; the denotation and `tabulate` both apply by it.

A semantic value is an int, an `SPair`, or a potential function, which is a
plain callable.  Denotations use checked nonnegative 64-bit arithmetic: costs
and potentials that overflow raise NatOverflowError rather than wrapping.
`denote` is pure, so it reuses values without changing them: every lambda's
potential function, like every `max` of two, remembers its result at every
argument (a natural by value, a function by identity), and a closed lambda,
the root included, is built once per denotation.

Nodes and types are made by `syntax.node`, as the target language's are:
frozen, slotted (a translation has a few hundred nodes) and built by an
`__init__` that stores through the slot descriptors.  They compare
structurally, so a shared one equals a fresh one: `ctypecheck` and
`translate_ty` give every pair of potential N the one `NAT_PAIR`, and
`ctypecheck` tests identity before equality.  The constant leaves every
translation shares are defined here (`NUM_0`, `NUM_1`, `LIT_PAIR` (1, 1),
`NIL_PAIR` (1, 0)); `ctypecheck` and `_stage` answer the pairs by identity.

`denote` interprets well-typed expressions only, as the paper's semantics
does: e must be accepted by `ctypecheck` under the types of the
environment's values, with every natural in 0..NAT_MAX.  A translation of a
program that `typecheck` accepts is one, and `check_program` and `tabulate`
confirm it with `ctypecheck` first.  So the denotation checks no shapes and
raises only NatOverflowError and `interp.BudgetExceededError`.  It stages
each node into a closure.  A pair `(k, e)` with a numeral cost makes no
closure for its cost, and `LIT_PAIR` and `NIL_PAIR` stage to one shared
closure each.  Subterms are evaluated in a fixed order, a derived node's in
its expansion's: a cons's tail before its head, an `if`'s branches before
its test, a `Charge`'s pair before its extra cost.  That order decides
whether a budget stop or an overflow is reported first.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Union

from .interp import DEFAULT_BUDGET, BudgetExceededError
from .syntax import _wrap, fields_dict, node

NAT_MAX = 2**63 - 1


class CplxTypeError(Exception):
    pass


class NatOverflowError(Exception):
    pass


_OVERFLOW = "cost/potential arithmetic overflowed 64 bits"


# ---------------------------------------------------------------- types

class CTy:
    """Base class for complexity-language types."""

    __slots__ = ()


@node
class NatTy(CTy):
    """Naturals: costs, and the potentials of ints, booleans, and lists."""

    def __str__(self) -> str:
        return "N"


@node
class ArrowPotTy(CTy):
    """Potential of a function: argument potential to result pair."""

    dom: CTy
    cod: CTy

    def __str__(self) -> str:
        dom = str(self.dom)
        if isinstance(self.dom, (ArrowPotTy, ProdTy)):
            dom = f"({dom})"
        return f"{dom} -> {self.cod}"


@node
class ProdTy(CTy):
    """A cost paired with a potential; the cost side is always N."""

    pot: CTy

    def __str__(self) -> str:
        pot = str(self.pot)
        if isinstance(self.pot, ArrowPotTy):
            pot = f"({pot})"
        return f"N x {pot}"


NAT = NatTy()
NAT_PAIR = ProdTy(NAT)


def is_potential(ty: CTy) -> bool:
    """N, or an arrow from a potential to `N x` a potential."""
    if type(ty) is ArrowPotTy:
        return is_potential(ty.dom) and type(ty.cod) is ProdTy and is_potential(ty.cod.pot)
    return type(ty) is NatTy


# ---------------------------------------------------------------- expressions

class CplxExpr:
    """Base class for complexity-language expressions.

    Binder nodes declare what they bind as `syntax.Expr`'s do, so the
    tests' `oracles.names`, `oracles.free_vars` and capture-avoiding
    `oracles.subst` serve it too.
    """

    __slots__ = ()
    __dict__ = fields_dict
    binds: tuple[str, ...] = ()
    scope: str | None = None


@node
class CVar(CplxExpr):
    name: str


CplxExpr.var_class = CVar


@node
class CNum(CplxExpr):
    value: int


@node
class CPlus(CplxExpr):
    lhs: CplxExpr
    rhs: CplxExpr


@node
class CMax(CplxExpr):
    lhs: CplxExpr
    rhs: CplxExpr


@node
class CPair(CplxExpr):
    cost: CplxExpr
    pot: CplxExpr


@node
class CostOf(CplxExpr):
    pair: CplxExpr


@node
class PotOf(CplxExpr):
    pair: CplxExpr


@node
class Charge(CplxExpr):
    """The paper's `extra +_c pair`: (extra + pair_c, pair_p)."""

    extra: CplxExpr
    pair: CplxExpr


@node
class CCons(CplxExpr):
    """The pair of a cons `head :: tail`: (1 + (head_c + tail_c), 1 + tail_p).

    It denotes as `let t = tail in (1 + (head_c + t_c), 1 + t_p)`: the tail
    is computed once, and first."""

    head: CplxExpr
    tail: CplxExpr


@node
class COp(CplxExpr):
    """The pair of a binary operator: (2 + (lhs_c + rhs_c), 1)."""

    lhs: CplxExpr
    rhs: CplxExpr


@node
class CIf(CplxExpr):
    """The pair of `if`: `(1 + test_c) +_c max(then, orelse)`.  It denotes as
    that expansion does, the branches first."""

    test: CplxExpr
    then: CplxExpr
    orelse: CplxExpr


@node
class CLet(CplxExpr):
    """`let name = bound in body`: bound is computed once and named."""

    name: str
    bound: CplxExpr
    body: CplxExpr
    binds, scope = ("name",), "body"


@node
class CLam(CplxExpr):
    """Costed lambda: a pair of cost 1 and a potential function."""

    param: str
    param_ty: CTy  # the argument's potential type
    body: CplxExpr
    binds, scope = ("param",), "body"


@node
class StarApp(CplxExpr):
    """Costed application: one unit plus both sides' costs plus the body."""

    fn: CplxExpr
    arg: CplxExpr


@node
class PCase(CplxExpr):
    """One-step match on a natural: at q+1 the branches are max-ed, with the
    head potential fixed at 1 and ps bound to q."""

    scrut: CplxExpr
    zero: CplxExpr
    p: str
    ps: str
    succ: CplxExpr
    binds, scope = ("p", "ps"), "succ"


@node
class PFold(CplxExpr):
    """Primitive recursion on a natural.

    At q+1 the recursive pair w is computed at q, its cost is charged along
    with two units for the unrolling, and the potential is the max of the
    zero branch and the step's potential.
    """

    scrut: CplxExpr
    zero: CplxExpr
    p: str
    ps: str
    w: str
    succ: CplxExpr
    binds, scope = ("p", "ps", "w"), "succ"


@node
class CCase(CplxExpr):
    """The pair of `case`: `let $s = scrut in (1 + $s_c) +_c pcase $s_p of
    (zero, [p, ps] succ)`, with no `$s` bound in the branches."""

    scrut: CplxExpr
    zero: CplxExpr
    p: str
    ps: str
    succ: CplxExpr
    binds, scope = ("p", "ps"), "succ"


@node
class CFold(CplxExpr):
    """The pair of `fold`: as `CCase`, with `pfold $s_p of (zero, [p, ps, w]
    succ)`."""

    scrut: CplxExpr
    zero: CplxExpr
    p: str
    ps: str
    w: str
    succ: CplxExpr
    binds, scope = ("p", "ps", "w"), "succ"


# The shared constant leaves (see the module docstring).
NUM_0, NUM_1 = CNum(0), CNum(1)
LIT_PAIR, NIL_PAIR = CPair(NUM_1, NUM_1), CPair(NUM_1, NUM_0)


# ---------------------------------------------------------------- typechecking

def ctypecheck(ctx: Mapping[str, CTy], e: CplxExpr) -> CTy:
    """Return the type of e under ctx, or raise CplxTypeError."""
    t = type(e)
    if t is CPair:
        if e is LIT_PAIR or e is NIL_PAIR:
            return NAT_PAIR
        if e.cost is not NUM_1:
            _expect(ctypecheck(ctx, e.cost), NAT, "cost component")
        pt = ctypecheck(ctx, e.pot)
        if not is_potential(pt):
            raise CplxTypeError(f"pair potential has non-potential type {pt}")
        return NAT_PAIR if pt is NAT else ProdTy(pt)
    if t is CVar:
        ty = ctx.get(e.name)
        if ty is None:
            raise CplxTypeError(f"unbound variable: {e.name}")
        return ty
    if t is CCons:  # as its expansion, the tail first (see CCons)
        tail = ctypecheck(ctx, e.tail)
        _pair_ty(ctypecheck(ctx, e.head))
        _expect(_pair_ty(tail).pot, NAT, "right operand of +")
        return NAT_PAIR
    if t is COp:
        _pair_ty(ctypecheck(ctx, e.lhs))
        _pair_ty(ctypecheck(ctx, e.rhs))
        return NAT_PAIR
    if t is CLam:
        if not is_potential(e.param_ty):
            raise CplxTypeError(f"lambda parameter has non-potential type {e.param_ty}")
        body_ty = _pair_ty(ctypecheck({**ctx, e.param: ProdTy(e.param_ty)}, e.body))
        return ProdTy(ArrowPotTy(e.param_ty, body_ty))
    if t is CIf:  # as its expansion: the test first
        _pair_ty(ctypecheck(ctx, e.test))
        return _pair_ty(_join_ty(ctypecheck(ctx, e.then), ctypecheck(ctx, e.orelse)))
    if t is StarApp:
        fn_ty = _pair_ty(ctypecheck(ctx, e.fn))
        if not isinstance(fn_ty.pot, ArrowPotTy):
            raise CplxTypeError(f"applied a non-function of type {fn_ty}")
        arg_ty = _pair_ty(ctypecheck(ctx, e.arg))
        if arg_ty.pot != fn_ty.pot.dom:
            raise CplxTypeError(
                f"argument potential {arg_ty.pot} does not match parameter {fn_ty.pot.dom}")
        return fn_ty.pot.cod
    if t is CCase or t is CFold:  # as its expansion (see CCase)
        return _pair_ty(_branches_ty(ctx, e, _pair_ty(ctypecheck(ctx, e.scrut)).pot))
    if t is CNum:
        if type(e.value) is not int or not 0 <= e.value <= NAT_MAX:
            raise CplxTypeError(f"numeral out of natural range: {e.value!r}")
        return NAT
    if t is Charge:
        _expect(ctypecheck(ctx, e.extra), NAT, "charged cost")
        return _pair_ty(ctypecheck(ctx, e.pair))
    if t is CPlus:
        _expect(ctypecheck(ctx, e.lhs), NAT, "left operand of +")
        _expect(ctypecheck(ctx, e.rhs), NAT, "right operand of +")
        return NAT
    if t is CostOf or t is PotOf:
        ty = _pair_ty(ctypecheck(ctx, e.pair))
        return NAT if t is CostOf else ty.pot
    if t is CLet:
        return ctypecheck({**ctx, e.name: ctypecheck(ctx, e.bound)}, e.body)
    if t is CMax:
        return _join_ty(ctypecheck(ctx, e.lhs), ctypecheck(ctx, e.rhs))
    if t is PCase or t is PFold:
        return _branches_ty(ctx, e, ctypecheck(ctx, e.scrut))
    raise CplxTypeError(f"not a complexity expression: {e!r}")


def _join_ty(lt: CTy, rt: CTy) -> CTy:
    """The type of `max` of the two types: both, if they agree."""
    if lt is not rt and lt != rt:
        raise CplxTypeError(f"max of mismatched types: {lt} and {rt}")
    return lt


def _branches_ty(ctx: Mapping[str, CTy], e: CplxExpr, scrut: CTy) -> CTy:
    """The type of pcase or pfold e, or of the pcase or pfold in `CCase` or
    `CFold` e, whose scrutinee has type scrut."""
    fold = type(e) is PFold or type(e) is CFold
    _expect(scrut, NAT, "pfold scrutinee" if fold else "pcase scrutinee")
    zero_ty = ctypecheck(ctx, e.zero)
    inner = {**ctx, e.p: NAT, e.ps: NAT}
    if fold:
        if not isinstance(zero_ty, ProdTy):
            raise CplxTypeError(f"pfold branches must be pairs, got {zero_ty}")
        inner[e.w] = zero_ty
    succ_ty = ctypecheck(inner, e.succ)
    if succ_ty is not zero_ty and succ_ty != zero_ty:
        raise CplxTypeError(f"{'pfold' if fold else 'pcase'} branches disagree: "
                            f"{zero_ty} and {succ_ty}")
    return zero_ty


def _expect(actual: CTy, expected: CTy, what: str) -> None:
    if actual is not expected and actual != expected:
        raise CplxTypeError(f"{what}: expected {expected}, got {actual}")


def _pair_ty(ty: CTy) -> ProdTy:
    if type(ty) is not ProdTy:
        raise CplxTypeError(f"expected a cost/potential pair, got {ty}")
    return ty


# ---------------------------------------------------------------- semantic values

class SPair(NamedTuple):
    cost: int
    pot: "SemVal"


SemVal = Union[int, SPair, Callable[["SemVal"], "SemVal"]]
# `_new_pair(SPair, (cost, pot))` is `SPair(cost, pot)` without the Python
# frame of NamedTuple's `__new__`; the staged hot paths build pairs by it.
_new_pair = tuple.__new__


def sem_max(a: SemVal, b: SemVal) -> SemVal:
    """Least upper bound of two semantic values of the same type.

    Pointwise on pairs; on functions it is computed lazily, by taking the max
    of the two results at every argument.  A function join remembers its
    result at each argument for as long as it lives (see `_memoised`), so a
    chain of joins, such as a pfold whose accumulator is a function, applies
    each earlier join once per argument instead of twice.  That is sound
    because denotation is pure: the same argument always gives the same
    result.  Each join applies both sides to the same argument object, so
    this holds at a function argument, keyed by identity, as at a natural.
    """
    t = type(a)
    if t is int:
        return b if b > a else a
    if t is SPair:
        return _new_pair(SPair, (b[0] if b[0] > a[0] else a[0], sem_max(a[1], b[1])))
    return _memoised(lambda q: sem_max(a(q), b(q)))


def sem_apply(f: SPair, a: SPair) -> SPair:
    """The costed application `f * a`: one unit plus both sides' costs plus
    the body's, paired with the body's potential."""
    out = f[1](a[1])
    n = 1 + f[0] + a[0] + out[0]
    if n > NAT_MAX:
        raise NatOverflowError(_OVERFLOW)
    return _new_pair(SPair, (n, out[1]))


# ---------------------------------------------------------------- denotation

# A staged node: a closure from an environment to the node's value.
Staged = Callable[[dict[str, SemVal]], SemVal]


def denote(e: CplxExpr, env: Mapping[str, SemVal] | None = None) -> SemVal:
    """Evaluate a well-typed complexity expression to its semantic value.

    e must be accepted by `ctypecheck` under the types of env's values, with
    every natural in e and env in 0..NAT_MAX; nothing else is checked (see
    the module docstring).  It raises only NatOverflowError and
    `BudgetExceededError`; a derived node evaluates its subterms in the
    order of its expansion, so the two raise the same one first.

    The expression is first staged into closures, so that pfold steps and
    potential-function bodies, which run many times, do not dispatch on node
    types again.  Every lambda denotes (1, f), where f remembers its result
    at every argument, natural or function, for as long as the value lives.
    A closed lambda, such as an inlined `def` or a closed root, is built
    once, while staging, so its memo lasts the whole denotation, such as
    one `tabulate` or `check_program` call.  Joins of potential functions
    remember their results too (see `sem_max`), so a pfold of potential
    functions is linear, not exponential, in its length.  That reuse
    changes no value, because denotation is pure.

    A pfold whose scrutinee is above `interp.DEFAULT_BUDGET` (10,000,000)
    raises `BudgetExceededError` before its first step, as an evaluation
    over its budget does; the test is one comparison per pfold, not per step.
    """
    return _stage(e, set())(dict(env or {}))


def _stage(e: CplxExpr, fv: set[str]) -> Staged:
    """Stage e into a closure, adding e's free variables to fv."""
    fn: Staged
    t = type(e)
    if t is CPair and type(e.cost) is CNum:  # a value's, as (1, p): no cost closure
        if e is LIT_PAIR or e is NIL_PAIR:
            return _staged_lit if e is LIT_PAIR else _staged_nil

        def fn(env, cost=e.cost.value, pf=_stage(e.pot, fv)) -> SemVal:
            return _new_pair(SPair, (cost, pf(env)))
    elif t is CPair:
        def fn(env, cf=_stage(e.cost, fv), pf=_stage(e.pot, fv)) -> SemVal:
            return _new_pair(SPair, (cf(env), pf(env)))
    elif t is CCons:
        # `let t = tail in (1 + (head_c + t_c), 1 + t_p)`: the tail first.
        def fn(env, hf=_stage(e.head, fv), tf=_stage(e.tail, fv)) -> SemVal:
            tail = tf(env)
            n = 1 + hf(env)[0] + tail[0]
            p = 1 + tail[1]
            if n > NAT_MAX or p > NAT_MAX:
                raise NatOverflowError(_OVERFLOW)
            return _new_pair(SPair, (n, p))
    elif t is CVar:
        fv.add(e.name)
        fn = itemgetter(e.name)
    elif t is COp:
        def fn(env, lf=_stage(e.lhs, fv), rf=_stage(e.rhs, fv)) -> SemVal:
            n = 2 + lf(env)[0] + rf(env)[0]
            if n > NAT_MAX:
                raise NatOverflowError(_OVERFLOW)
            return _new_pair(SPair, (n, 1))
    elif t is CLam:
        # The parameter is bound to a pair of cost 1 (it is a value) and the
        # argument's potential.
        bf, own = _stage_under(e.body, fv, {e.param})

        def fn(env, param=e.param, bf=bf) -> SemVal:
            return _new_pair(SPair, (1, _memoised(
                lambda q: bf({**env, param: _new_pair(SPair, (1, q))}))))

        if not own:  # closed: one value, and so one memo, for the whole denotation
            def fn(env, value=fn({})) -> SemVal:
                return value
    elif t is CIf:
        # `(1 + test_c) +_c max(then, orelse)`: the branches first.
        def fn(env, tf=_stage(e.test, fv), af=_stage(e.then, fv),
               bf=_stage(e.orelse, fv)) -> SemVal:
            pair = sem_max(af(env), bf(env))
            return _charged(tf(env)[0], pair)
    elif t is StarApp:
        def fn(env, ff=_stage(e.fn, fv), af=_stage(e.arg, fv)) -> SemVal:
            return sem_apply(ff(env), af(env))
    elif t is CCase or t is CFold:
        # `let $s = scrut in (1 + $s_c) +_c pcase $s_p of ...`; the branches
        # run without `$s`.
        def fn(env, sf=_stage(e.scrut, fv), run=_stage_branches(e, fv)) -> SemVal:
            s = sf(env)
            return _charged(s[0], run(env, s[1]))
    elif t is CNum:
        def fn(env, value=e.value) -> SemVal:
            return value
    elif t is Charge:
        def fn(env, xf=_stage(e.extra, fv), pf=_stage(e.pair, fv)) -> SemVal:
            pair = pf(env)
            n = xf(env) + pair[0]
            if n > NAT_MAX:
                raise NatOverflowError(_OVERFLOW)
            return _new_pair(SPair, (n, pair[1]))
    elif t is CPlus:
        def fn(env, lf=_stage(e.lhs, fv), rf=_stage(e.rhs, fv)) -> SemVal:
            n = lf(env) + rf(env)
            if n > NAT_MAX:
                raise NatOverflowError(_OVERFLOW)
            return n
    elif t is CostOf or t is PotOf:
        def fn(env, pf=_stage(e.pair, fv), i=0 if t is CostOf else 1) -> SemVal:
            return pf(env)[i]
    elif t is CLet:
        def fn(env, bf=_stage(e.bound, fv), body=_stage_under(e.body, fv, {e.name})[0],
               name=e.name) -> SemVal:
            return body({**env, name: bf(env)})
    elif t is CMax:
        def fn(env, lf=_stage(e.lhs, fv), rf=_stage(e.rhs, fv)) -> SemVal:
            return sem_max(lf(env), rf(env))
    else:  # PCase or PFold
        def fn(env, sf=_stage(e.scrut, fv), run=_stage_branches(e, fv)) -> SemVal:
            return run(env, sf(env))
    return fn


def _stage_branches(e: CplxExpr, fv: set[str]) -> Callable[[dict[str, SemVal], int], SemVal]:
    """Stage pcase or pfold e, or the pcase or pfold in `CCase` or `CFold` e,
    into a closure from an environment and the scrutinee's value to e's."""
    if type(e) is PCase or type(e) is CCase:
        def run(env, n, zf=_stage(e.zero, fv), tf=_stage_under(e.succ, fv, {e.p, e.ps})[0],
                p=e.p, ps=e.ps) -> SemVal:
            if n == 0:
                return zf(env)
            zero = zf(env)
            return sem_max(zero, tf({**env, p: 1, ps: n - 1}))
        return run

    # Primitive recursion, bottom up to keep long recursions off the Python
    # stack: acc is the value at q, starting at 0.
    def run(env, n, zf=_stage(e.zero, fv), tf=_stage_under(e.succ, fv, {e.p, e.ps, e.w})[0],
            p=e.p, ps=e.ps, w=e.w) -> SemVal:
        if n > DEFAULT_BUDGET:
            raise BudgetExceededError(
                DEFAULT_BUDGET, f"pfold of {n} steps is over the budget of {DEFAULT_BUDGET}")
        acc = zf(env)
        zero_pot = acc[1]
        for q in range(n):
            step = tf({**env, p: 1, ps: q, w: _new_pair(SPair, (1, acc[1]))})
            cost = 2 + acc[0] + step[0]
            if cost > NAT_MAX:
                raise NatOverflowError(_OVERFLOW)
            acc = _new_pair(SPair, (cost, sem_max(zero_pot, step[1])))
        return acc
    return run


def _charged(c: int, pair: SPair) -> SPair:
    """`(1 + c) +_c pair`, for a test's or a scrutinee's cost c."""
    n = 1 + c + pair[0]
    if n > NAT_MAX:
        raise NatOverflowError(_OVERFLOW)
    return _new_pair(SPair, (n, pair[1]))


# `LIT_PAIR` and `NIL_PAIR`, staged once and shared by every denotation.
def _staged_lit(env: dict[str, SemVal], value: SemVal = SPair(1, 1)) -> SemVal:
    return value


def _staged_nil(env: dict[str, SemVal], value: SemVal = SPair(1, 0)) -> SemVal:
    return value


def _stage_under(body: CplxExpr, fv: set[str], bound: set[str]) -> tuple[Staged, set[str]]:
    """Stage a body under `bound`; return it and its other free variables, added to fv."""
    own: set[str] = set()
    fn = _stage(body, own)
    own -= bound
    fv |= own
    return fn, own


def _memoised(f: Callable[[SemVal], SemVal]) -> Callable[[SemVal], SemVal]:
    """f, remembering its result at every argument: a natural by value, a
    potential function by identity.  The memo holds each function argument,
    so its id cannot be reused while the memo lives."""
    memo: dict[SemVal, SemVal] = {}

    def fn(q: SemVal) -> SemVal:
        v = memo.get(q)
        if v is None:
            v = memo[q] = f(q)
        return v

    return fn


# ---------------------------------------------------------------- printing

_PREC_CO_OPEN = 0  # \* pcase pfold
_PREC_PLUS = 1
_PREC_STAR = 2
_PREC_PROJ = 3
MAX_PRINTED = 16 * 2**20  # bytes; each nested `+_c` or `let` can double a text


def cplx_to_source(e: CplxExpr) -> str:
    """Concrete rendering of a complexity expression, with `+_c` and `let`
    written out (a let variable as its bound, parenthesised as under `_c`);
    raises ValueError once a part of the text passes MAX_PRINTED bytes."""
    return _cshow(e, 0, {})


def _cshow(e: CplxExpr, ctx: int, lets: dict[str, str]) -> str:
    match e:
        case CVar(name):
            s = lets.get(name, name)
        case CNum(value):
            s = str(value)
        case CPlus(lhs, rhs):
            s = f"{_cshow(lhs, _PREC_PLUS, lets)} + {_cshow(rhs, _PREC_PLUS + 1, lets)}"
            s = _wrap(s, ctx > _PREC_PLUS)
        case CMax(lhs, rhs):
            s = f"max({_cshow(lhs, 0, lets)}, {_cshow(rhs, 0, lets)})"
        case CPair(cost, pot):
            s = f"({_cshow(cost, 0, lets)}, {_cshow(pot, 0, lets)})"
        case CCons(head, tail):
            t = _cshow(tail, _PREC_PROJ, lets)
            s = f"(1 + ({_cshow(head, _PREC_PROJ, lets)}_c + {t}_c), 1 + {t}_p)"
        case COp(lhs, rhs):
            s = (f"(2 + ({_cshow(lhs, _PREC_PROJ, lets)}_c + "
                 f"{_cshow(rhs, _PREC_PROJ, lets)}_c), 1)")
        case Charge(extra, pair):
            p = _cshow(pair, _PREC_PROJ, lets)
            s = f"({_cshow(extra, _PREC_PLUS, lets)} + {p}_c, {p}_p)"
        case CIf(test, then, orelse):
            p = f"max({_cshow(then, 0, lets)}, {_cshow(orelse, 0, lets)})"
            s = f"(1 + {_cshow(test, _PREC_PROJ, lets)}_c + {p}_c, {p}_p)"
        case CCase() | CFold():
            r = _cshow(e.scrut, _PREC_PROJ, lets)
            p = f"({_branches_src(e, f'{r}_p', lets)})"
            s = f"(1 + {r}_c + {p}_c, {p}_p)"
        case CLet(name, bound, body):
            s = _cshow(body, ctx, {**lets, name: _cshow(bound, _PREC_PROJ, lets)})
        case CostOf(pair):
            s = f"{_cshow(pair, _PREC_PROJ, lets)}_c"
        case PotOf(pair):
            s = f"{_cshow(pair, _PREC_PROJ, lets)}_p"
        case CLam(param, param_ty, body):
            s = f"\\*{param}:{param_ty}. {_cshow(body, 0, lets)}"
            s = _wrap(s, ctx > _PREC_CO_OPEN)
        case StarApp(fn, arg):
            s = f"{_cshow(fn, _PREC_STAR, lets)} * {_cshow(arg, _PREC_STAR + 1, lets)}"
            s = _wrap(s, ctx > _PREC_STAR)
        case PCase() | PFold():
            s = _wrap(_branches_src(e, _cshow(e.scrut, 0, lets), lets), ctx > _PREC_CO_OPEN)
        case _:
            raise TypeError(f"not a complexity expression: {e!r}")
    if len(s) > MAX_PRINTED:
        raise ValueError(f"recurrence too large to print (over {MAX_PRINTED} bytes)")
    return s


def _branches_src(e: CplxExpr, scrut: str, lets: dict[str, str]) -> str:
    """pcase or pfold e, or the pcase or pfold in `CCase` or `CFold` e, over
    the scrutinee text scrut."""
    if type(e) is PCase or type(e) is CCase:
        head, binders = "pcase", f"{e.p}, {e.ps}"
    else:
        head, binders = "pfold", f"{e.p}, {e.ps}, {e.w}"
    return f"{head} {scrut} of ({_cshow(e.zero, 0, lets)}, [{binders}] {_cshow(e.succ, 0, lets)})"

