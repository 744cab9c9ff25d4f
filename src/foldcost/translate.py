"""Translation of target programs into complexity-language recurrences.

Every target expression of type τ becomes a complexity expression of type
‖τ‖ = N x ⟨τ⟩, where ⟨int⟩ = ⟨bool⟩ = ⟨int*⟩ = N (ints and booleans have
potential 1, a list's potential bounds its length) and
⟨σ -> τ⟩ = ⟨σ⟩ -> ‖τ‖.  The cost component bounds the evaluation cost of the
expression; the potential component bounds the size of its value.

The translation is compositional and syntax-directed.  Conditionals and list
matches cannot know which branch will run, so both are translated and joined
with max; `fold` becomes `pfold`, primitive recursion on the scrutinee's
potential, which dominates the actual recursion on the list because the
potential bounds the length.  Extra cost charged onto a pair (for the rule
instances the original program will execute) is written with the paper's
`+_c`.  A cons `r :: s` is the one node `CCons` of (1 + r_c + s_c, 1 +
s_p), and an operator the one node `COp` of (2 + r_c + s_c, 1), each
reading its operands once.  A case/fold scrutinee, read by both
projections, is named by a `let`, so the recurrence grows linearly with the
program.  A scrutinee that is a variable, or the shared pair of a literal
or of nil, has constant size and is read in place, with no `let`: `case xs
of ...` and `case nil of ...` bind nothing.

A cons branch is translated with its head and tail bound, in an
environment, to the pairs (1, p) and (1, ps) over the potential variables
the pcase/pfold binds, as in the paper's translation.  Their names are apart
from every variable and binder name of the program, and a nested branch's
are primed on from the enclosing one's, so no target binder is ever renamed
and the recurrence needs no substitution pass.

The constant leaf 1 and the pairs (1, 1) of a literal and (1, 0) of nil
are nodes that `complexity` defines and every translation shares.
Nodes are frozen and compare structurally, so a shared leaf equals, and
prints as, a fresh one.
"""

from __future__ import annotations

from typing import Mapping

from . import syntax
from .complexity import (
    LIT_PAIR,
    NAT,
    NAT_PAIR,
    NIL_PAIR,
    NUM_1,
    ArrowPotTy,
    CCons,
    Charge,
    CLam,
    CLet,
    CMax,
    COp,
    CPair,
    CPlus,
    CplxExpr,
    CostOf,
    CTy,
    CVar,
    PCase,
    PFold,
    PotOf,
    ProdTy,
    StarApp,
)
from .syntax import (
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
    fresh_name,
)


# ---------------------------------------------------------------- types

def pot_ty(ty: Ty) -> CTy:
    """The potential type of a target type."""
    if isinstance(ty, ArrowTy):
        return ArrowPotTy(pot_ty(ty.dom), translate_ty(ty.cod))
    return NAT


def translate_ty(ty: Ty) -> ProdTy:
    """The full cost/potential type of a target type; N x N is the shared `NAT_PAIR`."""
    pot = pot_ty(ty)
    return NAT_PAIR if pot is NAT else ProdTy(pot)


# ---------------------------------------------------------------- translation

# Translation environments map the target variables bound by enclosing
# branches to their potential pairs.
_Env = Mapping[str, CplxExpr]
_Fresh = tuple[set[str], str, str]  # the program's names; the next p and ps


def translate(e: Expr) -> CplxExpr:
    """The cost/potential recurrence of a target expression.

    Free target variables appear free in the result, at their translated
    types; a closed program translates to a closed recurrence.
    """
    return _translate(e, {}, (syntax.names(e), "p", "ps"))


def _translate(e: Expr, env: _Env, fresh: _Fresh) -> CplxExpr:
    """Translate e with the target variables in env replaced by their
    translations; fresh holds the next branch's candidates (see _bind_branch)."""
    t = type(e)
    if t is IntLit or t is BoolLit:
        return LIT_PAIR
    if t is Cons:
        return CCons(_translate(e.head, env, fresh), _translate(e.tail, env, fresh))
    if t is Var:
        bound = env.get(e.name)
        return CVar(e.name) if bound is None else bound
    if t is Nil:
        return NIL_PAIR
    if t is BinOp:
        return COp(_translate(e.lhs, env, fresh), _translate(e.rhs, env, fresh))
    if t is Lam:
        if e.param in env:  # the parameter shadows a head or tail
            env = {k: v for k, v in env.items() if k != e.param}
        return CLam(e.param, pot_ty(e.param_ty), _translate(e.body, env, fresh))
    if t is If:
        tt = _translate(e.test, env, fresh)
        joined = CMax(_translate(e.then, env, fresh), _translate(e.orelse, env, fresh))
        return Charge(CPlus(NUM_1, CostOf(tt)), joined)
    if t is Fold:
        ts = _translate(e.scrutinee, env, fresh)
        tz = _translate(e.nil_branch, env, fresh)
        env, fresh, p, ps = _bind_branch(e.head, e.tail, env, fresh)
        env.pop(e.acc, None)  # the accumulator shadows the head and tail
        tb = _translate(e.step, env, fresh)
        r = _reader(ts)
        body = Charge(CPlus(NUM_1, CostOf(r)), PFold(PotOf(r), tz, p, ps, e.acc, tb))
        return body if r is ts else CLet(_SCRUT.name, ts, body)
    if t is App:
        return StarApp(_translate(e.fn, env, fresh), _translate(e.arg, env, fresh))
    if t is Case:
        ts = _translate(e.scrutinee, env, fresh)
        tz = _translate(e.nil_branch, env, fresh)
        env, fresh, p, ps = _bind_branch(e.head, e.tail, env, fresh)
        tb = _translate(e.cons_branch, env, fresh)
        r = _reader(ts)
        body = Charge(CPlus(NUM_1, CostOf(r)), PCase(PotOf(r), tz, p, ps, tb))
        return body if r is ts else CLet(_SCRUT.name, ts, body)
    raise TypeError(f"not an expression: {e!r}")


# The variable a `let` binds a case/fold scrutinee to; no program uses this
# name, and every translation shares the node.
_SCRUT = CVar("$s")


def _reader(bound: CplxExpr) -> CplxExpr:
    """What a body reads `bound` through: bound itself, if it is a variable or
    a shared constant pair, else `_SCRUT`, for a `let` around the body to bind."""
    shared = type(bound) is CVar or bound is LIT_PAIR or bound is NIL_PAIR
    return bound if shared else _SCRUT


def _bind_branch(head: str, tail: str, env: _Env, fresh: _Fresh
                 ) -> tuple[dict[str, CplxExpr], _Fresh, str, str]:
    """Bind a cons branch's head and tail to potential pairs.

    The head is a value of potential at most 1 (an int); the tail a value
    whose potential is one less than the scrutinee's.  They become (1, p)
    and (1, ps) over the first of fresh's candidates, each primed on, that
    name no variable or binder of the program.  Branches inside start one
    prime further, so they never rebind this p or ps.  One pair per binder
    is shared by all its occurrences.
    """
    taken, p, ps = fresh
    p, ps = fresh_name(p, taken), fresh_name(ps, taken)
    inner = {**env, head: CPair(NUM_1, CVar(p)), tail: CPair(NUM_1, CVar(ps))}
    return inner, (taken, p + "'", ps + "'"), p, ps
