"""Translation of target programs into complexity-language recurrences.

Every target expression of type τ becomes a complexity expression of type
‖τ‖ = N x ⟨τ⟩, where ⟨int⟩ = ⟨bool⟩ = ⟨int*⟩ = N (ints and booleans have
potential 1, a list's potential bounds its length) and
⟨σ -> τ⟩ = ⟨σ⟩ -> ‖τ‖.  The cost component bounds the evaluation cost of the
expression; the potential component bounds the size of its value.

The translation is compositional and syntax-directed, and each target node
becomes one complexity node, a derived form that `complexity` prints,
types and denotes as its expansion in the paper's core nodes.
Conditionals and list matches cannot know which branch will run, so both
are translated and joined with max; `fold` becomes `pfold`, primitive
recursion on the scrutinee's potential, which dominates the actual
recursion on the list because the potential bounds the length.  Extra cost
charged onto a pair (for the rule instances the original program will
execute) is written with the paper's `+_c`.  So a cons `r :: s` is `CCons`
(1 + r_c + s_c, 1 + s_p), an operator `COp` (2 + r_c + s_c, 1), an `if`
`CIf` (1 + test_c) +_c max(then, orelse), and a `case` or `fold` of s is
`CCase` or `CFold`, (1 + s_c) +_c pcase s_p of ... or pfold s_p of ....
Each node reads its operands once, so the recurrence grows linearly with
the program.

A cons branch is translated with its head and tail bound, in an
environment, to the pairs (1, p) and (1, ps) over the potential variables
the pcase/pfold binds, as in the paper's translation.  Their names are apart
from every variable and binder name of the program, and a nested branch's
are primed on from the enclosing one's, so no target binder is ever renamed
and the recurrence needs no substitution pass.  The one walk that
translates a program also collects its names, and takes p and ps primed
once per level of nesting; a program that itself uses one of the names p,
ps, p', ps', ... is translated again, with the names it uses avoided.

The constant leaf 1 and the pairs (1, 1) of a literal and (1, 0) of nil
are nodes that `complexity` defines and every translation shares.
Nodes are frozen and compare structurally, so a shared leaf equals, and
prints as, a fresh one.
"""

from __future__ import annotations

from typing import Collection, Mapping

from .complexity import (
    LIT_PAIR,
    NAT,
    NAT_PAIR,
    NIL_PAIR,
    NUM_1,
    ArrowPotTy,
    CCase,
    CCons,
    CFold,
    CIf,
    CLam,
    COp,
    CPair,
    CplxExpr,
    CTy,
    CVar,
    ProdTy,
    StarApp,
)
from .syntax import (
    App,
    ArrowTy,
    BinOp,
    BoolLit,
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
# The names met so far, the names to avoid, and the next p and ps.
_Fresh = tuple[set[str], Collection[str], str, str]


def translate(e: Expr) -> CplxExpr:
    """The cost/potential recurrence of a target expression, which every
    caller has given to `typecheck` first.

    Free target variables appear free in the result, at their translated
    types; a closed program translates to a closed recurrence.  The walk
    collects the program's names and picks branch variables as if none were
    taken; only a program that uses a name of the form p, ps, p', ps', ...
    is translated again, apart from every name the first walk met.
    """
    met: set[str] = set()
    out = _translate(e, {}, (met, frozenset(), "p", "ps"))
    if any(name.rstrip("'") in ("p", "ps") for name in met):
        out = _translate(e, {}, (set(), met, "p", "ps"))
    return out


def _translate(e: Expr, env: _Env, fresh: _Fresh) -> CplxExpr:
    """Translate e with the target variables in env replaced by their
    translations, adding e's names to fresh's first set; fresh holds the
    next branch's candidates (see _bind_branch)."""
    t = type(e)
    if t is IntLit or t is BoolLit:
        return LIT_PAIR
    if t is Cons:
        return CCons(_translate(e.head, env, fresh), _translate(e.tail, env, fresh))
    if t is Var:
        fresh[0].add(e.name)
        bound = env.get(e.name)
        return CVar(e.name) if bound is None else bound
    if t is Nil:
        return NIL_PAIR
    if t is BinOp:
        return COp(_translate(e.lhs, env, fresh), _translate(e.rhs, env, fresh))
    if t is Lam:
        fresh[0].add(e.param)
        if e.param in env:  # the parameter shadows a head or tail
            env = {k: v for k, v in env.items() if k != e.param}
        return CLam(e.param, pot_ty(e.param_ty), _translate(e.body, env, fresh))
    if t is If:
        return CIf(_translate(e.test, env, fresh), _translate(e.then, env, fresh),
                   _translate(e.orelse, env, fresh))
    if t is Fold:
        ts = _translate(e.scrutinee, env, fresh)
        tz = _translate(e.nil_branch, env, fresh)
        env, fresh, p, ps = _bind_branch(e.head, e.tail, env, fresh)
        fresh[0].add(e.acc)
        env.pop(e.acc, None)  # the accumulator shadows the head and tail
        return CFold(ts, tz, p, ps, e.acc, _translate(e.step, env, fresh))
    if t is App:
        return StarApp(_translate(e.fn, env, fresh), _translate(e.arg, env, fresh))
    # Case
    ts = _translate(e.scrutinee, env, fresh)
    tz = _translate(e.nil_branch, env, fresh)
    env, fresh, p, ps = _bind_branch(e.head, e.tail, env, fresh)
    return CCase(ts, tz, p, ps, _translate(e.cons_branch, env, fresh))


def _bind_branch(head: str, tail: str, env: _Env, fresh: _Fresh
                 ) -> tuple[dict[str, CplxExpr], _Fresh, str, str]:
    """Bind a cons branch's head and tail to potential pairs.

    The head is a value of potential at most 1 (an int); the tail a value
    whose potential is one less than the scrutinee's.  They become (1, p)
    and (1, ps) over the first of fresh's candidates, each primed on, that
    is not a name to avoid.  Branches inside start one prime further, so
    they never rebind this p or ps.  One pair per binder is shared by all
    its occurrences.
    """
    met, taken, p, ps = fresh
    met.add(head)
    met.add(tail)
    p, ps = fresh_name(p, taken), fresh_name(ps, taken)
    inner = {**env, head: CPair(NUM_1, CVar(p)), tail: CPair(NUM_1, CVar(ps))}
    return inner, (met, taken, p + "'", ps + "'"), p, ps
