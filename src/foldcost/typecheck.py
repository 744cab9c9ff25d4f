"""Typechecker for the target language.

Typing is syntax-directed: lambda parameters carry annotations, so no
inference is needed and every well-formed expression has at most one type.
`typecheck` raises TypeCheckError with the offending subexpression rendered
back to source.
"""

from __future__ import annotations

from typing import Mapping

from .syntax import (
    BOOL,
    INT,
    INT_LIST,
    OPS,
    ArrowTy,
    App,
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


class TypeCheckError(Exception):
    pass


def _mismatch(e: Expr, expected: str, actual: Ty) -> TypeCheckError:
    return TypeCheckError(f"expected {expected}, got {actual} in: {to_source(e)}")


def check(ctx: Mapping[str, Ty], e: Expr, expected: Ty, where: Expr) -> None:
    actual = typecheck(ctx, e)
    if actual is not expected and actual != expected:
        raise _mismatch(where, str(expected), actual)


def typecheck(ctx: Mapping[str, Ty], e: Expr) -> Ty:
    """Return the type of e under ctx, or raise TypeCheckError."""
    t = type(e)
    # Γ ⊢ n : int
    if t is IntLit:
        return INT

    #  Γ ⊢ r : int   Γ ⊢ s : int*
    # ----------------------------
    #  Γ ⊢ r :: s : int*
    if t is Cons:
        check(ctx, e.head, INT, e)
        check(ctx, e.tail, INT_LIST, e)
        return INT_LIST

    #  x : τ ∈ Γ
    # -----------
    #  Γ ⊢ x : τ
    if t is Var:
        ty = ctx.get(e.name)
        if ty is None:
            raise TypeCheckError(f"unbound variable: {e.name}")
        return ty

    # Γ ⊢ nil : int*
    if t is Nil:
        return INT_LIST

    #  Γ ⊢ r : int   Γ ⊢ s : int
    # ---------------------------       op ∈ {+, -, *}
    #  Γ ⊢ r op s : int
    #
    #  Γ ⊢ r : int   Γ ⊢ s : int
    # ---------------------------       R ∈ {<, <=, =}
    #  Γ ⊢ r R s : bool
    if t is BinOp:
        op = OPS.get(e.op)
        if op is None:
            raise TypeCheckError(f"unknown operator: {e.op}")
        check(ctx, e.lhs, INT, e)
        check(ctx, e.rhs, INT, e)
        return op.result

    # Γ ⊢ true/false : bool
    if t is BoolLit:
        return BOOL

    #  Γ, x : σ ⊢ r : τ
    # --------------------------
    #  Γ ⊢ \x:σ. r : σ -> τ
    if t is Lam:
        return ArrowTy(e.param_ty, typecheck({**ctx, e.param: e.param_ty}, e.body))

    #  Γ ⊢ r : bool   Γ ⊢ s : τ   Γ ⊢ t : τ
    # --------------------------------------
    #  Γ ⊢ if r then s else t : τ
    if t is If:
        check(ctx, e.test, BOOL, e)
        then_ty = typecheck(ctx, e.then)
        check(ctx, e.orelse, then_ty, e)
        return then_ty

    #  Γ ⊢ r : int*   Γ ⊢ s : τ   Γ, x : int, xs : int*, w : τ ⊢ t : τ
    # -----------------------------------------------------------------
    #  Γ ⊢ fold r of (s, [x, xs, w] t) : τ
    if t is Fold:
        check(ctx, e.scrutinee, INT_LIST, e)
        nil_ty = typecheck(ctx, e.nil_branch)
        step_ctx = {**ctx, e.head: INT, e.tail: INT_LIST, e.acc: nil_ty}
        check(step_ctx, e.step, nil_ty, e)
        return nil_ty

    #  Γ ⊢ r : σ -> τ   Γ ⊢ s : σ
    # ----------------------------
    #  Γ ⊢ r s : τ
    if t is App:
        fn_ty = typecheck(ctx, e.fn)
        if not isinstance(fn_ty, ArrowTy):
            raise _mismatch(e, "a function", fn_ty)
        check(ctx, e.arg, fn_ty.dom, e)
        return fn_ty.cod

    #  Γ ⊢ r : int*   Γ ⊢ s : τ   Γ, x : int, xs : int* ⊢ t : τ
    # ----------------------------------------------------------
    #  Γ ⊢ case r of (s, [x, xs] t) : τ
    if t is Case:
        check(ctx, e.scrutinee, INT_LIST, e)
        nil_ty = typecheck(ctx, e.nil_branch)
        branch_ctx = {**ctx, e.head: INT, e.tail: INT_LIST}
        check(branch_ctx, e.cons_branch, nil_ty, e)
        return nil_ty

    raise TypeCheckError(f"not an expression: {e!r}")
