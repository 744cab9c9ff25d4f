"""Random well-typed target programs, for the campaign and the probes.

`gen_typed_term` draws a term of a given type under a context, biased
toward the constructs whose cost rules matter most: `case`, `fold` and
application.  Binders are named `v<n>` by `_fresh_var`, so they never
shadow a name in scope.  Every draw is deterministic in its `random.Random`.

Draws call `Random._randbelow` as `choice` and `randrange` do on CPython
3.10 and 3.11, but without their frames: the same values, pinned by the
`*_draws_are_frozen` tests.  Base types are tested by identity, since the
parser, the type checker and the generator use only INT, BOOL, INT_LIST.

Generated programs share their leaves: one node for nil, true and false
each, one per literal in the default range and one per variable of the
first 64 binder names; binder names are interned.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Mapping

from .interp import DEFAULT_BUDGET
from .syntax import (
    BOOL, INT, INT_LIST, App, ArrowTy, BinOp, BoolLit, Case, Cons, Expr, Fold, If, IntLit, Lam,
    Nil, Ty, Var)


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for generation, probing, and campaign size."""

    trials: int = 100
    depth: int = 4
    max_list: int = 8
    int_lo: int = -9
    int_hi: int = 9
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.int_lo > self.int_hi or self.max_list < 0:  # `_below` would never return
            raise ValueError(f"empty literal or list-length range: {self}")


DEFAULT_CONFIG = ProbeConfig()

_BASE_TYPES: tuple[Ty, ...] = (INT, BOOL, INT_LIST)
_below = random.Random._randbelow


def gen_typed_term(seed: int, depth: int, ty: Ty, ctx: Mapping[str, Ty] | None = None) -> Expr:
    """Generate a well-typed term of the given type, deterministically.

    Biased toward case/fold/application nodes so generated programs exercise
    the interesting cost rules; falls back to canonical leaves at depth 0.
    """
    rng = random.Random(seed)
    return _gen(rng, depth, ty, dict(ctx or {}), DEFAULT_CONFIG)


def _gen(rng: random.Random, depth: int, ty: Ty, ctx: dict[str, Ty], cfg: ProbeConfig) -> Expr:
    if depth <= 0:
        return _gen_leaf(rng, ty, ctx, cfg)

    # Bias toward the constructs whose cost rules matter most.
    if rng.random() < 0.30:
        pick = ("case", "fold", "app")[_below(rng, 3)]
        if pick == "app":
            arg_ty = _gen_arg_ty(rng, depth)
            fn = _gen(rng, depth - 1, ArrowTy(arg_ty, ty), ctx, cfg)
            arg = _gen(rng, depth - 1, arg_ty, ctx, cfg)
            return App(fn, arg)
        scrut = _gen(rng, depth - 1, INT_LIST, ctx, cfg)
        nil_branch = _gen(rng, depth - 1, ty, ctx, cfg)
        ctx1 = dict(ctx)
        head = _fresh_var(ctx1)
        ctx1[head] = INT
        tail = _fresh_var(ctx1)
        ctx1[tail] = INT_LIST
        if pick == "case":
            branch = _gen(rng, depth - 1, ty, ctx1, cfg)
            return Case(scrut, nil_branch, head, tail, branch)
        acc = _fresh_var(ctx1)
        ctx1[acc] = ty
        step = _gen(rng, depth - 1, ty, ctx1, cfg)
        return Fold(scrut, nil_branch, head, tail, acc, step)

    roll = rng.random()
    if roll < 0.15:
        test = _gen(rng, depth - 1, BOOL, ctx, cfg)
        return If(test, _gen(rng, depth - 1, ty, ctx, cfg), _gen(rng, depth - 1, ty, ctx, cfg))
    if isinstance(ty, ArrowTy):
        param = _fresh_var(ctx)
        body = _gen(rng, depth - 1, ty.cod, {**ctx, param: ty.dom}, cfg)
        return Lam(param, ty.dom, body)
    if roll >= 0.70:
        return _gen_leaf(rng, ty, ctx, cfg)
    if ty is INT or ty is BOOL:
        op = (("+", "-", "*") if ty is INT else ("<", "<=", "="))[_below(rng, 3)]
        return BinOp(op, _gen(rng, depth - 1, INT, ctx, cfg), _gen(rng, depth - 1, INT, ctx, cfg))
    if ty is INT_LIST:
        return Cons(_gen(rng, depth - 1, INT, ctx, cfg), _gen(rng, depth - 1, INT_LIST, ctx, cfg))
    raise TypeError(f"not a type: {ty!r}")


def _gen_arg_ty(rng: random.Random, depth: int) -> Ty:
    if depth >= 3 and rng.random() < 0.15:
        return ArrowTy(_BASE_TYPES[_below(rng, 3)], _BASE_TYPES[_below(rng, 3)])
    return _BASE_TYPES[_below(rng, 3)]


_NIL = Nil()
_BOOLS = {True: BoolLit(True), False: BoolLit(False)}
_SMALL_INTS = {n: IntLit(n) for n in range(DEFAULT_CONFIG.int_lo, DEFAULT_CONFIG.int_hi + 1)}
_VARS = {name: Var(name) for name in (sys.intern(f"v{n}") for n in range(64))}


def _int_leaf(rng: random.Random, cfg: ProbeConfig) -> IntLit:
    n = cfg.int_lo + _below(rng, cfg.int_hi + 1 - cfg.int_lo)
    leaf = _SMALL_INTS.get(n)
    return IntLit(n) if leaf is None else leaf


def _gen_leaf(rng: random.Random, ty: Ty, ctx: dict[str, Ty], cfg: ProbeConfig) -> Expr:
    # Prefer a variable of the right type when one is in scope.
    arrow = type(ty) is ArrowTy  # a base type is one instance, tested by identity
    candidates = [name for name, t in ctx.items() if t is ty or arrow and t == ty]
    if candidates and rng.random() < 0.5:
        name = sorted(candidates)[_below(rng, len(candidates))]
        leaf = _VARS.get(name)
        return Var(name) if leaf is None else leaf
    if ty is INT:
        return _int_leaf(rng, cfg)
    if ty is BOOL:
        return _BOOLS[rng.random() < 0.5]
    if ty is INT_LIST:
        items = [_int_leaf(rng, cfg) for _ in range(_below(rng, 3))]
        out: Expr = _NIL
        for item in reversed(items):
            out = Cons(item, out)
        return out
    if isinstance(ty, ArrowTy):
        param = _fresh_var(ctx)
        return Lam(param, ty.dom, _gen_leaf(rng, ty.cod, {**ctx, param: ty.dom}, cfg))
    raise TypeError(f"not a type: {ty!r}")


def _fresh_var(ctx: Mapping[str, Ty]) -> str:
    n = len(ctx)
    while f"v{n}" in ctx:
        n += 1
    return sys.intern(f"v{n}")
