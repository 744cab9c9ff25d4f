"""Oracles that only the tests call: the bounding relation as a yes/no
answer, direct runs of an application, the order on semantic values, a
generator for the complexity language and the expansion of its derived
forms.  The library never calls them, so
they live beside the tests that do.
"""

from __future__ import annotations

import random
from dataclasses import fields, replace
from typing import Mapping, Sequence

from foldcost.complexity import (
    NAT,
    NUM_1,
    ArrowPotTy,
    CCons,
    CLam,
    CLet,
    CMax,
    CNum,
    COp,
    CPair,
    CPlus,
    CplxExpr,
    CostOf,
    CTy,
    CVar,
    NatTy,
    PCase,
    PFold,
    PotOf,
    ProdTy,
    SPair,
    SemVal,
    StarApp,
)
from foldcost.gen import DEFAULT_CONFIG, ProbeConfig
from foldcost.harness import _check_value, _TooManyProbes, _Violation
from foldcost.interp import DEFAULT_BUDGET, EvalResult, Value, eval_expr
from foldcost.syntax import App, Expr, Ty, Var


# ---------------------------------------------------------------- bounding and measured runs

def check_value_bounded(v: Value, pot: SemVal, ty: Ty, cfg: ProbeConfig = DEFAULT_CONFIG) -> bool | None:
    """Does potential `pot` bound value `v` at type `ty`?

    For base types this is exact (1 for ints and booleans, length for
    lists).  For functions it probes: sampled bounded arguments, with the
    body's cost and result checked against the potential applied to the
    argument's potential.  Exact when it answers False.  None means that
    every probe hit an evaluation limit, or that the function takes too many
    curried arguments to probe, so nothing could be checked.
    """
    try:
        checked, _ = _check_value(v, pot, ty, cfg)
    except _Violation:
        return False
    except _TooManyProbes:
        return None
    return True if checked else None


def measure_application(
    e: Expr, arg_values: Sequence[Value], budget: int = DEFAULT_BUDGET
) -> EvalResult:
    """Cost of applying e to already-evaluated argument values.

    The function and each argument are bound to variables, so each costs one
    lookup, mirroring how `tabulate` charges arguments: the returned cost is
    directly comparable to the tabulated bound at the arguments' potentials.
    """
    clo = eval_expr(e, budget=budget).value
    env: dict[str, Value] = {"$f": clo}
    expr: Expr = Var("$f")
    for i, v in enumerate(arg_values):
        env[f"$a{i}"] = v
        expr = App(expr, Var(f"$a{i}"))
    return eval_expr(expr, env, budget=budget)


# ---------------------------------------------------------------- lemma probes

def canonical_semval(cty: CTy, k: int) -> SemVal:
    """A deterministic inhabitant of a complexity type, scaled by k."""
    if isinstance(cty, NatTy):
        return k
    if isinstance(cty, ProdTy):
        return SPair(k, canonical_semval(cty.pot, k))
    if isinstance(cty, ArrowPotTy):
        dom, cod = cty.dom, cty.cod
        def fn(q: SemVal, cod=cod, k=k) -> SemVal:
            bump = q if isinstance(q, int) else 1
            return canonical_semval(cod, min(k + bump, 64))
        return fn
    raise TypeError(f"not a complexity type: {cty!r}")


def semval_le(a: SemVal, b: SemVal, cty: CTy, probes: Sequence[int] = range(6)) -> bool:
    """Pointwise order on semantic values, probing function types."""
    if isinstance(cty, NatTy):
        return a <= b
    if isinstance(cty, ProdTy):
        return a.cost <= b.cost and semval_le(a.pot, b.pot, cty.pot, probes)
    if isinstance(cty, ArrowPotTy):
        return all(
            semval_le(a(_probe_pot(cty.dom, i)), b(_probe_pot(cty.dom, i)), cty.cod, probes)
            for i in probes)
    raise TypeError(f"not a complexity type: {cty!r}")


def _probe_pot(cty: CTy, i: int) -> SemVal:
    return i if isinstance(cty, NatTy) else canonical_semval(cty, i)


# ---------------------------------------------------------------- complexity-term generation

def gen_cplx_term(seed: int, depth: int, cty: CTy, ctx: Mapping[str, CTy] | None = None) -> CplxExpr:
    """Generate a well-typed complexity expression, deterministically.

    Used by the property tests for the semantic lemmas (max as upper bound,
    substitution commuting with denotation, pfold dominating its base)."""
    rng = random.Random(seed)

    def vars_of(t: CTy, c: Mapping[str, CTy]) -> list[str]:
        return sorted(name for name, ty in c.items() if ty == t)

    def leaf(t: CTy, c: dict[str, CTy]) -> CplxExpr:
        names = vars_of(t, c)
        if names and rng.random() < 0.5:
            return CVar(rng.choice(names))
        if isinstance(t, NatTy):
            return CNum(rng.randint(0, 5))
        if isinstance(t, ProdTy):
            return CPair(CNum(rng.randint(0, 5)), leaf(t.pot, c))
        if isinstance(t, ArrowPotTy):
            param = _fresh_cplx_var(c)
            inner = CLam(param, t.dom, leaf(t.cod, {**c, param: ProdTy(t.dom)}))
            return PotOf(inner)
        raise TypeError(f"not a complexity type: {t!r}")

    def go(d: int, t: CTy, c: dict[str, CTy]) -> CplxExpr:
        if d <= 0:
            return leaf(t, c)
        if isinstance(t, NatTy):
            roll = rng.random()
            if roll < 0.30:
                return CPlus(go(d - 1, t, c), go(d - 1, t, c))
            if roll < 0.50:
                return CMax(go(d - 1, t, c), go(d - 1, t, c))
            if roll < 0.70:
                return CostOf(go(d - 1, ProdTy(NAT), c))
            if roll < 0.85:
                return PotOf(go(d - 1, ProdTy(NAT), c))
            return leaf(t, c)
        if isinstance(t, ProdTy):
            roll = rng.random()
            if roll < 0.30:
                return CPair(go(d - 1, NAT, c), go_pot(d - 1, t.pot, c))
            if roll < 0.45:
                return CMax(go(d - 1, t, c), go(d - 1, t, c))
            if roll < 0.60:
                c1 = dict(c)
                p = _fresh_cplx_var(c1)
                c1[p] = NAT
                ps = _fresh_cplx_var(c1)
                c1[ps] = NAT
                return PCase(go(d - 1, NAT, c), go(d - 1, t, c), p, ps, go(d - 1, t, c1))
            if roll < 0.75:
                c1 = dict(c)
                p = _fresh_cplx_var(c1)
                c1[p] = NAT
                ps = _fresh_cplx_var(c1)
                c1[ps] = NAT
                w = _fresh_cplx_var(c1)
                c1[w] = t
                return PFold(go(d - 1, NAT, c), go(d - 1, t, c), p, ps, w, go(d - 1, t, c1))
            if roll < 0.85:
                fn = go(d - 1, ProdTy(ArrowPotTy(NAT, t)), c)
                return StarApp(fn, go(d - 1, ProdTy(NAT), c))
            if isinstance(t.pot, ArrowPotTy):
                param = _fresh_cplx_var(c)
                body = go(d - 1, t.pot.cod, {**c, param: ProdTy(t.pot.dom)})
                return CLam(param, t.pot.dom, body)
            return leaf(t, c)
        if isinstance(t, ArrowPotTy):
            return go_pot(d, t, c)
        raise TypeError(f"not a complexity type: {t!r}")

    def go_pot(d: int, t: CTy, c: dict[str, CTy]) -> CplxExpr:
        # Potential position: naturals are ordinary terms; arrows come from
        # projecting a generated pair.
        if isinstance(t, NatTy):
            return go(d, t, c)
        return PotOf(go(d, ProdTy(t), c))

    return go(depth, cty, dict(ctx or {}))


def _fresh_cplx_var(ctx: Mapping[str, CTy]) -> str:
    n = len(ctx)
    while f"u{n}" in ctx:
        n += 1
    return f"u{n}"


# ---------------------------------------------------------------- derived forms


def expand_derived(e: CplxExpr, done: dict[int, CplxExpr] | None = None) -> CplxExpr:
    """e with every `CCons` and `COp` written out in the core nodes, a cons's
    tail bound by a `let` and read through `$t` (see `complexity.CCons`).  A
    node shared in e is expanded once (`done` maps node ids to expansions)."""
    done = {} if done is None else done
    out = done.get(id(e))
    if out is not None:
        return out
    t = type(e)
    if t is CCons:
        tail = CVar("$t")
        out = CLet("$t", expand_derived(e.tail, done), CPair(
            CPlus(NUM_1, CPlus(CostOf(expand_derived(e.head, done)), CostOf(tail))),
            CPlus(NUM_1, PotOf(tail))))
    elif t is COp:
        out = CPair(CPlus(CNum(2), CPlus(CostOf(expand_derived(e.lhs, done)),
                                         CostOf(expand_derived(e.rhs, done)))), NUM_1)
    else:
        kids = {f.name: expand_derived(v, done) for f in fields(e)
                if isinstance(v := getattr(e, f.name), CplxExpr)}
        out = replace(e, **kids) if kids else e
    done[id(e)] = out  # e lives as long as the caller's tree, so its id is not reused
    return out
