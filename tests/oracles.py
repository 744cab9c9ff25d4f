"""Oracles that only the tests call: the bounding relation as a yes/no
answer, direct runs of an application, the order on semantic values, a
generator for the complexity language, the expansion of its derived
forms, the names, free variables and capture-avoiding substitution of a
term of either language (the substitution lemma, criterion 9) and the
materialised big-step derivation (criterion 10).  The library never calls
them, so they live beside the tests that do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from foldcost.complexity import (
    LIT_PAIR,
    NAT,
    NIL_PAIR,
    NUM_1,
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
from foldcost.interp import (
    DEFAULT_BUDGET,
    EvalError,
    EvalResult,
    Value,
    ValueEnv,
    VClosure,
    _checked,
    _expected,
    eval_expr,
    render_value,
)
from foldcost.syntax import (
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
    fresh_name,
)


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
    """e with every derived node written out in the core nodes, as the
    translation once wrote them.  A cons's tail is bound by a `let` and read
    through `$t` (see `complexity.CCons`).  A case or fold scrutinee is read
    in place if it is a variable or a shared constant pair, and else bound by
    a `let` and read through `$s` (see `complexity.CCase`).  A node shared
    in e is expanded once (`done` maps node ids to expansions)."""
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
    elif t is CIf:
        out = Charge(CPlus(NUM_1, CostOf(expand_derived(e.test, done))),
                     CMax(expand_derived(e.then, done), expand_derived(e.orelse, done)))
    elif t is CCase or t is CFold:
        scrut = expand_derived(e.scrut, done)
        shared = type(e.scrut) is CVar or e.scrut is LIT_PAIR or e.scrut is NIL_PAIR
        r = scrut if shared else CVar("$s")
        zero, succ = expand_derived(e.zero, done), expand_derived(e.succ, done)
        out = Charge(CPlus(NUM_1, CostOf(r)),
                     PCase(PotOf(r), zero, e.p, e.ps, succ) if t is CCase
                     else PFold(PotOf(r), zero, e.p, e.ps, e.w, succ))
        out = out if shared else CLet("$s", scrut, out)
    else:
        kids = {f.name: expand_derived(v, done) for f in fields(e)
                if isinstance(v := getattr(e, f.name), CplxExpr)}
        out = replace(e, **kids) if kids else e
    done[id(e)] = out  # e lives as long as the caller's tree, so its id is not reused
    return out


# ---------------------------------------------------------------- names and substitution

class _Shape(NamedTuple):
    """What the binding walkers need of a node class of either language."""

    is_var: bool
    kids: tuple[str, ...]  # the subterm fields: those annotated with the base class
    binds: tuple[str, ...]  # the fields holding the names bound in `scope`
    scope: str | None  # the subterm the binders scope over


_SHAPES: dict[type, _Shape] = {}


def _shape(t: type) -> _Shape:
    var = getattr(t, "var_class", None)
    if var is None:
        raise TypeError(f"not an expression type: {t!r}")
    base = var.__base__.__name__  # both modules' annotations are strings
    kids = tuple(f.name for f in fields(t) if f.type == base)
    shape = _SHAPES[t] = _Shape(t is var, kids, t.binds, t.scope)
    return shape


def names(e: Expr | CplxExpr) -> set[str]:
    """Every variable and binder name in a term of either language."""
    out: set[str] = set()
    todo = [e]
    while todo:
        e = todo.pop()
        t = type(e)
        is_var, kids, binds, _ = _SHAPES.get(t) or _shape(t)
        if is_var:
            out.add(e.name)
            continue
        for b in binds:
            out.add(getattr(e, b))
        for k in kids:
            todo.append(getattr(e, k))
    return out


_NO_VARS: frozenset[str] = frozenset()


def free_vars(e: Expr | CplxExpr) -> frozenset[str]:
    """The free variables of a term of either language."""
    t = type(e)
    is_var, kids, binds, scope = _SHAPES.get(t) or _shape(t)
    if is_var:
        return frozenset((e.name,))
    out = _NO_VARS
    for k in kids:
        fv = free_vars(getattr(e, k))
        out |= fv.difference([getattr(e, b) for b in binds]) if k == scope else fv
    return out


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


def subst(e: Expr | CplxExpr, bindings: Mapping[str, Expr | CplxExpr]) -> Expr | CplxExpr:
    """Simultaneous capture-avoiding substitution of bindings into a term of
    either language.

    A binder is renamed only when it is free in a substituted term, and then
    apart from the body's free variables and the keys of the bindings.  When
    every substituted term is closed, as a parsed `def` body is, no binder
    can capture and none is looked at, so the walk is linear.
    """
    if not bindings:
        return e
    return _subst(e, bindings, _danger(bindings))


def _danger(bindings: Mapping[str, Expr | CplxExpr]) -> frozenset[str]:
    """Names that must not capture anything substituted in: the free
    variables of the substituted terms."""
    return frozenset().union(*map(free_vars, bindings.values()))


def _subst(e: Expr | CplxExpr, bindings: Mapping[str, Expr | CplxExpr],
           danger: frozenset[str]) -> Expr | CplxExpr:
    """`subst` with bindings non-empty and danger `_danger(bindings)`."""
    t = type(e)
    is_var, kids, binds, scope = _SHAPES.get(t) or _shape(t)
    if is_var:
        return bindings.get(e.name, e)
    if not kids:
        return e
    changes = {k: _subst(getattr(e, k), bindings, danger) for k in kids if k != scope}
    if scope is not None:
        binders = [getattr(e, b) for b in binds]
        body = getattr(e, scope)
        inner = {k: v for k, v in bindings.items() if k not in binders}
        if danger:
            new_binders = rename_apart(binders, danger, free_vars(body) | bindings.keys())
            renaming = {b: t.var_class(nb) for b, nb in zip(binders, new_binders) if b != nb}
            if renaming:
                body = subst(body, renaming)
            changes.update(zip(binds, new_binders))
            if len(inner) < len(bindings):  # a binder shadows a key
                danger = _danger(inner)
        if inner:
            body = _subst(body, inner, danger)
        changes[scope] = body
    return replace(e, **changes)


def _as_int(v: Value) -> int:
    if type(v) is not int:
        raise _expected("an integer", v)
    return v


def _as_bool(v: Value) -> bool:
    if type(v) is not bool:
        raise _expected("a boolean", v)
    return v


def _as_list(v: Value) -> tuple[int, ...]:
    if type(v) is not tuple:
        raise _expected("a list", v)
    return v


# ---------------------------------------------------------------- derivation oracle

@dataclass(frozen=True, eq=False)
class Derivation:
    """A materialized big-step derivation, for cross-checking the counter.

    `side_conditions` is 1 on a binary-operator node (the operator
    hypothesis) and 0 elsewhere.  The derivation size is the node count plus
    the side conditions, which must equal the evaluator's cost exactly.
    """

    rule: str
    value: Value
    children: tuple["Derivation", ...]
    side_conditions: int = 0

    def size(self) -> int:
        return 1 + self.side_conditions + sum(c.size() for c in self.children)


def derive(e: Expr, env: ValueEnv | None = None) -> Derivation:
    """Build the full evaluation derivation of e.

    Independent of eval_expr by construction: this follows the rules
    literally, including recursion through a fresh `$fold<n>` variable bound
    to the remaining tail at each fold unrolling.  Intended for
    cross-validation at test scale, not for production evaluation.
    """
    return _derive(e, dict(env or {}))


def _fresh_fold_var(env: ValueEnv) -> str:
    n = 0
    while f"$fold{n}" in env:
        n += 1
    return f"$fold{n}"


def _derive(e: Expr, env: ValueEnv) -> Derivation:
    match e:
        case Var(name):
            return Derivation("var", env[name], ())
        case IntLit(n):
            return Derivation("int", n, ())
        case BoolLit(b):
            return Derivation("bool", b, ())
        case Nil():
            return Derivation("nil", (), ())
        case Lam(param, _, body):
            return Derivation("lam", VClosure(param, body, env), ())
        case Cons(head, tail):
            dh, dt = _derive(head, env), _derive(tail, env)
            items = (_as_int(dh.value), *_as_list(dt.value))
            return Derivation("cons", items, (dh, dt))
        case BinOp(op, lhs, rhs):
            dl, dr = _derive(lhs, env), _derive(rhs, env)
            out = _checked(op, _as_int(dl.value), _as_int(dr.value))
            return Derivation("binop", out, (dl, dr), side_conditions=1)
        case If(test, then, orelse):
            dt = _derive(test, env)
            db = _derive(then if _as_bool(dt.value) else orelse, env)
            return Derivation("if", db.value, (dt, db))
        case App(fn, arg):
            df, da = _derive(fn, env), _derive(arg, env)
            clo = df.value
            if type(clo) is not VClosure:
                raise EvalError(f"applied a non-function: {render_value(clo)}")
            db = _derive(clo.body, {**clo.env, clo.param: da.value})
            return Derivation("app", db.value, (df, da, db))
        case Case(scrutinee, nil_branch, head, tail, cons_branch):
            ds = _derive(scrutinee, env)
            items = _as_list(ds.value)
            if not items:
                db = _derive(nil_branch, env)
                return Derivation("case-nil", db.value, (ds, db))
            env1 = {**env, head: items[0], tail: items[1:]}
            db = _derive(cons_branch, env1)
            return Derivation("case-cons", db.value, (ds, db))
        case Fold(scrutinee, nil_branch, head, tail, acc, step):
            ds = _derive(scrutinee, env)
            items = _as_list(ds.value)
            if not items:
                db = _derive(nil_branch, env)
                return Derivation("fold-nil", db.value, (ds, db))
            fresh = _fresh_fold_var(env)
            env_rec = {**env, fresh: items[1:]}
            rec = Fold(Var(fresh), nil_branch, head, tail, acc, step)
            dr = _derive(rec, env_rec)
            env1 = {**env, head: items[0], tail: items[1:], acc: dr.value}
            db = _derive(step, env1)
            return Derivation("fold-cons", db.value, (ds, dr, db))
    raise EvalError(f"not an expression: {e!r}")


def derivation_nodes(d: Derivation) -> Iterator[Derivation]:
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
