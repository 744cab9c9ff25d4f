"""Differential checking of measured costs against translated bounds.

The soundness claim under test: for a closed well-typed program, the
translated recurrence denotes a pair (c, p) with the actual evaluation cost
at most c and the size of the resulting value at most p (length for lists, 1
for ints and booleans).  For function results there is no finite size;
instead the potential is a function, and a closure is bounded by it when, for
every bounded argument, running the body costs no more than the potential
says and the result is recursively bounded.  That quantifier is approximated
here by probing: finitely many sampled arguments, each paired with a
potential that bounds it by construction.  A probe failure is a real
counterexample; probe success is evidence, not proof.  The whole relation
is one recursive check over the type, which `check_program` and
`check_value_bounded` share.

Everything is deterministic given the config seed.  Trials that hit the cost
budget or 64-bit overflow prove nothing either way and are reported as
inconclusive rather than as verdicts.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence, Union

from .complexity import (
    NAT,
    ArrowPotTy,
    CLam,
    CMax,
    CNum,
    CPair,
    CPlus,
    CplxExpr,
    CostOf,
    CTy,
    CVar,
    DenoteError,
    NatOverflowError,
    NatTy,
    PCase,
    PFold,
    PotOf,
    ProdTy,
    SPair,
    SemVal,
    StarApp,
    ctypecheck,
    denote,
    sem_apply,
)
from .interp import (
    ArithOverflowError,
    BudgetExceededError,
    DEFAULT_BUDGET,
    EvalError,
    EvalResult,
    VClosure,
    Value,
    eval_expr,
    evaluate,
    render_value,
    value_size,
)
from .syntax import (
    BOOL,
    INT,
    INT_LIST,
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
    to_source,
)
from .translate import translate, translate_ty
from .typecheck import typecheck


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


class _Violation(Exception):
    """A measured run exceeded its bound; carries the counterexample."""


# A curried function of k arguments gets at least 2 probes per argument, so
# at least 2^k probe vectors.  When that floor alone is over this many (or
# over `trials`, if more) the plan is refused: the check is inconclusive.
# A plan whose size comes from `trials` itself is never refused.
MAX_PROBE_VECTORS = 4096


class _TooManyProbes(Exception):
    """The smallest probe plan for a function type exceeds MAX_PROBE_VECTORS."""


# ---------------------------------------------------------------- term generation

_BASE_TYPES: tuple[Ty, ...] = (INT, BOOL, INT_LIST)
# Draws call `Random._randbelow` as `choice` and `randrange` do on CPython
# 3.10 and 3.11, but without their frames: the same values, pinned by the
# `*_draws_are_frozen` tests.  Base types are tested by identity, since the
# parser, the type checker and the generators use only INT, BOOL, INT_LIST.
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

    if isinstance(ty, ArrowTy):
        if rng.random() < 0.15:
            test = _gen(rng, depth - 1, BOOL, ctx, cfg)
            return If(test, _gen(rng, depth - 1, ty, ctx, cfg), _gen(rng, depth - 1, ty, ctx, cfg))
        param = _fresh_var(ctx)
        body = _gen(rng, depth - 1, ty.cod, {**ctx, param: ty.dom}, cfg)
        return Lam(param, ty.dom, body)

    roll = rng.random()
    if roll < 0.15:
        test = _gen(rng, depth - 1, BOOL, ctx, cfg)
        return If(test, _gen(rng, depth - 1, ty, ctx, cfg), _gen(rng, depth - 1, ty, ctx, cfg))
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


# Generated programs share their leaves: one node for nil, true and false
# each, one per literal in the default range and one per variable of the
# first 64 binder names; binder names are interned.
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
    candidates = [name for name, t in ctx.items() if t is ty or t == ty]
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


# ---------------------------------------------------------------- bounding checks

def check_program(e: Expr, cfg: ProbeConfig = DEFAULT_CONFIG) -> "Report":
    """Check a closed program of any type against its translated bound.

    The run's cost is compared with the bound's cost, and its value with the
    bound's potential by the bounding relation, which probes function-typed
    results.
    """
    ty = typecheck({}, e)
    cplx = translate(e)
    cty = ctypecheck({}, cplx)
    if cty != translate_ty(ty):
        raise AssertionError(f"translation changed the type: {cty} vs {translate_ty(ty)}")

    try:
        chi = denote(cplx)
        result = eval_expr(e, budget=cfg.budget)
        if not isinstance(chi, SPair):
            raise AssertionError("translated program denoted a non-pair")
        if result.cost > chi.cost:
            return Report(e, "fail", result.cost, chi.cost, None, None,
                          detail=f"cost {result.cost} > bound {chi.cost}")
        size, pot = (None, None) if isinstance(ty, ArrowTy) else (value_size(result.value), chi.pot)
        try:
            checked, skipped = _check_value(result.value, chi.pot, ty, cfg)
        except _Violation as v:
            return Report(e, "fail", result.cost, chi.cost, size, pot, detail=str(v))
        except _TooManyProbes as exc:
            return Report(e, "inconclusive", result.cost, chi.cost, None, None,
                          detail=str(exc), probes_checked=0, probes_skipped=0)
        if not isinstance(ty, ArrowTy):
            return Report(e, "pass", result.cost, chi.cost, size, pot)
        if checked == 0:
            return Report(e, "inconclusive", result.cost, chi.cost, None, None,
                          detail="all probes hit evaluation limits",
                          probes_checked=checked, probes_skipped=skipped)
        return Report(e, "pass", result.cost, chi.cost, None, None,
                      probes_checked=checked, probes_skipped=skipped)
    except BudgetExceededError:
        return Report(e, "inconclusive", None, None, None, None, detail="budget-exceeded")
    except ArithOverflowError:
        return Report(e, "inconclusive", None, None, None, None, detail="int-overflow")
    except NatOverflowError:
        return Report(e, "inconclusive", None, None, None, None, detail="nat-overflow")


@dataclass(frozen=True)
class Report:
    """Outcome of checking one program, `expr`, against its translated
    bound; its text, `program`, is printed on first read."""

    expr: Expr
    status: str  # "pass" | "fail" | "inconclusive" | "error"
    cost: int | None
    bound_cost: int | None
    size: int | None
    pot: int | None
    detail: str = ""
    probes_checked: int | None = None
    probes_skipped: int | None = None

    @cached_property
    def program(self) -> str:
        return to_source(self.expr)


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


def _check_value(v: Value, pot: SemVal, ty: Ty, cfg: ProbeConfig, rng: random.Random | None = None,
                 per_level: int | None = None, arg: Value | None = None) -> tuple[int, int]:
    """The bounding relation, probed; returns (checked, skipped).

    A base value is one check: its size is at most its potential.  A closure
    is probed at sampled bounded arguments: the body costs no more than the
    potential applied to the argument's potential, and its result is bounded
    in turn at the codomain, drawing from `rng` (seeded from cfg if None).
    `arg` is the probe argument that produced `v`, named in a base-level
    counterexample.  Raises _Violation on the first counterexample.
    """
    if not isinstance(ty, ArrowTy):
        size = value_size(v)
        if not isinstance(pot, int) or size > pot:
            at = "" if arg is None else f"at argument {render_value(arg)}: "
            raise _Violation(f"{at}size {size} > potential {pot!r}")
        return 1, 0
    if type(v) is not VClosure:
        raise _Violation(f"expected a closure at type {ty}")
    if not callable(pot):
        raise _Violation(f"expected a function potential, got {pot!r}")
    if rng is None:
        rng = random.Random(cfg.seed)
    if per_level is None:
        levels = _arrow_depth(ty)
        per_level = _probes_per_level(cfg.trials, levels)
        cap = max(cfg.trials, MAX_PROBE_VECTORS)
        if 2 ** levels > cap:
            raise _TooManyProbes(f"too many probe vectors: 2^{levels} > {cap}")
    checked = skipped = 0
    for z, q in _probe_args(ty.dom, per_level, cfg, rng):
        try:
            value, cost = evaluate(v.body, {**v.env, v.param: z}, cfg.budget)
        except (BudgetExceededError, ArithOverflowError):
            skipped += 1
            continue
        out = pot(q)
        if not isinstance(out, SPair):
            raise _Violation(f"potential application returned a non-pair: {out!r}")
        if cost > out.cost:
            raise _Violation(
                f"at argument {render_value(z)}: body cost {cost} > bound {out.cost}")
        sub_checked, sub_skipped = _check_value(value, out.pot, ty.cod, cfg, rng, per_level, z)
        checked += sub_checked
        skipped += sub_skipped
    return checked, skipped


def _arrow_depth(ty: Ty) -> int:
    depth = 0
    while isinstance(ty, ArrowTy):
        depth += 1
        ty = ty.cod
    return depth


def _probes_per_level(trials: int, levels: int) -> int:
    """Spread a total probe budget across nested arrow levels.

    One level gets all of it; deeper spines get roughly the levels-th root
    each, so the total number of probe vectors stays near `trials`.
    """
    if levels <= 1:
        return max(1, trials)
    return max(2, round(trials ** (1.0 / levels)))


def _probe_args(
    dom: Ty, count: int, cfg: ProbeConfig, rng: random.Random
) -> Iterator[tuple[Value, SemVal]]:
    """Sample argument values paired with potentials that bound them.

    Base arguments are bounded by construction (ints and booleans by 1,
    lists by their length).  Function arguments are generated as closed
    terms and paired with their own translated potentials.
    """
    lo, width = cfg.int_lo, cfg.int_hi + 1 - cfg.int_lo
    for _ in range(count):
        if dom is INT:
            yield lo + _below(rng, width), 1
        elif dom is BOOL:
            yield rng.random() < 0.5, 1
        elif dom is INT_LIST:
            items = tuple(lo + _below(rng, width) for _ in range(_below(rng, cfg.max_list + 1)))
            yield items, len(items)
        elif isinstance(dom, ArrowTy):
            term = _gen(rng, min(cfg.depth, 3), dom, {}, cfg)
            value = eval_expr(term, budget=cfg.budget).value
            pot = denote(translate(term))
            if not isinstance(pot, SPair):
                raise AssertionError("translated function denoted a non-pair")
            yield value, pot.pot
        else:
            raise TypeError(f"not a type: {dom!r}")


# ---------------------------------------------------------------- fuzz campaign

@dataclass(frozen=True)
class Trial:
    index: int
    seed: int
    report: Report


@dataclass(frozen=True)
class CampaignSummary:
    cfg: ProbeConfig
    trials: tuple[Trial, ...]
    passed: int
    failed: int
    inconclusive: int
    errors: int

    def counterexamples(self) -> list[Trial]:
        return [t for t in self.trials if t.report.status == "fail"]

    def lines(self, as_json: bool = False) -> list[str]:
        out = [_trial_line(t, as_json) for t in self.trials]
        # The error count is printed only when nonzero, so the output of an
        # error-free campaign keeps its frozen form.
        if as_json:
            totals = {"passed": self.passed, "failed": self.failed,
                      "inconclusive": self.inconclusive}
            if self.errors:
                totals["errors"] = self.errors
            out.append(json.dumps({**totals, "trials": len(self.trials)}))
        else:
            errors = f" errors={self.errors}" if self.errors else ""
            out.append(
                f"passed={self.passed} failed={self.failed} "
                f"inconclusive={self.inconclusive}{errors} trials={len(self.trials)}")
        return out


def _trial_line(t: Trial, as_json: bool) -> str:
    r = t.report
    if as_json:
        payload = {
            "trial": t.index,
            "seed": t.seed,
            "cost": r.cost,
            "bound": r.bound_cost,
            "size": r.size,
            "pot": r.pot,
            "verdict": r.status,
        }
        if r.status != "pass":
            payload["detail"] = r.detail
            payload["program"] = r.program
        return json.dumps(payload)
    if r.status == "inconclusive":
        return f"trial={t.index} seed={t.seed} error={r.detail} verdict=inconclusive"
    if r.status == "error":
        return (f"trial={t.index} seed={t.seed} verdict=error "
                f"detail={r.detail!r} program={r.program!r}")
    line = (f"trial={t.index} seed={t.seed} cost={r.cost} bound={r.bound_cost} "
            f"size={r.size} pot={r.pot} verdict={r.status}")
    if r.status == "fail":
        line += f" detail={r.detail!r} program={r.program!r}"
    return line


def trial_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (2**63)


def fuzz_campaign(cfg: ProbeConfig = DEFAULT_CONFIG) -> CampaignSummary:
    """Generate closed base-type programs and check each against its bound.

    Deterministic in cfg.seed: each trial derives its own printed seed, so
    any single line can be reproduced in isolation.  Budget and overflow
    stops are inconclusive, not failures.  A trial on which the checker
    itself breaks (a denotation error, an evaluation error other than those
    stops, too deep a recursion, or a broken internal assertion) gets the
    verdict "error", with the exception as its detail, and the campaign
    goes on.
    """
    trials: list[Trial] = []
    counts = {"pass": 0, "fail": 0, "inconclusive": 0, "error": 0}
    for k in range(cfg.trials):
        s = trial_seed(cfg.seed, k)
        rng = random.Random(s)
        ty = _BASE_TYPES[_below(rng, 3)]
        program = _gen(rng, cfg.depth, ty, {}, cfg)
        try:
            report = check_program(program, cfg)
        except (DenoteError, EvalError, RecursionError, AssertionError) as exc:
            report = Report(program, "error", None, None, None, None,
                            detail=f"{type(exc).__name__}: {exc}")
        counts[report.status] += 1
        trials.append(Trial(k, s, report))
    return CampaignSummary(cfg, tuple(trials), counts["pass"], counts["fail"],
                           counts["inconclusive"], counts["error"])


# ---------------------------------------------------------------- bound tables

@dataclass(frozen=True)
class SweepArg:
    """The argument position whose potential is swept over a range."""


@dataclass(frozen=True)
class FixedArg:
    """A fixed cost/potential pair standing for an already-built argument."""

    cost: int = 1
    pot: int = 1


@dataclass(frozen=True)
class TermArg:
    """A closed target term supplied as the argument; its translated pair
    is used, so function arguments get honest function potentials."""

    term: Expr


ArgSpec = Union[SweepArg, FixedArg, TermArg]


@dataclass(frozen=True)
class BoundRow:
    n: int
    cost: int
    pot: int


@dataclass(frozen=True)
class BoundTable:
    rows: tuple[BoundRow, ...]

    def costs(self) -> list[int]:
        return [r.cost for r in self.rows]

    def pots(self) -> list[int]:
        return [r.pot for r in self.rows]


def tabulate(e: Expr, args: Sequence[ArgSpec], ns: Sequence[int]) -> BoundTable:
    """Bound cost/potential of applying e to the given arguments, per n.

    Exactly one argument must be a SweepArg; it is modeled as a value
    (cost 1) of potential n.  A FixedArg's cost and potential must be
    nonnegative.  Each application is `sem_apply`, the denotation's one
    application rule: one unit plus both sides' costs plus the body's, which
    matches evaluating `f a1 .. ak` with the function and arguments already
    bound to variables.
    """
    ty = typecheck({}, e)
    if sum(isinstance(a, SweepArg) for a in args) != 1:
        raise ValueError("exactly one argument must be swept")
    doms: list[Ty] = []
    result_ty = ty
    for spec in args:
        if not isinstance(result_ty, ArrowTy):
            raise ValueError(f"too many arguments for type {ty}")
        doms.append(result_ty.dom)
        result_ty = result_ty.cod
    if isinstance(result_ty, ArrowTy):
        raise ValueError(f"result type {result_ty} is a function; supply more arguments")
    for spec, dom in zip(args, doms):
        if isinstance(spec, (SweepArg, FixedArg)) and isinstance(dom, ArrowTy):
            raise ValueError(f"argument of type {dom} needs a term, not a scalar potential")
        if isinstance(spec, TermArg) and typecheck({}, spec.term) != dom:
            raise ValueError(f"argument term does not have type {dom}")
        if isinstance(spec, FixedArg) and min(spec.cost, spec.pot) < 0:
            raise ValueError(f"negative fixed argument {spec.cost},{spec.pot}")

    chi = denote(translate(e))
    # Each argument's pair; None for the swept one, which is (1, n) per row.
    pairs = [SPair(spec.cost, spec.pot) if isinstance(spec, FixedArg)
             else denote(translate(spec.term)) if isinstance(spec, TermArg) else None
             for spec in args]
    rows = []
    for n in ns:
        if n < 0:
            raise ValueError("potentials are nonnegative")
        val = chi
        for arg in pairs:
            val = sem_apply(val, SPair(1, n) if arg is None else arg)
        rows.append(BoundRow(n, val.cost, val.pot))
    return BoundTable(tuple(rows))


# ---------------------------------------------------------------- measured runs

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


def descending_list(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def binary_lists(n: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 lists of length n; adversarial inputs for small n."""
    for bits in range(2**n):
        yield tuple((bits >> i) & 1 for i in range(n))


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
