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
is one recursive check over the type, `_check_value`.  Programs come from
`gen`; tables of bounds over a swept argument size come from `tabulate`.

Everything is deterministic given the config seed.  Trials that hit the cost
budget or 64-bit overflow prove nothing either way and are reported as
inconclusive rather than as verdicts.  The harness returns reports, trials
and tables; it formats no text, and `cli` prints every line from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

from .complexity import (
    NAT_MAX, CplxExpr, CplxTypeError, NatOverflowError, SPair, SemVal, ctypecheck, denote,
    sem_apply)
# `gen_typed_term` is re-exported for callers that import it from here.
from .gen import DEFAULT_CONFIG, ProbeConfig, _BASE_TYPES, _below, _gen, gen_typed_term
from .interp import (
    ArithOverflowError,
    BudgetExceededError,
    Value,
    eval_expr,
    render_value,
    value_size,
)
from .syntax import BOOL, INT, INT_LIST, ArrowTy, Expr, Ty, to_source
from .translate import translate, translate_ty
from .typecheck import TypeCheckError, typecheck


class _Violation(Exception):
    """A measured run exceeded its bound; carries the counterexample."""


# A curried function of k arguments gets at least 2 probes per argument, so
# at least 2^k probe vectors.  When that floor alone is over this many (or
# over `trials`, if more) the plan is refused: the check is inconclusive.
# A plan whose size comes from `trials` itself is never refused.
MAX_PROBE_VECTORS = 4096


class _TooManyProbes(Exception):
    """The smallest probe plan for a function type exceeds MAX_PROBE_VECTORS."""


# ---------------------------------------------------------------- bounding checks

def check_program(e: Expr, cfg: ProbeConfig = DEFAULT_CONFIG) -> "Report":
    """Check a closed program of any type against its translated bound.

    The run's cost is compared with the bound's cost, and its value with the
    bound's potential by the bounding relation, which probes function-typed
    results.  When only the bound overflows 64 bits, the verdict is
    inconclusive and the run's cost is still reported, unless the run stops
    too.
    """
    ty = typecheck({}, e)
    cplx = _checked_translation(e, ty)
    result = None
    try:
        chi = denote(cplx)
        result = eval_expr(e, budget=cfg.budget)
        if result.cost > chi.cost:
            return Report(e, "fail", result.cost, chi.cost,
                          detail=f"cost {result.cost} > bound {chi.cost}")
        size, pot = (None, None) if isinstance(ty, ArrowTy) else (value_size(result.value), chi.pot)
        try:
            checked, skipped = _check_value(result.value, chi.pot, ty, cfg)
        except _Violation as v:
            return Report(e, "fail", result.cost, chi.cost, size, pot, detail=str(v))
        except _TooManyProbes as exc:
            return Report(e, "inconclusive", result.cost, chi.cost,
                          detail=str(exc), probes_checked=0, probes_skipped=0)
        if not isinstance(ty, ArrowTy):
            return Report(e, "pass", result.cost, chi.cost, size, pot)
        if checked == 0:
            return Report(e, "inconclusive", result.cost, chi.cost,
                          detail="all probes hit evaluation limits",
                          probes_checked=checked, probes_skipped=skipped)
        return Report(e, "pass", result.cost, chi.cost,
                      probes_checked=checked, probes_skipped=skipped)
    except BudgetExceededError:
        return Report(e, "inconclusive", detail="budget-exceeded")
    except ArithOverflowError:
        return Report(e, "inconclusive", detail="int-overflow")
    except NatOverflowError:
        cost = result.cost if result is not None else _run_cost(e, cfg)
        return Report(e, "inconclusive", cost, detail="nat-overflow")


def _checked_translation(e: Expr, ty: Ty) -> CplxExpr:
    """e's translation, once `ctypecheck` gives it the type ty translates to."""
    cplx = translate(e)
    cty = ctypecheck({}, cplx)
    if cty != translate_ty(ty):
        raise AssertionError(f"translation changed the type: {cty} vs {translate_ty(ty)}")
    return cplx


def _run_cost(e: Expr, cfg: ProbeConfig) -> int | None:
    """The cost of running e, or None if the run stops at a limit."""
    try:
        return eval_expr(e, budget=cfg.budget).cost
    except (BudgetExceededError, ArithOverflowError):
        return None


@dataclass(frozen=True)
class Report:
    """Outcome of checking one program, `expr`, against its translated
    bound; its text, `program`, is printed on first read."""

    expr: Expr
    status: str  # "pass" | "fail" | "inconclusive" | "error"
    cost: int | None = None
    bound_cost: int | None = None
    size: int | None = None
    pot: int | None = None
    detail: str = ""
    probes_checked: int | None = None
    probes_skipped: int | None = None

    @cached_property
    def program(self) -> str:
        return to_source(self.expr)


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
        if size > pot:
            at = "" if arg is None else f"at argument {render_value(arg)}: "
            raise _Violation(f"{at}size {size} > potential {pot!r}")
        return 1, 0
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
            value, cost = eval_expr(v.body, {**v.env, v.param: z}, cfg.budget)
        except (BudgetExceededError, ArithOverflowError):
            skipped += 1
            continue
        out = pot(q)
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
    terms, run and paired with their own translated potentials, with no
    `typecheck` or `ctypecheck` per probe: `gen` draws well-typed terms by
    construction, which `test_generated_terms_are_closed_and_well_typed`
    pins.
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
        else:  # an arrow
            term = _gen(rng, min(cfg.depth, 3), dom, {}, cfg)
            value = eval_expr(term, budget=cfg.budget).value
            yield value, denote(translate(term)).pot


# ---------------------------------------------------------------- fuzz campaign

@dataclass(frozen=True)
class Trial:
    """Campaign trial `index`, drawn from `seed`, and its report."""

    index: int
    seed: int
    report: Report


def trial_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (2**63)


def campaign_trials(cfg: ProbeConfig = DEFAULT_CONFIG) -> Iterator[Trial]:
    """Generate closed base-type programs and check each against its bound,
    yielding each trial as it ends.

    Deterministic in cfg.seed: each trial derives its own printed seed, so
    any single line can be reproduced in isolation.  Budget and overflow
    stops are inconclusive, not failures.  A trial on which the checker
    itself breaks (a generated program that `typecheck` rejects, a
    translation that `ctypecheck` rejects, too deep a recursion, or a broken
    internal assertion) gets the verdict "error", with the exception as its
    detail, and the campaign goes on.
    """
    for k in range(cfg.trials):
        s = trial_seed(cfg.seed, k)
        rng = random.Random(s)
        ty = _BASE_TYPES[_below(rng, 3)]
        program = _gen(rng, cfg.depth, ty, {}, cfg)
        try:
            report = check_program(program, cfg)
        except (TypeCheckError, CplxTypeError, RecursionError, AssertionError) as exc:
            report = Report(program, "error", detail=f"{type(exc).__name__}: {exc}")
        yield Trial(k, s, report)


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
    """The bound's cost and potential at swept potential n."""

    n: int
    cost: int
    pot: int


@dataclass(frozen=True)
class BoundTable:
    """A bound's rows, one per swept n."""

    rows: tuple[BoundRow, ...]


def tabulate(e: Expr, args: Sequence[ArgSpec], ns: Sequence[int]) -> BoundTable:
    """Bound cost/potential of applying e to the given arguments, per n.

    Exactly one argument must be a SweepArg; it is modeled as a value
    (cost 1) of potential n.  Each n, and a FixedArg's cost and potential,
    must be a natural in 0..NAT_MAX.  Each application is `sem_apply`, the
    denotation's one application rule: one unit plus both sides' costs plus
    the body's, which matches evaluating `f a1 .. ak` with the function and
    arguments already bound to variables.
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
        if isinstance(spec, FixedArg) and max(spec.cost, spec.pot) > NAT_MAX:
            raise ValueError(f"fixed argument {spec.cost},{spec.pot} is over {NAT_MAX}")

    chi = denote(_checked_translation(e, ty))
    # Each argument's pair; None for the swept one, which is (1, n) per row.
    pairs = [SPair(spec.cost, spec.pot) if isinstance(spec, FixedArg)
             else denote(_checked_translation(spec.term, dom)) if isinstance(spec, TermArg)
             else None
             for spec, dom in zip(args, doms)]
    rows = []
    for n in ns:
        if n < 0:
            raise ValueError("potentials are nonnegative")
        if n > NAT_MAX:
            raise ValueError(f"potential {n} is over {NAT_MAX}")
        val = chi
        for arg in pairs:
            val = sem_apply(val, SPair(1, n) if arg is None else arg)
        rows.append(BoundRow(n, val.cost, val.pot))
    return BoundTable(tuple(rows))
