"""Acceptance gate: one test per stated guarantee, each printing a verdict.

Each test checks one externally visible property at its stated tolerance and
prints `criterion N (<name>): PASS|FAIL` past pytest's output capture, so
the gate stays legible in any run.  Tolerances are exact except where a
criterion allows stated additive slack.
"""

import itertools
import random
import time

import pytest

from conftest import CAMPAIGN_CONFIG, CORPUS, CORPUS_NAMES, corpus_expr
from foldcost.cli import main
from foldcost.complexity import (
    NAT,
    NAT_PAIR,
    ArrowPotTy,
    CNum,
    CPair,
    CVar,
    PFold,
    ProdTy,
    SPair,
    ctypecheck,
    denote,
)
from foldcost.gen import gen_typed_term
from foldcost.harness import FixedArg, SweepArg, TermArg, check_program, tabulate, trial_seed
from foldcost.interp import ArithOverflowError, eval_expr, value_size
from foldcost.parser import parse
from foldcost.syntax import BOOL, INT, INT_LIST, App, ArrowTy
from foldcost.translate import translate, translate_ty
from foldcost.typecheck import typecheck
from oracles import derive, gen_cplx_term, measure_application, semval_le, subst


@pytest.fixture
def verdict(request):
    """Print one criterion verdict line outside the capture, then assert."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def report(num: int, name: str, problems: list) -> None:
        status = "FAIL" if problems else "PASS"
        line = f"criterion {num} ({name}): {status}"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        assert not problems, f"criterion {num} ({name}): " + "; ".join(problems[:5])

    return report


def test_criterion_01_worked_example(verdict):
    problems = []
    e = corpus_expr("case_if")
    check_program(e)  # warm caches so the timing below measures the work
    elapsed = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        result = eval_expr(e)
        chi = denote(translate(e))
        elapsed = min(elapsed, time.perf_counter() - start)
    size = value_size(result.value)
    if result.cost != 9:
        problems.append(f"cost {result.cost} != 9")
    if size != 2:
        problems.append(f"size {size} != 2")
    if not (result.cost <= chi.cost and size <= chi.pot):
        problems.append(f"bound ({chi.cost}, {chi.pot}) does not dominate")
    if elapsed >= 0.001:
        problems.append(f"took {elapsed * 1e3:.2f} ms (limit 1 ms)")
    verdict(1, "worked example: cost 9, size 2, bound dominates", problems)


def test_criterion_02_fuzz_campaign_soundness(verdict, campaign_10k):
    trials, counts, elapsed = campaign_10k
    problems = []
    if len(trials) != 10_000:
        problems.append(f"{len(trials)} trials != 10000")
    if counts["fail"]:
        first = next(t for t in trials if t.report.status == "fail")
        problems.append(
            f"{counts['fail']} violations, first: {first.report.detail} "
            f"in {first.report.program}")
    if counts["error"]:
        first = next(t for t in trials if t.report.status == "error")
        problems.append(
            f"{counts['error']} trials raised in the checker, first: "
            f"{first.report.detail} in {first.report.program}")
    allowed = {"int-overflow", "nat-overflow", "budget-exceeded",
               "all probes hit evaluation limits"}
    for t in trials:
        if t.report.status == "inconclusive" and t.report.detail not in allowed:
            problems.append(f"trial {t.index}: unexpected diagnostic {t.report.detail!r}")
    # Overflow and budget stops prove nothing either way, so top up from
    # reserve seeds until 10,000 programs have been checked conclusively.
    conclusive = counts["pass"]
    index = 10_000
    while conclusive < 10_000 and index < 12_000 and not problems:
        seed = trial_seed(CAMPAIGN_CONFIG.seed, index)
        index += 1
        ty = random.Random(seed).choice((INT, BOOL, INT_LIST))
        report = check_program(
            gen_typed_term(seed, CAMPAIGN_CONFIG.depth, ty), CAMPAIGN_CONFIG)
        if report.status == "fail":
            problems.append(
                f"replacement trial violated the bound: {report.detail} "
                f"in {report.program}")
        elif report.status == "pass":
            conclusive += 1
    if not problems and conclusive < 10_000:
        problems.append(f"only {conclusive} conclusive passes")
    if elapsed >= 60:
        problems.append(f"campaign took {elapsed:.1f} s (limit 60 s)")
    verdict(2, "10000 generated programs within their bounds", problems)


def test_criterion_03_corpus_soundness(verdict):
    problems = []
    start = time.perf_counter()
    ins = corpus_expr("ins")
    h = parse("\\x:int. x + x")
    ins_clo = eval_expr(ins).value
    h_clo = eval_expr(h).value
    plans = {
        "ins": [FixedArg(), SweepArg()],
        "ins_sort": [SweepArg()],
        "map": [TermArg(h), SweepArg()],
        "list_fold": [TermArg(ins), SweepArg(), FixedArg(1, 0)],
    }
    exprs = {name: corpus_expr(name) for name in plans}
    tables = {name: tabulate(exprs[name], args, range(33))
              for name, args in plans.items()}

    def value_args(name, n, xs):
        if name == "ins":
            # insert below and above everything the list can contain
            return [0, xs], [n + 1, xs]
        if name == "ins_sort":
            return ([xs],)
        if name == "map":
            return ([h_clo, xs],)
        return ([ins_clo, xs, ()],)

    def check_input(n, xs):
        for name in plans:
            row = tables[name].rows[n]
            for argv in value_args(name, n, xs):
                got = measure_application(exprs[name], argv)
                size = value_size(got.value)
                if got.cost > row.cost or size > row.pot:
                    problems.append(
                        f"{name} n={n}: measured ({got.cost}, {size}) "
                        f"above bound ({row.cost}, {row.pot})")

    for n in range(9):
        for xs in itertools.product((0, 1), repeat=n):
            check_input(n, xs)
    for n in range(33):
        check_input(n, tuple(range(n, 0, -1)))
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f} s (limit 30 s)")
    verdict(3, "corpus sound on exhaustive 0/1 and descending inputs", problems)


def test_criterion_04_insert_bound_shape(verdict):
    problems = []
    start = time.perf_counter()
    table = tabulate(corpus_expr("ins"), [FixedArg(), SweepArg()], range(65))
    elapsed = time.perf_counter() - start
    costs, pots = [r.cost for r in table.rows], [r.pot for r in table.rows]
    d1 = [b - a for a, b in zip(costs, costs[1:])]
    if any(b - a for a, b in zip(d1, d1[1:])):
        problems.append("cost column is not affine")
    else:
        if d1[0] > 13:
            problems.append(f"slope {d1[0]} > 13")
        # hand-derived intercept is 9 for a unit-cost inserted element;
        # up to 8 additive slack is allowed
        if not 9 <= costs[0] <= 17:
            problems.append(f"intercept {costs[0]} outside [9, 17]")
    if pots != [n + 1 for n in range(65)]:
        problems.append("potential column != n+1")
    if elapsed >= 1:
        problems.append(f"took {elapsed:.2f} s (limit 1 s)")
    verdict(4, "insert bound affine, slope <= 13, potential n+1", problems)


def test_criterion_05_insertion_sort_bound_shape(verdict):
    problems = []
    start = time.perf_counter()
    table = tabulate(corpus_expr("ins_sort"), [SweepArg()], range(65))
    elapsed = time.perf_counter() - start
    costs, pots = [r.cost for r in table.rows], [r.pot for r in table.rows]
    d1 = [b - a for a, b in zip(costs, costs[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    if any(b - a for a, b in zip(d2, d2[1:])):
        problems.append("cost column is not quadratic")
    else:
        if d2[0] % 2:
            problems.append(f"second difference {d2[0]} is odd")
        elif d2[0] // 2 > 13:
            problems.append(f"leading coefficient {d2[0] // 2} > 13")
    if pots != list(range(65)):
        problems.append("potential column != n")
    if elapsed >= 1:
        problems.append(f"took {elapsed:.2f} s (limit 1 s)")
    verdict(5, "sort bound quadratic, leading coefficient <= 13, potential n",
             problems)


def test_criterion_06_map_bound_shape(verdict):
    problems = []
    h = parse("\\x:int. x + x")
    h_pair = denote(translate(h))
    step_cost = h_pair.pot(1).cost  # cost of the mapped function per element
    start = time.perf_counter()
    table = tabulate(corpus_expr("map"), [TermArg(h), SweepArg()], range(65))
    elapsed = time.perf_counter() - start
    costs, pots = [r.cost for r in table.rows], [r.pot for r in table.rows]
    d1 = [b - a for a, b in zip(costs, costs[1:])]
    if any(b - a for a, b in zip(d1, d1[1:])):
        problems.append("cost column is not affine")
    elif d1[0] != 7 + step_cost:
        problems.append(f"slope {d1[0]} != 7 + {step_cost}")
    # hand-derived rows: (7+C)n + 5 + h_c + xs_c, with up to 2 additive slack
    reference = [(7 + step_cost) * n + 5 + h_pair.cost + 1 for n in range(65)]
    if not all(r <= c <= r + 2 for c, r in zip(costs, reference)):
        problems.append("cost rows leave the 2-unit band around the hand count")
    if pots != list(range(65)):
        problems.append("potential column != n")
    if elapsed >= 1:
        problems.append(f"took {elapsed:.2f} s (limit 1 s)")
    verdict(6, "map bound affine with slope 7 + per-element cost", problems)


def test_criterion_07_type_preservation(verdict, campaign_10k):
    trials, _, _ = campaign_10k
    problems = []
    for name in CORPUS_NAMES:
        e = corpus_expr(name)
        if ctypecheck({}, translate(e)) != translate_ty(typecheck({}, e)):
            problems.append(f"{name}: translation changed its type")
    ctx = {"v": INT, "vs": INT_LIST, "f": ArrowTy(INT, INT)}
    cctx = {name: translate_ty(ty) for name, ty in ctx.items()}
    for seed in range(200):
        e = gen_typed_term(seed, 4, INT_LIST, ctx)
        if ctypecheck(cctx, translate(e)) != \
                translate_ty(typecheck(ctx, e)):
            problems.append(f"open term seed {seed}: translation changed its type")
    checked = 0
    for t in trials:
        e = parse(t.report.program)
        if ctypecheck({}, translate(e)) != translate_ty(typecheck({}, e)):
            problems.append(
                f"trial {t.index}: translation changed the type of "
                f"{t.report.program}")
            if len(problems) > 5:
                break
        checked += 1
    if checked != 10_000:
        problems.append(f"only {checked} campaign programs re-checked")
    verdict(7, "translation preserves types on corpus and campaign", problems)


def test_criterion_08_fold_dominates_base(verdict):
    problems = []
    start = time.perf_counter()
    ctys = (NAT_PAIR, ProdTy(ArrowPotTy(NAT, NAT_PAIR)))
    count = 0
    for seed in range(500):
        for j, cty in enumerate(ctys):
            zero = gen_cplx_term(seed, 2, cty)
            succ = gen_cplx_term(seed + 7000 + j, 2, cty,
                                 {"p": NAT, "ps": NAT, "w": cty})
            fold = PFold(CNum(seed % 9), zero, "p", "ps", "w", succ)
            if ctypecheck({}, fold) != cty:
                problems.append(f"seed {seed}: pfold instance failed to typecheck")
                continue
            if denote(zero).cost > denote(fold).cost:
                problems.append(f"seed {seed}: base case cost exceeds the fold's")
            count += 1
    elapsed = time.perf_counter() - start
    if count != 1000:
        problems.append(f"built {count} instances != 1000")
    if elapsed >= 5:
        problems.append(f"took {elapsed:.1f} s (limit 5 s)")
    verdict(8, "1000 fold recurrences dominate their base case", problems)


def test_criterion_09_substitution_commutes(verdict):
    problems = []
    fn_pair = ProdTy(ArrowPotTy(NAT, NAT_PAIR))
    checked = 0

    def agree(got, want, cty):
        if cty == NAT_PAIR:
            return got == want
        return (semval_le(got, want, cty, range(10))
                and semval_le(want, got, cty, range(10)))

    for seed in range(125):
        for cty in (NAT_PAIR, fn_pair):
            # substituting a pair of a numeral and a fresh potential variable
            t = gen_cplx_term(seed, 3, cty, {"x": NAT_PAIR})
            a, q = seed % 7, seed % 5
            subbed = denote(subst(t, {"x": CPair(CNum(a), CVar("y"))}), {"y": q})
            direct = denote(t, {"x": SPair(a, q)})
            if not agree(subbed, direct, cty):
                problems.append(f"seed {seed}: pair substitution at {cty} disagrees")
            checked += 1
            # substituting a closed complexity term
            s = gen_cplx_term(seed + 9000, 2, NAT_PAIR)
            t2 = gen_cplx_term(seed + 3000, 3, cty, {"x": NAT_PAIR})
            if not agree(denote(subst(t2, {"x": s})),
                         denote(t2, {"x": denote(s)}), cty):
                problems.append(f"seed {seed}: closed substitution at {cty} disagrees")
            checked += 1
    if checked != 500:
        problems.append(f"checked {checked} instances != 500")
    verdict(9, "substitution commutes with denotation, 500 instances", problems)


def test_criterion_10_determinism_and_derivation_oracle(verdict, capsys):
    problems = []
    commands = [
        ["fuzz", "--trials", "30", "--seed", "9"],
        ["check", str(CORPUS / "ins.tgt")],
        ["bound", str(CORPUS / "ins.tgt"), "--arg", "1,1", "--sweep",
         "--range", "0:8"],
        ["eval", str(CORPUS / "case_if.tgt")],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        if runs[0] != runs[1]:
            problems.append(f"{argv[0]}: identical runs differ")

    def applied(name, *arg_sources):
        e = corpus_expr(name)
        for src in arg_sources:
            e = App(e, parse(src))
        return e

    corpus_runs = [
        corpus_expr("case_if"),
        applied("ins", "3", "[5, 1]"),
        applied("ins_sort", "[3, 1, 2]"),
        applied("map", "\\x:int. x + x", "[1, 2]"),
        App(App(App(corpus_expr("list_fold"), corpus_expr("ins")),
                parse("[2, 1]")), parse("nil")),
    ]
    for e in corpus_runs:
        typecheck({}, e)
        result = eval_expr(e)
        nodes = derive(e).size()
        if result.cost != nodes:
            problems.append(f"counter {result.cost} != derivation size {nodes}")

    compared, seed = 0, 0
    while compared < 200 and seed < 400:
        for ty in (INT, BOOL, INT_LIST):
            e = gen_typed_term(seed, 4, ty)
            try:
                result = eval_expr(e)
            except ArithOverflowError:
                continue
            if result.cost != derive(e).size():
                problems.append(f"seed {seed}: counter disagrees with derivation")
            compared += 1
        seed += 1
    if compared < 200:
        problems.append(f"compared only {compared} generated programs")
    verdict(10, "seeded reruns byte-identical; cost equals derivation size",
             problems)
