"""Property harness: generators, probing, campaigns, bound tables."""

import ast
import hashlib
import importlib
import itertools
import json
import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from typing import Iterator

import pytest

from conftest import (
    CAMPAIGN_CONFIG, CORPUS, CORPUS_NAMES, PROBE_TYPES, campaign, corpus_expr, count_sem_max,
    open_bodies)
import foldcost
from foldcost import gen, harness
from foldcost.cli import main, totals_line, trial_line
from foldcost.complexity import (
    NAT,
    NAT_PAIR,
    ArrowPotTy,
    CLam,
    CNum,
    CPair,
    CplxExpr,
    CplxTypeError,
    CVar,
    NatOverflowError,
    PFold,
    ProdTy,
    SPair,
    ctypecheck,
    denote,
    sem_apply,
    sem_max,
)
from foldcost.gen import ProbeConfig, gen_typed_term
from foldcost.harness import (
    FixedArg,
    SweepArg,
    TermArg,
    check_program,
    tabulate,
    trial_seed,
)
from foldcost.harness import MAX_PROBE_VECTORS, _probes_per_level
from foldcost.interp import (
    DEFAULT_BUDGET, ArithOverflowError, BudgetExceededError, eval_expr, render_value,
    value_size)
from foldcost.parser import parse
from foldcost.syntax import (
    BOOL, INT, INT_LIST, INT_MAX, ArrowTy, BoolLit, Case, Expr, Fold, If, IntLit, Lam, Nil, Var,
    to_source)
from foldcost.translate import pot_ty, translate
from foldcost.typecheck import TypeCheckError, typecheck
from oracles import (
    canonical_semval, check_value_bounded, free_vars, gen_cplx_term, measure_application, names,
    semval_le, subst)

GEN_TYPES = (INT, BOOL, INT_LIST, ArrowTy(INT, INT), ArrowTy(INT_LIST, INT_LIST))


# ---------------------------------------------------------------- generation


def test_generated_terms_are_closed_and_well_typed():
    for seed in range(40):
        for ty in GEN_TYPES:
            e = gen_typed_term(seed, 4, ty)
            assert typecheck({}, e) == ty


def test_generated_terms_respect_a_context():
    ctx = {"v": INT, "vs": INT_LIST}
    for seed in range(40):
        e = gen_typed_term(seed, 3, INT_LIST, ctx)
        assert typecheck(ctx, e) == INT_LIST


def test_generation_is_deterministic_and_diverse():
    once = [to_source(gen_typed_term(s, 4, INT)) for s in range(150)]
    again = [to_source(gen_typed_term(s, 4, INT)) for s in range(150)]
    assert once == again
    assert len(set(once)) >= 100


_NAME_FIELDS = {Var: ("name",), Lam: ("param",), Case: ("head", "tail"),
                Fold: ("head", "tail", "acc")}


def _leaves(e, out):
    """Collect e's nil, boolean and integer literals, its variables, and its
    binder and variable names, keyed by kind and value."""
    t = type(e)
    if t is Nil or t is BoolLit or t is IntLit:
        out.setdefault((t.__name__, getattr(e, "value", None)), []).append(e)
    if t is Var:
        out.setdefault(("Var", e.name), []).append(e)
    for field in _NAME_FIELDS.get(t, ()):
        out.setdefault(("name", getattr(e, field)), []).append(getattr(e, field))
    for child in vars(e).values():
        if isinstance(child, Expr):
            _leaves(child, out)
    return out


# sha256 of `to_source` of criterion 2's first 2,000 programs (one per
# line), drawn as `campaign_trials` draws them, recorded before the draws
# stopped going through `random.choice` and `random.randrange`.
CAMPAIGN_DRAWS_SHA256 = "65d8a64a07f235a3c4f9c731875ed69925e030f3f6d4fd20f40728ef7af0aeb2"


def test_campaign_draws_are_frozen(monkeypatch):
    # Every check raises, so each trial is an error verdict that keeps its
    # program and nothing is checked.
    def refuse(e, cfg):
        raise AssertionError("not checked")

    monkeypatch.setattr(harness, "check_program", refuse)
    trials, _ = campaign(replace(CAMPAIGN_CONFIG, trials=2_000))
    text = "".join(t.report.program + "\n" for t in trials)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CAMPAIGN_DRAWS_SHA256


# sha256 of the (value, potential) stream `_probe_args` yields for each
# `PROBE_TYPES` domain, 100 draws at seed 0, recorded with the same rule as
# the campaign draws above.  A closure is written as its parameter, body and
# environment, and its potential by its results at 0..4.
PROBE_DRAWS_SHA256 = "c39cbae500eaf3036b11f86eebbd2979279e3357fa7583d9af5a1e92f6090ba3"


def _draw_line(value, pot) -> str:
    if callable(pot):
        env = ",".join(f"{k}={render_value(v)}" for k, v in sorted(value.env.items()))
        results = " ".join(f"{r.cost},{r.pot}" for r in map(pot, range(5)))
        return f"\\{value.param}. {to_source(value.body)} [{env}] {results}\n"
    return f"{type(value).__name__} {render_value(value)} {pot}\n"


def test_probe_draws_are_frozen():
    h = hashlib.sha256()
    for ty in PROBE_TYPES:
        draws = harness._probe_args(ty.dom, 100, ProbeConfig(), random.Random(0))
        for value, pot in draws:
            h.update(_draw_line(value, pot).encode("utf-8"))
    assert h.hexdigest() == PROBE_DRAWS_SHA256


@pytest.mark.parametrize("knobs", [{"int_lo": 1, "int_hi": 0}, {"max_list": -1}])
def test_empty_draw_ranges_are_refused(knobs):
    with pytest.raises(ValueError, match="empty literal or list-length range"):
        ProbeConfig(**knobs)


def test_sources_parse_as_python_3_10():
    # The nearest check of Python 3.10 support that a newer interpreter
    # allows, and the one private method of `random` that the draws use.
    root = CORPUS.parent
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    assert callable(random.Random._randbelow)


def _imported_names(path) -> set[str]:
    """Dotted names a source file imports, with each `from` import also
    giving module.name and a relative import read inside `foldcost`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"foldcost.{module}" if module else "foldcost"
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_modules_import_by_layer():
    # The generator sits below the checker, only the front ends import the
    # checker, only the command line formats JSON, and the library imports
    # nothing from its tests.
    root = CORPUS.parent
    imports = {p.stem: _imported_names(p) for p in sorted((root / "src").rglob("*.py"))}
    assert "foldcost.gen" in imports["harness"]
    assert not {"foldcost.harness", "foldcost.cli"} & imports["gen"]
    assert sorted(m for m, names in imports.items() if "foldcost.harness" in names) == [
        "__init__", "cli"]
    assert [m for m, names in imports.items() if "json" in names] == ["cli"]
    for module, names in imports.items():
        assert not {n.split(".")[0] for n in names} & {"tests", "conftest", "oracles"}, module


def _referenced_names(tree) -> set[str]:
    """Names a syntax tree reads, imports or takes as an attribute, and the
    functions `spans.WRAP_POINTS` names by string; text in strings and
    docstrings is not read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id == "WRAP_POINTS"):
            names.update(point.elts[1].value for point in node.value.elts)
    return names


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_src_defines_nothing_only_tests_reach():
    # Each top-level name in the library is used by another library module,
    # by another statement of its own module or by the benchmark, and each
    # export by the command line or the benchmark.  Code that only tests
    # reach belongs in `tests/oracles.py`.
    root = CORPUS.parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((root / "src" / "foldcost").glob("*.py"))}
    bench = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                          for p in sorted((root / "perfbench").glob("*.py"))))
    unused = []
    for module, tree in trees.items():
        outside = bench.union(*(_referenced_names(t) for m, t in trees.items()
                                if m not in (module, "__init__")))
        for stmt in tree.body:
            used = outside.union(*(_referenced_names(s) for s in tree.body if s is not stmt))
            unused += [f"{module}.{name}" for name in _defined_names(stmt)
                       if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
    front = bench | _referenced_names(trees["cli"])
    assert [name for name in foldcost.__all__ if name not in front] == ["__version__"]


def test_denotation_raises_only_overflow_and_budget_errors():
    # `denote` is defined on well-typed input only, and `ctypecheck` is the
    # one type checker, so the code that runs at denotation time raises
    # nothing but a natural past NAT_MAX and a pfold over the budget.  A
    # check of a value's shape there would be a second type checker.
    tree = ast.parse((CORPUS.parent / "src" / "foldcost" / "complexity.py").read_text(
        encoding="utf-8"))
    runtime = {"denote", "sem_max", "sem_apply", "_stage", "_stage_branches", "_stage_under",
               "_charged", "_memoised"}
    defs = [s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name in runtime]
    assert {d.name for d in defs} == runtime
    raised = {ast.unparse(n.exc.func if isinstance(n.exc, ast.Call) else n.exc) if n.exc else "raise"
              for d in defs for n in ast.walk(d) if isinstance(n, ast.Raise)}
    assert raised == {"NatOverflowError", "BudgetExceededError"}


def test_evaluation_raises_only_budget_and_overflow_errors():
    # `eval_expr` is defined on programs that `typecheck` accepts only, and
    # `typecheck` is the one type checker of the target language, so the
    # code that runs at evaluation time raises nothing but a run over its
    # budget and an integer past 64 bits.  A test of a value's type there
    # would be a second type checker.
    tree = ast.parse((CORPUS.parent / "src" / "foldcost" / "interp.py").read_text(
        encoding="utf-8"))
    runtime = {"eval_expr", "_eval", "_checked"}
    defs = [s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name in runtime]
    assert {d.name for d in defs} == runtime
    raised = {ast.unparse(n.exc.func if isinstance(n.exc, ast.Call) else n.exc) if n.exc else "raise"
              for d in defs for n in ast.walk(d) if isinstance(n, ast.Raise)}
    assert raised == {"BudgetExceededError", "ArithOverflowError"}


def _subterm_paths(e: object, base: type) -> list[tuple[str, ...]]:
    """The path of field names to every subterm of e, e's own first."""
    paths = [()]
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, base):
            paths += [(f.name, *p) for p in _subterm_paths(v, base)]
    return paths


def _replaced(e: object, path: tuple[str, ...], new: object) -> object:
    if not path:
        return new
    return replace(e, **{path[0]: _replaced(getattr(e, path[0]), path[1:], new)})


def test_each_checker_is_exactly_its_layers_precondition():
    # `ctypecheck` is the one gate in front of `denote`, and `typecheck` the
    # one in front of evaluation and checking: on any term, well typed or
    # not, the gate raises only its own type error, and on what it accepts
    # `denote` raises only the limits its docstring names, and
    # `check_program` nothing.  The terms are well-typed ones with one
    # subterm replaced by a leaf of either language.
    rng = random.Random(35)

    def leaf(choices: list[str]) -> object:
        k = rng.randrange(4)
        return rng.choice([
            CNum(k), CPair(CNum(k), CNum(1)), CLam("u9", NAT, CVar("u9")),
            CVar(rng.choice(choices)), IntLit(k - 1), BoolLit(k > 1), Nil(),
            Lam("v0", INT, Var("v0")), Var(rng.choice(choices))])

    def mutants(e: object, base: type) -> Iterator[object]:
        choices = sorted(names(e)) + ["zz"]
        for path in _subterm_paths(e, base):
            yield _replaced(e, path, leaf(choices))

    terms = [gen_cplx_term(seed, 3, cty) for seed in range(120)
             for cty in (NAT_PAIR, ProdTy(ArrowPotTy(NAT, NAT_PAIR)), NAT)]
    programs = [gen_typed_term(seed, 3, GEN_TYPES[seed % 5]) for seed in range(750)]
    terms += [translate(e) for e in programs[:400]]
    accepted = 0
    for e in terms:
        for m in mutants(e, CplxExpr):
            try:
                ctypecheck({}, m)
            except CplxTypeError:
                continue
            accepted += 1
            try:
                denote(m)
            except (NatOverflowError, BudgetExceededError):
                pass
    assert accepted >= 2500
    cfg, accepted = ProbeConfig(trials=3, depth=2), 0
    for e in programs:
        for m in mutants(e, Expr):
            try:
                typecheck({}, m)
            except TypeCheckError:
                continue
            accepted += 1
            check_program(m, cfg)
    assert accepted >= 1500


def test_benchmark_entry_points_exist():
    # The benchmark imports names from `foldcost`, calls the library through
    # `foldcost.<name>` and wraps the functions named in `spans.WRAP_POINTS`.
    # Its files are read, not run, so a deleted or renamed entry point fails
    # here and not first in a benchmark run.
    wanted = set()
    for path in sorted((CORPUS.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("foldcost"):
                wanted.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "foldcost"):
                wanted.add(("foldcost", node.attr))
            elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and node.target.id == "WRAP_POINTS"):
                wanted.update((point.elts[0].value, point.elts[1].value)
                              for point in node.value.elts)
    assert {("foldcost.harness", "gen_typed_term"), ("foldcost", "tabulate"),
            ("foldcost.harness", "denote")} <= wanted
    missing = [f"{module}.{name}" for module, name in sorted(wanted)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_generated_programs_share_their_leaves():
    first, second = {}, {}
    for seed in range(30):
        for ty in GEN_TYPES:
            _leaves(gen_typed_term(seed, 4, ty), first)
            _leaves(gen_typed_term(seed + 1000, 4, ty), second)
    common = first.keys() & second.keys()
    for key in common:
        assert all(x is first[key][0] for x in first[key] + second[key]), key
    assert {("Nil", None), ("BoolLit", True), ("BoolLit", False)} <= common
    assert {("IntLit", n) for n in range(-9, 10)} <= common
    assert sum(kind == "name" for kind, _ in common) >= 5
    assert sum(kind == "Var" for kind, _ in common) >= 5
    # Shared leaves stay immutable, the fieldless `nil` included.
    for key in [("BoolLit", True), ("IntLit", 3), ("Nil", None)]:
        with pytest.raises(FrozenInstanceError):
            first[key][0].value = 0
    with pytest.raises(FrozenInstanceError):
        next(v for (kind, _), v in first.items() if kind == "Var")[0].name = "w"
    # A literal outside the default range gets a node of its own.
    wide = gen._gen(random.Random(0), 0, INT, {}, ProbeConfig(int_lo=100, int_hi=100))
    assert wide == IntLit(100) and wide is not gen._gen(
        random.Random(0), 0, INT, {}, ProbeConfig(int_lo=100, int_hi=100))


# ---------------------------------------------------------------- value bounding


def test_base_values_bounded_exactly():
    cfg = ProbeConfig()
    assert check_value_bounded(7, 1, INT, cfg)
    assert not check_value_bounded(7, 0, INT, cfg)
    assert check_value_bounded(False, 1, BOOL, cfg)
    assert check_value_bounded((1, 2, 3), 3, INT_LIST, cfg)
    assert not check_value_bounded((1, 2, 3), 2, INT_LIST, cfg)
    assert check_value_bounded((), 0, INT_LIST, cfg)


def test_closure_bounding_probes_the_body():
    clo = eval_expr(parse("\\x:int. x + x")).value
    cfg = ProbeConfig()
    # Body costs 4 (two lookups plus the checked addition).
    assert check_value_bounded(clo, lambda q: SPair(4, 1), ArrowTy(INT, INT), cfg)
    assert not check_value_bounded(clo, lambda q: SPair(3, 1), ArrowTy(INT, INT), cfg)
    # Understating the result's potential also fails.
    grow = eval_expr(parse("\\l:int*. 0 :: l")).value
    ok = lambda q: SPair(4, q + 1)
    low = lambda q: SPair(4, q)
    assert check_value_bounded(grow, ok, ArrowTy(INT_LIST, INT_LIST), cfg)
    assert not check_value_bounded(grow, low, ArrowTy(INT_LIST, INT_LIST), cfg)
    # A budget too small for any probe checks nothing: neither verdict.
    assert check_value_bounded(
        clo, lambda q: SPair(4, 1), ArrowTy(INT, INT), ProbeConfig(budget=1)) is None


# ---------------------------------------------------------------- program reports


def test_report_prints_its_program_on_first_read(monkeypatch):
    calls = []
    real = harness.to_source

    def counting(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(harness, "to_source", counting)
    e = corpus_expr("case_if")
    r = check_program(e)
    assert r.status == "pass" and calls == []
    assert r.program == real(e) and r.program == real(e)
    assert calls == [e]


def test_base_program_report_is_frozen():
    r = check_program(corpus_expr("case_if"))
    assert (r.status, r.cost, r.bound_cost, r.size, r.pot) == ("pass", 9, 11, 2, 2)
    assert r.probes_checked is None and r.probes_skipped is None


def test_function_program_reports_probe_counts():
    # ~trials probe vectors total, spread across the arrow spine.
    expected = {"ins": 100, "ins_sort": 100, "map": 100, "list_fold": 125}
    for name, probes in expected.items():
        r = check_program(corpus_expr(name))
        assert r.status == "pass", (name, r.detail)
        assert (r.cost, r.bound_cost) == (1, 1)
        assert (r.probes_checked, r.probes_skipped) == (probes, 0), name


def test_probes_run_through_the_wrapped_eval_expr(monkeypatch):
    # The benchmark traces evaluation by wrapping `harness.eval_expr`, so
    # the program's run and every probe of its closure must be calls of it.
    calls = []
    real = harness.eval_expr

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "eval_expr", counting)
    r = check_program(corpus_expr("ins_sort"))
    assert r.status == "pass" and r.probes_checked == 100
    assert len(calls) == 1 + r.probes_checked + r.probes_skipped


# The sha256 of check_program's report fields (status, cost, bound, size,
# pot, probes checked and skipped, detail; tab-separated, one line per
# program) on 25 generated programs of each probe type at depth 4, recorded
# before the tree walkers dispatched on exact node types.
PROBE_REPORTS_SHA256 = "8206680c31a61bd706f5315ee7adfb50814e3d561bae44212c3746adc673556d"


def test_probe_reports_are_frozen():
    text = ""
    for ty in PROBE_TYPES:
        for seed in range(25):
            r = check_program(gen_typed_term(seed, 4, ty))
            fields = (r.status, r.cost, r.bound_cost, r.size, r.pot,
                      r.probes_checked, r.probes_skipped, r.detail)
            text += "\t".join("" if v is None else str(v) for v in fields) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PROBE_REPORTS_SHA256


def test_function_typed_roots_pass_or_are_inconclusive():
    # 1,000 function-typed roots, 250 of each probe type: probing finds no
    # counterexample and nothing raises.
    for ty in PROBE_TYPES:
        for seed in range(1000, 1250):
            e = gen_typed_term(seed, 4, ty)
            r = check_program(e)
            assert r.status in ("pass", "inconclusive"), (to_source(e), r.detail)


# sha256 of the function-typed denotations of those 1,000 roots: each
# root's potential applied at 0..8 through `sem_apply`, every curried
# argument at the same q, one "cost pot" line (or the error) per
# application; recorded before constants and projections were fused in
# staging.
FUNCTION_DENOTATIONS_SHA256 = "1006ec4103955f83066da05d42dace4220d82bbc41c262b6177789c0483f2742"


def _saturate(v, cty, q):
    while isinstance(cty, ArrowPotTy):
        v = sem_apply(v, canonical_semval(ProdTy(cty.dom), q))
        cty = cty.cod.pot
    return v


def test_function_typed_denotations_are_frozen():
    h = hashlib.sha256()
    for ty in PROBE_TYPES:
        for seed in range(1000, 1250):
            root = denote(translate(gen_typed_term(seed, 4, ty)))
            for q in range(9):
                try:
                    v = _saturate(root, pot_ty(ty), q)
                    line = f"{v.cost} {v.pot}\n"
                except NatOverflowError as err:
                    line = f"{type(err).__name__}: {err}\n"
                h.update(line.encode("utf-8"))
    assert h.hexdigest() == FUNCTION_DENOTATIONS_SHA256


def test_function_typed_roots_pass_with_loose_probe_potentials(monkeypatch):
    # The bounding relation quantifies over every potential at least an
    # argument's size, not only the exact one: the same 1,000 roots pass
    # when each base probe's potential is raised by a seeded 0..2.  The
    # extra is drawn from its own generator, so the probe values stay the
    # same.
    real = harness._probe_args
    extra = random.Random(0)
    raised = 0

    def loose(dom, count, cfg, rng):
        nonlocal raised
        for value, pot in real(dom, count, cfg, rng):
            if type(pot) is int:
                k = extra.randrange(3)
                raised += k > 0
                pot += k
            yield value, pot

    monkeypatch.setattr(harness, "_probe_args", loose)
    for ty in PROBE_TYPES:
        for seed in range(1000, 1250):
            e = gen_typed_term(seed, 4, ty)
            r = check_program(e)
            assert r.status in ("pass", "inconclusive"), (to_source(e), r.detail)
    assert raised > 10_000


def _curried(k):
    return parse("".join(f"\\x{i}:int. " for i in range(k)) + "1")


def test_probe_vector_cap():
    # Two probes per argument at least: 2^12 vectors fit the cap, 2^13 do not.
    assert MAX_PROBE_VECTORS == 2**12
    r = check_program(_curried(12))
    assert (r.status, r.probes_checked, r.probes_skipped) == ("pass", 2**12, 0)
    for k, detail in [(13, "too many probe vectors: 2^13 > 4096"),
                      (40, "too many probe vectors: 2^40 > 4096")]:
        e = _curried(k)
        r = check_program(e)
        assert (r.status, r.detail, r.cost, r.bound_cost) == ("inconclusive", detail, 1, 1)
        assert (r.probes_checked, r.probes_skipped) == (0, 0)
        pot = denote(translate(e)).pot
        assert check_value_bounded(eval_expr(e).value, pot, typecheck({}, e)) is None
    # A plan asked for by `trials` is never refused, even where rounding
    # the per-level count puts it above `trials`: round(5000 ** 0.5) = 71
    # and 71^2 = 5041; round(2000 ** 0.125) = 3 and 3^8 = 6561.
    for e, trials, probes in [(parse("\\x:int. x"), 5000, 5000),
                              (_curried(2), 5000, 71**2),
                              (parse("\\x:int. \\l:int*. x :: l"), 5000, 71**2),
                              (_curried(8), 2000, 3**8)]:
        r = check_program(e, ProbeConfig(trials=trials))
        assert (r.status, r.probes_checked) == ("pass", probes), to_source(e)


def test_probe_budget_split():
    assert _probes_per_level(100, 1) == 100
    assert _probes_per_level(100, 2) == 10
    assert _probes_per_level(100, 3) == 5
    assert _probes_per_level(2, 5) == 2
    assert _probes_per_level(1, 1) == 1


def test_inconclusive_budget_and_overflow():
    r = check_program(parse("1 + 2"), ProbeConfig(budget=3))
    assert (r.status, r.detail) == ("inconclusive", "budget-exceeded")
    r = check_program(parse(f"{INT_MAX} + 1"))
    assert (r.status, r.detail) == ("inconclusive", "int-overflow")
    # A budget too small for any probe leaves a function unjudged.
    r = check_program(parse("\\x:int. x + x"), ProbeConfig(budget=1))
    assert (r.status, r.detail) == ("inconclusive", "all probes hit evaluation limits")
    assert (r.probes_checked, r.probes_skipped) == (0, 100)


def _charge_one_less(pot):
    return lambda q: (lambda out: SPair(out.cost - 1, out.pot))(pot(q))


def _one_less_potential(pot):
    return lambda q: (lambda out: SPair(out.cost, out.pot - 1))(pot(q))


def _inner_charge_one_less(pot):
    return lambda q: (lambda out: SPair(out.cost, _charge_one_less(out.pot)))(pot(q))


def _cost_one_less(chi):
    return SPair(chi.cost - 1, chi.pot)


@pytest.mark.parametrize("source, shrink, budget, expected", [
    ("1 :: 2 :: nil", lambda p: p - 1, None,
     ("fail", "size 2 > potential 1", 5, 5, 2, 1, None, None)),
    ("\\x:int. x + x", _charge_one_less, None,
     ("fail", "at argument 3: body cost 4 > bound 3", 1, 1, None, None, None, None)),
    ("\\l:int*. 0 :: l", _one_less_potential, None,
     ("fail", "at argument [4,-8,-1,7,6,3]: size 7 > potential 6",
      1, 1, None, None, None, None)),
    # The outer probe argument is 3; only the innermost one is named.
    ("\\x:int. \\y:int. x + y", _inner_charge_one_less, None,
     ("fail", "at argument 4: body cost 4 > bound 3", 1, 1, None, None, None, None)),
    ("\\x:int. x + x", _charge_one_less, 1,
     ("inconclusive", "all probes hit evaluation limits", 1, 1, None, None, 0, 100)),
    ("\\f:int -> int. f 1", _charge_one_less, None,
     ("fail", "at argument <fun>: body cost 7 > bound 6", 1, 1, None, None, None, None)),
    ("1 :: 2 :: nil", _cost_one_less, None,
     ("fail", "cost 5 > bound 4", 5, 4, None, None, None, None)),
    ("\\b:bool. if b then 1 else 2 + 3", _charge_one_less, None,
     ("fail", "at argument false: body cost 6 > bound 5", 1, 1, None, None, None, None)),
])
def test_violation_reports_are_frozen(monkeypatch, source, shrink, budget, expected):
    # Only the checked program's bound is weakened; probe arguments that are
    # functions keep their true potentials.
    program = parse(source)
    target = translate(program)
    real = harness.denote

    def weakened(e, env=None):
        chi = real(e, env)
        if e != target:
            return chi
        # _cost_one_less lowers the root's cost; every other shrink, its potential.
        return shrink(chi) if shrink is _cost_one_less else SPair(chi.cost, shrink(chi.pot))

    monkeypatch.setattr(harness, "denote", weakened)
    cfg = ProbeConfig() if budget is None else ProbeConfig(budget=budget)
    r = check_program(program, cfg)
    assert (r.status, r.detail, r.cost, r.bound_cost, r.size, r.pot,
            r.probes_checked, r.probes_skipped) == expected


def test_bool_argument_is_probed():
    r = check_program(parse("\\b:bool. if b then 1 else 2 + 3"))
    assert (r.status, r.probes_checked, r.probes_skipped) == ("pass", 100, 0)


# ---------------------------------------------------------------- campaigns


def test_trial_seed_is_frozen():
    assert [trial_seed(0, k) for k in range(4)] == [0, 1, 2, 3]
    assert trial_seed(3, 5) == 3_000_014
    assert trial_seed(2**62, 1) == (2**62 * 1_000_003 + 1) % 2**63


PASS_LINE = re.compile(
    r"^trial=\d+ seed=\d+ cost=\d+ bound=\d+ size=(\d+|None) pot=(\d+|None) verdict=pass$")
INCONCLUSIVE_LINE = re.compile(r"^trial=\d+ seed=\d+ error=.+ verdict=inconclusive$")
SUMMARY_LINE = re.compile(r"^passed=\d+ failed=\d+ inconclusive=\d+ trials=\d+$")


def campaign_lines(trials, counts, as_json: bool = False) -> list[str]:
    """The lines `fuzz` prints for a campaign's trials and verdict counts."""
    return [trial_line(t, as_json) for t in trials] + [totals_line(counts, as_json)]


def fuzz_lines(capsys, *argv: str) -> list[str]:
    main(["fuzz", *argv])
    return capsys.readouterr().out.splitlines()


def test_small_campaign_shape_and_determinism(capsys):
    cfg = ProbeConfig(trials=40, depth=4, seed=0)
    trials, counts = campaign(cfg)
    assert counts["pass"] + counts["fail"] + counts["inconclusive"] == 40
    assert counts["fail"] == 0
    assert [t for t in trials if t.report.status == "fail"] == []
    for t in trials:
        assert t.seed == trial_seed(0, t.index)
    lines = fuzz_lines(capsys, "--trials", "40", "--depth", "4", "--seed", "0")
    assert lines == campaign_lines(trials, counts)
    assert SUMMARY_LINE.match(lines[-1])
    for line in lines[:-1]:
        assert PASS_LINE.match(line) or INCONCLUSIVE_LINE.match(line), line
    assert fuzz_lines(capsys, "--trials", "40", "--depth", "4", "--seed", "0") == lines


JOINS = re.compile(r"\b(if|case|fold)\b")


def test_join_free_campaign_trials_are_exact(campaign_10k):
    # Without a branch or a fold the translation takes no max, so the bound
    # is the measured cost and the potential is the result's size, with or
    # without lambdas.
    trials, _, _ = campaign_10k
    join_free = [t.report for t in trials if not JOINS.search(t.report.program)]
    assert len(join_free) == 2_500
    assert sum("\\" in r.program for r in join_free) == 57
    for r in join_free:
        assert (r.status, r.bound_cost, r.pot) == ("pass", r.cost, r.size), r.program


@pytest.mark.parametrize("exc", [
    CplxTypeError("expected a cost/potential pair, got N"),
    TypeCheckError("unbound variable: ghost"),
    RecursionError("maximum recursion depth exceeded"),
    AssertionError("translation changed the type"),
], ids=lambda exc: type(exc).__name__)
def test_campaign_records_an_error_verdict_and_goes_on(monkeypatch, exc):
    cfg = ProbeConfig(trials=6, depth=3, seed=4)
    clean, clean_counts = campaign(cfg)
    real = harness.check_program
    calls = 0

    def check(e, cfg):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise exc
        return real(e, cfg)

    monkeypatch.setattr(harness, "check_program", check)
    trials, counts = campaign(cfg)
    assert (counts["pass"], counts["fail"], counts["inconclusive"], counts["error"]) == (
        clean_counts["pass"] - (clean[2].report.status == "pass"), clean_counts["fail"],
        clean_counts["inconclusive"] - (clean[2].report.status == "inconclusive"), 1)
    trial = trials[2]
    detail = f"{type(exc).__name__}: {exc}"
    assert (trial.index, trial.seed) == (2, trial_seed(4, 2))
    assert (trial.report.status, trial.report.detail) == ("error", detail)
    assert trial.report.program == clean[2].report.program
    lines, clean_lines = campaign_lines(trials, counts), campaign_lines(clean, clean_counts)
    assert lines[2] == (f"trial=2 seed={trial.seed} verdict=error detail={detail!r} "
                        f"program={trial.report.program!r}")
    assert lines[:2] + lines[3:-1] == clean_lines[:2] + clean_lines[3:-1]
    assert lines[-1].endswith(" errors=1 trials=6")
    rows = [json.loads(line) for line in campaign_lines(trials, counts, as_json=True)]
    assert rows[2]["verdict"] == "error" and rows[2]["detail"] == detail
    assert rows[-1]["errors"] == 1


def test_campaign_json_lines(capsys):
    _, counts = campaign(ProbeConfig(trials=20, depth=3, seed=7))
    lines = fuzz_lines(capsys, "--trials", "20", "--depth", "3", "--seed", "7", "--json")
    rows = [json.loads(line) for line in lines]
    assert rows[-1] == {
        "passed": counts["pass"],
        "failed": counts["fail"],
        "inconclusive": counts["inconclusive"],
        "trials": 20,
    }
    for row in rows[:-1]:
        assert row["verdict"] in ("pass", "fail", "inconclusive")
        if row["verdict"] != "pass":
            assert "program" in row and "detail" in row


# ---------------------------------------------------------------- bound tables


def closed_forms():
    yield "ins", [FixedArg(), SweepArg()], lambda n: (12 * n + 11, n + 1)
    yield "ins_sort", [SweepArg()], lambda n: (6 * n * n + 7 * n + 6, n)
    yield "map", [TermArg(parse("\\x:int. x + x")), SweepArg()], lambda n: (11 * n + 9, n)
    yield ("list_fold",
           [TermArg(corpus_expr("ins")), SweepArg(), FixedArg(1, 0)],
           lambda n: (6 * n * n + 7 * n + 12, n))


def test_tabulated_bounds_match_closed_forms():
    ns = range(17)
    for name, args, form in closed_forms():
        table = tabulate(corpus_expr(name), args, ns)
        for row in table.rows:
            assert (row.cost, row.pot) == form(row.n), (name, row)
        assert [r.cost for r in table.rows] == [form(n)[0] for n in ns]
        assert [r.pot for r in table.rows] == [form(n)[1] for n in ns]


# sha256 of the "n cost pot" lines of the benchmark's four sweep plans over
# 0..64, recorded before closed lambdas were memoised.
SWEEP_SHA256 = {
    "ins": "a26919ceccac08e09d93675de4d6c777aefe8bfe120ed48b651bd44b061b6ff2",
    "ins_sort": "22dd955c95c95167291ac3cc72f1a139a00fb5e653ddfdeebf663eeba14af8ee",
    "map": "672a1e63177395f25e5c3c6ac689e37e8653f0dd154bf4cbc57c2f06c4446860",
    "list_fold": "2600e838c169419ee9f6b624d6a8e6c24a807e47bc9cc6cbf994669d28f1f487",
}


def test_sweep_rows_are_frozen():
    for name, args, _ in closed_forms():
        rows = tabulate(corpus_expr(name), args, range(65)).rows
        text = "".join(f"{r.n} {r.cost} {r.pot}\n" for r in rows)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEEP_SHA256[name], name


def test_insertion_sort_bound_stays_quadratic_to_300():
    # The quadratic through rows 0..64, by finite differences, must give every
    # row up to 300.  Unmemoised, the inlined `ins` makes this sweep cubic.
    table = tabulate(corpus_expr("ins_sort"), [SweepArg()], range(301))
    costs = [r.cost for r in table.rows]
    c0, d1, d2 = costs[0], costs[1] - costs[0], costs[2] - 2 * costs[1] + costs[0]
    fit = [c0 + d1 * n + d2 * n * (n - 1) // 2 for n in range(301)]
    assert costs[:65] == fit[:65]
    assert costs == fit
    assert [r.pot for r in table.rows] == list(range(301))


@pytest.mark.parametrize("name", ["list_fold", "ins_sort"])
def test_sweep_remembers_closed_potential_functions(monkeypatch, name):
    # Each pfold step calls sem_max once.  Each 0..64 sweep makes 8,128 calls
    # when a closed lambda is built once per denotation and remembers its
    # results: list_fold's root and its `ins` argument, ins_sort's root and
    # its inlined `ins`.  Re-running `ins` at every fold step of every row
    # makes 133,120.
    args, form = next((args, form) for n, args, form in closed_forms() if n == name)
    count_sem_max(monkeypatch, 10_000)
    table = tabulate(corpus_expr(name), args, range(65))
    assert (table.rows[-1].cost, table.rows[-1].pot) == form(64)


def test_tabulate_argument_validation():
    ident = parse("\\x:int. x")
    with pytest.raises(ValueError, match="exactly one argument must be swept"):
        tabulate(ident, [SweepArg(), SweepArg()], [1])
    with pytest.raises(ValueError, match="exactly one argument must be swept"):
        tabulate(ident, [FixedArg()], [1])
    with pytest.raises(ValueError, match="too many arguments"):
        tabulate(ident, [SweepArg(), FixedArg()], [1])
    with pytest.raises(ValueError, match="supply more arguments"):
        tabulate(parse("\\f:int -> int. \\l:int*. l"), [SweepArg()], [1])
    with pytest.raises(ValueError, match="needs a term, not a scalar"):
        tabulate(corpus_expr("map"), [FixedArg(), SweepArg()], [1])
    with pytest.raises(ValueError, match="argument term does not have type"):
        tabulate(corpus_expr("map"), [TermArg(parse("nil")), SweepArg()], [1])
    with pytest.raises(ValueError, match="nonnegative"):
        tabulate(ident, [SweepArg()], [-1])
    ins = corpus_expr("ins")
    with pytest.raises(ValueError, match="negative fixed argument -7,1"):
        tabulate(ins, [FixedArg(-7, 1), SweepArg()], [0])
    with pytest.raises(ValueError, match="negative fixed argument 1,-5"):
        tabulate(ins, [SweepArg(), FixedArg(1, -5)], [0])


def test_tabulate_confirms_each_argument_translation(monkeypatch):
    # `denote` is defined on what `ctypecheck` accepts only, so a term
    # argument's translation is confirmed as the root's is.  A translation
    # that lost the argument's function type stops the table before it is
    # denoted.
    double = parse("\\x:int. x + x")
    real = harness.translate
    monkeypatch.setattr(harness, "translate",
                        lambda e: real(IntLit(3)) if e is double else real(e))
    with pytest.raises(AssertionError, match="translation changed the type: N x N vs "):
        tabulate(corpus_expr("map"), [TermArg(double), SweepArg()], [1])


def test_measured_cost_matches_identity_bound():
    ident = parse("\\x:int. x")
    row = tabulate(ident, [SweepArg()], [1]).rows[0]
    measured = measure_application(ident, [5])
    assert (row.cost, row.pot) == (4, 1)
    assert measured.cost == 4
    assert (type(measured.value), measured.value) == (int, 5)


def test_measured_runs_stay_under_tabulated_bounds():
    table = tabulate(corpus_expr("ins"), [FixedArg(), SweepArg()], range(9))
    for n in range(9):
        for xs in itertools.product((0, 1), repeat=n):
            got = measure_application(corpus_expr("ins"), [1, xs])
            row = table.rows[n]
            assert got.cost <= row.cost
            assert len(got.value) <= row.pot


def test_corpus_bounds_equal_the_worst_measured_runs():
    """Each corpus plan's bound is attained, not just respected: at every n
    in 0..64 its row equals the measured cost and size on the ascending
    list `tuple(range(n))`, and for n <= 8 the largest over every 0/1 list
    (for `ins`, over inserting 0 and 1).  The witness family is ascending
    lists because on them every `x <= y` in `ins` holds, so each step takes
    the costlier branch, the one the bound's join keeps.  A charge raised by
    one unit on the worst run breaks the equality, which a one-sided check
    cannot see."""
    ins, double = corpus_expr("ins"), parse("\\x:int. x + x")
    ins_clo, double_clo = eval_expr(ins).value, eval_expr(double).value
    # Per plan: the argument specs and the measured arguments for a list xs.
    plans = {
        "ins": ([FixedArg(1, 1), SweepArg()], lambda xs: [[0, xs], [1, xs]]),
        "ins_sort": ([SweepArg()], lambda xs: [[xs]]),
        "map": ([TermArg(double), SweepArg()], lambda xs: [[double_clo, xs]]),
        "list_fold": ([TermArg(ins), SweepArg(), FixedArg(1, 0)],
                      lambda xs: [[ins_clo, xs, ()]]),
    }
    for name, (specs, argvs) in plans.items():
        e = corpus_expr(name)

        def worst(lists):
            runs = [measure_application(e, argv) for xs in lists for argv in argvs(xs)]
            return max(r.cost for r in runs), max(value_size(r.value) for r in runs)

        for row in tabulate(e, specs, range(65)).rows:
            assert (row.cost, row.pot) == worst([tuple(range(row.n))]), (name, row.n)
            if row.n <= 8:
                assert (row.cost, row.pot) == worst(
                    itertools.product((0, 1), repeat=row.n)), (name, row.n)


# ---------------------------------------------------------------- rule-local checks


def _rule_template(kind: str, rng: random.Random, ty) -> Expr:
    """`fold a of (z, [y, ys, w] s)` or `case a of (z, [y, ys] s)`, with z
    and s generated over a free `a : int*`, a free `c : int` and the branch
    binders; or `if b then s else t`, with s and t generated over `a`, `c`
    and a free `b : bool`."""
    ctx = {"a": INT_LIST, "c": INT}
    if kind == "if":
        ctx["b"] = BOOL
        then = gen._gen(rng, 3, ty, ctx, gen.DEFAULT_CONFIG)
        return If(Var("b"), then, gen._gen(rng, 3, ty, ctx, gen.DEFAULT_CONFIG))
    zero = gen._gen(rng, 3, ty, ctx, gen.DEFAULT_CONFIG)
    ctx.update(y=INT, ys=INT_LIST)
    if kind == "case":
        return Case(Var("a"), zero, "y", "ys", gen._gen(rng, 3, ty, ctx, gen.DEFAULT_CONFIG))
    ctx["w"] = ty
    return Fold(Var("a"), zero, "y", "ys", "w", gen._gen(rng, 3, ty, ctx, gen.DEFAULT_CONFIG))


@pytest.mark.parametrize("kind", ["case", "fold", "if"])
def test_rule_bounds_hold_under_loose_hypotheses(kind):
    """The Soundness Theorem's induction grants a construct's subterms any
    bounding pair, not only the tightest one a closed program produces.  So
    the scrutinee `a`, a list of length n in 0..3, is bounded by (1, n + k)
    for every k in 0..3, and each of these 16 hypotheses must bound the run;
    an `if` template runs once with `b` true and once false, bounded by
    (1, 1).  A `pfold` or `pcase` that drops its join with the zero branch
    fails here on 31 and 158 of the 300 bodies; the campaign's root check
    catches them in 0 and 1 of 300 programs."""
    skipped = 0
    tests = (True, False) if kind == "if" else (True,)
    for seed in range(20000, 20300):
        e = _rule_template(kind, random.Random(seed), gen._BASE_TYPES[seed % 3])
        bound = translate(e)
        for n, b in itertools.product(range(4), tests):
            try:
                value, cost = eval_expr(e, {"a": tuple(range(n)), "c": 3, "b": b}, DEFAULT_BUDGET)
            except (ArithOverflowError, BudgetExceededError):
                skipped += 1
                continue
            for k in range(4):
                chi = denote(bound, {"a": SPair(1, n + k), "c": SPair(1, 1), "b": SPair(1, 1)})
                assert cost <= chi.cost and value_size(value) <= chi.pot, (
                    to_source(e), n, k, cost, chi)
    assert skipped <= 4  # one run overflows


# ---------------------------------------------------------------- lemma probes


def test_canonical_semvals_inhabit_their_types():
    assert canonical_semval(NAT, 3) == 3
    assert canonical_semval(NAT_PAIR, 2) == SPair(2, 2)
    f = canonical_semval(ArrowPotTy(NAT, NAT_PAIR), 3)
    assert f(5) == SPair(8, 8)
    assert f(SPair(2, 2)) == SPair(4, 4)


def test_semval_le_orders_values():
    assert semval_le(3, 3, NAT) and semval_le(3, 4, NAT) and not semval_le(4, 3, NAT)
    assert semval_le(SPair(3, 3), SPair(4, 3), NAT_PAIR)
    assert not semval_le(SPair(5, 3), SPair(4, 9), NAT_PAIR)
    fty = ArrowPotTy(NAT, NAT_PAIR)
    lo = lambda q: SPair(q, 1)
    hi = lambda q: SPair(q + 1, 1)
    assert semval_le(lo, hi, fty)
    assert not semval_le(hi, lo, fty)


def test_generated_complexity_terms_are_well_typed():
    ctys = (NAT, NAT_PAIR, ArrowPotTy(NAT, NAT_PAIR), ProdTy(ArrowPotTy(NAT, NAT_PAIR)))
    for seed in range(30):
        for cty in ctys:
            t = gen_cplx_term(seed, 3, cty)
            assert ctypecheck({}, t) == cty
            denote(t)  # closed terms denote without error


def test_max_is_an_upper_bound():
    for seed in range(60):
        a = denote(gen_cplx_term(seed, 3, NAT_PAIR))
        b = denote(gen_cplx_term(seed + 1000, 3, NAT_PAIR))
        m = sem_max(a, b)
        assert semval_le(a, m, NAT_PAIR)
        assert semval_le(b, m, NAT_PAIR)


def test_fold_recurrence_dominates_its_base():
    for seed in range(40):
        zero = gen_cplx_term(seed, 2, NAT_PAIR)
        succ = gen_cplx_term(seed + 500, 2, NAT_PAIR,
                             {"p": NAT, "ps": NAT, "w": NAT_PAIR})
        for k in (0, 1, 5):
            fold = PFold(CNum(k), zero, "p", "ps", "w", succ)
            assert ctypecheck({}, fold) == NAT_PAIR
            assert denote(zero).cost <= denote(fold).cost


def test_denotation_is_monotone_in_a_free_variable():
    # The weakening lemma: raising a free variable's cost or potential never
    # lowers the denotation, so a probe at an argument's exact size stands
    # for every looser potential.
    ctys = (NAT, NAT_PAIR, ProdTy(ArrowPotTy(NAT, NAT_PAIR)))
    for seed in range(1000):
        cty = ctys[seed % 3]
        t = gen_cplx_term(seed, 3, cty, {"x": NAT_PAIR})
        c, p = seed % 4, seed % 5
        low = denote(t, {"x": SPair(c, p)})
        for raised in (SPair(c + 1, p), SPair(c, p + 1), SPair(c + 3, p + 2)):
            assert semval_le(low, denote(t, {"x": raised}), cty), (seed, raised)


def test_denotation_is_monotone_in_a_free_function():
    """The weakening lemma at function type: raising a free `f : N x (N ->
    N x N)`'s cost, or its results pointwise, never lowers the denotation.
    The lemma holds only for monotone potentials, so the base `q |-> (1, 2q)`
    is monotone; with `q |-> (q % 3, q + 1)` two of these comparisons fail."""
    fty = ProdTy(ArrowPotTy(NAT, NAT_PAIR))
    ctys = (NAT, NAT_PAIR, fty)
    base = lambda q: SPair(1, 2 * q)
    mentions = 0
    for seed in range(1000):
        cty = ctys[seed % 3]
        t = gen_cplx_term(seed, 3, cty, {"f": fty})
        mentions += "f" in free_vars(t)
        c = seed % 4
        low = denote(t, {"f": SPair(c, base)})
        raisings = [SPair(c + 1, base)] + [
            SPair(c, lambda q, dc=dc, dp=dp: SPair(1 + dc, 2 * q + dp))
            for dc, dp in ((1, 0), (0, 1), (2, 3))]
        for i, raised in enumerate(raisings):
            assert semval_le(low, denote(t, {"f": raised}), cty), (seed, i)
    assert mentions >= 250  # 270 of the 1,000 terms use f


def test_translation_is_monotone_in_its_free_variables():
    """The weakening lemma over translations of open programs, which are
    written in `CCons`, `COp`, `CIf`, `CCase` and `CFold`, nodes that
    `gen_cplx_term` never builds: raising the potential of a free `a : int*`
    from 0 to 5, or the cost of `a` or of a free `c : int`, never lowers the
    bound's cost or potential.  A `pfold` that drops its join with the zero
    branch fails here on 3 of the 300 bodies, and a `pcase` that does on 16."""
    for body in open_bodies():
        bound = translate(body)
        last = SPair(0, 0)
        for k in range(6):
            env = {"a": SPair(1, k), "c": SPair(1, 1)}
            chi = denote(bound, env)
            for low, high in [(last, chi), (chi, denote(bound, {**env, "a": SPair(2, k)})),
                              (chi, denote(bound, {**env, "c": SPair(2, 1)}))]:
                assert low.cost <= high.cost and low.pot <= high.pot, (to_source(body), k, low, high)
            last = chi


def test_substitution_commutes_with_denotation():
    for seed in range(40):
        s = gen_cplx_term(seed + 2000, 2, NAT_PAIR)
        t = gen_cplx_term(seed, 3, NAT_PAIR, {"x": NAT_PAIR})
        assert denote(subst(t, {"x": s})) == denote(t, {"x": denote(s)})
