"""Translation to recurrences: shapes, branch binding, size, substitution,
preservation."""

import hashlib
import importlib
import random
import sys
import time
from collections import Counter

import pytest

from conftest import CORPUS_NAMES, OPEN_BODY_CTX, campaign_programs, corpus_expr, open_bodies
from foldcost.complexity import (
    LIT_PAIR,
    NAT,
    NAT_PAIR,
    NIL_PAIR,
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
    CVar,
    PCase,
    PFold,
    PotOf,
    ProdTy,
    SPair,
    StarApp,
    _stage,
    cplx_to_source,
    ctypecheck,
    denote,
)
from foldcost import gen, syntax
from foldcost.gen import ProbeConfig, gen_typed_term
from foldcost.harness import check_program
from foldcost.parser import parse
from foldcost.syntax import (
    BOOL, INT, INT_LIST, ArrowTy, Case, Expr, Fold, Lam, Nil, Var, to_source)
from foldcost.translate import pot_ty, translate, translate_ty
from foldcost.typecheck import TypeCheckError, typecheck
from oracles import expand_derived, free_vars, gen_cplx_term, names, subst

# ---------------------------------------------------------------- types


def test_type_translation():
    assert pot_ty(INT) == NAT
    assert pot_ty(BOOL) == NAT
    assert pot_ty(INT_LIST) == NAT
    assert translate_ty(INT) is NAT_PAIR  # shared, not rebuilt
    assert translate_ty(ArrowTy(INT, INT_LIST)) == ProdTy(ArrowPotTy(NAT, NAT_PAIR))
    # The domain contributes only its potential; the codomain a full pair.
    assert pot_ty(ArrowTy(ArrowTy(INT, INT), INT)) == \
        ArrowPotTy(ArrowPotTy(NAT, NAT_PAIR), NAT_PAIR)
    assert translate_ty(ArrowTy(INT, INT)) == ProdTy(ArrowPotTy(NAT, NAT_PAIR))


# ---------------------------------------------------------------- shapes


def test_leaf_translations():
    assert translate(parse("x")) == CVar("x")
    assert translate(parse("7")) == CPair(CNum(1), CNum(1))
    assert translate(parse("true")) == CPair(CNum(1), CNum(1))
    assert translate(parse("nil")) == CPair(CNum(1), CNum(0))


def test_operator_translations():
    # An operator and a cons are one node each, printed as their expansions;
    # a compound tail is read in place, with no `let`.
    x = CVar("x")
    assert translate(parse("x + x")) == COp(x, x)
    assert translate(parse("x < x")) == COp(x, x)
    assert translate(parse("x :: t")) == CCons(x, CVar("t"))
    assert translate(parse("x :: 1 :: t")) == CCons(x, CCons(LIT_PAIR, CVar("t")))
    assert cplx_to_source(translate(parse("x < x"))) == "(2 + (x_c + x_c), 1)"
    assert cplx_to_source(translate(parse("x :: t"))) == "(1 + (x_c + t_c), 1 + t_p)"


def test_lambda_translation():
    assert translate(parse("\\x:int. x + x")) == CLam("x", NAT, COp(CVar("x"), CVar("x")))
    assert translate(parse("f y")) == StarApp(CVar("f"), CVar("y"))


def test_if_translation_joins_branches():
    # One node, which stands for the charge of the test on the joined branches.
    lit = CPair(CNum(1), CNum(1))
    e = translate(parse("if true then 1 else 0"))
    assert e == CIf(lit, lit, lit)
    assert expand_derived(e) == Charge(CPlus(CNum(1), CostOf(lit)), CMax(lit, lit))


def test_case_translation_substitutes_potential_pairs():
    ts = CVar("xs")
    e = translate(parse("case xs of (nil, [h, t] t)"))
    assert e == CCase(ts, CPair(CNum(1), CNum(0)), "p", "ps", CPair(CNum(1), CVar("ps")))
    # A variable scrutinee is read in place by both projections, with no `let`.
    inner = PCase(PotOf(ts), CPair(CNum(1), CNum(0)), "p", "ps", CPair(CNum(1), CVar("ps")))
    assert expand_derived(e) == Charge(CPlus(CNum(1), CostOf(ts)), inner)


def test_fold_translation_binds_accumulator():
    e = translate(parse("fold xs of (nil, [h, t, w] h :: w)"))
    assert isinstance(e, CFold)
    assert e.w == "w"
    # Head occurrences become (1, p); the accumulator stays a variable.
    assert e.succ == CCons(CPair(CNum(1), CVar("p")), CVar("w"))
    # A compound scrutinee is named by a `let` in the expansion.
    e = translate(parse("fold [1] of (nil, [h, t, w] w)"))
    x = expand_derived(e)
    assert type(x) is CLet and x.name == "$s" and type(x.body.pair) is PFold


def test_fold_accumulator_shadows_head_binding():
    # When the accumulator reuses the head's name, occurrences refer to the
    # accumulator, not to the substituted (1, p) pair.
    e = parse("fold [1, 2] of (nil, [h, t, h] h)")
    cplx = translate(e)
    assert ctypecheck({}, cplx) == translate_ty(typecheck({}, e))
    report = check_program(e, ProbeConfig())
    assert report.status == "pass"


def test_lambda_parameter_shadows_head_binding():
    # Under a lambda that rebinds the head's name, occurrences refer to the
    # parameter, not to the branch's (1, p) pair.
    lam = translate(parse("case xs of (\\h:int. h, [h, t] \\h:int. h)")).succ
    assert lam == CLam("h", NAT, CVar("h"))


def test_branch_variables_fresh_against_branch_body():
    # A branch that already uses p/ps forces primed replacements.
    e = parse("case xs of (0, [h, t] h + p)")
    cplx = translate(e)
    assert isinstance(cplx, CCase)
    assert cplx.p == "p'"
    assert cplx.ps == "ps"
    assert ctypecheck(
        {"xs": NAT_PAIR, "p": NAT_PAIR}, cplx) == NAT_PAIR


# ---------------------------------------------------------------- size


def tree_size(e: Expr | CplxExpr, limit: int) -> int:
    """Nodes of a term of either language counted as a tree, a node reached
    twice counted twice; the count stops once it passes limit."""
    count, todo = 0, [e]
    while todo and count <= limit:
        count += 1
        todo.extend(v for v in vars(todo.pop()).values() if isinstance(v, (Expr, CplxExpr)))
    return count


@pytest.mark.parametrize("n, source, bound", [
    (150, "[" + ", ".join(["1"] * 150) + "]", (301, 150)),
    (40, "if true then " * 40 + "0" + " else 0" * 40, (81, 1)),
], ids=["list-150", "if-40"])
def test_translation_grows_linearly(n, source, bound):
    # A cons node reads its tail once, and a charge reads every if's joined
    # branches once, so the recurrence grows by a constant per list element
    # or nested if.
    cplx = translate(parse(source))
    assert tree_size(cplx, 20 * n) <= 20 * n
    assert ctypecheck({}, cplx) == NAT_PAIR
    assert denote(cplx) == SPair(*bound)


def test_translation_shares_constant_leaves():
    # Every literal's pair (1, 1) and every numeral is one shared node, so a
    # list of n literals holds far fewer distinct nodes than tree nodes (at
    # n = 150, 154 of 603: one cons node per element and the two shared
    # pairs with their numerals), and its potential type is the one NAT_PAIR.
    cplx = translate(parse("[" + ", ".join(["1"] * 150) + "]"))
    tree, ids, todo = 0, set(), [cplx]
    literal_pairs, numerals = [], []
    while todo:
        node = todo.pop()
        tree += 1
        ids.add(id(node))  # cplx keeps every node alive
        if node == CPair(CNum(1), CNum(1)):
            literal_pairs.append(node)
        if type(node) is CNum:
            numerals.append(node)
        todo.extend(v for v in vars(node).values() if isinstance(v, CplxExpr))
    assert len(ids) < 2 * tree // 3
    assert len(literal_pairs) == 150
    assert all(pair is literal_pairs[0] for pair in literal_pairs)
    assert len({id(n) for n in numerals}) == 2  # 0, in the nil pair, and 1
    assert ctypecheck({}, cplx) is NAT_PAIR


def test_literals_and_nil_translate_to_the_shared_pairs():
    assert translate(parse("1")) is LIT_PAIR
    assert translate(parse("true")) is LIT_PAIR
    assert translate(parse("nil")) is NIL_PAIR


def test_translations_take_only_the_fused_shapes():
    # Each target node translates to one complexity node, so translations
    # hold none of the core nodes `+`, `_c`, `_p`, `+_c`, `let`, `max`,
    # `pcase` and `pfold`, and `_stage` and `ctypecheck` need no fast path
    # for them.  `_stage` stages `LIT_PAIR` and `NIL_PAIR` to shared
    # closures, so the pair of two other numerals serves no translation.
    # Over the corpus and criterion 2's first 2,000 programs, walked as
    # trees, these are the node counts; the 27,726 `1 + e_c` charges that
    # the ifs, cases and folds were spelled out with before are the sum of
    # the last three.
    programs = [corpus_expr(name) for name in CORPUS_NAMES] + list(campaign_programs())
    shapes: Counter[str] = Counter()
    for e in programs:
        todo = [translate(e)]
        while todo:
            node = todo.pop()
            t = type(node)
            shapes[t.__name__] += 1
            if t is CPair and type(node.cost) is CNum and type(node.pot) is CNum:
                assert node is LIT_PAIR or node is NIL_PAIR, cplx_to_source(node)
            todo.extend(v for v in vars(node).values() if isinstance(v, CplxExpr))
    assert shapes == {
        "CNum": 212_868, "CPair": 114_517, "CCons": 32_268, "CVar": 22_663, "COp": 22_229,
        "CLam": 11_621, "CIf": 9_603, "StarApp": 9_060, "CFold": 9_244, "CCase": 8_879}


def _denotes(t: CplxExpr, env=None):
    """t's denotation under env, a potential function as its results at 0,
    1 and 2, or its error's class and text."""
    def tabulated(v):
        if type(v) is SPair:
            return v.cost, tabulated(v.pot)
        return [tabulated(v(q)) for q in range(3)] if callable(v) else v

    try:
        return tabulated(denote(t, env))
    except Exception as err:  # overflow or budget, the same on both sides
        return type(err), str(err)


def test_translations_denote_as_their_expansions():
    # Over the corpus and criterion 2's first 2,000 programs, a translation
    # type-checks, denotes and prints as it does with every derived node
    # (cons, operator, if, case and fold) written out (`expand_derived`),
    # which is how they were translated before.
    # `test_campaign_translations_are_frozen` pins the printed text of 300.
    programs = [corpus_expr(name) for name in CORPUS_NAMES] + list(campaign_programs())
    derived = 0
    for e in programs:
        t = translate(e)
        x = expand_derived(t)
        derived += x != t
        assert ctypecheck({}, t) == ctypecheck({}, x)
        assert _denotes(t) == _denotes(x), to_source(e)
        assert cplx_to_source(t) == cplx_to_source(x)
    assert derived > 1500
    # Open bodies, with a free list `a` of potential k and a free int `c`,
    # run the derived nodes' closures on environments no closed program
    # makes.
    ctx = {name: translate_ty(ty) for name, ty in OPEN_BODY_CTX.items()}
    for e in open_bodies():
        t = translate(e)
        x = expand_derived(t)
        assert ctypecheck(ctx, t) == ctypecheck(ctx, x)
        for k in range(6):
            env = {"a": SPair(1, k), "c": SPair(1, 1)}
            assert _denotes(t, env) == _denotes(x, env), (to_source(e), k)


def test_translations_hold_few_distinct_nodes():
    # Distinct complexity nodes per translation, as the benchmark's
    # `dag_nodes` counts them, over the corpus and criterion 2's first 2,000
    # programs: 67.6 on average; 126.4 with every if, case and fold spelled
    # out in core nodes, and 276.5 with every cons and operator too.
    programs = [corpus_expr(name) for name in CORPUS_NAMES] + list(campaign_programs())
    total = 0
    for e in programs:
        seen, todo = set(), [translate(e)]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(v for v in vars(node).values() if isinstance(v, CplxExpr))
        total += len(seen)
    assert total / len(programs) <= 75


def test_branch_translation_keeps_sharing():
    # Every occurrence of h translates to one pair (1, p); inside a cons
    # branch a chain of ifs over h must still grow by a constant per level.
    depth = 12
    body = "h"
    for _ in range(depth):
        body = f"if true then {body} else h"
    e = parse(f"case [1] of (0, [h, t] {body})")
    cplx = translate(e)
    assert tree_size(cplx, 20 * depth) < 20 * depth
    assert ctypecheck({}, cplx) == NAT_PAIR
    assert check_program(e).status == "pass"


def test_csubst_capture_avoiding():
    # Substituting a term that mentions y under a y-binder renames the binder.
    body = CPlus(CostOf(CVar("x")), CostOf(CVar("y")))
    lam = CLam("y", NAT, CPair(body, CNum(0)))
    out = subst(lam, {"x": CVar("y")})
    assert out.param == "y'"
    assert out.body == CPair(CPlus(CostOf(CVar("y")), CostOf(CVar("y'"))), CNum(0))


def test_csubst_binders_shadow():
    lam = CLam("x", NAT, CostOf(CVar("x")))
    assert subst(lam, {"x": CNum(9)}) == lam


def test_csubst_renamed_binder_avoids_binding_keys():
    # Renaming y to y' would let the y' binding be substituted into it.
    lam = CLam("y", NAT, CPlus(CostOf(CVar("x")), CostOf(CVar("y"))))
    out = subst(lam, {"x": CVar("y"), "y'": CPair(CNum(5), CNum(5))})
    assert out == CLam("y''", NAT, CPlus(CostOf(CVar("y")), CostOf(CVar("y''"))))


def test_csubst_renames_let_binder():
    # x's replacement mentions y, so the let's y is renamed; else the y
    # read by x_p would mean the let's (2, 5).
    t = CLet("y", CPair(CNum(2), CNum(5)),
             CPair(CPlus(CostOf(CVar("y")), PotOf(CVar("x"))), PotOf(CVar("y"))))
    out = subst(t, {"x": CPair(CNum(4), CVar("y"))})
    assert out.name == "y'"
    assert denote(out, {"y": 7}) == denote(t, {"x": SPair(4, 7)}) == SPair(9, 5)


def test_substitution_lemma_where_binders_would_capture():
    # gen_cplx_term names its binders u1, u2, ... under a context of one
    # name, so substituting a pair over u1, u2 or u3 for x must rename the
    # binders it meets; else the lemma fails.
    ctys = (NAT, NAT_PAIR, ProdTy(ArrowPotTy(NAT, NAT_PAIR)))
    renamed = 0
    for seed in range(300):
        t = gen_cplx_term(seed, 3, ctys[seed % 3], {"x": NAT_PAIR})
        y = f"u{seed % 3 + 1}"
        out = subst(t, {"x": CPair(CNum(2), CVar(y))})
        renamed += f"{y}'" in repr(out)
        for q in (0, 3):
            got, want = denote(out, {y: q}), denote(t, {"x": SPair(2, q)})
            if seed % 3 == 2:  # compare potential functions at a few arguments
                got, want = [(v.cost, [v.pot(n) for n in range(4)]) for v in (got, want)]
            assert got == want, cplx_to_source(t)
    assert renamed > 100


def test_subst_renames_every_clashing_binder():
    # Both languages go through one substitution: each binder free in the
    # substituted term is renamed, and only those.
    fold = PFold(CVar("n"), CVar("z"), "p", "ps", "w",
                 CPair(CPlus(CostOf(CVar("w")), CVar("ps")), CVar("p")))
    out = subst(fold, {"z": CPair(CVar("p"), CVar("w")), "n": CNum(3)})
    assert out == PFold(CNum(3), CPair(CVar("p"), CVar("w")), "p'", "ps", "w'",
                        CPair(CPlus(CostOf(CVar("w'")), CVar("ps")), CVar("p'")))
    e = parse("fold xs of (y, [h, t, w] h :: w)")
    assert to_source(subst(e, {"y": parse("h :: t"), "xs": parse("nil")})) == \
        "fold nil of (h :: t, [h', t', w] h' :: w)"


@pytest.mark.parametrize("term", [5, "x", None, INT, NAT, SPair(1, 1)], ids=repr)
def test_free_vars_and_subst_reject_non_terms(term):
    with pytest.raises(TypeError):
        free_vars(term)
    with pytest.raises(TypeError):
        subst(term, {"x": CNum(1)})


def test_free_variables_agree_across_layers():
    # The binder declarations that free_vars reads, translate's binding of
    # branch variables, and the free-variable sets _stage collects (which
    # decide the lambdas it hoists) must all agree.
    ctx = {"x": INT, "xs": INT_LIST, "f": ArrowTy(INT, INT), "p": INT}
    for seed in range(2000):
        e = gen_typed_term(seed, 4, (INT, BOOL, INT_LIST, ArrowTy(INT, INT))[seed % 4], ctx)
        t = translate(e)
        staged: set[str] = set()
        _stage(t, staged)
        assert free_vars(t) == free_vars(e) == staged, to_source(e)
    ctys = (NAT, NAT_PAIR, ProdTy(ArrowPotTy(NAT, NAT_PAIR)))
    for seed in range(1000):
        t = gen_cplx_term(seed, 3, ctys[seed % 3], {"x": NAT_PAIR, "y": NAT})
        staged = set()
        _stage(t, staged)
        assert free_vars(t) == staged, cplx_to_source(t)


def test_substitution_lemma_on_translations():
    # denote(t[x := (a, y)], y := q) = denote(t, x := (a, q)) over open
    # translated programs, whose if nodes and case and fold binders
    # substitution must enter.
    branches = ifs = 0
    for seed in range(150):
        ty = (INT, BOOL, INT_LIST)[seed % 3]
        e = gen_typed_term(seed, 4, ty, {"x": INT})
        t = translate(e)
        text = repr(t)
        branches += text.count("CCase(") + text.count("CFold(")
        ifs += text.count("CIf(")
        for a, q in ((1, 0), (3, 4)):
            lhs = denote(subst(t, {"x": CPair(CNum(a), CVar("y"))}), {"y": q})
            assert lhs == denote(t, {"x": SPair(a, q)}), to_source(e)
    assert branches > 50 and ifs > 50


# ---------------------------------------------------------------- branch binding


def test_inner_binders_do_not_capture_branch_pairs():
    # The lambda parameter keeps its name p; the pcase's potential variable
    # is named apart from it, so h translates to the pair over p' and the
    # lambda's p captures nothing.
    inner = translate(parse("case xs of (\\p:int. 0, [h, t] \\p:int. h + p)"))
    lam = inner.succ
    assert (inner.p, lam.param) == ("p'", "p")
    assert lam.body == COp(CPair(CNum(1), CVar("p'")), CVar("p"))


ADVERSARIAL_NAMES = ("p", "ps", "p'", "ps'", "p''", "w")


def test_adversarial_binder_names(monkeypatch):
    # Generated programs whose binders all take names the translation also
    # picks for its potential variables.
    draws = random.Random(0)
    monkeypatch.setattr(gen, "_fresh_var", lambda ctx: draws.choice(ADVERSARIAL_NAMES))
    adversarial = 0
    for seed in range(300):
        ty = (INT, BOOL, INT_LIST)[seed % 3]
        e = gen_typed_term(seed, 5, ty)
        assert typecheck({}, e) == ty
        assert ctypecheck({}, translate(e)) == translate_ty(ty), to_source(e)
        report = check_program(e)
        assert report.status != "fail", (to_source(e), report.detail)
        adversarial += not names(e).isdisjoint(ADVERSARIAL_NAMES)
    # The patched names reach the programs: 229 of the 300 bind one.
    assert adversarial >= 200


def _binder_names(e) -> tuple[list[str], set[str]]:
    """A term's lambda parameters and fold accumulators, sorted, and its
    pcase and pfold potential variables, those of `CCase` and `CFold` among
    them; the term is walked as a tree."""
    kept: list[str] = []
    branch: set[str] = set()
    todo = [e]
    while todo:
        e = todo.pop()
        t = type(e)
        if t is Lam or t is CLam:
            kept.append(e.param)
        elif t is Fold or t is PFold or t is CFold:
            kept.append(e.acc if t is Fold else e.w)
        if t is PCase or t is PFold or t is CCase or t is CFold:
            branch |= {e.p, e.ps}
        todo.extend(v for v in vars(e).values() if isinstance(v, (Expr, CplxExpr)))
    return sorted(kept), branch


def test_translation_keeps_every_binder_name(monkeypatch):
    # Every CLam.param and PFold.w is its target binder's name, and every
    # pcase/pfold variable is apart from every name of the program, over
    # criterion 2's first 2,000 programs, the corpus and programs whose
    # binders take the names the branch variables would.
    programs = [corpus_expr(name) for name in CORPUS_NAMES] + list(campaign_programs())
    draws = random.Random(1)
    monkeypatch.setattr(gen, "_fresh_var", lambda ctx: draws.choice(ADVERSARIAL_NAMES))
    programs += [gen_typed_term(seed, 5, (INT, BOOL, INT_LIST)[seed % 3]) for seed in range(300)]

    # translate collects the program's names in its own walk and never asks
    # for free variables, at a branch or at a binder: the library has no
    # walk for either (see `test_translation_walks_each_program_once`).
    assert not hasattr(syntax, "free_vars") and not hasattr(syntax, "names")
    branches = 0
    for e in programs:
        kept, branch_vars = _binder_names(translate(e))
        assert kept == _binder_names(e)[0], to_source(e)
        assert branch_vars.isdisjoint(names(e)), to_source(e)
        branches += bool(branch_vars)
    assert branches > 1000


def test_translation_walks_each_program_once(monkeypatch):
    # `_translate` runs once per node of the program, walked as a tree, over
    # the corpus and criterion 2's first 2,000 programs: the translation's
    # walk is the only one, and collects the program's names as it goes.
    # Only a program that uses a name the branch variables take is walked
    # again, apart from those names.  The names walk that translate made
    # first would raise, were it there to call.
    translation = importlib.import_module("foldcost.translate")
    calls = 0

    def counted(e, env, fresh, walk=translation._translate):
        nonlocal calls
        calls += 1
        return walk(e, env, fresh)

    def no_names_walk(e):
        raise AssertionError("syntax.names called")

    monkeypatch.setattr(translation, "_translate", counted)
    monkeypatch.setattr(syntax, "names", no_names_walk, raising=False)
    programs = [corpus_expr(name) for name in CORPUS_NAMES] + list(campaign_programs())
    for e in programs:
        calls = 0
        translate(e)
        assert calls == tree_size(e, 10**6), to_source(e)
    for source, walks in [("case xs of (0, [h, t] h + p)", 2), ("\\ps':int. ps'", 2),
                          ("case xs of (0, [h, t] h + q)", 1)]:
        calls = 0
        translate(parse(source))
        assert calls == walks * tree_size(parse(source), 100), source


def _nested(n: int, fold: bool) -> Expr:
    """n cases (or folds) of xs, each in the cons branch of the one before,
    whose innermost branch is x0, the outermost head."""
    e: Expr = Var("x0")
    for k in reversed(range(n)):
        if fold:
            e = Fold(Var("xs"), Nil(), f"x{k}", f"t{k}", f"w{k}", e)
        else:
            e = Case(Var("xs"), Nil(), f"x{k}", f"t{k}", e)
    return e


@pytest.mark.parametrize("fold", [False, True], ids=["case", "fold"])
def test_deep_branch_nesting_primes_once_per_level(fold):
    # The k-th nested branch binds p and ps followed by k primes.  The time
    # bound is generous: it catches a walk of each branch's body, which
    # takes seconds at this depth, where this translation takes a fraction
    # of one.
    n = 2000
    e = _nested(n, fold)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * n))
    try:
        start = time.perf_counter()
        pair = translate(e)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    for k in range(n):
        assert type(pair) is (CFold if fold else CCase)
        assert (pair.p, pair.ps) == ("p" + "'" * k, "ps" + "'" * k)
        pair = pair.succ
    assert pair == CPair(CNum(1), CVar("p"))
    assert elapsed < 2.0


# ---------------------------------------------------------------- preservation


def test_type_preservation_on_corpus():
    for name in CORPUS_NAMES:
        e = corpus_expr(name)
        assert ctypecheck({}, translate(e)) == translate_ty(typecheck({}, e))


def test_type_preservation_on_open_generated_terms():
    ctx = {"x": INT, "xs": INT_LIST, "f": ArrowTy(INT, INT)}
    cctx = {name: translate_ty(var_ty) for name, var_ty in ctx.items()}
    for seed in range(60):
        for ty in (INT, BOOL, INT_LIST, ArrowTy(INT_LIST, INT)):
            e = gen_typed_term(seed, 4, ty, ctx)
            assert typecheck(ctx, e) == ty
            assert ctypecheck(cctx, translate(e)) == translate_ty(ty)


# sha256 of the printed translations of criterion 2's first 300 campaign
# programs, one per line, recorded before the tree walkers dispatched on
# exact node types.  A translation too large to print would be skipped.
CAMPAIGN_TRANSLATIONS_SHA256 = "41a35ae44873b18197348a0259bdaf62ee608e78d7f91a298a5e5b31d7c3d061"


def test_campaign_translations_are_frozen():
    lines = []
    for e in campaign_programs()[:300]:
        try:
            lines.append(cplx_to_source(translate(e)) + "\n")
        except ValueError:  # over MAX_PRINTED
            continue
    text = "".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CAMPAIGN_TRANSLATIONS_SHA256


# ---------------------------------------------------------------- worked bound


def test_worked_example_bound_dominates():
    chi = denote(translate(corpus_expr("case_if")))
    assert (chi.cost, chi.pot) == (11, 2)


def test_translation_rejects_non_expressions():
    # Every caller runs `typecheck` before `translate`, and `typecheck`
    # refuses what is not an expression.
    with pytest.raises(TypeCheckError) as info:
        typecheck({}, "not an expression")
    assert str(info.value) == "not an expression: 'not an expression'"
