"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from dataclasses import replace

import pytest

from conftest import CORPUS, fun_acc_fold
import foldcost
from foldcost import complexity, harness
from foldcost.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, main
from foldcost.complexity import DenoteError, SPair
from foldcost.parser import parse
from foldcost.syntax import to_source


def corpus_path(name):
    return str(CORPUS / f"{name}.tgt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **kwargs):
    """Run `python -m foldcost` in a child process that imports the same
    package as this test, whether or not it is installed or on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(foldcost.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "foldcost", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, **kwargs)


def write_program(tmp_path, text):
    path = tmp_path / "prog.tgt"
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- happy paths


def test_typecheck_prints_the_type(capsys):
    code, out, err = run(capsys, "typecheck", corpus_path("ins"))
    assert (code, out, err) == (EXIT_OK, "int -> int* -> int*\n", "")


def test_eval_prints_value_and_cost(capsys):
    code, out, err = run(capsys, "eval", corpus_path("case_if"))
    assert (code, out, err) == (EXIT_OK, "value = [0,0], cost = 9\n", "")


def test_translate_prints_recurrence_and_type(capsys):
    code, out, err = run(capsys, "translate", corpus_path("case_if"))
    assert code == EXIT_OK and err == ""
    first, second = out.splitlines()
    assert "pcase" in first
    assert second == ": N x N"


# sha256 of `foldcost translate` on each corpus program, as first recorded.
TRANSLATE_SHA256 = {
    "case_if": "7c0b70ff5b50bbe1f271665146f1fe93a74dd7ba8fa6e053c7cc2c24a41117e4",
    "ins": "d4518af574d5c67f17802108e37a371c4a1e68d50ef37aa189b64861dda8f497",
    "ins_sort": "4ff0eb347dae94e52697e12699fdff34376b3c38829fd92b95e800baefb03a90",
    "map": "a4c580d7e83dc6b7bf6f37c354ae7e83dde26f75ab8d108e9ee0f26f4d6aeb60",
    "list_fold": "b53c16fac89bdd6550c1871a15664a575494080b8f724a04f1b07834d0d9326b",
}


@pytest.mark.parametrize("name", sorted(TRANSLATE_SHA256))
def test_translate_output_is_frozen(capsys, name):
    code, out, _ = run(capsys, "translate", corpus_path(name))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TRANSLATE_SHA256[name]


def test_bound_tabulates_rows(capsys):
    code, out, err = run(capsys, "bound", corpus_path("ins"),
                         "--arg", "1,1", "--sweep", "--range", "0:8")
    assert code == EXIT_OK and err == ""
    expected = [f"n={n} cost={12 * n + 11} pot={n + 1}" for n in range(9)]
    assert out.splitlines() == expected


def test_bound_json_rows(capsys):
    code, out, _ = run(capsys, "bound", corpus_path("ins_sort"),
                       "--sweep", "--range", "0:3", "--json")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"n": n, "cost": 6 * n * n + 7 * n + 6, "pot": n} for n in range(4)]


def test_bound_accepts_function_arguments(capsys):
    code, out, _ = run(capsys, "bound", corpus_path("map"),
                       "--arg-fn", "\\x:int. x + x", "--sweep", "--range", "0:4")
    assert code == EXIT_OK
    assert out.splitlines() == [f"n={n} cost={11 * n + 9} pot={n}" for n in range(5)]


def test_check_base_program(capsys):
    code, out, _ = run(capsys, "check", corpus_path("case_if"))
    assert (code, out) == (EXIT_OK, "cost=9 bound=11 size=2 pot=2 verdict=pass\n")


def test_check_base_program_json(capsys):
    code, out, _ = run(capsys, "check", corpus_path("case_if"), "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "cost": 9, "bound": 11, "size": 2, "pot": 2, "verdict": "pass"}


def test_check_function_program_reports_probes(capsys):
    code, out, _ = run(capsys, "check", corpus_path("ins"))
    assert (code, out) == (EXIT_OK, "cost=1 bound=1 probes=100 verdict=pass\n")


def test_check_function_program_json(capsys):
    code, out, _ = run(capsys, "check", "--json", corpus_path("ins_sort"))
    assert (code, out) == (EXIT_OK, '{"cost": 1, "bound": 1, "size": null, "pot": null, '
                           '"verdict": "pass", "probes": 100, "skipped": 0}\n')


@pytest.mark.parametrize("flags, expected", [
    ((), "cost=5 bound=4 size=None pot=None verdict=fail detail='cost 5 > bound 4'\n"),
    (("--json",), '{"cost": 5, "bound": 4, "size": null, "pot": null, '
                  '"verdict": "fail", "detail": "cost 5 > bound 4"}\n'),
], ids=["plain", "json"])
def test_check_root_cost_violation_exits_1(capsys, monkeypatch, tmp_path, flags, expected):
    # The root's bound is charged one unit less than the run costs.
    real = harness.denote

    def weakened(e, env=None):
        chi = real(e, env)
        return SPair(chi.cost - 1, chi.pot)

    monkeypatch.setattr(harness, "denote", weakened)
    code, out, err = run(capsys, "check", write_program(tmp_path, "1 :: 2 :: nil"), *flags)
    assert (code, out, err) == (EXIT_VIOLATION, expected, "")


@pytest.mark.parametrize("source, expected", [
    ("case [1] of (0, [p', w] case w of (0, [a, b] a))",
     "cost=7 bound=7 size=1 pot=1 verdict=pass\n"),
    ("case [1, 2] of (nil, [h, p''] fold [1, 2, 3] of (nil, [a, b, p] a :: p))",
     "cost=30 bound=30 size=3 pot=3 verdict=pass\n"),
], ids=["case-in-case", "fold-in-case"])
def test_check_branch_variables_named_like_potential_variables(capsys, tmp_path, source, expected):
    code, out, err = run(capsys, "check", write_program(tmp_path, source))
    assert (code, out, err) == (EXIT_OK, expected, "")


def test_fuzz_is_deterministic(capsys):
    first = run(capsys, "fuzz", "--trials", "30", "--seed", "5")
    second = run(capsys, "fuzz", "--trials", "30", "--seed", "5")
    assert first == second
    code, out, err = first
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert len(lines) == 31
    assert lines[-1].startswith("passed=")
    assert "failed=0" in lines[-1]


# sha256 of the stdout of `foldcost fuzz --trials 300 --seed 9`, plain and
# --json, recorded before the tree walkers dispatched on exact node types.
FUZZ_SHA256 = {
    "plain": "ec3a1dfa183f9a5ad74fb2e53864ec8cfcfd420cf46b3fe3cde44f3842eefdee",
    "json": "765a5d47dfe1a0841549356e0c3c4cf7fb7316f856e58d2685318dc28bbfb81a",
}


@pytest.mark.parametrize("form", ["plain", "json"])
def test_seeded_fuzz_output_is_frozen(capsys, form):
    argv = ["fuzz", "--trials", "300", "--seed", "9"] + (["--json"] if form == "json" else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FUZZ_SHA256[form]


def test_check_function_accumulator_fold(tmp_path):
    # Each of the 64 steps joins a function accumulator; the joins remember
    # their results, so this takes well under a second instead of about
    # 2**64 applications.
    proc = run_module("check", write_program(tmp_path, fun_acc_fold(64)), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OK, "cost=451 bound=451 probes=100 verdict=pass\n", "")


def test_check_function_argument_fold(tmp_path):
    # The accumulator is applied at each probe function; every join
    # remembers its result at that function, so the 64 steps stay linear.
    source = fun_acc_fold(64, "int -> int")
    proc = run_module("check", write_program(tmp_path, source), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OK, "cost=451 bound=451 probes=100 verdict=pass\n", "")


def test_check_many_curried_arguments_is_inconclusive(tmp_path):
    # 40 curried arguments would need 2^40 probe vectors; the check refuses
    # at once instead of running for ever.
    source = "".join(f"\\x{i}:int. " for i in range(40)) + "1"
    start = time.perf_counter()
    proc = run_module("check", write_program(tmp_path, source), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OK, "cost=1 bound=1 probes=0 verdict=inconclusive "
        "detail='too many probe vectors: 2^40 > 4096'\n", "")
    assert time.perf_counter() - start < 5


def test_check_bound_past_64_bits_is_inconclusive(capsys, tmp_path):
    # Each fold step doubles the cost of the accumulated function, so its
    # potential overflows 64 bits at 64 steps; the memo keeps the
    # denotation linear.  The run takes the `true` branch and ends, so its
    # cost is reported, with no bound.
    source = ("if true then 0 else (fold [" + ", ".join(["1"] * 64) +
              "] of (\\x:int. x, [y, ys, w] \\x:int. w (w x))) 0")
    code, out, err = run(capsys, "check", write_program(tmp_path, source))
    assert (code, out, err) == (EXIT_OK, "cost=3 bound=None size=None pot=None "
                                "verdict=inconclusive detail='nat-overflow'\n", "")
    e = parse(source)
    report = harness.check_program(e)
    assert (report.status, report.detail, report.cost) == ("inconclusive", "nat-overflow", 3)
    assert report.program == to_source(e)
    # A run that stops too has no cost to report.
    stopped = harness.check_program(e, replace(harness.DEFAULT_CONFIG, budget=2))
    assert (stopped.status, stopped.detail, stopped.cost) == ("inconclusive", "nat-overflow", None)
    # Under a lambda the bound overflows only when a probe applies it, after
    # the run, whose cost is reported as well.
    probed = harness.check_program(parse("\\z:int. " + source))
    assert (probed.status, probed.detail, probed.cost) == ("inconclusive", "nat-overflow", 1)


def test_fuzz_keeps_no_earlier_trial(capsys, monkeypatch):
    # `fuzz` prints each trial's line as the trial ends, so when a trial is
    # checked at most the one before it is still alive, not every earlier
    # report with its program.
    real = harness.check_program
    reports, alive = [], []

    def check(e, cfg):
        alive.append(sum(r() is not None for r in reports))
        report = real(e, cfg)
        reports.append(weakref.ref(report))
        return report

    monkeypatch.setattr(harness, "check_program", check)
    code, out, _ = run(capsys, "fuzz", "--trials", "30", "--depth", "4", "--seed", "3")
    monkeypatch.undo()
    assert code == EXIT_OK and len(alive) == 30 and max(alive) <= 1
    code, expected, _ = run(capsys, "fuzz", "--trials", "30", "--depth", "4", "--seed", "3")
    assert out == expected and out.count("\n") == 31


@pytest.mark.parametrize("failing, code", [(False, EXIT_ERROR), (True, EXIT_VIOLATION)],
                         ids=["error-only", "error-and-violation"])
def test_fuzz_exit_code_with_an_errored_trial(capsys, monkeypatch, failing, code):
    real = harness.check_program
    calls = 0

    def check(e, cfg):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise DenoteError("boom")
        report = real(e, cfg)
        return replace(report, status="fail") if failing and calls == 4 else report

    monkeypatch.setattr(harness, "check_program", check)
    got, out, err = run(capsys, "fuzz", "--trials", "5")
    assert (got, err) == (code, "")
    lines = out.splitlines()
    assert lines[1].startswith("trial=1 seed=1 verdict=error detail='DenoteError: boom' program=")
    assert lines[-1] == f"passed={4 - failing} failed={int(failing)} inconclusive=0 errors=1 trials=5"


def test_fuzz_json_summary(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "10", "--json")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[-1]["trials"] == 10
    assert rows[-1]["failed"] == 0


def test_fuzz_budget_exceeded_trials(capsys):
    # A trial that runs out of budget is inconclusive, with no cost or
    # bound; its --json record carries the reason and the program.
    code, out, err = run(capsys, "fuzz", "--trials", "3", "--budget", "3")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [
        "trial=0 seed=0 error=budget-exceeded verdict=inconclusive",
        "trial=1 seed=1 cost=1 bound=1 size=1 pot=1 verdict=pass",
        "trial=2 seed=2 error=budget-exceeded verdict=inconclusive",
        "passed=1 failed=0 inconclusive=2 trials=3",
    ]
    code, out, err = run(capsys, "fuzz", "--trials", "3", "--budget", "3", "--json")
    assert (code, err) == (EXIT_OK, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row.get("detail") for row in rows[:3]] == ["budget-exceeded", None, "budget-exceeded"]
    assert rows[0]["program"] == "(-1) + 8 + (-5) - 1 <= (if (-1) * (-8) < (-7) + 3 then (-9) else 1)"
    assert rows[0]["cost"] is None and rows[0]["verdict"] == "inconclusive"
    assert "program" not in rows[1]
    assert rows[3] == {"passed": 1, "failed": 0, "inconclusive": 2, "trials": 3}


def test_module_entry_point():
    proc = run_module("typecheck", corpus_path("map"))
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "(int -> int) -> int* -> int*\n"


# ---------------------------------------------------------------- error paths


def test_parse_error_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "eval", write_program(tmp_path, "1 +"))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize("text, err", [
    ("²", "parse error: 1:1: unexpected character '²'\n"),
    ("1²", "parse error: 1:2: unexpected character '²'\n"),
    ("٣", "parse error: 1:1: unexpected character '٣'\n"),
], ids=["superscript-two", "one-superscript-two", "arabic-indic-three"])
def test_non_ascii_digits_are_unexpected(capsys, tmp_path, text, err):
    # Integer literals are ASCII digits only.
    assert run(capsys, "eval", write_program(tmp_path, text)) == (EXIT_ERROR, "", err)


@pytest.mark.parametrize("text, code, out, err", [
    ("\ufeff1 + 2", EXIT_OK, "value = 3, cost = 4\n", ""),
    ("1 +\ufeff 2", EXIT_ERROR, "", "parse error: 1:4: unexpected character '\\ufeff'\n"),
], ids=["at-start", "after-start"])
def test_byte_order_mark_only_at_start(capsys, tmp_path, text, code, out, err):
    # Editors may write a UTF-8 byte order mark before the program.
    assert run(capsys, "eval", write_program(tmp_path, text)) == (code, out, err)


@pytest.mark.parametrize("text, code, out", [
    ("1 = 2", EXIT_OK, "value = false, cost = 4\n"),
    ("1 == 2", EXIT_ERROR, ""),
    ("1 >= 2", EXIT_ERROR, ""),
])
def test_comparison_operators(capsys, tmp_path, text, code, out):
    got_code, got_out, err = run(capsys, "eval", write_program(tmp_path, text))
    assert (got_code, got_out) == (code, out)
    assert err.startswith("parse error:") == (code == EXIT_ERROR)


@pytest.mark.parametrize("command, text, code, out, err", [
    ("check", "[" + ", ".join(["1"] * 600) + "]", EXIT_OK,
     "cost=1201 bound=1201 size=600 pot=600 verdict=pass\n", ""),
    ("check", "[" + ", ".join(["1"] * 10_000) + "]", EXIT_OK,
     "cost=20001 bound=20001 size=10000 pot=10000 verdict=pass\n", ""),
    ("eval", "(" * 400 + "1" + ")" * 400, EXIT_OK, "value = 1, cost = 1\n", ""),
    ("eval", "(" * 100_000 + "1" + ")" * 100_000, EXIT_ERROR, "",
     "error: input nests too deeply\n"),
], ids=["list-600", "list-10000", "parens-400", "parens-100000"])
def test_deep_input_exits_2(tmp_path, command, text, code, out, err):
    # Deep input gets an answer; only nesting far deeper than a program's
    # still exits 2, with a diagnostic and no traceback.
    proc = run_module(command, write_program(tmp_path, text))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("text", [
    "if true then " * 40 + "0" + " else 0" * 40,
    "[" + ", ".join(["1"] * 40) + "]",
], ids=["if-40", "list-40"])
def test_translate_too_large_to_print_exits_2(tmp_path, text):
    # Each nested if or list element doubles the printed recurrence, so
    # these would print terabytes; the refusal comes before any is built.
    start = time.perf_counter()
    proc = run_module("translate", write_program(tmp_path, text), timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert proc.stderr == "error: recurrence too large to print (over 16777216 bytes)\n"
    assert time.perf_counter() - start < 5


def test_type_error_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", write_program(tmp_path, "1 + true"))
    assert code == EXIT_ERROR
    assert err.startswith("type error:")
    assert "expected int, got bool" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "typecheck", "no/such/file.tgt")
    assert code == EXIT_ERROR
    assert err.startswith("parse error: cannot read no/such/file.tgt")


def test_overflow_exits_2(capsys, tmp_path):
    path = write_program(tmp_path, "9223372036854775806 + 1 + 1")
    code, _, err = run(capsys, "eval", path)
    assert code == EXIT_ERROR
    assert err.startswith("evaluation error:")


def test_eval_budget_exits_3(capsys):
    code, _, err = run(capsys, "eval", corpus_path("case_if"), "--budget", "8")
    assert code == EXIT_BUDGET
    assert err.startswith("budget error:")


def test_check_budget_exits_3(capsys):
    code, out, _ = run(capsys, "check", corpus_path("case_if"), "--budget", "3")
    assert code == EXIT_BUDGET
    assert "verdict=inconclusive" in out
    assert "budget-exceeded" in out


def test_bound_past_the_pfold_budget_exits_3():
    # The list argument's potential is ten times the default budget, so
    # ins's pfold stops before its first step instead of running 10^8.
    start = time.perf_counter()
    proc = run_module("bound", corpus_path("ins"), "--sweep", "--arg", "1,100000000",
                      "--range", "0:0", timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_BUDGET, "", "budget error: pfold of 100000000 steps is over the budget of 10000000\n")
    assert time.perf_counter() - start < 1


def test_check_past_the_pfold_budget_is_inconclusive(capsys, monkeypatch, tmp_path):
    # No short program has a pfold of 10^7 steps, so the cap is lowered to 2:
    # a fold over three elements stops in the denotation, before the run.
    monkeypatch.setattr(complexity, "DEFAULT_BUDGET", 2)
    source = "fold [1, 2, 3] of (0, [y, ys, w] w + y)"
    e = parse(source)
    report = harness.check_program(e)
    assert (report.status, report.cost, report.detail) == ("inconclusive", None, "budget-exceeded")
    code, out, err = run(capsys, "check", write_program(tmp_path, source))
    assert (code, out, err) == (EXIT_BUDGET, "cost=None bound=None size=None pot=None "
                                "verdict=inconclusive detail='budget-exceeded'\n", "")
    monkeypatch.setattr(complexity, "DEFAULT_BUDGET", 3)
    assert harness.check_program(e).status == "pass"


def test_bound_flag_validation(capsys):
    code, _, err = run(capsys, "bound", corpus_path("ins"),
                       "--arg", "1,x", "--sweep")
    assert code == EXIT_ERROR and err.startswith("error: --arg wants COST,POT")

    code, _, err = run(capsys, "bound", corpus_path("ins"),
                       "--arg", "1,1", "--sweep", "--range", "abc")
    assert code == EXIT_ERROR and err.startswith("error: --range wants LO:HI")

    code, _, err = run(capsys, "bound", corpus_path("ins"), "--arg", "1,1")
    assert code == EXIT_ERROR and "swept" in err


@pytest.mark.parametrize("specs", [("--arg=-7,1", "--sweep"), ("--sweep", "--arg", "1,-5"),
                                   ("--arg", "-7,1", "--sweep")])
def test_bound_rejects_a_negative_fixed_argument(capsys, specs):
    code, out, err = run(capsys, "bound", corpus_path("ins"), *specs, "--range", "0:2")
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: negative fixed argument")


@pytest.mark.parametrize("argv, flag", [
    (("check", corpus_path("ins"), "--trials", "-5"), "--trials"),
    (("fuzz", "--trials", "-1"), "--trials"),
    (("check", corpus_path("ins"), "--max-list", "-1"), "--max-list"),
    (("check", corpus_path("ins"), "--budget", "-1"), "--budget"),
    (("eval", corpus_path("case_if"), "--budget", "-1"), "--budget"),
    (("fuzz", "--trials", "3", "--depth", "-1"), "--depth"),
    (("check", corpus_path("ins"), "--depth", "-3"), "--depth"),
])
def test_negative_counts_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_ERROR
    assert f"argument {flag}: must be nonnegative" in err
    assert "Traceback" not in err


def test_max_list_belongs_to_check_only(capsys):
    # `fuzz` draws only base-typed programs and never probes them, so it
    # takes no probe-list length; `check` draws its list probes up to it.
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--max-list", "3"])
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments: --max-list 3" in capsys.readouterr().err
    for max_list, probes in (("0", 100), ("40", 16)):
        code, out, _ = run(capsys, "check", corpus_path("ins_sort"), "--max-list", max_list,
                           "--budget", "300")
        assert (code, out) == (EXIT_OK, f"cost=1 bound=1 probes={probes} verdict=pass\n")


def test_bound_rejects_an_empty_range(capsys):
    code, out, err = run(capsys, "bound", corpus_path("ins"), "--arg", "1,1", "--sweep",
                         "--range", "3:1")
    assert (code, out, err) == (EXIT_ERROR, "", "error: --range wants LO <= HI, got '3:1'\n")


@pytest.mark.parametrize("bounds", [("--range", "-1:2"), ("--range=-1:2",)])
def test_bound_rejects_a_negative_range(capsys, bounds):
    code, out, err = run(capsys, "bound", corpus_path("ins"), "--arg", "1,1", "--sweep", *bounds)
    assert (code, out, err) == (EXIT_ERROR, "", "error: potentials are nonnegative\n")


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
