"""Command-line front end.

Commands:
  typecheck FILE            print the program's type
  eval FILE                 run the program, print value and cost
  translate FILE            print the cost/potential recurrence and its type
  bound FILE ARGS --range   tabulate the bound over a swept argument size
  check FILE                compare a measured run against the bound
  fuzz                      run a generated-program campaign

Exit codes (see the README): 0 success, and for check/fuzz no bound was
violated; 1 a bound was violated; 2 parse, type, usage, a 64-bit overflow
outside check/fuzz, too deep input, too large a recurrence to print, or (for
fuzz, with no violation) an errored trial; 3 a cost or pfold budget ran out.

All randomized commands are deterministic for a fixed --seed: running the
same command twice prints byte-identical output.

Every line that check, fuzz and bound print is a dict of fields, which
`_line` writes as JSON (--json) or as `key=value` pairs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
from collections import Counter
from dataclasses import replace
from typing import Mapping, Sequence

from .complexity import CplxTypeError, NatOverflowError, ctypecheck, cplx_to_source
from .gen import DEFAULT_CONFIG, ProbeConfig
from .harness import (
    ArgSpec,
    FixedArg,
    Report,
    SweepArg,
    TermArg,
    Trial,
    campaign_trials,
    check_program,
    tabulate,
)
from .interp import ArithOverflowError, BudgetExceededError, DEFAULT_BUDGET, eval_expr, render_value
from .parser import ParseError, parse
from .syntax import Expr
from .translate import translate
from .typecheck import TypeCheckError, typecheck

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldcost",
        description="Cost bounds for a higher-order fold language: run programs "
                    "with instrumented costs, extract recurrences, and check that "
                    "the bounds hold.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_type = sub.add_parser("typecheck", help="print the program's type")
    p_type.add_argument("file")

    p_eval = sub.add_parser("eval", help="run the program, print value and cost")
    p_eval.add_argument("file")
    p_eval.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                        help="evaluation cost budget (default %(default)s)")

    p_tr = sub.add_parser("translate", help="print the recurrence and its type")
    p_tr.add_argument("file")

    p_bound = sub.add_parser(
        "bound", help="tabulate the bound while sweeping one argument's size")
    p_bound.add_argument("file")
    # The three share one list, so the arguments keep their command-line order.
    p_bound.add_argument("--sweep", dest="specs", action="append_const", const=("sweep", None),
                         help="the argument position swept over --range")
    p_bound.add_argument("--arg", dest="specs", action="append", type=lambda v: ("arg", v),
                         metavar="COST,POT", help="a fixed cost,potential argument (e.g. 1,1)")
    p_bound.add_argument("--arg-fn", dest="specs", action="append", type=lambda v: ("fn", v),
                         metavar="TERM", help="a closed function argument, as source text")
    p_bound.add_argument("--range", default="0:16", metavar="LO:HI",
                         help="inclusive sweep range (default %(default)s)")
    p_bound.add_argument("--json", action="store_true", help="one JSON object per row")

    p_check = sub.add_parser(
        "check", help="run the program and compare cost and size against the bound")
    p_check.add_argument("file")
    _add_probe_flags(p_check)
    p_check.add_argument("--max-list", type=_count, default=DEFAULT_CONFIG.max_list,
                         help="longest probe-argument list (default %(default)s)")
    p_check.add_argument("--json", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="check generated programs against their bounds")
    _add_probe_flags(p_fuzz)
    p_fuzz.add_argument("--json", action="store_true")

    return parser


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_count, default=DEFAULT_CONFIG.trials,
                   help="programs to generate, or probes per function (default %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed,
                   help="generator seed (default %(default)s)")
    p.add_argument("--depth", type=_count, default=DEFAULT_CONFIG.depth,
                   help="generated term depth (default %(default)s)")
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                   help="evaluation cost budget (default %(default)s)")


def _count(text: str) -> int:
    """Parse a nonnegative integer option value."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _load(path: str) -> Expr:
    try:
        # "utf-8-sig" drops a byte order mark at the start of the file only.
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 0, 0) from None
    return parse(text)


def _config(ns: argparse.Namespace) -> ProbeConfig:
    max_list = getattr(ns, "max_list", DEFAULT_CONFIG.max_list)  # fuzz never probes
    return replace(DEFAULT_CONFIG, trials=ns.trials, seed=ns.seed, depth=ns.depth,
                   max_list=max_list, budget=ns.budget)


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """`--range -1:2` as `--range=-1:2`, and so for `--arg`: argparse takes
    a value that starts with `-` and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--range", "--arg") and re.match(r"-\d", arg):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    ns = _build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    # Every layer recurses on the input's nesting, so run on a deep stack.
    done: list[int | BaseException | None] = [None]  # the exit code, or what the command raised

    def work() -> None:
        try:
            done[0] = _run(ns)
        except BaseException as exc:
            done[0] = exc

    old_stack = threading.stack_size(256 * 2**20)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200_000)
    try:
        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if isinstance(done[0], BaseException):
        raise done[0]  # what the command raised
    return done[0]


def _run(ns: argparse.Namespace) -> int:
    try:
        return _dispatch(ns)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (TypeCheckError, CplxTypeError) as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ArithOverflowError, NatOverflowError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "typecheck":
        print(typecheck({}, _load(ns.file)))
        return EXIT_OK

    if ns.command == "eval":
        e = _load(ns.file)
        typecheck({}, e)
        result = eval_expr(e, budget=ns.budget)
        print(f"value = {render_value(result.value)}, cost = {result.cost}")
        return EXIT_OK

    if ns.command == "translate":
        e = _load(ns.file)
        typecheck({}, e)
        cplx = translate(e)
        print(cplx_to_source(cplx))
        print(f": {ctypecheck({}, cplx)}")
        return EXIT_OK

    if ns.command == "bound":
        return _cmd_bound(ns)

    if ns.command == "check":
        return _cmd_check(ns)

    if ns.command == "fuzz":
        # Each line is printed as its trial ends, so no trial outlives its line.
        counts: Counter[str] = Counter()
        for trial in campaign_trials(_config(ns)):
            print(trial_line(trial, ns.json))
            counts[trial.report.status] += 1
        print(totals_line(counts, ns.json))
        if counts["fail"]:
            return EXIT_VIOLATION
        return EXIT_ERROR if counts["error"] else EXIT_OK

    raise ValueError(f"unknown command {ns.command!r}")


def _cmd_bound(ns: argparse.Namespace) -> int:
    e = _load(ns.file)
    specs: list[ArgSpec] = []
    for kind, value in ns.specs or []:
        if kind == "sweep":
            specs.append(SweepArg())
        elif kind == "arg":
            try:
                cost_s, pot_s = value.split(",")
                specs.append(FixedArg(int(cost_s), int(pot_s)))
            except ValueError:
                raise ValueError(f"--arg wants COST,POT integers, got {value!r}") from None
        else:
            specs.append(TermArg(parse(value)))
    try:
        lo_s, hi_s = ns.range.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"--range wants LO:HI integers, got {ns.range!r}") from None
    if lo > hi:
        raise ValueError(f"--range wants LO <= HI, got {ns.range!r}")
    for row in tabulate(e, specs, range(lo, hi + 1)).rows:
        print(_line({"n": row.n, "cost": row.cost, "pot": row.pot}, ns.json))
    return EXIT_OK


def _cmd_check(ns: argparse.Namespace) -> int:
    report = check_program(_load(ns.file), _config(ns))
    # Text gives a function's probe count in place of size and pot; JSON adds both counts.
    fields = _verdict(report, probes=not ns.json and report.probes_checked is not None)
    if ns.json and report.probes_checked is not None:
        fields.update(probes=report.probes_checked, skipped=report.probes_skipped)
    if report.status != "pass" and (ns.json or report.detail):
        fields["detail"] = report.detail
    print(_line(fields, ns.json))
    if report.status == "fail":
        return EXIT_VIOLATION
    if report.status == "inconclusive" and report.detail == "budget-exceeded":
        return EXIT_BUDGET
    return EXIT_OK


def _line(fields: Mapping[str, object], as_json: bool) -> str:
    """One output line: the fields as a JSON object, or as `key=value` pairs
    with the free text of `detail` and `program` quoted."""
    if as_json:
        return json.dumps(fields)
    return " ".join(f"{k}={v!r}" if k in ("detail", "program") else f"{k}={v}"
                    for k, v in fields.items())


def _verdict(r: Report, probes: bool = False) -> dict[str, object]:
    """The fields a report gives every check and trial line; with `probes`,
    the probe count stands in for the size and the potential."""
    sizes = {"probes": r.probes_checked} if probes else {"size": r.size, "pot": r.pot}
    return {"cost": r.cost, "bound": r.bound_cost, **sizes, "verdict": r.status}


def trial_line(t: Trial, as_json: bool) -> str:
    """A campaign trial's line; the program text is read only if it is printed."""
    r = t.report
    fields: dict[str, object] = {"trial": t.index, "seed": t.seed}
    if as_json or r.status in ("pass", "fail"):
        fields.update(_verdict(r))
    elif r.status == "inconclusive":  # a text line names only the limit the run hit
        return _line({**fields, "error": r.detail, "verdict": r.status}, as_json)
    else:  # an error's text line has no numbers
        fields["verdict"] = r.status
    if r.status != "pass":
        fields.update(detail=r.detail, program=r.program)
    return _line(fields, as_json)


def totals_line(counts: Mapping[str, int], as_json: bool) -> str:
    """A campaign's last line, from its count of trials per verdict."""
    fields = {"passed": counts["pass"], "failed": counts["fail"],
              "inconclusive": counts["inconclusive"]}
    # Errors are counted only when nonzero: an error-free campaign keeps its frozen form.
    if counts["error"]:
        fields["errors"] = counts["error"]
    fields["trials"] = sum(fields.values())
    return _line(fields, as_json)


if __name__ == "__main__":
    raise SystemExit(main())
