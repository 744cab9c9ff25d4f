"""The benchmark's four workloads.

A workload turns a seed into an endless stream of rounds.  A round is a list
of items, and an item is one unit of user work: a thunk that makes the
library calls being timed, and a check of its output that runs outside the
timed region.  The benchmark stops only between rounds, so a round is the
smallest mix of inputs that every run covers whole.  The first round is run
untimed, to warm up.  For campaign and probe the second round is a
`FixedRound`: it holds the pool entries that allocate the most
(refs/heavy.tsv), and later rounds draw from the rest of the pool.  Every
run times that round whole before its clock starts, so every run's timings
and peak memory cover those entries, whichever entries the seed draws.  Two
of the probe entries take 8 s and 3 s; drawing them or not would decide a
run's throughput.

Items call the library through attributes of the `foldcost` package, looked
up at call time, so that a traced run can wrap them there.  Inputs are built
with the same functions imported directly, so building them is never traced.

Campaign and probe inputs come from fixed pools whose outputs were recorded
at the seed commit (make_refs.py writes them to refs/); the seed chooses and
orders pool entries.  Sweep rows are checked against refs/sweep.tsv, and
recheck items against the type the program was generated at.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import foldcost
from foldcost.harness import (
    FixedArg,
    ProbeConfig,
    Report,
    SweepArg,
    TermArg,
    gen_typed_term,
    trial_seed,
)
from foldcost.parser import parse
from foldcost.syntax import BOOL, INT, INT_LIST, ArrowTy, Ty, to_source
from foldcost.translate import translate_ty

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
REFS = Path(__file__).resolve().parent / "refs"

BASE_TYPES: tuple[Ty, ...] = (INT, BOOL, INT_LIST)

# Criterion 2's campaign: 10,000 closed base-type programs of depth 6.
CAMPAIGN_CONFIG = ProbeConfig(trials=10_000, depth=6, max_list=8, int_lo=-9, int_hi=9, seed=0)
CAMPAIGN_POOL = 10_000

# Function-typed programs, checked at the default probe settings.
PROBE_TYPES: tuple[Ty, ...] = (
    ArrowTy(INT_LIST, INT_LIST),
    ArrowTy(INT, ArrowTy(INT_LIST, INT_LIST)),
    ArrowTy(INT_LIST, INT),
    ArrowTy(ArrowTy(INT, INT), ArrowTy(INT_LIST, INT_LIST)),
)
PROBE_DEPTH = 4
PROBE_POOL_PER_TYPE = 1_000
PROBE_PER_TYPE_PER_ROUND = 2
PROBE_CORPUS = ("ins", "ins_sort", "map", "list_fold")

# Criteria 3-6's plans.  A round is criterion 5's ins_sort 0..64 call, the
# affine plans below, and one cubic plan, taking turns, in seeded order.
# Each plan's n follows its own golden-ratio sequence over 0..SWEEP_MAX_N
# from a seeded start, so any run covers the range of n almost evenly and
# its total work varies little between seeds.  The fixed call is 1 item in
# 16, so p95 falls on it.
SWEEP_MAX_N = 64
SWEEP_AFFINE = ("ins",) * 7 + ("map",) * 7
SWEEP_CUBIC = ("ins_sort", "list_fold")
_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], bool]


Round = list[Item]


class FixedRound(list):
    """A round that every run times whole, on top of its --seconds."""


def corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.tgt").read_text(encoding="utf-8")


# ---------------------------------------------------------------- outputs

def report_fields(r: Report) -> tuple[str, ...]:
    """A check_program report as the strings stored in a reference file."""
    values = (r.status, r.cost, r.bound_cost, r.size, r.pot,
              r.probes_checked, r.probes_skipped, r.detail)
    return tuple("" if v is None else str(v) for v in values)


def _matches(ref: tuple[str, ...]) -> Callable[[object], bool]:
    return lambda report: isinstance(report, Report) and report_fields(report) == ref


def read_refs(path: Path) -> dict[str, tuple[str, ...]]:
    """Reference file: one tab-separated line per input, its id first."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, *fields = line.split("\t")
            out[key] = tuple(fields)
    return out


def heavy_entries(workload: str, refs: Path) -> list[str]:
    """Pool ids of the workload's most memory-hungry entries."""
    prefix = f"{workload}:"
    return [key[len(prefix):] for key in read_refs(refs / "heavy.tsv") if key.startswith(prefix)]


def _shuffled_forever(rng: random.Random, entries: list) -> Iterator:
    while True:
        order = list(entries)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------- campaign

def campaign_input(k: int) -> tuple[int, Ty]:
    """Pool entry k: the seed and base type of criterion 2's trial k."""
    s = trial_seed(CAMPAIGN_CONFIG.seed, k)
    return s, random.Random(s).choice(BASE_TYPES)


def run_campaign(s: int, ty: Ty) -> Report:
    e = foldcost.gen_typed_term(s, CAMPAIGN_CONFIG.depth, ty)
    return foldcost.check_program(e, CAMPAIGN_CONFIG)


def campaign(seed: int, refs: Path = REFS) -> Iterator[Round]:
    ref = read_refs(refs / "campaign.tsv")

    def item(k: int) -> Item:
        s, ty = campaign_input(k)
        return Item(f"campaign:{k}", lambda: run_campaign(s, ty), _matches(ref[str(k)]))

    heavy = heavy_entries("campaign", refs)
    rng = random.Random(f"campaign:{seed}")
    stream = _shuffled_forever(rng, [k for k in range(CAMPAIGN_POOL) if str(k) not in heavy])
    yield [item(next(stream))]
    yield FixedRound(item(int(k)) for k in heavy)
    for k in stream:
        yield [item(k)]


# ---------------------------------------------------------------- probe

def probe_program(pool_id: str):
    """Pool entry `<type index>:<seed>` or `corpus:<name>`, as an expression."""
    kind, arg = pool_id.split(":")
    if kind == "corpus":
        return parse(corpus_source(arg))
    return gen_typed_term(int(arg), PROBE_DEPTH, PROBE_TYPES[int(kind)])


def probe_pool() -> list[str]:
    ids = [f"{t}:{s}" for t in range(len(PROBE_TYPES)) for s in range(PROBE_POOL_PER_TYPE)]
    return ids + [f"corpus:{name}" for name in PROBE_CORPUS]


def run_probe(e) -> Report:
    return foldcost.check_program(e)


def probe(seed: int, refs: Path = REFS) -> Iterator[Round]:
    """Per round: two generated programs of each type and one corpus program."""
    ref = read_refs(refs / "probe.tsv")

    def item(pool_id: str) -> Item:
        e = probe_program(pool_id)
        return Item(f"probe:{pool_id}", lambda: run_probe(e), _matches(ref[pool_id]))

    heavy = heavy_entries("probe", refs)
    rng = random.Random(f"probe:{seed}")
    streams = [_shuffled_forever(rng, [f"{t}:{s}" for s in range(PROBE_POOL_PER_TYPE)
                                       if f"{t}:{s}" not in heavy])
               for t in range(len(PROBE_TYPES))]
    corpus = _shuffled_forever(rng, [f"corpus:{name}" for name in PROBE_CORPUS])
    for r in itertools.count():
        if r == 1:
            yield FixedRound(item(i) for i in heavy)
        ids = [next(s) for s in streams for _ in range(PROBE_PER_TYPE_PER_ROUND)]
        ids.append(next(corpus))
        rng.shuffle(ids)
        yield [item(i) for i in ids]


# ---------------------------------------------------------------- sweep

def sweep_plans() -> dict[str, tuple]:
    """Criterion 3's plans: program and argument specs, one argument swept."""
    ins = parse(corpus_source("ins"))
    double = parse("\\x:int. x + x")
    return {
        "ins": (ins, [FixedArg(), SweepArg()]),
        "ins_sort": (parse(corpus_source("ins_sort")), [SweepArg()]),
        "map": (parse(corpus_source("map")), [TermArg(double), SweepArg()]),
        "list_fold": (parse(corpus_source("list_fold")), [TermArg(ins), SweepArg(), FixedArg(1, 0)]),
    }


def row_fields(row) -> tuple[str, ...]:
    return (str(row.cost), str(row.pot))


def _rows_match(plan: str, n: int, ref: dict[str, tuple[str, ...]]) -> Callable[[object], bool]:
    def check(table) -> bool:
        rows = table.rows
        if [r.n for r in rows] != list(range(n + 1)):
            return False
        if any(row_fields(r) != ref[f"{plan}:{r.n}"] for r in rows):
            return False
        # The README's hand-derived closed form at --arg 1,1.
        return plan != "ins" or all(r.cost == 12 * r.n + 11 and r.pot == r.n + 1 for r in rows)
    return check


def sweep(seed: int, refs: Path = REFS) -> Iterator[Round]:
    ref = read_refs(refs / "sweep.tsv")
    plans = sweep_plans()
    rng = random.Random(f"sweep:{seed}")
    start = {name: rng.random() for name in plans}
    count = dict.fromkeys(plans, 0)

    def item(plan: str, n: int) -> Item:
        e, args = plans[plan]
        return Item(f"sweep:{plan}:{n}", lambda: foldcost.tabulate(e, args, range(n + 1)),
                    _rows_match(plan, n, ref))

    for r in itertools.count():
        batch = [item("ins_sort", SWEEP_MAX_N)]
        for plan in SWEEP_AFFINE + (SWEEP_CUBIC[r % 2],):
            u = (start[plan] + count[plan] * _GOLDEN) % 1.0
            count[plan] += 1
            batch.append(item(plan, int(u * (SWEEP_MAX_N + 1))))
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------- recheck

def run_recheck(source: str) -> tuple[Ty, object]:
    e = foldcost.parse(source)
    ty = foldcost.typecheck({}, e)
    return ty, foldcost.ctypecheck({}, foldcost.translate(e))


def recheck(seed: int, refs: Path = REFS) -> Iterator[Round]:
    """Printed campaign-style programs from an unbounded seeded stream; the
    check is that both type checkers agree with the generated type."""
    for k in itertools.count():
        s = trial_seed(seed, k)
        ty = random.Random(s).choice(BASE_TYPES)
        source = to_source(gen_typed_term(s, CAMPAIGN_CONFIG.depth, ty))
        want = (ty, translate_ty(ty))
        yield [Item(f"recheck:{s}", lambda source=source: run_recheck(source),
                    lambda out, want=want: out == want)]


WORKLOADS: dict[str, Callable[..., Iterator[Round]]] = {
    "campaign": campaign,
    "probe": probe,
    "sweep": sweep,
    "recheck": recheck,
}
