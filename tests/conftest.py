"""Shared fixtures: corpus loading and the one big fuzz campaign.

The 10,000-trial campaign is expensive (tens of seconds), so it runs once
per session and every test that needs campaign-wide evidence shares it.
"""

import functools
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from foldcost import complexity, gen
from foldcost.gen import ProbeConfig
from foldcost.harness import Trial, campaign_trials, trial_seed
from foldcost.parser import parse
from foldcost.syntax import INT, INT_LIST, ArrowTy, Expr

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_NAMES = ["case_if", "ins", "ins_sort", "map", "list_fold"]

# The campaign configuration the acceptance gate pins down: 10,000 closed
# base-type programs, depth at most 6, literal ints in [-9, 9], fixed seed.
CAMPAIGN_CONFIG = ProbeConfig(
    trials=10_000, depth=6, max_list=8, int_lo=-9, int_hi=9, seed=0)


# The benchmark's four function types, whose generated programs the probe
# tests check.
PROBE_TYPES = (
    ArrowTy(INT_LIST, INT_LIST),
    ArrowTy(INT, ArrowTy(INT_LIST, INT_LIST)),
    ArrowTy(INT_LIST, INT),
    ArrowTy(ArrowTy(INT, INT), ArrowTy(INT_LIST, INT_LIST)),
)


@functools.cache
def campaign_programs() -> tuple[Expr, ...]:
    """Criterion 2's first 2,000 programs, drawn as the campaign draws them
    and built once per session.  The first call must come before any test
    patches the generator."""
    programs = []
    for k in range(2000):
        rng = random.Random(trial_seed(CAMPAIGN_CONFIG.seed, k))
        ty = gen._BASE_TYPES[gen._below(rng, 3)]
        programs.append(gen._gen(rng, CAMPAIGN_CONFIG.depth, ty, {}, CAMPAIGN_CONFIG))
    return tuple(programs)


def corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.tgt").read_text(encoding="utf-8")


def corpus_expr(name: str):
    return parse(corpus_source(name))


def fun_acc_fold(n: int, dom: str = "int*") -> str:
    """A fold of n steps whose accumulator is a function from `dom`, joined
    at each step."""
    return ("fold [" + ", ".join(["1"] * n) + f"] of (\\v:{dom}. 0, "
            "[y, ys, w] if true then w else w)")


def campaign(cfg: ProbeConfig) -> tuple[tuple[Trial, ...], Counter]:
    """Every trial of a campaign, and the number of trials per verdict."""
    trials = tuple(campaign_trials(cfg))
    return trials, Counter(t.report.status for t in trials)


def count_sem_max(monkeypatch, cap: int) -> None:
    """Make `complexity.sem_max` raise AssertionError past `cap` calls, so
    that a run with exponential work fails at once instead of running on."""
    real = complexity.sem_max
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        if calls > cap:
            raise AssertionError(f"more than {cap} calls to sem_max")
        return real(a, b)

    monkeypatch.setattr(complexity, "sem_max", counting)


@pytest.fixture(scope="session")
def campaign_10k():
    """The campaign's trials and verdict counts, plus its wall-clock runtime
    in seconds."""
    start = time.perf_counter()
    trials, counts = campaign(CAMPAIGN_CONFIG)
    return trials, counts, time.perf_counter() - start
