"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the library is imported from the checkout's src/.  One
process runs one workload in a single thread: it measures set-up in fresh
child processes, then runs the workload's rounds until --seconds have
passed, timing each item and checking its output outside the timed region.
An item that raises or whose output differs from its reference is counted
as failed and the run goes on.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the rounds that
--trace 0 times, runs the same rounds again traced, prints the per-layer
metrics, and writes the spans to perfbench/traces/<workload>.jsonl.
--workload all runs every workload, each in a fresh process, and prints a
table.  Metric names and units come from BENCHMARK.json; the last line of
output is one JSON object with the keys correct, attempted, failed and
metrics.

Reported times are scaled to a nominal machine speed; see `speed.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from speed import NOMINAL_S, kernel_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
TRACES = HERE / "traces"

# Enough item latencies that at least 10 lie beyond the p95.
MIN_ITEMS = 200
SETUP_SAMPLES = 15
SETUP_GROUPS = 3

# Set-up as a CLI call pays it: import the package and parse the corpus.  The
# child also times the speed kernel before and after, and prints the set-up
# time and the fastest kernel time.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[3])
from speed import kernel_time
sys.path.pop(0)
before = kernel_time(3)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import foldcost
from pathlib import Path
for path in sorted(Path(sys.argv[2]).glob("*.tgt")):
    foldcost.parse(path.read_text(encoding="utf-8"))
elapsed = time.perf_counter() - start
print(elapsed, min(before, kernel_time(3)))
"""


def load_library() -> None:
    """Put the checkout's src/ first on the path, or exit if it is missing."""
    if not (SRC / "foldcost" / "__init__.py").is_file() or not CORPUS.is_dir():
        raise SystemExit(f"run.py: no foldcost sources and corpus under {ROOT}")
    sys.path.insert(0, str(SRC))
    import foldcost

    if Path(foldcost.__file__).resolve().parent != SRC / "foldcost":
        raise SystemExit(f"run.py: imported foldcost from {foldcost.__file__}, not {SRC}")


class Speedometer:
    """The machine's speed during a run, from the kernel in `speed.py`, timed
    between items at most every EVERY_S.

    The speed drifts within a second, and an item's time follows the kernel
    times next to it more closely than the run's median.  So `scaled` takes
    an item's time to the nominal speed with the mean of the kernel times
    just before and just after the item.  `factor`, the same ratio with the
    run's median kernel time, scales the traced layer times.
    """

    EVERY_S = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.EVERY_S:
            self.samples.append(kernel_time())
            self._last = time.perf_counter()

    def scaled(self, elapsed: float, after: int) -> float:
        """`elapsed` at the nominal speed, for an item that ended when
        `after` kernel times had been taken."""
        return elapsed * 2 * NOMINAL_S / (self.samples[after - 1] + self.samples[after])

    @property
    def factor(self) -> float:
        return NOMINAL_S / statistics.median(self.samples)


def measure_setup() -> float:
    """Set-up time at the nominal speed, from fresh interpreter processes.

    Each sample is scaled by the kernel timed in its own process, since the
    speed of a short process depends on the core it lands on.  The samples
    fall into SETUP_GROUPS groups in order; the result is the median of each
    group's fastest sample, which a stray slow process does not move.
    """
    scaled = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(CORPUS), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60)
        elapsed, kernel = map(float, child.stdout.split())
        scaled.append(elapsed * NOMINAL_S / kernel)
    size = SETUP_SAMPLES // SETUP_GROUPS
    return statistics.median(min(scaled[i:i + size]) for i in range(0, SETUP_SAMPLES, size))


@dataclass
class Pass:
    """Item latencies at the nominal speed, failed item ids and the rounds
    run, in order."""

    times: list[float] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    rounds: list[list] = field(default_factory=list)


def run_rounds(rounds: Iterable[list], seconds: float | None, speed: Speedometer,
               tracer=None, min_items: int = 0) -> Pass:
    """Run whole rounds, in one closed loop, until `seconds` have passed and
    at least `min_items` items have run.  The clock starts again after a
    `FixedRound`, so its time comes on top of `seconds`."""
    from workloads import FixedRound  # imports foldcost, so not before load_library

    result = Pass()
    marks = []  # per item: kernel times taken before it ended
    gc.collect()
    speed.sample(force=True)
    start = time.perf_counter()
    for batch in rounds:
        for item in batch:
            if tracer is not None:
                tracer.item = item.id
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a failed item is counted, not fatal
                out = exc
            result.times.append(time.perf_counter() - t0)
            marks.append(len(speed.samples))
            if tracer is not None:
                tracer.settle()
            try:
                ok = not isinstance(out, Exception) and item.check(out)
            except Exception as exc:
                out, ok = exc, False
            if not ok:
                result.failed.append(item.id if not isinstance(out, Exception)
                                     else f"{item.id} raised {type(out).__name__}: {out}")
            speed.sample()
        result.rounds.append(batch)
        if isinstance(batch, FixedRound):
            start = time.perf_counter()
        elif (seconds is not None and time.perf_counter() - start >= seconds
                and len(result.times) >= min_items):
            break
    speed.sample(force=True)
    result.times = [speed.scaled(t, after) for t, after in zip(result.times, marks)]
    return result


def _merge(*passes: Pass) -> Pass:
    return Pass([t for p in passes for t in p.times], [f for p in passes for f in p.failed],
                [r for p in passes for r in p.rounds])


@dataclass
class Result:
    metrics: dict[str, float]
    run: Pass          # every item run, the warm-up round included
    samples: int       # item latencies the metrics are taken from
    speed: Speedometer


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: Path | None = None, min_items: int = MIN_ITEMS) -> Result:
    import workloads

    make = workloads.WORKLOADS[name]
    refs = refs or workloads.REFS
    speed = Speedometer()
    rounds = make(seed, refs)
    # The first round is untimed: the heap grows and every code path runs
    # once before anything is timed.
    warm = run_rounds(rounds, 0, speed)
    if not trace:
        setup_s = measure_setup()
        p = run_rounds(rounds, seconds, speed, min_items=min_items)
        times = sorted(p.times)
        p95 = statistics.quantiles(times, n=20)[18] if len(times) > 1 else times[0]
        metrics = {
            "items_per_s": len(times) / sum(times),
            "item_p50_ms": statistics.median(times) * 1e3,
            "item_p95_ms": p95 * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return Result(metrics, _merge(warm, p), len(p.times), speed)

    from spans import Tracer, layer_metrics

    # The rounds an untraced run times, then the same rounds again, traced.
    plain = run_rounds(rounds, seconds, speed, min_items=min_items)
    with Tracer() as tracer:
        traced = run_rounds(plain.rounds, None, speed, tracer)
    tracer.write(TRACES / f"{name}.jsonl")
    metrics = layer_metrics(tracer.spans, len(traced.times))
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] *= speed.factor
    metrics["trace.overhead_ratio"] = sum(traced.times) / sum(plain.times)
    return Result(metrics, _merge(warm, plain, traced), len(traced.times), speed)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; prints one table."""
    status = 0
    for w in _benchmark()["workloads"]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--min-items", str(args.min_items),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr, end="")
            status = child.returncode
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{w['name']:<9} {metric:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"{w['name']:<9} {'failed_ratio':<40} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="campaign, probe, sweep, recheck, or all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to run rounds (default %(default)s)")
    parser.add_argument("--min-items", type=int, default=MIN_ITEMS,
                        help="run rounds until at least this many items are timed "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    bench = _benchmark()
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    load_library()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          min_items=args.min_items)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    if set(result.metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"run.py: metrics {sorted(set(result.metrics) ^ {m['name'] for m in declared})} "
                         "differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}

    failed = result.run.failed
    for item_id in failed[:20]:
        print(f"failed: {item_id}", file=sys.stderr)
    attempted = len(result.run.times)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} items={attempted} "
          f"timed={result.samples} rounds={len(result.run.rounds)} "
          f"speed_factor={result.speed.factor:.4f} kernel_samples={len(result.speed.samples)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {len(failed) / attempted:.6g} ratio")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
