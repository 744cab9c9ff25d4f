"""Record the reference outputs that the benchmark checks items against.

    python3 perfbench/make_refs.py

Writes refs/campaign.tsv, refs/probe.tsv and refs/sweep.tsv.  Run it only at
a commit whose outputs are trusted: a later commit is checked against these
files, so rewriting them would hide a change in the checker's verdicts.
Also writes refs/heavy.tsv: the campaign and probe pool entries whose runs
allocate the most, by tracemalloc's peak.  Every run of those workloads
times them first, so its timings and peak memory do not depend on whether
the seed draws them.  Takes about a quarter of an hour; stops with an error if any
pool entry raises.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

from run import load_library

HEAVY_PER_WORKLOAD = 8


def _line(key: str, fields) -> str:
    text = "\t".join((key, *fields))
    if "\n" in text or text.count("\t") != len(fields):
        raise ValueError(f"{key}: output does not fit one tab-separated line")
    return text


def _write(path: Path, header: str, lines: list[str]) -> None:
    path.write_text(f"# {header}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(lines)} entries)", file=sys.stderr)


def main() -> int:
    load_library()
    import workloads as w

    w.REFS.mkdir(exist_ok=True)
    start = time.perf_counter()
    heavy = []
    pools = {
        "campaign": {str(k): (lambda k=k: w.run_campaign(*w.campaign_input(k)))
                     for k in range(w.CAMPAIGN_POOL)},
        "probe": {i: (lambda i=i: w.run_probe(w.probe_program(i))) for i in w.probe_pool()},
    }
    for workload, pool in pools.items():
        lines, peaks = [], []
        for key, run in pool.items():
            tracemalloc.start()
            report = run()
            peaks.append((tracemalloc.get_traced_memory()[1], key))
            tracemalloc.stop()
            lines.append(_line(key, w.report_fields(report)))
        _write(w.REFS / f"{workload}.tsv",
               "pool id, then status cost bound size pot probes_checked probes_skipped detail",
               lines)
        heavy += [_line(f"{workload}:{key}", (str(peak),))
                  for peak, key in sorted(peaks, reverse=True)[:HEAVY_PER_WORKLOAD]]
    _write(w.REFS / "heavy.tsv", "workload:pool id, then peak bytes allocated", heavy)

    import foldcost

    lines = []
    for plan, (e, args) in w.sweep_plans().items():
        table = foldcost.tabulate(e, args, range(w.SWEEP_MAX_N + 1))
        lines += [_line(f"{plan}:{row.n}", w.row_fields(row)) for row in table.rows]
    _write(w.REFS / "sweep.tsv", "plan:n, then cost pot", lines)
    print(f"done in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
