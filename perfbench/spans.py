"""Per-layer spans, recorded from outside the library.

A traced run replaces each layer function by a wrapper at the name its
caller looks up: `foldcost.<name>` for the benchmark's own calls, and
`foldcost.harness.<name>` for the calls that check_program and tabulate
make.  The work inside the spans is exactly what those functions do; only
the top-level call at each of those names is seen, not the recursion inside
a layer.

A span is (name, start, end, parent span, item id, size).  Sizes such as DAG
nodes, AST nodes and bytes are computed by `settle`, which the runner calls
after each item, outside every span.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Callable

from foldcost.complexity import CplxExpr
from foldcost.syntax import Expr


def _distinct_nodes(root: object, base: type) -> int:
    """Nodes reachable from root, each shared node counted once."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(v for v in vars(node).values() if isinstance(v, base))
    return len(seen)


def _dag_nodes(args, result) -> int:
    return _distinct_nodes(result, CplxExpr)


def _ast_nodes(args, result) -> int:
    return _distinct_nodes(result, Expr)


def _probe_counts(args, result) -> tuple[int, int]:
    return result.probes_checked or 0, result.probes_skipped or 0


# (module, attribute, span name, size taken from the call's args and result)
WRAP_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("foldcost", "gen_typed_term", "harness.gen_typed_term", _ast_nodes),
    ("foldcost", "check_program", "harness.check_program", _probe_counts),
    ("foldcost", "tabulate", "harness.tabulate", lambda args, result: len(result.rows)),
    ("foldcost", "parse", "parser.parse", lambda args, result: len(args[0].encode("utf-8"))),
    ("foldcost", "typecheck", "typecheck.typecheck", None),
    ("foldcost", "translate", "translate.translate", _dag_nodes),
    ("foldcost", "ctypecheck", "complexity.ctypecheck", None),
    ("foldcost.harness", "typecheck", "typecheck.typecheck", None),
    ("foldcost.harness", "translate", "translate.translate", _dag_nodes),
    ("foldcost.harness", "ctypecheck", "complexity.ctypecheck", None),
    ("foldcost.harness", "denote", "complexity.denote", None),
    ("foldcost.harness", "eval_expr", "interp.eval_expr", lambda args, result: result.cost),
    ("foldcost.harness", "to_source", "syntax.to_source", None),
)

NAME, START, END, PARENT, ITEM, SIZE = range(6)


class Tracer:
    """Wraps the layer functions while active and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._pending: list[tuple[int, Callable, tuple, object]] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, size in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, size))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, fn: Callable, name: str, size: Callable | None) -> Callable:
        spans, stack, pending = self.spans, self._stack, self._pending

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                pending.append((index, size, args, result))
            return result

        return traced

    def settle(self) -> None:
        """Compute the sizes of the spans recorded since the last call."""
        for index, size, args, result in self._pending:
            self.spans[index][SIZE] = size(args, result)
        self._pending.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "item", "size")
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], items: int) -> dict[str, float]:
    """Per-layer metrics, each per item except ratios and per-call figures.

    busy_s counts a layer's outermost spans only; self_s subtracts the time
    covered by a span's direct children.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    sizes: dict[str, float] = {}
    denote_under_tabulate = 0
    checked = skipped = 0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration
        parent = span[PARENT]
        if parent >= 0:
            self_time[spans[parent][NAME]] = self_time.get(spans[parent][NAME], 0.0) - duration
        ancestors = set()
        while parent >= 0:
            ancestors.add(spans[parent][NAME])
            parent = spans[parent][PARENT]
        if name not in ancestors:
            busy[name] = busy.get(name, 0.0) + duration
        if name == "complexity.denote" and "harness.tabulate" in ancestors:
            denote_under_tabulate += 1
        if name == "harness.check_program" and span[SIZE] is not None:
            checked += span[SIZE][0]
            skipped += span[SIZE][1]
        elif span[SIZE] is not None:
            sizes[name] = sizes.get(name, 0) + span[SIZE]

    per_item = 1.0 / items
    out: dict[str, float] = {}
    for name in ("translate.translate", "complexity.ctypecheck", "complexity.denote",
                 "parser.parse", "interp.eval_expr", "harness.gen_typed_term",
                 "syntax.to_source", "typecheck.typecheck"):
        out[f"{name}.calls"] = calls.get(name, 0) * per_item
        out[f"{name}.busy_s"] = busy.get(name, 0.0) * per_item
    for name in ("harness.tabulate", "harness.check_program"):
        out[f"{name}.calls"] = calls.get(name, 0) * per_item
        out[f"{name}.self_s"] = self_time.get(name, 0.0) * per_item
    out["translate.translate.dag_nodes"] = sizes.get("translate.translate", 0) * per_item
    out["parser.parse.bytes"] = sizes.get("parser.parse", 0) * per_item
    out["interp.eval_expr.cost_units"] = sizes.get("interp.eval_expr", 0) * per_item
    out["harness.gen_typed_term.ast_nodes"] = sizes.get("harness.gen_typed_term", 0) * per_item
    out["harness.tabulate.rows"] = sizes.get("harness.tabulate", 0) * per_item
    tabulates = calls.get("harness.tabulate", 0)
    out["harness.tabulate.denote_per_call"] = denote_under_tabulate / tabulates if tabulates else 0.0
    out["harness.check_program.probes_checked"] = checked * per_item
    out["harness.check_program.probes_skipped"] = skipped * per_item
    out["harness.probe.useful_ratio"] = checked / (checked + skipped) if checked + skipped else 0.0
    return out
