"""Outside-in span tracing of the layers one benchmark solve passes through.

The benchmark never edits the program: for the traced run it replaces a
few public functions and methods -- at the module or class the program
looks them up from -- with wrappers that record a span around each call,
and puts the originals back afterwards.  Spans stay in memory and are
written out once the run ends.

A span is ``[id, parent, solve, name, t0_ns, t1_ns, attrs]``.  Every
wrapped call is synchronous (the socket runtime's clients are asyncio
tasks, but no wrapped function awaits), so a plain stack of open spans
gives each span its causal parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from repro.core import distributed, sparse
from repro.core.distributed import BaseStationAgent
from repro.core.sparse import SparseProblemInstance
from repro.network.messaging import Channel
from repro.privacy.mechanism import LaplacePrivacyMechanism
from repro.runtime import wire
from repro.solvers.fractional_knapsack import KnapsackBatchWorkspace

ID, PARENT, SOLVE, NAME, T0, T1, ATTRS = range(7)


class SpanLog:
    """In-memory span store with a stack of the spans currently open."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.solve = -1
        self._stack: List[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, self.solve, name, 0, 0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[T0] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[T1] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Record the body as one span (the benchmark's own calls)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, function: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        """``function`` with every call recorded as a span called ``name``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    def write(self, path, header: Dict[str, Any]) -> None:
        """Write the header and every span as JSON lines, times in ns."""
        origin = self.spans[0][T0] if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                record = {
                    "id": span[ID],
                    "parent": span[PARENT],
                    "solve": span[SOLVE],
                    "name": span[NAME],
                    "t0_ns": span[T0] - origin,
                    "t1_ns": span[T1] - origin,
                }
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                out.write(json.dumps(record, sort_keys=True) + "\n")


def _subproblem_attrs(args, result) -> Dict[str, int]:
    # Computed from the block instance the solve received: its demand
    # array spans the block's cells and is nonzero on demand pairs only.
    demand = args[0].demand
    return {
        "dual_iters": int(result.iterations),
        "cells": int(demand.size),
        "pairs": int(np.count_nonzero(demand)),
    }


def _frame_attrs(args, result) -> Dict[str, int]:
    return {"bytes": len(result)}


# (owner, attribute, span name, attrs) -- owner is where the program looks
# the name up at call time.  Layer = the span name's prefix.
TARGETS: Sequence[Tuple[Any, str, str, Optional[Callable]]] = (
    (distributed, "solve_subproblem", "subproblem.solve", _subproblem_attrs),
    (sparse, "solve_subproblem", "subproblem.solve", _subproblem_attrs),
    (KnapsackBatchWorkspace, "prepare_row", "knapsack.prepare", None),
    (KnapsackBatchWorkspace, "solve_row", "knapsack.solve", None),
    (KnapsackBatchWorkspace, "solve_row_scaled", "knapsack.solve", None),
    (LaplacePrivacyMechanism, "perturb", "privacy.perturb", None),
    (BaseStationAgent, "collect_upload", "distributed.bs", None),
    (BaseStationAgent, "absorb_uploads", "distributed.bs", None),
    (BaseStationAgent, "system_cost", "distributed.bs", None),
    (BaseStationAgent, "broadcast_aggregate", "distributed.bs", None),
    (SparseProblemInstance, "sub_instance", "sparse.sub_instance", None),
    (Channel, "send", "network.send", None),
    (wire, "encode_frame", "runtime.encode", _frame_attrs),
    (wire, "decode_frame", "runtime.decode", None),
)


@contextlib.contextmanager
def instrumented(log: SpanLog) -> Iterator[SpanLog]:
    """Install the wrappers for the body; restore the originals after."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, attrs in TARGETS:
            setattr(owner, attr, log.wrap(vars(owner)[attr], name, attrs))
        yield log
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def check_tree(spans: Sequence[list]) -> List[str]:
    """Well-formedness: every span lies inside its parent, in the same
    solve, and the children's time never exceeds their parent's."""
    problems = []
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[T1] < span[T0]:
            problems.append(f"span {span[ID]} ends before it starts")
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if span[T0] < outer[T0] or span[T1] > outer[T1] or span[SOLVE] != outer[SOLVE]:
                problems.append(f"span {span[ID]} escapes its parent {parent}")
            child_ns[parent] += span[T1] - span[T0]
    for parent, total in child_ns.items():
        if total > spans[parent][T1] - spans[parent][T0]:
            problems.append(f"children of span {parent} outlast it")
    return problems


def layer_metrics(
    log: SpanLog,
    solves: int,
    root: str,
    counters: Dict[str, int],
    outcomes: Sequence[Any],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per solve, from the spans, the program's own
    counters and the traced solves' ``outcomes``."""
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    child_s: Dict[str, float] = defaultdict(float)
    frame_bytes = 0
    cells_x_iters = dual_iters = pairs = cells = 0
    spans = log.spans
    for span in spans:
        name = span[NAME]
        seconds = (span[T1] - span[T0]) * 1e-9
        total[name] += seconds
        calls[name] += 1
        if span[PARENT] >= 0:
            child_s[spans[span[PARENT]][NAME]] += seconds
        if name == "runtime.encode":
            frame_bytes += span[ATTRS]["bytes"]
        elif name == "subproblem.solve":
            block = span[ATTRS]
            pairs += block["pairs"]
            cells += block["cells"]
            cells_x_iters += block["cells"] * block["dual_iters"]
            dual_iters += block["dual_iters"]

    def per_solve(value: float) -> float:
        return value / solves

    root_s = total[root]
    measured = total["subproblem.solve"] + total["distributed.bs"]
    codec = total["runtime.encode"] + total["runtime.decode"]
    results = [outcome[0] if isinstance(outcome, tuple) else outcome for outcome in outcomes]
    reports = [outcome[1] for outcome in outcomes if isinstance(outcome, tuple)]
    channels = [result.channel.stats for result in results if hasattr(result, "channel")]
    sparse_root = root == "sparse.solve"
    socket_root = root == "runtime.solve"
    return {
        "workload.build_s": (total["workload.build"] / max(calls["workload.build"], 1), "s"),
        "subproblem.solve_s": (per_solve(total["subproblem.solve"]), "s"),
        "subproblem.share": (total["subproblem.solve"] / root_s, "ratio"),
        "subproblem.self_s": (
            per_solve(total["subproblem.solve"] - child_s["subproblem.solve"]),
            "s",
        ),
        "subproblem.solves": (per_solve(counters.get("subproblem.solves", 0)), "count"),
        "subproblem.dual_iters": (
            per_solve(counters.get("subgradient.iterations", 0)),
            "count",
        ),
        "subproblem.cells_per_dual_iter": (cells_x_iters / max(dual_iters, 1), "cells"),
        "subproblem.pair_fill": (pairs / max(cells, 1), "ratio"),
        "knapsack.prepare_s": (per_solve(total["knapsack.prepare"]), "s"),
        "knapsack.prepare_calls": (per_solve(calls["knapsack.prepare"]), "count"),
        "knapsack.solve_s": (per_solve(total["knapsack.solve"]), "s"),
        "knapsack.solve_calls": (per_solve(calls["knapsack.solve"]), "count"),
        "knapsack.rows": (per_solve(counters.get("knapsack.batched_rows", 0)), "count"),
        "privacy.perturb_s": (per_solve(total["privacy.perturb"]), "s"),
        "privacy.releases": (per_solve(calls["privacy.perturb"]), "count"),
        "distributed.iterations": (
            0.0 if sparse_root else per_solve(sum(r.iterations for r in results)),
            "count",
        ),
        "distributed.phases": (per_solve(counters.get("algorithm1.phases", 0)), "count"),
        "distributed.bs_s": (per_solve(total["distributed.bs"]), "s"),
        "distributed.self_s": (
            0.0 if sparse_root else per_solve(root_s - child_s[root]),
            "s",
        ),
        "sparse.iterations": (
            per_solve(counters.get("algorithm1.sparse_iterations", 0)),
            "count",
        ),
        "sparse.sub_instance_s": (per_solve(total["sparse.sub_instance"]), "s"),
        "sparse.self_s": (per_solve(root_s - child_s[root]) if sparse_root else 0.0, "s"),
        "network.messages": (per_solve(sum(s.messages_sent for s in channels)), "count"),
        "network.bytes": (per_solve(sum(s.bytes_sent for s in channels)), "B"),
        "network.send_s": (per_solve(total["network.send"]), "s"),
        "runtime.wire_encode_s": (per_solve(total["runtime.encode"]), "s"),
        "runtime.wire_decode_s": (per_solve(total["runtime.decode"]), "s"),
        "runtime.frames": (per_solve(calls["runtime.encode"]), "count"),
        "runtime.wire_bytes_per_solve": (per_solve(frame_bytes), "B"),
        "runtime.wait_s": (
            per_solve(root_s - measured - codec) if socket_root else 0.0,
            "s",
        ),
        "runtime.retransmissions": (per_solve(sum(r.retransmissions for r in reports)), "count"),
        "runtime.stale_phases": (per_solve(sum(r.stale_phases for r in reports)), "count"),
    }
