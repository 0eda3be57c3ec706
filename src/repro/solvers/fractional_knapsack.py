"""Fractional (continuous bounded) knapsack solver.

The routing subproblem of the paper's Lagrangian decomposition (Eq. 20)
has the form::

    min   sum_i  c_i * z_i
    s.t.  sum_i  w_i * z_i <= budget
          0 <= z_i <= cap_i

with weights ``w_i > 0`` (the demand ``lambda[u, f]``) and arbitrary-sign
costs ``c_i``.  Only items with ``c_i < 0`` are worth taking; taking them
in increasing order of ``c_i / w_i`` (most negative cost per unit of
budget first) is optimal — the classic greedy exchange argument.

The solver is exact, runs in ``O(k log k)`` for ``k`` profitable items,
and is cross-checked against the generic LP solvers in the tests.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .. import perf
from .._validation import ArrayLike
from ..exceptions import ValidationError

__all__ = [
    "KnapsackResult",
    "KnapsackBatchWorkspace",
    "solve_fractional_knapsack",
    "maximize_fractional_knapsack",
]


@dataclasses.dataclass(frozen=True)
class KnapsackResult:
    """Solution of a fractional knapsack instance."""

    allocation: np.ndarray
    objective: float
    budget_used: float

    def saturated(self, budget: float, *, rtol: float = 1e-9) -> bool:
        """Whether the budget constraint is (numerically) tight."""
        return bool(self.budget_used >= budget * (1.0 - rtol))


@dataclasses.dataclass(frozen=True)
class _Checked:
    costs: np.ndarray
    weights: np.ndarray
    caps: np.ndarray
    budget: float


def _validate(
    costs: ArrayLike,
    weights: ArrayLike,
    caps: Optional[ArrayLike],
    budget: float,
) -> _Checked:
    costs = np.asarray(costs, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if caps is None:
        caps = np.ones_like(costs)
    else:
        caps = np.asarray(caps, dtype=np.float64).ravel()
    if not (costs.shape == weights.shape == caps.shape):
        raise ValidationError(
            "costs, weights and caps must have identical lengths; got "
            f"{costs.shape}, {weights.shape}, {caps.shape}"
        )
    if np.any(~np.isfinite(costs)) or np.any(~np.isfinite(weights)) or np.any(~np.isfinite(caps)):
        raise ValidationError("knapsack inputs must be finite")
    if np.any(weights < 0):
        raise ValidationError("knapsack weights must be nonnegative")
    if np.any(caps < 0):
        raise ValidationError("knapsack caps must be nonnegative")
    budget = float(budget)
    if not np.isfinite(budget) or budget < 0:
        raise ValidationError(f"knapsack budget must be finite and nonnegative, got {budget}")
    return _Checked(costs=costs, weights=weights, caps=caps, budget=budget)


def solve_fractional_knapsack(
    costs: ArrayLike,
    weights: ArrayLike,
    budget: float,
    caps: Optional[np.ndarray] = None,
    *,
    validate: bool = True,
) -> KnapsackResult:
    """Minimize ``costs @ z`` subject to ``weights @ z <= budget, 0 <= z <= caps``.

    Items with nonnegative cost are left at zero (taking them can only
    hurt).  Zero-weight items with negative cost are free and taken at
    their cap.  Remaining profitable items are taken greedily by cost per
    unit weight until the budget is exhausted, splitting the marginal
    item fractionally.

    ``validate=False`` is the trusted-caller fast path: inputs must
    already be finite, 1-D ``float64`` arrays of equal length with
    nonnegative weights/caps and a nonnegative float budget (``caps``
    required).  The dual-ascent inner loop of Algorithm 1 calls this
    thousands of times per run, where re-validating unchanged arrays
    dominated small instances; the greedy itself is identical bit for
    bit on either path.
    """
    perf.count("knapsack.calls")
    if validate:
        data = _validate(costs, weights, caps, budget)
    else:
        data = _Checked(costs=costs, weights=weights, caps=caps, budget=budget)
    allocation = np.zeros_like(data.costs)

    profitable = data.costs < 0
    free = profitable & (data.weights == 0)
    allocation[free] = data.caps[free]

    paid = np.flatnonzero(profitable & (data.weights > 0))
    if paid.size:
        ratio = data.costs[paid] / data.weights[paid]
        order = paid[np.argsort(ratio, kind="stable")]
        # Vectorized greedy: item k may take whatever budget is left after
        # all better-ratio items took their fill.
        full = data.caps[order] * data.weights[order]
        budget_before = np.concatenate(([0.0], np.cumsum(full)[:-1]))
        take = np.clip(data.budget - budget_before, 0.0, full)
        positive = take > 0
        allocation[order[positive]] = take[positive] / data.weights[order[positive]]

    objective = float(data.costs @ allocation)
    budget_used = float(data.weights @ allocation)
    return KnapsackResult(allocation=allocation, objective=objective, budget_used=budget_used)


class KnapsackBatchWorkspace:
    """Preallocated buffers for batched fractional-knapsack solves.

    A workspace holds ``rows`` independent knapsack rows over ``items``
    shared-weight items.  The solve is split into two stages so callers
    can hoist whatever is invariant for them:

    * :meth:`prepare_row` — the cost-dependent stage: profitability
      masks, value-density ratios and the stable greedy order.  Rows
      whose costs do not change between solves (the primal-recovery row
      of the dual ascent, every polish trial) pay for their sort exactly
      once.
    * :meth:`solve_row` / :meth:`solve_row_scaled` — the caps-dependent
      stage: cumulative-capacity masking and the fractional tail split,
      pure array ops with no Python-level loop.

    :meth:`resize` re-cuts the buffers to another item count without
    allocating when the storage is already large enough.

    Every stage reproduces :func:`solve_fractional_knapsack` bit for
    bit: a row's first ``paid_count[row]`` order positions are exactly
    the scalar solver's paid subset in the same stable greedy order, the
    solve stage touches only that prefix, and the tail split performs
    the same elementwise divisions.
    """

    __slots__ = (
        "rows",
        "items",
        "weights",
        "paid",
        "free",
        "order",
        "sorted_full",
        "before",
        "take",
        "w_sorted",
        "paid_count",
        "positive",
        "vals",
        "allocation",
        "_wpos",
        "_wzero",
        "_w_has_zero",
        "_free_any",
        "_floats",
        "_flags",
        "_indices",
        "_item_floats",
        "_item_flags",
    )

    def __init__(self, rows: int, items: int) -> None:
        if rows < 1 or items < 1:
            raise ValidationError(
                f"batch workspace needs rows >= 1 and items >= 1, got ({rows}, {items})"
            )
        self.rows = rows
        self.items = 0
        self.paid_count = np.zeros(rows, dtype=np.intp)
        self._free_any = np.zeros(rows, dtype=bool)
        self._w_has_zero = False
        self._floats = np.empty((6, 0))
        self.resize(items)

    def resize(self, items: int) -> None:
        """Re-cut every buffer to ``items`` items per row.

        The storage only grows: it is re-allocated when ``items`` exceeds
        every earlier size and reused otherwise, so one workspace serves
        solves of varying size (one SBS's demand pairs after another's)
        without allocating.  Each buffer is a C-contiguous prefix of its
        storage, laid out exactly like a fresh ``(rows, items)`` array.
        Rows must be prepared again after a resize.
        """
        if items < 1:
            raise ValidationError(f"batch workspace needs items >= 1, got {items}")
        if items == self.items:
            return
        cells = self.rows * items
        if cells > self._floats.shape[1]:
            self._floats = np.empty((6, cells))
            self._flags = np.zeros((3, cells), dtype=bool)
            self._indices = np.empty(cells, dtype=np.intp)
            self._item_floats = np.empty(items)
            self._item_flags = np.empty((2, items), dtype=bool)
        shape = (self.rows, items)
        (
            self.sorted_full,
            self.before,
            self.take,
            self.w_sorted,
            self.vals,
            self.allocation,
        ) = self._floats[:, :cells].reshape((6,) + shape)
        self.paid, self.free, self.positive = self._flags[:, :cells].reshape((3,) + shape)
        self.order = self._indices[:cells].reshape(shape)
        self.weights = self._item_floats[:items]
        self._wpos, self._wzero = self._item_flags[:, :items]
        self.items = items
        self.paid_count.fill(0)
        self._free_any.fill(False)

    def has_free(self, row: int) -> bool:
        """Whether the prepared row has free items (negative cost, zero weight)."""
        return bool(self._free_any[row])

    def bind_weights(self, weights: np.ndarray) -> None:
        """Install the shared item weights (trusted: 1-D float64, >= 0)."""
        np.copyto(self.weights, weights)
        np.greater(self.weights, 0.0, out=self._wpos)
        np.equal(self.weights, 0.0, out=self._wzero)
        self._w_has_zero = bool(self._wzero.any())

    def prepare_row(self, row: int, costs: np.ndarray) -> None:
        """Cost-dependent stage for one row: masks, densities, greedy order."""
        paid = self.paid[row]
        # ``paid`` transiently holds the profitability mask (costs < 0)
        # until the positive-weight restriction lands on top of it.
        np.less(costs, 0.0, out=paid)
        if self._w_has_zero:
            np.logical_and(paid, self._wzero, out=self.free[row])
            self._free_any[row] = bool(self.free[row].any())
        else:
            self._free_any[row] = False
        np.logical_and(paid, self._wpos, out=paid)
        # Subset sort, exactly as the scalar solver: gather the paid
        # items, sort their value densities stably, and keep the order
        # as item indices.  Sorting n paid items instead of the full row
        # is the difference between O(K log K) and O(n log n) per dual
        # iteration.
        paid_idx = np.flatnonzero(paid)
        n = paid_idx.size
        self.paid_count[row] = n
        if n:
            ratio = costs[paid_idx] / self.weights[paid_idx]
            order_n = paid_idx[ratio.argsort(kind="stable")]
            self.order[row, :n] = order_n
            self.weights.take(order_n, out=self.w_sorted[row, :n])

    def solve_row(self, row: int, caps: np.ndarray, budget: float) -> np.ndarray:
        """Caps-dependent stage for one prepared row; returns a buffer view."""
        perf.count("knapsack.batched_rows")
        allocation = self.allocation[row]
        allocation.fill(0.0)
        n = int(self.paid_count[row])
        if n:
            order_n = self.order[row, :n]
            sorted_full = self.sorted_full[row, :n]
            caps.take(order_n, out=sorted_full)
            np.multiply(sorted_full, self.w_sorted[row, :n], out=sorted_full)
            before = self.before[row, :n]
            before[0] = 0.0
            sorted_full[:-1].cumsum(out=before[1:])
            take = self.take[row, :n]
            np.subtract(budget, before, out=take)
            # clip(x, 0, hi) == min(max(x, 0), hi) elementwise for finite
            # inputs — two in-place ufuncs instead of the clip dispatch.
            np.maximum(take, 0.0, out=take)
            np.minimum(take, sorted_full, out=take)
            positive = self.positive[row, :n]
            np.greater(take, 0.0, out=positive)
            vals = self.vals[row, :n]
            vals.fill(0.0)
            np.divide(take, self.w_sorted[row, :n], out=vals, where=positive)
            allocation[order_n] = vals
        if self._free_any[row]:
            free = self.free[row]
            allocation[free] = caps[free]
        return allocation

    def solve_row_scaled(
        self, row: int, scaled: np.ndarray, caps: np.ndarray, budget: float
    ) -> np.ndarray:
        """Like :meth:`solve_row` with ``caps * weights`` precomputed.

        ``scaled`` must hold the elementwise product ``caps * weights``
        — callers whose caps are loop-invariant (the dual routing row of
        the ascent) hoist that multiply out entirely.  ``caps`` is still
        needed for the free-item fixup.
        """
        perf.count("knapsack.batched_rows")
        allocation = self.allocation[row]
        allocation.fill(0.0)
        n = int(self.paid_count[row])
        if n:
            order_n = self.order[row, :n]
            sorted_full = self.sorted_full[row, :n]
            scaled.take(order_n, out=sorted_full)
            before = self.before[row, :n]
            before[0] = 0.0
            sorted_full[:-1].cumsum(out=before[1:])
            take = self.take[row, :n]
            np.subtract(budget, before, out=take)
            np.maximum(take, 0.0, out=take)
            np.minimum(take, sorted_full, out=take)
            positive = self.positive[row, :n]
            np.greater(take, 0.0, out=positive)
            vals = self.vals[row, :n]
            vals.fill(0.0)
            np.divide(take, self.w_sorted[row, :n], out=vals, where=positive)
            allocation[order_n] = vals
        if self._free_any[row]:
            free = self.free[row]
            allocation[free] = caps[free]
        return allocation


def maximize_fractional_knapsack(
    values: ArrayLike,
    weights: ArrayLike,
    budget: float,
    caps: Optional[np.ndarray] = None,
) -> KnapsackResult:
    """Maximize ``values @ z`` under the same constraints.

    Convenience wrapper: ``max v@z == -min (-v)@z``.  The returned
    ``objective`` is the *maximized* value.
    """
    result = solve_fractional_knapsack(-np.asarray(values, dtype=np.float64), weights, budget, caps)
    return KnapsackResult(
        allocation=result.allocation,
        objective=-result.objective,
        budget_used=result.budget_used,
    )
