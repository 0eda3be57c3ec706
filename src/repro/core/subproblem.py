"""Per-SBS subproblem ``P_n`` (Section III, Eqs. 10-23).

Given the aggregate routing policy ``y_{-n}`` of every other SBS, SBS
``n`` jointly chooses its caching vector ``x_n in {0,1}^F`` and routing
block ``y_n in [0,1]^{U x F}`` to minimize its view of the network cost.
The paper solves this by Lagrangian dual decomposition:

1. relax the cache-coupling constraint ``y <= x`` with multipliers
   ``mu[u, f] >= 0`` (Eq. 15-16);
2. the **caching subproblem** (Eq. 18) maximizes
   ``sum_f x[f] * sum_u mu[u, f]`` under the capacity constraint — its LP
   relaxation is integral (Theorem 1), so it reduces to picking the
   ``C_n`` files with the largest positive aggregated multipliers;
3. the **routing subproblem** (Eq. 20) is a linear program with a single
   budget constraint — an exact fractional knapsack;
4. the multipliers follow the projected subgradient update of Eq. 21
   with the diminishing steps of Eq. 22 and subgradient ``y - x``
   (Eq. 23).

Because the dual iterates' primal pairs need not be jointly feasible, we
add standard *primal recovery*: every cache set the dual iterates visit
is evaluated exactly (best feasible routing for that set via the
knapsack) and the cheapest feasible pair is returned.  An
optional local-search polish swaps files in/out of the best cache set
until no single swap improves the cost, and an exhaustive solver is
provided for validating optimality on tiny instances.

Three oracle tiers back the dual ascent (``SubproblemConfig.oracle``):

* the **batched** tier (the ``fast=True`` default) is one dual-ascent
  kernel over an *item vector*.  An item is one routing variable
  ``y[u, f]``; it carries its knapsack weight ``lambda[u, f]``, its
  routing coefficient, its residual cap and the id of its local file.
  The caching subproblem keeps its ``(F,)`` cache vector and gets its
  per-file multiplier sums by ``np.bincount`` over the item -> file map;
  every mask, knapsack row and subgradient step runs over the items
  only, in preallocated :class:`SubproblemWorkspace` buffers.  Primal
  recovery is deferred: the ascent records the distinct cache sets it
  visits and evaluates them in batches afterwards, with a greedy over
  the paid items of the cached files only.  The kernel has two callers:

  - a dense :class:`~repro.core.problem.ProblemInstance`, whose items
    are all ``U * F`` cells in C order — the whole block, bit for bit
    the same vectors as the reference tiers see;
  - a :class:`PairSubproblem`, whose items are the ``P`` demand pairs
    one SBS can serve (the sparse solver builds one per SBS with
    :meth:`~repro.core.sparse.SparseProblemInstance.pair_subproblem`).
    A cell without demand has routing coefficient and knapsack weight
    zero: it is never profitable, so its routing and its multiplier stay
    exactly ``0.0`` on every dual iterate, and dropping it changes no
    cache set, routing value or multiplier.
* the **hoisted** tier (``oracle="hoisted"``) hoists the same loop
  invariants but makes one scalar knapsack call per oracle evaluation;
* the **legacy** tier (``fast=False``) routes every dual iteration
  through the public, validating helpers (:func:`cache_subproblem`,
  :func:`routing_subproblem`).

The hoisted and legacy tiers take dense instances only; they are the
references the batched tier is cross-checked against bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .. import perf
from .._validation import as_float_array, check_positive_int
from ..exceptions import ValidationError
from ..solvers.fractional_knapsack import KnapsackBatchWorkspace, solve_fractional_knapsack
from ..solvers.subgradient import StepSchedule, subgradient_ascent
from .problem import ProblemInstance
from .routing import optimal_routing_for_sbs, residual_caps

__all__ = [
    "SubproblemConfig",
    "SubproblemSolution",
    "SubproblemWorkspace",
    "PairSubproblem",
    "solve_subproblem",
    "solve_subproblem_exhaustive",
    "cache_subproblem",
    "routing_subproblem",
]

# Cache sets (recovery candidates, polish trials) are evaluated in
# chunks of this many rows; the chunk size bounds the trial buffers of
# :class:`SubproblemWorkspace`.
_TRIAL_CHUNK = 32


@dataclasses.dataclass(frozen=True)
class SubproblemConfig:
    """Tunables for the Lagrangian decomposition.

    Attributes
    ----------
    schedule:
        Dual step-size schedule.  ``None`` auto-scales ``eta0`` to half
        the largest absolute routing coefficient so the multipliers can
        reach the coefficients' magnitude in a handful of steps.
    max_iter / tol / patience:
        Stopping controls for the dual ascent (see
        :func:`repro.solvers.subgradient.subgradient_ascent`).
    polish:
        Run single-swap local search on the recovered cache set.
    fast:
        Use a hoisted, buffer-reusing oracle (see the module
        docstring).  ``False`` selects the legacy per-iteration
        validated helpers; both produce bit-identical solutions.
    oracle:
        Which implementation backs the dual ascent: ``"batched"`` (the
        default — batched numpy kernels, one fused knapsack batch and an
        allocation-free subgradient step per iteration), ``"hoisted"``
        (the scalar fast path: hoisted invariants but one scalar
        knapsack call per subproblem), or ``"legacy"`` (per-iteration
        validated helpers).  ``None`` derives the choice from ``fast``
        (``True`` → ``"batched"``, ``False`` → ``"legacy"``).  All three
        produce bit-identical solutions; the tiers exist so the perf
        benchmarks can measure each rung of the ladder.
    """

    schedule: Optional[StepSchedule] = None
    max_iter: int = 120
    tol: float = 1e-7
    patience: int = 25
    polish: bool = True
    fast: bool = True
    oracle: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive_int(self.max_iter, "max_iter")
        check_positive_int(self.patience, "patience")
        if self.tol < 0:
            raise ValidationError(f"tol must be nonnegative, got {self.tol}")
        if self.oracle not in (None, "batched", "hoisted", "legacy"):
            raise ValidationError(
                "oracle must be one of 'batched', 'hoisted', 'legacy' or None, "
                f"got {self.oracle!r}"
            )

    def resolved_oracle(self) -> str:
        """The effective oracle tier after applying the ``fast`` default."""
        if self.oracle is not None:
            return self.oracle
        return "batched" if self.fast else "legacy"


@dataclasses.dataclass(frozen=True)
class SubproblemSolution:
    """Solution of ``P_n`` for one SBS.

    ``cost`` is the *local objective* ``f_n`` of Eq. 10 (it contains the
    constant BS term induced by ``y_{-n}``, so it is comparable across
    candidate policies of the same SBS but not across SBSs).

    The routing and the multipliers have one entry per item of the
    solve: ``U * F`` cells shaped ``(U, F)`` for a dense
    :class:`~repro.core.problem.ProblemInstance`, ``P`` demand pairs
    shaped ``(P,)`` for a :class:`PairSubproblem`.
    """

    caching: np.ndarray  # (F,)
    routing: np.ndarray  # (U, F) cells, or (P,) pairs
    cost: float
    best_dual: float
    dual_history: Tuple[float, ...]
    iterations: int
    converged: bool
    multipliers: Optional[np.ndarray] = None  # final dual iterate, shaped like routing


@dataclasses.dataclass(frozen=True)
class PairSubproblem:
    """One SBS's ``P_n`` over an item vector (``N = 1``).

    The items are cells of the SBS's ``(num_rows, num_files)`` block in
    row-major order.  The sparse solver keeps only the demand pairs the
    SBS can serve (cells without demand are not items; see the module
    docstring for why that is exact), and :func:`solve_subproblem` takes
    such a view with ``sbs=0`` and a ``(P,)`` aggregate of the other
    SBSs' routing on the same pairs, returning ``(P,)`` routing and
    multipliers.  The dense batched tier solves the full grid of a
    :class:`~repro.core.problem.ProblemInstance` as a view whose items
    are all ``U * F`` cells.
    """

    demand: np.ndarray  # (P,) lambda of each pair: the knapsack weights
    coefficients: np.ndarray  # (P,) routing coefficient -(d_hat[u] - d[n, u]) * lambda
    bs_cost: np.ndarray  # (P,) d_hat[u] of each pair's group
    item_row: np.ndarray  # (P,) block row (local group) of each pair
    item_file: np.ndarray  # (P,) block column (local content) of each pair
    num_rows: int  # U_n, local groups
    num_files: int  # F_n, length of the cache vector
    capacity: int  # floor(C_n)
    bandwidth: float  # B_n

    @property
    def num_items(self) -> int:
        """Number of items ``P``."""
        return int(self.demand.size)

    def file_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-file sums of an item vector, bit for bit
        ``np.add.reduce(block, axis=0)`` of its zero-padded block.

        With two or more files that reduce adds the rows one after
        another, which is what ``bincount`` does over row-major items;
        with one file it is numpy's pairwise sum down the single column,
        so the items are put back into that column first.
        """
        if self.num_files > 1:
            return np.bincount(self.item_file, weights=values, minlength=self.num_files)
        column = np.zeros(self.num_rows)
        column[self.item_row] = values
        return np.add.reduce(column, keepdims=True)


class SubproblemWorkspace:
    """Preallocated scratch buffers for the fast subproblem oracles.

    One workspace holds every item-sized buffer the dual-ascent inner
    loop needs — one float per routing variable: ``U * F`` cells on a
    dense instance, ``P`` pairs on a :class:`PairSubproblem` — plus the
    batched tier's 2-row
    :class:`~repro.solvers.fractional_knapsack.KnapsackBatchWorkspace`
    (row 0: the dual routing subproblem, row 1: the greedy order of
    primal recovery) and the ``(_TRIAL_CHUNK, items)`` buffers of its
    cache-set evaluations, so a whole dual iteration runs without
    allocating and a caller that solves repeatedly pays the allocations
    once.

    The storage only grows.  :func:`solve_subproblem` calls
    :meth:`reserve` with the item count of each solve, which re-cuts the
    buffers and allocates only when that count exceeds every earlier one
    — so a workspace sized up front to the largest solve (the sparse
    solver sizes one to its largest pair count) never re-allocates, and
    sweep cells of different shapes can safely share one.  Every real
    allocation is counted under the ``subproblem.workspace_allocs`` perf
    counter.
    """

    __slots__ = (
        "items",
        "caps",
        "priced_mu",
        "mu",
        "subgrad",
        "prod",
        "masked_caps",
        "batch_costs",
        "knapsack",
        "_store",
        "_trials",
    )

    def __init__(self, problem: Optional[ProblemInstance] = None, *, items: int = 1) -> None:
        if problem is not None:
            items = problem.num_groups * problem.num_files
        self.items = 0
        self._store = np.empty((8, 0))
        self.reserve(items)

    def reserve(self, items: int) -> None:
        """Cut every buffer to ``items`` entries, growing the storage if needed."""
        items = max(int(items), 1)
        if items > self._store.shape[1]:
            perf.count("subproblem.workspace_allocs")
            self._store = np.empty((8, items))
            self.knapsack = KnapsackBatchWorkspace(2, items)
            # The trial buffers are the largest scratch in the workspace
            # and only the batched tier evaluates cache sets, so they are
            # allocated on first use.
            self._trials: Optional[np.ndarray] = None
        else:
            self.knapsack.resize(items)
        self.items = items
        rows = self._store[:, :items]
        self.caps, self.priced_mu, self.mu, self.subgrad, self.prod, self.masked_caps = rows[:6]
        self.batch_costs = rows[6:]

    def trial_buffers(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(allocation, product)`` scratch for ``count <= _TRIAL_CHUNK``
        evaluated cache sets, each ``(count, items)``; allocated on first use."""
        if self._trials is None:
            perf.count("subproblem.workspace_allocs")
            self._trials = np.empty((2, _TRIAL_CHUNK * self._store.shape[1]))
        allocation, product = self._trials[:, : count * self.items].reshape(2, count, self.items)
        return allocation, product


def _routing_coefficients(problem: ProblemInstance, sbs: int) -> np.ndarray:
    """Linear coefficients ``c[u, f]`` of ``y[n, u, f]`` in ``f_n``.

    From Eq. 10: ``c = (d[n,u] - d_hat[u]) * l[n,u] * lambda[u,f]``,
    nonpositive wherever offloading pays.
    """
    return -problem.savings_margin()[sbs][:, np.newaxis] * problem.demand


def _constant_term(problem: ProblemInstance, sbs: int, aggregate_others: np.ndarray) -> float:
    """The ``y_n``-independent part of ``f_n`` (BS cost of what others leave).

    ``sum_u d_hat[u] * sum_f (1 - y_{-n}[u,f] * l[n,u]) * lambda[u,f]``
    evaluated with the aggregate clipped to ``[0, 1]``.
    """
    aggregate = np.clip(aggregate_others, 0.0, 1.0)
    residual = 1.0 - aggregate * problem.connectivity[sbs][:, np.newaxis]
    return float(np.sum(problem.bs_cost[:, np.newaxis] * residual * problem.demand))


def cache_subproblem(
    problem: ProblemInstance,
    sbs: int,
    multipliers: np.ndarray,
    *,
    tie_break_value: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the caching subproblem (Eq. 18) — integral per Theorem 1.

    Maximizes ``sum_f x[f] * m[f]`` with ``m[f] = sum_u mu[u, f]`` under
    ``sum_f x[f] <= C_n`` and ``x in [0, 1]``: select up to ``C_n`` files
    with the largest positive ``m[f]``.  Slots left over by zero
    multipliers are filled by ``tie_break_value`` (typically potential
    savings) — any completion is dual-optimal, and this choice speeds up
    primal recovery.
    """
    problem._check_sbs(sbs)
    multipliers = as_float_array(
        multipliers, "multipliers", shape=(problem.num_groups, problem.num_files)
    )
    aggregated = multipliers.sum(axis=0)
    capacity = int(np.floor(problem.cache_capacity[sbs] + 1e-9))
    filler_order = None
    if tie_break_value is not None:
        filler_order = np.argsort(-np.asarray(tie_break_value, dtype=np.float64), kind="stable")
    return _select_cache_set(problem.num_files, capacity, aggregated, filler_order)


def _select_cache_set(
    num_files: int,
    capacity: int,
    aggregated: np.ndarray,
    filler_order: Optional[np.ndarray],
) -> np.ndarray:
    """Shared greedy selection: top-``capacity`` positive aggregated
    multipliers, remaining slots filled along ``filler_order``.

    The chosen *set* is the positive part of the first ``capacity``
    entries of a stable descending sort, found without sorting: when
    more than ``capacity`` multipliers are positive, a partition of the
    positives places the cut, every value above it is taken, and ties at
    the cut go to the lowest file ids.  At most ``capacity`` files are
    taken before the filler, so its picks lie within the first
    ``capacity`` entries of ``filler_order``.
    """
    caching = np.zeros(num_files)
    if capacity == 0:
        return caching
    take = (aggregated > 0).nonzero()[0]
    surplus = take.size - capacity
    if surplus > 0:
        values = aggregated[take]
        values.partition(surplus)
        cut = values[surplus]
        above = aggregated > cut
        caching[above] = 1.0
        ties = (aggregated == cut).nonzero()[0]
        caching[ties[: capacity - np.count_nonzero(above)]] = 1.0
        return caching
    caching[take] = 1.0
    if surplus < 0 and filler_order is not None:
        head = filler_order[:capacity]
        caching[head[caching[head] == 0][:-surplus]] = 1.0
    return caching


def routing_subproblem(
    problem: ProblemInstance,
    sbs: int,
    multipliers: np.ndarray,
    caps: np.ndarray,
    *,
    extra_cost: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the routing subproblem (Eq. 20) by fractional knapsack.

    Minimizes ``sum (c[u,f] + mu[u,f]) * y`` under the bandwidth budget
    and ``0 <= y <= caps``.  Note the cache coupling has been dualized,
    so ``y`` ranges over all connected pairs regardless of the cache.
    ``extra_cost`` adds a further per-unit term (the BS congestion
    prices of the enhanced coordination mode).
    """
    costs = _routing_coefficients(problem, sbs) + multipliers
    if extra_cost is not None:
        costs = costs + extra_cost
    result = solve_fractional_knapsack(
        costs.ravel(),
        np.broadcast_to(problem.demand, costs.shape).ravel(),
        float(problem.bandwidth[sbs]),
        np.asarray(caps, dtype=np.float64).ravel(),
    )
    return result.allocation.reshape(problem.num_groups, problem.num_files)


def _evaluate_cache_set(
    problem: ProblemInstance,
    sbs: int,
    caching: np.ndarray,
    caps: np.ndarray,
    constant: float,
    extra_cost: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Best feasible routing for a cache set and the resulting objective.

    The objective is the (possibly price-augmented) local cost
    ``constant + sum((c + extra) * y)``.
    """
    routing = optimal_routing_for_sbs(problem, sbs, caching, caps, extra_cost=extra_cost)
    coefficients = _routing_coefficients(problem, sbs)
    if extra_cost is not None:
        coefficients = coefficients + extra_cost
    cost = constant + float(np.sum(coefficients * routing))
    return routing, cost


def _best_trial(
    trials: np.ndarray,
    batch_evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    below: float,
    first: bool = False,
) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
    """``(caching, routing, cost)`` of the winning row of ``(T, F)`` trial
    cache vectors costing below ``below``, or ``None``.

    Trials are evaluated ``_TRIAL_CHUNK`` rows at a time.  With ``first``
    the winner is the first such trial and later chunks are skipped (the
    polish's first-improvement rule); otherwise it is the cheapest, the
    earliest on ties: the trial a sequential strict-``<`` scan keeps.
    """
    found = None
    for start in range(0, trials.shape[0], _TRIAL_CHUNK):
        chunk = trials[start : start + _TRIAL_CHUNK]
        routings, costs = batch_evaluate(chunk)
        better = np.flatnonzero(costs < below)
        if better.size:
            pick = int(better[0]) if first else int(np.argmin(costs))
            below = float(costs[pick])
            found = chunk[pick].copy(), routings[pick].copy(), below
            if first:
                break
    return found


def _polish_cache_set(
    caching: np.ndarray,
    best_routing: np.ndarray,
    best_cost: float,
    *,
    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, float]],
    potential: np.ndarray,
    capacity: int,
    max_passes: int = 4,
    max_candidates: int = 12,
    batch_evaluate: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """First-improvement single-swap local search over the cache set.

    Candidate in-files are limited to the ``max_candidates`` highest
    potential-value uncached files — the only ones that can plausibly
    displace a cached file under a linear objective.  ``evaluate`` maps a
    candidate caching vector to its exact ``(routing, cost)``; the
    oracles supply their own evaluator.

    ``batch_evaluate`` (batched oracle only) maps a ``(T, F)`` matrix of
    trial cache vectors to ``(routings (T, P), costs (T,))`` in one
    shared-order knapsack batch.  Within one pass every swap trial
    derives from the same incumbent (the scalar loop accepts at most one
    swap and then restarts the pass), so evaluating all trials up front
    and accepting the first improving one visits the exact same accept
    sequence as the scalar double loop — results are bit-identical, only
    the final no-improvement pass stops paying one scalar knapsack per
    trial.
    """
    caching = caching.copy()
    for _ in range(max_passes):
        cached_files = np.flatnonzero(caching > 0)
        empty_slots = capacity - cached_files.size
        uncached_files = np.flatnonzero(caching == 0)
        # Only candidates with any potential value are worth trying.
        candidates = uncached_files[potential[uncached_files] > 0]
        candidates = candidates[np.argsort(-potential[candidates], kind="stable")]
        candidates = candidates[: max(max_candidates, empty_slots)]
        improved = False
        if empty_slots > 0:
            for f_in in candidates[:empty_slots]:
                trial = caching.copy()
                trial[f_in] = 1.0
                routing, cost = evaluate(trial)
                if cost < best_cost - 1e-12:
                    caching, best_routing, best_cost = trial, routing, cost
                    improved = True
        if batch_evaluate is not None:
            # The scalar loop scans only the first cached file once the
            # add phase already improved; mirror that exactly.
            outs = cached_files[:1] if improved else cached_files
            if outs.size and candidates.size:
                num_in = candidates.size
                trials = np.tile(caching, (outs.size * num_in, 1))
                rows = np.arange(outs.size * num_in)
                trials[rows, np.repeat(outs, num_in)] = 0.0
                trials[rows, np.tile(candidates, outs.size)] = 1.0
                # The first improving trial ends the pass, exactly where
                # the scalar loop stops.
                found = _best_trial(trials, batch_evaluate, best_cost - 1e-12, first=True)
                if found is not None:
                    caching, best_routing, best_cost = found
                    improved = True
        else:
            for f_out in cached_files:
                for f_in in candidates:
                    trial = caching.copy()
                    trial[f_out] = 0.0
                    trial[f_in] = 1.0
                    routing, cost = evaluate(trial)
                    if cost < best_cost - 1e-12:
                        caching, best_routing, best_cost = trial, routing, cost
                        improved = True
                        break
                if improved:
                    break
        if not improved:
            break
    return caching, best_routing, best_cost


def _step_schedule(
    config: SubproblemConfig, coefficients: np.ndarray, warm: bool
) -> StepSchedule:
    """``config.schedule``, or the default scaled to the coefficients."""
    if config.schedule is not None:
        return config.schedule
    scale = float(np.max(np.abs(coefficients), initial=0.0))
    # Warm-started duals sit near the optimum already: restart with a
    # quarter of the cold step so successive Gauss-Seidel iterations
    # don't re-inject oscillation into an almost-converged dual.
    eta0_factor = 0.125 if warm else 0.5
    return StepSchedule(eta0=max(scale, 1e-12) * eta0_factor, alpha=0.25)


def _start_point(initial_multipliers: Optional[np.ndarray], size: int) -> np.ndarray:
    """The first dual iterate: zeros, or the projected warm start."""
    if initial_multipliers is None:
        return np.zeros(size)
    start = np.asarray(initial_multipliers, dtype=np.float64).ravel()
    if start.size != size:
        raise ValidationError(
            "initial_multipliers must have one entry per item (U*F cells or "
            f"P pairs, here {size}), got {start.size}"
        )
    return np.maximum(start, 0.0)


def _pair_inputs(
    view: PairSubproblem,
    aggregate_others: np.ndarray,
    workspace: SubproblemWorkspace,
) -> Tuple[np.ndarray, float]:
    """Residual caps and constant term of a pair view: the values the
    zero-padded block would hold at the pairs' cells (every local group
    is connected)."""
    others = as_float_array(aggregate_others, "aggregate_others", shape=view.demand.shape)
    workspace.reserve(view.num_items)
    caps = workspace.caps
    np.subtract(1.0, others, out=caps)
    np.clip(caps, 0.0, 1.0, out=caps)
    residual = 1.0 - np.clip(others, 0.0, 1.0)
    return caps, float(np.sum(view.bs_cost * residual * view.demand))


def _solve_items(
    view: PairSubproblem,
    caps: np.ndarray,
    prices: Optional[np.ndarray],
    constant: float,
    config: SubproblemConfig,
    ws: SubproblemWorkspace,
    start: np.ndarray,
    warm: bool,
    candidate_caching: Optional[np.ndarray],
) -> SubproblemSolution:
    """The batched tier: projected dual ascent over an item vector.

    Same control flow as :func:`repro.solvers.subgradient.subgradient_ascent`
    with the oracle fused in.  Per dual iteration: one O(F) cache set
    selection, one knapsack row for the dual routing subproblem, an
    in-place projected subgradient step, and the cache set recorded if
    it is new — nothing allocated beyond the paid-item argsort and
    ``(F,)``-sized vectors.  After the ascent, primal recovery evaluates
    the recorded sets in ``_TRIAL_CHUNK``-row batches and keeps the one
    a strict-``<`` scan in visit order would keep.  ``ws`` must be
    reserved for the item count.
    """
    num_files = view.num_files
    item_file = view.item_file
    coefficients = view.coefficients
    priced = coefficients if prices is None else coefficients + prices
    bandwidth = view.bandwidth
    capacity = view.capacity
    # -c = margin * lambda exactly, so this is the potential saving
    # ``margin * lambda * caps`` summed per file: the caching filler order.
    tie_break = view.file_sums(np.negative(coefficients) * caps)
    filler_order = np.argsort(-tie_break, kind="stable")
    schedule = _step_schedule(config, coefficients, warm)

    # Row 0 of the knapsack batch is the dual routing subproblem (costs
    # change with mu each iteration).  Row 1 orders primal recovery: its
    # costs are the fixed priced coefficients, so its value-density sort
    # is paid once per solve and every evaluated cache set reuses it.
    kw = ws.knapsack
    kw.bind_weights(view.demand)
    dual_costs, recovery_costs = ws.batch_costs
    np.copyto(recovery_costs, priced)
    kw.prepare_row(1, recovery_costs)
    prod = ws.prod

    # Recovery's paid items, greedy order and caps are hoisted here.  An
    # item of an uncached file has zero capacity: it adds an exact 0.0 to
    # the greedy's sequential running sum and receives 0.0, so the greedy
    # runs over the paid items of the cached files only.
    recovery_paid = int(kw.paid_count[1])
    recovery_order = kw.order[1, :recovery_paid]
    recovery_file = item_file.take(recovery_order)
    recovery_caps = caps.take(recovery_order)
    recovery_w = kw.w_sorted[1, :recovery_paid]
    free_cols = np.flatnonzero(kw.free[1]) if kw.has_free(1) else None

    def batch_evaluate(trials: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Recovered routings ``(T, P)`` (workspace views) and costs ``(T,)``
        of ``T <= _TRIAL_CHUNK`` trial cache vectors."""
        count = trials.shape[0]
        perf.count("knapsack.batched_rows", count)
        allocation, products = ws.trial_buffers(count)
        allocation.fill(0.0)
        cached = np.take(trials.astype(bool), recovery_file, axis=1)
        flat = cached.ravel().nonzero()[0]
        if flat.size:
            rows, positions = np.divmod(flat, recovery_paid)
            # Each row's cached positions, left-aligned in greedy order in
            # a (T, width) block; the zero padding behind them is never taken.
            counts = np.bincount(rows, minlength=count)
            width = int(counts.max())
            shift = np.arange(0, count * width, width) - (np.cumsum(counts) - counts)
            cell = np.arange(flat.size) + np.repeat(shift, counts)
            load = np.zeros(count * width)
            # Same grouping as the full greedy: (cap * trial) * w.
            cached_caps = recovery_caps[positions] * trials[rows, recovery_file[positions]]
            load[cell] = cached_caps * recovery_w[positions]
            load = load.reshape(count, width)
            take = np.zeros_like(load)
            load[:, :-1].cumsum(axis=1, out=take[:, 1:])
            np.subtract(bandwidth, take, out=take)
            np.maximum(take, 0.0, out=take)
            np.minimum(take, load, out=take)
            taken = take.ravel()[cell]
            vals = np.zeros(flat.size)
            np.divide(taken, recovery_w[positions], out=vals, where=taken > 0.0)
            np.put(allocation, rows * allocation.shape[1] + recovery_order[positions], vals)
        if free_cols is not None:
            allocation[:, free_cols] = caps[free_cols] * trials[:, item_file[free_cols]]
        np.multiply(allocation, priced, out=products)
        return allocation, constant + np.add.reduce(products, axis=1)

    def evaluate(caching: np.ndarray) -> Tuple[np.ndarray, float]:
        routings, costs = batch_evaluate(caching[np.newaxis])
        return routings[0].copy(), float(costs[0])

    best_cost = np.inf
    best_caching: Optional[np.ndarray] = None
    best_routing: Optional[np.ndarray] = None
    if candidate_caching is not None:
        best_routing, best_cost = evaluate(candidate_caching)
        best_caching = candidate_caching

    mu = ws.mu
    np.copyto(mu, start)
    np.maximum(mu, 0.0, out=mu)
    subgrad = ws.subgrad
    # Row 0's caps never change during the ascent, so the greedy's
    # ``caps * weights`` products are computed exactly once.
    caps_weights = caps * view.demand
    # Without prices, ``priced + mu`` is the dual row's costs themselves.
    priced_mu = dual_costs if prices is None else ws.priced_mu
    best_dual = -np.inf
    dual_history = []
    stall = 0
    converged = False
    # Primal recovery is deferred: the dual iterates never read the
    # incumbent, so the ascent only records each distinct cache set in
    # visit order (a dict keeps insertion order), and the sets are
    # evaluated in batches after it.  Most iterations do bring a new set
    # (80% on the city-sparse benchmark, 99% on dense-lppm), so batching,
    # not skipping repeats, is what saves the per-iteration work.
    visited: dict = {}
    for iteration in range(config.max_iter):
        aggregated = view.file_sums(mu)
        caching = _select_cache_set(num_files, capacity, aggregated, filler_order)
        np.add(coefficients, mu, out=dual_costs)
        if prices is not None:
            dual_costs += prices
            np.add(priced, mu, out=priced_mu)
        kw.prepare_row(0, dual_costs)
        alloc0 = kw.solve_row_scaled(0, caps_weights, caps, bandwidth)
        visited[caching.nonzero()[0].tobytes()] = None
        np.multiply(priced_mu, alloc0, out=prod)
        dual_value = (
            constant
            + float(np.add.reduce(prod))
            - float(np.add.reduce(aggregated * caching))
        )
        dual_history.append(float(dual_value))
        improved = dual_value > best_dual + config.tol * max(1.0, abs(best_dual))
        if dual_value > best_dual:
            best_dual = float(dual_value)
        stall = 0 if improved else stall + 1
        if stall >= config.patience:
            converged = True
            break
        caching.take(item_file, out=subgrad)
        np.subtract(alloc0, subgrad, out=subgrad)
        np.multiply(subgrad, schedule(iteration), out=subgrad)
        np.add(mu, subgrad, out=mu)
        np.maximum(mu, 0.0, out=mu)
    # Each set holds min(capacity, F) files: the filler tops it up.  The
    # candidate wins ties, then the earliest visited set.
    cached_ids = np.frombuffer(b"".join(visited), dtype=np.intp)
    sets = np.zeros((len(visited), num_files))
    np.put_along_axis(sets, cached_ids.reshape(len(visited), min(capacity, num_files)), 1.0, 1)
    found = _best_trial(sets, batch_evaluate, best_cost)
    if found is not None:
        best_caching, best_routing, best_cost = found
    perf.count("subgradient.iterations", len(dual_history))

    if best_caching is None or best_routing is None:  # pragma: no cover - max_iter >= 1
        raise ValidationError("subgradient ascent performed no iterations")
    if config.polish:
        best_caching, best_routing, best_cost = _polish_cache_set(
            best_caching,
            best_routing,
            best_cost,
            evaluate=evaluate,
            potential=tie_break,
            capacity=capacity,
            batch_evaluate=batch_evaluate,
        )
    return SubproblemSolution(
        caching=best_caching,
        routing=best_routing,
        cost=best_cost,
        best_dual=best_dual,
        dual_history=tuple(dual_history),
        iterations=len(dual_history),
        converged=converged,
        multipliers=mu.copy(),
    )


def solve_subproblem(
    problem: Union[ProblemInstance, PairSubproblem],
    sbs: int,
    aggregate_others: np.ndarray,
    config: Optional[SubproblemConfig] = None,
    *,
    prices: Optional[np.ndarray] = None,
    cap_slack: float = 0.0,
    initial_multipliers: Optional[np.ndarray] = None,
    candidate_caching: Optional[np.ndarray] = None,
    workspace: Optional[SubproblemWorkspace] = None,
    constant_offset: float = 0.0,
) -> SubproblemSolution:
    """Solve ``P_n`` by the paper's dual decomposition with primal recovery.

    ``problem`` is a dense :class:`~repro.core.problem.ProblemInstance`
    (``aggregate_others`` is ``(U, F)``) or one SBS's
    :class:`PairSubproblem` (``sbs`` is ``0`` and ``aggregate_others``
    is ``(P,)`` over its pairs).  A pair view runs on the batched tier
    only and takes neither ``prices`` nor ``cap_slack``.

    ``prices`` (shape ``(U, F)``) and ``cap_slack`` support the enhanced
    price-coordination mode of the distributed optimizer: prices add a
    per-unit congestion charge to the routing coefficients, and
    ``cap_slack`` loosens the residual caps by a constant so contested
    pairs can be transiently over-served while the prices equilibrate.
    With the defaults (no prices, zero slack) this is exactly the
    paper's subproblem; the reported ``cost`` is the (price-augmented)
    local objective.

    ``initial_multipliers`` warm-starts the dual ascent — across
    Gauss-Seidel iterations the aggregate changes little, so reusing the
    previous multipliers reaches the dual region in far fewer steps
    (the :class:`~repro.core.distributed.SBSAgent` passes its last
    multipliers when ``DistributedConfig.warm_start`` is enabled).
    ``candidate_caching`` seeds the primal recovery with an incumbent
    cache set (evaluated exactly under the current caps), guaranteeing
    the returned solution is never worse than keeping the incumbent —
    which is what makes every Gauss-Seidel phase non-increasing
    regardless of dual-ascent noise.

    ``workspace`` supplies preallocated scratch buffers for the fast
    oracles (one is created per call when omitted); repeat callers should
    hold one :class:`SubproblemWorkspace` and pass it in.

    ``constant_offset`` is added to the ``y``-independent constant term.
    The sparse solver passes the BS cost of the demand *outside* the
    SBS's reach so a compact local view reports its objective on the
    same absolute scale as the dense solver — the dual ascent's
    relative stall tolerances then see (up to summation order) the same
    magnitudes and take the same trajectory.  The default ``0.0`` is a
    bit-exact no-op.
    """
    config = config or SubproblemConfig()
    perf.count("subproblem.solves")
    mode = config.resolved_oracle()
    if cap_slack < 0:
        raise ValidationError(f"cap_slack must be nonnegative, got {cap_slack}")
    warm = initial_multipliers is not None
    if candidate_caching is not None:
        candidate_caching = as_float_array(
            candidate_caching, "candidate_caching", shape=(problem.num_files,)
        )

    if isinstance(problem, PairSubproblem):
        if mode != "batched":
            raise ValidationError(
                f"a PairSubproblem runs on the batched oracle only, not {mode!r}; "
                "solve the SBS's sub_instance() block for the reference tiers"
            )
        if sbs != 0:
            raise ValidationError(f"a PairSubproblem holds one SBS: sbs must be 0, got {sbs}")
        if prices is not None or cap_slack > 0:
            raise ValidationError("prices and cap_slack need a dense ProblemInstance")
        if problem.num_items == 0:
            raise ValidationError("the PairSubproblem has no demand pairs to route")
        if workspace is None:
            workspace = SubproblemWorkspace(items=problem.num_items)
        caps, constant = _pair_inputs(problem, aggregate_others, workspace)
        return _solve_items(
            problem,
            caps,
            None,
            constant + constant_offset,
            config,
            workspace,
            _start_point(initial_multipliers, problem.num_items),
            warm,
            candidate_caching,
        )

    problem._check_sbs(sbs)
    num_groups, num_files = problem.num_groups, problem.num_files
    shape = (num_groups, num_files)
    # Arrays are validated once here, at the API boundary; the oracles
    # below trust them for the whole dual ascent.
    aggregate_others = as_float_array(aggregate_others, "aggregate_others", shape=shape)
    if prices is not None:
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != shape:
            raise ValidationError(f"prices must have shape {shape}")
    if mode != "legacy" and workspace is None:
        workspace = SubproblemWorkspace(problem)
    if workspace is not None:
        # Buffers adapt to the problem at hand: a workspace reused across
        # sweep cells of different (U, F) shapes is re-cut, never trusted
        # blindly.
        workspace.reserve(num_groups * num_files)
    caps = residual_caps(
        problem,
        sbs,
        aggregate_others,
        out=None if workspace is None else workspace.caps.reshape(shape),
        validate=False,
    )
    if cap_slack > 0:
        reach = problem.connectivity[sbs][:, np.newaxis]
        caps = np.minimum(caps + cap_slack * reach, reach)
    constant = _constant_term(problem, sbs, aggregate_others) + constant_offset
    start = _start_point(initial_multipliers, num_groups * num_files)
    if mode == "batched":
        # The dense caller of the item kernel: every cell is an item, in C
        # order, so the kernel sees exactly the block's vectors.
        assert workspace is not None
        grid = PairSubproblem(
            demand=problem.demand_flat(),
            coefficients=_routing_coefficients(problem, sbs).ravel(),
            bs_cost=np.repeat(problem.bs_cost, num_files),
            item_row=np.repeat(np.arange(num_groups), num_files),
            item_file=np.tile(np.arange(num_files), num_groups),
            num_rows=num_groups,
            num_files=num_files,
            capacity=int(problem.cache_slots()[sbs]),
            bandwidth=float(problem.bandwidth[sbs]),
        )
        solution = _solve_items(
            grid,
            caps.ravel(),
            None if prices is None else prices.ravel(),
            constant,
            config,
            workspace,
            start,
            warm,
            candidate_caching,
        )
        return dataclasses.replace(
            solution,
            routing=solution.routing.reshape(shape),
            multipliers=solution.multipliers.reshape(shape),
        )

    # The reference tiers, hoisted and legacy.
    coefficients = _routing_coefficients(problem, sbs)
    tie_break = (problem.savings_margin()[sbs][:, np.newaxis] * problem.demand * caps).sum(axis=0)
    capacity = int(problem.cache_slots()[sbs])
    schedule = _step_schedule(config, coefficients, warm)
    priced = coefficients if prices is None else coefficients + prices

    if mode == "hoisted":
        # Everything invariant across dual iterations, hoisted out of the
        # loop: flat views of the priced coefficients and caps, the shared
        # demand weights, and the tie-break filler order.
        assert workspace is not None
        ws = workspace
        coefficients_flat = coefficients.ravel()
        priced_flat = priced.ravel()
        prices_flat = None if prices is None else prices.ravel()
        caps_flat = caps.ravel()
        weights_flat = problem.demand_flat()
        bandwidth = float(problem.bandwidth[sbs])
        filler_order = np.argsort(-tie_break, kind="stable")
        costs_flat = ws.batch_costs[0]
        effective_caps = ws.masked_caps

        def evaluate(caching: np.ndarray) -> Tuple[np.ndarray, float]:
            np.multiply(
                caps, caching[np.newaxis, :], out=effective_caps.reshape(num_groups, num_files)
            )
            result = solve_fractional_knapsack(
                priced_flat,
                weights_flat,
                bandwidth,
                effective_caps,
                validate=False,
            )
            routing = result.allocation.reshape(num_groups, num_files)
            return routing, constant + float(np.sum(priced * routing))

    else:

        def evaluate(caching: np.ndarray) -> Tuple[np.ndarray, float]:
            return _evaluate_cache_set(problem, sbs, caching, caps, constant, prices)

    best: dict = {"cost": np.inf, "caching": None, "routing": None}
    if candidate_caching is not None:
        seed_routing, seed_cost = evaluate(candidate_caching)
        best.update(cost=seed_cost, caching=candidate_caching, routing=seed_routing)

    if mode == "hoisted":

        def oracle(multipliers: np.ndarray):
            mu = multipliers.reshape(num_groups, num_files)
            aggregated = mu.sum(axis=0)
            caching = _select_cache_set(num_files, capacity, aggregated, filler_order)
            np.add(coefficients_flat, multipliers, out=costs_flat)
            if prices_flat is not None:
                np.add(costs_flat, prices_flat, out=costs_flat)
            result = solve_fractional_knapsack(
                costs_flat, weights_flat, bandwidth, caps_flat, validate=False
            )
            routing = result.allocation.reshape(num_groups, num_files)
            np.add(priced_flat, multipliers, out=ws.priced_mu)
            dual_value = (
                constant
                + float(np.sum(ws.priced_mu * result.allocation))
                - float(np.sum(aggregated * caching))
            )
            subgradient = routing - caching[np.newaxis, :]
            # Primal recovery: evaluate the candidate cache set exactly.
            recovered_routing, recovered_cost = evaluate(caching)
            if recovered_cost < best["cost"]:
                best["cost"] = recovered_cost
                best["caching"] = caching
                best["routing"] = recovered_routing
            return dual_value, subgradient.ravel(), None

    else:

        def oracle(multipliers: np.ndarray):
            mu = multipliers.reshape(num_groups, num_files)
            caching = cache_subproblem(problem, sbs, mu, tie_break_value=tie_break)
            routing = routing_subproblem(problem, sbs, mu, caps, extra_cost=prices)
            dual_value = (
                constant
                + float(np.sum((priced + mu) * routing))
                - float(np.sum(mu.sum(axis=0) * caching))
            )
            subgradient = routing - caching[np.newaxis, :]
            # Primal recovery: evaluate the candidate cache set exactly.
            recovered_routing, recovered_cost = evaluate(caching)
            if recovered_cost < best["cost"]:
                best["cost"] = recovered_cost
                best["caching"] = caching
                best["routing"] = recovered_routing
            return dual_value, subgradient.ravel(), None

    result = subgradient_ascent(
        oracle,
        start,
        schedule=schedule,
        max_iter=config.max_iter,
        tol=config.tol,
        patience=config.patience,
    )
    perf.count("subgradient.iterations", result.iterations)

    caching, routing, cost = best["caching"], best["routing"], best["cost"]
    if caching is None:  # pragma: no cover - oracle always runs at least once
        raise ValidationError("subgradient ascent performed no iterations")
    if config.polish:
        caching, routing, cost = _polish_cache_set(
            caching,
            routing,
            cost,
            evaluate=evaluate,
            potential=tie_break,
            capacity=capacity,
        )
    return SubproblemSolution(
        caching=caching,
        routing=routing,
        cost=cost,
        best_dual=result.best_dual,
        dual_history=tuple(result.dual_history),
        iterations=result.iterations,
        converged=result.converged,
        multipliers=result.multipliers.reshape(num_groups, num_files),
    )


def solve_subproblem_exhaustive(
    problem: ProblemInstance,
    sbs: int,
    aggregate_others: np.ndarray,
    *,
    max_subsets: int = 200_000,
) -> SubproblemSolution:
    """Exact ``P_n`` optimum by enumerating every feasible cache set.

    Exponential in ``F``; guarded by ``max_subsets``.  Used in tests to
    certify the dual-decomposition solver.
    """
    problem._check_sbs(sbs)
    caps = residual_caps(problem, sbs, aggregate_others)
    constant = _constant_term(problem, sbs, aggregate_others)
    capacity = int(np.floor(problem.cache_capacity[sbs] + 1e-9))
    capacity = min(capacity, problem.num_files)
    from math import comb

    total = sum(comb(problem.num_files, k) for k in range(capacity + 1))
    if total > max_subsets:
        raise ValidationError(
            f"exhaustive search would enumerate {total} subsets (> {max_subsets})"
        )
    best_cost = np.inf
    best_caching: Optional[np.ndarray] = None
    best_routing: Optional[np.ndarray] = None
    files = range(problem.num_files)
    for size in range(capacity + 1):
        for subset in itertools.combinations(files, size):
            caching = np.zeros(problem.num_files)
            caching[list(subset)] = 1.0
            routing, cost = _evaluate_cache_set(problem, sbs, caching, caps, constant)
            if cost < best_cost - 1e-12:
                best_cost, best_caching, best_routing = cost, caching, routing
    assert best_caching is not None and best_routing is not None
    return SubproblemSolution(
        caching=best_caching,
        routing=best_routing,
        cost=best_cost,
        best_dual=np.nan,
        dual_history=(),
        iterations=0,
        converged=True,
    )
