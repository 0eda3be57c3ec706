"""Randomized exact-parity suites for the batched numpy kernels.

The batched fractional-knapsack row kernel and the batched subgradient
ascent are only admissible because they are *bit-identical* to the
scalar paths — same stable tie-breaking, same floating-point operation
order.  These suites hammer that claim with seeded random instances,
degenerate cases included, asserting exact equality (no tolerances
anywhere).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subproblem import (
    SubproblemConfig,
    SubproblemWorkspace,
    solve_subproblem,
)
from repro.solvers.fractional_knapsack import (
    KnapsackBatchWorkspace,
    solve_fractional_knapsack,
)

from conftest import random_problem


def _random_knapsack(rng: np.random.Generator, batch: int, items: int):
    """One random batch instance with adversarial structure mixed in."""
    costs = rng.normal(0.0, 1.0, size=(batch, items))
    weights = rng.uniform(0.0, 2.0, size=items)
    caps = rng.uniform(0.0, 3.0, size=(batch, items))
    # Zero-weight (free) items with negative costs.
    if items >= 2:
        weights[rng.integers(items)] = 0.0
    # Value-density ties: clone one item's cost/weight pair into another.
    if items >= 3:
        src, dst = rng.choice(items, size=2, replace=False)
        costs[:, dst] = costs[:, src]
        weights[dst] = weights[src]
    # Zero caps on a slice of items.
    caps[:, rng.integers(items)] = 0.0
    budget = float(rng.uniform(0.0, weights.sum() + 1.0))
    return costs, weights, caps, budget


def _row_kernel(costs, weights, caps, budget, *, scaled, workspace=None):
    """Every row through the production kernel: bind, prepare, solve.

    ``scaled`` routes the solve through ``solve_row_scaled`` with the
    ``caps * weights`` products precomputed, as the dual routing row of
    the ascent does; otherwise through ``solve_row``.
    """
    rows, items = costs.shape
    if workspace is None:
        workspace = KnapsackBatchWorkspace(rows, items)
    workspace.resize(items)
    workspace.bind_weights(weights)
    allocations = np.empty_like(costs)
    for row in range(rows):
        workspace.prepare_row(row, costs[row])
        if scaled:
            allocation = workspace.solve_row_scaled(
                row, caps[row] * weights, caps[row], budget
            )
        else:
            allocation = workspace.solve_row(row, caps[row], budget)
        allocations[row] = allocation
    return allocations


def _assert_rows_match_scalar(costs, weights, caps, budget, *, workspace=None, label=""):
    """Both row kernels equal the scalar solver bit for bit on every row."""
    for scaled in (False, True):
        allocations = _row_kernel(
            costs, weights, caps, budget, scaled=scaled, workspace=workspace
        )
        for row in range(costs.shape[0]):
            scalar = solve_fractional_knapsack(costs[row], weights, budget, caps[row])
            assert np.array_equal(allocations[row], scalar.allocation), (
                f"{label} row {row} (scaled={scaled}): allocations differ"
            )
            assert float(costs[row] @ allocations[row]) == scalar.objective
            assert float(weights @ allocations[row]) == scalar.budget_used


class TestKnapsackBatchParity:
    """Production row kernel vs ``solve_fractional_knapsack``: exact, always."""

    def test_random_instances_exact(self):
        """~200 random batches, each row checked against the scalar solver."""
        rng = np.random.default_rng(1234)
        workspace = KnapsackBatchWorkspace(5, 1)
        for case in range(200):
            batch = int(rng.integers(1, 6))
            items = int(rng.integers(1, 25))
            costs, weights, caps, budget = _random_knapsack(rng, batch, items)
            if case % 11 == 0:
                budget = 0.0  # degenerate: no budget at all
            _assert_rows_match_scalar(
                costs, weights, caps, budget, workspace=workspace, label=f"case {case}"
            )

    def test_single_item_rows(self):
        """The smallest possible instance, profitable and not."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            costs = rng.normal(0.0, 1.0, size=(1, 1))
            weights = rng.uniform(0.0, 2.0, size=1)
            caps = rng.uniform(0.0, 2.0, size=(1, 1))
            budget = float(rng.uniform(0.0, 2.0))
            _assert_rows_match_scalar(costs, weights, caps, budget)

    def test_all_ties_all_profitable(self):
        """Every item identical: stable order must match the scalar sort."""
        items = 12
        costs = np.full((3, items), -1.0)
        weights = np.full(items, 0.5)
        caps = np.ones((3, items))
        _assert_rows_match_scalar(costs, weights, caps, 2.0)

    def test_zero_capacity_everywhere(self):
        costs = np.array([[-1.0, -2.0, -3.0]])
        weights = np.array([1.0, 1.0, 1.0])
        caps = np.zeros((1, 3))
        _assert_rows_match_scalar(costs, weights, caps, 5.0)
        allocation = _row_kernel(costs, weights, caps, 5.0, scaled=False)
        assert float(costs[0] @ allocation[0]) == 0.0

    def test_workspace_reuse_across_batch_shapes(self):
        """One workspace, resized across item counts, stays exact."""
        rng = np.random.default_rng(99)
        workspace = KnapsackBatchWorkspace(5, 4)
        for batch, items in ((2, 4), (3, 7), (1, 2), (5, 20), (4, 3)):
            costs, weights, caps, budget = _random_knapsack(rng, batch, items)
            _assert_rows_match_scalar(
                costs, weights, caps, budget, workspace=workspace, label=f"{batch}x{items}"
            )


class TestSubgradientStepParity:
    """Batched multiplier updates vs the scalar ascent: exact trajectories."""

    def test_projected_step_matches_scalar(self):
        """The fused 2-D projected step equals the per-element update."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            mu = np.abs(rng.normal(0.0, 1.0, size=size))
            subgrad = rng.normal(0.0, 1.0, size=size)
            step = float(rng.uniform(0.0, 0.5))
            batched = np.maximum(mu + step * subgrad, 0.0)
            scalar = np.array(
                [max(mu[i] + step * subgrad[i], 0.0) for i in range(size)]
            )
            assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize("polish", [True, False])
    def test_full_ascent_parity_random_instances(self, polish):
        """Batched dual ascent == hoisted == legacy on random subproblems.

        This is the end-to-end guarantee: same dual history (every
        iterate), same multipliers, same primal solution — so
        ``repro-trace diff`` and the byte-identity anchors are safe no
        matter which oracle ran.
        """
        rng = np.random.default_rng(2024)
        ws_batched = None
        ws_hoisted = None
        for case in range(12):
            problem = random_problem(
                rng,
                num_sbs=2,
                num_groups=int(rng.integers(2, 7)),
                num_files=int(rng.integers(2, 9)),
            )
            if ws_batched is None:
                ws_batched = SubproblemWorkspace(problem)
                ws_hoisted = SubproblemWorkspace(problem)
            shape = (problem.num_groups, problem.num_files)
            aggregate = np.clip(rng.uniform(size=shape) * 1.2 - 0.1, 0.0, None)
            kwargs = {}
            if case % 3 == 1:
                kwargs["prices"] = np.abs(rng.normal(0.0, 0.05, size=shape))
                kwargs["cap_slack"] = 0.1
            if case % 3 == 2:
                kwargs["initial_multipliers"] = np.abs(
                    rng.normal(0.0, 0.2, size=shape)
                )
            solutions = {
                oracle: solve_subproblem(
                    problem,
                    0,
                    aggregate,
                    SubproblemConfig(oracle=oracle, polish=polish, max_iter=30),
                    workspace={
                        "batched": ws_batched,
                        "hoisted": ws_hoisted,
                        "legacy": None,
                    }[oracle],
                    **kwargs,
                )
                for oracle in ("batched", "hoisted", "legacy")
            }
            reference = solutions["legacy"]
            for oracle in ("batched", "hoisted"):
                candidate = solutions[oracle]
                assert np.array_equal(candidate.caching, reference.caching), (
                    f"case {case}: {oracle} caching differs"
                )
                assert np.array_equal(candidate.routing, reference.routing)
                assert candidate.cost == reference.cost
                assert candidate.best_dual == reference.best_dual
                assert candidate.dual_history == reference.dual_history
                assert candidate.iterations == reference.iterations
                assert candidate.converged == reference.converged
                assert np.array_equal(candidate.multipliers, reference.multipliers)
