"""Tests for the per-SBS Lagrangian subproblem (Eqs. 10-23, Theorem 1)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import subproblem
from repro.core.problem import ProblemInstance
from repro.core.subproblem import (
    SubproblemConfig,
    cache_subproblem,
    routing_subproblem,
    solve_subproblem,
    solve_subproblem_exhaustive,
)
from repro.exceptions import ValidationError

from conftest import random_problem


class TestCacheSubproblem:
    def test_integral_output(self, tiny_problem):
        """Theorem 1: the relaxed caching subproblem has integral optima."""
        multipliers = np.array(
            [
                [3.0, 1.0, 0.5, 0.0],
                [2.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        caching = cache_subproblem(tiny_problem, 0, multipliers)
        assert set(np.unique(caching)).issubset({0.0, 1.0})

    def test_picks_largest_aggregated_multipliers(self, tiny_problem):
        multipliers = np.zeros((3, 4))
        multipliers[:, 2] = 5.0
        multipliers[:, 1] = 1.0
        caching = cache_subproblem(tiny_problem, 0, multipliers)
        assert caching[2] == 1.0 and caching[1] == 1.0
        assert caching.sum() == 2.0  # capacity

    def test_zero_multipliers_with_tiebreak(self, tiny_problem):
        value = np.array([1.0, 5.0, 3.0, 0.0])
        caching = cache_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), tie_break_value=value
        )
        assert caching[1] == 1.0 and caching[2] == 1.0

    def test_zero_multipliers_without_tiebreak(self, tiny_problem):
        caching = cache_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert caching.sum() == 0.0  # no positive multipliers, nothing forced

    def test_zero_capacity(self, tiny_problem):
        problem = tiny_problem.with_cache_capacity(0.0)
        caching = cache_subproblem(problem, 0, np.ones((3, 4)))
        assert caching.sum() == 0.0

    def test_matches_lp_relaxation(self, tiny_problem, rng):
        """The greedy selection equals the LP optimum of Eq. 18."""
        from repro.solvers.lp import solve_lp

        for _ in range(5):
            multipliers = rng.uniform(0.0, 2.0, size=(3, 4))
            caching = cache_subproblem(tiny_problem, 0, multipliers)
            aggregated = multipliers.sum(axis=0)
            lp = solve_lp(
                -aggregated,
                a_ub=np.ones((1, 4)),
                b_ub=[2.0],
                upper=np.ones(4),
                backend="simplex",
            )
            assert float(aggregated @ caching) == pytest.approx(-lp.objective, abs=1e-9)


def stable_head_selection(num_files, capacity, aggregated, filler_order):
    """The selection as a stable descending argsort: the positive part of
    its first ``capacity`` entries, topped up along ``filler_order``."""
    caching = np.zeros(num_files)
    if capacity == 0:
        return caching
    head = np.argsort(-aggregated, kind="stable")[:capacity]
    take = head[aggregated[head] > 0]
    caching[take] = 1.0
    if take.size < capacity and filler_order is not None:
        taken = np.zeros(num_files, dtype=bool)
        taken[take] = True
        caching[filler_order[~taken[filler_order]][: capacity - take.size]] = 1.0
    return caching


@st.composite
def selection_inputs(draw):
    num_files = draw(st.integers(1, 12))
    # A small pool of repeated values makes ties at the cut common.
    value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0)
    aggregated = np.array(draw(st.lists(value, min_size=num_files, max_size=num_files)))
    capacity = draw(st.integers(0, num_files + 2))
    filler = draw(st.none() | st.permutations(range(num_files)).map(np.array))
    return num_files, capacity, aggregated, filler


class TestCacheSetSelection:
    """``_select_cache_set`` against the stable-argsort head.  The batched
    and legacy tiers share it, so their parity suite cannot catch a
    selection bug."""

    @given(selection_inputs())
    @example((4, 2, np.array([1.0, 2.0, 1.0, 1.0]), None))  # ties at the cut
    @example((5, 2, np.array([0.0, 3.0, -1.0, 0.0, 3.0]), np.array([2, 0, 4, 1, 3])))
    @example((5, 3, np.array([0.0, -2.0, -0.0, -1.0, 0.0]), np.arange(5)[::-1]))
    @example((3, 0, np.array([1.0, 2.0, 3.0]), np.arange(3)))  # capacity 0
    @example((3, 5, np.array([1.0, -1.0, 0.0]), np.array([1, 2, 0])))  # capacity >= F
    @example((4, 2, np.array([0.5, -1.0, 2.0, 0.0]), np.arange(4)))  # positives == capacity
    @example((1, 1, np.array([0.0]), np.arange(1)))  # F = 1
    @example((1, 1, np.array([-1.0]), None))
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort_head(self, inputs):
        num_files, capacity, aggregated, filler = inputs
        np.testing.assert_array_equal(
            subproblem._select_cache_set(num_files, capacity, aggregated, filler),
            stable_head_selection(num_files, capacity, aggregated, filler),
        )


class TestRoutingSubproblem:
    def test_zero_multipliers_serves_greedily(self, tiny_problem):
        caps = np.ones((3, 4)) * tiny_problem.connectivity[0][:, np.newaxis]
        routing = routing_subproblem(tiny_problem, 0, np.zeros((3, 4)), caps)
        usage = float(np.sum(routing * tiny_problem.demand))
        assert usage <= tiny_problem.bandwidth[0] + 1e-9
        assert usage > 0.0

    def test_huge_multipliers_stop_routing(self, tiny_problem):
        caps = np.ones((3, 4)) * tiny_problem.connectivity[0][:, np.newaxis]
        routing = routing_subproblem(tiny_problem, 0, np.full((3, 4), 1e7), caps)
        assert np.all(routing == 0.0)

    def test_caps_respected(self, tiny_problem):
        caps = np.full((3, 4), 0.25) * tiny_problem.connectivity[0][:, np.newaxis]
        routing = routing_subproblem(tiny_problem, 0, np.zeros((3, 4)), caps)
        assert routing.max() <= 0.25 + 1e-12


class TestSolveSubproblem:
    def test_feasible_output(self, tiny_problem):
        result = solve_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert result.caching.sum() <= tiny_problem.cache_capacity[0] + 1e-9
        assert np.all(result.routing <= result.caching[np.newaxis, :] + 1e-9)
        usage = float(np.sum(result.routing * tiny_problem.demand))
        assert usage <= tiny_problem.bandwidth[0] + 1e-9

    def test_matches_exhaustive_tiny(self, tiny_problem):
        for sbs in range(tiny_problem.num_sbs):
            dual = solve_subproblem(tiny_problem, sbs, np.zeros((3, 4)))
            exact = solve_subproblem_exhaustive(tiny_problem, sbs, np.zeros((3, 4)))
            assert dual.cost == pytest.approx(exact.cost, rel=1e-6)

    def test_matches_exhaustive_random(self, rng):
        for _ in range(4):
            problem = random_problem(rng, num_sbs=2, num_groups=4, num_files=5)
            aggregate = rng.uniform(0.0, 0.5, size=(4, 5))
            dual = solve_subproblem(problem, 0, aggregate)
            exact = solve_subproblem_exhaustive(problem, 0, aggregate)
            assert dual.cost == pytest.approx(exact.cost, rel=1e-5)

    def test_respects_aggregate_caps(self, tiny_problem):
        aggregate = np.ones((3, 4))  # everything already served
        result = solve_subproblem(tiny_problem, 0, aggregate)
        assert np.all(result.routing == 0.0)

    def test_dual_history_recorded(self, tiny_problem):
        result = solve_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), SubproblemConfig(max_iter=30)
        )
        assert len(result.dual_history) >= 1
        assert result.iterations == len(result.dual_history)

    def test_dual_lower_bounds_primal(self, tiny_problem):
        """Weak duality: best dual <= best primal cost (both for min P_n)."""
        result = solve_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert result.best_dual <= result.cost + 1e-6

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SubproblemConfig(max_iter=0)
        with pytest.raises(ValidationError):
            SubproblemConfig(tol=-1.0)


class TestExhaustive:
    def test_subset_guard(self, rng):
        problem = random_problem(rng, num_files=30)
        with pytest.raises(ValidationError, match="enumerate"):
            solve_subproblem_exhaustive(
                problem, 0, np.zeros((problem.num_groups, 30)), max_subsets=10
            )


class TestFastOracleParity:
    """The hoisted fast oracle must be indistinguishable from the legacy one."""

    def _parity(self, problem, sbs, aggregate, prices=None, cap_slack=0.0):
        from repro.core.subproblem import SubproblemWorkspace

        workspace = SubproblemWorkspace(problem)
        fast = solve_subproblem(
            problem,
            sbs,
            aggregate,
            SubproblemConfig(fast=True),
            prices=prices,
            cap_slack=cap_slack,
            workspace=workspace,
        )
        legacy = solve_subproblem(
            problem,
            sbs,
            aggregate,
            SubproblemConfig(fast=False),
            prices=prices,
            cap_slack=cap_slack,
        )
        assert np.array_equal(fast.caching, legacy.caching)
        assert np.array_equal(fast.routing, legacy.routing)
        assert fast.cost == legacy.cost
        assert fast.iterations == legacy.iterations
        assert fast.dual_history == legacy.dual_history
        assert np.array_equal(fast.multipliers, legacy.multipliers)

    def test_bit_identical_zero_aggregate(self, tiny_problem):
        self._parity(tiny_problem, 0, np.zeros((3, 4)))

    def test_bit_identical_random_instances(self, rng):
        for _ in range(4):
            problem = random_problem(rng)
            aggregate = np.clip(
                rng.uniform(size=(problem.num_groups, problem.num_files)), 0.0, 1.0
            )
            for sbs in range(problem.num_sbs):
                self._parity(problem, sbs, aggregate)

    def test_bit_identical_with_prices_and_slack(self, rng):
        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        aggregate = np.clip(rng.uniform(size=shape) * 0.8, 0.0, 1.0)
        prices = rng.uniform(0.0, 0.5, size=shape)
        self._parity(problem, 0, aggregate, prices=prices, cap_slack=0.3)

    def test_workspace_reuse_is_safe(self, rng):
        """Solving twice through one workspace must not leak state."""
        from repro.core.subproblem import SubproblemWorkspace

        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        workspace = SubproblemWorkspace(problem)
        agg_a = np.zeros(shape)
        agg_b = np.clip(rng.uniform(size=shape), 0.0, 1.0)
        first = solve_subproblem(
            problem, 0, agg_a, SubproblemConfig(), workspace=workspace
        )
        solve_subproblem(problem, 0, agg_b, SubproblemConfig(), workspace=workspace)
        again = solve_subproblem(
            problem, 0, agg_a, SubproblemConfig(), workspace=workspace
        )
        assert first.cost == again.cost
        assert np.array_equal(first.routing, again.routing)

    def test_workspace_adapts_to_shape_change(self, tiny_problem, rng):
        """One workspace across differently-shaped cells: re-allocated, exact.

        The sweep runner reuses a workspace across cells whose ``(U, F)``
        shapes differ; stale buffers must be re-validated, not trusted.
        """
        from repro.core.subproblem import SubproblemWorkspace

        other = random_problem(rng, num_groups=7, num_files=9)
        workspace = SubproblemWorkspace(other)
        agg_other = np.clip(
            rng.uniform(size=(other.num_groups, other.num_files)), 0.0, 1.0
        )
        first = solve_subproblem(other, 0, agg_other, workspace=workspace)
        # Shape change mid-reuse: buffers must adapt to the new (U, F).
        shrunk = solve_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), workspace=workspace
        )
        fresh = solve_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), workspace=SubproblemWorkspace(tiny_problem)
        )
        assert shrunk.cost == fresh.cost
        assert np.array_equal(shrunk.routing, fresh.routing)
        assert np.array_equal(shrunk.caching, fresh.caching)
        # And back up to the original shape, still exact.
        again = solve_subproblem(other, 0, agg_other, workspace=workspace)
        assert again.cost == first.cost
        assert np.array_equal(again.routing, first.routing)


class TestDeferredRecoveryTieOrder:
    """Deferred recovery keeps the incumbent of the legacy tier's
    sequential strict-``<`` scan when cache sets recover to equal cost."""

    # One SBS, one group, four identical files and one cache slot: every
    # single-file cache set recovers to exactly the same cost.
    PROBLEM = ProblemInstance(
        demand=np.full((1, 4), 2.0),
        connectivity=np.ones((1, 1)),
        cache_capacity=np.array([1.0]),
        bandwidth=np.array([10.0]),
        sbs_cost=np.ones((1, 1)),
        bs_cost=np.array([5.0]),
    )

    @pytest.mark.parametrize("candidate", [None, 3])
    @pytest.mark.parametrize("first_visit", [None, 2])
    def test_equal_costs_keep_the_first_evaluated(self, monkeypatch, candidate, first_visit):
        evaluated = []

        def recording(problem, sbs, caching, *args):
            routing, cost = evaluate(problem, sbs, caching, *args)
            evaluated.append((int(np.flatnonzero(caching)[0]), cost))
            return routing, cost

        evaluate = subproblem._evaluate_cache_set
        monkeypatch.setattr(subproblem, "_evaluate_cache_set", recording)
        kwargs = {}
        if candidate is not None:
            kwargs["candidate_caching"] = np.eye(4)[candidate]
        if first_visit is not None:
            # A warm start that makes the first visited set the non-lowest file.
            kwargs["initial_multipliers"] = 0.1 * np.eye(4)[first_visit][np.newaxis]
        aggregate = np.zeros((1, 4))
        legacy = solve_subproblem(
            self.PROBLEM, 0, aggregate, SubproblemConfig(oracle="legacy", polish=False), **kwargs
        )
        batched = solve_subproblem(
            self.PROBLEM, 0, aggregate, SubproblemConfig(polish=False), **kwargs
        )
        # The premise: the candidate and several visited sets all tie.
        assert len({cost for _, cost in evaluated}) == 1
        assert len({file for file, _ in evaluated}) == 4
        expected = [candidate, first_visit, 0]
        assert evaluated[0][0] == next(file for file in expected if file is not None)
        np.testing.assert_array_equal(legacy.caching, np.eye(4)[evaluated[0][0]])
        np.testing.assert_array_equal(batched.caching, legacy.caching)
        np.testing.assert_array_equal(batched.routing, legacy.routing)
        assert batched.cost == legacy.cost
