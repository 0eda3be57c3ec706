"""The three Algorithm-1 workloads of the benchmark.

Each workload turns one child seed into a fresh instance (``build``),
runs one whole solve on it (``solve``), and checks that solve's output
(``check``).  The benchmark derives every child seed from its own
``--seed``, so the program only ever sees generated inputs.

Why these three (see README.md for the layer map):

* ``dense-lppm``  -- the paper's headline cell with LPPM; full demand
  fill, polish on, every seed runs the 30-iteration cap.  The only
  workload that exercises ``privacy``.
* ``city-sparse`` -- the kernel-bound city path: sparse-fill local
  blocks, no polish, no privacy, no transport.
* ``socket-tasks`` -- the noiseless cell over the loopback socket
  runtime with asyncio-task clients; a third of the time is transport.

``dense-lppm`` and ``city-sparse`` load ``core.subproblem`` in opposite
ways (full-fill blocks with polish against sparse-fill blocks without),
so a kernel change that helps one at the other's expense shows.
``dense-lppm`` and ``socket-tasks`` run the same base-station and
channel machinery, once in-process and once over sockets.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro import (
    DistributedConfig,
    FaultConfig,
    LPPMConfig,
    ScenarioConfig,
    SubproblemConfig,
    build_problem,
    solve_distributed,
)
from repro.core.sparse import solve_distributed_sparse
from repro.runtime import RuntimeConfig, solve_over_sockets
from repro.workload import generate_city_instance

EPSILON = 0.1
CITY_SHAPE = (24, 240, 16000)
# dense-lppm and city-sparse run a fixed iteration budget (accuracy 0
# disables the early stop), so the work in one solve does not depend on
# where the convergence test happens to fire: 30 iterations (90 phases,
# 90 releases) and 3 iterations (72 subproblem solves).  Left to the
# default stop, some instances of either stop after 2-5 iterations and
# the seed-to-seed spread of the timings outgrows any useful bound.
# The cost after the budget is what cost_ratio reports.
DENSE_CONFIG = DistributedConfig(accuracy=0.0)
CITY_CONFIG = DistributedConfig(
    accuracy=0.0, max_iterations=3, subproblem=SubproblemConfig(polish=False)
)


def _dense_checks(problem, solution) -> List[str]:
    """Constraints (1)-(4) and integral caching on a dense ``Solution``."""
    failures = []
    report = solution.check_feasibility(problem)
    if not report.feasible:
        failures.append(f"infeasible: {report.by_constraint()}")
    if not np.isin(solution.caching, (0.0, 1.0)).all():
        failures.append("caching is not integral")
    return failures


def _dense_identity(result) -> Tuple[bytes, bytes, float]:
    return (
        result.solution.caching.tobytes(),
        result.solution.routing.tobytes(),
        result.cost,
    )


class DenseLPPM:
    """Section V cell (3 SBSs x 30 groups x 50 videos) with LPPM at eps=0.1."""

    name = "dense-lppm"
    root = "distributed.solve"
    # Instances generated per set-up: two to three times what a 25 s window solves
    # today, so a later speed-up still finds fresh instances.
    pool_size = 160
    # cost_ratio averages this many leading solves, so it is a pure
    # function of the seed however many solves the window completes.
    cost_window = 10

    def build(self, seed: int):
        return seed, build_problem(ScenarioConfig(seed=seed))

    def solve(self, case):
        seed, problem = case
        return solve_distributed(
            problem, DENSE_CONFIG, privacy=LPPMConfig(epsilon=EPSILON), rng=seed
        )

    def check(self, case, result) -> List[str]:
        _, problem = case
        failures = _dense_checks(problem, result.solution)
        if not math.isclose(result.total_epsilon, result.iterations * EPSILON, rel_tol=1e-9):
            failures.append(
                f"total_epsilon {result.total_epsilon} != {result.iterations} x {EPSILON}"
            )
        releases = len(result.accountant.releases)
        if releases != result.iterations * problem.num_sbs:
            failures.append(f"{releases} privacy releases for {result.iterations} iterations")
        return failures

    def cost_ratio(self, case, result) -> float:
        return result.cost / case[1].max_cost()

    def identity(self, result):
        return _dense_identity(result)


class CitySparse:
    """``generate_city_instance(24, 240, 16000)`` on the sparse solver, no polish."""

    name = "city-sparse"
    root = "sparse.solve"
    pool_size = 40
    cost_window = 5

    def build(self, seed: int):
        return seed, generate_city_instance(*CITY_SHAPE, rng=seed)

    def solve(self, case):
        return solve_distributed_sparse(case[1], CITY_CONFIG)

    def check(self, case, result) -> List[str]:
        instance = case[1]
        failures = []
        report = result.solution.check_feasibility(instance)
        if not report.feasible:
            failures.append(f"infeasible: {report.by_constraint()}")
        for sbs, ids in enumerate(result.solution.caching):
            # Cache sets are stored as global content ids: integral
            # caching means distinct integer ids inside the catalogue.
            if ids.dtype.kind not in "iu" or np.unique(ids).size != ids.size:
                failures.append(f"SBS {sbs} cache set is not a set of content ids")
            elif ids.size and (ids.min() < 0 or ids.max() >= instance.num_files):
                failures.append(f"SBS {sbs} caches an id outside the catalogue")
        return failures

    def cost_ratio(self, case, result) -> float:
        return result.cost / case[1].max_cost()

    def identity(self, result):
        solution = result.solution
        return (
            b"".join(ids.tobytes() for ids in solution.caching),
            b"".join(values.tobytes() for values in solution.routing),
            result.cost,
        )


class SocketTasks:
    """The noiseless cell over loopback sockets, clients as asyncio tasks."""

    name = "socket-tasks"
    root = "runtime.solve"
    pool_size = 700
    cost_window = 50
    runtime = RuntimeConfig(mode="tasks")

    def __init__(self) -> None:
        # In-process references by instance seed: a traced run checks
        # each instance twice but solves its reference once.
        self._references = {}

    def build(self, seed: int):
        return seed, build_problem(ScenarioConfig(seed=seed))

    def solve(self, case):
        return solve_over_sockets(case[1], runtime=self.runtime)

    def check(self, case, outcome) -> List[str]:
        problem = case[1]
        result, report = outcome
        failures = _dense_checks(problem, result.solution)
        if report.retransmissions or report.stale_phases:
            failures.append(
                f"fault-free run saw {report.retransmissions} retransmissions "
                f"and {report.stale_phases} stale phases"
            )
        # The socket run must be bit-identical to the in-process
        # fault-tolerant protocol on the same instance.  The reference is
        # solved here, after the timed window, never inside it.
        seed = case[0]
        if seed not in self._references:
            self._references[seed] = _dense_identity(
                solve_distributed(problem, faults=FaultConfig())
            )
        if _dense_identity(result) != self._references[seed]:
            failures.append("socket solution differs from the in-process reference")
        return failures

    def cost_ratio(self, case, outcome) -> float:
        return outcome[0].cost / case[1].max_cost()

    def identity(self, outcome):
        return _dense_identity(outcome[0])


WORKLOADS = {w.name: w for w in (DenseLPPM(), CitySparse(), SocketTasks())}
