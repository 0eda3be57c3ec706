"""Algorithm 1's outer loop, shared by every execution path.

Algorithm 1 is one loop: iteration ``tau`` runs ``N`` phases, one per
SBS, and the run stops once the relative cost change is at most the
accuracy level ``gamma`` or after ``T`` iterations.  The dense simulator
(:class:`~repro.core.distributed.DistributedOptimizer`), the sparse
solver (:func:`~repro.core.sparse.solve_distributed_sparse`) and the
socket runtime (:class:`~repro.runtime.server.RuntimeServer`) differ
only in how a phase runs, so they all drive :class:`Algorithm1Loop`.

The loop is sans-IO: it never sends, awaits or solves.  It hands out
:class:`Sweep` descriptors, books the phases the caller reports, and
takes back each sweep's end-of-sweep cost.  It owns the
:class:`~repro.core.convergence.CostHistory`, the price-coordination
schedule and its closing restoration sweep, the convergence rule, and
the ``run_start`` / ``phase`` / ``iteration`` / ``run_end`` events with
their spans.  An ``async`` caller awaits its sweep in the same plain
``for``::

    order = check_sweep_order(sweep_order, problem.num_sbs)
    loop = Algorithm1Loop(config, problem.shape, problem.max_cost())
    loop.start({"mode": config.mode}, private=False, resilient=False)
    for sweep in loop.sweeps():
        with loop.iteration_span(sweep):
            for phase, sbs in enumerate(order):
                with loop.phase_span(phase, sbs):
                    ...  # SBS ``sbs`` solves and uploads; the BS folds
                    loop.record_phase(phase, sbs, system_cost(), solve_stats)
        loop.end_sweep(system_cost())
    loop.finish(result)
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import obs, perf
from ..exceptions import ValidationError
from .convergence import CostHistory, PhaseRecord

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .distributed import DistributedConfig, DistributedResult
    from .sparse import SparseDistributedResult

__all__ = ["Algorithm1Loop", "Sweep", "check_sweep_order"]

#: Price coordination certifies convergence only once the cap slack has
#: essentially vanished; without prices the slack is always zero.
_SETTLED_SLACK = 0.02


def check_sweep_order(sweep_order: Optional[Sequence[int]], num_sbs: int) -> List[int]:
    """The phase order of one sweep: ``sweep_order``, or ``0..N-1``.

    Raises :class:`~repro.exceptions.ValidationError` unless the order
    is a permutation of the SBS indices.
    """
    if sweep_order is None:
        return list(range(num_sbs))
    order = [int(i) for i in sweep_order]
    if sorted(order) != list(range(num_sbs)):
        raise ValidationError(f"sweep_order must be a permutation of 0..{num_sbs - 1}")
    return order


@dataclasses.dataclass(frozen=True)
class Sweep:
    """What one sweep of ``N`` phases runs with.

    ``slack`` loosens each SBS's residual cap and ``price_step`` is the
    BS's congestion-price step (``None``: prices frozen); both are zero
    / ``None`` outside price coordination.  The ``restoration`` sweep is
    the final zero-slack Gauss-Seidel pass of a prices run; it is not
    counted as an iteration.
    """

    iteration: int
    slack: float = 0.0
    price_step: Optional[float] = None
    restoration: bool = False


class Algorithm1Loop:
    """One run of Algorithm 1's outer loop (see the module docstring).

    ``shape`` is the instance's ``(N, U, F)`` and ``initial_cost`` its
    all-at-the-BS cost ``W``.  ``allowed_stale`` is how many stale
    phases (crashed SBSs, undelivered uploads) an iteration may contain
    and still certify convergence.  ``span`` opens the run's spans:
    the ambient :func:`repro.obs.span` by default, a node tracker's
    ``span`` for the socket server.  ``perf_names`` are the
    :mod:`repro.perf` iteration counter and sweep timer to feed (the
    restoration sweep feeds neither).
    """

    def __init__(
        self,
        config: "DistributedConfig",
        shape: Tuple[int, int, int],
        initial_cost: float,
        *,
        allowed_stale: int = 0,
        span: Callable[..., Any] = obs.span,
        perf_names: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.config = config
        self.shape = shape
        self.history = CostHistory(initial_cost=initial_cost)
        self.iterations = 0
        self.converged = False
        self._allowed_stale = allowed_stale
        self._span = span
        self._perf_names = perf_names
        self._run_span: Any = None
        self._open: Optional[Sweep] = None
        self._previous_cost = initial_cost
        # Per-sweep trace aggregates (populated only while tracing).
        self._gaps: List[float] = []
        self._norms: List[float] = []

    def start(self, span_attrs: Mapping[str, Any], **fields: Any) -> None:
        """Emit ``run_start`` (plus caller ``fields``) and open the root span."""
        config = self.config
        if obs.enabled():
            num_sbs, num_groups, num_files = self.shape
            obs.emit(
                "run_start",
                run="algorithm1",
                num_sbs=num_sbs,
                num_groups=num_groups,
                num_files=num_files,
                mode=config.mode,
                coordination=config.coordination,
                accuracy=config.accuracy,
                max_iterations=config.max_iterations,
                warm_start=config.warm_start,
                initial_cost=float(self.history.initial_cost),
                **fields,
            )
        # Explicit start/finish (not ``with``) so the root span closes
        # before ``run_end`` and its event stays inside the run bracket.
        self._run_span = self._span("run", category="run", **span_attrs).start()

    def sweeps(self) -> Iterator[Sweep]:
        """The run's sweeps; call :meth:`end_sweep` before asking for the next."""
        config = self.config
        with_prices = config.coordination == "prices"
        for iteration in range(config.max_iterations):
            sweep = Sweep(iteration)
            if with_prices:
                sweep = Sweep(
                    iteration,
                    slack=config.slack0 * config.slack_decay**iteration,
                    price_step=config.price_eta0 / (1.0 + config.price_alpha * iteration),
                )
            yield self._open_sweep(sweep)
            if self.converged:
                break
        if with_prices:
            # Feasibility restoration: one zero-slack sweep with frozen
            # prices removes any residual over-service left by the
            # transient slack.
            yield self._open_sweep(Sweep(self.iterations, restoration=True))

    def _open_sweep(self, sweep: Sweep) -> Sweep:
        if self._open is not None:
            raise RuntimeError("end_sweep() was not called for the previous sweep")
        self._open = sweep
        self._gaps, self._norms = [], []
        return sweep

    def _current(self) -> Sweep:
        if self._open is None:
            raise RuntimeError("no sweep is open")
        return self._open

    @contextlib.contextmanager
    def iteration_span(self, sweep: Sweep) -> Iterator[None]:
        """Bracket the sweep's phases in its ``iteration`` span (and perf timer)."""
        timer: ContextManager[None] = contextlib.nullcontext()
        if self._perf_names is not None and not sweep.restoration:
            counter, name = self._perf_names
            perf.count(counter)
            timer = perf.timed(name)
        restoration = {"restoration": True} if sweep.restoration else {}
        with self._span(
            "iteration", category="iteration", iteration=sweep.iteration, **restoration
        ), timer:
            yield

    def phase_span(self, phase: int, sbs: int, *, category: str = "solve") -> Any:
        """The (unstarted) ``phase`` span of SBS ``sbs`` in the open sweep."""
        iteration = self._current().iteration
        return self._span(
            "phase", category=category, sbs=sbs, iteration=iteration, phase=phase
        )

    def record_phase(
        self,
        phase: int,
        sbs: int,
        cost: float,
        stats: Optional[Mapping[str, float]] = None,
        *,
        noise_l1: float = 0.0,
        retries: int = 0,
        stale: bool = False,
    ) -> None:
        """Book phase ``phase`` of the open sweep and emit its ``phase`` event.

        ``cost`` is the system cost after the phase.  ``stats`` are the
        phase solve's trace extras — ``dual_gap``, ``mu_norm`` and, under
        timings, ``solve_seconds`` — or ``None`` when SBS ``sbs`` solved
        nothing.  ``stale`` marks a phase whose report the BS could not
        refresh (see :class:`~repro.core.convergence.PhaseRecord`).
        """
        record = PhaseRecord(
            self._current().iteration, phase, sbs, cost, noise_l1, retries, stale
        )
        self.history.record_phase(record)
        if not obs.enabled():
            return
        fields: Dict[str, Any] = dataclasses.asdict(record)
        if stats:
            for key in ("dual_gap", "mu_norm", "solve_seconds"):
                if key in stats:
                    fields[key] = stats[key]
            if "dual_gap" in stats:
                self._gaps.append(stats["dual_gap"])
            if "mu_norm" in stats:
                self._norms.append(stats["mu_norm"])
        obs.emit("phase", **fields)

    def end_sweep(self, cost: float) -> None:
        """Close the open sweep at system cost ``cost``; test convergence."""
        sweep = self._current()
        self._open = None
        self.history.close_iteration(cost)
        fields: Dict[str, Any] = {"iteration": sweep.iteration, "cost": float(cost)}
        if sweep.restoration:
            fields["restoration"] = True
        else:
            self.iterations = sweep.iteration + 1
            denominator = abs(cost) if cost != 0 else 1.0
            relative_change = abs(self._previous_cost - cost) / denominator
            self._previous_cost = cost
            fields["relative_change"] = float(relative_change)
            # Early price sweeps run with a loose slack and immature
            # prices, and an iteration with stale phases can leave the
            # cost frozen without optimizing anything: neither may
            # certify convergence.
            self.converged = (
                sweep.slack < _SETTLED_SLACK
                and self.history.stale_phase_count(sweep.iteration) <= self._allowed_stale
                and relative_change <= self.config.accuracy
            )
        if obs.enabled():
            if self._gaps:
                fields["dual_gap_max"] = max(self._gaps)
            if self._norms:
                fields["mu_norm_max"] = max(self._norms)
                fields["mu_norm_mean"] = sum(self._norms) / len(self._norms)
            obs.emit("iteration", **fields)

    def finish(self, result: Union["DistributedResult", "SparseDistributedResult"]) -> None:
        """Close the root span (with its resource profile) and emit ``run_end``."""
        if obs.spans_enabled():
            self._run_span.annotate(**obs.resource_attrs(obs.timings_enabled()))
        self._run_span.finish()
        if not obs.enabled():
            return
        history = self.history
        # Dense and socket runs also report the pre-noise cost and their
        # channel's traffic; the sparse solver has neither.
        from . import distributed  # deferred: distributed imports this module

        dense: Dict[str, Any] = {}
        if isinstance(result, distributed.DistributedResult):
            dense = {
                "unperturbed_cost": result.unperturbed_cost,
                "channel": dataclasses.asdict(result.channel.stats),
            }
        # repro-taint: disable=REPRO701 -- deliberate accuracy-loss reporting: pre-noise cost is a scalar system aggregate (Fig. 5)
        obs.emit(
            "run_end",
            final_cost=float(history.final_cost),
            iterations=self.iterations,
            converged=self.converged,
            total_epsilon=result.total_epsilon,
            stale_phases=history.stale_phase_count(),
            total_retries=history.total_retries(),
            phases=len(history.phases),
            **dense,
        )
