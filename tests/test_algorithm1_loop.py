"""The shared Algorithm-1 outer loop and the observability it gives every solver."""

import pytest

from repro import obs
from repro.core.algorithm1 import Algorithm1Loop, Sweep, check_sweep_order
from repro.core.distributed import DistributedConfig
from repro.core.sparse import solve_distributed_sparse
from repro.exceptions import ValidationError
from repro.obs.recorder import ListRecorder
from repro.obs.span_analysis import check_spans, critical_path
from repro.workload.cityscale import generate_city_instance

SHAPE = (2, 3, 4)


def _drive(loop, costs, *, stale_sbs=()):
    """Run ``loop`` with a scripted end-of-sweep cost per sweep."""
    sweeps = []
    for sweep in loop.sweeps():
        sweeps.append(sweep)
        cost = costs[min(len(sweeps) - 1, len(costs) - 1)]
        with loop.iteration_span(sweep):
            for phase in range(SHAPE[0]):
                loop.record_phase(phase, phase, cost, stale=phase in stale_sbs)
        loop.end_sweep(cost)
    return sweeps


class TestLoop:
    def test_stops_once_relative_change_is_within_accuracy(self):
        loop = Algorithm1Loop(DistributedConfig(accuracy=1e-3), SHAPE, 100.0)
        sweeps = _drive(loop, [50.0, 40.0, 40.0, 10.0])
        assert [s.iteration for s in sweeps] == [0, 1, 2]
        assert loop.converged and loop.iterations == 3
        assert loop.history.iteration_costs == [50.0, 40.0, 40.0]
        assert len(loop.history.phases) == 3 * SHAPE[0]

    def test_iteration_cap_without_convergence(self):
        loop = Algorithm1Loop(DistributedConfig(max_iterations=3), SHAPE, 100.0)
        _drive(loop, [90.0, 80.0, 70.0])
        assert not loop.converged and loop.iterations == 3

    def test_stale_phases_block_convergence_beyond_allowance(self):
        strict = Algorithm1Loop(DistributedConfig(max_iterations=4), SHAPE, 100.0)
        _drive(strict, [50.0], stale_sbs=(1,))
        assert not strict.converged and strict.iterations == 4
        quorum = Algorithm1Loop(
            DistributedConfig(max_iterations=4), SHAPE, 100.0, allowed_stale=1
        )
        _drive(quorum, [50.0], stale_sbs=(1,))
        assert quorum.converged and quorum.iterations == 2

    def test_prices_schedule_and_restoration_sweep(self):
        config = DistributedConfig(max_iterations=3, coordination="prices")
        loop = Algorithm1Loop(config, SHAPE, 100.0)
        sweeps = _drive(loop, [50.0])
        assert [s.restoration for s in sweeps] == [False, False, False, True]
        assert sweeps[0] == Sweep(0, config.slack0, config.price_eta0)
        assert sweeps[2].slack == pytest.approx(config.slack0 * config.slack_decay**2)
        assert sweeps[-1] == Sweep(3, restoration=True)
        # The restoration sweep is booked but never counted as an iteration.
        assert loop.iterations == 3 and len(loop.history.iteration_costs) == 4

    def test_prices_hold_convergence_until_slack_settles(self):
        config = DistributedConfig(max_iterations=12, coordination="prices")
        loop = Algorithm1Loop(config, SHAPE, 100.0)
        sweeps = _drive(loop, [50.0])
        settled = [s for s in sweeps if not s.restoration]
        assert settled[-1].slack < 0.02 <= settled[-2].slack
        assert loop.converged

    def test_sweep_must_be_closed_before_the_next(self):
        loop = Algorithm1Loop(DistributedConfig(), SHAPE, 100.0)
        sweeps = loop.sweeps()
        next(sweeps)
        with pytest.raises(RuntimeError):
            next(sweeps)

    def test_phase_outside_a_sweep_is_refused(self):
        loop = Algorithm1Loop(DistributedConfig(), SHAPE, 100.0)
        with pytest.raises(RuntimeError):
            loop.record_phase(0, 0, 1.0)
        with pytest.raises(RuntimeError):
            loop.end_sweep(1.0)

    def test_sweep_order_check(self):
        assert check_sweep_order(None, 3) == [0, 1, 2]
        assert check_sweep_order([2, 0, 1], 3) == [2, 0, 1]
        with pytest.raises(ValidationError):
            check_sweep_order([0, 0, 1], 3)


def _sparse_trace(*, timings, spans):
    sink = ListRecorder()
    with obs.recording(sink, timings=timings, spans=spans):
        solve_distributed_sparse(
            generate_city_instance(6, 40, 600, rng=1), DistributedConfig(max_iterations=5)
        )
    return sink.events


class TestSparseObservability:
    def test_one_phase_span_per_phase_event(self):
        events = _sparse_trace(timings=False, spans=True)
        assert check_spans(events) == []
        phases = [e for e in events if e["type"] == "phase"]
        phase_spans = [
            e for e in events if e["type"] == "span" and e["name"] == "phase"
        ]
        assert len(phase_spans) == len(phases) > 0
        assert {e["category"] for e in phase_spans} == {"solve"}
        assert [(e["iteration"], e["phase"], e["sbs"]) for e in phase_spans] == [
            (e["iteration"], e["phase"], e["sbs"]) for e in phases
        ]
        path = critical_path(events)
        assert any(segment["name"] == "phase" for segment in path["chain"])
        assert path["by_category"]["solve"] > 0

    def test_phase_events_carry_solve_seconds_under_timings(self):
        events = _sparse_trace(timings=True, spans=False)
        phases = [e for e in events if e["type"] == "phase"]
        solved = [e for e in phases if "dual_gap" in e]
        assert solved
        assert all(e["solve_seconds"] > 0 for e in solved)

    def test_spans_and_timings_off_carry_neither(self):
        events = _sparse_trace(timings=False, spans=False)
        assert not [e for e in events if e["type"] == "span"]
        assert not [e for e in events if "solve_seconds" in e]
