"""Golden-trace gate for Algorithm 1's outer loop.

Every execution path of Algorithm 1 — dense caps, dense prices with its
restoration sweep, dense Jacobi, the fault-tolerant protocol, the
sparse solver and the socket runtime — is recorded with
``timings=False`` and compared against a committed trace under
``tests/golden/``.  The comparison is structural: the same events in the
same order, the same keys, exact strings, ints, bools and ``None``, and
floats within ``1e-12`` relative (so the gate survives a different BLAS).

Regenerate the goldens (only after an intended trace change) with::

    PYTHONPATH=src:tests python tests/test_golden_traces.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest
from conftest import random_problem

from repro import obs
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.sparse import solve_distributed_sparse
from repro.network.faults import FaultConfig, FaultSchedule, LinkFaultProfile
from repro.network.messaging import MessageKind
from repro.runtime import solve_over_sockets
from repro.workload.cityscale import generate_city_instance

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-12


def _problem():
    return random_problem(np.random.default_rng(12345))


def _faults() -> FaultConfig:
    return FaultConfig(
        by_kind={MessageKind.POLICY_UPLOAD: LinkFaultProfile(drop=0.3)},
        schedule=FaultSchedule().crash_sbs(1, at=1, recover_at=2),
        seed=4,
    )


#: name -> (spans on?, runner)
SCENARIOS: Dict[str, tuple] = {
    "dense_caps": (
        False,
        lambda: solve_distributed(_problem(), DistributedConfig(max_iterations=5)),
    ),
    "dense_prices": (
        False,
        lambda: solve_distributed(
            _problem(), DistributedConfig(max_iterations=4, coordination="prices")
        ),
    ),
    "dense_jacobi_prices": (
        False,
        lambda: solve_distributed(
            _problem(),
            DistributedConfig(
                max_iterations=4, mode="jacobi", damping=0.7, coordination="prices"
            ),
        ),
    ),
    "dense_faults": (
        False,
        lambda: solve_distributed(
            _problem(), DistributedConfig(max_iterations=5), faults=_faults()
        ),
    ),
    "sparse_city": (
        False,
        lambda: solve_distributed_sparse(
            generate_city_instance(6, 40, 600, rng=1),
            DistributedConfig(max_iterations=5),
        ),
    ),
    "dense_caps_spans": (
        True,
        lambda: solve_distributed(_problem(), DistributedConfig(max_iterations=5)),
    ),
    "socket_spans": (
        True,
        lambda: solve_over_sockets(_problem(), DistributedConfig(max_iterations=3)),
    ),
}


def record(name: str, path: Path) -> None:
    """Run scenario ``name`` under a deterministic recorder into ``path``."""
    spans, runner = SCENARIOS[name]
    with obs.recording(str(path), timings=False, spans=spans):
        runner()


def _load(path: Path) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _mismatch(expected: Any, actual: Any, where: str) -> str:
    """Empty string when equal under the gate's rules, else a description."""
    if isinstance(expected, float) or isinstance(actual, float):
        if type(expected) is not type(actual):
            return f"{where}: type {type(expected).__name__} != {type(actual).__name__}"
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return ""
        return f"{where}: {expected!r} != {actual!r}"
    if type(expected) is not type(actual):
        return f"{where}: type {type(expected).__name__} != {type(actual).__name__}"
    if isinstance(expected, dict):
        if sorted(expected) != sorted(actual):
            return f"{where}: keys {sorted(expected)} != {sorted(actual)}"
        for key in sorted(expected):
            found = _mismatch(expected[key], actual[key], f"{where}.{key}")
            if found:
                return found
        return ""
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(expected)} != {len(actual)}"
        for position, (left, right) in enumerate(zip(expected, actual)):
            found = _mismatch(left, right, f"{where}[{position}]")
            if found:
                return found
        return ""
    return "" if expected == actual else f"{where}: {expected!r} != {actual!r}"


def compare(expected: List[Dict[str, Any]], actual: List[Dict[str, Any]]) -> str:
    """First difference between two event streams, or ``""``."""
    if [e.get("type") for e in expected] != [e.get("type") for e in actual]:
        return (
            f"event order differs: {[e.get('type') for e in expected]} != "
            f"{[e.get('type') for e in actual]}"
        )
    for position, (left, right) in enumerate(zip(expected, actual)):
        found = _mismatch(left, right, f"event[{position}]({left.get('type')})")
        if found:
            return found
    return ""


class TestCompare:
    def test_float_within_tolerance_passes(self):
        assert compare([{"type": "x", "v": 1.0}], [{"type": "x", "v": 1.0 + 1e-15}]) == ""

    def test_float_outside_tolerance_fails(self):
        assert compare([{"type": "x", "v": 1.0}], [{"type": "x", "v": 1.0 + 1e-9}])

    def test_int_float_and_bool_types_are_exact(self):
        assert compare([{"type": "x", "v": 1}], [{"type": "x", "v": 1.0}])
        assert compare([{"type": "x", "v": True}], [{"type": "x", "v": 1}])

    def test_missing_key_and_reordered_events_fail(self):
        assert compare([{"type": "x", "v": 1}], [{"type": "x"}])
        assert compare(
            [{"type": "x"}, {"type": "y"}], [{"type": "y"}, {"type": "x"}]
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.jsonl"
    record(name, path)
    expected = _load(GOLDEN_DIR / f"{name}.jsonl")
    difference = compare(expected, _load(path))
    assert difference == "", f"{name}: {difference}"


def test_fault_scenario_exercises_stale_phases_and_retries():
    events = _load(GOLDEN_DIR / "dense_faults.jsonl")
    phases = [e for e in events if e["type"] == "phase"]
    assert any(e["stale"] for e in phases)
    assert any(e["retries"] > 0 for e in phases)


def test_price_scenarios_include_a_restoration_sweep():
    for name in ("dense_prices", "dense_jacobi_prices"):
        events = _load(GOLDEN_DIR / f"{name}.jsonl")
        iterations = [e for e in events if e["type"] == "iteration"]
        assert iterations[-1].get("restoration") is True


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS):
        record(scenario, GOLDEN_DIR / f"{scenario}.jsonl")
