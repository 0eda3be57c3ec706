"""End-to-end Algorithm-1 benchmark: one closed-loop client, one solve in flight.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-lppm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seed

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` solves the same instances twice -- untraced for half the
window, then traced -- checks that both passes give bit-identical
solutions and costs, writes the spans to ``.perfbench/`` and reports the
per-layer metrics and the tracing overhead.  Every solve's output is
checked; the last line of standard output is one JSON object, and the
exit code is 1 when any check failed.  README.md next to this file
documents the workloads, the seeds and the layer map.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads, so pin them first.  One
# thread each: the benchmark is one closed-loop client on one core.
PINNED_THREADS = 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import repro  # noqa: E402
from repro import perf  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
P90_MIN_SOLVES = 100


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_seeds(seed: int, count: int) -> list:
    """Instance seeds for one run; the last one is the warm-up's."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count + 1)]


def _build(workload, seed: int, log=None) -> list:
    """The run's instances, the warm-up's last; the same seed always
    gives the same instances."""
    cases = []
    for child in _child_seeds(seed, workload.pool_size):
        if log is None:
            cases.append(workload.build(child))
        else:
            with log.span("workload.build"):
                cases.append(workload.build(child))
    return cases


def _setup(workload, seed: int, log=None):
    """Generate the run's instances and solve one untimed warm-up."""
    started = time.perf_counter()
    cases = _build(workload, seed, log)
    workload.solve(cases.pop())
    return cases, time.perf_counter() - started


def _solve_loop(workload, cases, seconds: float, count=None, log=None):
    """Closed loop: solve ``cases`` in order, one at a time, until
    ``seconds`` pass (or ``count`` solves); returns times and outcomes."""
    times, outcomes = [], []
    window_start = time.perf_counter()
    for index, case in enumerate(cases):
        if count is not None and index >= count:
            break
        if count is None and index and time.perf_counter() - window_start >= seconds:
            break
        started = time.perf_counter()
        try:
            if log is None:
                outcome = workload.solve(case)
            else:
                log.solve = index
                with log.span(workload.root):
                    outcome = workload.solve(case)
        except Exception as error:  # a solve that raises counts as failed
            outcome = error
        times.append(time.perf_counter() - started)
        outcomes.append(outcome)
    return times, outcomes, time.perf_counter() - window_start


def _check_all(workload, cases, outcomes, failures: dict) -> None:
    """Check every outcome; file each problem under its solve index."""
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            problems = [f"solve raised {outcome!r}"]
        else:
            try:
                problems = workload.check(cases[index], outcome)
            except Exception as error:  # a check that raises is a failed check
                problems = [f"check raised {error!r}"]
        if problems:
            failures.setdefault(index, []).extend(problems)


def _report_failures(failures: dict, attempted: int) -> int:
    """Print every problem; return how many solves failed (a run-wide
    problem, filed under ``None``, fails them all)."""
    for key, problems in failures.items():
        for problem in problems:
            print(f"  FAILED {'run' if key is None else f'solve {key}'}: {problem}")
    return attempted if None in failures else len(failures)


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = "-" if value is None else f"{value:.6g}"
    print(f"  {name:<32} {shown:>14} {unit:<6} {note}")


def _env_line() -> str:
    return (
        f"# env: nproc={_nproc()} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads={PINNED_THREADS}"
    )


def run_untraced(workload, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        cases = None  # drop the previous pool before building the next
        cases, setup_s = _setup(workload, seed)
        setups.append(setup_s)
    times, outcomes, window = _solve_loop(workload, cases, seconds)
    solved = len(times)
    failures: dict = {}
    _check_all(workload, cases, outcomes, failures)
    failed = _report_failures(failures, solved)
    window_cases = [i for i in range(min(solved, workload.cost_window)) if i not in failures]
    cost_ratio = statistics.fmean(
        workload.cost_ratio(cases[i], outcomes[i]) for i in window_cases
    ) if window_cases else float("nan")
    p90 = (
        statistics.quantiles(times, n=10)[-1] if solved >= P90_MIN_SOLVES else None
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _print_metric("setup_s", statistics.median(setups), "s", f"median of {SETUP_REPEATS} set-ups")
    _print_metric("solve_s.p50", statistics.median(times), "s", f"n={solved} solves")
    _print_metric(
        "solve_s.p90",
        p90,
        "s",
        f"n={solved}" + ("" if p90 is not None else f" < {P90_MIN_SOLVES}: not reported"),
    )
    _print_metric("solves_per_s", solved / window, "1/s", f"over {window:.2f} s")
    _print_metric("cost_ratio", cost_ratio, "ratio", f"{len(window_cases)} leading solves")
    _print_metric("failed_ratio", failed / solved, "ratio", f"{failed} of {solved}")
    _print_metric("rss_peak_mb", rss_mb, "MB")
    return {
        "correct": not failures,
        "attempted": solved,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s.p50": {"value": statistics.median(times), "unit": "s"},
            "solves_per_s": {"value": solved / window, "unit": "1/s"},
            "cost_ratio": {"value": cost_ratio, "unit": "ratio"},
            "rss_peak_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    log = spans.SpanLog()
    cases, _ = _setup(workload, seed, log)
    plain_times, plain, _ = _solve_loop(workload, cases, seconds / 2.0)
    # Fresh copies of the same instances: the first pass filled the
    # instances' memoized arrays, which would flatter the traced pass.
    cases = _build(workload, seed)[: len(plain)]
    with spans.instrumented(log), perf.collecting() as registry:
        traced_times, traced, _ = _solve_loop(workload, cases, 0.0, count=len(plain), log=log)
    solved = len(traced)
    failures: dict = {}
    _check_all(workload, cases, plain, failures)
    _check_all(workload, cases, traced, failures)
    for index in range(solved):
        if index not in failures and (
            workload.identity(plain[index]) != workload.identity(traced[index])
        ):
            failures[index] = ["traced result differs from the untraced one"]
    tree_problems = spans.check_tree(log.spans)
    if tree_problems:
        failures[None] = [f"span tree: {problem}" for problem in tree_problems]
    failed = _report_failures(failures, solved)
    metrics = spans.layer_metrics(
        log,
        solves=solved,
        root=workload.root,
        counters=registry.counters,
        outcomes=[outcome for outcome in traced if not isinstance(outcome, Exception)],
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times),
        "ratio",
    )
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    log.write(span_file, {"workload": workload.name, "seed": seed, "solves": solved,
                          "env": _env_line()[len("# env: "):]})
    for name, (value, unit) in metrics.items():
        computed = name in ("subproblem.cells_per_dual_iter", "subproblem.pair_fill")
        _print_metric(name, value, unit, "computed" if computed else "")
    print(f"  spans: {len(log.spans)} written to {span_file.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": solved,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        print(f"# perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(_env_line())
        runner = run_traced if args.trace else run_untraced
        result = runner(WORKLOADS[name], args.seed, args.seconds)
        all_correct = all_correct and result["correct"]
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
