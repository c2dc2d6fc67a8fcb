"""Raw simulator-speed benchmarks (the one place timing statistics
across rounds are meaningful).

The workloads and throughput floors come from
:mod:`repro.perf.scenarios` — the same pinned suite that
``python -m repro.perf bench`` records into ``BENCH_<n>.json``
artifacts, so a floor here can never drift away from what the
continuous-benchmark trajectory measures.

Floors are advisory by default: a miss *skips* with the measured rate
in the reason (shared machines are noisy).  Set ``REPRO_BENCH_STRICT=1``
to turn floor misses into failures, e.g. on a quiet dedicated box.
"""

import os

import pytest

from repro.perf.scenarios import SCENARIOS

STRICT = os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")


def _check_floor(scenario, seconds: float) -> None:
    """Enforce (strict) or report (default) the scenario's floor."""
    if not scenario.floor or seconds <= 0:
        return
    rate = scenario.work / seconds
    if rate >= scenario.floor:
        return
    message = (
        f"{scenario.name}: {rate:,.0f} {scenario.metric} is below the "
        f"floor of {scenario.floor:,.0f}"
    )
    if STRICT:
        pytest.fail(message)
    pytest.skip(message + " (set REPRO_BENCH_STRICT=1 to fail)")


def _run(benchmark, name: str) -> None:
    scenario = SCENARIOS[name]
    work = benchmark.pedantic(
        scenario.round_fn, rounds=3, iterations=1, warmup_rounds=1
    )
    assert work == scenario.work
    _check_floor(scenario, benchmark.stats["mean"])


def test_access_loop_throughput(benchmark):
    """Full-hierarchy CMP simulation of MIX_10 (40k instructions)."""
    _run(benchmark, "access_loop")


def test_access_loop_null_timer_throughput(benchmark):
    """Access loop with a disabled PhaseTimer attached.

    The delta against ``test_access_loop_throughput`` is the
    disabled-instrumentation cost, bounded at < 2 % by design (the
    simulator installs a disabled timer nowhere, so the demand path
    keeps its ``is None`` fast branch).
    """
    _run(benchmark, "access_loop_null_timer")


def test_access_loop_phases_throughput(benchmark):
    """Access loop with an enabled PhaseTimer (no floor: enabled
    instrumentation is allowed to cost; the trajectory records how
    much)."""
    _run(benchmark, "access_loop_phases")


def test_access_loop_stored_throughput(benchmark):
    """The access loop on stored streams whose L1 filters are warm:
    only L1 misses are simulated record by record."""
    _run(benchmark, "access_loop_stored")


def test_access_loop_stored_tlh_throughput(benchmark):
    """The stored-stream access loop under TLH-L1: stripped cores send
    each run of L1 hits' hints to the LLC at once."""
    _run(benchmark, "access_loop_stored_tlh")


def test_trace_generator_throughput(benchmark):
    """Generate 50k records per round (numpy-batched path)."""
    _run(benchmark, "trace_gen")


def test_trace_stream_throughput(benchmark):
    """Draw 50k simulator-path records (plain triples) per round."""
    _run(benchmark, "trace_stream")


def test_trace_replay_throughput(benchmark):
    """Replay 50k records of a stored stream per round."""
    _run(benchmark, "trace_replay")


def test_pure_cache_array_throughput(benchmark):
    """A tight fill/access loop on one cache array."""
    _run(benchmark, "cache_array")
