"""``policy_sweep`` and ``llc_pressure``: in-process sweeps via ``Runner``.

A run simulates the workload's sweep once, cold, on the serial
executor into an empty result cache, in short rounds (one
``run_many`` batch each).  After each round every job completed so far
is replayed on the filled cache through new ``Runner`` objects, for a
fifth of the round's cold time: one ``run_many`` batch (replay
throughput) then one ``Runner.run`` per job (per-job cache-hit
latency).  Interleaving spreads the replay samples over the whole run,
so they see the same host conditions as the cold sweep.  Timings are
returned as wall intervals for the caller to weigh by host speed.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.runner import ExperimentSettings, Runner, build_job
from repro.orchestrate import job_key
from repro.perf.phase import merge_phase_reports

import bench_jobs
from bench_checks import OutputCheck, canonical

#: jobs per round: one pair's six policies, or one ``llc_pressure``
#: pair.  A shared VM's speed can switch between a fast and a slow state
#: every few seconds; short rounds spread the replays, and so the hit
#: and replay samples, over those states as evenly as the cold jobs.
ROUND_JOBS = {"policy_sweep": 6, "llc_pressure": 1}

#: replay time per round as a share of the round's cold time.
REPLAY_SHARE = 1 / 5

#: a (start, end) ``time.perf_counter`` interval.
Interval = Tuple[float, float]


class JobClock:
    """Progress sink timing each executed job of a serial sweep.

    The orchestrator reports every finished job through
    ``note_result``; on the serial executor jobs run back to back, so
    the gap between reports is one job's latency (execute, store and
    bookkeeping).
    """

    def __init__(self) -> None:
        #: (start, end) wall interval of every executed job.
        self.intervals: List[Interval] = []
        self._mark = 0.0

    def start(self, total: int, cached: int = 0) -> None:
        self._mark = time.perf_counter()

    def note_result(self, result: Any) -> None:
        now = time.perf_counter()
        self.intervals.append((self._mark, now))
        self._mark = now

    def update(self, **_: Any) -> None:
        pass

    def finish(self) -> None:
        pass


def jobs_for(workload: str, seed: int, seconds: int) -> List[Dict[str, Any]]:
    if workload == "policy_sweep":
        return bench_jobs.policy_sweep(seed, seconds)
    return bench_jobs.llc_pressure(seed, seconds)


def settings_for(workload: str, cache_dir: Path, host_phases: bool = False) -> ExperimentSettings:
    quota, warmup = bench_jobs.JOB_SIZE[workload]
    return ExperimentSettings(
        scale=bench_jobs.SCALE,
        quota=quota,
        warmup=warmup,
        cache_dir=str(cache_dir),
        jobs=1,
        executor="serial",
        host_phases=host_phases,
    )


def run_sweep(
    workload: str,
    seed: int,
    seconds: int,
    workdir: Path,
    check: OutputCheck,
    span: Callable,
    host_phases: bool = False,
) -> Dict[str, Any]:
    """Run the cold rounds and their replays; returns raw measurements.

    With ``host_phases`` the program's ``PhaseTimer`` times every job and
    the replays are left out: that run is only for the in-program phase
    split of the cold rounds.

    Timings are returned as wall intervals, which the caller turns into
    reference seconds (:mod:`bench_host`).  ``span`` opens the
    benchmark's root spans: ``SpanBook.span`` in the traced run, a no-op
    context otherwise.
    """
    settings = settings_for(workload, workdir / "cache", host_phases)
    requests = jobs_for(workload, seed, seconds)
    size = ROUND_JOBS[workload]
    clock = JobClock()
    instructions = replayed_jobs = 0
    cold_rounds: List[Interval] = []
    replay_batches: List[Interval] = []
    phase_reports: List[Any] = []
    hit_intervals: List[Interval] = []
    done: List[Dict[str, Any]] = []
    keys: List[str] = []
    expected: List[str] = []
    for index in range(0, len(requests), size):
        batch = requests[index:index + size]
        with span("bench.cold_sweep"):
            start = time.perf_counter()
            cold = Runner(settings, reporter=clock).run_many(batch)
            cold_rounds.append((start, time.perf_counter()))
        round_s = cold_rounds[-1][1] - start
        batch_keys = [job_key(build_job(settings, **request)) for request in batch]
        check.check_all(zip(batch_keys, cold), settings.quota)
        done.extend(batch)
        keys.extend(batch_keys)
        expected.extend(canonical(summary) for summary in cold)
        instructions += sum(int(summary.host["instructions"]) for summary in cold)
        phase_reports.extend(summary.host.get("phases") for summary in cold)

        replay_s = 0.0
        while not host_phases and (replay_s < REPLAY_SHARE * round_s or not replay_s):
            with span("bench.replay"):
                start = time.perf_counter()
                replayed = Runner(settings).run_many(done)
                replay_batches.append((start, time.perf_counter()))
                hits = []
                runner = Runner(settings)
                for request in done:
                    begin = time.perf_counter()
                    hits.append(runner.run(**request))
                    hit_intervals.append((begin, time.perf_counter()))
            replay_s += time.perf_counter() - start
            replayed_jobs += len(done)
            for key, want, first, second in zip(keys, expected, replayed, hits):
                if not canonical(first) == canonical(second) == want:
                    check.fail(key, "replay differs from the cold result")
    return {
        "jobs": len(requests),
        "attempted": len(requests) + 2 * replayed_jobs,
        "cold_rounds": cold_rounds,
        "instructions": instructions,
        "fresh_intervals": clock.intervals,
        "hit_intervals": hit_intervals,
        "replay_jobs": replayed_jobs,
        "replay_batches": replay_batches,
        "phases": merge_phase_reports(phase_reports),
    }
