"""Stripped runs (L1 filter + O(1) hit bursts) against the scalar loop.

A core running on a stored stream's L1 filter must be indistinguishable
from the same core probing its L1 record by record: same results, same
per-core counters, and — after the run — the same L1 tag, stamp and
dirty arrays and the same L1 array counters.  The oracle drives tiny
machines whose LLCs are small enough that back-invalidates and ECI hit
L1-resident lines (including during the invalidated core's own miss),
with warm-up and quota boundaries anywhere in a burst and timing
models whose cycle sums do or do not stay exact.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import (
    CacheConfig,
    HierarchyConfig,
    SimConfig,
    TimingConfig,
    TLAConfig,
)
from repro.cpu import CMPSimulator, SimulatedCore
from repro.cpu import l1filter
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentSettings, build_job
from repro.orchestrate import Orchestrator, ResultCache
from repro.orchestrate.job import execute_job, job_key
from repro.workloads import WorkloadMix, core_address_offset
from repro.workloads.store import StoredStream, retaining
from repro.workloads.synthetic import MixtureProfile, RegionSpec

KB = 1024

#: the five hierarchy/TLA configurations that strip (TLH never does).
CONFIGS = (
    ("inclusive", "none"),
    ("inclusive", "eci"),
    ("inclusive", "qbs"),
    ("non_inclusive", "none"),
    ("exclusive", "none"),
)

REGION = st.builds(
    RegionSpec,
    lines=st.integers(2, 96),
    weight=st.floats(0.1, 1.0),
    sequential=st.booleans(),
    burst=st.integers(1, 3),
)

PROFILE = st.builds(
    MixtureProfile,
    code_lines=st.integers(4, 48),
    regions=st.lists(REGION, min_size=1, max_size=3).map(tuple),
    data_per_instruction=st.floats(0.2, 0.6),
    write_fraction=st.floats(0.0, 0.6),
)


def machine(mode, tla, llc_bytes, l1_ways=4):
    """1 KB L1s and a 2 KB L2 in front of a 2-8 KB LLC."""
    return HierarchyConfig(
        num_cores=2,
        mode=mode,
        l1i=CacheConfig(1 * KB, l1_ways, name="L1I"),
        l1d=CacheConfig(1 * KB, l1_ways, name="L1D"),
        l2=CacheConfig(2 * KB, 8, name="L2"),
        llc=CacheConfig(llc_bytes, 8, replacement="nru", name="LLC"),
        tla=TLAConfig(policy=tla),
    )


def cache_state(cache):
    policy = cache.policy
    state = {
        "addrs": cache._addrs.tobytes(),
        "valid": bytes(cache._valid),
        "dirty": bytes(cache._dirty),
        "map": dict(cache._map),
        "stats": cache.stats.snapshot(),
    }
    for name in ("_stamp", "_clock", "_cold"):
        if hasattr(policy, name):
            state[name] = getattr(policy, name).tobytes()
    return state


def observe(simulator, result):
    """Everything a stripped run must reproduce, host digest aside."""
    hierarchy = simulator.hierarchy
    return {
        "result": json.dumps(
            dataclasses.asdict(dataclasses.replace(result, host=None)),
            sort_keys=True,
            default=str,
        ),
        "core_stats": [dataclasses.asdict(s) for s in hierarchy.core_stats],
        "caches": [
            [cache_state(c) for c in (core.l1i, core.l1d, core.l2)]
            for core in hierarchy.cores
        ]
        + [cache_state(hierarchy.llc)],
        "cores": [
            (core.instructions, core.cycles, core.cycles_at_warmup, core.cycles_at_quota)
            for core in simulator.cores
        ],
    }


def simulate(config, streams, stripped):
    simulator = CMPSimulator(
        config,
        [stream.replay() for stream in streams],
        streams=streams if stripped else None,
    )
    result = simulator.run()
    return simulator, result


def compare(config, streams):
    """Run stripped and scalar; assert identical; return the stripped host.

    A run the scalar loop cannot finish (one record jumping over a
    whole measurement window leaves no quota cycles) must fail the same
    way stripped; the host digest is then None.
    """
    try:
        scalar = observe(*simulate(config, streams, stripped=False))
    except SimulationError as error:
        with pytest.raises(SimulationError, match=str(error)):
            simulate(config, streams, stripped=True)
        return None
    simulator, result = simulate(config, streams, stripped=True)
    assert observe(simulator, result) == scalar
    return result.host


def streams_for(profiles, seed):
    return [
        StoredStream((profile, seed + core_id, core_address_offset(core_id)))
        for core_id, profile in enumerate(profiles)
    ]


class TestOracle:
    @given(
        profiles=st.tuples(PROFILE, PROFILE),
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(CONFIGS),
        llc_bytes=st.sampled_from([2 * KB, 4 * KB, 8 * KB]),
        l1_ways=st.sampled_from([1, 2, 4]),
        quota=st.integers(1, 9_000),
        warmup=st.integers(0, 4_000),
        base_cpi=st.sampled_from([0.25, 0.5, 1.0, 0.3125, 0.1, 1 / 3]),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_stripped_equals_scalar(
        self, profiles, seed, policy, llc_bytes, l1_ways, quota, warmup, base_cpi
    ):
        mode, tla = policy
        config = SimConfig(
            hierarchy=machine(mode, tla, llc_bytes, l1_ways),
            timing=TimingConfig(base_cpi=base_cpi),
            instruction_quota=quota,
            warmup_instructions=warmup,
        )
        host = compare(config, streams_for(profiles, seed))
        assert host is None or host["stripped_records"] > 0

    def test_invalidates_during_own_miss_and_of_the_other_core(self, monkeypatch):
        """A 2 KB inclusive LLC: back-invalidates hit both cores' L1s,
        some raised by the invalidated core's own miss."""
        seen = []
        original = SimulatedCore._materialize

        def spying(core):
            seen.append(core._in_miss)
            original(core)

        monkeypatch.setattr(SimulatedCore, "_materialize", spying)
        hot = MixtureProfile(code_lines=12, regions=(RegionSpec(40, 1.0),))
        cold = MixtureProfile(
            code_lines=8, regions=(RegionSpec(400, 1.0, sequential=True),)
        )
        for mode, tla in (("inclusive", "none"), ("inclusive", "eci"), ("inclusive", "qbs")):
            for profiles in ((hot, hot), (hot, cold), (cold, hot)):
                config = SimConfig(
                    hierarchy=machine(mode, tla, 2 * KB),
                    instruction_quota=6_000,
                    warmup_instructions=500,
                )
                host = compare(config, streams_for(profiles, 7))
                assert any(at is not None for at in host["materialized_at"])
        assert True in seen and False in seen

    def test_non_dyadic_base_cpi_never_takes_o1_bursts(self, monkeypatch):
        profile = MixtureProfile(code_lines=12, regions=(RegionSpec(24, 1.0),))
        config = SimConfig(
            hierarchy=machine("non_inclusive", "none", 8 * KB),
            timing=TimingConfig(base_cpi=0.1),
            instruction_quota=3_000,
        )
        scalar = observe(*simulate(config, streams_for((profile, profile), 3), False))
        original = SimulatedCore._hit_run

        def checked(core, offset, end):
            applied = original(core, offset, end)
            assert not applied, "O(1) burst with a non-dyadic base_cpi"
            return applied

        monkeypatch.setattr(SimulatedCore, "_hit_run", checked)
        simulator, result = simulate(config, streams_for((profile, profile), 3), True)
        assert observe(simulator, result) == scalar
        assert result.host["stripped_records"] > 0

    def test_dyadic_base_cpi_takes_o1_bursts(self, monkeypatch):
        applied = []
        original = SimulatedCore._hit_run

        def counting(core, offset, end):
            done = original(core, offset, end)
            applied.append(done)
            return done

        monkeypatch.setattr(SimulatedCore, "_hit_run", counting)
        profile = MixtureProfile(code_lines=12, regions=(RegionSpec(24, 1.0),))
        config = SimConfig(
            hierarchy=machine("non_inclusive", "none", 8 * KB),
            instruction_quota=3_000,
            warmup_instructions=1_000,
        )
        compare(config, streams_for((profile, profile), 3))
        assert applied.count(True) > applied.count(False) > 0


SCALE = 0.0625
PAIR = WorkloadMix("STRIP_PAIR", ("dea", "gob"))  # CCF + LLCT


def cache_bytes(summary, job):
    with tempfile.TemporaryDirectory() as directory:
        ResultCache(directory).store(job_key(job), summary)
        return (Path(directory) / f"{job_key(job)}.json").read_bytes()


def stripped_and_scalar(job):
    """``execute_job`` on stored streams (twice: building the filter,
    then reusing it) and cold."""
    with retaining(job.trace_streams() * 2):
        first = execute_job(job)
        second = execute_job(job)
    return first, second, execute_job(job)


class TestJobs:
    @pytest.mark.parametrize("mode,tla", CONFIGS)
    @pytest.mark.parametrize("llc_bytes", [None, 64 * KB])
    def test_cache_bytes_identical(self, mode, tla, llc_bytes):
        settings_ = ExperimentSettings(scale=SCALE, quota=6_000, warmup=1_500)
        job = build_job(settings_, PAIR, mode=mode, tla=tla, llc_bytes=llc_bytes)
        first, second, scalar = stripped_and_scalar(job)
        assert first.host["stripped_records"] > 0
        assert second.host["l1_filter_s"] == 0.0  # the filter was reused
        assert scalar.host["stripped_records"] == 0
        assert scalar.host["materialized_at"] == [None, None]
        want = cache_bytes(scalar, job)
        assert cache_bytes(first, job) == want == cache_bytes(second, job)

    def test_host_fields_never_reach_the_cache(self):
        job = build_job(
            ExperimentSettings(scale=SCALE, quota=4_000, warmup=1_000),
            PAIR,
            mode="inclusive",
            llc_bytes=64 * KB,
        )
        first, _, _ = stripped_and_scalar(job)
        assert {"stripped_records", "l1_filter_s", "materialized_at"} <= set(first.host)
        with_fields = cache_bytes(first, job)
        for name in ("stripped_records", "l1_filter_s", "materialized_at"):
            del first.host[name]
        assert cache_bytes(first, job) == with_fields

    def test_tlh_stays_scalar(self):
        job = build_job(
            ExperimentSettings(scale=SCALE, quota=3_000, warmup=1_000), PAIR, tla="tlh-l1"
        )
        first, _, scalar = stripped_and_scalar(job)
        assert first.host["stripped_records"] == 0
        assert cache_bytes(first, job) == cache_bytes(scalar, job)


@pytest.fixture
def no_filters(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an L1 filter")

    monkeypatch.setattr(l1filter, "L1Filter", refuse)


def test_single_use_streams_build_no_filter(no_filters):
    settings_ = ExperimentSettings(scale=SCALE, quota=2_000, warmup=500)
    pairs = [("dea", "gob"), ("bzi", "wrf")]
    jobs = [build_job(settings_, WorkloadMix(f"ONCE_{i}", a)) for i, a in enumerate(pairs)]
    results = Orchestrator().run(jobs)
    assert all(summary.host["stripped_records"] == 0 for summary in results.values())


def probe_execute(job):
    """Run a job and report whether its process built an L1 filter."""
    summary = execute_job(job)
    return summary, summary.host["stripped_records"], summary.host["l1_filter_s"]


@pytest.mark.parametrize("backend", ["pool", "bus"])
def test_out_of_process_workers_build_no_filter(backend, tmp_path):
    kwargs = dict(execute=probe_execute, jobs=2, executor=backend, backoff=0.0)
    if backend == "bus":
        kwargs.update(bus_dir=str(tmp_path / "bus"), lease_timeout=60.0)
    settings_ = ExperimentSettings(scale=SCALE, quota=1_500, warmup=500)
    jobs = [build_job(settings_, PAIR, mode=m, tla=t) for m, t in CONFIGS[:3]]
    results = Orchestrator(**kwargs).run(jobs)
    for job in jobs:
        summary, stripped, filter_s = results[job_key(job)]
        assert stripped == 0 and filter_s == 0.0
        assert summary.ipcs == execute_job(job).ipcs


def test_filter_bytes_count_toward_the_store_budget():
    job = build_job(ExperimentSettings(scale=SCALE), PAIR)
    stream = StoredStream(job.trace_streams()[0])
    hierarchy = machine("inclusive", "none", 8 * KB)
    built = l1filter.l1_filter(stream, hierarchy)
    built.chunk(1)
    packed = sum(column.nbytes for chunk in stream.chunks for column in chunk)
    assert built.nbytes > 0
    assert stream.nbytes == packed + built.nbytes
    assert l1filter.l1_filter(stream, hierarchy) is built  # one per geometry
