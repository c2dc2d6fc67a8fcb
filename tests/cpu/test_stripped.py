"""Stripped runs (L1 filter + O(1) hit bursts) against the scalar loop.

A core running on a stored stream's L1 filter must be indistinguishable
from the same core probing its L1 record by record: same results, same
per-core counters, and — after the run — the same L1 tag, stamp and
dirty arrays and the same L1 array counters.  The oracle drives tiny
machines whose LLCs are small enough that back-invalidates and ECI hit
L1-resident lines (including during the invalidated core's own miss),
with warm-up and quota boundaries anywhere in a burst and timing
models whose cycle sums do or do not stay exact.  TLH runs add the
hints: a stripped core sends each run of L1 hits' hints at once, and
the LLC's replacement state, the traffic counts and the policy's
sampling counter and hint counts must come out as the per-hit hook's.
A stripped run under an enabled phase timer must still strip, match,
and have its phases cover its wall time.
"""

import dataclasses
import json
import math
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
    tla_preset,
)
from repro.cpu import CMPSimulator, SimulatedCore
from repro.core.tlh import TemporalLocalityHints
from repro.cpu import l1filter
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentSettings, Runner, build_job
from repro.orchestrate import Orchestrator, ResultCache
from repro.orchestrate.job import execute_job, job_key
from repro.perf import PhaseTimer
from repro.workloads import WorkloadMix, core_address_offset
from repro.workloads import store
from repro.workloads.store import StoredStream, retaining
from repro.workloads.synthetic import MixtureProfile, RegionSpec, mixture_chunks

KB = 1024

#: the five hierarchy/TLA configurations of Fig. 9 besides TLH.
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


#: every TLH variant of Fig. 5, and TLH-L1 sampled at 1-20 % of hits.
TLH_CONFIGS = st.one_of(
    st.sampled_from(["tlh-il1", "tlh-dl1", "tlh-l1", "tlh-l2", "tlh-l1-l2"]).map(
        tla_preset
    ),
    st.floats(0.01, 0.2).map(
        lambda rate: TLAConfig(policy="tlh", levels=("il1", "dl1"), sample_rate=rate)
    ),
)


def machine(mode, tla, llc_bytes, l1_ways=4, llc_replacement="nru"):
    """1 KB L1s and a 2 KB L2 in front of a 2-8 KB LLC.

    ``tla`` is a policy name or a :class:`TLAConfig`.
    """
    return HierarchyConfig(
        num_cores=2,
        mode=mode,
        l1i=CacheConfig(1 * KB, l1_ways, name="L1I"),
        l1d=CacheConfig(1 * KB, l1_ways, name="L1D"),
        l2=CacheConfig(2 * KB, 8, name="L2"),
        llc=CacheConfig(llc_bytes, 8, replacement=llc_replacement, name="LLC"),
        tla=tla if isinstance(tla, TLAConfig) else TLAConfig(policy=tla),
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
    for name in ("_stamp", "_clock", "_cold", "_ref"):
        if hasattr(policy, name):
            state[name] = bytes(getattr(policy, name))
    state["last_hit_was_mru"] = policy.last_hit_was_mru
    return state


#: TLH's hint counts and sampling counter.
TLH_COUNTERS = ("hints_sent", "hints_dropped", "hints_applied", "_eligible_hits", "_fired")


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
        "tla": {
            name: getattr(hierarchy.tla, name)
            for name in TLH_COUNTERS
            if hasattr(hierarchy.tla, name)
        },
    }


def simulate(config, streams, stripped, timer=None):
    simulator = CMPSimulator(
        config,
        [stream.replay() for stream in streams],
        streams=streams if stripped else None,
        phase_timer=timer,
    )
    result = simulator.run()
    return simulator, result


def compare(config, streams, timed=False):
    """Run stripped and scalar; assert identical; return the stripped host.

    With ``timed`` the stripped run carries an enabled phase timer,
    whose phases must cover at least 95 % of the run's wall time.  A
    run the scalar loop cannot finish (one record jumping over a whole
    measurement window leaves no quota cycles) must fail the same way
    stripped; the host digest is then None.
    """
    timer = PhaseTimer() if timed else None
    try:
        scalar = observe(*simulate(config, streams, stripped=False))
    except SimulationError as error:
        with pytest.raises(SimulationError, match=str(error)):
            simulate(config, streams, stripped=True, timer=timer)
        return None
    simulator, result = simulate(config, streams, stripped=True, timer=timer)
    assert observe(simulator, result) == scalar
    if timed:
        assert timer.measured_total() >= 0.95 * result.host["wall_s"]
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
        timed=st.booleans(),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_stripped_equals_scalar(
        self, profiles, seed, policy, llc_bytes, l1_ways, quota, warmup, base_cpi, timed
    ):
        mode, tla = policy
        config = SimConfig(
            hierarchy=machine(mode, tla, llc_bytes, l1_ways),
            timing=TimingConfig(base_cpi=base_cpi),
            instruction_quota=quota,
            warmup_instructions=warmup,
        )
        host = compare(config, streams_for(profiles, seed), timed)
        assert host is None or host["stripped_records"] > 0

    @given(
        profiles=st.tuples(PROFILE, PROFILE),
        seed=st.integers(0, 2**16),
        tla=TLH_CONFIGS,
        mode=st.sampled_from(["inclusive", "non_inclusive"]),
        llc_replacement=st.sampled_from(["nru", "lru"]),
        llc_bytes=st.sampled_from([2 * KB, 4 * KB, 8 * KB]),
        l1_ways=st.sampled_from([1, 2, 4]),
        quota=st.integers(1, 9_000),
        warmup=st.integers(0, 4_000),
        base_cpi=st.sampled_from([0.25, 0.5, 1.0, 0.1]),
        timed=st.booleans(),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tlh_stripped_equals_scalar(
        self,
        profiles,
        seed,
        tla,
        mode,
        llc_replacement,
        llc_bytes,
        l1_ways,
        quota,
        warmup,
        base_cpi,
        timed,
    ):
        """Batched hit hints against the per-hit hook: results, traffic,
        hint counts, LLC arrays and replacement state, promotions."""
        config = SimConfig(
            hierarchy=machine(mode, tla, llc_bytes, l1_ways, llc_replacement),
            timing=TimingConfig(base_cpi=base_cpi),
            instruction_quota=quota,
            warmup_instructions=warmup,
        )
        host = compare(config, streams_for(profiles, seed), timed)
        assert host is None or host["stripped_records"] > 0

    def test_tlh_hints_go_out_per_run(self, monkeypatch):
        """A non-inclusive TLH-L1 run strips to the end: its L1 hits
        reach the LLC only through ``hint_run``, in runs."""
        runs = []
        original = TemporalLocalityHints.hint_run

        def counting(policy, core_id, lines):
            runs.append(len(lines))
            original(policy, core_id, lines)

        monkeypatch.setattr(TemporalLocalityHints, "hint_run", counting)
        monkeypatch.setattr(
            TemporalLocalityHints, "on_core_cache_hit", refuse_l1_hint(
                TemporalLocalityHints.on_core_cache_hit
            )
        )
        profile = MixtureProfile(code_lines=12, regions=(RegionSpec(40, 1.0),))
        config = SimConfig(
            hierarchy=machine("non_inclusive", tla_preset("tlh-l1"), 8 * KB),
            instruction_quota=4_000,
            warmup_instructions=1_000,
        )
        simulator, result = simulate(config, streams_for((profile, profile), 5), True)
        assert result.host["materialized_at"] == [None, None]
        assert max(runs) > 1
        assert sum(runs) == simulator.hierarchy.tla.hints_sent

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


def refuse_l1_hint(on_core_cache_hit):
    """``on_core_cache_hit`` that fails on an L1 kind (L2 hits pass)."""

    def checked(policy, core_id, kind, line_addr):
        assert kind == "l2", f"per-hit {kind} hint on a stripped core"
        on_core_cache_hit(policy, core_id, kind, line_addr)

    return checked


def gap_chunks(gap, at, *key):
    """Stream ``key``'s chunks with record ``at`` of the first given ``gap``."""
    chunks = mixture_chunks(*key)
    gaps, kind_codes, addresses = next(chunks)
    gaps = gaps.astype("int64")
    gaps[at] = gap
    yield gaps, kind_codes, addresses
    yield from chunks


class TestRecordOverWholeWindow:
    """A record that starts before warm-up and ends past the quota:
    crossing the quota finishes the core however the record began."""

    @pytest.mark.parametrize("at", [0, 5, 300])
    @pytest.mark.parametrize("tla", ["none", "tlh-l1"])
    def test_ipc_is_finite_and_paths_agree(self, monkeypatch, at, tla):
        profile = MixtureProfile(code_lines=12, regions=(RegionSpec(40, 1.0),))
        warmup, quota = 800, 1_500
        monkeypatch.setattr(
            store,
            "mixture_chunks",
            lambda *key: gap_chunks(warmup + quota + 50, at, *key),
        )
        config = SimConfig(
            hierarchy=machine("non_inclusive", tla_preset(tla), 8 * KB),
            instruction_quota=quota,
            warmup_instructions=warmup,
        )
        scalar = simulate(config, streams_for((profile, profile), 9), False)
        simulator, result = simulate(config, streams_for((profile, profile), 9), True)
        assert result.host["stripped_records"] > 0
        assert observe(simulator, result) == observe(*scalar)
        for core in simulator.cores:
            assert math.isfinite(core.ipc())


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

    @pytest.mark.parametrize("tla", ["tlh-l1", "tlh-dl1", "tlh-l1-l2", "tlh-l1-s0.1"])
    def test_tlh_strips(self, tla):
        tla_config = (
            TLAConfig(policy="tlh", levels=("il1", "dl1"), sample_rate=0.1)
            if tla == "tlh-l1-s0.1"
            else None
        )
        job = build_job(
            ExperimentSettings(scale=SCALE, quota=3_000, warmup=1_000),
            PAIR,
            tla=tla,
            tla_config=tla_config,
        )
        first, second, scalar = stripped_and_scalar(job)
        assert first.host["stripped_records"] > 0
        assert scalar.host["stripped_records"] == 0
        want = cache_bytes(scalar, job)
        assert cache_bytes(first, job) == want == cache_bytes(second, job)

    def test_mru_filtered_tlh_stays_scalar(self):
        """The MRU filter reads the L1's recency at every hit."""
        job = build_job(
            ExperimentSettings(scale=SCALE, quota=3_000, warmup=1_000),
            PAIR,
            tla="tlh-l1-mru",
            tla_config=TLAConfig(policy="tlh", levels=("il1", "dl1"), mru_filter=True),
        )
        first, _, scalar = stripped_and_scalar(job)
        assert first.host["stripped_records"] == 0
        assert cache_bytes(first, job) == cache_bytes(scalar, job)


def test_host_phases_sweep_strips_with_identical_cache(tmp_path):
    """A phase-timed serial sweep over one pair's six Fig. 9 machines
    strips every job and writes an untimed sweep's cache bytes."""
    requests = [
        dict(mix=PAIR, mode=mode, tla=tla)
        for mode, tla in CONFIGS + (("inclusive", "tlh-l1"),)
    ]
    entries = {}
    for timed in (False, True):
        runner = Runner(
            ExperimentSettings(
                scale=SCALE,
                quota=3_000,
                warmup=1_000,
                cache_dir=str(tmp_path / f"timed-{timed}"),
                host_phases=timed,
            )
        )
        for summary in runner.run_many(requests, jobs=1):
            assert summary.host["stripped_records"] > 0
            assert ("phases" in summary.host) is timed
        entries[timed] = {
            path.name: path.read_bytes()
            for path in runner.cache.directory.glob("*.json")
        }
    assert len(entries[True]) == len(requests)
    assert entries[True] == entries[False]


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
