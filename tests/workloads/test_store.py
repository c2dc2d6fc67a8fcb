"""The sweep-scoped trace store.

Replaying a stored stream must be indistinguishable from generating it
again: every cache entry of a sweep that shares streams is
byte-identical to the same job run alone.  The store must also cost
nothing outside in-process sweeps — it is empty when
``Orchestrator.run`` returns, however the jobs ended, and runs on the
pool and bus executors never retain a stream at all.
"""

import itertools
from collections import Counter

import pytest

from repro.config import baseline_hierarchy
from repro.experiments.runner import ExperimentSettings, build_job
from repro.orchestrate import Orchestrator, ResultCache
from repro.orchestrate import scheduler as scheduler_mod
from repro.orchestrate.job import execute_job, job_key
from repro.workloads import WorkloadMix, app_stream, app_trace, take
from repro.workloads import store as store_mod
from repro.workloads.store import (
    StoredStream,
    TraceStore,
    active_store,
    open_stream,
    retaining,
)

SCALE = 0.0625
PAIR = WorkloadMix("STORE_PAIR", ("dea", "gob"))  # CCF + LLCT

#: Fig. 9's six policies for one pair: inclusive with none, TLH, ECI
#: or QBS, then non-inclusive and exclusive.
FIG9_POLICIES = (
    ("inclusive", "none"),
    ("inclusive", "tlh-l1"),
    ("inclusive", "eci"),
    ("inclusive", "qbs"),
    ("non_inclusive", "none"),
    ("exclusive", "none"),
)


def pair_jobs(quota=3_000, warmup=1_000):
    settings = ExperimentSettings(scale=SCALE, quota=quota, warmup=warmup)
    return [
        build_job(settings, PAIR, mode=mode, tla=tla) for mode, tla in FIG9_POLICIES
    ]


def cache_bytes(directory):
    return {path.name: path.read_bytes() for path in directory.glob("*.json")}


def run_alone(jobs, directory):
    """Each job in its own single-job sweep: nothing is shared."""
    for job in jobs:
        Orchestrator(cache=ResultCache(str(directory))).run([job])
    return cache_bytes(directory)


@pytest.fixture
def generators(monkeypatch):
    """Count the cold generators the store starts."""
    started = []
    original = store_mod.mixture_chunks

    def counting(*key):
        started.append(key)
        return original(*key)

    monkeypatch.setattr(store_mod, "mixture_chunks", counting)
    return started


@pytest.fixture
def stores(monkeypatch):
    """Every TraceStore a retention scope creates."""
    created = []
    original = store_mod.TraceStore

    def recording(uses):
        created.append(original(uses))
        return created[-1]

    monkeypatch.setattr(store_mod, "TraceStore", recording)
    return created


class TestStoreUnit:
    def key(self, core_id=0):
        return app_stream("gob", baseline_hierarchy(2, scale=SCALE), core_id)

    def test_replay_equals_cold_records(self):
        key = self.key()
        cold = take(app_trace("gob", baseline_hierarchy(2, scale=SCALE)), 20_000)
        with retaining([key, key]) as store:
            first = take(store.open(key), 9_000)
            second = take(store.open(key), 20_000)  # runs past the prefix
        assert first == [tuple(record) for record in cold[:9_000]]
        assert second == [tuple(record) for record in cold]
        assert all(type(record) is tuple for record in second)

    def test_replay_from_a_record(self):
        stream = StoredStream(self.key())
        whole = take(stream.replay(), 9_000)
        for start in (1, 4_095, 4_096, 5_000):
            assert take(stream.replay(start), 9_000 - start) == whole[start:]

    def test_chunks_are_packed(self):
        stream = StoredStream(self.key())
        take(stream.replay(), 10_000)
        gaps, kinds, addresses = stream.chunks[0]
        assert kinds.itemsize == 1 and addresses.itemsize == 8
        assert stream.nbytes / (len(stream.chunks) * len(addresses)) <= 17

    def test_store_holds_until_last_user_opened(self):
        key, other = self.key(0), self.key(1)
        store = TraceStore(Counter({key: 3, other: 1}))
        take(store.open(key), 10)
        take(store.open(other), 10)  # used once: never stored
        assert len(store) == 1
        take(store.open(key), 10)
        assert len(store) == 1
        last = store.open(key)  # the last user still replays ...
        assert len(store) == 0  # ... but the store let go
        assert take(last, 10) == take(store.open(key), 10)

    def test_budget_caps_new_streams(self, monkeypatch):
        first, second = self.key(0), self.key(1)
        with retaining([first, first, second, second]) as store:
            take(store.open(first), 5_000)
            monkeypatch.setattr(store_mod, "STORE_BUDGET_BYTES", store.nbytes)
            take(store.open(second), 10)  # over budget: cold, not stored
            assert len(store) == 1
            replayed = take(store.open(first), 9_000)  # held streams still extend
            assert take(store.open(second), 10) == take(open_stream(second), 10)
        assert replayed == take(open_stream(first), 9_000)

    def test_scope_cleared_on_error_and_restored(self):
        key = self.key()
        with pytest.raises(RuntimeError):
            with retaining([key, key]) as store:
                take(store.open(key), 10)
                assert active_store() is store
                raise RuntimeError("boom")
        assert len(store) == 0
        assert active_store() is None


class TestSweepReuse:
    def test_sweep_cache_bytes_match_jobs_run_alone(self, tmp_path, generators):
        # The larger-quota job comes last, so it must extend the stored
        # prefix past what the six policies drew.
        jobs = pair_jobs() + pair_jobs(quota=6_000)[:1]
        Orchestrator(cache=ResultCache(str(tmp_path / "swept"))).run(jobs)
        assert len(generators) == 2  # one generator per core stream
        swept = cache_bytes(tmp_path / "swept")
        assert len(swept) == len(jobs)
        assert swept == run_alone(jobs, tmp_path / "alone")

    def test_single_use_streams_retain_nothing(self, tmp_path, stores, monkeypatch):
        pairs = [("dea", "gob"), ("bzi", "wrf"), ("lib", "sje")]
        settings = ExperimentSettings(scale=SCALE, quota=2_000, warmup=500)
        jobs = [build_job(settings, WorkloadMix(f"ONCE_{i}", apps)) for i, apps in enumerate(pairs)]
        monkeypatch.setattr(
            store_mod, "StoredStream", lambda key: pytest.fail("stored a single-use stream")
        )
        Orchestrator().run(jobs)
        Orchestrator().run(jobs[:1])
        assert len(stores) == 2


#: attempts per job label seen by ``flaky_execute`` (serial runs only).
ATTEMPTS = {}


def flaky_execute(job):
    """Fail a job's first attempt after it drew part of its streams."""
    seen = ATTEMPTS.setdefault(job.label(), [])
    seen.append(active_store())
    if job.tla == "eci" and len(seen) == 1:
        reference = baseline_hierarchy(2, scale=job.scale)
        for trace in WorkloadMix(job.mix_name, job.apps).traces(reference):
            take(trace, 5_000)
        raise RuntimeError("injected failure mid-stream")
    return execute_job(job)


class TestRetention:
    def test_store_empty_after_retried_failure(self, tmp_path, stores, generators):
        ATTEMPTS.clear()
        jobs = pair_jobs()
        orchestrator = Orchestrator(
            execute=flaky_execute, cache=ResultCache(str(tmp_path / "swept")), backoff=0.0
        )
        orchestrator.run(jobs)
        assert orchestrator.failures == {}
        assert len(ATTEMPTS["STORE_PAIR/inclusive/eci"]) == 2
        (store,) = stores
        assert all(seen == [store] * len(seen) for seen in ATTEMPTS.values())
        assert len(store) == 0
        assert active_store() is None
        # The retry replayed the stored streams (no third generator)
        # from record 0: its entry matches a lone run.
        assert len(generators) == 2
        assert cache_bytes(tmp_path / "swept") == run_alone(jobs, tmp_path / "alone")

    def test_store_empty_after_permanent_failure(self, stores):
        jobs = pair_jobs()
        # fails before opening its streams, so its uses are never spent
        bad = build_job(ExperimentSettings(scale=SCALE, quota=3_000, warmup=1_000), PAIR, mode="bogus")
        orchestrator = Orchestrator(backoff=0.0, retries=1)
        orchestrator.run([jobs[0], bad, jobs[1]], raise_on_failure=False)
        assert len(orchestrator.failures) == 1
        (store,) = stores
        assert len(store) == 0 and active_store() is None


def probe_execute(job):
    """Run a job and report whether its process had a store in scope."""
    return execute_job(job), active_store() is None


@pytest.mark.parametrize("backend", ["pool", "bus"])
def test_out_of_process_backends_retain_nothing(backend, tmp_path, monkeypatch):
    scopes = []
    original = scheduler_mod.retaining

    def recording(keys):
        scopes.append(list(keys))
        return original(scopes[-1])

    monkeypatch.setattr(scheduler_mod, "retaining", recording)
    kwargs = dict(execute=probe_execute, jobs=2, executor=backend, backoff=0.0)
    if backend == "bus":
        kwargs.update(bus_dir=str(tmp_path / "bus"), lease_timeout=60.0)
    jobs = pair_jobs(quota=1_500, warmup=500)[:3]
    results = Orchestrator(**kwargs).run(jobs)
    assert scopes == []  # the scheduler opened no scope ...
    for job in jobs:
        summary, unscoped = results[job_key(job)]
        assert unscoped  # ... nor did any worker
        assert summary.ipcs == execute_job(job).ipcs


def test_streams_match_what_execute_job_opens():
    job = pair_jobs()[0]
    reference = baseline_hierarchy(2, scale=job.scale)
    with retaining(job.trace_streams() * 2):
        opened = [
            list(itertools.islice(trace, 50))
            for trace in WorkloadMix(job.mix_name, job.apps).traces(reference)
        ]
        assert len(active_store()) == 2
    assert opened == [take(trace, 50) for trace in PAIR.traces(reference)]
