"""RemoteRunner parity: service-side execution, byte-identical caches.

The acceptance contract of the submit client: a grid executed through
``repro.experiments --submit`` leaves the *server's* ``.repro-cache``
with entries byte-identical to the ones a local CLI run writes,
because both paths resolve the same ``SimJob`` identities and funnel
every cache write through ``ResultCache.store``.
"""

import threading
from pathlib import Path

import pytest

from repro.errors import ExperimentError, ServiceError
from repro.experiments import ExperimentSettings, RemoteRunner, Runner
from repro.service import JobBroker, ServiceConfig, create_server
from repro.workloads import mix_by_name

#: small but real grid: 2 mixes x 2 variants, executed for real.
REQUESTS = [
    dict(mix=mix_by_name(name), mode=mode, tla=tla)
    for name in ("MIX_00", "MIX_01")
    for mode, tla in (("inclusive", "none"), ("inclusive", "qbs"))
]


def tiny_settings(tmp_path, subdir):
    return ExperimentSettings(
        scale=0.0625,
        quota=8_000,
        warmup=2_000,
        sample=4,
        cache_dir=str(tmp_path / subdir),
    )


@pytest.fixture
def live(tmp_path):
    """A real service (inline broker, real execute_job) on port 0."""
    config = ServiceConfig(
        port=0, workers=0, cache_dir=str(tmp_path / "server-cache")
    )
    broker = JobBroker(config)
    server = create_server(config, broker=broker)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    broker.start()
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", config
    server.shutdown()
    broker.stop()
    server.server_close()
    thread.join(5)


def cache_files(directory):
    return {
        path.name: path.read_bytes()
        for path in Path(directory).glob("*.json")
    }


class TestRemoteParity:
    def test_remote_cache_entries_match_cli_byte_for_byte(
        self, tmp_path, live
    ):
        url, server_config = live
        local = Runner(tiny_settings(tmp_path, "local-cache"))
        local_results = local.run_many(REQUESTS, jobs=1)

        remote = RemoteRunner(url, tiny_settings(tmp_path, "unused"))
        remote_results = remote.run_many(REQUESTS)

        assert [r.ipcs for r in local_results] == [
            r.ipcs for r in remote_results
        ]
        local_files = cache_files(local.cache.directory)
        server_files = cache_files(server_config.cache_dir)
        assert len(local_files) == len(REQUESTS)
        assert local_files == server_files  # same keys, same bytes

    def test_remote_run_single(self, tmp_path, live):
        url, _ = live
        remote = RemoteRunner(url, tiny_settings(tmp_path, "unused2"))
        summary = remote.run(mix_by_name("MIX_00"))
        assert summary.mix == "MIX_00"
        # memoized in the client's memory tier: same object back
        assert remote.run(mix_by_name("MIX_00")) is summary

    def test_remote_never_reads_local_disk_cache(self, tmp_path, live):
        url, _ = live
        remote = RemoteRunner(url, tiny_settings(tmp_path, "local-cache-2"))
        assert remote.cache.directory is None

    def test_unreachable_service_raises(self, tmp_path):
        remote = RemoteRunner(
            "http://127.0.0.1:9", tiny_settings(tmp_path, "unused3")
        )
        with pytest.raises(ServiceError):
            remote.run(mix_by_name("MIX_00"))

    def test_bad_request_surfaces_as_experiment_error(self, tmp_path, live):
        url, _ = live
        remote = RemoteRunner(url, tiny_settings(tmp_path, "unused4"))
        with pytest.raises(ExperimentError):
            remote.run_many([dict(mode="inclusive")])  # no 'mix' entry
