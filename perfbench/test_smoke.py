"""Minimal-size smoke test of every benchmark workload.

    python -m pytest perfbench

Each workload runs for one second at the pinned seed, untraced and
traced, through the same command line the benchmark is driven by.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def units(line) -> dict:
    return {name: metric["unit"] for name, metric in line["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    stdout, line = bench(workload, trace=0)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert units(line) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert "digests compared with pins" in stdout
    assert re.search(r"[1-9]\d* digests compared", stdout), "default seed is not pinned"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_cover_the_traced_wall_time(workload):
    stdout, line = bench(workload, trace=1)
    assert line["correct"] is True
    assert units(line) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert f"workload properties [{workload}]" in stdout
    assert "tracing overhead" in stdout
    spans = Path(re.search(r"^spans: (.+)$", stdout, re.M).group(1))
    split = json.loads(spans.read_text())["layer_split"]
    spans.unlink()
    assert split["coverage"] >= 0.9
    assert sum(split["layers"].values()) == pytest.approx(split["wall_s"])
    assert line["metrics"]["trace.coverage_frac"]["value"] == split["coverage"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tampered_digest_trips_the_output_check(workload, tmp_path):
    args = run.parse_args(["--workload", workload, "--seconds", "1"])
    slot = run.bench_checks.pin_slot(workload, args.seed)
    pins = run.bench_checks.load_pins()
    tampered = {slot: {key: "0" * 16 for key in pins[slot]}}
    result = run.run_workload(args, tmp_path, tampered)
    assert result["check"].failed >= 1
    assert all("pinned" in " ".join(r) for r in result["check"].failures.values())


def test_service_teardown_on_an_exception_leaves_no_process(tmp_path):
    with pytest.raises(RuntimeError):
        with run.bench_service.Service(run.ROOT, tmp_path / "service") as service:
            pids = [service.proc.pid]
            run.bench_service.ClosedLoop(service.url, 1, run._null_span).run(0.5)
            pids += service.children()
            assert len(pids) == 2, "the server runs one pool worker"
            starts = {pid: run.bench_service._start_time(pid) for pid in pids}
            raise RuntimeError("mid-run failure")
    assert not [pid for pid in pids if run.bench_service._alive(pid, starts[pid])]


def test_host_probe_weights_wall_time_by_speed_and_stops():
    cpu, _ = run.bench_host.cpu_pair()
    with run.bench_host.HostProbe([cpu]) as probe:
        start = time.perf_counter()
        time.sleep(0.5)
        end = time.perf_counter()
    assert probe.samples(cpu) >= 5
    factor = probe.factor(cpu, start, end)
    assert 0.05 < factor < 20
    assert probe.ref_seconds(cpu, start, end) == pytest.approx((end - start) * factor)
    children = [
        pid
        for task in Path(f"/proc/{os.getpid()}/task").iterdir()
        for pid in (task / "children").read_text().split()
    ]
    assert not children, "a probe outlived its block"
