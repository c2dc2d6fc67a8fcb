"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload policy_sweep --seed 1 --seconds 20 --trace 0

The program is imported from the ``src/`` of the checkout holding
this directory.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced in a child
process, then again with spans around every layer's public entry
point, and prints the per-layer metrics, the layer self-time split and
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Timings
are in reference seconds: wall time weighted by the speed a probe beside
the work measured on its CPU (:mod:`bench_host`).  Every run works in a
fresh directory under ``.perfbench/`` and removes it on exit; traced
runs leave their spans in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: the checkout this benchmark belongs to; the program is its ``src/``.
ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT} holds no src/repro; perfbench runs inside a checkout")
sys.path.insert(0, str(ROOT / "src"))

import bench_checks  # noqa: E402
import bench_host  # noqa: E402
import bench_jobs  # noqa: E402
import bench_service  # noqa: E402
import bench_sim  # noqa: E402
import bench_trace  # noqa: E402
from repro.experiments.runner import Runner, build_job  # noqa: E402
from repro.orchestrate import RunSummary, job_key  # noqa: E402

WORKLOADS = ("policy_sweep", "llc_pressure", "service_mix")
SWEEPS = ("policy_sweep", "llc_pressure")
SETUP_REPEATS = 5
#: leading fresh ``service_mix`` jobs of each client re-executed
#: in-process and compared (the same jobs on every run of a seed).
VERIFY_PER_CLIENT = 2
#: unmeasured ``service_mix`` closed-loop seconds before the measured
#: loop, so the server's threads, the pool worker and the page cache
#: settle before any latency is timed.
SERVICE_WARMUP_S = 3.0
#: the measured ``service_mix`` loop runs in this many segments; after
#: each, every completed job is replayed through the service for
#: ``bench_sim.REPLAY_SHARE`` of the segment's time, which spreads the
#: replay samples over the run as the sweeps' rounds do.
SERVICE_SEGMENTS = 4
#: fresh ``service_mix`` jobs per client whose digests ``--update-pins``
#: records, more than one run at the pinned seed completes.
SERVICE_PINNED_PER_CLIENT = 160
CHILD_TIMEOUT_S = 170

#: metric name -> unit, from the benchmark's own declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: a timing a run prints but BENCHMARK.json leaves out: every end-to-end
#: metric is reported on every workload, and on ``service_mix`` the
#: memo-hit tail spreads too far from run to run (README, "Noise").
PRINTED_UNITS = {**UNITS, "hit_p95_ms": "ms"}
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

SETUP_PROBE = (
    "import sys\n"
    "from repro.experiments import ExperimentSettings, Runner\n"
    "Runner(ExperimentSettings(cache_dir=sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=bench_checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--host-phases",
        action="store_true",
        help="attach the program's PhaseTimer to every job and run only the "
        "cold rounds (sweeps only)",
    )
    parser.add_argument(
        "--update-pins",
        action="store_true",
        help="record this run's output digests in pins.json",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- measurement helpers -----------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timing(values: Sequence[float]) -> Dict[str, float]:
    """Median and p95 in ms (of reference seconds), with the sample count."""
    ms = [value * 1000.0 for value in values]
    if not ms:
        return {"p50": 0.0, "p95": 0.0, "n": 0}
    return {"p50": statistics.median(ms), "p95": quantile(ms, 0.95), "n": len(ms)}


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workdir: Path) -> List[bench_sim.Interval]:
    """Process start to a ready ``Runner``, per fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    intervals = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(workdir / f"setup-{index}")],
            cwd=workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            intervals.append((start, time.perf_counter()))
        finally:
            proc.stdout.close()
            code = proc.wait(60)
        if code != 0 or line.strip() != b"ready":
            raise bench_service.BenchError(f"setup probe failed ({code})")
    return intervals


def _null_span(name: str):
    return contextlib.nullcontext()


# -- workloads ----------------------------------------------------------------------


def sweep_workload(args, workdir: Path, pins, span: Callable) -> Dict[str, Any]:
    slot = bench_checks.pin_slot(args.workload, args.seed)
    check = bench_checks.OutputCheck(pins.get(slot))
    cpu, _ = bench_host.cpu_pair()
    bench_host.pin_to(cpu)
    with bench_host.HostProbe([cpu]) as probe:
        # the in-program phase split needs only the cold rounds
        setup = [] if args.trace or args.host_phases else measure_setup(workdir)
        raw = bench_sim.run_sweep(
            args.workload, args.seed, args.seconds, workdir, check, span, args.host_phases
        )

    def ref(intervals: Sequence[bench_sim.Interval]) -> List[float]:
        return [probe.ref_seconds(cpu, start, end) for start, end in intervals]

    cold_s = sum(ref(raw["cold_rounds"]))
    replay_s = sum(ref(raw["replay_batches"]))
    fresh, hit = timing(ref(raw["fresh_intervals"])), timing(ref(raw["hit_intervals"]))
    return {
        "metrics": {
            "setup_s": statistics.median(ref(setup)) if setup else 0.0,
            "sim_instr_per_s": raw["instructions"] / cold_s,
            "replay_jobs_per_s": raw["replay_jobs"] / replay_s if replay_s else 0.0,
            "hit_p50_ms": hit["p50"],
            "hit_p95_ms": hit["p95"],
            "fresh_p50_ms": fresh["p50"],
            "fresh_p95_ms": fresh["p95"],
            "service_jobs_per_s": raw["jobs"] / cold_s,
            "peak_rss_mb": own_peak_rss_mb(),
        },
        "samples": {
            "setup_s": len(setup),
            "replay_jobs_per_s": len(raw["replay_batches"]),
            "hit": hit["n"],
            "fresh": fresh["n"],
        },
        "host": {
            f"cpu{cpu}": host_report(probe, cpu, raw["cold_rounds"], raw["instructions"])
        },
        "check": check,
        "slot": slot,
        "attempted": raw["attempted"],
        "phases": raw["phases"],
    }


def host_report(probe, cpu: int, intervals, instructions: float = 0.0) -> Dict[str, float]:
    """The host speed a run saw, next to the wall-clock figure it corrects."""
    wall = sum(end - start for start, end in intervals)
    ref = sum(probe.ref_seconds(cpu, start, end) for start, end in intervals)
    report = {"probe_samples": probe.samples(cpu), "speed_factor": ref / wall if wall else 1.0}
    if instructions and wall:
        report["wall_sim_instr_per_s"] = instructions / wall
    return report


def service_workload(args, workdir: Path, pins, span: Callable) -> Dict[str, Any]:
    slot = bench_checks.pin_slot(args.workload, args.seed)
    check = bench_checks.OutputCheck(pins.get(slot))
    settings = bench_service.service_settings()
    front, back = bench_host.cpu_pair()
    bench_host.pin_to(front)  # the server boots here; its pool worker moves to back
    boots: List[bench_sim.Interval] = []
    segments: List[bench_sim.Interval] = []
    replays: List[bench_sim.Interval] = []
    replayed = 0
    with bench_host.HostProbe([front, back]) as probe:
        for index in range(0 if args.trace else SETUP_REPEATS - 1):
            with bench_service.Service(ROOT, workdir / f"boot-{index}") as booted:
                boots.append(booted.boot)
        with bench_service.Service(ROOT, workdir / "service") as service:
            boots.append(service.boot)
            service.split_cpus(front, back)
            loop = bench_service.ClosedLoop(service.url, args.seed, span)
            warmup = loop.run(SERVICE_WARMUP_S, warmup=True)
            for _ in range(SERVICE_SEGMENTS):
                segments.append(loop.run(args.seconds / SERVICE_SEGMENTS))
                segment_s = segments[-1][1] - segments[-1][0]
                jobs, batches = replay_service(
                    service.url, loop, bench_sim.REPLAY_SHARE * segment_s, check
                )
                replayed += jobs
                replays.extend(batches)
            snapshot = bench_service.metrics(service.url)
            outcomes, completed = loop.outcomes, loop.completed
            ok = [o for o in outcomes if o.error is None]
            first = {o.key: o.body for o in ok if o.kind == "fresh"}
            keys = sorted(completed)
            peak_rss = own_peak_rss_mb() + service.peak_rss_mb()
            verify_service(args.seed, workdir, first, completed,
                           service.workdir / "cache", check, span)
    request_errors: Dict[str, int] = {}
    for index, outcome in enumerate(outcomes):
        if outcome.error is not None:
            check.fail(f"request-{index}", outcome.error)
            kind = outcome.error.split(":")[0]
            request_errors[kind] = request_errors.get(kind, 0) + 1
        else:
            summary = RunSummary(**json.loads(outcome.body))
            check.check(outcome.key, summary, settings.quota)

    # Fresh jobs and the loop's pace are bound by the pool worker, so
    # they are timed on its CPU; memo hits, replays and boots on the
    # server's.
    def ref(cpu: int, intervals: Sequence[bench_sim.Interval]) -> List[float]:
        return [probe.ref_seconds(cpu, start, end) for start, end in intervals]

    measured = [o for o in ok if not o.warmup]
    fresh = timing(ref(back, [(o.start, o.end) for o in measured if o.kind == "fresh"]))
    hit = timing(ref(front, [(o.start, o.end) for o in measured if o.kind == "hit"]))
    replay_s = sum(ref(front, replays))
    # the server's busy seconds are wall seconds of the worker's CPU
    worker_factor = probe.factor(back, warmup[0], segments[-1][1])
    return {
        "metrics": {
            "setup_s": statistics.median(ref(front, boots)),
            "sim_instr_per_s": snapshot["host"]["instructions_per_s"] / worker_factor,
            "replay_jobs_per_s": replayed / replay_s if replay_s else 0.0,
            "hit_p50_ms": hit["p50"],
            "hit_p95_ms": hit["p95"],
            "fresh_p50_ms": fresh["p50"],
            "fresh_p95_ms": fresh["p95"],
            "service_jobs_per_s": len(measured) / sum(ref(back, segments)),
            "peak_rss_mb": peak_rss,
        },
        "samples": {
            "setup_s": len(boots),
            "replay_jobs_per_s": len(replays),
            "hit": hit["n"],
            "fresh": fresh["n"],
        },
        "host": {
            f"cpu{front} (server, clients)": host_report(probe, front, segments),
            f"cpu{back} (pool worker)": {
                **host_report(probe, back, segments),
                "wall_sim_instr_per_s": snapshot["host"]["instructions_per_s"],
            },
        },
        "check": check,
        "slot": slot,
        "attempted": len(outcomes) + replayed,
        "request_errors": request_errors,
        "phases": {},
        "outcomes": outcomes,
        "snapshot": snapshot,
        "streams": [
            (app, core, bench_jobs.SCALE)
            for key in keys
            for core, app in enumerate(completed[key]["mix"].apps)
        ],
    }


def replay_service(url, loop, seconds, check) -> Tuple[int, List[bench_sim.Interval]]:
    """Replay every job the loop completed, as one sweep of memo hits,
    until ``seconds`` pass (at least once).

    Each replayed result must hold the same JSON as its first fetch.
    Returns the jobs replayed and the wall interval of each completed
    replay.
    """
    first = {
        o.key: o.body for o in loop.outcomes if o.error is None and o.kind == "fresh"
    }
    requests = [loop.completed[key] for key in sorted(loop.completed)]
    replayed = 0
    batches: List[bench_sim.Interval] = []
    while requests:
        try:
            batch, bodies = bench_service.replay(url, requests)
        except (OSError, ValueError) as error:
            check.fail(f"replay-{len(batches)}", f"{type(error).__name__}: {error}")
            return replayed + len(requests), batches
        replayed += len(requests)
        batches.append(batch)
        for key, body in bodies.items():
            if json.loads(body) != json.loads(first[key]):
                check.fail(key, "replayed result differs from the first fetch")
        if sum(end - start for start, end in batches) >= seconds:
            break
    return replayed, batches


def verify_service(seed, workdir, first, completed, server_cache, check, span) -> None:
    """Re-run each client's leading fresh jobs in-process and compare bytes.

    The in-process result-cache entry must be byte-identical to the
    server's, and the HTTP result body must hold the same JSON.
    """
    local_cache = workdir / "verify"
    settings = dataclasses.replace(
        bench_service.service_settings(), cache_dir=str(local_cache)
    )
    leading = [
        job_key(build_job(settings, **request))
        for sequence in bench_jobs.service_fresh(seed, bench_service.CLIENTS)
        for request in sequence[:VERIFY_PER_CLIENT]
    ]
    sample = [key for key in leading if key in first]
    with span("bench.verify"):
        Runner(settings).run_many([completed[key] for key in sample])
    for key in sample:
        mine = (local_cache / f"{key}.json").read_bytes()
        if mine != (server_cache / f"{key}.json").read_bytes():
            check.fail(key, "server cache entry differs from in-process execute_job")
        if json.loads(first[key]) != json.loads(mine):
            check.fail(key, "HTTP result differs from in-process execute_job")


def run_workload(args, workdir: Path, pins, span: Callable = _null_span):
    if args.workload in SWEEPS:
        return sweep_workload(args, workdir, pins, span)
    return service_workload(args, workdir, pins, span)


# -- the traced run -----------------------------------------------------------------


def start_child(args, *extra: str, cpu: Optional[int] = None) -> subprocess.Popen:
    """Start this workload untraced in a child process, pinned to ``cpu``
    if one is given; :func:`child_result` collects it."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        *extra,
    ]
    pin = None if cpu is None else (lambda: bench_host.pin_to(cpu))
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=pin)


def child_result(proc: subprocess.Popen) -> Dict[str, Any]:
    """Wait for a child run and return its result line; a child that
    fails or overruns :data:`CHILD_TIMEOUT_S` is killed and reported."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise bench_service.BenchError(f"child run failed ({proc.returncode})")
    return json.loads(out.decode().strip().splitlines()[-1])


def layer_metrics(result, book, counts, untraced) -> Dict[str, float]:
    """Per-layer metrics of a traced run (0 for layers it does not use)."""
    split = book.layer_split()
    traffic = counts.traffic
    records = counts.records
    loads = counts.cache_loads
    out = {
        "workloads.records": records,
        "workloads.gen_s": book.total("workloads.gen"),
        "workloads.trace_reuse_frac": bench_trace.stream_reuse(
            result.get("streams") or counts.streams
        ),
        "cpu.run_s": book.total("cpu.run"),
        "cpu.self_s": book.self_total("cpu.run"),
        "cpu.ns_per_record": book.self_total("cpu.run") / records * 1e9 if records else 0.0,
        "cpu.sim_instructions": counts.instructions,
        "hierarchy.l1_miss_frac": (
            counts.l1_misses / counts.l1_accesses if counts.l1_accesses else 0.0
        ),
        "hierarchy.llc_accesses": counts.llc_accesses,
        "hierarchy.llc_misses": counts.llc_misses,
        "hierarchy.back_invalidates": traffic.get("back_invalidate", 0),
        "hierarchy.inclusion_victims": counts.inclusion_victims,
        "hierarchy.writebacks": traffic.get("writeback", 0),
        "core.qbs_queries": traffic.get("qbs_query", 0),
        "core.eci_invalidates": traffic.get("eci_invalidate", 0),
        "core.tlh_hints": traffic.get("tlh_hint", 0),
        "orchestrate.job_setup_s": book.self_total("orchestrate.execute_job"),
        "orchestrate.cache_store_s": book.total("orchestrate.cache_store"),
        "orchestrate.cache_load_s": book.total("orchestrate.cache_load"),
        "orchestrate.cache_hit_frac": counts.cache_hits / loads if loads else 0.0,
        "orchestrate.dispatch_overhead_s": book.self_total("orchestrate.run"),
        "experiments.run_many_s": book.total("experiments.run_many"),
        "trace.coverage_frac": split["coverage"],
    }
    out.update(service_layers(result, book))
    traced = result["metrics"]
    base = untraced["metrics"]
    out["trace.overhead_sim_instr_frac"] = (
        base["sim_instr_per_s"]["value"] / traced["sim_instr_per_s"] - 1.0
    )
    out["trace.overhead_fresh_p50_frac"] = (
        traced["fresh_p50_ms"] / base["fresh_p50_ms"]["value"] - 1.0
    )
    return out


def service_layers(result, book) -> Dict[str, float]:
    """Client spans and ``/v1/metrics`` figures of a service run."""
    snapshot = result.get("snapshot")
    if snapshot is None:
        return {name: 0.0 for name in LAYER_UNITS if name.startswith("service.")}
    families = snapshot["metrics"]

    def histogram_mean(family: str, skip_route: str = "") -> float:
        total = count = 0.0
        for sample in families[family]["samples"]:
            if sample["labels"].get("route") == skip_route:
                continue
            total += sample["sum"]
            count += sample["count"]
        return total / count if count else 0.0

    def counter(family: str, **labels: str) -> float:
        return sum(
            sample["value"]
            for sample in families[family]["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )

    lookups = counter("repro_result_cache_requests_total")
    jobs = snapshot["jobs"]

    def median_ms(name: str) -> float:
        values = book.durations(name)
        return statistics.median(values) * 1000.0 if values else 0.0

    return {
        "service.submit_ms": median_ms("service.submit"),
        "service.wait_ms": median_ms("service.wait"),
        "service.result_ms": median_ms("service.result"),
        "service.queue_wait_s": histogram_mean("repro_queue_wait_seconds"),
        "service.exec_s": histogram_mean("repro_job_exec_seconds"),
        # the event feed is held open for the whole job, so it is the
        # job's wait, not HTTP service time.
        "service.http_s": histogram_mean(
            "repro_http_request_seconds", skip_route="GET /v1/sweeps/{id}/events"
        ),
        "service.cache_hit_frac": (
            counter("repro_result_cache_requests_total", outcome="hit") / lookups
            if lookups else 0.0
        ),
        "service.retries": jobs["jobs_retried"],
        "service.rejects": jobs["rejected_queue_full"] + jobs["rejected_quota"],
        "service.respawns": snapshot["executor"]["respawns"],
    }


def traced_run(args, workdir: Path, pins) -> Dict[str, Any]:
    untraced = child_result(start_child(args))
    run_id = uuid.uuid4().hex[:12]
    book = bench_trace.SpanBook(run_id)
    counts = bench_trace.SimCounts()
    front, back = bench_host.cpu_pair()
    phased = proc = None
    try:
        if args.workload in SWEEPS:
            # The in-program phase split (cold rounds only) runs beside
            # the traced run, on the other CPU; before it on a 1-CPU host.
            proc = start_child(args, "--host-phases", cpu=back)
            if back == front:
                phased, proc = child_result(proc), None
        with bench_trace.installed(book, counts):
            result = run_workload(args, workdir, pins, span=book.span)
        if proc is not None:
            phased = child_result(proc)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    layers = layer_metrics(result, book, counts, untraced)
    split = book.layer_split()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "layer_split": split,
        "untraced": untraced["metrics"],
        "traced": result["metrics"],
        "per_layer": layers,
        "in_program_phases": phased and phased["host_phases"],
    }
    path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}-{run_id}.json"
    book.write(path, report)
    print_trace_report(args, split, layers, untraced, result, phased, path)
    result["layers"] = layers
    return result


def print_trace_report(args, split, layers, untraced, result, phased, path) -> None:
    print(f"traced wall {split['wall_s']:.3f} s, "
          f"{100 * split['coverage']:.1f}% attributed to named layers")
    for layer, seconds in split["layers"].items():
        share = seconds / split["wall_s"] if split["wall_s"] else 0.0
        print(f"  self {layer:<22} {seconds:9.4f} s {100 * share:6.1f}%")
    print(
        f"workload properties [{args.workload}]: "
        f"workloads.trace_reuse_frac={layers['workloads.trace_reuse_frac']:.4f} "
        f"hierarchy.l1_miss_frac={layers['hierarchy.l1_miss_frac']:.4f}"
    )
    base = untraced["metrics"]
    print(
        "tracing overhead: sim_instr_per_s "
        f"{base['sim_instr_per_s']['value']:.0f} untraced vs "
        f"{result['metrics']['sim_instr_per_s']:.0f} traced "
        f"({100 * layers['trace.overhead_sim_instr_frac']:+.1f}%); fresh_p50_ms "
        f"{base['fresh_p50_ms']['value']:.3f} untraced vs "
        f"{result['metrics']['fresh_p50_ms']:.3f} traced "
        f"({100 * layers['trace.overhead_fresh_p50_frac']:+.1f}%)"
    )
    if phased is not None:
        phases = phased["host_phases"]
        total = sum(entry["s"] for entry in phases.values())
        overhead = (
            base["sim_instr_per_s"]["value"] / phased["metrics"]["sim_instr_per_s"]["value"]
            - 1.0
        )
        print(f"in-program host_phases (PhaseTimer, cold rounds rerun beside the traced "
              f"run, overhead {100 * overhead:+.1f}% on sim_instr_per_s):")
        for name, entry in sorted(phases.items(), key=lambda item: -item[1]["s"]):
            print(f"  phase {name:<21} {entry['s']:9.4f} s "
                  f"{100 * entry['s'] / total:6.1f}%")
    else:
        print("in-program host_phases: not collected (jobs run in the service's worker)")
        print(
            "server side (/v1/metrics): mean queue wait "
            f"{layers['service.queue_wait_s'] * 1000:.2f} ms, mean exec "
            f"{layers['service.exec_s'] * 1000:.2f} ms, mean HTTP handling "
            f"{layers['service.http_s'] * 1000:.3f} ms, cache hit frac "
            f"{layers['service.cache_hit_frac']:.3f}"
        )
    print(f"spans: {path}")


# -- entry point ---------------------------------------------------------------------


def update_pins(args, result, workdir: Path) -> None:
    """Record the digests of this run (and, for service_mix, of the
    first fresh jobs of every client) under the run's pin slot."""
    check = result["check"]
    digests = dict(check.digests)
    if args.workload == "service_mix":
        settings = dataclasses.replace(
            bench_service.service_settings(), cache_dir=str(workdir / "pins")
        )
        requests = [
            request
            for sequence in bench_jobs.service_fresh(args.seed, bench_service.CLIENTS)
            for request in sequence[:SERVICE_PINNED_PER_CLIENT]
        ]
        summaries = Runner(settings).run_many(requests)
        for request, summary in zip(requests, summaries):
            key = job_key(build_job(settings, **request))
            digests[key] = bench_checks.digest(summary)
    pins = bench_checks.load_pins()
    pins[result["slot"]] = dict(sorted(digests.items()))
    bench_checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests under {result['slot']!r}")


def emit(args, result) -> None:
    check = result["check"]
    failed = check.failed
    attempted = max(result["attempted"], failed, 1)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for name, value in result["metrics"].items():
        if not (args.trace and name == "setup_s"):  # set-up is not re-measured traced
            print(f"  {name:<20} {value:14.4f} {PRINTED_UNITS[name]}")
    for cpu, host in result["host"].items():
        wall = host.get("wall_sim_instr_per_s")
        print(f"  host {cpu}: speed factor {host['speed_factor']:.3f} over the measured "
              f"work ({host['probe_samples']} probe samples)"
              + (f"; wall-clock sim_instr_per_s {wall:.0f}" if wall else ""))
    samples = result["samples"]
    print(f"  samples: fresh n={samples['fresh']}, hit n={samples['hit']}, "
          f"replays n={samples['replay_jobs_per_s']}, setups n={samples['setup_s']}")
    print(f"  error_rate           {failed / attempted:14.4f} "
          f"({failed} failed of {attempted} attempted)")
    print(f"  output check: {len(check.pinned_checked)} digests compared with "
          f"pins {result['slot']!r}, {len(check.digests)} results checked")
    if "request_errors" in result:
        print(f"  failed requests by kind (non-2xx, 429, timeout, job error): "
              f"{result['request_errors'] or 'none'}")
    for line in check.describe():
        print(f"  FAILED {line}")
    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in UNITS.items()
        }
    line: Dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.host_phases:
        line["host_phases"] = result["phases"]
    print(json.dumps(line, sort_keys=True))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the service teardown runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    try:
        pins = bench_checks.load_pins()
        if args.trace:
            result = traced_run(args, workdir, pins)
        else:
            result = run_workload(args, workdir, pins)
        if args.update_pins:
            update_pins(args, result, workdir)
        emit(args, result)
    except bench_service.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
