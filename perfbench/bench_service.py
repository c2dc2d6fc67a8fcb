"""``service_mix``: a closed loop of clients against ``python -m repro.service``.

The server boots on an ephemeral port (``--port 0 --port-file``) with
one pool worker and an empty result cache; the worker then gets its own
CPU (:meth:`Service.split_cpus`).  Each client thread sends
its next request only when the previous one has completed (callers
such as ``RemoteRunner`` and CI wait for their reply): POST
``/v1/sweeps`` with one job, follow ``/events`` until the sweep ends,
then GET ``/v1/jobs/{key}/result``.  One request in every block of
``bench_jobs.SERVICE_BLOCK``, at a seeded place, is a fresh job; the
others repeat a seeded pick of the jobs the same client completed,
which the service must serve from its memo.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentSettings, build_job
from repro.orchestrate import SimJob, job_key
from repro.service.schemas import job_to_dict

import bench_jobs

CLIENTS = 2
HTTP_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program output error)."""


def service_settings() -> ExperimentSettings:
    quota, warmup = bench_jobs.JOB_SIZE["service_mix"]
    return ExperimentSettings(
        scale=bench_jobs.SCALE, quota=quota, warmup=warmup, cache_dir=None
    )


class Service:
    """One ``repro.service`` process and its pool workers.

    Use as a context manager: leaving the block (normally or through
    an exception) stops the server and every worker it started, and
    raises :class:`BenchError` if any of them outlives the teardown.
    """

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        #: wall interval from spawn to the first ``/v1/healthz`` 200.
        self.boot: Tuple[float, float] = (0.0, 0.0)
        #: pid -> start time of every child seen, so a pid the kernel
        #: reuses after the child exits is never taken for the child.
        self._children: Dict[int, str] = {}
        self._log = None

    def __enter__(self) -> "Service":
        self.workdir.mkdir(parents=True)
        port_file = self.workdir / "port"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self._log = open(self.workdir / "service.log", "wb")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service",
                    "--port", "0",
                    "--workers", "1",
                    "--cache-dir", str(self.workdir / "cache"),
                    "--port-file", str(port_file),
                ],
                cwd=self.workdir,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=self._log,
            )
            self._wait_ready(port_file, start)
        except BaseException:
            self.stop()
            raise
        self.boot = (start, time.perf_counter())
        return self

    def _wait_ready(self, port_file: Path, start: float) -> None:
        while time.perf_counter() - start < BOOT_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise BenchError(f"service exited during boot ({self.proc.returncode})")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.url = f"http://127.0.0.1:{int(text)}"
                try:
                    with urllib.request.urlopen(self.url + "/v1/healthz", timeout=5) as r:
                        if r.status == 200:
                            return
                except OSError:
                    pass
            time.sleep(0.005)
        raise BenchError("service did not report healthy within the boot timeout")

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def children(self) -> List[int]:
        """Live child pids of the server (its pool workers)."""
        if self.proc is None:
            return []
        pids = set()
        task_dir = Path(f"/proc/{self.proc.pid}/task")
        with contextlib.suppress(OSError):
            for task in task_dir.iterdir():
                with contextlib.suppress(OSError):
                    pids.update(int(p) for p in (task / "children").read_text().split())
        for pid in pids:
            start = _start_time(pid)
            if start is not None:
                self._children.setdefault(pid, start)
        return sorted(pids)

    def split_cpus(self, front: int, back: int) -> None:
        """Pin the pool workers to ``back``; the server and this process
        (the clients) to ``front``.

        Left alone, the kernel's wake-affine placement puts the server
        on the busy pool worker's CPU in some runs and not in others,
        which makes memo-hit latency bimodal (about 5 against 10 ms on a
        2-CPU host).  A worker the server respawns later inherits the
        server's CPU (``service.respawns`` counts them).
        """
        _pin_threads(self.proc.pid, {front})
        for pid in self.children():
            _pin_threads(pid, {back})
        _pin_threads(os.getpid(), {front})

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server plus its workers."""
        pids = [self.proc.pid] + self.children()
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        self.children()
        proc, self.proc = self.proc, None
        try:
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(STOP_TIMEOUT_S)
        finally:
            if self._log is not None:
                self._log.close()
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        survivors = [pid for pid, start in self._children.items() if _alive(pid, start)]
        while survivors and time.perf_counter() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors if _alive(pid, self._children[pid])]
        for pid in survivors:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        if survivors:
            raise BenchError(f"service workers survived teardown: {survivors}")


def _pin_threads(pid: int, cpus: set) -> None:
    """Pin every thread ``pid`` has now; threads it starts later inherit."""
    with contextlib.suppress(OSError):
        for task in Path(f"/proc/{pid}/task").iterdir():
            with contextlib.suppress(OSError):
                os.sched_setaffinity(int(task.name), cpus)


def _start_time(pid: int) -> Optional[str]:
    """Start time (clock ticks since boot) of a live process, else None."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()  # from field 3, the state
    return None if fields[0] in ("Z", "X") else fields[19]


def _alive(pid: int, start: str) -> bool:
    """True while the process that had ``start`` as its start time runs."""
    return _start_time(pid) == start


def _peak_rss_kb(pid: int) -> int:
    with contextlib.suppress(OSError):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Outcome:
    """One client request, as the client saw it."""

    __slots__ = ("kind", "key", "start", "end", "error", "status", "body", "warmup")

    def __init__(self, kind: str, key: str) -> None:
        self.kind = kind
        self.key = key
        #: sent during the unmeasured warm-up (still output-checked).
        self.warmup = False
        self.start = self.end = 0.0
        self.error: Optional[str] = None
        self.status = 0
        self.body = b""


def _http(method: str, url: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=body, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
        return response.status, response.read()


def round_trip(
    url: str, job: SimJob, kind: str, span: Callable
) -> Outcome:
    """Submit one job, follow its sweep to the end, fetch its result."""
    key = job_key(job)
    outcome = Outcome(kind, key)
    outcome.start = time.perf_counter()
    try:
        with span("service.submit"):
            _, body = _http(
                "POST", url + "/v1/sweeps", json.dumps({"jobs": [job_to_dict(job)]}).encode()
            )
            sweep = json.loads(body)["sweep"]
        with span("service.wait"):
            _, feed = _http("GET", f"{url}/v1/sweeps/{sweep['id']}/events")
        events = [json.loads(line) for line in feed.splitlines() if line.strip()]
        ends = {e["event"] for e in events if e.get("key") == key} & {
            "job_done", "job_cached", "job_failed",
        }
        expected = "job_cached" if kind == "hit" else "job_done"
        if ends != {expected}:
            outcome.error = f"job error: ended with {sorted(ends)}, not {expected}"
            return outcome
        with span("service.result"):
            outcome.status, outcome.body = _http("GET", f"{url}/v1/jobs/{key}/result")
    except urllib.error.HTTPError as error:
        outcome.status = error.code
        outcome.error = f"HTTP {error.code}"
    except TimeoutError as error:
        outcome.error = f"timeout: {error}"
    except (OSError, ValueError, KeyError) as error:
        outcome.error = f"{type(error).__name__}: {error}"
    finally:
        outcome.end = time.perf_counter()
    return outcome


class ClosedLoop:
    """The ``service_mix`` clients; :meth:`run` lets them send for a while.

    Each client keeps its seeded hit/fresh choices, its queue of fresh
    requests and the jobs it completed from one :meth:`run` to the next,
    so a loop run in segments sends the requests one unbroken loop would.
    """

    def __init__(self, url: str, seed: int, span: Callable) -> None:
        self.url = url
        self.span = span
        self.settings = service_settings()
        self.rngs = [bench_jobs.client_rng(seed, index) for index in range(CLIENTS)]
        self.kinds = [bench_jobs.client_kinds(rng) for rng in self.rngs]
        self.queues = [iter(sequence) for sequence in bench_jobs.service_fresh(seed, CLIENTS)]
        self.done: List[List[Dict[str, Any]]] = [[] for _ in range(CLIENTS)]
        #: every request sent, in completion order.
        self.outcomes: List[Outcome] = []
        #: the run request of each fresh job that completed, by job key.
        self.completed: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def run(self, seconds: float, warmup: bool = False) -> Tuple[float, float]:
        """Let every client send requests until ``seconds`` pass.

        Returns the wall interval from the start to the completion of
        the last request.
        Warm-up requests are marked, to be left out of the timings.
        """
        first = len(self.outcomes)
        start = time.perf_counter()
        deadline = start + seconds
        errors: List[BaseException] = []

        def client(index: int) -> None:
            rng, queue, done = self.rngs[index], self.queues[index], self.done[index]
            try:
                while time.perf_counter() < deadline:
                    request, kind = None, "fresh"
                    if not done or next(self.kinds[index]) == "fresh":
                        request = next(queue, None)
                    if request is None:
                        request, kind = rng.choice(done), "hit"
                    job = build_job(self.settings, **request)
                    with self.span("bench.request"):
                        outcome = round_trip(self.url, job, kind, self.span)
                    outcome.warmup = warmup
                    with self._lock:
                        self.outcomes.append(outcome)
                        if kind == "fresh" and outcome.error is None:
                            self.completed[outcome.key] = request
                    if kind == "fresh" and outcome.error is None:
                        done.append(request)
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return start, max((o.end for o in self.outcomes[first:]), default=start)


def replay(
    url: str, requests: List[Dict[str, Any]]
) -> Tuple[Tuple[float, float], Dict[str, bytes]]:
    """Replay completed jobs as one sweep of memo hits.

    Returns the replay's wall interval and each result body by key.
    """
    settings = service_settings()
    jobs = [build_job(settings, **request) for request in requests]
    start = time.perf_counter()
    _, body = _http(
        "POST",
        url + "/v1/sweeps",
        json.dumps({"jobs": [job_to_dict(job) for job in jobs]}).encode(),
    )
    sweep = json.loads(body)["sweep"]
    _http("GET", f"{url}/v1/sweeps/{sweep['id']}/events")
    bodies = {}
    for job in jobs:
        key = job_key(job)
        _, bodies[key] = _http("GET", f"{url}/v1/jobs/{key}/result")
    return (start, time.perf_counter()), bodies


def metrics(url: str) -> Dict[str, Any]:
    return json.loads(_http("GET", url + "/v1/metrics")[1])
