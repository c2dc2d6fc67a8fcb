"""Host-speed probe: reference seconds for the benchmark's timings.

The 2-vCPU VMs the benchmark runs on change speed under it.  A fixed
pure-Python loop on one vCPU takes anywhere from 115 to 220 ms per
chunk, in states that last from a second to tens of seconds, and the
two vCPUs change speed independently; CPU time follows the same swing,
so it is the hardware, not descheduling.  A 20 s run lands wholly or
mostly in one state, so its wall-clock throughput varies by about half
from run to run whatever the program does.

:class:`HostProbe` starts one small process pinned to each CPU the
workload uses.  Every :data:`PERIOD_S` it runs a fixed reference
kernel (about 2 ms of dict updates, the same kind of work as the
simulator's interpreted loops) and records the kernel's CPU time.
:meth:`HostProbe.ref_seconds` turns a wall interval on a CPU into
*reference seconds*: the interval weighted by the CPU's speed relative
to :data:`NOMINAL_KERNEL_S`, the kernel's time on a fast state of the
host the benchmark was tuned on.  A program change moves reference
seconds exactly as it moves wall seconds; a host state change moves
the kernel as much as the program, and cancels.  The probes cost the
measured work about 1/25 of the CPU they share with it, the same on
every run.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

#: seconds between two kernel runs of a probe.
PERIOD_S = 0.05
#: dict updates per kernel run (about 2 ms on the tuning host).
KERNEL_ITERS = 12_000
#: the kernel's CPU seconds at the tuning host's fast state: one
#: reference second is the work the host does in one wall second there.
NOMINAL_KERNEL_S = 0.0014
#: samples in the running median that smooths a probe's series.
SMOOTH = 5
STOP_TIMEOUT_S = 10.0

PROBE_SCRIPT = r"""
import json, os, select, sys, time
cpu, period, iters = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])
os.sched_setaffinity(0, {cpu})

def kernel():
    d = {}
    for i in range(iters):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return d

kernel()
samples = []
sys.stdout.write("ready\n")
sys.stdout.flush()
while not select.select([sys.stdin], [], [], period)[0]:
    begin = time.perf_counter()
    cpu_begin = time.thread_time()
    kernel()
    cpu_s = time.thread_time() - cpu_begin
    samples.append(((begin + time.perf_counter()) / 2, cpu_s))
sys.stdout.write(json.dumps(samples))
"""


class HostProbe:
    """One reference-kernel probe per CPU, for the life of a ``with`` block.

    The probes stop when the block is left, on any path; their samples
    are read then, so :meth:`ref_seconds` is for use after the block.
    """

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(set(cpus))
        self._procs: Dict[int, subprocess.Popen] = {}
        #: cpu -> (edges, speed factors): factor k holds from edge k-1 to
        #: edge k, the midpoints between sample k and its neighbours.
        self._series: Dict[int, Tuple[List[float], List[float]]] = {}

    def __enter__(self) -> "HostProbe":
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, "-c", PROBE_SCRIPT,
                     str(cpu), str(PERIOD_S), str(KERNEL_ITERS)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
                self._procs[cpu] = proc
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"host probe on cpu {cpu} did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        procs, self._procs = self._procs, {}
        for proc in procs.values():
            proc.stdin.close()  # the probe's signal to stop
            proc.stdin = None
        for cpu, proc in procs.items():
            try:
                out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                continue
            samples = json.loads(out) if proc.returncode == 0 and out else []
            if samples:
                self._series[cpu] = _speed_series(samples)

    def ref_seconds(self, cpu: int, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]`` on ``cpu``.

        The probe's speed factors (nominal / measured kernel time,
        running-median smoothed) are held from one sample to the next
        and integrated over the interval.
        """
        if cpu not in self._series:
            raise RuntimeError(f"the host probe on cpu {cpu} recorded nothing")
        edges, factors = self._series[cpu]
        if end <= start:
            return 0.0
        total = 0.0
        index = bisect.bisect_right(edges, start)
        cursor = start
        while cursor < end:
            stop = edges[index] if index < len(edges) else end
            stop = min(stop, end)
            total += (stop - cursor) * factors[index]
            cursor = stop
            index += 1
        return total

    def factor(self, cpu: int, start: float, end: float) -> float:
        """Mean speed factor of ``cpu`` over ``[start, end]``."""
        return self.ref_seconds(cpu, start, end) / (end - start) if end > start else 1.0

    def samples(self, cpu: int) -> int:
        return len(self._series[cpu][1])


def _speed_series(samples: Sequence[Sequence[float]]) -> Tuple[List[float], List[float]]:
    times = [t for t, _ in samples]
    raw = [NOMINAL_KERNEL_S / cpu_s for _, cpu_s in samples]
    half = SMOOTH // 2
    factors = [
        statistics.median(raw[max(0, k - half):k + half + 1]) for k in range(len(raw))
    ]
    return [(a + b) / 2 for a, b in zip(times, times[1:])], factors


def cpu_pair() -> Tuple[int, int]:
    """The (front, back) CPUs of a run: the first and the last CPU this
    process may use, the same one on a single-CPU host.

    The sweeps run on the front CPU; ``service_mix`` runs its server and
    clients there and its pool worker on the back one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def pin_to(cpu: int) -> None:
    """Pin this thread (and the threads and children it starts later) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})
