"""The traced run: spans recorded around the program's public calls.

Nothing inside ``src/`` is instrumented.  :func:`installed` replaces,
for the duration of a ``with`` block, the public entry points of each
layer with wrappers defined here, and restores the originals on exit:

    WorkloadMix.traces iterators -> CMPSimulator.run -> execute_job
    -> ResultCache.load/store -> Orchestrator.run -> Runner.run_many

HTTP round trips are spanned by the service client itself.  Spans
(name, start, end, parent, run id) stay in memory and are written out
once at the end; a layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: span name -> layer it is charged to.  ``bench.*`` spans are the
#: benchmark's own roots; their self time is the unattributed share.
LAYER_OF = {
    "experiments.run_many": "experiments",
    "experiments.run": "experiments",
    "orchestrate.run": "orchestrate.dispatch",
    "orchestrate.execute_job": "orchestrate.job_setup",
    "orchestrate.cache_load": "orchestrate.cache",
    "orchestrate.cache_store": "orchestrate.cache",
    "cpu.run": "cpu",
    "workloads.gen": "workloads",
    "service.submit": "service",
    "service.wait": "service",
    "service.result": "service",
}

#: records drawn per timed trace-generation span.
TRACE_CHUNK = 1024


class SpanBook:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, name: str, start: float, parent: Optional[int]) -> int:
        with self._lock:
            self.spans.append(
                {
                    "name": name,
                    "start": start,
                    "end": start,
                    "parent": parent,
                    "run_id": self.run_id,
                    "thread": threading.get_ident(),
                }
            )
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        index = self._append(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def leaf(self, name: str, start: float, end: float) -> None:
        """A closed span under the innermost open span of this thread."""
        stack = self._stack()
        index = self._append(name, start, stack[-1] if stack else None)
        self.spans[index]["end"] = end

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations.

        Children run on their parent's thread and never overlap each
        other, so the covered part is the sum of their durations.
        """
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def layer_split(self) -> Dict[str, Any]:
        """Self time per layer, the traced wall time and its coverage."""
        own = self.self_times()
        layers: Dict[str, float] = {}
        wall = 0.0
        for span, self_s in zip(self.spans, own):
            layer = LAYER_OF.get(span["name"], "bench")
            layers[layer] = layers.get(layer, 0.0) + self_s
            if span["parent"] is None:
                wall += span["end"] - span["start"]
        attributed = wall - layers.get("bench", 0.0)
        return {
            "wall_s": wall,
            "layers": dict(sorted(layers.items(), key=lambda item: -item[1])),
            "coverage": attributed / wall if wall > 0 else 0.0,
        }

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(extra, run_id=self.run_id, spans=self.spans)
        path.write_text(json.dumps(document, sort_keys=True))


class SimCounts:
    """Exact simulator counts gathered from each ``CMPSimulator.run``."""

    def __init__(self) -> None:
        self.records = 0
        self.instructions = 0
        self.l1_accesses = 0
        self.l1_misses = 0
        self.llc_accesses = 0
        self.llc_misses = 0
        self.inclusion_victims = 0
        self.traffic: Dict[str, int] = {}
        self.cache_loads = 0
        self.cache_hits = 0
        #: (app, core, reference machine) of every trace stream requested.
        self.streams: List[Tuple[str, int, str]] = []

    def add_result(self, result) -> None:
        self.records += int(result.host["accesses"])
        self.instructions += int(result.host["instructions"])
        for core in result.cores:
            self.l1_accesses += core.stats.l1_accesses
            self.l1_misses += core.stats.l1_misses
        self.llc_accesses += result.total_llc_accesses
        self.llc_misses += result.total_llc_misses
        self.inclusion_victims += result.total_inclusion_victims
        for name, count in result.traffic.items():
            self.traffic[name] = self.traffic.get(name, 0) + count


def stream_reuse(streams: List[Tuple]) -> float:
    """Share of requested trace streams an earlier request already made."""
    if not streams:
        return 0.0
    return 1.0 - len(set(streams)) / len(streams)


def _chunked(stream: Iterator, book: SpanBook) -> Iterator:
    """Re-yield ``stream``, timing its generation a chunk at a time.

    Drawing ahead is safe because a trace is a pure function of its
    (app, core, machine) identity; the extra records of the last chunk
    are generated but never simulated.
    """
    islice = itertools.islice
    clock = time.perf_counter
    while True:
        start = clock()
        chunk = list(islice(stream, TRACE_CHUNK))
        book.leaf("workloads.gen", start, clock())
        if not chunk:
            return
        yield from chunk


@contextlib.contextmanager
def installed(book: SpanBook, counts: SimCounts) -> Iterator[None]:
    """Wrap each layer's public entry point for the ``with`` block."""
    from repro.cpu import cmp as cmp_mod
    from repro.experiments import runner as runner_mod
    from repro.orchestrate import cache as cache_mod
    from repro.orchestrate import job as job_mod
    from repro.orchestrate import scheduler as scheduler_mod
    from repro.workloads import mixes as mixes_mod

    Runner = runner_mod.Runner
    Orchestrator = scheduler_mod.Orchestrator
    ResultCache = cache_mod.ResultCache
    CMPSimulator = cmp_mod.CMPSimulator
    WorkloadMix = mixes_mod.WorkloadMix
    originals = {
        (Runner, "run_many"): Runner.run_many,
        (Runner, "run"): Runner.run,
        (Orchestrator, "run"): Orchestrator.run,
        (ResultCache, "load"): ResultCache.load,
        (ResultCache, "store"): ResultCache.store,
        (CMPSimulator, "run"): CMPSimulator.run,
        (WorkloadMix, "traces"): WorkloadMix.traces,
    }
    execute_job = job_mod.execute_job

    def spanned(name: str, original):
        def wrapper(*args, **kwargs):
            with book.span(name):
                return original(*args, **kwargs)

        return wrapper

    traced_execute = spanned("orchestrate.execute_job", execute_job)

    def orchestrator_run(self, *args, **kwargs):
        # execute_job is bound as a constructor default, so it is
        # swapped per instance rather than by module attribute.
        if self.execute is execute_job:
            self.execute = traced_execute
        with book.span("orchestrate.run"):
            return originals[(Orchestrator, "run")](self, *args, **kwargs)

    def cache_load(self, key):
        with book.span("orchestrate.cache_load"):
            hit = originals[(ResultCache, "load")](self, key)
        counts.cache_loads += 1
        counts.cache_hits += hit is not None
        return hit

    def simulator_run(self, *args, **kwargs):
        with book.span("cpu.run"):
            result = originals[(CMPSimulator, "run")](self, *args, **kwargs)
        counts.add_result(result)
        return result

    def traces(self, reference=None):
        streams = originals[(WorkloadMix, "traces")](self, reference)
        machine = repr(reference)
        counts.streams.extend(
            (app, core, machine) for core, app in enumerate(self.apps)
        )
        return [_chunked(stream, book) for stream in streams]

    replacements = {
        (Runner, "run_many"): spanned("experiments.run_many", Runner.run_many),
        (Runner, "run"): spanned("experiments.run", Runner.run),
        (Orchestrator, "run"): orchestrator_run,
        (ResultCache, "load"): cache_load,
        (ResultCache, "store"): spanned("orchestrate.cache_store", ResultCache.store),
        (CMPSimulator, "run"): simulator_run,
        (WorkloadMix, "traces"): traces,
    }
    for (owner, name), replacement in replacements.items():
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)
