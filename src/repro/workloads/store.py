"""Sweep-scoped trace store: generate each trace stream once per sweep.

Fig. 9 runs every pair under six policies, and each of those jobs
draws the same two per-core streams.  Inside a :func:`retaining`
scope, which :meth:`repro.orchestrate.Orchestrator.run` opens around
its in-process executions, :func:`open_stream` keeps each stream that
a later job of the scope will open again and replays it to that job:

* a stream is keyed on its generator's inputs, ``(MixtureProfile,
  seed, base_address)`` (:data:`StreamKey`), so every open of one key
  is the same record sequence by construction;
* stored chunks are packed: addresses stay int64, gaps take the
  narrowest unsigned dtype holding the chunk's largest gap, kind codes
  are uint8 (10-17 B/record).  The live generator stays with them, so
  a job that runs past the stored prefix extends it exactly where the
  last generated chunk ended;
* the scope is told how often each key will be opened (one count per
  pending job that uses it) and holds a stream only until its last
  user has opened it.  A key opened once is never stored at all;
* a sweep whose jobs revisit each stream far apart (ratio-major
  figure sweeps) would hold every pair's streams at once, so a new
  stream is stored only while the held chunks, and the L1 filters
  built over them (:mod:`repro.cpu.l1filter`), total less than
  :data:`STORE_BUDGET_BYTES`; past it, opens are cold;
* :func:`stored_stream` hands a job the :class:`StoredStream` behind a
  replay it opened, so the simulator can read the stream's chunks and
  L1 filter directly instead of drawing records one by one
  (:func:`repro.orchestrate.job.execute_job`).

Outside a scope (single jobs, pool and bus workers) :func:`open_stream`
is the plain cold generator and nothing is retained.  Scopes are
per-thread, so concurrent in-process sweeps never share a generator.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import weakref
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as _np

from .synthetic import MixtureProfile, mixture_chunks
from .trace import Chunk, Record, records_from_chunks

#: held bytes (packed chunks plus L1 filters) above which a scope
#: stores no further streams (at the experiments' default job size a
#: stream packs to a few MB).
STORE_BUDGET_BYTES = 64 << 20

#: a trace stream's identity: the arguments of ``mixture_chunks``.
StreamKey = Tuple[MixtureProfile, int, int]


def _pack(chunk: Chunk) -> Chunk:
    """Narrow a generated chunk's dtypes for storage (values unchanged)."""
    gaps, kind_codes, addresses = chunk
    return (
        gaps.astype(_np.min_scalar_type(int(gaps.max()))),
        kind_codes.astype(_np.uint8),
        addresses,
    )


class StoredStream:
    """One stream's packed chunk prefix and the generator extending it.

    ``filters`` holds the L1 filters built over the stream, one per L1
    geometry (:func:`repro.cpu.l1filter.l1_filter`); they live and die
    with the stream.
    """

    __slots__ = ("chunks", "filters", "_source", "__weakref__")

    def __init__(self, key: StreamKey) -> None:
        self.chunks: List[Chunk] = []
        self.filters: Dict[object, object] = {}
        self._source = mixture_chunks(*key)

    def chunk(self, index: int) -> Chunk:
        """Chunk ``index``, generating up to it past the stored prefix."""
        chunks = self.chunks
        while len(chunks) <= index:
            chunks.append(_pack(next(self._source)))
        return chunks[index]

    def packed_chunks(self) -> Iterator[Chunk]:
        """Every chunk from the first, generating past the stored prefix."""
        return map(self.chunk, itertools.count())

    def replay(self, start: int = 0) -> Iterator[Record]:
        """The stream's records from record ``start`` (default 0)."""
        chunks = self.packed_chunks()
        if not start:
            return records_from_chunks(chunks)
        for chunk in chunks:
            size = len(chunk[0])
            if start < size:
                break
            start -= size
        first = tuple(column[start:] for column in chunk)
        return records_from_chunks(itertools.chain((first,), chunks))

    @property
    def nbytes(self) -> int:
        """Bytes of packed chunks and L1 filters held."""
        packed = sum(column.nbytes for chunk in self.chunks for column in chunk)
        return packed + sum(f.nbytes for f in self.filters.values())


class TraceStore:
    """The use-counted streams of one retention scope."""

    def __init__(self, uses: Counter) -> None:
        #: key -> opens still expected in this scope.
        self._uses = uses
        self._streams: Dict[StreamKey, StoredStream] = {}
        #: key -> the stream last replayed for it, alive while any
        #: replay (or simulator) still references it.
        self._replayed: Dict[StreamKey, "weakref.ref[StoredStream]"] = {}

    def open(self, key: StreamKey) -> Iterator[Record]:
        """Records of stream ``key`` from record 0, replayed when stored."""
        left = self._uses.pop(key, 0)
        stream = self._streams.pop(key, None)
        if left > 1:
            self._uses[key] = left - 1
            if stream is None and self.nbytes < STORE_BUDGET_BYTES:
                stream = StoredStream(key)
            if stream is not None:
                self._streams[key] = stream
        if stream is None:
            self._replayed.pop(key, None)
            return records_from_chunks(mixture_chunks(*key))
        self._replayed[key] = weakref.ref(stream)
        return stream.replay()

    def replayed(self, key: StreamKey) -> Optional[StoredStream]:
        """The stored stream behind the last open of ``key``, if alive."""
        ref = self._replayed.get(key)
        return None if ref is None else ref()

    def announce(self, keys: Iterable[StreamKey]) -> None:
        """Expect one more open of each key in ``keys``."""
        self._uses.update(keys)

    def __len__(self) -> int:
        """Streams currently held."""
        return len(self._streams)

    @property
    def nbytes(self) -> int:
        """Bytes of packed chunks currently held."""
        return sum(stream.nbytes for stream in self._streams.values())

    def clear(self) -> None:
        self._uses.clear()
        self._streams.clear()
        self._replayed.clear()


_scope = threading.local()


def active_store() -> Optional[TraceStore]:
    """The calling thread's innermost retention scope, if any."""
    return getattr(_scope, "store", None)


@contextlib.contextmanager
def retaining(keys: Iterable[StreamKey]) -> Iterator[TraceStore]:
    """Share streams across the opens ``keys`` announces, one entry each.

    The store is emptied on exit, however the block ends.
    """
    store = TraceStore(Counter(keys))
    outer = active_store()
    _scope.store = store
    try:
        yield store
    finally:
        store.clear()
        _scope.store = outer


def open_stream(key: StreamKey) -> Iterator[Record]:
    """Plain ``(gap, kind, address)`` records of stream ``key`` from record 0."""
    store = active_store()
    if store is None:
        return records_from_chunks(mixture_chunks(*key))
    return store.open(key)


def stored_stream(key: StreamKey) -> Optional[StoredStream]:
    """The stored stream the calling thread's last open of ``key`` replays.

    None outside a scope, for a cold open, or once nothing references
    the replayed stream any more.
    """
    store = active_store()
    return None if store is None else store.replayed(key)
