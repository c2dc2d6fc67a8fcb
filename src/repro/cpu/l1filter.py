"""Per-stream L1 filter: a stored stream's L1 outcomes, computed once.

A private LRU L1 is a pure function of its own access stream until
something invalidates into it (trace stripping: Puzak 1985; Wang &
Baer 1990).  So for a stream held by the sweep trace store
(:mod:`repro.workloads.store`) the L1 outcomes of every record can be
computed once per L1 geometry and shared by every job that replays the
stream.  :class:`L1Filter` does that chunk by chunk, driving a private
:class:`~repro.cache.Cache` pair with exactly the calls the hierarchy
makes (``access(line, write=is_write)`` then, on a miss,
``fill(line, dirty=is_write)``).  Per stream chunk it keeps:

* the chunk's records (the stored arrays themselves, not a copy), from
  which a core derives per-record instruction and ifetch prefix counts
  when it enters the chunk (:meth:`FilterChunk.prefixes`);
* each miss's offset, line address, kind code and gap;
* for each miss, the replacement state of the missed set just before
  the fill: its stamps, ``_clock``, ``_cold`` and dirty bits;
* full checkpoints of both L1s at the chunk's first record and every
  :attr:`L1Filter.stride` records after it (see
  :data:`CHECKPOINT_BYTES_PER_RECORD`).

A stripped core (:meth:`repro.cpu.SimulatedCore.strip`) skips L1 hits
and, on each miss, writes the snapshot into that set of its real L1
(:meth:`FilterChunk.restore_set`) before the unchanged
``_beyond_l1``.  When the real L1 must become exact everywhere (a line
it holds is about to be invalidated, or the run ends),
:meth:`FilterChunk.state_at` rebuilds the filter state at any record
from the nearest checkpoint plus a replay of less than one stride, and
:func:`apply_state` copies it into the real caches.
"""

from __future__ import annotations

import itertools
import time
import weakref
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as _np

from ..access import AccessType
from ..cache import Cache
from ..cache.replacement.lru import LRUPolicy
from ..config import CacheConfig, HierarchyConfig
from ..errors import SimulationError
from ..hierarchy.levels import CoreCaches
from ..perf.phase import PHASE_L1_ACCESS, PHASE_TRACE_GEN, PhaseTimer
from ..workloads.store import StoredStream
from ..workloads.trace import KIND_CODES

#: chunk kind codes of stores and ifetches.
CODE_STORE = KIND_CODES.index(AccessType.STORE)
CODE_IFETCH = KIND_CODES.index(AccessType.IFETCH)

#: one cache's saved state: addrs, valid, dirty, stamps, clock, cold
#: (raw bytes) and the policy's ``last_hit_was_mru`` flag.
CacheState = Tuple[bytes, bytes, bytes, bytes, bytes, bytes, bool]

#: an L1 geometry: ``(l1i, l1d, line_shift)``.
FilterKey = Tuple[CacheConfig, CacheConfig, int]

#: checkpoint bytes a filter may spend per record: checkpoints come
#: every ``max(MIN_STRIDE, checkpoint bytes / this)`` records.  Every
#: stripped job replays from one to sync its L1s at the end, half a
#: stride on average.
CHECKPOINT_BYTES_PER_RECORD = 1.5
MIN_STRIDE = 1024


def strippable(cache: Cache) -> bool:
    """Can an L1 filter stand in for ``cache``'s hits?

    Only the stock LRU on an un-hashed index: the filter replays the
    cache with a fresh :class:`Cache` of the same configuration, and
    the per-set snapshot covers exactly LRU's stamp/clock/cold state.
    """
    return (
        type(cache) is Cache
        and type(cache.policy) is LRUPolicy
        and not cache._index_hash
        and cache._lru_hit_fast
    )


def _save(cache: Cache) -> CacheState:
    policy = cache.policy
    return (
        cache._addrs.tobytes(),
        bytes(cache._valid),
        bytes(cache._dirty),
        policy._stamp.tobytes(),
        policy._clock.tobytes(),
        policy._cold.tobytes(),
        policy.last_hit_was_mru,
    )


def _restore(cache: Cache, state: CacheState) -> None:
    """Load ``state`` into ``cache`` in place (its closures stay valid)."""
    addrs, valid, dirty, stamp, clock, cold, last_hit_was_mru = state
    policy = cache.policy
    memoryview(cache._addrs).cast("B")[:] = addrs
    cache._valid[:] = valid
    cache._dirty[:] = dirty
    memoryview(policy._stamp).cast("B")[:] = stamp
    memoryview(policy._clock).cast("B")[:] = clock
    memoryview(policy._cold).cast("B")[:] = cold
    policy.last_hit_was_mru = last_hit_was_mru
    assoc = cache.associativity
    resident = cache._map
    resident.clear()
    slot_addrs = cache._addrs
    for slot, is_valid in enumerate(cache._valid):
        if is_valid:
            resident[slot_addrs[slot]] = slot % assoc


def apply_state(real: Cache, state: Cache) -> None:
    """Make ``real``'s replacement state and dirty bits ``state``'s.

    ``real`` already holds exactly ``state``'s lines in the same ways
    (fills are the only membership changes and both saw the same
    ones); its stamps are stale for hits it skipped, and its dirty
    bits lack the write hits it skipped but may carry dirty state an
    exclusive LLC migrated into a fill, so they are OR'ed.
    """
    if real._map != state._map:
        raise SimulationError(
            f"{real.name}: stripped L1 membership diverged from its filter"
        )
    policy = real.policy
    policy._stamp[:] = state.policy._stamp
    policy._clock[:] = state.policy._clock
    policy._cold[:] = state.policy._cold
    policy.last_hit_was_mru = state.policy.last_hit_was_mru
    dirty = real._dirty
    for slot, is_dirty in enumerate(state._dirty):
        if is_dirty:
            dirty[slot] = 1


class FilterChunk:
    """The L1 filter of one stored stream chunk (see the module doc)."""

    __slots__ = (
        "records",
        "size",
        "stride",
        "misses_at",
        "miss_line",
        "snapshots",
        "checkpoints",
    )

    def prefixes(self) -> Tuple[array, array]:
        """Instructions (gap + 1) and ifetches before each offset.

        Both arrays have ``size + 1`` entries, starting at 0, so any
        run of records ``[a, b)`` retires ``instr[b] - instr[a]``
        instructions, ``ifetch[b] - ifetch[a]`` of them ifetches.
        """
        gaps, kind_codes, _ = self.records
        instr = _np.zeros(self.size + 1, dtype=_np.int64)
        _np.cumsum(gaps.astype(_np.int64) + 1, out=instr[1:])
        ifetch = _np.zeros(self.size + 1, dtype=_np.int64)
        _np.cumsum(kind_codes == CODE_IFETCH, out=ifetch[1:])
        return array("q", instr.tobytes()), array("q", ifetch.tobytes())

    def hint_lines(
        self, ifetch: bool, data: bool, line_shift: int
    ) -> Tuple[array, array]:
        """Lines of the L1 hits that send a TLH hint, and how many come
        before each offset.

        ``ifetch`` / ``data`` select whose hits hint (TLH-IL1, -DL1,
        -L1); misses never do.  The hits among records ``[a, b)`` hint
        ``lines[before[a]:before[b]]``, in record order.
        """
        _, kind_codes, addresses = self.records
        if ifetch and data:
            hinted = _np.ones(self.size, dtype=bool)
        elif ifetch:
            hinted = kind_codes == CODE_IFETCH
        else:
            hinted = kind_codes != CODE_IFETCH
        hinted[self.misses_at] = False
        before = _np.zeros(self.size + 1, dtype=_np.int64)
        _np.cumsum(hinted, out=before[1:])
        lines = addresses[hinted] >> line_shift
        return array("q", lines.tobytes()), array("q", before.tobytes())

    def misses(self) -> Tuple[List[int], List[int], List[AccessType], List[int]]:
        """Each miss's offset, line address, access kind and gap."""
        gaps, kind_codes, _ = self.records
        at = self.misses_at
        return (
            at.tolist(),
            self.miss_line.tolist(),
            list(map(KIND_CODES.__getitem__, kind_codes[at].tolist())),
            gaps[at].tolist(),
        )

    def restore_set(self, index: int, cache: Cache, line_addr: int) -> None:
        """Write miss ``index``'s snapshot into its set of ``cache``.

        Stamps, clock and cold are replaced; dirty bits are OR'ed (see
        :func:`apply_state`).
        """
        snapshots = self.snapshots
        set_index = line_addr & cache._set_mask
        assoc = cache.associativity
        base = set_index * assoc
        at = snapshots.at[index]
        policy = cache.policy
        policy._stamp[base:base + assoc] = snapshots.stamps[at:at + assoc]
        policy._clock[set_index] = snapshots.clock[index]
        policy._cold[set_index] = snapshots.cold[index]
        snap = snapshots.dirty[at:at + assoc]
        if 1 in snap:
            dirty = cache._dirty
            for way, is_dirty in enumerate(snap):
                if is_dirty:
                    dirty[base + way] = 1

    def state_at(
        self, offset: int, l1i: CacheConfig, l1d: CacheConfig, line_shift: int
    ) -> Tuple[Cache, Cache]:
        """Fresh L1s holding the filter state before record ``offset``."""
        scratch_i = Cache(l1i)
        scratch_d = Cache(l1d)
        index = min(offset // self.stride, len(self.checkpoints) - 1)
        state_i, state_d = self.checkpoints[index]
        _restore(scratch_i, state_i)
        _restore(scratch_d, state_d)
        start = index * self.stride
        _, kind_codes, addresses = self.records
        _drive(
            scratch_i,
            scratch_d,
            (addresses[start:offset] >> line_shift).tolist(),
            kind_codes[start:offset].tolist(),
        )
        return scratch_i, scratch_d

    @property
    def nbytes(self) -> int:
        """Bytes this chunk adds to the stream (its records excluded)."""
        checkpoints = sum(
            len(part)
            for pair in self.checkpoints
            for state in pair
            for part in state[:6]
        )
        # misses_at is a view of the snapshots' offsets.
        return self.miss_line.nbytes + self.snapshots.nbytes + checkpoints


class _Snapshots:
    """Per-miss set snapshots of one chunk, in miss order."""

    def __init__(self) -> None:
        #: record offset of each miss.
        self.offsets = array("q")
        #: where each miss's stamps and dirty bits start.
        self.at = array("q")
        self.stamps = array("q")
        self.clock = array("q")
        self.cold = array("q")
        self.dirty = bytearray()

    @property
    def nbytes(self) -> int:
        arrays = (self.offsets, self.at, self.stamps, self.clock, self.cold)
        return sum(a.itemsize * len(a) for a in arrays) + len(self.dirty)

    def taker(self, cache: Cache):
        """A ``snapshot(line_addr, offset)`` callable for ``cache``'s sets."""
        policy = cache.policy
        stamp = policy._stamp
        clock = policy._clock
        cold = policy._cold
        dirty = cache._dirty
        mask = cache._set_mask
        assoc = cache.associativity
        offset_append = self.offsets.append
        at_append = self.at.append
        stamps = self.stamps
        stamps_extend = stamps.extend
        clock_append = self.clock.append
        cold_append = self.cold.append
        dirty_extend = self.dirty.extend

        def snapshot(line_addr: int, offset: int) -> None:
            set_index = line_addr & mask
            base = set_index * assoc
            offset_append(offset)
            at_append(len(stamps))
            stamps_extend(stamp[base:base + assoc])
            clock_append(clock[set_index])
            cold_append(cold[set_index])
            dirty_extend(dirty[base:base + assoc])

        return snapshot


def _drive(
    l1i: Cache,
    l1d: Cache,
    lines: List[int],
    codes: List[int],
    snapshots: Optional[_Snapshots] = None,
    first: int = 0,
) -> None:
    """Drive the L1 pair through records as the hierarchy would.

    With ``snapshots``, each miss first records its offset (counted
    from ``first``) and its set's state before the fill.
    """
    l1i_access = l1i.access
    l1d_access = l1d.access
    l1i_fill = l1i.fill
    l1d_fill = l1d.fill
    snapshot_i = snapshot_d = None
    if snapshots is not None:
        snapshot_i = snapshots.taker(l1i)
        snapshot_d = snapshots.taker(l1d)
    ifetch_code = CODE_IFETCH
    store_code = CODE_STORE
    for offset, line, code in zip(itertools.count(first), lines, codes):
        if code == ifetch_code:
            if not l1i_access(line):
                if snapshot_i is not None:
                    snapshot_i(line, offset)
                l1i_fill(line)
        else:
            is_write = code == store_code
            if not l1d_access(line, is_write):
                if snapshot_d is not None:
                    snapshot_d(line, offset)
                l1d_fill(line, is_write)


class L1Filter:
    """A stored stream's L1 outcomes for one L1 geometry, chunk by chunk."""

    def __init__(self, stream: StoredStream, config: HierarchyConfig) -> None:
        self.l1i_config = config.l1i
        self.l1d_config = config.l1d
        self.line_shift = config.line_shift
        # The stream holds this filter, so a strong reference back
        # would make a cycle only the cyclic collector frees.
        self._stream = weakref.ref(stream)
        self._l1i = Cache(config.l1i)
        self._l1d = Cache(config.l1d)
        checkpoint_bytes = sum(
            len(part) for cache in (self._l1i, self._l1d) for part in _save(cache)[:6]
        )
        #: records between checkpoints within a chunk.
        self.stride = max(
            MIN_STRIDE, int(checkpoint_bytes / CHECKPOINT_BYTES_PER_RECORD)
        )
        self.chunks: List[FilterChunk] = []
        #: wall seconds spent building chunks so far.
        self.build_s = 0.0
        #: bytes held by the built chunks (the stream's own arrays
        #: are counted by the stream).
        self.nbytes = 0

    def chunk(self, index: int, timer: Optional[PhaseTimer] = None) -> FilterChunk:
        """Chunk ``index``, building it (and any before it) on demand.

        A build charges ``timer``, if given, once per chunk: drawing the
        stream's chunk to ``trace_gen``, driving the L1s to
        ``l1_access``.
        """
        chunks = self.chunks
        while len(chunks) <= index:
            self._build_chunk(timer)
        return chunks[index]

    def restore(self, core: CoreCaches, index: int, offset: int) -> None:
        """Make ``core``'s real L1s exact before record ``offset`` of
        chunk ``index`` (see :func:`apply_state`)."""
        chunk = self.chunks[index]
        if offset == chunk.size and index + 1 < len(self.chunks):
            chunk = self.chunks[index + 1]
            offset = 0
        state_i, state_d = chunk.state_at(
            offset, self.l1i_config, self.l1d_config, self.line_shift
        )
        apply_state(core.l1i, state_i)
        apply_state(core.l1d, state_d)

    def _build_chunk(self, timer: Optional[PhaseTimer]) -> None:
        if timer is not None:
            timer.enter(PHASE_TRACE_GEN)
        records = self._stream().chunk(len(self.chunks))
        if timer is not None:
            timer.switch(PHASE_L1_ACCESS)
        started = time.perf_counter()
        gaps, kind_codes, addresses = records
        chunk = FilterChunk()
        chunk.records = records
        chunk.size = size = len(gaps)
        chunk.stride = stride = self.stride
        chunk.checkpoints = []
        lines = addresses >> self.line_shift
        snapshots = chunk.snapshots = _Snapshots()
        for start in range(0, size, stride):
            chunk.checkpoints.append((_save(self._l1i), _save(self._l1d)))
            end = start + stride
            _drive(
                self._l1i,
                self._l1d,
                lines[start:end].tolist(),
                kind_codes[start:end].tolist(),
                snapshots,
                start,
            )
        chunk.misses_at = _np.frombuffer(snapshots.offsets, dtype=_np.int64)
        chunk.miss_line = lines[chunk.misses_at]
        self.chunks.append(chunk)
        self.nbytes += chunk.nbytes
        self.build_s += time.perf_counter() - started
        if timer is not None:
            timer.exit()


def l1_filter(stream: StoredStream, config: HierarchyConfig) -> L1Filter:
    """The stream's L1 filter for ``config``'s L1 geometry (shared)."""
    filters: Dict[FilterKey, L1Filter] = stream.filters
    key = (config.l1i, config.l1d, config.line_shift)
    found = filters.get(key)
    if found is None:
        found = filters[key] = L1Filter(stream, config)
    return found
