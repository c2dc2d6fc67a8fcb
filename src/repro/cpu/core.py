"""One simulated core: consumes a trace, drives the hierarchy, keeps time.

Statistics (both cycle counts for IPC and the hierarchy's per-core
demand counters) freeze once the core passes its instruction quota,
but the core keeps executing so it continues to compete for the
shared LLC — the methodology of paper Section IV.B.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, FrozenSet, Iterator, Optional, Tuple

from ..access import AccessType
from ..cache import Cache
from ..config import SimConfig
from ..errors import SimulationError
from ..hierarchy import HIT_LLC, BaseHierarchy
from ..hierarchy.levels import CoreCaches
from ..hierarchy.mshr import MSHRFile
from ..prefetch import make_prefetcher
from ..workloads.trace import TraceRecord
from .timing import CoreTimingModel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..workloads.store import StoredStream

# Hoisted enum members for the inline burst loop (attribute access on
# an Enum class costs a metaclass dict probe per record otherwise).
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE


class SimulatedCore:
    """Trace-driven core front-end for one hardware context."""

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceRecord],
        hierarchy: BaseHierarchy,
        config: SimConfig,
        mshr: Optional[MSHRFile] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.hierarchy = hierarchy
        self.quota = config.instruction_quota
        self.warmup = config.warmup_instructions
        self.timing = CoreTimingModel(config.timing, mshr)
        self.prefetcher = None
        if config.prefetch.enabled:
            self.prefetcher = make_prefetcher(
                config.prefetch, hierarchy.line_shift
            )
        #: cycle counts captured at the measurement-window boundaries.
        self.cycles_at_warmup: float = 0.0 if self.warmup == 0 else -1.0
        self.cycles_at_quota: Optional[float] = None
        self._exhausted = False
        self._quota_end = self.warmup + self.quota
        #: interval collector hook; None (the default) keeps the step
        #: loop free of telemetry work.
        self._collector = None
        #: host phase timer; None (the default) keeps L1 filter builds
        #: untimed (the hierarchy and trace chunks time themselves).
        self._phase_timer = None
        #: the L1 filter this core runs on, or None (see :meth:`strip`).
        self._filter = None
        #: records this core ran on its L1 filter, and the filter build
        #: seconds it paid for (host observability only).
        self.stripped_records = 0
        self.l1_filter_s = 0.0
        #: record at which an invalidate forced this core off its
        #: filter onto the scalar loop, or None.
        self.materialized_at: Optional[int] = None

    def attach_collector(self, collector) -> None:
        """Install the telemetry hook (advances the hierarchy clock)."""
        self._collector = collector

    def attach_phase_timer(self, timer) -> None:
        """Install the host phase timer (charges L1 filter builds)."""
        self._phase_timer = timer

    @property
    def instructions(self) -> int:
        return self.timing.instructions

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def quota_end(self) -> int:
        """Instruction count at which the measurement window closes."""
        return self._quota_end

    @property
    def done(self) -> bool:
        """Has this core retired its instruction quota (or run dry)?"""
        return self._exhausted or self.timing.instructions >= self._quota_end

    @property
    def recording(self) -> bool:
        """Is this core inside its measurement window?"""
        instructions = self.timing.instructions
        return self.warmup <= instructions < self._quota_end

    def step(self) -> bool:
        """Process one trace record; returns False if the trace ended.

        Finite traces simply stop advancing the core (infinite
        generators are the normal case for experiments).
        """
        timing = self.timing
        try:
            gap, kind, address = next(self.trace)
        except StopIteration:
            self._exhausted = True
            self._finish()
            return False
        before = timing.instructions
        recording = self.warmup <= before < self._quota_end
        timing.advance(gap)
        collector = self._collector
        if collector is not None:
            # Telemetry clock: events fired by this access are stamped
            # with the issuing core's cycle count, and the interval
            # collector folds counter deltas at window boundaries.
            self.hierarchy.clock = timing.cycles
            collector.tick(timing.cycles)
        level = self.hierarchy.access(
            self.core_id, address, kind, record_stats=recording
        )
        timing.record_access(level, kind)
        if self.prefetcher is not None and level >= HIT_LLC:
            for prefetch_addr in self.prefetcher.train(address):
                self.hierarchy.prefetch(self.core_id, prefetch_addr)
        instructions = timing.instructions
        if self.cycles_at_warmup < 0 and instructions >= self.warmup:
            self.cycles_at_warmup = timing.cycles
        if before < self._quota_end <= instructions:
            # A record may start before warm-up and end past the
            # window; crossing the quota finishes the core either way.
            self._finish()
        return True

    # -- running on an L1 filter ("stripped") ----------------------------------
    def strip(self, stream: "StoredStream") -> bool:
        """Run this core on ``stream``'s L1 filter; False if it must not.

        ``stream`` must be the stored stream this core's trace replays,
        not yet advanced.  A stripped core takes its records from the
        stream's L1 filter (:mod:`repro.cpu.l1filter`): hits never
        touch the real L1, and misses restore their set's snapshot
        into it before the unchanged ``_beyond_l1``.  A TLH policy's
        L1-hit hints go to its batched form
        (:meth:`~repro.core.tlh.TemporalLocalityHints.hint_run`), one
        call per run of hits, before the next miss.  A phase timer
        strips too: it times each miss inside ``_beyond_l1`` and each
        filter chunk's build, never a hit.  Anything else that observes
        L1 hits or needs them one at a time keeps the scalar loops:
        telemetry, a prefetcher, a sanitizer, a TLA hit hook with no
        batched form (TLH's MRU filter reads the L1 at every hit),
        subclassed hierarchy access paths, and L1s other than plain
        LRU on an un-hashed index.
        """
        # Imported here: processes that store no streams (pool and
        # bus workers, hence every service job) never load the filter
        # module.
        from .l1filter import l1_filter, strippable

        hierarchy = self.hierarchy
        hint_levels: Optional[FrozenSet[str]] = frozenset()
        if hierarchy._tla_hit_hook is not None:
            batched = getattr(hierarchy.tla, "batched_l1_levels", None)
            hint_levels = None if batched is None else batched()
        if (
            self._collector is not None
            or self.prefetcher is not None
            or hierarchy.sanitizer is not None
            or hint_levels is None
            or hierarchy.tracer is not None
            or type(hierarchy).access is not BaseHierarchy.access
            or type(hierarchy)._beyond_l1 is not BaseHierarchy._beyond_l1
            or self.timing.instructions
            or self._exhausted
        ):
            return False
        core = hierarchy.cores[self.core_id]
        if not (
            type(core) is CoreCaches
            and strippable(core.l1i)
            and strippable(core.l1d)
        ):
            return False
        self._filter = l1_filter(stream, hierarchy.config)
        self._stream = stream
        self._filter_s0 = self._filter.build_s
        # The binade guard of the O(1) hit runs (see _top_of).
        numerator, denominator = self.timing.timing.base_cpi.as_integer_ratio()
        self._max_exponent = 54 - denominator.bit_length()
        self._max_delta = ((1 << 53) - 1) // numerator
        self._base_cpi = self.timing.timing.base_cpi
        self._stats = hierarchy.core_stats[self.core_id]
        self._l1i_stats = core.l1i.stats
        self._l1d_stats = core.l1d.stats
        self._in_miss = False
        #: TLH's batched L1-hit hints, or None; which L1s' hits hint.
        self._hint_run = hierarchy.tla.hint_run if hint_levels else None
        self._hint_kinds = ("il1" in hint_levels, "dl1" in hint_levels)
        self._chunk_index = -1
        self._chunk_start = 0
        self._size = 0
        self._enter_chunk()
        self._binade_top = self._top_of(self.timing.cycles)
        core.before_l1_drop = self._materialize
        # Shadow the class's step_burst (one call level fewer per
        # burst); _leave_strip removes the shadow again.
        self.step_burst = self._step_burst_stripped
        return True

    def finish_strip(self) -> None:
        """Make the real L1s exact at the end of a stripped run."""
        if self._filter is not None:
            self._leave_strip()

    def _enter_chunk(self) -> None:
        """Move to the filter's next chunk (offset 0)."""
        self._chunk_start += self._size
        self._chunk_index += 1
        chunk = self._chunk = self._filter.chunk(
            self._chunk_index, self._phase_timer
        )
        self._size = chunk.size
        self._instr, self._ifetch = chunk.prefixes()
        (
            self._miss_at,
            self._miss_line,
            self._miss_kind,
            self._miss_gap,
        ) = chunk.misses()
        self._miss = 0
        self._next_miss = self._miss_at[0] if self._miss_at else chunk.size
        self._offset = 0
        if self._hint_run is not None:
            self._hint_lines, self._hint_before = chunk.hint_lines(
                *self._hint_kinds, self.hierarchy.line_shift
            )

    def _send_hints(self, start: int, end: int) -> None:
        """Hint the L1 hits among the chunk's records ``[start, end)``.

        Called once per run of hits, before anything else can touch
        the LLC: the core's next miss, another core's burst, or the
        end of the run (see :meth:`strip`).
        """
        before = self._hint_before
        first = before[start]
        last = before[end]
        if last > first:
            self._hint_run(self.core_id, self._hint_lines[first:last])

    def _top_of(self, cycles: float) -> float:
        """Upper end of ``cycles``' binade if O(1) bursts are exact there.

        Every float in ``[2**(e-1), 2**e)`` is a multiple of
        ``2**(e-53)``; when ``base_cpi`` is too (its denominator is at
        most ``2**(53-e)``), every partial sum of a burst that stays
        below ``2**e`` is representable, so one add of
        ``delta * base_cpi`` equals the per-record adds bit for bit.
        Returns 0.0 (no burst fits) past that exponent.
        """
        exponent = math.frexp(cycles)[1]
        if exponent > self._max_exponent:
            return 0.0
        return math.ldexp(1.0, exponent)

    def _strip_miss(self, recording: bool) -> None:
        """One L1 miss of a stripped core (the record at ``_offset``)."""
        index = self._miss
        kind = self._miss_kind[index]
        line_addr = self._miss_line[index]
        gap = self._miss_gap[index]
        hierarchy = self.hierarchy
        core_id = self.core_id
        core = hierarchy.cores[core_id]
        stats = self._stats
        is_ifetch = kind is _IFETCH
        if is_ifetch:
            l1 = core.l1i
            if recording:
                stats.l1i_accesses += 1
                stats.l1i_misses += 1
        else:
            l1 = core.l1d
            if recording:
                stats.l1d_accesses += 1
                stats.l1d_misses += 1
        l1.stats.misses += 1
        self._chunk.restore_set(index, l1, line_addr)
        index += 1
        self._miss = index
        miss_at = self._miss_at
        self._next_miss = miss_at[index] if index < len(miss_at) else self._size
        self._in_miss = True
        level = hierarchy._beyond_l1(
            core_id,
            core,
            stats if recording else None,
            line_addr,
            is_ifetch,
            kind is _STORE,
        )
        self._in_miss = False
        self.timing.step_account(gap, level, kind)

    def _materialize(self) -> None:
        """An invalidate is about to drop a line this core's L1 holds:
        make the L1s exact and finish the job on the scalar loop."""
        self.materialized_at = self._chunk_start + self._offset
        self._leave_strip()

    def _leave_strip(self) -> None:
        """Make the real L1s exact here; later records run scalar."""
        position = self._chunk_start + self._offset
        core = self.hierarchy.cores[self.core_id]
        self._filter.restore(core, self._chunk_index, self._offset)
        core.before_l1_drop = None
        del self.step_burst
        # Inside a miss the current record is already consumed.
        self.trace = self._stream.replay(position + self._in_miss)
        self.stripped_records = position + self._in_miss
        self.l1_filter_s = self._filter.build_s - self._filter_s0
        self._filter = None
        self._chunk = self._instr = self._ifetch = None
        self._hint_run = self._hint_lines = self._hint_before = None
        self._miss_at = self._miss_line = self._miss_kind = self._miss_gap = None

    def _step_burst_stripped(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """A burst on the L1 filter: O(1) hit runs, per-record misses.

        The burst is split at L1 misses.  Each run of hits applies in
        O(1) (:meth:`_hit_run`) unless it crosses the warm-up or quota
        boundary or leaves the cycle binade; those runs, and each miss,
        take the per-record loop.
        """
        offset = self._offset
        if offset + count <= self._next_miss and self._hit_run(
            offset, offset + count
        ):
            return count, False, False  # the common case: all hits
        done = 0
        transitioned = False
        while done < count:
            offset = self._offset
            end = min(offset + count - done, self._next_miss)
            if end > offset and self._hit_run(offset, end):
                done += end - offset
                continue
            executed, crossed, _ = self._step_burst_stripped_records(
                max(end - offset, 1), stop_when_done
            )
            done += executed
            if crossed:
                transitioned = True
                if stop_when_done:
                    return done, True, False
            if self._filter is None:
                # An invalidate during that miss made the L1s exact;
                # the rest of the burst runs on the scalar loop.
                if done < count:
                    more, more_crossed, exhausted = self.step_burst(
                        count - done, stop_when_done
                    )
                    return done + more, transitioned or more_crossed, exhausted
                break
        return done, transitioned, False

    def _hit_run(self, offset: int, end: int) -> bool:
        """Apply the L1 hits ``[offset, end)`` of the chunk in O(1).

        Returns False, changing nothing, when the run would cross the
        warm-up or quota boundary (whose side effects are per record)
        or its cycles would leave the current binade (:meth:`_top_of`).
        Otherwise adds the run's instructions, ifetch/data access and
        L1 hit counts from the chunk's prefix counts, and
        ``delta * base_cpi`` cycles in one add, and sends the run's
        TLH hints.
        """
        timing = self.timing
        instr = self._instr
        delta = instr[end] - instr[offset]
        before = timing.instructions
        after = before + delta
        warmup = self.warmup
        quota_end = self._quota_end
        if not (
            after < warmup
            or (
                before >= warmup
                and self.cycles_at_warmup >= 0
                and (after < quota_end or before >= quota_end)
            )
        ):
            return False
        cycles = timing.cycles + delta * self._base_cpi
        if cycles >= self._binade_top:
            # Per-record work moved the clock past the cached binade,
            # or this run straddles the binade's end.
            self._binade_top = self._top_of(timing.cycles)
            if cycles >= self._binade_top:
                return False
        if delta > self._max_delta:
            return False
        ifetch = self._ifetch
        ifetches = ifetch[end] - ifetch[offset]
        records = end - offset
        if warmup <= before < quota_end:
            stats = self._stats
            stats.l1i_accesses += ifetches
            stats.l1d_accesses += records - ifetches
        self._l1i_stats.hits += ifetches
        self._l1d_stats.hits += records - ifetches
        timing.instructions = after
        timing.cycles = cycles
        self._offset = end
        if self._hint_run is not None:
            self._send_hints(offset, end)
        return True

    def _step_burst_stripped_records(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Per-record stripped burst: the inline loop's semantics, with
        L1 outcomes read from the filter instead of probed.  TLH hints
        of the hits go out per run: before each miss, at a chunk's
        end, and when the burst returns."""
        timing = self.timing
        stats = self._stats
        l1i_stats = self._l1i_stats
        l1d_stats = self._l1d_stats
        strip_miss = self._strip_miss
        base_cpi = self._base_cpi
        warmup = self.warmup
        quota_end = self._quota_end
        offset = self._offset
        size = self._size
        instr = self._instr
        ifetch = self._ifetch
        next_miss = self._next_miss
        transitioned = False
        fell_back = False
        instructions = timing.instructions
        cycles = timing.cycles
        is_done = instructions >= quota_end
        hinting = self._hint_run is not None
        send_hints = self._send_hints
        hint_from = offset
        for step_index in range(count):
            if offset == size:
                if hinting and hint_from < offset:
                    send_hints(hint_from, offset)
                hint_from = 0
                self._enter_chunk()
                offset = 0
                size = self._size
                instr = self._instr
                ifetch = self._ifetch
                next_miss = self._next_miss
            recording = warmup <= instructions < quota_end
            if offset == next_miss:
                if hinting and hint_from < offset:
                    send_hints(hint_from, offset)
                hint_from = offset + 1
                timing.instructions = instructions
                timing.cycles = cycles
                self._offset = offset
                strip_miss(recording)
                instructions = timing.instructions
                cycles = timing.cycles
                next_miss = self._next_miss
                fell_back = self._filter is None
            else:
                if ifetch[offset + 1] != ifetch[offset]:
                    if recording:
                        stats.l1i_accesses += 1
                    l1i_stats.hits += 1
                else:
                    if recording:
                        stats.l1d_accesses += 1
                    l1d_stats.hits += 1
                gap = instr[offset + 1] - instr[offset] - 1
                if gap > 0:
                    instructions += gap
                    cycles += gap * base_cpi
                instructions += 1
                cycles += base_cpi
            offset += 1
            if self.cycles_at_warmup < 0 and instructions >= warmup:
                self.cycles_at_warmup = cycles
            if not is_done and instructions >= quota_end:
                is_done = True
                transitioned = True
                timing.instructions = instructions
                timing.cycles = cycles
                self._finish()  # drain may advance the clock
                instructions = timing.instructions
                cycles = timing.cycles
                if stop_when_done:
                    timing.instructions = instructions
                    timing.cycles = cycles
                    if not fell_back:
                        self._offset = offset
                        if hinting and hint_from < offset:
                            send_hints(hint_from, offset)
                    return step_index + 1, True, False
            if fell_back:
                # The L1s were made exact during this miss; the caller
                # runs the rest of the burst on the scalar loop.
                timing.instructions = instructions
                timing.cycles = cycles
                return step_index + 1, transitioned, False
        timing.instructions = instructions
        timing.cycles = cycles
        self._offset = offset
        if hinting and hint_from < offset:
            send_hints(hint_from, offset)
        return count, transitioned, False

    def step_burst(self, count: int, stop_when_done: bool) -> Tuple[int, bool, bool]:
        """Process up to ``count`` trace records in one call (hot path).

        Returns ``(steps_executed, transitioned, exhausted)`` where
        ``transitioned`` reports whether this burst crossed the core's
        quota boundary (``done`` flipped False -> True) and
        ``exhausted`` whether the trace ended.  With
        ``stop_when_done=True`` the burst stops right after a quota
        transition — the CMP loop passes that when this core is the
        last one still measuring, so no extra steps (which would keep
        mutating the always-recorded traffic counters) run after the
        simulation's logical end.

        Observable behaviour is identical to ``count`` calls of
        :meth:`step`.  A core running on an L1 filter (:meth:`strip`)
        shadows this method with :meth:`_step_burst_stripped`, which
        applies runs of L1 hits in O(1) from the filter's prefix counts
        (sending a TLH policy's hints for the whole run in one call)
        and simulates only L1 misses, until an invalidate into its L1
        or the end of the run.  Otherwise the win is hoisting
        attribute lookups and method binding out of the per-record
        loop, and — when no hook observes L1 hits — probing the L1
        inline so the common L1-hit record never leaves this frame.  A
        phase timer observes only L1 misses (inside ``_beyond_l1``), so
        it keeps the inline loop.  Attached telemetry / prefetcher
        hooks fall back to per-record :meth:`step` calls.
        """
        if self._collector is not None or self.prefetcher is not None:
            return self._step_burst_slow(count, stop_when_done)
        hierarchy = self.hierarchy
        if (
            hierarchy.sanitizer is not None
            or hierarchy._tla_hit_hook is not None
            or type(hierarchy).access is not BaseHierarchy.access
        ):
            return self._step_burst_plain(count, stop_when_done)
        core = hierarchy.cores[self.core_id]
        if (
            type(core.l1i).access is not Cache.access
            or type(core.l1d).access is not Cache.access
        ):
            return self._step_burst_plain(count, stop_when_done)

        # Inline loop: the L1 probe and hit accounting happen right
        # here; only L1 misses call into the hierarchy.  Instruction
        # and cycle counts live in locals, flushed to the timing model
        # around every out-of-frame call so observable state is always
        # consistent — and the float operations (two adds when a gap
        # is present, one otherwise) are performed in exactly the
        # order ``CoreTimingModel.step_account`` performs them.
        timing = self.timing
        trace_next = self.trace.__next__
        beyond_l1 = hierarchy._beyond_l1
        step_account = timing.step_account
        core_id = self.core_id
        stats = hierarchy.core_stats[core_id]
        l1i_access = core.l1i.access
        l1d_access = core.l1d.access
        line_shift = hierarchy.line_shift
        base_cpi = timing.timing.base_cpi
        warmup = self.warmup
        quota_end = self._quota_end
        transitioned = False
        instructions = timing.instructions
        cycles = timing.cycles
        is_done = self._exhausted or instructions >= quota_end
        for step_index in range(count):
            try:
                gap, kind, address = trace_next()
            except StopIteration:
                timing.instructions = instructions
                timing.cycles = cycles
                self._exhausted = True
                self._finish()
                return step_index + 1, transitioned or not is_done, True
            recording = warmup <= instructions < quota_end
            line_addr = address >> line_shift
            if kind is _IFETCH:
                is_ifetch = True
                is_write = False
                if recording:
                    stats.l1i_accesses += 1
                hit = l1i_access(line_addr)
                if not hit and recording:
                    stats.l1i_misses += 1
            else:
                is_ifetch = False
                is_write = kind is _STORE
                if recording:
                    stats.l1d_accesses += 1
                hit = l1d_access(line_addr, write=is_write)
                if not hit and recording:
                    stats.l1d_misses += 1
            if hit:
                if gap > 0:
                    instructions += gap
                    cycles += gap * base_cpi
                instructions += 1
                cycles += base_cpi
            else:
                timing.instructions = instructions
                timing.cycles = cycles
                level = beyond_l1(
                    core_id,
                    core,
                    stats if recording else None,
                    line_addr,
                    is_ifetch,
                    is_write,
                )
                step_account(gap, level, kind)
                instructions = timing.instructions
                cycles = timing.cycles
            if self.cycles_at_warmup < 0 and instructions >= warmup:
                self.cycles_at_warmup = cycles
            if not is_done and instructions >= quota_end:
                is_done = True
                transitioned = True
                timing.instructions = instructions
                timing.cycles = cycles
                self._finish()  # drain may advance the clock
                instructions = timing.instructions
                cycles = timing.cycles
                if stop_when_done:
                    timing.instructions = instructions
                    timing.cycles = cycles
                    return step_index + 1, True, False
        timing.instructions = instructions
        timing.cycles = cycles
        return count, transitioned, False

    def _step_burst_plain(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Hoisted-bindings burst used when the inline L1 path is unsafe
        (sanitizer attached, TLH hit hook installed, or subclassed
        hierarchy/cache access methods)."""
        timing = self.timing
        trace_next = self.trace.__next__
        access = self.hierarchy.access
        step_account = timing.step_account
        core_id = self.core_id
        warmup = self.warmup
        quota_end = self._quota_end
        transitioned = False
        is_done = self._exhausted or timing.instructions >= quota_end
        for step_index in range(count):
            try:
                gap, kind, address = trace_next()
            except StopIteration:
                self._exhausted = True
                self._finish()
                return step_index + 1, transitioned or not is_done, True
            instructions = timing.instructions
            recording = warmup <= instructions < quota_end
            level = access(core_id, address, kind, record_stats=recording)
            step_account(gap, level, kind)
            instructions = timing.instructions
            if self.cycles_at_warmup < 0 and instructions >= warmup:
                self.cycles_at_warmup = timing.cycles
            if not is_done and instructions >= quota_end:
                is_done = True
                transitioned = True
                self._finish()
                if stop_when_done:
                    return step_index + 1, True, False
        return count, transitioned, False

    def _step_burst_slow(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Hook-compatible burst: plain :meth:`step` calls."""
        transitioned = False
        for step_index in range(count):
            was_done = self.done
            progressed = self.step()
            if not was_done and self.done:
                transitioned = True
            if not progressed:
                return step_index + 1, transitioned, True
            if transitioned and stop_when_done:
                return step_index + 1, True, False
        return count, transitioned, False

    def _finish(self) -> None:
        if self.cycles_at_quota is None:
            self.timing.drain()
            self.cycles_at_quota = self.timing.cycles
            if self.cycles_at_warmup < 0:
                # Trace ended during warm-up: no measurement window.
                self.cycles_at_warmup = self.timing.cycles

    def measured_instructions(self) -> int:
        """Instructions retired inside the measurement window."""
        end = min(self.timing.instructions, self.quota_end)
        return max(0, end - self.warmup)

    def ipc(self) -> float:
        """Committed IPC over the measured quota window."""
        if self.cycles_at_quota is None:
            raise SimulationError(
                f"core {self.core_id} has not reached its quota yet"
            )
        window = self.cycles_at_quota - self.cycles_at_warmup
        if window <= 0:
            return 0.0
        return self.measured_instructions() / window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulatedCore {self.core_id} instr={self.instructions} "
            f"cycles={self.cycles:.0f}>"
        )
