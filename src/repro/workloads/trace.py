"""Trace records and trace utilities.

A trace is an iterable of ``(gap, kind, address)`` records.  ``gap``
is the number of non-memory instructions executed *before* this memory
instruction, so instruction counts are recoverable without storing
every instruction (the paper's traces are Pin memory traces with the
same property).

Two views of the same records exist:

* the simulator path (:meth:`repro.workloads.WorkloadMix.traces`)
  yields plain ``(gap, kind, address)`` triples, unpacked by the core
  and never inspected by attribute — building a namedtuple per record
  would cost about half the per-record price of the stream;
* tests, examples and the CLI get :class:`TraceRecord` namedtuples
  (:func:`repro.workloads.mixture_trace`,
  :func:`repro.workloads.app_trace`), equal to the triples field for
  field.

Synthetic generators produce records in *column chunks*: a
``(gaps, kind_codes, addresses)`` triple of equal-length integer numpy
arrays, kind codes indexing :data:`KIND_CODES`.
:func:`records_from_chunks` turns a chunk stream into plain triples
with C-level iteration only (no per-record bytecode); producing each
chunk's records is charged to the running simulation's ``trace_gen``
phase, if it times phases (:func:`repro.perf.phase.running_timer`).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Iterable, Iterator, List, NamedTuple, Tuple, Union

from ..access import AccessType
from ..errors import TraceError
from ..perf.phase import PHASE_TRACE_GEN, running_timer


class TraceRecord(NamedTuple):
    """One memory instruction: ``gap`` plain instructions, then the access."""

    gap: int
    kind: AccessType
    address: int

    @property
    def instructions(self) -> int:
        """Instructions this record accounts for (gap + the access itself)."""
        return self.gap + 1


#: ``AccessType`` by chunk kind code: 0 = load, 1 = store, 2 = ifetch.
KIND_CODES = (AccessType.LOAD, AccessType.STORE, AccessType.IFETCH)

#: one column chunk: ``(gaps, kind_codes, addresses)`` numpy arrays.
Chunk = Tuple[Any, Any, Any]

#: one simulator-path record: ``(gap, kind, address)``.
Record = Tuple[int, AccessType, int]

_kind_of = KIND_CODES.__getitem__


def _chunk_records(chunk: Chunk) -> Iterator[Record]:
    gaps, kind_codes, addresses = chunk
    return zip(gaps.tolist(), map(_kind_of, kind_codes.tolist()), addresses.tolist())


def _timed_chunk_records(chunks: Iterator[Chunk]) -> Iterator[Iterator[Record]]:
    """Each chunk's records, drawing and converting the chunk inside
    the running timer's ``trace_gen`` phase (one bracket per chunk)."""
    while True:
        timer = running_timer()
        if timer is not None:
            timer.enter(PHASE_TRACE_GEN)
        try:
            records = _chunk_records(next(chunks))
        except StopIteration:
            return
        finally:
            if timer is not None:
                timer.exit()
        yield records


def records_from_chunks(chunks: Iterable[Chunk]) -> Iterator[Record]:
    """Flatten a chunk stream into plain triples (the simulator path)."""
    return itertools.chain.from_iterable(_timed_chunk_records(iter(chunks)))


def take(trace: Iterable[TraceRecord], count: int) -> List[TraceRecord]:
    """Materialise the first ``count`` records of a trace."""
    return list(itertools.islice(trace, count))


def cyclic(records: List[TraceRecord]) -> Iterator[TraceRecord]:
    """Repeat a finite record list forever (for hand-built traces)."""
    if not records:
        raise TraceError("cannot cycle an empty trace")
    return itertools.cycle(records)


def instruction_count(records: Iterable[TraceRecord]) -> int:
    """Total instructions represented by a finite trace."""
    return sum(record.gap + 1 for record in records)


def save_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records as ``gap kind address-hex`` lines; returns count."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        for record in records:
            handle.write(f"{record.gap} {record.kind.value} {record.address:x}\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a trace written by :func:`save_trace`.

    Raises:
        TraceError: on malformed lines.
    """
    records: List[TraceRecord] = []
    with open(path, "r", encoding="ascii") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise TraceError(f"{path}:{line_no}: expected 3 fields, got {len(parts)}")
            try:
                gap = int(parts[0])
                kind = AccessType(int(parts[1]))
                address = int(parts[2], 16)
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}") from exc
            if gap < 0:
                raise TraceError(f"{path}:{line_no}: negative gap")
            records.append(TraceRecord(gap, kind, address))
    return records


def offset_addresses(
    trace: Iterable[TraceRecord], offset: int
) -> Iterator[TraceRecord]:
    """Shift every address by ``offset`` (to give cores disjoint spaces)."""
    for record in trace:
        yield TraceRecord(record.gap, record.kind, record.address + offset)


def core_address_offset(core_id: int) -> int:
    """Canonical per-core address-space offset (disjoint 1 TB regions).

    Beyond the first two cores the offset also staggers the *low*
    address bits by a large odd line count.  Without this, every
    core's code/hot regions (which share virtual layouts) would map
    onto identical cache sets — on a many-core CMP that artificially
    saturates a handful of LLC sets with permanently core-resident
    lines, something real physical-page allocation never does.  Cores
    0 and 1 keep plain offsets so two-core experiments match the
    original calibration exactly.
    """
    stagger = max(0, core_id - 1) * 977 * 64  # 977 lines, odd stride
    return ((core_id + 1) << 40) + stagger
