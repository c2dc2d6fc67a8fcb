"""Analytic out-of-order core timing model.

The paper's cores are 4-way out-of-order with a 128-entry ROB.  For a
trace-driven cache study the timing model only has to convert hit
levels into cycles *monotonically* — the paper itself verified its
conclusions hold "for different latencies including pure functional
cache simulation" (Section IV.A).  The model here:

* issues ``base_cpi`` cycles per instruction (4-wide = 0.25);
* charges an immediate, partial stall for loads and instruction
  fetches that miss the L1 (``load_exposure`` x latency) — the
  dependent-instruction exposure an OoO window cannot always hide;
* tracks outstanding off-core misses and stalls fully when the oldest
  one is still unresolved ``rob_window`` instructions later (the ROB
  fills) — this is what gives clustered misses their
  memory-level-parallelism discount relative to isolated ones;
* funnels LLC-and-beyond requests through the shared
  :class:`~repro.hierarchy.mshr.MSHRFile`, so bandwidth contention
  between cores lengthens miss latency as in Section IV.A.

Stores retire through a store buffer and charge only
``store_stall_fraction`` of their exposed latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..access import AccessType
from ..config import TimingConfig
from ..hierarchy import HIT_L1, HIT_L2, HIT_LLC, HIT_MEMORY
from ..hierarchy.mshr import MSHRFile

# Module-level bindings: an Enum class attribute lookup costs a
# metaclass probe, paid here once per L1 miss otherwise.
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE


class CoreTimingModel:
    """Cycle accounting for one core."""

    def __init__(self, timing: TimingConfig, mshr: Optional[MSHRFile] = None) -> None:
        self.timing = timing
        self.mshr = mshr
        self.cycles = 0.0
        self.instructions = 0
        # Outstanding off-core misses: (instruction index at issue,
        # data-return cycle), oldest first.
        self._pending: Deque[Tuple[int, float]] = deque()
        self._latency = {
            HIT_L1: timing.l1_latency,
            HIT_L2: timing.l2_latency,
            HIT_LLC: timing.llc_latency,
            HIT_MEMORY: timing.llc_latency + timing.memory_latency,
        }

    def advance(self, instruction_count: int) -> None:
        """Execute ``instruction_count`` non-memory instructions."""
        if instruction_count > 0:
            self.instructions += instruction_count
            self.cycles += instruction_count * self.timing.base_cpi

    def step_account(self, gap: int, level: int, kind: AccessType) -> None:
        """Fused ``advance(gap)`` + ``record_access(level, kind)``.

        The burst step loop calls this once per trace record instead of
        paying two method calls.  It performs exactly the same
        floating-point operations in the same order as the separate
        calls, so cycle counts stay bit-identical either way.
        """
        if gap > 0:
            self.instructions += gap
            self.cycles += gap * self.timing.base_cpi
        self.instructions += 1
        self.cycles += self.timing.base_cpi
        if level == HIT_L1:
            return  # pipelined; no visible stall
        self._account_miss(level, kind)

    def record_access(self, level: int, kind: AccessType) -> None:
        """Account for one memory instruction that hit at ``level``."""
        self.instructions += 1
        self.cycles += self.timing.base_cpi
        if level == HIT_L1:
            return  # pipelined; no visible stall
        self._account_miss(level, kind)

    def _account_miss(self, level: int, kind: AccessType) -> None:
        """Stall accounting for an access that left the L1."""
        self._retire_returned()
        self._stall_on_full_rob()

        latency = float(self._latency[level])
        if self.mshr is not None and level >= HIT_LLC:
            issue = self.mshr.allocate(int(self.cycles), int(latency))
            return_cycle = issue + latency
        else:
            return_cycle = self.cycles + latency
        if kind is _IFETCH:
            # Front-end stall: fetch misses serialise and overlap with
            # nothing downstream.
            exposure = self.timing.ifetch_exposure
        else:
            # Memory-level parallelism: the more misses already in
            # flight, the more of this one's latency overlaps with
            # them.  Isolated (dependent) misses pay nearly full price.
            exposure = self.timing.load_exposure / (1 + len(self._pending))
            if kind is _STORE:
                exposure *= self.timing.store_stall_fraction
        self.cycles += (return_cycle - self.cycles) * exposure
        self._pending.append((self.instructions, return_cycle))

    def drain(self) -> None:
        """Wait for all outstanding misses (end of simulation)."""
        if self._pending:
            last_return = max(ret for _, ret in self._pending)
            if last_return > self.cycles:
                self.cycles = last_return
            self._pending.clear()

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # -- internals -------------------------------------------------------------
    def _retire_returned(self) -> None:
        pending = self._pending
        now = self.cycles
        while pending and pending[0][1] <= now:
            pending.popleft()

    def _stall_on_full_rob(self) -> None:
        """The ROB cannot retire past an unresolved oldest miss."""
        window = self.timing.rob_window
        pending = self._pending
        while pending and self.instructions - pending[0][0] >= window:
            issued_at, return_cycle = pending.popleft()
            if return_cycle > self.cycles:
                self.cycles = return_cycle
