"""Per-core private cache bundle (L1I + L1D + unified L2).

The L2 is non-inclusive with respect to the L1s (paper footnote 3:
"Modern processors use non-inclusive L2 caches"), so L1 fills do not
force L2 residency and L2 evictions do not invalidate the L1s.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..cache import Cache, EvictedLine
from ..config import HierarchyConfig
from ..errors import ConfigurationError


class CoreCaches:
    """The private caches of one core."""

    #: cache-kind tokens used by TLA level selection.
    KINDS = ("il1", "dl1", "l2")

    def __init__(self, core_id: int, config: HierarchyConfig) -> None:
        self.core_id = core_id
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        #: called before :meth:`invalidate_all` drops a line one of the
        #: L1s holds; a core running on an L1 filter installs it to make
        #: its L1s exact first (:meth:`repro.cpu.SimulatedCore.strip`).
        self.before_l1_drop = None

    def cache_for_kind(self, kind: str) -> Cache:
        """Map a level token ("il1"/"dl1"/"l2") to the cache object."""
        if kind == "il1":
            return self.l1i
        if kind == "dl1":
            return self.l1d
        if kind == "l2":
            return self.l2
        raise ConfigurationError(f"unknown core-cache kind {kind!r}")

    def l1_for(self, is_instruction: bool) -> Cache:
        return self.l1i if is_instruction else self.l1d

    # -- residency ------------------------------------------------------------
    def holds(self, line_addr: int, kinds: Iterable[str] = KINDS) -> bool:
        """True if any of the given caches currently holds the line."""
        return any(self.cache_for_kind(kind).contains(line_addr) for kind in kinds)

    def holding_kinds(self, line_addr: int) -> List[str]:
        """Which of this core's caches hold the line (for diagnostics)."""
        return [k for k in self.KINDS if self.cache_for_kind(k).contains(line_addr)]

    # -- invalidation (back-invalidate / ECI) -----------------------------------
    def invalidate_all(self, line_addr: int) -> Tuple[bool, bool]:
        """Invalidate the line everywhere in this core.

        Returns ``(was_present, was_dirty)``.  Dirty data must be
        written back toward memory by the caller.
        """
        hook = self.before_l1_drop
        if hook is not None and (
            self.l1i.contains(line_addr) or self.l1d.contains(line_addr)
        ):
            hook()
        present = False
        dirty = False
        for cache in (self.l1i, self.l1d, self.l2):
            dropped = cache.invalidate(line_addr)
            if dropped is not None:
                present = True
                dirty = dirty or dropped.dirty
        return present, dirty

    # -- fills with local writeback handling -------------------------------------
    def fill_l1(
        self, line_addr: int, is_instruction: bool, dirty: bool = False
    ) -> Optional[EvictedLine]:
        """Fill the appropriate L1 and return its victim, if any.

        The victim is *not* spilled here: the hierarchy controller
        decides what an L1 eviction means for the L2 (the victim-L2
        allocation policy lives in
        :meth:`repro.hierarchy.base.BaseHierarchy._spill_to_l2`, which
        the exclusive mode overrides).
        """
        return self.l1_for(is_instruction).fill(line_addr, dirty=dirty)

    def spill_into_l2(self, victim: EvictedLine) -> Optional[EvictedLine]:
        """Victim-allocate an L1 eviction into the (non-inclusive) L2.

        The L2 is allocated on L1 *evictions*, not on demand fills, so
        at steady state it holds exactly what the L1s have spilled —
        medium-reuse working sets — while constantly-hit lines live
        only in the L1s.  (This matches the paper's observed
        structure: QBS-L2 protects almost nothing beyond QBS-L1
        because hot lines are not L2-resident.)  Returns the displaced
        L2 line, if any.
        """
        return self.l2.fill(victim.line_addr, dirty=victim.dirty)

    def fill_l2(self, line_addr: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Fill the L2; returns the displaced line (clean or dirty), if any."""
        return self.l2.fill(line_addr, dirty=dirty)

    def occupancy(self) -> int:
        return self.l1i.occupancy() + self.l1d.occupancy() + self.l2.occupancy()

    def resident_lines(self) -> Iterable[int]:
        """All distinct line addresses held by this core's caches."""
        seen = set()
        for cache in (self.l1i, self.l1d, self.l2):
            for line_addr in cache.resident_lines():
                if line_addr not in seen:
                    seen.add(line_addr)
                    yield line_addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoreCaches core={self.core_id}>"
