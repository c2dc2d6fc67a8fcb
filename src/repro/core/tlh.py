"""Temporal Locality Hints (TLH) — paper Section III.A.

On every hit in a participating core cache, a non-data hint is sent
to the LLC, which promotes the line in its replacement state.  With
the same temporal information as the core caches, the LLC almost
never chooses a hot line as its victim, eliminating inclusion victims.

The cost is traffic: the hint rate is proportional to core-cache hits
(the paper measures ~600x more LLC requests for TLH-L1, ~8x for
TLH-L2), so the paper treats TLH as a *limit study*.  The
``sample_rate`` knob reproduces the Section V.A sensitivity study in
which only 1 / 2 / 10 / 20 % of L1 hits send hints.

Variants are selected by which cache kinds participate:
TLH-IL1 ``("il1",)``, TLH-DL1 ``("dl1",)``, TLH-L1 ``("il1", "dl1")``,
TLH-L2 ``("l2",)``, TLH-L1-L2 ``("il1", "dl1", "l2")``.

Hints reach the policy two ways.  The scalar hierarchy calls
:meth:`TemporalLocalityHints.on_core_cache_hit` once per hit.  A core
running on a stored stream's L1 filter (:meth:`repro.cpu.SimulatedCore.strip`)
never sees its L1 hits one at a time, so it hands over each run of
hits at once, in record order, through :meth:`TemporalLocalityHints.hint_run`.
That is exact: within one core's hit run nothing but that core's own
hints touches the LLC, so applying them together at the end of the
run leaves the LLC, the sampling counter and every count as the
per-hit calls would.  L2 hits keep the per-hit hook (they happen
inside the hierarchy's miss path), and so does the MRU filter, which
reads each hit's L1 recency state.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence

from ..coherence import MessageType
from ..errors import ConfigurationError
from ..telemetry.events import EVENT_TLH_HINT
from .tla import TLAPolicy

#: bound once: an Enum class attribute lookup per hint costs a
#: metaclass probe.
_TLH_HINT = MessageType.TLH_HINT


class TemporalLocalityHints(TLAPolicy):
    """Send LLC replacement-state hints on core-cache hits."""

    name = "tlh"

    def __init__(
        self,
        levels: Iterable[str] = ("il1", "dl1"),
        sample_rate: float = 1.0,
        mru_filter: bool = False,
    ) -> None:
        super().__init__()
        self.levels: FrozenSet[str] = frozenset(levels)
        if not self.levels:
            raise ConfigurationError("TLH needs at least one participating level")
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        #: only hint on hits to non-MRU lines — MRU hits carry little
        #: new information (the line was hinted very recently) and are
        #: the bulk of the traffic, so this is the paper's suggested
        #: cheap filter.
        self.mru_filter = mru_filter
        # Deterministic sampling: after n eligible hits exactly
        # floor(n * rate) hints have fired — reproducible without an
        # RNG and immune to float-accumulation drift.
        self._eligible_hits = 0
        self._fired = 0
        self.hints_sent = 0
        self.hints_dropped = 0
        #: hints that found (and promoted) their line in the LLC.
        self.hints_applied = 0

    def on_core_cache_hit(self, core_id: int, kind: str, line_addr: int) -> None:
        if kind not in self.levels:
            return
        hierarchy = self._require_hierarchy()
        if self.mru_filter:
            cache = hierarchy.cores[core_id].cache_for_kind(kind)
            if cache.policy.last_hit_was_mru:
                self.hints_dropped += 1
                return
        if self.sample_rate < 1.0:
            self._eligible_hits += 1
            due = int(self._eligible_hits * self.sample_rate + 1e-9)
            if due <= self._fired:
                self.hints_dropped += 1
                return
            self._fired = due
        hierarchy.traffic.record(_TLH_HINT)
        self.hints_sent += 1
        if hierarchy.tracer is not None:
            hierarchy.tracer.emit(
                hierarchy.clock, EVENT_TLH_HINT, core=core_id, line=line_addr
            )
        if hierarchy.llc.promote(line_addr):
            self.hints_applied += 1

    def batched_l1_levels(self) -> Optional[FrozenSet[str]]:
        """The L1 kinds whose hits :meth:`hint_run` can take a run at a
        time, or None when each hit must reach the per-hit hook (the MRU
        filter reads the L1's state at every hit, and a subclass may
        override :meth:`on_core_cache_hit`)."""
        if (
            self.mru_filter
            or type(self).on_core_cache_hit
            is not TemporalLocalityHints.on_core_cache_hit
        ):
            return None
        return self.levels & {"il1", "dl1"}

    def hint_run(self, core_id: int, lines: Sequence[int]) -> None:
        """Send the hints of one core's run of L1 hits, in record order.

        ``lines`` are the hit lines of participating kinds; the result
        equals one :meth:`on_core_cache_hit` per line (without the MRU
        filter, which :meth:`batched_l1_levels` excludes).  The sampling
        counter advances record by record; counts and traffic are added
        once.  Callers run untraced (a stripped core has no tracer), so
        no per-hint events are emitted.
        """
        if self.sample_rate < 1.0:
            rate = self.sample_rate
            eligible = self._eligible_hits
            fired = self._fired
            kept = []
            for line in lines:
                eligible += 1
                due = int(eligible * rate + 1e-9)
                if due > fired:
                    fired = due
                    kept.append(line)
            self._eligible_hits = eligible
            self._fired = fired
            self.hints_dropped += len(lines) - len(kept)
            lines = kept
        sent = len(lines)
        if sent:
            hierarchy = self.hierarchy
            hierarchy.traffic.record(_TLH_HINT, sent)
            self.hints_sent += sent
            self.hints_applied += hierarchy.llc.promote_lines(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        levels = "+".join(sorted(self.levels))
        return f"<TLH levels={levels} rate={self.sample_rate}>"
