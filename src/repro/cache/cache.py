"""A single set-associative cache array over a packed tag store.

:class:`Cache` owns the tag store and a replacement-policy instance.
It deliberately knows nothing about the hierarchy: controllers in
:mod:`repro.hierarchy` compose caches and decide what happens on
misses, evictions and back-invalidations.

The tag store is a struct-of-arrays, not objects-per-line:

* ``_addrs`` — ``array('q')``, the line address held by each slot;
* ``_valid`` / ``_dirty`` — flat ``bytearray`` bitmaps;
* ``_map`` — one dict mapping resident line address -> way index
  (a line address determines its set, so one flat map suffices and a
  lookup needs no set-index hash at all).

Slots are flat-indexed: slot of (set, way) is
``set_index * associativity + way``.  Replacement policies pack their
per-way state the same way (see :mod:`repro.cache.replacement`).

Two levels of API are exposed:

* the *simple* path — :meth:`access` / :meth:`fill` / :meth:`invalidate`
  — enough for ordinary levels;
* the *staged* path — :meth:`find_invalid_way`,
  :meth:`select_victim`, :meth:`evict_way`, :meth:`fill_way` — which
  lets TLA controllers interpose on LLC victim selection (QBS walks
  candidates, ECI peeks at the next victim).

Probes into individual slots go through the index-based accessors
:meth:`valid_at` / :meth:`dirty_at` / :meth:`addr_at` (there is no
per-line object to hand out).
"""

from __future__ import annotations

from array import array
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Tuple

from ..config import CacheConfig
from ..errors import SimulationError
from .line import EvictedLine
from .replacement import ReplacementPolicy, make_policy
from .replacement.lru import LRUPolicy
from .replacement.nru import NRUPolicy


class CacheArrayStats:
    """Raw event counters for one cache array.

    A plain ``__slots__`` class (not a dataclass): the hit/miss
    counters sit on the access fast path, and fixed slots keep the
    increments cheap while refusing stray attributes.
    """

    FIELDS = (
        "hits",
        "misses",
        "fills",
        "evictions",
        "dirty_evictions",
        "invalidations",
        "dirty_invalidations",
        "promotions",
    )

    __slots__ = FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheArrayStats):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"CacheArrayStats({fields})"


class Cache:
    """Set-associative cache with pluggable replacement.

    All addresses passed in are *line* addresses (already shifted by
    the line size); the set index is the low bits of the line address.
    """

    def __init__(self, config: CacheConfig, policy: Optional[ReplacementPolicy] = None) -> None:
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = self.num_sets - 1
        self._set_bits = max(1, self.num_sets.bit_length() - 1)
        self._index_hash = config.index_hash
        self.policy = policy or make_policy(
            config.replacement, self.num_sets, self.associativity
        )
        if (
            self.policy.num_sets != self.num_sets
            or self.policy.associativity != self.associativity
        ):
            raise SimulationError(
                f"{self.name}: policy geometry {self.policy.num_sets}x"
                f"{self.policy.associativity} does not match cache geometry "
                f"{self.num_sets}x{self.associativity}"
            )
        slots = self.num_sets * self.associativity
        # Packed tag store: slot = set_index * associativity + way.
        self._addrs = array("q", bytes(8 * slots))
        self._valid = bytearray(slots)
        self._dirty = bytearray(slots)
        # Resident line address -> way (the address fixes the set).
        self._map: Dict[int, int] = {}
        #: pre-bound probe — the map is only ever mutated in place, so
        #: binding ``dict.get`` once saves a method bind per access.
        self._map_get = self._map.get
        #: the policy's promotion update, pre-bound: its hit update when
        #: it keeps the default ``promote`` (TLH promotes once per hint).
        if type(self.policy).promote is ReplacementPolicy.promote:
            self._promote = self.policy.on_hit
        else:
            self._promote = self.policy.promote
        #: NRU's reference bitmap when a promotion is exactly "set the
        #: line's bit" (stock NRU, un-hashed index); see promote_lines.
        self._nru_ref = (
            self.policy._ref
            if type(self.policy) is NRUPolicy and not self._index_hash
            else None
        )
        #: recency-stamp hits can be applied inline (no policy call)
        #: when the policy uses the stock LRU-family hit update.
        self._lru_hit_fast = (
            isinstance(self.policy, LRUPolicy)
            and type(self.policy).on_hit is LRUPolicy.on_hit
        )
        self.stats = CacheArrayStats()
        # Shadow ``access`` with a closure specialised for the stock
        # LRU-family / un-hashed-index configuration: every container
        # it touches (residency map, stamp and clock arrays, dirty
        # bitmap, stats object) is only ever mutated in place, so they
        # can be captured once instead of re-resolved per probe.  The
        # class attribute stays ``Cache.access`` (the core's inline
        # burst loop keys its fast-path gate on that identity) and the
        # generic method remains the behavioural reference.
        if (
            type(self).access is Cache.access
            and self._lru_hit_fast
            and not self._index_hash
        ):
            self.access = self._make_lru_access()
        # Same for ``fill`` under plain LRU, whose victim choice and
        # stamp updates it can inline exactly (LIP/MRU and other
        # policies keep the generic staged path).
        if (
            type(self).fill is Cache.fill
            and type(self.policy) is LRUPolicy
            and not self._index_hash
        ):
            self.fill = self._make_lru_fill()

    # -- geometry helpers ---------------------------------------------------
    def set_index_of(self, line_addr: int) -> int:
        if self._index_hash:
            # XOR-fold two extra tag slices into the index, the classic
            # way hardware spreads power-of-two strides across sets.
            line_addr ^= (line_addr >> self._set_bits) ^ (
                line_addr >> (2 * self._set_bits)
            )
        return line_addr & self._set_mask

    # -- probes (no state change) --------------------------------------------
    def way_of(self, line_addr: int) -> Optional[int]:
        """Return the way holding ``line_addr`` or ``None`` (pure probe)."""
        return self._map.get(line_addr)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._map

    def is_dirty(self, line_addr: int) -> bool:
        way = self._map.get(line_addr)
        if way is None:
            return False
        # One set-index computation total (way_of above is hash-free).
        return bool(
            self._dirty[self.set_index_of(line_addr) * self.associativity + way]
        )

    def valid_at(self, set_index: int, way: int) -> bool:
        """Does the slot ``(set_index, way)`` hold a line?"""
        return bool(self._valid[set_index * self.associativity + way])

    def dirty_at(self, set_index: int, way: int) -> bool:
        """Is the line in slot ``(set_index, way)`` dirty?"""
        return bool(self._dirty[set_index * self.associativity + way])

    def addr_at(self, set_index: int, way: int) -> Optional[int]:
        """Line address held by ``(set_index, way)``, or None if invalid."""
        slot = set_index * self.associativity + way
        return self._addrs[slot] if self._valid[slot] else None

    def map_items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(line_addr, way)`` pairs of the residency map.

        The probe surface CacheSan's tag-store checker audits against
        the valid bitmap; insertion (fill) order.
        """
        return iter(self._map.items())

    # -- the simple path -------------------------------------------------------
    def access(self, line_addr: int, write: bool = False) -> bool:
        """Demand access; returns True on hit and updates replacement state.

        This is the simulator's hottest function (every L1/L2/LLC probe
        lands here).  The residency map is consulted *first* so misses
        — the common case in the lower levels — pay one dict probe and
        no set-index arithmetic at all; the set index is computed
        inline (not via :meth:`set_index_of`) only on hits, and the
        stock LRU-family stamp refresh is applied inline rather than
        through a ``policy.on_hit`` call.
        """
        way = self._map_get(line_addr)
        if way is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if self._index_hash:
            set_bits = self._set_bits
            set_index = (
                line_addr
                ^ (line_addr >> set_bits)
                ^ (line_addr >> (2 * set_bits))
            ) & self._set_mask
        else:
            set_index = line_addr & self._set_mask
        policy = self.policy
        if self._lru_hit_fast:
            # Mirrors LRUPolicy.on_hit exactly (including the
            # last_hit_was_mru flag TLH's MRU filter reads).
            stamp = policy._stamp
            slot = set_index * self.associativity + way
            top = policy._clock[set_index]
            if stamp[slot] == top:
                policy.last_hit_was_mru = True
            else:
                policy.last_hit_was_mru = False
                top += 1
                policy._clock[set_index] = top
                stamp[slot] = top
        else:
            policy.on_hit(set_index, way)
        if write:
            self._dirty[set_index * self.associativity + way] = 1
        return True

    def _make_lru_access(self):
        """Build the specialised demand-access closure (see __init__).

        Semantically identical to :meth:`access` with the stock LRU hit
        update inlined and the index hash disabled; every captured
        object is mutated in place for the cache's lifetime.
        """
        map_get = self._map.get
        stats = self.stats
        set_mask = self._set_mask
        assoc = self.associativity
        policy = self.policy
        stamp = policy._stamp
        clock = policy._clock
        dirty = self._dirty

        def access(line_addr: int, write: bool = False) -> bool:
            way = map_get(line_addr)
            if way is None:
                stats.misses += 1
                return False
            stats.hits += 1
            set_index = line_addr & set_mask
            slot = set_index * assoc + way
            top = clock[set_index]
            if stamp[slot] == top:
                policy.last_hit_was_mru = True
            else:
                policy.last_hit_was_mru = False
                top += 1
                clock[set_index] = top
                stamp[slot] = top
            if write:
                dirty[slot] = 1
            return True

        return access

    def _make_lru_fill(self):
        """Build the specialised fill closure (see __init__).

        Semantically identical to :meth:`fill` with LRU's ``on_hit``,
        ``select_victim``, ``on_invalidate`` and ``on_fill``, and
        :meth:`evict_way` / :meth:`fill_way`, inlined; a call with
        ``exclude_ways`` takes the generic method.
        """
        generic_fill = Cache.fill.__get__(self)
        resident = self._map
        map_get = resident.get
        stats = self.stats
        set_mask = self._set_mask
        assoc = self.associativity
        policy = self.policy
        stamp = policy._stamp
        clock = policy._clock
        cold = policy._cold
        addrs = self._addrs
        valid = self._valid
        find_invalid = valid.find
        dirty_bits = self._dirty

        def fill(
            line_addr: int, dirty: bool = False, exclude_ways: Collection[int] = ()
        ) -> Optional[EvictedLine]:
            if exclude_ways:
                return generic_fill(line_addr, dirty, exclude_ways)
            set_index = line_addr & set_mask
            base = set_index * assoc
            way = map_get(line_addr)
            if way is not None:
                slot = base + way
                if dirty:
                    dirty_bits[slot] = 1
                top = clock[set_index]
                if stamp[slot] == top:
                    policy.last_hit_was_mru = True
                else:
                    policy.last_hit_was_mru = False
                    top += 1
                    clock[set_index] = top
                    stamp[slot] = top
                return None
            victim = None
            slot = find_invalid(0, base, base + assoc)
            if slot < 0:
                # LRU victim: the way with the (unique) lowest stamp.
                stamps = stamp[base:base + assoc]
                way = stamps.index(min(stamps))
                slot = base + way
                # The victim's stamp was the set's unique minimum, so
                # once it turns cold the surviving maximum is the old
                # one (unless the victim was the set's only way).
                highest = max(stamps)
                evicted = addrs[slot]
                was_dirty = dirty_bits[slot]
                victim = EvictedLine(evicted, bool(was_dirty))
                del resident[evicted]
                stats.evictions += 1
                if was_dirty:
                    stats.dirty_evictions += 1
                coldest = cold[set_index] - 1
                cold[set_index] = coldest
                stamp[slot] = coldest
                clock[set_index] = highest if assoc > 1 else coldest
            else:
                way = slot - base
            addrs[slot] = line_addr
            valid[slot] = 1
            dirty_bits[slot] = 1 if dirty else 0
            resident[line_addr] = way
            top = clock[set_index] + 1
            clock[set_index] = top
            stamp[slot] = top
            stats.fills += 1
            return victim

        return fill

    def promote(self, line_addr: int) -> bool:
        """Refresh a line toward MRU without a demand access (TLH/QBS).

        Returns False (and does nothing) if the line is absent.
        """
        way = self._map_get(line_addr)
        if way is None:
            return False
        if self._index_hash:
            set_index = self.set_index_of(line_addr)
        else:
            set_index = line_addr & self._set_mask
        self._promote(set_index, way)
        self.stats.promotions += 1
        return True

    def promote_lines(self, lines: Iterable[int]) -> int:
        """:meth:`promote` each of ``lines`` in order; returns how many
        were resident (TLH's batched hints).

        Under NRU a promotion only sets the line's reference bit, which
        is idempotent and commutes with every other bit set, so that
        path writes the bits directly.  Other policies take the
        pre-bound promotion update line by line.
        """
        map_get = self._map_get
        mask = self._set_mask
        assoc = self.associativity
        found = 0
        if self._nru_ref is not None:
            ref = self._nru_ref
            for line_addr in lines:
                way = map_get(line_addr)
                if way is not None:
                    ref[(line_addr & mask) * assoc + way] = 1
                    found += 1
        else:
            promote = self._promote
            hashed = self._index_hash
            set_index_of = self.set_index_of
            for line_addr in lines:
                way = map_get(line_addr)
                if way is not None:
                    promote(
                        set_index_of(line_addr) if hashed else line_addr & mask,
                        way,
                    )
                    found += 1
        self.stats.promotions += found
        return found

    def set_dirty(self, line_addr: int) -> bool:
        """Mark a resident line dirty (e.g. a writeback landing here)."""
        way = self._map.get(line_addr)
        if way is None:
            return False
        self._dirty[self.set_index_of(line_addr) * self.associativity + way] = 1
        return True

    def fill(
        self,
        line_addr: int,
        dirty: bool = False,
        exclude_ways: Collection[int] = (),
    ) -> Optional[EvictedLine]:
        """Install ``line_addr``, evicting if the set is full.

        Returns the evicted line (if a valid line was displaced) so the
        caller can enforce inclusion or write back dirty data.  Filling
        an already-resident line refreshes its replacement state and
        merges the dirty bit instead of duplicating it.
        """
        set_index = self.set_index_of(line_addr)
        existing = self._map.get(line_addr)
        if existing is not None:
            if dirty:
                self._dirty[set_index * self.associativity + existing] = 1
            self.policy.on_hit(set_index, existing)
            return None
        victim: Optional[EvictedLine] = None
        way = self.find_invalid_way(set_index, exclude_ways)
        if way is None:
            way = self.policy.select_victim(set_index, exclude_ways)
            victim = self.evict_way(set_index, way)
        self.fill_way(set_index, way, line_addr, dirty)
        return victim

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Remove ``line_addr`` if present; returns what was dropped.

        Used for back-invalidations (inclusion), early core
        invalidations (ECI) and exclusive-hierarchy hit-invalidates.
        """
        way = self._map.pop(line_addr, None)
        if way is None:
            return None
        set_index = self.set_index_of(line_addr)
        slot = set_index * self.associativity + way
        dropped = EvictedLine(line_addr, bool(self._dirty[slot]))
        self._valid[slot] = 0
        self._dirty[slot] = 0
        self.policy.on_invalidate(set_index, way)
        self.stats.invalidations += 1
        if dropped.dirty:
            self.stats.dirty_invalidations += 1
        return dropped

    # -- the staged path (TLA controllers) ------------------------------------
    def find_invalid_way(
        self, set_index: int, exclude_ways: Collection[int] = ()
    ) -> Optional[int]:
        """Return an invalid way in the set, or None if all are valid."""
        base = set_index * self.associativity
        if not exclude_ways:
            # The valid bitmap is a bytearray, so the C-level scan for
            # a zero byte replaces the Python per-way loop.
            slot = self._valid.find(0, base, base + self.associativity)
            return None if slot < 0 else slot - base
        valid = self._valid
        for way in range(self.associativity):
            if way in exclude_ways:
                continue
            if not valid[base + way]:
                return way
        return None

    def select_victim(
        self, set_index: int, exclude_ways: Collection[int] = ()
    ) -> Tuple[int, Optional[int]]:
        """Ask the policy for a victim way; prefers invalid ways.

        Returns ``(way, line_addr)`` without evicting — ``line_addr``
        is None when the way is invalid (no victim to displace).  QBS
        inspects the candidate (and may promote it) before deciding.
        """
        way = self.find_invalid_way(set_index, exclude_ways)
        if way is None:
            way = self.policy.select_victim(set_index, exclude_ways)
        slot = set_index * self.associativity + way
        return way, (self._addrs[slot] if self._valid[slot] else None)

    def promote_way(self, set_index: int, way: int) -> None:
        """Promote a specific way (QBS sparing a resident victim)."""
        self.policy.promote(set_index, way)
        self.stats.promotions += 1

    def evict_way(self, set_index: int, way: int) -> EvictedLine:
        """Evict the (valid) line in ``way``; returns what was evicted."""
        slot = set_index * self.associativity + way
        if not self._valid[slot]:
            raise SimulationError(
                f"{self.name}: evicting invalid way {way} of set {set_index}"
            )
        line_addr = self._addrs[slot]
        evicted = EvictedLine(line_addr, bool(self._dirty[slot]))
        del self._map[line_addr]
        self._valid[slot] = 0
        self._dirty[slot] = 0
        self.policy.on_invalidate(set_index, way)
        self.stats.evictions += 1
        if evicted.dirty:
            self.stats.dirty_evictions += 1
        return evicted

    def fill_way(
        self, set_index: int, way: int, line_addr: int, dirty: bool = False
    ) -> None:
        """Install ``line_addr`` into a specific (invalid) way."""
        slot = set_index * self.associativity + way
        if self._valid[slot]:
            raise SimulationError(
                f"{self.name}: filling over valid line in way {way} of set "
                f"{set_index}; evict first"
            )
        if self.set_index_of(line_addr) != set_index:
            raise SimulationError(
                f"{self.name}: line {line_addr:#x} does not map to set {set_index}"
            )
        self._addrs[slot] = line_addr
        self._valid[slot] = 1
        self._dirty[slot] = 1 if dirty else 0
        self._map[line_addr] = way
        self.policy.on_fill(set_index, way)
        self.stats.fills += 1

    # -- introspection ----------------------------------------------------------
    def resident_lines(self) -> Iterator[int]:
        """Yield every resident line address (order unspecified)."""
        return iter(self._map)

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return len(self._map)

    def set_occupancy(self, set_index: int) -> int:
        base = set_index * self.associativity
        return self._valid.count(1, base, base + self.associativity)

    def flush(self) -> List[EvictedLine]:
        """Invalidate everything; returns dirty lines for writeback."""
        dirty: List[EvictedLine] = []
        for line_addr in list(self._map):
            dropped = self.invalidate(line_addr)
            if dropped is not None and dropped.dirty:
                dirty.append(dropped)
        return dirty

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._map

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cache {self.name} {self.config.size_bytes}B "
            f"{self.num_sets}x{self.associativity} {self.policy.name}>"
        )
