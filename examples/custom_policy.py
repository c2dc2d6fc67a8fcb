#!/usr/bin/env python3
"""Extending the library: a custom replacement policy and TLA policy.

Two plugin points:

1. replacement policies — subclass
   :class:`repro.cache.replacement.ReplacementPolicy` and register it;
   any ``CacheConfig(replacement="...")`` can then use it.
2. TLA policies — subclass :class:`repro.core.TLAPolicy` and attach it
   to a hierarchy with ``attach_tla``.

As a demonstration we build:

* ``SecondChanceFIFO`` — FIFO with one reference bit (a classic
  textbook policy the library doesn't ship), and
* ``PinnedLinesTLA`` — a toy TLA policy that simply refuses to evict
  an explicit set of pinned lines (a software-managed QBS), showing
  how little code a victim-selection hook needs.

Run:  python examples/custom_policy.py
"""

from typing import Collection, List

from repro import CMPSimulator, SimConfig, TLAPolicy, baseline_hierarchy
from repro.cache.replacement import ReplacementPolicy, register_policy
from repro.config import CacheConfig, HierarchyConfig
from repro.errors import SimulationError
from repro.hierarchy import build_hierarchy
from repro.metrics import format_table
from repro.workloads import mix_by_name


class SecondChanceFIFO(ReplacementPolicy):
    """FIFO eviction, but a referenced line gets one second chance."""

    name = "second-chance"

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._queues: List[List[int]] = [
            list(range(associativity)) for _ in range(num_sets)
        ]
        self._referenced = [bytearray(associativity) for _ in range(num_sets)]

    def on_fill(self, set_index: int, way: int) -> None:
        queue = self._queues[set_index]
        queue.remove(way)
        queue.append(way)
        self._referenced[set_index][way] = 0

    def on_hit(self, set_index: int, way: int) -> None:
        self._referenced[set_index][way] = 1

    def on_invalidate(self, set_index: int, way: int) -> None:
        queue = self._queues[set_index]
        queue.remove(way)
        queue.insert(0, way)
        self._referenced[set_index][way] = 0

    def select_victim(self, set_index: int, exclude: Collection[int] = ()) -> int:
        self._check_exclusion(exclude)
        queue = self._queues[set_index]
        referenced = self._referenced[set_index]
        for _ in range(2 * self.associativity):
            way = queue[0]
            if way in exclude:
                queue.append(queue.pop(0))
                continue
            if referenced[way]:
                referenced[way] = 0  # spend the second chance
                queue.append(queue.pop(0))
                continue
            return way
        raise SimulationError("second-chance: no victim found")


class PinnedLinesTLA(TLAPolicy):
    """Never evict lines from a pinned set (software-managed QBS)."""

    name = "pinned"

    def __init__(self, pinned_lines) -> None:
        super().__init__()
        self.pinned = set(pinned_lines)
        self.pins_honoured = 0

    def select_llc_victim(self, core_id: int, set_index: int) -> int:
        llc = self._require_hierarchy().llc
        rejected = set()
        while len(rejected) < llc.associativity:
            way, victim_addr = llc.select_victim(set_index, exclude_ways=rejected)
            if victim_addr is None or victim_addr not in self.pinned:
                return way
            llc.promote_way(set_index, way)
            self.pins_honoured += 1
            rejected.add(way)
        return llc.policy.select_victim(set_index)


def main() -> None:
    register_policy(SecondChanceFIFO.name, SecondChanceFIFO)

    # 1. Use the custom replacement policy at the LLC.
    scale = 0.0625
    base = baseline_hierarchy(2, scale=scale)
    custom_llc = HierarchyConfig(
        num_cores=2,
        mode="inclusive",
        l1i=base.l1i, l1d=base.l1d, l2=base.l2,
        llc=CacheConfig(
            base.llc.size_bytes, 16, replacement="second-chance", name="LLC"
        ),
    )
    mix = mix_by_name("MIX_10")
    config = SimConfig(
        hierarchy=custom_llc, instruction_quota=100_000,
        warmup_instructions=50_000,
    )
    result = CMPSimulator(config, mix.traces(base)).run()
    rows = [["second-chance LLC", result.throughput,
             result.total_inclusion_victims]]

    # 2. Attach the custom TLA policy: pin sjeng's hottest lines.
    hierarchy = build_hierarchy(
        HierarchyConfig(
            num_cores=2, mode="inclusive",
            l1i=base.l1i, l1d=base.l1d, l2=base.l2, llc=base.llc,
        )
    )
    # Pin the first few lines of core 1's hot data region (found by
    # peeking at the trace).
    from repro.workloads import take
    peek = take(mix.traces(base)[1], 2000)
    hot = [address >> 6 for _, kind, address in peek if kind.is_data][:32]
    tla = PinnedLinesTLA(hot)
    hierarchy.attach_tla(tla)
    config2 = SimConfig(
        hierarchy=hierarchy.config, instruction_quota=100_000,
        warmup_instructions=50_000,
    )
    result2 = CMPSimulator(config2, mix.traces(base), hierarchy=hierarchy).run()
    rows.append(
        [f"pinned-lines TLA ({tla.pins_honoured} pins honoured)",
         result2.throughput, result2.total_inclusion_victims]
    )

    print(
        format_table(
            ["configuration", "throughput", "inclusion victims"],
            rows,
            title="Custom policy plugins on MIX_10",
        )
    )
    print()
    print(
        "Both plugins are a few dozen lines: replacement policies are\n"
        "per-set state machines behind select_victim, and TLA policies\n"
        "are three optional hooks on the hierarchy."
    )


if __name__ == "__main__":
    main()
