"""Unit tests for the set-associative Cache array."""

import random
from array import array

import pytest

from repro.cache import Cache
from repro.cache.replacement import available_policies
from repro.config import CacheConfig
from repro.errors import SimulationError


def small_cache(sets=4, ways=2, replacement="lru") -> Cache:
    config = CacheConfig(
        size_bytes=sets * ways * 64,
        associativity=ways,
        line_size=64,
        replacement=replacement,
        name="test",
    )
    return Cache(config)


class TestBasicOperations:
    def test_miss_then_fill_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x10)
        cache.fill(0x10)
        assert cache.access(0x10)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_contains_is_pure(self):
        cache = small_cache()
        cache.fill(0x10)
        before = cache.stats.snapshot()
        assert cache.contains(0x10)
        assert not cache.contains(0x20)
        assert cache.stats.snapshot() == before

    def test_write_sets_dirty(self):
        cache = small_cache()
        cache.fill(5)
        assert not cache.is_dirty(5)
        cache.access(5, write=True)
        assert cache.is_dirty(5)

    def test_fill_returns_victim_when_set_full(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        victim = cache.fill(2)
        assert victim is not None
        assert victim.line_addr == 0  # LRU
        assert not cache.contains(0)

    def test_fill_existing_line_merges_dirty(self):
        cache = small_cache()
        cache.fill(7, dirty=True)
        assert cache.fill(7, dirty=False) is None
        assert cache.is_dirty(7)
        assert cache.occupancy() == 1

    def test_dirty_victim_reported(self):
        cache = small_cache(sets=1, ways=1)
        cache.fill(0, dirty=True)
        victim = cache.fill(1)
        assert victim.dirty

    def test_invalidate_returns_dropped_line(self):
        cache = small_cache()
        cache.fill(3, dirty=True)
        dropped = cache.invalidate(3)
        assert dropped.line_addr == 3
        assert dropped.dirty
        assert not cache.contains(3)
        assert cache.invalidate(3) is None

    def test_promote_refreshes_replacement(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)  # 0 is now LRU
        assert cache.promote(0)
        victim = cache.fill(2)
        assert victim.line_addr == 1

    def test_promote_absent_line_returns_false(self):
        cache = small_cache()
        assert not cache.promote(0x99)

    def test_set_dirty(self):
        cache = small_cache()
        cache.fill(4)
        assert cache.set_dirty(4)
        assert cache.is_dirty(4)
        assert not cache.set_dirty(0x55)


class TestGeometry:
    def test_set_index_uses_low_bits(self):
        cache = small_cache(sets=4, ways=2)
        assert cache.set_index_of(0) == 0
        assert cache.set_index_of(5) == 1
        assert cache.set_index_of(7) == 3

    def test_conflicting_lines_share_set(self):
        cache = small_cache(sets=4, ways=2)
        cache.fill(0)
        cache.fill(4)
        cache.fill(8)  # third line in set 0 evicts line 0
        assert not cache.contains(0)
        assert cache.contains(4)
        assert cache.contains(8)

    def test_policy_geometry_mismatch_rejected(self):
        from repro.cache.replacement import LRUPolicy

        config = CacheConfig(4 * 2 * 64, 2, name="t")
        with pytest.raises(SimulationError):
            Cache(config, policy=LRUPolicy(8, 2))


class TestStagedPath:
    def test_find_invalid_way(self):
        cache = small_cache(sets=1, ways=2)
        assert cache.find_invalid_way(0) == 0
        cache.fill(0)
        assert cache.find_invalid_way(0) == 1
        cache.fill(1)
        assert cache.find_invalid_way(0) is None

    def test_select_victim_prefers_invalid(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        way, victim_addr = cache.select_victim(0)
        assert victim_addr is None

    def test_evict_and_fill_way_roundtrip(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        way, victim_addr = cache.select_victim(0)
        evicted = cache.evict_way(0, way)
        assert evicted.line_addr == victim_addr
        cache.fill_way(0, way, 2)
        assert cache.contains(2)

    def test_evict_invalid_way_raises(self):
        cache = small_cache(sets=1, ways=2)
        with pytest.raises(SimulationError):
            cache.evict_way(0, 0)

    def test_fill_over_valid_way_raises(self):
        cache = small_cache(sets=1, ways=1)
        cache.fill(0)
        with pytest.raises(SimulationError):
            cache.fill_way(0, 0, 1)

    def test_fill_wrong_set_raises(self):
        cache = small_cache(sets=4, ways=2)
        with pytest.raises(SimulationError):
            cache.fill_way(0, 0, 5)  # line 5 maps to set 1


class TestIntrospection:
    def test_occupancy_and_len(self):
        cache = small_cache()
        assert len(cache) == 0
        cache.fill(0)
        cache.fill(1)
        assert cache.occupancy() == 2
        assert len(cache) == 2

    def test_resident_lines(self):
        cache = small_cache()
        for addr in (0, 1, 2):
            cache.fill(addr)
        assert sorted(cache.resident_lines()) == [0, 1, 2]

    def test_flush_returns_dirty_lines(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        cache.fill(1)
        dirty = cache.flush()
        assert [d.line_addr for d in dirty] == [0]
        assert cache.occupancy() == 0

    def test_contains_operator(self):
        cache = small_cache()
        cache.fill(9)
        assert 9 in cache
        assert 10 not in cache

    def test_stats_reset(self):
        cache = small_cache()
        cache.fill(0)
        cache.access(0)
        cache.stats.reset()
        assert cache.stats.hits == 0
        assert cache.stats.fills == 0

    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0)
        cache.access(0)
        cache.access(1)
        assert cache.stats.hit_rate == pytest.approx(0.5)


def full_state(cache):
    """Tag store, counters and every attribute of the policy."""
    policy = {
        name: bytes(value) if isinstance(value, (array, bytearray)) else value
        for name, value in vars(cache.policy).items()
    }
    return (
        cache._addrs.tobytes(),
        bytes(cache._valid),
        bytes(cache._dirty),
        dict(cache._map),
        cache.stats.snapshot(),
        policy,
        [cache.policy.victim_order(s) for s in range(cache.num_sets)],
    )


@pytest.mark.parametrize("replacement", available_policies())
@pytest.mark.parametrize("index_hash", [False, True])
def test_promote_lines_equals_sequential_promote(replacement, index_hash):
    """TLH's batched hints promote exactly as one ``promote`` per line."""
    config = CacheConfig(
        size_bytes=16 * 4 * 64,
        associativity=4,
        replacement=replacement,
        name="llc",
        index_hash=index_hash,
    )
    rng = random.Random(replacement)
    batched, sequential = Cache(config), Cache(config)
    for _ in range(6):
        accesses = [(rng.randrange(200), rng.random() < 0.3) for _ in range(40)]
        for cache in (batched, sequential):
            for line, dirty in accesses:
                if not cache.access(line):
                    cache.fill(line, dirty=dirty)
        lines = [rng.randrange(200) for _ in range(rng.randrange(0, 60))]
        found = batched.promote_lines(array("q", lines))
        assert found == sum(sequential.promote(line) for line in lines)
        assert full_state(batched) == full_state(sequential)
