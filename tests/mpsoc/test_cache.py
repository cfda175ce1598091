"""Cache tag-array unit tests and hypothesis invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpsoc.asm import assemble
from repro.mpsoc.cache import WRITE_BACK, WRITE_THROUGH, Cache, CacheConfig


def make_cache(size=256, line=16, assoc=1, policy=WRITE_THROUGH):
    return Cache(
        CacheConfig(
            name="c", size=size, line_size=line, assoc=assoc, write_policy=policy
        )
    )


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(name="c", size=100, line_size=16)  # not divisible
    with pytest.raises(ValueError):
        CacheConfig(name="c", line_size=10)  # not multiple of 4
    with pytest.raises(ValueError):
        CacheConfig(name="c", write_policy="bogus")
    with pytest.raises(ValueError):
        CacheConfig(name="c", hit_latency=0)


def test_geometry():
    cfg = CacheConfig(name="c", size=8192, line_size=16, assoc=2)
    assert cfg.num_sets == 256
    assert cfg.line_words == 4


def test_cold_miss_then_hit():
    cache = make_cache()
    first = cache.access(0x40, is_write=False)
    assert not first.hit and first.fill
    second = cache.access(0x44, is_write=False)  # same 16-byte line
    assert second.hit and not second.fill
    stats = cache.stats()
    assert stats == {
        "accesses": 2,
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "writebacks": 0,
        "miss_rate": 0.5,
    }


def test_direct_mapped_conflict():
    cache = make_cache(size=256, line=16, assoc=1)  # 16 sets
    cache.access(0x000, False)
    assert cache.contains(0x000)
    result = cache.access(0x100, False)  # same set, different tag
    assert not result.hit and result.fill
    assert not cache.contains(0x000)
    assert cache.contains(0x100)


def test_two_way_keeps_both():
    cache = make_cache(size=256, line=16, assoc=2)  # 8 sets
    cache.access(0x000, False)
    cache.access(0x080, False)  # 8 sets * 16B = 0x80 stride -> same set
    assert cache.contains(0x000) and cache.contains(0x080)
    # Third tag evicts the LRU (0x000).
    cache.access(0x100, False)
    assert not cache.contains(0x000)
    assert cache.contains(0x080) and cache.contains(0x100)


def test_lru_order_updated_by_hits():
    cache = make_cache(size=256, line=16, assoc=2)
    cache.access(0x000, False)
    cache.access(0x080, False)
    cache.access(0x000, False)  # touch 0x000: now 0x080 is LRU
    cache.access(0x100, False)
    assert cache.contains(0x000)
    assert not cache.contains(0x080)


def test_write_through_no_allocate():
    cache = make_cache(policy=WRITE_THROUGH)
    result = cache.access(0x40, is_write=True)
    assert not result.hit and result.through_write and not result.fill
    assert not cache.contains(0x40)
    # Write hit still goes through.
    cache.access(0x40, False)
    hit = cache.access(0x40, True)
    assert hit.hit and hit.through_write


def test_write_back_allocates_and_marks_dirty():
    cache = make_cache(policy=WRITE_BACK)
    result = cache.access(0x40, is_write=True)
    assert not result.hit and result.fill and not result.through_write
    assert cache.dirty_lines() == [0x40]


def test_write_back_eviction_writes_back():
    cache = make_cache(size=256, line=16, assoc=1, policy=WRITE_BACK)
    cache.access(0x000, True)  # dirty
    result = cache.access(0x100, False)  # conflict evicts dirty line
    assert result.writeback and result.victim_addr == 0x000
    assert cache.stats()["writebacks"] == 1


def test_clean_eviction_does_not_write_back():
    cache = make_cache(size=256, line=16, assoc=1, policy=WRITE_BACK)
    cache.access(0x000, False)
    result = cache.access(0x100, False)
    assert not result.writeback
    assert cache.stats()["evictions"] == 1


def test_flush_reports_dirty_lines():
    cache = make_cache(policy=WRITE_BACK)
    cache.access(0x00, True)
    cache.access(0x40, True)
    cache.access(0x80, False)
    assert cache.flush() == 2
    assert cache.resident_lines() == []


def test_flush_mid_run_makes_the_next_fetch_miss(platform1):
    # A running core resolves I-cache hits against the tag arrays it
    # prepared at load time, so flush must empty them in place.
    platform1.load_program(0, assemble("""
        main:   li   r2, 100
        loop:   addi r1, r1, 1
                blt  r1, r2, loop
                halt
    """))
    core, icache = platform1.cores[0], platform1.icaches[0]
    core.run(max_instructions=20)
    misses = icache.stats()["misses"]
    icache.flush()
    core.step()
    assert icache.stats()["misses"] == misses + 1


ADDRESSES = st.lists(
    st.integers(min_value=0, max_value=0x3FFF).map(lambda a: a & ~0x3),
    min_size=1,
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(
    addrs=ADDRESSES,
    assoc=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from([WRITE_THROUGH, WRITE_BACK]),
    writes=st.lists(st.booleans(), min_size=300, max_size=300),
)
def test_invariants_hold_under_random_traffic(addrs, assoc, policy, writes):
    cache = make_cache(size=512, line=16, assoc=assoc, policy=policy)
    touched_lines = set()
    for addr, is_write in zip(addrs, writes):
        cache.access(addr, is_write)
        touched_lines.add(cache.line_base(addr))
        # Invariant 1: set occupancy never exceeds associativity and no
        # duplicate tags within a set.
        for entries in cache._sets:
            assert len(entries) <= assoc
            tags = [tag for tag, _ in entries]
            assert len(tags) == len(set(tags))
    # Invariant 2: resident lines are a subset of lines ever touched.
    assert set(cache.resident_lines()) <= touched_lines
    # Invariant 3: write-through caches never hold dirty lines.
    if policy == WRITE_THROUGH:
        assert cache.dirty_lines() == []
    # Invariant 4: bookkeeping identity.
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == stats["accesses"]
    assert stats["writebacks"] <= stats["evictions"]
