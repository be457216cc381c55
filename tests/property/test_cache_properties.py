"""Property tests for the byte-budgeted, persistable decode cache.

Invariants pinned over randomized operation sequences:

* the byte budget is a hard bound — after *any* op sequence
  ``total_bytes <= capacity_bytes`` (an entry larger than the whole
  budget is never resident);
* the entry-count bound holds the same way;
* LRU order is preserved under get/put refreshes (checked against a
  reference ``OrderedDict`` model);
* stats counters stay consistent (``hits + misses == lookups``; the
  byte ledger equals the sum of resident entry weights);
* persistence round-trips losslessly, and corrupt/truncated/foreign
  files in the cache directory are skipped, never fatal.
"""

import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import ArchParams
from repro.bitstream.config import FabricConfig
from repro.runtime import CachedDecode, DecodeCache
from repro.runtime.costmodel import CACHE_FILE_FORMAT
from repro.utils.bitarray import BitArray
from repro.utils.geometry import Rect
from repro.vbs.decode import DecodeStats

COMMON = settings(
    deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)

PARAMS = ArchParams(channel_width=5)


def make_entry(w: int, h: int, fill: int = 0) -> CachedDecode:
    """A CachedDecode whose expansion covers a w x h task rectangle."""
    config = FabricConfig(PARAMS, Rect(0, 0, w, h))
    logic = BitArray(PARAMS.nlb)
    logic[fill % PARAMS.nlb] = 1
    config.set_logic(0, 0, logic)
    config.close_switch(0, 0, fill % PARAMS.routing_bits)
    stats = DecodeStats(clusters_decoded=w * h, router_work=fill)
    return CachedDecode(
        config=config,
        stats=stats,
        codec_tags=("list",),
        layout=(w, h, 1, False),
    )


def key_of(i: int, w: "int | None" = None, h: "int | None" = None):
    """Cache key ``i``; pass the entry's ``w x h`` where the key must
    describe it (``DecodeCache.load`` skips entries whose expansion does
    not cover exactly the key's rectangle)."""
    return (
        f"digest{i}", "vbs",
        1 + i % 3 if w is None else w,
        1 + i % 2 if h is None else h,
    )


#: One op: ("put", key index, width, height) or ("get", key index).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 9),
                  st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.just("get"), st.integers(0, 9)),
    ),
    max_size=60,
)


def apply_ops(cache: DecodeCache, ops) -> "OrderedDict":
    """Replay ops against the cache and an LRU reference model."""
    model: "OrderedDict" = OrderedDict()
    for op in ops:
        if op[0] == "put":
            _op, i, w, h = op
            entry = make_entry(w, h, fill=i)
            cache.put(key_of(i), entry)
            model.pop(key_of(i), None)
            # An entry that can never fit the byte budget is rejected
            # outright (it must not flush the resident working set).
            if (cache.capacity_bytes is None
                    or entry.expanded_bytes <= cache.capacity_bytes):
                model[key_of(i)] = entry
        else:
            _op, i = op
            hit = cache.get(key_of(i))
            if key_of(i) in model:
                assert hit is model[key_of(i)]
                model.move_to_end(key_of(i))
            else:
                assert hit is None
        # Shrink the model by the same eviction rule (LRU-first) until
        # it satisfies both bounds, mirroring _evict_over_budget.
        def total(m):
            return sum(e.expanded_bytes for e in m.values())
        while model and (
            (cache.capacity is not None and len(model) > cache.capacity)
            or (cache.capacity_bytes is not None
                and total(model) > cache.capacity_bytes)
        ):
            model.popitem(last=False)
    return model


class TestCacheInvariants:
    @COMMON
    @given(OPS, st.integers(1, 6))
    def test_count_bound_and_lru_order(self, ops, capacity):
        cache = DecodeCache(capacity=capacity)
        model = apply_ops(cache, ops)
        assert len(cache) <= capacity
        assert cache.keys() == list(model)
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups

    @COMMON
    @given(OPS, st.integers(200, 20000))
    def test_byte_budget_never_exceeded(self, ops, budget):
        cache = DecodeCache(capacity=None, capacity_bytes=budget)
        model = apply_ops(cache, ops)
        assert cache.total_bytes <= budget
        assert cache.keys() == list(model)
        assert cache.total_bytes == sum(
            e.expanded_bytes for e in model.values()
        )

    @COMMON
    @given(OPS, st.integers(1, 5), st.integers(200, 20000))
    def test_both_bounds_together(self, ops, capacity, budget):
        cache = DecodeCache(capacity=capacity, capacity_bytes=budget)
        model = apply_ops(cache, ops)
        assert len(cache) <= capacity
        assert cache.total_bytes <= budget
        assert cache.keys() == list(model)

    def test_oversized_entry_never_resident(self):
        cache = DecodeCache(capacity=None, capacity_bytes=100)
        big = make_entry(6, 6)
        assert big.expanded_bytes > 100
        cache.put(key_of(0), big)
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats.evictions == 1

    def test_oversized_entry_does_not_flush_residents(self):
        one = make_entry(2, 2).expanded_bytes
        cache = DecodeCache(capacity=None, capacity_bytes=3 * one)
        cache.put(key_of(0), make_entry(2, 2))
        cache.put(key_of(1), make_entry(2, 2))
        big = make_entry(6, 6)
        assert big.expanded_bytes > 3 * one
        cache.put(key_of(2), big)  # rejected, residents untouched
        assert cache.keys() == [key_of(0), key_of(1)]
        assert cache.total_bytes == 2 * one
        assert cache.stats.evictions == 1


def entries_equal(a: CachedDecode, b: CachedDecode) -> bool:
    return (
        a.config.content_equal(b.config)
        and a.stats == b.stats
        and a.codec_tags == b.codec_tags
        and a.layout == b.layout
        and a.expanded_bytes == b.expanded_bytes
    )


class TestCachePersistence:
    @COMMON
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 5),
                              st.integers(1, 5)),
                    min_size=1, max_size=8))
    def test_roundtrip_is_lossless(self, puts):
        cache = DecodeCache(capacity=32)
        for i, w, h in puts:
            cache.put(key_of(i, w, h), make_entry(w, h, fill=i))
        with tempfile.TemporaryDirectory() as tmp:
            written = cache.save(tmp)
            assert written == len(cache)
            fresh = DecodeCache(capacity=32)
            loaded = fresh.load(tmp, PARAMS)
            assert loaded == len(cache)
            assert set(fresh.keys()) == set(cache.keys())
            assert fresh.total_bytes == cache.total_bytes
            assert fresh.stats.restored == loaded
            assert fresh.stats.lookups == 0  # restores are not lookups
            for key in cache.keys():
                assert entries_equal(
                    fresh._entries[key], cache._entries[key]
                )

    def test_load_respects_byte_budget(self, tmp_path):
        cache = DecodeCache(capacity=8)
        for i in range(4):
            cache.put(key_of(i, 3, 3), make_entry(3, 3, fill=i))
        cache.save(tmp_path)
        one = make_entry(3, 3).expanded_bytes
        small = DecodeCache(capacity=None, capacity_bytes=2 * one)
        small.load(tmp_path, PARAMS)
        assert small.total_bytes <= 2 * one
        assert len(small) == 2

    def test_corrupt_and_foreign_files_skipped(self, tmp_path):
        cache = DecodeCache(capacity=8)
        cache.put(key_of(1, 2, 2), make_entry(2, 2))
        cache.save(tmp_path)
        (tmp_path / "decode_deadbeef.pkl").write_bytes(b"\x80garbage")
        (tmp_path / "decode_short.pkl").write_bytes(b"")
        (tmp_path / "decode_dict.pkl").write_bytes(
            pickle.dumps({"format": CACHE_FILE_FORMAT + 1, "key": key_of(2),
                          "entry": make_entry(1, 1)})
        )
        (tmp_path / "decode_wrongtype.pkl").write_bytes(
            pickle.dumps({"format": CACHE_FILE_FORMAT, "key": key_of(3),
                          "entry": "not an entry"})
        )
        fresh = DecodeCache(capacity=8)
        assert fresh.load(tmp_path, PARAMS) == 1
        assert fresh.keys() == [key_of(1, 2, 2)]

    def test_resident_key_wins_over_persisted(self, tmp_path):
        stale = DecodeCache(capacity=8)
        stale.put(key_of(5), make_entry(2, 2, fill=1))
        stale.save(tmp_path)
        live = DecodeCache(capacity=8)
        fresh_entry = make_entry(2, 2, fill=2)
        live.put(key_of(5), fresh_entry)
        assert live.load(tmp_path, PARAMS) == 0
        assert live._entries[key_of(5)] is fresh_entry

    def test_load_missing_dir_is_noop(self, tmp_path):
        cache = DecodeCache(capacity=4)
        assert cache.load(tmp_path / "nope", PARAMS) == 0


class TestRestoredEntryChecks:
    """``DecodeCache.load`` skips structurally invalid entries.

    The controller writes a cached expansion without re-checking its
    cells, so each rule below is what keeps a poisoned file from writing
    outside the claimed region or a malformed frame.  A skipped entry is
    not counted in ``stats.restored``.
    """

    @staticmethod
    def _restore(tmp_path, entry, key=None, params=PARAMS) -> DecodeCache:
        key = key or key_of(0, entry.config.region.w, entry.config.region.h)
        (tmp_path / "decode_poisoned.pkl").write_bytes(pickle.dumps(
            {"format": CACHE_FILE_FORMAT, "key": key, "entry": entry}
        ))
        fresh = DecodeCache(capacity=8)
        fresh.load(tmp_path, params=params)
        return fresh

    def test_well_formed_entry_restored(self, tmp_path):
        fresh = self._restore(tmp_path, make_entry(3, 2))
        assert len(fresh) == 1 and fresh.stats.restored == 1

    def test_region_must_be_the_keys_rectangle(self, tmp_path):
        wrong_size = self._restore(
            tmp_path, make_entry(3, 2), key=key_of(0, 3, 3)
        )
        assert len(wrong_size) == 0 and wrong_size.stats.restored == 0
        shifted = make_entry(3, 2)
        shifted.config.region = Rect(1, 0, 3, 2)
        fresh = self._restore(tmp_path, shifted, key=key_of(0, 3, 2))
        assert len(fresh) == 0 and fresh.stats.restored == 0

    def test_logic_cell_inside_region(self, tmp_path):
        entry = make_entry(3, 2)
        entry.config.logic[(5, 0)] = BitArray(PARAMS.nlb, 1)
        fresh = self._restore(tmp_path, entry)
        assert len(fresh) == 0 and fresh.stats.restored == 0

    def test_closed_cell_inside_region(self, tmp_path):
        entry = make_entry(3, 2)
        entry.config.closed[(0, 2)] = {1}
        fresh = self._restore(tmp_path, entry)
        assert len(fresh) == 0 and fresh.stats.restored == 0

    def test_logic_width_is_nlb(self, tmp_path):
        entry = make_entry(3, 2)
        entry.config.logic[(1, 1)] = BitArray(PARAMS.nlb + 1)
        fresh = self._restore(tmp_path, entry)
        assert len(fresh) == 0 and fresh.stats.restored == 0

    def test_switch_offsets_in_routing_region(self, tmp_path):
        for bad in (-1, PARAMS.routing_bits, 10**6):
            entry = make_entry(3, 2)
            entry.config.closed[(2, 1)] = {0, bad}
            fresh = self._restore(tmp_path, entry)
            assert len(fresh) == 0 and fresh.stats.restored == 0

    def test_params_must_match(self, tmp_path):
        fresh = self._restore(
            tmp_path, make_entry(3, 2), params=ArchParams(channel_width=8)
        )
        assert len(fresh) == 0 and fresh.stats.restored == 0
