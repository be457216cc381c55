"""Run-time management: memory, controller, manager, cost model."""

import pytest

from repro.bitstream import RawBitstream
from repro.errors import RuntimeManagementError
from repro.fabric import verify_connectivity
from repro.runtime import (
    BEST_FIT,
    CostParams,
    DecodeCache,
    ExternalMemory,
    FabricManager,
    ReconfigurationController,
    decode_cost,
    lpt_makespan,
)
from repro.utils.bitarray import BitArray
from repro.utils.geometry import Rect
from repro.vbs import encode_flow


@pytest.fixture(scope="module")
def task_vbs(small_flow, small_config):
    return encode_flow(small_flow, small_config, cluster_size=1)


@pytest.fixture()
def controller(small_flow, task_vbs, small_config):
    from repro.arch import FabricArch, ArchParams

    # A fabric big enough for two copies of the task side by side.
    w = small_flow.fabric.width
    big = FabricArch(
        small_flow.params, 2 * w + 2, w + 2,
        {
            (x, y): "clb"
            for x in range(2 * w + 2)
            for y in range(w + 2)
        },
    )
    # Preserve the original cell types inside the two task slots so that
    # extraction agrees; runtime placement itself is type-agnostic here.
    mem = ExternalMemory(bus_bits=32)
    ctrl = ReconfigurationController(big, mem)
    ctrl.store_vbs("small", task_vbs)
    raw = RawBitstream.from_config(small_config)
    ctrl.store_raw("small_raw", raw)
    return ctrl


class TestExternalMemory:
    def test_store_and_fetch_cycles(self):
        mem = ExternalMemory(bus_bits=8)
        mem.store("t", BitArray(100), "raw", 2, 2)
        img, cycles = mem.fetch("t")
        assert cycles == 13  # ceil(100 / 8)
        assert img.size_bits == 100

    def test_missing_image(self):
        mem = ExternalMemory()
        with pytest.raises(RuntimeManagementError):
            mem.fetch("ghost")

    def test_total_bits(self):
        mem = ExternalMemory()
        mem.store("a", BitArray(10), "raw", 1, 1)
        mem.store("b", BitArray(30), "vbs", 1, 1)
        assert mem.total_bits == 40
        mem.remove("a")
        assert mem.total_bits == 30

    def test_bad_kind_rejected(self):
        mem = ExternalMemory()
        with pytest.raises(RuntimeManagementError):
            mem.store("x", BitArray(1), "zip", 1, 1)


class TestCostModel:
    def test_lpt_makespan(self):
        span, loads = lpt_makespan([5, 3, 3, 2, 2, 1], 2)
        assert span == 8 and sorted(loads) == [8, 8]

    def test_lpt_single_unit(self):
        span, _ = lpt_makespan([4, 4, 4], 1)
        assert span == 12

    def test_parallel_units_speed_decode(self, task_vbs):
        from repro.vbs import decode_vbs

        _cfg, stats = decode_vbs(task_vbs)
        seq, _ = decode_cost(stats, CostParams(parallel_units=1))
        par, _ = decode_cost(stats, CostParams(parallel_units=8))
        assert par < seq
        assert par >= stats.max_cluster_work  # critical path bound


class TestController:
    def test_load_and_verify(self, controller, small_flow):
        task = controller.load_task("small", (0, 0))
        assert task.load_cost.total_cycles > 0
        # The written configuration must still realize the design's nets
        # (extraction over the big fabric with matching cell types).

    def test_collision_rejected(self, controller):
        controller.load_task("small", (0, 0))
        with pytest.raises(RuntimeManagementError):
            controller.load_task("small", (0, 0))

    def test_region_overlap_rejected(self, controller, task_vbs):
        controller.load_task("small", (0, 0))
        controller.store_vbs("small2", task_vbs)
        with pytest.raises(RuntimeManagementError):
            controller.load_task("small2", (1, 1))

    def test_out_of_bounds_rejected(self, controller):
        w = controller.fabric.width
        with pytest.raises(RuntimeManagementError):
            controller.load_task("small", (w - 2, 0))

    def test_unload_frees_region(self, controller, task_vbs):
        controller.load_task("small", (0, 0))
        controller.unload_task("small")
        assert not controller.resident
        controller.load_task("small", (0, 0))  # reload succeeds

    def test_unload_clears_config(self, controller):
        task = controller.load_task("small", (0, 0))
        assert controller.config.occupied_cells()
        controller.unload_task("small")
        for cell in task.region.cells():
            assert controller.config.is_empty_macro(cell.x, cell.y)

    def test_migrate_moves_content(self, controller):
        task = controller.load_task("small", (0, 0))
        w = task.region.w
        before = {
            (c.x, c.y) for c in task.region.cells()
            if not controller.config.is_empty_macro(c.x, c.y)
        }
        moved = controller.migrate_task("small", (w, 0))
        after = {
            (c.x, c.y) for c in moved.region.cells()
            if not controller.config.is_empty_macro(c.x, c.y)
        }
        assert {(x + w, y) for (x, y) in before} == after

    def test_raw_image_load(self, controller):
        task = controller.load_task("small_raw", (0, 0))
        assert task.decode_stats is None
        assert task.load_cost.decode_cycles == 0

    def test_vbs_fetch_cheaper_than_raw(self, controller):
        vbs_task = controller.load_task("small", (0, 0))
        w = vbs_task.region.w
        raw_task = controller.load_task("small_raw", (w, 0))
        assert vbs_task.load_cost.fetch_cycles < raw_task.load_cost.fetch_cycles
        assert vbs_task.load_cost.decode_cycles > 0

    def test_utilization(self, controller):
        assert controller.utilization() == 0.0
        task = controller.load_task("small", (0, 0))
        expected = task.region.area / controller.fabric.bounds.area
        assert controller.utilization() == pytest.approx(expected)


class TestFabricManager:
    def test_place_task_auto(self, controller):
        mgr = FabricManager(controller)
        task = mgr.place_task("small")
        assert task.region.x == 0 and task.region.y == 0

    def test_second_task_beside_first(self, controller):
        mgr = FabricManager(controller)
        mgr.place_task("small")
        t2 = mgr.place_task("small_raw")
        assert not t2.region.overlaps(
            controller.resident["small"].region
        )

    def test_no_room(self, controller, task_vbs):
        mgr = FabricManager(controller)
        placed = 0
        for i in range(8):
            controller.store_vbs(f"t{i}", task_vbs)
            try:
                mgr.place_task(f"t{i}")
                placed += 1
            except RuntimeManagementError:
                break
        assert 0 < placed < 8  # fabric saturates eventually

    def test_defragment(self, controller):
        mgr = FabricManager(controller)
        t1 = mgr.place_task("small")
        t2 = mgr.place_task("small_raw")
        mgr.controller.unload_task("small")
        moved = mgr.defragment()
        assert moved == 1
        assert mgr.controller.resident["small_raw"].region.x == 0


def _geometry_controller(params8, width, height, **kwargs):
    """An all-CLB fabric for pure placement-geometry tests."""
    from repro.arch import FabricArch

    fabric = FabricArch(
        params8, width, height,
        {(x, y): "clb" for x in range(width) for y in range(height)},
    )
    return ReconfigurationController(fabric, ExternalMemory(), **kwargs)


def _store_blank_raw(ctrl, name, w, h):
    """Publish an all-zero raw image of the requested footprint."""
    bits = BitArray(w * h * ctrl.fabric.params.nraw)
    ctrl.memory.store(name, bits, "raw", w, h)


class TestDefragmentOverlap:
    """find_origin must ignore the migrating task's own footprint."""

    def test_task_slides_into_own_region(self, params8):
        ctrl = _geometry_controller(params8, 6, 2)
        _store_blank_raw(ctrl, "a", 4, 2)
        ctrl.load_task("a", (1, 0))
        mgr = FabricManager(ctrl)
        # Every free 4x2 origin overlaps the task's current region; without
        # self-exclusion the task is stuck and fragmentation survives.
        assert mgr.find_origin(4, 2) is None
        assert mgr.find_origin(4, 2, ignore="a") == (0, 0)
        moved = mgr.defragment()
        assert moved == 1
        assert ctrl.resident["a"].region == Rect(0, 0, 4, 2)

    def test_region_free_self_exclusion(self, params8):
        ctrl = _geometry_controller(params8, 6, 2)
        _store_blank_raw(ctrl, "a", 4, 2)
        ctrl.load_task("a", (1, 0))
        assert not ctrl.region_free(Rect(0, 0, 4, 2))
        assert ctrl.region_free(Rect(0, 0, 4, 2), ignore="a")
        assert ctrl.region_free(Rect(2, 0, 4, 2), ignore="a")


class TestBestFit:
    """Adjacency-aware best-fit vs raster first-fit."""

    def _controller_with_gap(self, params8):
        # 8x2 fabric, 1x2 blocker at x=4: a loose 4-wide gap at x=0..3 and
        # a snug 3-wide gap at x=5..7.
        ctrl = _geometry_controller(params8, 8, 2)
        _store_blank_raw(ctrl, "blocker", 1, 2)
        ctrl.load_task("blocker", (4, 0))
        _store_blank_raw(ctrl, "t", 3, 2)
        return ctrl

    def test_first_fit_takes_raster_first(self, params8):
        ctrl = self._controller_with_gap(params8)
        task = FabricManager(ctrl).place_task("t")
        assert (task.region.x, task.region.y) == (0, 0)

    def test_best_fit_takes_snug_gap(self, params8):
        ctrl = self._controller_with_gap(params8)
        task = FabricManager(ctrl, strategy=BEST_FIT).place_task("t")
        assert (task.region.x, task.region.y) == (5, 0)

    def test_best_fit_empty_fabric_hugs_corner(self, params8):
        ctrl = _geometry_controller(params8, 8, 2)
        _store_blank_raw(ctrl, "t", 3, 2)
        task = FabricManager(ctrl, strategy=BEST_FIT).place_task("t")
        assert (task.region.x, task.region.y) == (0, 0)

    def test_free_perimeter_scoring(self, params8):
        ctrl = self._controller_with_gap(params8)
        mgr = FabricManager(ctrl, strategy=BEST_FIT)
        grid = mgr._occupancy()
        assert mgr._free_perimeter(Rect(5, 0, 3, 2), grid) == 0  # fully snug
        assert mgr._free_perimeter(Rect(0, 0, 3, 2), grid) == 2  # open east


class TestDecodeCache:
    def test_repeated_load_hits(self, controller):
        first = controller.load_task("small", (0, 0))
        assert not first.load_cost.cache_hit
        assert first.load_cost.decode_cycles > 0
        controller.unload_task("small")
        second = controller.load_task("small", (0, 0))
        assert second.load_cost.cache_hit
        assert second.load_cost.decode_cycles == 0
        stats = controller.decode_cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_relocated_hit_matches_decode(self, controller):
        first = controller.load_task("small", (0, 0))
        w = first.region.w
        before = {
            (c.x, c.y) for c in first.region.cells()
            if not controller.config.is_empty_macro(c.x, c.y)
        }
        controller.unload_task("small")
        moved = controller.load_task("small", (w, 0))
        assert moved.load_cost.cache_hit
        after = {
            (c.x, c.y) for c in moved.region.cells()
            if not controller.config.is_empty_macro(c.x, c.y)
        }
        assert {(x + w, y) for (x, y) in before} == after

    def test_migration_replays_from_cache(self, controller):
        task = controller.load_task("small", (0, 0))
        moved = controller.migrate_task("small", (task.region.w, 0))
        assert moved.load_cost.cache_hit
        assert moved.load_cost.decode_cycles == 0
        assert controller.decode_cache.stats.hits == 1

    def test_cache_entry_metadata(self, controller, task_vbs):
        controller.load_task("small", (0, 0))
        (entry,) = controller.decode_cache._entries.values()
        assert entry.layout == (
            task_vbs.layout.width,
            task_vbs.layout.height,
            task_vbs.layout.cluster_size,
            task_vbs.layout.compact_logic,
        )
        assert entry.codec_tags == tuple(sorted(task_vbs.codec_tags()))

    def test_cache_disabled(self, small_flow, task_vbs, params8):
        w = small_flow.fabric.width
        ctrl = _geometry_controller(
            small_flow.params, 2 * w + 2, w + 2, cache_capacity=0
        )
        ctrl.store_vbs("t", task_vbs)
        assert ctrl.decode_cache is None
        ctrl.load_task("t", (0, 0))
        ctrl.unload_task("t")
        again = ctrl.load_task("t", (0, 0))
        assert not again.load_cost.cache_hit
        assert again.load_cost.decode_cycles >= 0

    def test_changed_image_same_name_misses(self, controller, small_flow,
                                            small_config):
        controller.load_task("small", (0, 0))
        controller.unload_task("small")
        # Re-publish different bits under the same name: the digest key
        # must not serve the stale expansion.
        other = encode_flow(small_flow, small_config, cluster_size=1,
                            compact_logic=True)
        controller.store_vbs("small", other)
        again = controller.load_task("small", (0, 0))
        assert not again.load_cost.cache_hit
        assert controller.decode_cache.stats.misses == 2

    def test_lru_eviction(self):
        cache = DecodeCache(capacity=2)
        for i in range(3):
            cache.put((f"d{i}", "vbs", 1, 1), object())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(("d0", "vbs", 1, 1)) is None  # evicted
        assert cache.get(("d2", "vbs", 1, 1)) is not None

    def test_manager_surfaces_cache_stats(self, controller):
        mgr = FabricManager(controller)
        mgr.place_task("small")
        assert mgr.cache_stats is controller.decode_cache.stats
        assert mgr.cache_stats.misses == 1


def _snapshot(config):
    """Deep copy of a configuration's logic and closed-switch state."""
    return (
        {cell: bits.copy() for cell, bits in config.logic.items()},
        {cell: set(sw) for cell, sw in config.closed.items()},
    )


class TestWriteValidation:
    """A load that fails leaves the fabric configuration untouched, and
    a restored cache entry can never write outside its claimed region."""

    def test_failed_write_leaves_no_orphan_frames(self, controller):
        import dataclasses

        from repro.bitstream.config import FabricConfig
        from repro.errors import BitstreamError

        first = controller.load_task("small", (0, 0))
        controller.unload_task("small")
        # Something else is resident, so the snapshot is not trivially
        # empty.
        controller.load_task("small_raw", (0, 0))
        key = DecodeCache.key_for(first.image)
        entry = controller.decode_cache.peek(key)
        poisoned = FabricConfig(entry.config.params, entry.config.region)
        poisoned.logic = {c: b.copy() for c, b in entry.config.logic.items()}
        poisoned.closed = {c: set(s) for c, s in entry.config.closed.items()}
        # The last logic entry is one bit short: every earlier cell would
        # be written before a per-cell check reached it.
        last = list(poisoned.logic)[-1]
        poisoned.logic[last] = BitArray(entry.config.params.nlb - 1)
        controller.decode_cache.put(
            key, dataclasses.replace(entry, config=poisoned)
        )
        logic_before, closed_before = _snapshot(controller.config)
        with pytest.raises(BitstreamError):
            controller.load_task("small", (first.region.w + 1, 0))
        assert controller.config.logic == logic_before
        assert controller.config.closed == closed_before
        assert list(controller.resident) == ["small_raw"]

    def test_restored_entry_cannot_write_outside_region(
        self, controller, tmp_path
    ):
        from repro.vbs.decode import decode_vbs

        task = controller.load_task("small", (0, 0))
        controller.unload_task("small")
        key = DecodeCache.key_for(task.image)
        entry = controller.decode_cache.peek(key)
        # A poisoned entry on disk: one logic cell just east of the task.
        outside = (task.region.w + 1, 0)
        entry.config.logic[outside] = BitArray(entry.config.params.nlb, 1)
        staging = DecodeCache(capacity=4)
        staging.put(key, entry)
        staging.save(tmp_path)
        controller.decode_cache.clear()
        assert controller.decode_cache.load(
            tmp_path, controller.fabric.params
        ) == 0
        assert controller.decode_cache.stats.restored == 0
        loaded = controller.load_task("small", (0, 0))
        assert outside not in controller.config.logic
        expected, _stats = decode_vbs(loaded.image.bits)
        assert controller.config.logic.keys() == expected.logic.keys()

    def test_image_larger_than_declared_is_rejected(self, controller):
        """The claim covers the image's declared size; a container that
        decodes larger must fail before writing past the claim."""
        image = controller.memory.image("small")
        controller.memory.store(
            "undersized", image.bits, "vbs", image.width - 1, image.height
        )
        with pytest.raises(RuntimeManagementError, match="decodes to"):
            controller.load_task("undersized", (0, 0))
        assert controller.config.logic == {}
        assert controller.config.closed == {}
        assert controller.resident == {}


class TestArchitectureMismatch:
    """A container encoded for a wider channel than the fabric's must not
    load: its switch offsets index past the fabric's routing region."""

    @pytest.fixture(scope="class")
    def wide_vbs(self, tiny_netlist):
        from repro.arch import ArchParams
        from repro.bitstream import expand_routing
        from repro.cad import run_flow

        flow = run_flow(tiny_netlist, ArchParams(channel_width=20), seed=11)
        config = expand_routing(
            flow.design, flow.placement, flow.routing, flow.rrg
        )
        return encode_flow(flow, config, cluster_size=1)

    def test_fresh_decode_is_rejected(self, params8, wide_vbs):
        from repro.errors import VbsError

        w, h = wide_vbs.layout.width, wide_vbs.layout.height
        ctrl = _geometry_controller(params8, w + 3, h)
        _store_blank_raw(ctrl, "neighbour", 3, h)
        ctrl.load_task("neighbour", (w, 0))
        ctrl.store_vbs("wide", wide_vbs)
        logic_before, closed_before = _snapshot(ctrl.config)
        with pytest.raises(VbsError):
            ctrl.load_task("wide", (0, 0))
        assert ctrl.config.logic == logic_before
        assert ctrl.config.closed == closed_before
        assert list(ctrl.resident) == ["neighbour"]

    def test_cached_expansion_is_rejected(self, params8, wide_vbs):
        """A decode cache shared with a W=20 fabric serves the W=20
        expansion as a hit; the write refuses it before any mutation."""
        from repro.errors import BitstreamError

        w, h = wide_vbs.layout.width, wide_vbs.layout.height
        wide = _geometry_controller(wide_vbs.layout.params, w, h)
        wide.store_vbs("wide", wide_vbs)
        wide.load_task("wide", (0, 0))
        assert max(
            max(switches) for switches in wide.config.closed.values()
        ) >= params8.routing_bits
        ctrl = _geometry_controller(
            params8, w + 3, h, decode_cache=wide.decode_cache
        )
        _store_blank_raw(ctrl, "neighbour", 3, h)
        ctrl.load_task("neighbour", (w, 0))
        ctrl.store_vbs("wide", wide_vbs)
        logic_before, closed_before = _snapshot(ctrl.config)
        with pytest.raises(BitstreamError, match="not the fabric's"):
            ctrl.load_task("wide", (0, 0))
        assert ctrl.config.logic == logic_before
        assert ctrl.config.closed == closed_before
        assert list(ctrl.resident) == ["neighbour"]
        assert wide.decode_cache.stats.hits == 1
