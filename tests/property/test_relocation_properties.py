"""Relocated loads equal a cold decode, and never alias the decode cache.

A load writes the cached origin-(0, 0) expansion straight into the
fabric configuration at the target offset.  Over in-bounds origins, with
the decode cache on and off, for a self-contained VBS, a VBS that
references a shared dictionary and a raw image, and across
``migrate_task``:

* the controller's region is ``content_equal`` to a cold
  ``decode_vbs(origin=...)`` (``RawBitstream.to_config(origin)`` for the
  raw image);
* mutating ``ctrl.config.logic[c]`` in place or ``ctrl.config.closed[c]``
  after a load leaves the cached entry unchanged;
* an unload clears exactly its region and no cell outside it.

CI also runs this module under ``REPRO_NO_NUMPY=1``, which covers both
bit-kernel backends.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import FabricArch
from repro.bitstream import FabricConfig, RawBitstream
from repro.runtime import (
    DecodeCache,
    ExternalMemory,
    FabricManager,
    ReconfigurationController,
    synthesize_task_scope_images,
)
from repro.utils.geometry import Rect
from repro.vbs import encode_flow
from repro.vbs.decode import decode_vbs

KINDS = ("vbs", "shared", "raw")


@pytest.fixture(scope="module")
def images(tiny_flow, tiny_config):
    """(vbs, raw, shared-dict task result): tiny, cheap to decode."""
    vbs = encode_flow(tiny_flow, tiny_config, cluster_size=1)
    raw = RawBitstream.from_config(tiny_config)
    ((_names, task),) = synthesize_task_scope_images(
        n_tasks=1, containers_per_task=2, seed=1, base_luts=12
    )
    assert task.shared and task.containers[0].layout.params == vbs.layout.params
    return vbs, raw, task


def make_controller(images, kind, cached):
    """A fabric three task-widths by two task-heights, with ``kind`` and
    a twin of it (same bits, other name) in external memory."""
    vbs, raw, task = images
    params = vbs.layout.params
    memory = ExternalMemory()
    if kind == "shared":
        memory.store_shared_dict(task.dict_id, task.table)
        container = task.containers[0]
        bits, w, h = (
            container.to_bits(), container.layout.width,
            container.layout.height,
        )
    elif kind == "vbs":
        bits, w, h = vbs.to_bits(), vbs.layout.width, vbs.layout.height
    else:
        bits, w, h = raw.bits, raw.width, raw.height
    image_kind = "raw" if kind == "raw" else "vbs"
    for name in (kind, kind + ".twin"):
        memory.store(name, bits, image_kind, w, h)
    fabric = FabricArch(
        params, 3 * w, 2 * h,
        {(x, y): "clb" for x in range(3 * w) for y in range(2 * h)},
    )
    return ReconfigurationController(
        fabric, memory, cache_capacity=16 if cached else None
    )


def cold_config(ctrl, image, origin):
    if image.kind == "raw":
        raw = RawBitstream(
            ctrl.fabric.params, image.width, image.height, image.bits
        )
        return raw.to_config(origin)
    config, _stats = decode_vbs(
        image.bits, origin=origin, shared_dicts=ctrl.memory.shared_dict
    )
    return config


def region_config(ctrl, region):
    """The fabric configuration restricted to ``region``."""
    out = FabricConfig(ctrl.fabric.params, region)
    out.logic = {
        c: b for c, b in ctrl.config.logic.items() if region.contains(*c)
    }
    out.closed = {
        c: s for c, s in ctrl.config.closed.items() if region.contains(*c)
    }
    return out


def assert_matches_cold_decode(ctrl, task):
    origin = (task.region.x, task.region.y)
    expected = cold_config(ctrl, task.image, origin)
    assert region_config(ctrl, task.region).content_equal(expected)


def config_digest(config):
    h = hashlib.sha256()
    for cell, bits in sorted(config.logic.items()):
        h.update(repr((cell, len(bits))).encode() + bits.to_bytes())
    for cell, switches in sorted(config.closed.items()):
        h.update(repr((cell, sorted(switches))).encode())
    return h.hexdigest()


def in_bounds_origin(ctrl, image):
    return st.tuples(
        st.integers(0, ctrl.fabric.width - image.width),
        st.integers(0, ctrl.fabric.height - image.height),
    )


@settings(
    deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(KINDS), st.booleans(), st.data())
def test_relocation_equivalence_and_no_aliasing(images, kind, cached, data):
    ctrl = make_controller(images, kind, cached)
    image = ctrl.memory.image(kind)
    task = ctrl.load_task(kind, data.draw(in_bounds_origin(ctrl, image)))
    assert_matches_cold_decode(ctrl, task)

    # Mutate the written frames in place: the cached entry must not move.
    entry = (
        ctrl.decode_cache.peek(DecodeCache.key_for(image))
        if ctrl.decode_cache is not None
        else None
    )
    assert (entry is not None) == (cached and kind != "raw")
    before = config_digest(entry.config) if entry is not None else None
    mine = region_config(ctrl, task.region)
    for cell, bits in mine.logic.items():
        bits[0] = 1 - bits[0]
    for cell, switches in mine.closed.items():
        switches.add(next(
            o for o in range(ctrl.fabric.params.routing_bits)
            if o not in switches
        ))
    if entry is not None:
        assert config_digest(entry.config) == before

    # The twin is a cache hit (when cached) written next to the task.
    twin = FabricManager(ctrl).place_task(kind + ".twin")
    assert twin.load_cost.cache_hit == (entry is not None)
    assert_matches_cold_decode(ctrl, twin)

    target = data.draw(in_bounds_origin(ctrl, image))
    if ctrl.region_free(Rect(*target, image.width, image.height), ignore=kind):
        task = ctrl.migrate_task(kind, target)
        assert_matches_cold_decode(ctrl, task)
        assert_matches_cold_decode(ctrl, twin)

    # An unload clears exactly its own region.
    logic = {c: b.copy() for c, b in ctrl.config.logic.items()}
    closed = {c: set(s) for c, s in ctrl.config.closed.items()}
    ctrl.unload_task(kind)
    assert ctrl.config.logic == {
        c: b for c, b in logic.items() if not task.region.contains(*c)
    }
    assert ctrl.config.closed == {
        c: s for c, s in closed.items() if not task.region.contains(*c)
    }
    assert_matches_cold_decode(ctrl, twin)
