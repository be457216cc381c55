"""``FabricManager.find_origin`` against a brute-force reference.

The manager computes the resident boxes once per call and sweeps each
candidate row for gaps between blocked intervals.  The reference below
is the straightforward scan it replaced: every candidate origin in
raster order, each one tested with ``region_free`` (a fresh ``Rect``
against every resident) and, for best-fit, scored by walking its
one-cell ring against every resident.  Both must agree on random
resident layouts, for first-fit and best-fit, with and without
``ignore=``.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.arch import ArchParams, FabricArch
from repro.runtime import (
    BEST_FIT,
    FIRST_FIT,
    ExternalMemory,
    FabricManager,
    ReconfigurationController,
)
from repro.utils.bitarray import BitArray
from repro.utils.geometry import Rect

PARAMS = ArchParams(channel_width=5)


def reference_free_perimeter(ctrl, region, ignore=None):
    bounds = ctrl.fabric.bounds
    occupied = [t.region for t in ctrl.resident.values() if t.name != ignore]
    ring = (
        [(x, region.y - 1) for x in range(region.x, region.x2)]
        + [(x, region.y2) for x in range(region.x, region.x2)]
        + [(region.x - 1, y) for y in range(region.y, region.y2)]
        + [(region.x2, y) for y in range(region.y, region.y2)]
    )
    return sum(
        1
        for (x, y) in ring
        if bounds.contains(x, y)
        and not any(r.contains(x, y) for r in occupied)
    )


def reference_find_origin(ctrl, strategy, w, h, ignore=None):
    best = best_score = None
    for y in range(ctrl.fabric.height - h + 1):
        for x in range(ctrl.fabric.width - w + 1):
            region = Rect(x, y, w, h)
            if not ctrl.region_free(region, ignore=ignore):
                continue
            if strategy == FIRST_FIT:
                return (x, y)
            score = (reference_free_perimeter(ctrl, region, ignore), x + y)
            if best_score is None or score < best_score:
                best, best_score = (x, y), score
    return best


@st.composite
def layouts(draw):
    """A fabric size plus resident rectangles placed where they fit."""
    width = draw(st.integers(1, 10))
    height = draw(st.integers(1, 8))
    rects = draw(st.lists(
        st.tuples(
            st.integers(0, width - 1), st.integers(0, height - 1),
            st.integers(1, width), st.integers(1, height),
        ),
        max_size=8,
    ))
    return width, height, rects


def build(width, height, rects):
    fabric = FabricArch(
        PARAMS, width, height,
        {(x, y): "clb" for x in range(width) for y in range(height)},
    )
    ctrl = ReconfigurationController(fabric, ExternalMemory())
    for i, (x, y, w, h) in enumerate(rects):
        if not ctrl.region_free(Rect(x, y, w, h)):
            continue
        name = f"r{i}"
        ctrl.memory.store(name, BitArray(w * h * PARAMS.nraw), "raw", w, h)
        ctrl.load_task(name, (x, y))
    return ctrl


@settings(
    deadline=None, max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    layout=layouts(),
    strategy=st.sampled_from([FIRST_FIT, BEST_FIT]),
    w=st.integers(0, 11),
    h=st.integers(0, 9),
    ignore_pick=st.integers(-1, 7),
)
# A full-width box ending at row 1: row 1 is free, row 0 is not.
@example(layout=(4, 3, [(0, 0, 4, 1)]), strategy=FIRST_FIT, w=1, h=1,
         ignore_pick=-1)
@example(layout=(3, 3, [(0, 0, 3, 1), (0, 2, 1, 1)]), strategy=BEST_FIT,
         w=1, h=1, ignore_pick=-1)
def test_find_origin_matches_reference(layout, strategy, w, h, ignore_pick):
    ctrl = build(*layout)
    names = sorted(ctrl.resident)
    ignore = names[ignore_pick % len(names)] if (
        names and ignore_pick >= 0
    ) else None
    mgr = FabricManager(ctrl, strategy=strategy)
    origin = mgr.find_origin(w, h, ignore=ignore)
    assert origin == reference_find_origin(
        ctrl, strategy, w, h, ignore=ignore
    )
    if strategy == BEST_FIT:
        grid = mgr._occupancy(ignore)
        for y in range(ctrl.fabric.height - h + 1):
            for x in range(ctrl.fabric.width - w + 1):
                region = Rect(x, y, w, h)
                assert mgr._free_perimeter(
                    region, grid=grid
                ) == reference_free_perimeter(ctrl, region, ignore)
