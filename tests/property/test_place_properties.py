"""Property suite: the placer's incremental bounding boxes never drift.

The annealer keeps, per net, its bounding box plus the number of pins on
each edge, and updates them move by move.  Over random designs — with
instances holding several pins of one net, input and output pads, and
fabrics both full (every move a swap) and roomy (moves into empty sites)
— every accepted or reverted move must leave each net's stored box, edge
counts and cost equal to a from-scratch scan of the current locations,
and the running total equal to the sum of the net costs.
"""

from __future__ import annotations

import importlib
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import ArchParams, FabricArch
from repro.cad.flow import required_logic_size, required_pad_ring
from repro.cad.pack import ClbInst, PackedDesign, PadInst

place_mod = importlib.import_module("repro.cad.place")

COMMON = settings(
    deadline=None, max_examples=60, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

PARAMS = ArchParams(channel_width=4)
#: Accept-everything, mixed, and downhill-only temperatures.
TEMPERATURES = (float("inf"), 4.0, 1.0, 0.0)


@st.composite
def designs(draw):
    """A random packed design; nets may repeat on one block's inputs."""
    k = PARAMS.lut_size
    n_clbs = draw(st.integers(2, 10))
    n_in = draw(st.integers(0, 3))
    n_out = draw(st.integers(0, 3))
    nets = [f"n{i}" for i in range(n_clbs)] + [f"pi{j}" for j in range(n_in)]
    net = st.sampled_from(nets)
    clbs = [
        ClbInst(
            f"c{i}",
            tuple(draw(st.lists(st.none() | net, min_size=k, max_size=k))),
            f"n{i}",
            0,
            draw(st.booleans()),
        )
        for i in range(n_clbs)
    ]
    pads = [PadInst(f"i{j}", f"pi{j}", True) for j in range(n_in)]
    pads += [PadInst(f"o{j}", draw(net), False) for j in range(n_out)]
    return PackedDesign("prop", k, clbs, pads)


def fabric_for(design: PackedDesign, slack: int) -> FabricArch:
    size = max(
        required_logic_size(design.num_clbs),
        required_pad_ring(design.num_pads),
    )
    return FabricArch.island(PARAMS, size + slack)


def assert_state_exact(eng) -> None:
    for ni, pins in enumerate(eng.net_pins):
        fresh = place_mod._bbox(eng.loc[inst] for inst in pins)
        assert eng.bb[ni] == fresh, f"net {ni}"
        assert eng.net_cost[ni] == place_mod._bbox_cost(fresh)
    assert eng.cost == sum(eng.net_cost)
    assert all(eng.occupant[site] == inst for inst, site in eng.loc.items())


@COMMON
@given(
    designs(),
    st.integers(0, 2),
    st.integers(0, 2**16),
    st.lists(
        st.tuples(st.sampled_from(TEMPERATURES), st.integers(1, 8)),
        min_size=1, max_size=40,
    ),
)
def test_incremental_state_matches_scan(design, slack, seed, moves):
    eng = place_mod._Annealer(design, fabric_for(design, slack), seed)
    eng._initial_place()
    assert_state_exact(eng)
    for temperature, rlim in moves:
        eng._try_move(temperature, float(rlim))
        assert_state_exact(eng)


@settings(COMMON, max_examples=20)
@given(designs(), st.integers(0, 2), st.integers(0, 2**16))
def test_annealed_cost_is_exact_hpwl(design, slack, seed):
    placement = place_mod.place(design, fabric_for(design, slack), seed)
    assert placement.cost == placement.hpwl()


def test_suite_exercises_every_update_path(monkeypatch):
    """Non-vacuity: on one fixed design the driver above reaches shared
    swap nets of equal and of unequal multiplicity, moves into empty
    sites, and fallback scans."""
    k = PARAMS.lut_size
    pad = (None,) * (k - 3)
    clbs = [
        # c0 feeds itself and reads n1 twice: multiplicity 2 on n0, n1.
        ClbInst("c0", ("n0", "n1", "n1") + pad, "n0", 0, True),
        ClbInst("c1", ("n0", "n2", "n3") + pad, "n1", 0, False),
        ClbInst("c2", ("n1", "n0", None) + pad, "n2", 0, False),
        ClbInst("c3", ("n2", "n2", "n1") + pad, "n3", 0, False),
    ]
    pads = [PadInst("o0", "n3", False), PadInst("o1", "n0", False)]
    design = PackedDesign("paths", k, clbs, pads)
    eng = place_mod._Annealer(design, fabric_for(design, 1), 5)
    eng._initial_place()

    scans = Counter()
    real_bbox = place_mod._bbox

    def counting_bbox(sites):
        scans["fallback"] += 1
        return real_bbox(sites)

    monkeypatch.setattr(place_mod, "_bbox", counting_bbox)
    seen = Counter()
    for _ in range(400):
        before = dict(eng.loc)
        # At infinite temperature every move is accepted, so the moved
        # blocks are visible in the location diff.
        eng._try_move(float("inf"), 3.0)
        moved = [i for i in eng.loc if eng.loc[i] != before[i]]
        if len(moved) == 1:
            seen["empty-site move"] += 1
        elif len(moved) == 2:
            a, b = (eng.nets_of[i] for i in moved)
            for ni in a.keys() & b.keys():
                seen["equal" if a[ni] == b[ni] else "unequal"] += 1
    monkeypatch.undo()
    assert_state_exact(eng)
    assert seen["empty-site move"] and seen["equal"] and seen["unequal"]
    assert scans["fallback"]
