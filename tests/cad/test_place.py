"""Simulated-annealing placement."""

import hashlib
import signal
from contextlib import contextmanager

import pytest

from repro.arch import ArchParams, FabricArch
from repro.cad import pack, place, run_flow
from repro.errors import PlacementError
from repro.netlist import CircuitSpec, generate_circuit
from repro.netlist.blif import parse_blif


def placement_signature(placement) -> str:
    """Digest of every instance's exact site plus the final cost."""
    h = hashlib.sha256()
    for inst, (x, y, sub) in sorted(placement.locations.items()):
        h.update(f"{inst}@{x},{y},{sub};".encode())
    h.update(repr(placement.cost).encode())
    return h.hexdigest()


@contextmanager
def deadline(seconds: float):
    """Fail the enclosed block with TimeoutError instead of hanging."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def design():
    return pack(
        generate_circuit(CircuitSpec("pl", n_luts=30, n_inputs=8, n_outputs=6)),
        6,
    )


@pytest.fixture(scope="module")
def fabric(params8):
    return FabricArch.island(params8, 7)


class TestPlacement:
    def test_all_instances_placed(self, design, fabric):
        pl = place(design, fabric, seed=1)
        assert len(pl.locations) == design.num_clbs + design.num_pads

    def test_clbs_on_logic_cells_pads_on_ring(self, design, fabric):
        pl = place(design, fabric, seed=1)
        for clb in design.clbs:
            x, y, sub = pl.site_of(clb.name)
            assert fabric.type_name_at(x, y) == "clb" and sub == 0
        for pad in design.pads:
            x, y, sub = pl.site_of(pad.name)
            assert fabric.type_name_at(x, y) == "iob" and sub in (0, 1)

    def test_no_site_shared(self, design, fabric):
        pl = place(design, fabric, seed=2)
        sites = list(pl.locations.values())
        assert len(sites) == len(set(sites))

    def test_deterministic(self, design, fabric):
        a = place(design, fabric, seed=5)
        b = place(design, fabric, seed=5)
        assert a.locations == b.locations

    def test_seed_changes_result(self, design, fabric):
        a = place(design, fabric, seed=1)
        b = place(design, fabric, seed=2)
        assert a.locations != b.locations

    def test_annealing_beats_random(self, design, fabric):
        # The final cost must improve substantially on the initial random
        # placement (compare against a fresh random assignment's HPWL).
        from repro.cad.place import _Annealer

        eng = _Annealer(design, fabric, seed=3)
        eng._initial_place()
        random_cost = eng.total_cost()
        pl = place(design, fabric, seed=3)
        assert pl.hpwl() < 0.7 * random_cost

    def test_cost_tracks_hpwl(self, design, fabric):
        # Net costs are integers, so the incrementally tracked cost is
        # exact, not merely close.
        pl = place(design, fabric, seed=4)
        assert pl.cost == pl.hpwl()

    def test_placement_byte_identity_pinned(self, tiny_flow, small_flow):
        """The exact placements are pinned, like the route signatures in
        ``test_route_sparse``: a change to the move set, the RNG draw
        order or the cost arithmetic must show up here."""
        assert tiny_flow.placement.cost == 53.0
        assert placement_signature(tiny_flow.placement) == (
            "0343e99fddce323393f711a9a20aaf618f4a4e8f73edf6dd18c6df48fd6d0d67"
        )
        assert small_flow.placement.cost == 317.0
        assert placement_signature(small_flow.placement) == (
            "9c251822a72179d24562b7829d76f2efb85e770e0137b1608188b5a4492dcbc4"
        )

    def test_zero_cost_design_terminates(self):
        # Two self-contained latch loops: every net stays inside one CLB,
        # so the cost is 0 from the start and the relative exit test
        # (temperature below a fraction of cost per net) never passes.
        netlist = parse_blif(
            ".model loops\n"
            ".latch na a re clk 0\n.names a na\n0 1\n"
            ".latch nb b re clk 0\n.names b nb\n0 1\n"
            ".end\n"
        )
        with deadline(10.0):
            flow = run_flow(netlist, ArchParams(channel_width=8), seed=1)
        assert flow.placement.cost == 0 == flow.placement.hpwl()
        assert len(flow.routing.trees) == 2

    def test_too_many_blocks_rejected(self, params8):
        big = pack(
            generate_circuit(CircuitSpec("big", 30, 6, 4)), 6
        )
        tiny_fabric = FabricArch.island(params8, 3)  # 9 logic sites
        with pytest.raises(PlacementError):
            place(big, tiny_fabric, seed=1)

    def test_unplaced_instance_query(self, design, fabric):
        pl = place(design, fabric, seed=1)
        with pytest.raises(PlacementError):
            pl.site_of("nonexistent")
