"""Simulated-annealing placement (the VPR placer of the paper's flow).

Blocks are assigned to fabric sites — CLBs to interior cells, pads to IOB
perimeter sub-sites — minimizing the classic half-perimeter wirelength
(HPWL) objective with the adaptive VPR annealing schedule: the temperature
multiplier and the move-range window both react to the acceptance rate.

Move costs are incremental (VPR's bounding-box update): every net keeps
its extent plus how many pins sit on each edge, so moving a block updates
each of its nets in O(1) and only a pin leaving an edge it held alone forces
a rescan of that net.  Net costs are integers, so the result is bit-identical
to recomputing every touched net from scratch.

The placer is deterministic for a given (design, fabric, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.arch.fabric import FabricArch
from repro.cad.pack import PackedDesign
from repro.errors import PlacementError
from repro.utils.rng import make_rng

Site = Tuple[int, int, int]  # (x, y, sub-site)

#: A net's bounding box: ``[xmin, xmax, ymin, ymax]`` followed by the number
#: of pins on each of those four edges (a site counts once per pin it holds).
BBox = List[int]


def _bbox(sites: Iterable[Site]) -> BBox:
    """From-scratch bounding box and edge pin counts of a net's pin sites."""
    it = iter(sites)
    xmin, ymin, _ = next(it)
    xmax, ymax = xmin, ymin
    nxmin = nxmax = nymin = nymax = 1
    for x, y, _ in it:
        if x < xmin:
            xmin, nxmin = x, 1
        elif x == xmin:
            nxmin += 1
        if x > xmax:
            xmax, nxmax = x, 1
        elif x == xmax:
            nxmax += 1
        if y < ymin:
            ymin, nymin = y, 1
        elif y == ymin:
            nymin += 1
        if y > ymax:
            ymax, nymax = y, 1
        elif y == ymax:
            nymax += 1
    return [xmin, xmax, ymin, ymax, nxmin, nxmax, nymin, nymax]


def _shifted(
    bb: BBox, k: int, x0: int, y0: int, x1: int, y1: int
) -> Optional[BBox]:
    """``bb`` after ``k`` pins move from (x0, y0) to (x1, y1).

    Returns None when the move takes the last pins off an edge: the new
    extent on that side is unknown without a scan.
    """
    bb = bb[:]
    if x1 < x0:
        if x0 == bb[1]:
            if bb[5] == k:
                return None
            bb[5] -= k
        if x1 < bb[0]:
            bb[0], bb[4] = x1, k
        elif x1 == bb[0]:
            bb[4] += k
    elif x1 > x0:
        if x0 == bb[0]:
            if bb[4] == k:
                return None
            bb[4] -= k
        if x1 > bb[1]:
            bb[1], bb[5] = x1, k
        elif x1 == bb[1]:
            bb[5] += k
    if y1 < y0:
        if y0 == bb[3]:
            if bb[7] == k:
                return None
            bb[7] -= k
        if y1 < bb[2]:
            bb[2], bb[6] = y1, k
        elif y1 == bb[2]:
            bb[6] += k
    elif y1 > y0:
        if y0 == bb[2]:
            if bb[6] == k:
                return None
            bb[6] -= k
        if y1 > bb[3]:
            bb[3], bb[7] = y1, k
        elif y1 == bb[3]:
            bb[7] += k
    return bb


def _bbox_cost(bb: BBox) -> int:
    """Half-perimeter wirelength of a bounding box."""
    return bb[1] - bb[0] + bb[3] - bb[2]


@dataclass
class Placement:
    """Result of placement: every instance bound to a fabric site."""

    design: PackedDesign
    fabric: FabricArch
    locations: Dict[str, Site]
    cost: float
    seed: int

    def site_of(self, inst: str) -> Site:
        try:
            return self.locations[inst]
        except KeyError:
            raise PlacementError(f"instance {inst} was never placed")

    def cell_of(self, inst: str) -> Tuple[int, int]:
        x, y, _sub = self.site_of(inst)
        return x, y

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets."""
        total = 0.0
        for use in self.design.nets.values():
            pins = [use.driver] + use.sinks
            total += _bbox_cost(_bbox(self.locations[i] for i, _ in pins))
        return total


class _Annealer:
    """Internal annealing engine (split out for testability)."""

    def __init__(self, design: PackedDesign, fabric: FabricArch, seed: int):
        self.design = design
        self.fabric = fabric
        self.rng = make_rng(seed)

        self.clb_sites: List[Site] = [
            (p.x, p.y, 0) for p in fabric.cells_of_type("clb")
        ]
        iob_cap = fabric.block_types["iob"].capacity
        self.pad_sites: List[Site] = [
            (p.x, p.y, k)
            for p in fabric.cells_of_type("iob")
            for k in range(iob_cap)
        ]
        if len(self.clb_sites) < design.num_clbs:
            raise PlacementError(
                f"{design.num_clbs} CLBs do not fit {len(self.clb_sites)} "
                f"logic sites"
            )
        if len(self.pad_sites) < design.num_pads:
            raise PlacementError(
                f"{design.num_pads} pads do not fit {len(self.pad_sites)} "
                f"IOB sub-sites"
            )

        self.insts: List[str] = [c.name for c in design.clbs] + [
            p.name for p in design.pads
        ]
        self.is_pad: Dict[str, bool] = {c.name: False for c in design.clbs}
        self.is_pad.update({p.name: True for p in design.pads})
        self.clb_cells = {(x, y) for x, y, _ in self.clb_sites}

        # Nets indexed for incremental cost evaluation: ``nets_of`` maps an
        # instance to {net index: pins it holds on that net}.
        self.nets = list(design.nets.values())
        self.nets_of: Dict[str, Dict[int, int]] = {n: {} for n in self.insts}
        self.net_pins: List[List[str]] = []
        for ni, use in enumerate(self.nets):
            pins = [use.driver[0]] + [s[0] for s in use.sinks]
            self.net_pins.append(pins)
            for inst in pins:
                held = self.nets_of[inst]
                held[ni] = held.get(ni, 0) + 1

        self.loc: Dict[str, Site] = {}
        self.occupant: Dict[Site, Optional[str]] = {}
        # Per-net bounding boxes and costs, set by ``_initial_place``.
        self.bb: List[BBox] = []
        self.net_cost: List[int] = []
        self.cost = 0.0

    # -- cost ----------------------------------------------------------------------

    def _scan(self, ni: int) -> BBox:
        """Net ``ni``'s bounding box recomputed from the current locations."""
        return _bbox(map(self.loc.__getitem__, self.net_pins[ni]))

    def total_cost(self) -> float:
        """The placement's cost recomputed from scratch over every net."""
        nets = range(len(self.nets))
        return float(sum(_bbox_cost(self._scan(ni)) for ni in nets))

    # -- moves ---------------------------------------------------------------------

    def _initial_place(self) -> None:
        clb_sites = self.clb_sites[:]
        pad_sites = self.pad_sites[:]
        self.rng.shuffle(clb_sites)
        self.rng.shuffle(pad_sites)
        for site in clb_sites + pad_sites:
            self.occupant[site] = None
        for clb, site in zip(self.design.clbs, clb_sites):
            self.loc[clb.name] = site
            self.occupant[site] = clb.name
        for pad, site in zip(self.design.pads, pad_sites):
            self.loc[pad.name] = site
            self.occupant[site] = pad.name
        self.bb = [self._scan(ni) for ni in range(len(self.nets))]
        self.net_cost = [_bbox_cost(bb) for bb in self.bb]
        self.cost = float(sum(self.net_cost))

    def _candidate_site(self, inst: str, rlim: float) -> Site:
        """A random same-type site within the ``rlim`` window of ``inst``."""
        x0, y0, _ = self.loc[inst]
        r = max(1, int(rlim))
        if not self.is_pad[inst]:
            # Interior logic cells form a dense grid: sample coordinates
            # directly instead of rejection-sampling the site pool.
            lo_x, hi_x = 1, self.fabric.width - 2
            lo_y, hi_y = 1, self.fabric.height - 2
            for _attempt in range(4):
                x = min(max(x0 + self.rng.randint(-r, r), lo_x), hi_x)
                y = min(max(y0 + self.rng.randint(-r, r), lo_y), hi_y)
                if (x, y) in self.clb_cells:
                    return (x, y, 0)
            pool = self.clb_sites
            return pool[self.rng.randrange(len(pool))]
        # Pads live on the perimeter ring; the pool is small, so windowed
        # rejection sampling with a uniform fallback is cheap enough.
        pool = self.pad_sites
        for _attempt in range(8):
            site = pool[self.rng.randrange(len(pool))]
            if abs(site[0] - x0) <= r and abs(site[1] - y0) <= r:
                return site
        return pool[self.rng.randrange(len(pool))]

    def _try_move(self, temperature: float, rlim: float) -> bool:
        inst = self.insts[self.rng.randrange(len(self.insts))]
        old_site = self.loc[inst]
        new_site = self._candidate_site(inst, rlim)
        if new_site == old_site:
            return False
        other = self.occupant[new_site]

        # Apply tentatively (swap when the target is occupied).
        self.loc[inst] = new_site
        self.occupant[new_site] = inst
        self.occupant[old_site] = other
        if other is not None:
            self.loc[other] = old_site

        # New bounding boxes of the touched nets, committed only on accept.
        x0, y0, _ = old_site
        x1, y1, _ = new_site
        bbs = self.bb
        net_cost = self.net_cost
        mine = self.nets_of[inst]
        theirs = self.nets_of[other] if other is not None else {}
        updates: List[Tuple[int, BBox, int]] = []
        delta = 0
        for ni, k in mine.items():
            k_other = theirs.get(ni)
            if k_other is None:
                bb = _shifted(bbs[ni], k, x0, y0, x1, y1) or self._scan(ni)
            elif k_other == k:
                continue  # the swap leaves the net's pin positions as they were
            else:
                bb = self._scan(ni)
            c = bb[1] - bb[0] + bb[3] - bb[2]
            delta += c - net_cost[ni]
            updates.append((ni, bb, c))
        for ni, k in theirs.items():
            if ni in mine:
                continue
            bb = _shifted(bbs[ni], k, x1, y1, x0, y0) or self._scan(ni)
            c = bb[1] - bb[0] + bb[3] - bb[2]
            delta += c - net_cost[ni]
            updates.append((ni, bb, c))

        accept = delta <= 0 or (
            temperature > 0
            and self.rng.random() < pow(2.718281828, -delta / temperature)
        )
        if accept:
            for ni, bb, c in updates:
                bbs[ni] = bb
                net_cost[ni] = c
            self.cost += delta
            return True
        # Revert.
        self.loc[inst] = old_site
        self.occupant[old_site] = inst
        self.occupant[new_site] = other
        if other is not None:
            self.loc[other] = new_site
        return False

    # -- schedule ------------------------------------------------------------------

    def anneal(self, inner_num: float, fast: bool) -> None:
        self._initial_place()

        n_mov = len(self.insts)
        if n_mov <= 1 or not self.nets:
            return

        moves_per_t = max(64, int(inner_num * (n_mov ** (4.0 / 3.0))))
        if fast:
            moves_per_t = max(64, moves_per_t // 4)

        # Starting temperature: VPR uses 20x the stddev of random-move deltas;
        # probing with accepted random moves gives the same scale.
        probe = min(moves_per_t, 10 * n_mov)
        deltas: List[float] = []
        for _ in range(probe):
            before = self.cost
            self._try_move(float("inf"), max(self.fabric.width, self.fabric.height))
            deltas.append(self.cost - before)
        if len(deltas) > 1:
            mean = sum(deltas) / len(deltas)
            var = sum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1)
            temperature = 20.0 * (var ** 0.5)
        else:
            temperature = 1.0
        temperature = max(temperature, 1e-3)

        rlim = float(max(self.fabric.width, self.fabric.height))
        exit_t_per_net = 0.005
        while True:
            accepted = 0
            for _ in range(moves_per_t):
                if self._try_move(temperature, rlim):
                    accepted += 1
            racc = accepted / moves_per_t
            # VPR adaptive cooling.
            if racc > 0.96:
                alpha = 0.5
            elif racc > 0.8:
                alpha = 0.9
            elif racc > 0.15:
                alpha = 0.95
            else:
                alpha = 0.8
            temperature *= alpha
            rlim = min(
                max(1.0, rlim * (1.0 - 0.44 + racc)),
                float(max(self.fabric.width, self.fabric.height)),
            )
            # A zero-cost placement is optimal; the relative exit test
            # below could never pass for it.
            if self.cost == 0 or (
                temperature < exit_t_per_net * self.cost / max(1, len(self.nets))
            ):
                break

        # Final greedy pass (temperature 0).
        for _ in range(moves_per_t):
            self._try_move(0.0, rlim)


def place(
    design: PackedDesign,
    fabric: FabricArch,
    seed: int = 0,
    inner_num: float = 0.5,
    fast: bool = False,
) -> Placement:
    """Place ``design`` on ``fabric`` with simulated annealing.

    ``inner_num`` scales moves per temperature step (VPR's ``-inner_num``);
    ``fast`` quarters it for quick experiments.
    """
    engine = _Annealer(design, fabric, seed)
    engine.anneal(inner_num, fast)
    return Placement(design, fabric, dict(engine.loc), engine.cost, seed)
