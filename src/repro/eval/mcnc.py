"""Table II: the 20 largest MCNC circuits, and their synthetic proxies.

The paper's benchmark set (Table II) gives, per circuit, the VPR grid size,
the minimum channel width and the logic-block count.  The original BLIF
sources are not redistributable here, so each circuit is reproduced as a
*proxy* netlist from ``repro.netlist.generate``:

* ``lbs`` and ``size`` are taken verbatim from Table II;
* primary I/O and latch counts follow the published MCNC profiles,
  clamped to the proxy fabric's pad capacity (2 pads per perimeter IOB
  cell — the paper treats I/O as part of the fabric, Section II-A);
* the generator's locality parameter is calibrated against the paper's
  MCW column, so circuits the paper found congested stay congested.

All quantities that come from the paper are kept exact; all approximations
are one-line formulas documented here and in docs/architecture.md
("Reproduction deviations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import NetlistError
from repro.netlist.generate import CircuitSpec
from repro.netlist.model import Netlist
from repro.netlist.generate import generate_circuit


@dataclass(frozen=True)
class McncCircuit:
    """One Table II row plus the published I/O and latch profile."""

    name: str
    size: int        # Table II "Size" (logic grid side)
    mcw_paper: int   # Table II "MCW"
    lbs: int         # Table II "LBs"
    io_in: int       # published MCNC primary inputs
    io_out: int      # published MCNC primary outputs
    latches: int     # published MCNC flip-flop count

    @property
    def pad_capacity(self) -> int:
        """IOB ring capacity: 2 pads per cell over ``4*size + 4`` ring cells."""
        return 2 * (4 * self.size + 4)

    def clamped_io(self) -> Tuple[int, int]:
        """Pad counts scaled down to the ring capacity when necessary."""
        total = self.io_in + self.io_out
        if total <= self.pad_capacity:
            return self.io_in, self.io_out
        scale = self.pad_capacity / total
        n_in = max(1, int(self.io_in * scale))
        n_out = max(1, self.pad_capacity - n_in)
        return n_in, n_out

    @property
    def locality(self) -> float:
        """Generator locality calibrated from the paper's MCW column.

        A linear map sending MCW 8 -> 0.88 (easily routed) and MCW 16 ->
        0.70 (congested), which preserves the paper's relative congestion
        ordering across the suite.
        """
        return max(0.70, min(0.88, 1.06 - 0.0225 * self.mcw_paper))

    def spec(self, scale: float = 1.0) -> CircuitSpec:
        """The proxy generator spec, optionally down-scaled for quick runs."""
        if not 0.0 < scale <= 1.0:
            raise NetlistError("scale must be in (0, 1]")
        n_luts = max(8, round(self.lbs * scale))
        n_in, n_out = self.clamped_io()
        if scale < 1.0:
            n_in = max(2, round(n_in * scale))
            n_out = max(2, round(n_out * scale))
        n_latches = min(n_luts, round(self.latches * scale))
        return CircuitSpec(
            name=self.name,
            n_luts=n_luts,
            n_inputs=n_in,
            n_outputs=n_out,
            n_latches=n_latches,
            locality=self.locality,
        )

    def netlist(self, scale: float = 1.0) -> Netlist:
        return generate_circuit(self.spec(scale))


#: Table II of the paper, with published I/O / latch profiles appended.
MCNC_TABLE: Tuple[McncCircuit, ...] = (
    McncCircuit("alu4", 35, 9, 1173, 14, 8, 0),
    McncCircuit("apex2", 39, 12, 1478, 38, 3, 0),
    McncCircuit("apex4", 32, 15, 970, 9, 19, 0),
    McncCircuit("bigkey", 27, 8, 683, 229, 197, 224),
    McncCircuit("clma", 79, 15, 6226, 62, 82, 33),
    McncCircuit("des", 32, 8, 554, 256, 245, 0),
    McncCircuit("diffeq", 30, 10, 869, 64, 39, 377),
    McncCircuit("dsip", 27, 9, 680, 229, 197, 224),
    McncCircuit("elliptic", 47, 13, 2134, 131, 114, 1122),
    McncCircuit("ex1010", 56, 16, 3093, 10, 10, 0),
    McncCircuit("ex5p", 28, 13, 740, 8, 63, 0),
    McncCircuit("frisc", 55, 16, 2940, 20, 116, 886),
    McncCircuit("misex3", 35, 11, 1158, 14, 14, 0),
    McncCircuit("pdc", 61, 15, 3629, 16, 40, 0),
    McncCircuit("s298", 37, 8, 1301, 4, 6, 14),
    McncCircuit("s38417", 58, 8, 3333, 28, 106, 1464),
    McncCircuit("s38584.1", 65, 9, 4219, 38, 304, 1426),
    McncCircuit("seq", 37, 12, 1325, 41, 35, 0),
    McncCircuit("spla", 55, 14, 3005, 16, 46, 0),
    McncCircuit("tseng", 29, 8, 799, 52, 122, 385),
)

_BY_NAME: Dict[str, McncCircuit] = {c.name: c for c in MCNC_TABLE}

#: Circuits small enough for quick CI-style runs (under ~1500 LBs).
SMALL_SET = ("bigkey", "des", "dsip", "ex5p", "tseng", "diffeq", "apex4")
MEDIUM_SET = SMALL_SET + (
    "alu4", "misex3", "s298", "seq", "apex2",
)
FULL_SET = tuple(c.name for c in MCNC_TABLE)


def circuit(name: str) -> McncCircuit:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise NetlistError(
            f"unknown MCNC circuit {name!r}; choose from {sorted(_BY_NAME)}"
        )


def benchmark_names(subset: str = "full") -> Tuple[str, ...]:
    """Resolve a subset keyword to circuit names."""
    subsets = {"small": SMALL_SET, "medium": MEDIUM_SET, "full": FULL_SET}
    try:
        return subsets[subset]
    except KeyError:
        raise NetlistError(
            f"unknown subset {subset!r}; choose from {sorted(subsets)}"
        )
