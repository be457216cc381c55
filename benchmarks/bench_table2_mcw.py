"""E1 — Table II: minimum channel width of the benchmark proxies.

Benchmarks the MCW binary search on a reduced-scale proxy.  Absolute MCW
values differ from the paper's VPR numbers (our switch box is the stricter
disjoint pattern; see "Reproduction deviations" in docs/architecture.md)
but the search procedure and the relative congestion ordering are the
reproduced artifacts.
"""

import pytest

from repro.cad import find_mcw
from repro.eval.experiments import flow_for
from repro.eval.mcnc import circuit


@pytest.fixture(scope="module")
def mcw_flow():
    return flow_for("ex5p", channel_width=20, scale=0.12, seed=1)


def test_table2_mcw_search(benchmark, mcw_flow):
    def search():
        return find_mcw(
            mcw_flow.design,
            mcw_flow.fabric,
            placement=mcw_flow.placement,
            w_max=32,
            max_iterations=12,
        )

    result = benchmark.pedantic(search, rounds=1, iterations=1)
    assert 2 <= result.mcw <= 32
    benchmark.extra_info["mcw"] = result.mcw
    benchmark.extra_info["widths_probed"] = sorted(result.attempts)


def test_table2_row_data():
    """The paper-side columns are pinned by the data module."""
    row = circuit("ex5p")
    assert (row.size, row.mcw_paper, row.lbs) == (28, 13, 740)


def test_table2_congestion_ordering_proxy():
    """Proxy calibration: paper-congested circuits get lower locality, so
    their proxies remain relatively harder to route."""
    hard = circuit("ex1010")   # MCW 16
    easy = circuit("des")      # MCW 8
    assert hard.locality < easy.locality
