"""Shared fixtures for the benchmark harness.

Benchmarks default to *reduced-scale* proxies of the Table II circuits so
``pytest benchmarks/ --benchmark-only`` completes in minutes; the full-scale
reproduction is ``python -m repro.eval.run_all`` (see "Reproduction
deviations" in docs/architecture.md).  When a full-scale results cache
exists under ``results/`` the figure benches also report those numbers in
``extra_info``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bitstream import expand_routing
from repro.eval.experiments import flow_for

#: Scale used for in-benchmark CAD runs (shape-preserving reduction).
BENCH_SCALE = 0.15
BENCH_CIRCUIT = "tseng"


@pytest.fixture(scope="session")
def bench_flow():
    """A routed reduced-scale Table II proxy at the paper's W = 20."""
    return flow_for(BENCH_CIRCUIT, channel_width=20, scale=BENCH_SCALE, seed=1)


@pytest.fixture(scope="session")
def bench_config(bench_flow):
    return expand_routing(
        bench_flow.design, bench_flow.placement, bench_flow.routing,
        bench_flow.rrg,
    )


@pytest.fixture(scope="session")
def fullscale_results() -> dict:
    """Full-scale cached rows from results/ (empty when not yet generated)."""
    out = {}
    results = Path(__file__).resolve().parent.parent / "results"
    if results.is_dir():
        for path in results.glob("*_W20_s1.json"):
            try:
                row = json.loads(path.read_text())
            except json.JSONDecodeError:
                continue
            if "name" in row:
                out[row["name"]] = row
    return out
