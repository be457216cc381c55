"""Experiment runners regenerating every table and figure of the paper.

Each runner produces plain dict rows (JSON-serializable) and caches them
under a results directory, so the expensive CAD runs happen once; the
pytest benchmarks and the ``run_all`` CLI both sit on top of these.

Experiments (ids as in "Reproduction deviations" in docs/architecture.md):

* E1 / Table II — benchmark characteristics with our recomputed MCW;
* E2 / Figure 4 — raw vs Virtual Bit-Stream size at W = 20, cluster 1;
* E3 / Figure 5 — VBS size and ratio across cluster sizes.

A ``scale`` parameter (default 1.0) shrinks the proxy circuits uniformly —
shape-preserving reduced runs for laptops and CI; 1.0 is the paper's
size (docs/architecture.md, "Reproduction deviations").
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.params import ArchParams
from repro.bitstream.expand import expand_routing
from repro.bitstream.raw import RawBitstream
from repro.cad.flow import FlowResult, run_flow
from repro.cad.mcw import find_mcw
from repro.eval.figures import geomean
from repro.eval.mcnc import MCNC_TABLE, circuit
from repro.netlist.generate import CircuitSpec
from repro.vbs.codecs import V3_CODECS
from repro.vbs.encode import encode_flow

#: Bump to invalidate caches when result-affecting code changes.
CACHE_VERSION = 8

#: Synthetic eval circuits beyond the MCNC proxy table — workloads the
#: later codec families target.  ``dpath`` is a replicated datapath: a
#: small truth-table vocabulary (``pattern_pool``) stamped across the
#: fabric, the repetition structure real synthesized logic exhibits and
#: the VERSION 4 best-of-k delta codec exploits.  ``run_all`` appends
#: these to the figure corpora; they have no Table II row, so the MCW
#: search skips them.
EVAL_EXTRAS = ("dpath",)


def extra_spec(name: str, scale: float = 1.0) -> CircuitSpec:
    """The generator spec of a synthetic eval circuit."""
    if name == "dpath":
        n_luts = max(24, round(96 * scale))
        return CircuitSpec(
            "dpath",
            n_luts=n_luts,
            n_inputs=max(4, round(12 * scale)),
            n_outputs=max(4, round(10 * scale)),
            pattern_pool=3,
        )
    raise ValueError(f"unknown synthetic eval circuit {name!r}")


def format_codec_counts(counts: Dict[str, int]) -> str:
    """Flatten a per-codec record-count map for CSV cells (stable order)."""
    return ";".join(f"{name}={counts[name]}" for name in sorted(counts))

DEFAULT_CLUSTERS = (1, 2, 3, 4, 5, 6, 8)
EVAL_CHANNEL_WIDTH = 20  # the paper normalizes all circuits to 20 tracks


def _cache_path(results_dir: Path, key: str) -> Path:
    results_dir.mkdir(parents=True, exist_ok=True)
    return results_dir / f"{key}.json"


def _load_cache(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError:
        return None
    if data.get("cache_version") != CACHE_VERSION:
        return None
    return data


def flow_for(
    name: str,
    channel_width: int = EVAL_CHANNEL_WIDTH,
    scale: float = 1.0,
    seed: int = 1,
) -> FlowResult:
    """Run the CAD flow for one eval circuit (no caching: live objects).

    ``name`` is an MCNC proxy from Table II or one of the synthetic
    :data:`EVAL_EXTRAS`.
    """
    from repro.netlist.generate import generate_circuit

    params = ArchParams(channel_width=channel_width)
    if name in EVAL_EXTRAS:
        netlist = generate_circuit(extra_spec(name, scale))
        return run_flow(netlist, params, seed=seed)
    bench = circuit(name)
    netlist = bench.netlist(scale)
    logic_size = bench.size if scale == 1.0 else None
    big = bench.lbs * scale > 1200
    return run_flow(
        netlist,
        params,
        logic_size=logic_size,
        seed=seed,
        place_inner_num=0.25 if big else 0.5,
        place_fast=big,
    )


def evaluate_circuit(
    name: str,
    results_dir: Path,
    channel_width: int = EVAL_CHANNEL_WIDTH,
    clusters: Sequence[int] = DEFAULT_CLUSTERS,
    scale: float = 1.0,
    seed: int = 1,
    force: bool = False,
) -> dict:
    """Compression measurements of one circuit at every cluster size.

    Returns (and caches) a row with raw size and, per cluster size, the VBS
    size, ratio, fallback count and decode work.
    """
    key = f"{name}_W{channel_width}_s{scale:g}"
    path = _cache_path(results_dir, key)
    cached = _load_cache(path)
    want = [str(c) for c in clusters]
    if cached is not None and not force:
        if all(c in cached["clusters"] for c in want):
            return cached

    t0 = time.perf_counter()
    flow = flow_for(name, channel_width, scale, seed)
    config = expand_routing(flow.design, flow.placement, flow.routing, flow.rrg)
    raw_bits = RawBitstream.size_for(
        flow.params, flow.fabric.width, flow.fabric.height
    )

    row: dict = {
        "cache_version": CACHE_VERSION,
        "name": name,
        "channel_width": channel_width,
        "scale": scale,
        "lbs": flow.design.num_clbs,
        "pads": flow.design.num_pads,
        "nets": len(flow.routing.trees),
        "task_w": flow.fabric.width,
        "task_h": flow.fabric.height,
        "route_iterations": flow.routing.iterations,
        "wirelength": flow.routing.total_wirelength,
        "raw_bits": raw_bits,
        "clusters": {},
        "flow_seconds": round(time.perf_counter() - t0, 2),
    }
    if cached is not None:
        row["clusters"].update(cached.get("clusters", {}))

    from repro.vbs.devirt import DecodeMemo

    memo = DecodeMemo()
    for c in clusters:
        if str(c) in row["clusters"] and not force:
            continue
        t1 = time.perf_counter()
        vbs = encode_flow(flow, config, cluster_size=c, memo=memo)
        from repro.vbs.decode import decode_vbs

        _cfg, dstats = decode_vbs(vbs)
        # The cost-driven picker at both codec generations: the VERSION 3
        # set versus the full family (VERSION 4 engages only where the
        # wide tag field pays — the improvement column must be >= 0).
        auto_v3 = encode_flow(
            flow, config, cluster_size=c, codecs=list(V3_CODECS), memo=memo
        )
        auto_v4 = encode_flow(
            flow, config, cluster_size=c, codecs="auto", memo=memo
        )
        row["clusters"][str(c)] = {
            "vbs_bits": vbs.size_bits,
            "ratio": vbs.size_bits / raw_bits,
            "clusters_listed": vbs.stats.clusters_listed,
            "clusters_raw": vbs.stats.clusters_raw,
            "pairs": vbs.stats.pairs_total,
            "orders_tried": vbs.stats.orders_tried,
            "codec_counts": dict(sorted(vbs.codec_tags().items())),
            "auto_v3_bits": auto_v3.size_bits,
            "auto_v4_bits": auto_v4.size_bits,
            "auto_v4_version": auto_v4.wire_version,
            "auto_v4_codec_counts": dict(
                sorted(auto_v4.codec_tags().items())
            ),
            "auto_v4_family_trials": auto_v4.stats.family_trials,
            "decode_work": dstats.router_work,
            "decode_max_cluster_work": dstats.max_cluster_work,
            "encode_seconds": round(time.perf_counter() - t1, 2),
        }

    path.write_text(json.dumps(row, indent=1, sort_keys=True))
    return row


def run_fig4(
    names: Sequence[str],
    results_dir: Path,
    channel_width: int = EVAL_CHANNEL_WIDTH,
    scale: float = 1.0,
    seed: int = 1,
) -> List[dict]:
    """Figure 4 rows: raw vs VBS size per circuit (cluster size 1)."""
    rows = []
    for name in names:
        data = evaluate_circuit(
            name, results_dir, channel_width, clusters=(1,), scale=scale, seed=seed
        )
        c1 = data["clusters"]["1"]
        rows.append(
            {
                "name": name,
                "raw_bits": data["raw_bits"],
                "vbs_bits": c1["vbs_bits"],
                "ratio": c1["ratio"],
                "clusters_raw": c1["clusters_raw"],
                "codec_counts": format_codec_counts(
                    c1.get("codec_counts", {})
                ),
                "auto_v3_bits": c1.get("auto_v3_bits", ""),
                "auto_v4_bits": c1.get("auto_v4_bits", ""),
                "auto_v4_codec_counts": format_codec_counts(
                    c1.get("auto_v4_codec_counts", {})
                ),
                "auto_v4_family_trials": c1.get(
                    "auto_v4_family_trials", ""
                ),
            }
        )
    return rows


def v4_ratio_summary(
    names: Sequence[str],
    results_dir: Path,
    channel_width: int = EVAL_CHANNEL_WIDTH,
    clusters: Sequence[int] = DEFAULT_CLUSTERS,
    scale: float = 1.0,
    seed: int = 1,
) -> dict:
    """VERSION 3-vs-4 compression totals over the evaluated corpus.

    Sums the cost-driven picker's payload bits at both codec generations
    across every (circuit, cluster) point — the number the VERSION 4
    acceptance gate watches: ``total_auto_v4_bits`` must never exceed
    ``total_auto_v3_bits``, and improves strictly wherever the wide tag
    field engages.  Reuses the per-circuit result cache, so calling this
    after the figure runners costs no new flows.
    """
    per_circuit = []
    total_v3 = total_v4 = 0
    for name in names:
        data = evaluate_circuit(
            name, results_dir, channel_width, clusters, scale=scale,
            seed=seed,
        )
        row = {"name": name, "clusters": {}}
        for c in clusters:
            cell = data["clusters"][str(c)]
            row["clusters"][str(c)] = {
                "auto_v3_bits": cell["auto_v3_bits"],
                "auto_v4_bits": cell["auto_v4_bits"],
                "auto_v4_version": cell["auto_v4_version"],
            }
            total_v3 += cell["auto_v3_bits"]
            total_v4 += cell["auto_v4_bits"]
        per_circuit.append(row)
    return {
        "cache_version": CACHE_VERSION,
        "channel_width": channel_width,
        "scale": scale,
        "clusters": list(clusters),
        "per_circuit": per_circuit,
        "total_auto_v3_bits": total_v3,
        "total_auto_v4_bits": total_v4,
        "improvement_bits": total_v3 - total_v4,
        "v4_over_v3_ratio": (total_v4 / total_v3) if total_v3 else 1.0,
    }


def run_fig5(
    names: Sequence[str],
    results_dir: Path,
    channel_width: int = EVAL_CHANNEL_WIDTH,
    clusters: Sequence[int] = DEFAULT_CLUSTERS,
    scale: float = 1.0,
    seed: int = 1,
) -> List[dict]:
    """Figure 5 series: min/geomean/max VBS size and avg ratio per cluster."""
    per_circuit = [
        evaluate_circuit(
            name, results_dir, channel_width, clusters, scale=scale, seed=seed
        )
        for name in names
    ]
    series = []
    for c in clusters:
        sizes = [row["clusters"][str(c)]["vbs_bits"] for row in per_circuit]
        ratios = [row["clusters"][str(c)]["ratio"] for row in per_circuit]
        work = [row["clusters"][str(c)]["decode_work"] for row in per_circuit]
        series.append(
            {
                "cluster": c,
                "min_bits": min(sizes),
                "max_bits": max(sizes),
                "geomean_bits": geomean(sizes),
                "avg_ratio": sum(ratios) / len(ratios),
                "avg_decode_work": sum(work) / len(work),
            }
        )
    return series


def run_workload(
    results_dir: Path,
    kind: str = "hot-set",
    n_tasks: int = 3,
    length: int = 40,
    seed: int = 1,
    force: bool = False,
    arrivals: "str | None" = None,
    mean_interarrival: int = 2000,
    zipf_alpha: float = 1.1,
    task_scope: bool = False,
    shards: int = 1,
    router: str = "hash",
) -> dict:
    """One workload-simulator report, cached like the figure rows.

    The decode cache (and the controller's DecodeMemo) is persisted
    under ``<results_dir>/decode_cache`` — the cross-process reuse path:
    re-running the experiment (or any other scenario over the same
    images) starts warm.  The report itself is cached under the usual
    versioned JSON convention, so ``run_all`` replays are free.

    ``arrivals="poisson"`` runs the open-loop engine (latency
    percentiles, queue depths); ``task_scope=True`` replays over
    multi-container ``encode_task`` groups instead of independent
    images.  ``shards > 1`` replays the same trace across a sharded
    fabric fleet under the ``router`` placement policy.  Open-loop,
    task-scope and fleet variants cache under distinct keys, so the
    closed-loop report's key is unchanged.
    """
    from repro.runtime.workload import run_scenario

    key = f"workload_{kind}_t{n_tasks}_n{length}_seed{seed}"
    if kind == "zipf":
        key += f"_a{zipf_alpha:g}"
    if arrivals is not None:
        key += f"_{arrivals}{mean_interarrival}"
    if task_scope:
        key += "_taskscope"
    if shards > 1:
        key += f"_s{shards}{router}"
    path = _cache_path(results_dir, key)
    cached = _load_cache(path)
    if cached is not None and not force:
        return cached

    report = run_scenario(
        kind=kind,
        n_tasks=n_tasks,
        length=length,
        seed=seed,
        cache_dir=str(results_dir / "decode_cache"),
        arrivals=arrivals,
        mean_interarrival=mean_interarrival,
        zipf_alpha=zipf_alpha,
        task_scope=task_scope,
        shards=shards,
        router=router,
    )
    report["cache_version"] = CACHE_VERSION
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return report


def run_sweep(
    results_dir: Path,
    kind: str = "zipf",
    n_tasks: int = 3,
    length: int = 30,
    seed: int = 3,
    base_interarrival: int = 20000,
    factor: float = 4.0,
    steps: int = 6,
    servers: int = 1,
    policy: "str | None" = None,
    force: bool = False,
) -> dict:
    """One saturation-knee sweep report, cached like the figure rows.

    Replays the seeded trace at a geometric ladder of arrival rates
    (fresh simulator state per rate — see
    :func:`~repro.runtime.workload.run_sweep_scenario`) and locates the
    saturation knee; ``run_all --workload`` persists the result as
    ``knee.json`` next to the other workload artifacts.
    """
    from repro.runtime.workload import run_sweep_scenario

    key = (
        f"sweep_{kind}_t{n_tasks}_n{length}_seed{seed}"
        f"_b{base_interarrival}_f{factor:g}_x{steps}"
    )
    if servers != 1:
        key += f"_k{servers}"
    if policy not in (None, "none"):
        key += f"_{policy}"
    path = _cache_path(results_dir, key)
    cached = _load_cache(path)
    if cached is not None and not force:
        return cached

    sweep = run_sweep_scenario(
        kind=kind,
        n_tasks=n_tasks,
        length=length,
        seed=seed,
        base_interarrival=base_interarrival,
        factor=factor,
        steps=steps,
        servers=servers,
        policy=policy,
    )
    sweep["cache_version"] = CACHE_VERSION
    path.write_text(json.dumps(sweep, indent=1, sort_keys=True))
    return sweep


def run_table2(
    names: Sequence[str],
    results_dir: Path,
    scale: float = 1.0,
    seed: int = 1,
    w_max: int = 40,
    force: bool = False,
) -> List[dict]:
    """Table II rows: grid size, MCW (paper and ours), LB count."""
    rows = []
    for name in names:
        bench = circuit(name)
        key = f"mcw_{name}_s{scale:g}"
        path = _cache_path(results_dir, key)
        cached = _load_cache(path)
        if cached is None or force:
            netlist = bench.netlist(scale)
            params = ArchParams(channel_width=EVAL_CHANNEL_WIDTH)
            from repro.cad.flow import run_flow as _run

            t0 = time.perf_counter()
            big = bench.lbs * scale > 1200
            flow = _run(
                netlist,
                params,
                logic_size=bench.size if scale == 1.0 else None,
                seed=seed,
                place_inner_num=0.25 if big else 0.5,
                place_fast=big,
            )
            mcw = find_mcw(
                flow.design,
                flow.fabric,
                placement=flow.placement,
                w_max=w_max,
                max_iterations=20,
            )
            cached = {
                "cache_version": CACHE_VERSION,
                "name": name,
                "mcw_ours": mcw.mcw,
                "lbs_ours": flow.design.num_clbs,
                "seconds": round(time.perf_counter() - t0, 2),
            }
            path.write_text(json.dumps(cached, indent=1, sort_keys=True))
        rows.append(
            {
                "name": name,
                "size": bench.size,
                "mcw_paper": bench.mcw_paper,
                "mcw_ours": cached["mcw_ours"],
                "lbs_paper": bench.lbs,
                "lbs_ours": cached["lbs_ours"],
            }
        )
    return rows
