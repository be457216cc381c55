#!/usr/bin/env python3
"""Benchmark for compile -> vbsgen -> run-time load.

Run from the repository root:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass, prints the per-layer table and metrics and
writes the spans as Chrome trace-event JSON under ``.bench_out/``.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

import time

START_NS = time.perf_counter_ns()

import hostspeed  # noqa: E402

# Sample the host's speed from the first import on, so that setup_s's
# import time is read at the reference speed too.
hostspeed.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A run makes at least this many passes, so that their output digests
#: can be compared and every host time is the median of two or more.
MIN_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("decode_s", "s"),
    ("peak_rss_mb", "MB"),
    ("vbs_ratio", "fraction"),
    ("wirelength", "tracks"),
    ("load_ms_p50", "ms"),
    ("load_ms_p99", "ms"),
    ("load_cycles_p50", "cycles"),
    ("load_cycles_p99", "cycles"),
)

#: Layers whose self time the traced run reports, by span category.
LAYERS = (
    "lutmap", "pack", "place", "rrg", "route", "expand", "extract",
    "order", "encode", "encode_task", "serialize", "parse", "decode",
    "devirt", "fetch", "load", "migrate", "manager", "simulator",
    "fleet.route", "fleet.migrate", "harness",
)


def percentile(values, p):
    """Nearest-rank percentile (the simulator's definition)."""
    ordered = sorted(values)
    rank = min(max(1, -(-p * len(ordered) // 100)), len(ordered))
    return ordered[int(rank) - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Pass:
    """One timed pass: its time, outputs and the loads' cost-model costs."""

    def __init__(self, start_ns, end_ns, probe, result):
        self.interval = (start_ns, end_ns)
        self.seconds = (end_ns - start_ns) / 1e9
        self.result = result
        self.load_costs = list(probe.load_costs)


def at_reference_speed(interval):
    """Seconds of a ``(start, end)`` clock interval at the reference speed."""
    start, end = interval
    return (end - start) / 1e9 / hostspeed.factor(start, end)


class HostTimes:
    """A run's host times, each read at the reference speed.

    Every pass, and every load and ``decode_vbs`` call, is divided by the
    host's slowdown around it (:func:`hostspeed.factor`).  A *round* is
    the pass's loads, or on ``compile`` one more cold load of every
    container the pass produced (``load_rounds``).  Every pass does the
    same work in the same order (the output digests check it), so load
    ``i`` of one round is load ``i`` of the next; each load counts at its
    median over the run's rounds.
    """

    def __init__(self):
        self.pass_s = []
        self.decode_s = []
        self.load_ms = None

    def add_lap(self, record, rounds):
        self.pass_s.append(at_reference_speed(record.interval))
        for loads, decodes in rounds:
            self.decode_s.append(sum(map(at_reference_speed, decodes)))
            if self.load_ms is None:
                self.load_ms = [[] for _ in loads]
            for unit, load in zip(self.load_ms, loads):
                unit.append(at_reference_speed(load) * 1e3)

    def loads(self):
        """Each load's median time, in pass order."""
        return [statistics.median(unit) for unit in self.load_ms]


def timed_pass(workload, inputs, probe, tracer=None):
    """Run one pass; return it and its rounds' (loads, decodes)."""
    import workloads

    workloads.clear_module_caches()
    probe.reset()
    span = tracer.open("pass", "harness") if tracer else None
    t0 = hostspeed.clock()
    try:
        result = workload.run_pass(inputs, tracer)
    finally:
        t1 = hostspeed.clock()
        if tracer:
            tracer.close(span)
    record = Pass(t0, t1, probe, result)
    rounds = [(probe.loads, probe.decodes)]
    for _ in range(getattr(workload, "load_rounds", 1) - 1):
        probe.reset()
        workloads.reload_cold(result)
        rounds.append((probe.loads, probe.decodes))
    return record, rounds


def end_to_end(passes, host, setup_s, peak_rss_mb):
    """The end-to-end metrics of one run; host times per :class:`HostTimes`."""
    last = passes[-1].result
    if last.report is None:
        # An idle controller: each load's latency is its service time.
        service = [cost.total_cycles for cost in passes[-1].load_costs]
        cycles = (percentile(service, 50), percentile(service, 99))
    else:
        latency = last.report["latency"]
        cycles = (latency["p50"], latency["p99"])
    loads = host.loads()
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(host.pass_s),
        "decode_s": statistics.median(host.decode_s),
        "peak_rss_mb": peak_rss_mb,
        "vbs_ratio": last.vbs_bits / last.raw_bits,
        "wirelength": last.wirelength,
        "load_ms_p50": percentile(loads, 50),
        "load_ms_p99": percentile(loads, 99),
        "load_cycles_p50": cycles[0],
        "load_cycles_p99": cycles[1],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(tracer, traced, baseline):
    """Per-layer metrics of the traced setup plus one traced pass."""
    rows = tracer.self_times()
    counters = tracer.counters
    report = traced.result.report or {}
    cache = report.get("cache", {})
    shards = report.get("shards", [])
    admission = report.get("admission", {})
    lanes = admission.get("lanes", {})
    latency = report.get("latency") or {}
    costs = traced.load_costs
    memo_calls = counters.get("devirt.memo_calls", 0)
    pass_span = next(
        i for i, s in enumerate(tracer.spans) if s[0] == "pass"
    )
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            rows.get(layer, {}).get("self_s", 0.0), "s"
        )
    count = lambda key: (counters.get(key, 0), "count")  # noqa: E731
    metrics.update({
        "place.hpwl": (counters.get("place.hpwl", 0.0), "tracks"),
        "route.iterations": count("route.iterations"),
        "rrg.nodes": count("rrg.nodes"),
        "encode.orders_tried": count("encode.orders_tried"),
        "encode.family_trials": count("encode.family_trials"),
        "encode.clusters_raw": count("encode.clusters_raw"),
        "devirt.calls": count("devirt.calls"),
        "devirt.work": count("devirt.work"),
        "devirt.ripups": count("devirt.ripups"),
        "devirt.memo_hit_rate": (
            counters.get("devirt.memo_hits", 0) / memo_calls
            if memo_calls else 0.0, "fraction"),
        "decode.router_work": count("decode.router_work"),
        "decode.clusters_reused": count("decode.clusters_reused"),
        "load.calls": count("load.calls"),
        "migrate.calls": count("migrate.calls"),
        "decode_cache.hits": (cache.get("hits", 0), "count"),
        "decode_cache.misses": (cache.get("misses", 0), "count"),
        "decode_cache.hit_rate": (cache.get("hit_rate", 0.0), "fraction"),
        "decode_cache.evictions": (cache.get("evictions", 0), "count"),
        "cycles.fetch": (sum(c.fetch_cycles for c in costs), "cycles"),
        "cycles.decode": (sum(c.decode_cycles for c in costs), "cycles"),
        "cycles.write": (sum(c.write_cycles for c in costs), "cycles"),
        "manager.evictions_for_space": (
            report.get("events", {}).get("evictions_for_space", 0), "count"),
        "admission.admitted": (admission.get("admitted", 0), "count"),
        "admission.deferred": (admission.get("deferred", 0), "count"),
        "admission.dropped": (admission.get("dropped", 0), "count"),
        "admission.hot": (lanes.get("hot", 0), "count"),
        "admission.cold": (lanes.get("cold", 0), "count"),
        "queue.max_depth": (
            report.get("queue", {}).get("max_depth", 0), "count"),
        "queue.wait_cycles_p99": (
            latency.get("queueing", {}).get("p99", 0), "cycles"),
        "fleet.cross_migrations": (
            report.get("fleet", {}).get("cross_migrations", 0), "count"),
        "fleet.shared_dict_faults": (
            report.get("fleet", {}).get("shared_dicts", {}).get("faults", 0),
            "count"),
        "trace.run_s": (traced.seconds, "s"),
        "trace.untraced_run_s": (baseline.seconds, "s"),
        "trace.overhead": (
            traced.seconds / baseline.seconds - 1.0, "fraction"),
        "trace.coverage": (tracer.coverage(pass_span), "fraction"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    for index in range(2):
        rate = shards[index]["cache"]["hit_rate"] if index < len(shards) \
            else 0.0
        metrics[f"decode_cache.shard{index}.hit_rate"] = (rate, "fraction")
    return metrics


def print_layer_table(tracer, out):
    rows = tracer.self_times()
    total = sum(row["self_s"] for row in rows.values()) or 1.0
    print(f"{'layer':<16}{'calls':>10}{'self_s':>12}{'share':>8}", file=out)
    for layer in sorted(rows, key=lambda k: -rows[k]["self_s"]):
        row = rows[layer]
        print(f"{layer:<16}{row['calls']:>10}{row['self_s']:>12.4f}"
              f"{row['self_s'] / total:>8.1%}", file=out)


def check_names(metrics, trace):
    """Refuse to print metrics that BENCHMARK.json does not declare."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    produced = {name: unit for name, (_v, unit) in metrics.items()}
    if declared != produced:
        raise SystemExit(
            f"metric names/units differ from BENCHMARK.json {key}: "
            f"{sorted(set(declared.items()) ^ set(produced.items()))}"
        )


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_end = hostspeed.clock()
    workload = workloads.WORKLOADS[args.workload]()
    probe = tracing.Probe()
    out = sys.stdout
    errors = []
    passes = []
    host = HostTimes()

    if args.trace:
        # Per-layer times are reported as measured, at the host's speed.
        hostspeed.stop()
        tracer = tracing.Tracer()
        installed = tracing.instrument(tracer, probe)
        workloads.clear_module_caches()
        setup_span = tracer.open("setup", "harness")
        inputs = workload.setup(args.seed)
        tracer.close(setup_span)
        installed.restore()
        installed = tracing.instrument(None, probe)
        baseline, _rounds = timed_pass(workload, inputs, probe)
        installed.restore()
        installed = tracing.instrument(tracer, probe)
        try:
            traced, _rounds = timed_pass(workload, inputs, probe, tracer)
        finally:
            installed.restore()
        passes = [baseline, traced]
        metrics = per_layer(tracer, traced, baseline)
        print_layer_table(tracer, out)
        trace_path = (Path.cwd() / ".bench_out"
                      / f"trace-{args.workload}-seed{args.seed}.json")
        tracer.export_chrome(trace_path, {
            "workload": args.workload, "seed": args.seed,
        })
        print(f"chrome trace: {trace_path}", file=out)
    else:
        installed = tracing.instrument(None, probe)
        # The import and each setup, at the reference speed.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workloads.clear_module_caches()
            t0 = hostspeed.clock()
            inputs = workload.setup(args.seed)
            setup_times.append(at_reference_speed((t0, hostspeed.clock())))
        setup_s = at_reference_speed((START_NS, import_end)) \
            + statistics.median(setup_times)
        laps = []  # wall time of each pass with its load rounds
        run_start = hostspeed.clock()
        try:
            while True:
                if passes:
                    # Only the latest pass's outputs feed the oracle; the
                    # others must just match its digest.  Freeing them
                    # (and their cycles) before the next pass keeps peak
                    # RSS independent of how many passes fit in the run,
                    # and keeps their collection out of its timing.
                    passes[-1].result.evidence = []
                    passes[-1].load_costs = []
                    gc.collect()
                lap_start = hostspeed.clock()
                record, rounds = timed_pass(workload, inputs, probe)
                lap_end = hostspeed.clock()
                passes.append(record)
                host.add_lap(record, rounds)
                laps.append((lap_end - lap_start) / 1e9)
                elapsed = (lap_end - run_start) / 1e9
                if len(passes) >= MIN_PASSES and \
                        elapsed + statistics.median(laps) > args.seconds:
                    break
        except Exception:
            traceback.print_exc()
            errors.append("a pass raised (traceback on stderr)")
        hostspeed.stop()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if passes:
            metrics = end_to_end(passes, host, setup_s, peak_rss_mb)

    attempted = sum(p.result.attempted for p in passes) or 1
    failed = sum(p.result.failed for p in passes)
    if passes and not errors:
        try:
            oracle_errors = workload.verify(inputs, passes[-1].result)
        except Exception:
            traceback.print_exc()
            oracle_errors = ["the oracle raised (traceback on stderr)"]
        finally:
            installed.restore()
        failed += len(oracle_errors)
        errors += oracle_errors
        digests = {p.result.digest for p in passes}
        if len(digests) != 1:
            errors.append(f"passes disagree: {len(digests)} output digests")
    else:
        failed += 1
        metrics = {}
    for error in errors:
        print(f"FAILED: {error}", file=out)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  trace {args.trace}", file=out)
    if passes:
        report = passes[0].result.report
        print(f"digest {passes[0].result.digest}", file=out)
        print(f"pass seconds: "
              f"{' '.join(f'{p.seconds:.3f}' for p in passes)}", file=out)
        if host.load_ms is not None:
            rounds = len(host.load_ms[0])
            print(f"load/migrate calls timed (closed loop): "
                  f"{rounds * len(host.load_ms)}, {len(host.load_ms)} per "
                  f"round, {rounds} rounds", file=out)
        if host.pass_s:
            slowdowns = [p.seconds / s for p, s in zip(passes, host.pass_s)]
            print(f"host slowdown per pass (1 = reference speed, "
                  f"{hostspeed.count()} samples): "
                  f"{' '.join(f'{f:.3f}' for f in slowdowns)}", file=out)
        print(f"simulated requests per pass (open loop): "
              f"{report['latency']['requests'] if report else 'none'}",
              file=out)
        if report:
            print(f"per pass: migrations executed "
                  f"{report['events']['migrations']}, decode-cache hits "
                  f"{report['cache']['hits']}, misses "
                  f"{report['cache']['misses']}", file=out)
    print(f"error_rate {failed / attempted:.6f} fraction "
          f"({failed} failed of {attempted} attempted)", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32}{value:>16.6g} {unit}", file=out)
    if metrics:
        check_names(metrics, args.trace)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), file=out)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        hostspeed.stop()
