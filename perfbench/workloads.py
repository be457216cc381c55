"""The benchmark workloads, driven through the public API only.

Each workload builds its inputs in ``setup`` and then runs timed
*passes* over them.  ``--seed`` drives the placement seed of ``compile``
and the trace (task mix and Poisson arrivals) of the runtime workloads.
The circuits and the synthesized task sets are fixed, like the Table II
proxies: with them seeded too, the spread of setup time across seeds
exceeded the benchmark's bounds.

A pass always starts from the same declared cache state:

* the module-level routing-graph and cluster-model caches are cleared,
  as in a fresh process (:func:`clear_module_caches`);
* every controller is new, with an empty decode cache and memo;
* no ``cache_dir``, memo file or predictor store is read or written.

``compile`` ends each container's pipeline at the run-time controller:
the container is serialized into external memory and cold-loaded (fetch,
parse, ``decode_vbs`` without memo, configuration write) onto an idle
fabric of its own size.  Its load metrics are those loads; its simulated
latency is each load's cost-model service time, since an idle controller
has no queue.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.arch.macro as arch_macro
import repro.arch.rrg as arch_rrg
import repro.bitstream as bitstream
import repro.cad as cad
import repro.cad.flow as cad_flow
import repro.fabric as fabric_tools
import repro.runtime as runtime
import repro.vbs as vbs
from repro.arch import ArchParams, FabricArch
from repro.eval.mcnc import circuit

#: Channel width of the Table II flows (the paper normalizes to 20).
EVAL_W = 20
#: Seed of every fixed input: the synthesized task sets.
FIXED_SEED = 1


def clear_module_caches() -> None:
    """Drop the process-wide caches a fresh ``vbsgen`` process would lack.

    ``pin_line_segments`` caches per model instance; clearing it frees
    the models ``get_cluster_model`` dropped, so peak RSS does not grow
    with the number of passes.
    """
    arch_rrg.clear_routing_graph_cache()
    arch_macro.get_cluster_model.cache_clear()
    arch_macro.ClusterModel.pin_line_segments.cache_clear()


def all_clb_fabric(params: ArchParams, width: int, height: int) -> FabricArch:
    """A run-time fabric: every cell a logic block (no pad ring)."""
    return FabricArch(
        params, width, height,
        {(x, y): "clb" for x in range(width) for y in range(height)},
    )


@dataclass
class PassResult:
    """What one timed pass produced, for the oracle, digest and metrics."""

    digest: str = ""
    attempted: int = 0
    failed: int = 0
    vbs_bits: int = 0
    raw_bits: int = 0
    wirelength: int = 0
    #: Simulator report (runtime workloads) or None.
    report: Optional[dict] = None
    #: Objects the oracle re-checks after the timed section.
    evidence: list = field(default_factory=list)


def _sha(parts: List[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _capture_flows(build):
    """Run ``build()`` and also return every ``FlowResult`` it made."""
    flows = []
    original = cad_flow.run_flow

    def capture(*args, **kwargs):
        flow = original(*args, **kwargs)
        flows.append(flow)
        return flow

    cad_flow.run_flow = capture
    try:
        return build(), flows
    finally:
        cad_flow.run_flow = original


def _idle_controller(params, width, height):
    """A controller with no decode cache and no memo on a task-sized fabric."""
    return runtime.ReconfigurationController(
        all_clb_fabric(params, width, height),
        runtime.ExternalMemory(),
        cache_capacity=None,
        memo_entries=None,
    )


def cold_load(name: str, container) -> "runtime.ReconfigurationController":
    """Serialize ``container`` into memory and cold-load it at (0, 0).

    The load runs fetch, ``from_bits``, a full ``decode_vbs`` and the
    configuration write.
    """
    layout = container.layout
    ctrl = _idle_controller(layout.params, layout.width, layout.height)
    ctrl.store_vbs(name, container)
    ctrl.load_task(name, (0, 0))
    return ctrl


def reload_cold(result: "PassResult") -> None:
    """Cold-load every container of a pass once more, in pass order."""
    for name, _flow, ctrl in result.evidence:
        image = ctrl.memory.image(name)
        fresh = _idle_controller(ctrl.fabric.params, image.width, image.height)
        fresh.memory.store(name, image.bits, "vbs", image.width, image.height)
        fresh.load_task(name, (0, 0))


def _container_parts(name: str, ctrl) -> List[bytes]:
    bits = ctrl.memory.image(name).bits
    return [name.encode(), str(len(bits)).encode(), bits.to_bytes()]


def verify_loaded(evidence) -> List[str]:
    """Prove each cold-loaded configuration against its design.

    ``verify_connectivity`` extracts the electrical components of the
    configuration the controller wrote and checks them against the
    packed design and placement -- independent of the decoder.
    """
    errors = []
    for name, flow, ctrl in evidence:
        try:
            fabric_tools.verify_connectivity(
                flow.design, flow.placement, ctrl.config, flow.fabric
            )
        except Exception as exc:  # any failure is a wrong output
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return errors


# -- compile -------------------------------------------------------------------------


class Compile:
    """One designer's ``vbsgen`` run per Table II proxy, then its first load."""

    name = "compile"
    circuits = ("tseng", "ex5p")
    scale = 0.3
    #: Cold loads per container per pass: the first ends the timed
    #: pipeline, the rest follow it outside ``run_s``, so ``decode_s``
    #: and ``load_ms_*`` take each load's median of several samples.
    load_rounds = 8

    def setup(self, seed: int) -> dict:
        return {
            "seed": seed,
            "params": ArchParams(channel_width=EVAL_W),
            "netlists": [
                (name, circuit(name).netlist(self.scale))
                for name in self.circuits
            ],
        }

    def run_pass(self, inputs: dict, tracer=None) -> PassResult:
        result = PassResult()
        parts: List[bytes] = []
        for name, netlist in inputs["netlists"]:
            if tracer is not None:
                tracer.request = name
            flow = cad.run_flow(netlist, inputs["params"], seed=inputs["seed"])
            config = bitstream.expand_routing(
                flow.design, flow.placement, flow.routing, flow.rrg
            )
            container = vbs.encode_flow(flow, config, cluster_size=1)
            ctrl = cold_load(name, container)
            result.attempted += 1
            result.vbs_bits += container.container_bits
            result.raw_bits += container.raw_equivalent_bits()
            result.wirelength += flow.routing.total_wirelength
            parts += _container_parts(name, ctrl)
            parts.append(str(flow.routing.total_wirelength).encode())
            result.evidence.append((name, flow, ctrl))
        result.digest = _sha(parts)
        return result

    def verify(self, inputs: dict, result: PassResult) -> List[str]:
        return verify_loaded(result.evidence)


# -- runtime workloads ---------------------------------------------------------------


def _stored_images(named_containers) -> List[tuple]:
    """(name, serialized bits, width, height) of each container."""
    return [
        (name, container.to_bits(), container.layout.width,
         container.layout.height)
        for name, container in named_containers
    ]


def _report_digest(report: dict) -> str:
    """sha256 of a simulator report (it holds no host timings)."""
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()


def _requests(trace) -> int:
    return sum(1 for event in trace.events if event.op in ("load", "migrate"))


def _failures(report: dict) -> int:
    """Failed loads plus requests refused by admission."""
    refused = (report.get("admission") or {}).get("dropped", 0)
    return report["events"]["failed_loads"] + refused


def verify_resident(controllers, memory) -> List[str]:
    """Re-decode every resident task cold and compare the fabric region.

    The controller wrote these regions through its decode cache, memo
    and translation path; a cold ``decode_vbs`` at the same origin must
    give the same logic and switch state cell by cell.
    """
    errors = []
    for shard, ctrl in enumerate(controllers):
        for name, task in ctrl.resident.items():
            region = task.region
            expected, _stats = vbs.decode_vbs(
                task.image.bits, origin=(region.x, region.y),
                shared_dicts=memory.shared_dict,
            )
            for cell in region.cells():
                key = (cell.x, cell.y)
                if (
                    ctrl.config.logic.get(key) != expected.logic.get(key)
                    or (ctrl.config.closed.get(key) or set())
                    != (expected.closed.get(key) or set())
                ):
                    errors.append(
                        f"shard {shard}: task {name} differs at {key}"
                    )
                    break
    return errors


class RuntimeReplay:
    """One controller replaying an open-loop hot-set trace."""

    name = "runtime-replay"
    n_tasks = 8
    cluster_size = 2
    events = 6000
    mean_interarrival = 2000
    cache_capacity = 4
    servers = 2
    policy = "priority"

    def setup(self, seed: int) -> dict:
        images, flows = _capture_flows(lambda: runtime.synthesize_task_images(
            n_tasks=self.n_tasks, cluster_size=self.cluster_size,
            seed=FIXED_SEED,
        ))
        width = max(c.layout.width for _n, c in images)
        height = max(c.layout.height for _n, c in images)
        trace = runtime.generate_trace(
            "hot-set", [name for name, _c in images], self.events,
            seed=seed, arrivals="poisson",
            mean_interarrival=self.mean_interarrival,
        )
        return {
            "params": images[0][1].layout.params,
            "stored": _stored_images(images),
            "vbs_bits": sum(c.container_bits for _n, c in images),
            "raw_bits": sum(c.raw_equivalent_bits() for _n, c in images),
            "wirelength": sum(f.routing.total_wirelength for f in flows),
            # Room for three of the widest task side by side, so a task
            # loaded right of a freed slot has somewhere to migrate.
            "fabric": (3 * width + 1, height + 1),
            "trace": trace,
        }

    def run_pass(self, inputs: dict, tracer=None) -> PassResult:
        memory = runtime.ExternalMemory()
        for name, bits, w, h in inputs["stored"]:
            memory.store(name, bits, "vbs", w, h)
        ctrl = runtime.ReconfigurationController(
            all_clb_fabric(inputs["params"], *inputs["fabric"]), memory,
            cache_capacity=self.cache_capacity,
        )
        report = runtime.WorkloadSimulator(
            runtime.FabricManager(ctrl), servers=self.servers,
            policy=self.policy,
        ).run(inputs["trace"])
        return _runtime_result(inputs, report, [ctrl], memory)

    def verify(self, inputs: dict, result: PassResult) -> List[str]:
        controllers, memory = result.evidence
        errors = verify_resident(controllers, memory)
        # The workload measures migration and both decode-cache paths;
        # a replay that skips one of them no longer measures it.
        report = result.report
        for what, count in (
            ("executed migrations", report["events"]["migrations"]),
            ("decode-cache hits", report["cache"]["hits"]),
            ("decode-cache misses", report["cache"]["misses"]),
        ):
            if count == 0:
                errors.append(f"the replay had no {what}")
        return errors


class FleetReplay:
    """A two-shard fleet replaying an open-loop zipf trace."""

    name = "fleet-replay"
    n_groups = 3
    containers_per_task = 2
    shards = 2
    events = 4000
    mean_interarrival = 4000
    cache_capacity = 4
    migrate_backlog = 1

    def setup(self, seed: int) -> dict:
        groups, flows = _capture_flows(lambda: runtime.synthesize_task_images(
            n_tasks=self.n_groups, task_scope=True,
            containers_per_task=self.containers_per_task, codecs="auto",
            seed=FIXED_SEED,
        ))
        named = [
            (name, container)
            for names, task in groups
            for name, container in zip(names, task.containers)
        ]
        width = max(c.layout.width for _n, c in named)
        height = max(c.layout.height for _n, c in named)
        trace = runtime.generate_trace(
            "zipf", [name for name, _c in named], self.events, seed=seed,
            arrivals="poisson", mean_interarrival=self.mean_interarrival,
        )
        return {
            "params": named[0][1].layout.params,
            "tables": [
                (task.dict_id, task.table) for _names, task in groups
                if task.shared
            ],
            "stored": _stored_images(named),
            "vbs_bits": sum(c.container_bits for _n, c in named)
            + sum(task.table_bits for _names, task in groups),
            "raw_bits": sum(c.raw_equivalent_bits() for _n, c in named),
            "wirelength": sum(f.routing.total_wirelength for f in flows),
            # The run_scenario sizing: about one and a half tasks wide.
            "fabric": (width + width // 2 + 1, height + 1),
            "trace": trace,
        }

    def run_pass(self, inputs: dict, tracer=None) -> PassResult:
        memory = runtime.ExternalMemory()
        for dict_id, table in inputs["tables"]:
            memory.store_shared_dict(dict_id, table)
        for name, bits, w, h in inputs["stored"]:
            memory.store(name, bits, "vbs", w, h)
        controllers = [
            runtime.ReconfigurationController(
                all_clb_fabric(inputs["params"], *inputs["fabric"]), memory,
                cache_capacity=self.cache_capacity,
            )
            for _ in range(self.shards)
        ]
        fleet = runtime.FleetManager(
            [runtime.FabricManager(ctrl) for ctrl in controllers],
            router="load", migrate_backlog=self.migrate_backlog,
        )
        report = runtime.WorkloadSimulator(fleet=fleet).run(inputs["trace"])
        return _runtime_result(inputs, report, controllers, memory)

    def verify(self, inputs: dict, result: PassResult) -> List[str]:
        controllers, memory = result.evidence
        return verify_resident(controllers, memory)


def _runtime_result(inputs, report, controllers, memory) -> PassResult:
    return PassResult(
        digest=_report_digest(report),
        attempted=_requests(inputs["trace"]),
        failed=_failures(report),
        vbs_bits=inputs["vbs_bits"],
        raw_bits=inputs["raw_bits"],
        wirelength=inputs["wirelength"],
        report=report,
        evidence=[controllers, memory],
    )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Compile, RuntimeReplay, FleetReplay)
}
