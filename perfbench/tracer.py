"""Layer timing from outside the program.

The benchmark never edits the system under test.  To see where time goes
it replaces the public entry points of each layer, inside the benchmark
process only, with wrappers that record a span (name, layer, start, end,
parent span, request id) around every call.  :func:`instrument` installs
the wrappers and returns an object whose ``restore()`` puts every
original back, so a traced pass and an untraced pass run the same code.

Three entry points are always wrapped, traced or not, because end-to-end
metrics are measured at them (:class:`Probe`): the controller's
``load_task``/``migrate_task`` (host load latency, closed loop) and
``decode_vbs`` (the controller's cold decode time).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import clock as now_ns


class Tracer:
    """Nested spans kept in memory, plus named counters.

    A span is ``[name, layer, start_ns, end_ns, parent_index, request]``;
    ``parent_index`` is -1 for a top-level span.  ``request`` is whatever
    the driver last stored in :attr:`request` (a container name, or a
    trace event index during a replay).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: object = None
        self.counters: Dict[str, float] = {}

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, now_ns(), 0, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = now_ns()
        self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- analysis -------------------------------------------------------------------

    def self_times(self) -> Dict[str, dict]:
        """Per-layer call count and self seconds.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        layers: Dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            row = layers.setdefault(span[1], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (span[3] - span[2] - child_ns[index]) / 1e9
        return layers

    def coverage(self, root: int) -> float:
        """Share of span ``root`` covered by its direct children."""
        span = self.spans[root]
        total = span[3] - span[2]
        covered = sum(
            s[3] - s[2] for s in self.spans if s[4] == root
        )
        return covered / total if total else 0.0

    def export_chrome(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = self.spans[0][2] if self.spans else 0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "request": request},
            }
            for index, (name, layer, start, end, parent, request)
            in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": metadata},
            default=str,
        ))


class Probe:
    """End-to-end measurements taken at the controller boundary.

    ``loads`` holds the ``(start, end)`` clock readings (ns) of every
    top-level ``load_task`` / ``migrate_task`` call (a load nested in a
    migration is part of the migration's sample), ``load_costs`` the
    cost-model :class:`~repro.runtime.costmodel.LoadCost` each one
    returned, and ``decodes`` the readings of every ``decode_vbs`` call.
    The clock leaves out the time :mod:`hostspeed` spends sampling.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.loads: List[tuple] = []
        self.load_costs: list = []
        self.decodes: List[tuple] = []
        self._depth = 0


# -- counters ----------------------------------------------------------------------
#
# ``HOOKS`` maps an entry point's name to ``(before, after)``, either of
# which may be None.  ``before(tracer, args)`` runs before the span opens
# and returns a state; ``after(tracer, args, result, state)`` runs after
# the span closed -- so its cost lands in the caller's self time --
# whether the call returned or raised (``result`` is then None).


def _on_result(count):
    """An after hook that reads the result; skipped when the call raised."""
    def after(tracer, args, result, state):
        if result is not None:
            count(tracer, result)
    return after


def _count_encode(tracer, result):
    for vbs in getattr(result, "containers", None) or [result]:
        tracer.add("encode.orders_tried", vbs.stats.orders_tried)
        tracer.add("encode.family_trials", vbs.stats.family_trials)
        tracer.add("encode.clusters_raw", vbs.stats.clusters_raw)


def _count_decode(tracer, result):
    stats = result[1]
    tracer.add("decode.router_work", stats.router_work)
    tracer.add("decode.clusters_reused", stats.clusters_reused)


def _next_event(tracer, args):
    # Spans of one trace event share its index as request id.
    tracer.request = tracer.counters.get("events", 0)
    tracer.add("events")


def _count_router_run(tracer, args, result, state):
    # One router run; its counters hold even when it failed.
    work = args[0]._result
    tracer.add("devirt.calls")
    tracer.add("devirt.work", work.work)
    tracer.add("devirt.ripups", work.ripups)


def _count_memo(tracer, args, result, hits_before):
    tracer.add("devirt.memo_calls")
    tracer.add("devirt.memo_hits", args[0].hits - hits_before)


def _count_calls(key):
    def after(tracer, args, result, state):
        tracer.add(key)
    return after


HOOKS = {
    "place": (None, _on_result(
        lambda tracer, r: tracer.add("place.hpwl", r.hpwl()))),
    "routing_graph_for": (None, _on_result(
        lambda tracer, r: tracer.add("rrg.nodes", r.num_nodes))),
    "route_design": (None, _on_result(
        lambda tracer, r: tracer.add("route.iterations", r.iterations))),
    "encode_design": (None, _on_result(_count_encode)),
    "encode_task": (None, _on_result(_count_encode)),
    "decode_vbs": (None, _on_result(_count_decode)),
    "apply_trace_event": (_next_event, None),
    "ClusterDecoder.decode": (None, _count_router_run),
    "DecodeMemo.decode": (lambda tracer, args: args[0].hits, _count_memo),
    "ReconfigurationController.load_task": (None, _count_calls("load.calls")),
    "ReconfigurationController.migrate_task": (
        None, _count_calls("migrate.calls")),
}


# -- wrappers ----------------------------------------------------------------------


def _spanned(fn, name, layer, tracer):
    """Record a span around every call (every step, for a generator)."""
    import inspect

    if inspect.isgeneratorfunction(fn):
        # A generator's work happens in ``next``: one span per step.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = tracer.open(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return gen_wrapper

    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def span_wrapper(*args, **kwargs):
        state = before(tracer, args) if before else None
        index = tracer.open(name, layer)
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            if after:
                after(tracer, args, result, state)
        return result

    return span_wrapper


def _decode_probe(fn, name, layer, tracer, probe):
    """Add the host time of every ``decode_vbs`` call to ``probe``."""
    call = _spanned(fn, name, layer, tracer) if tracer else fn

    @functools.wraps(fn)
    def decode_wrapper(*args, **kwargs):
        t0 = now_ns()
        try:
            return call(*args, **kwargs)
        finally:
            probe.decodes.append((t0, now_ns()))

    return decode_wrapper


def _load_probe(fn, name, layer, tracer, probe):
    """Sample a top-level load/migrate call's host time and cost."""
    call = _spanned(fn, name, layer, tracer) if tracer else fn

    @functools.wraps(fn)
    def load_wrapper(*args, **kwargs):
        top = probe._depth == 0
        probe._depth += 1
        t0 = now_ns()
        try:
            task = call(*args, **kwargs)
        finally:
            t1 = now_ns()
            probe._depth -= 1
        if top:
            probe.loads.append((t0, t1))
            probe.load_costs.append(task.load_cost)
        return task

    return load_wrapper


# -- entry points ------------------------------------------------------------------

#: (module, attribute, layer).  A dotted attribute names a method; the
#: wrapper then replaces the class attribute.  Module-level functions are
#: replaced in every loaded ``repro`` module that imported them by name.
SPAN_POINTS = (
    ("repro.netlist.lutmap", "map_to_luts", "lutmap"),
    ("repro.cad.pack", "pack", "pack"),
    ("repro.cad.place", "place", "place"),
    ("repro.arch.rrg", "routing_graph_for", "rrg"),
    ("repro.cad.route", "route_design", "route"),
    ("repro.bitstream.expand", "expand_routing", "expand"),
    ("repro.vbs.extract", "extract_components", "extract"),
    ("repro.vbs.order", "candidate_orders", "order"),
    ("repro.vbs.encode", "encode_design", "encode"),
    ("repro.vbs.encode", "encode_task", "encode_task"),
    ("repro.vbs.encode", "VirtualBitstream.to_bits", "serialize"),
    ("repro.vbs.encode", "VirtualBitstream.from_bits", "parse"),
    ("repro.vbs.devirt", "ClusterDecoder.decode", "devirt"),
    ("repro.vbs.devirt", "DecodeMemo.decode", "devirt"),
    ("repro.runtime.memory", "ExternalMemory.fetch", "fetch"),
    ("repro.runtime.manager", "FabricManager.place_task", "manager"),
    ("repro.runtime.manager", "FabricManager.make_room", "manager"),
    ("repro.runtime.manager", "FabricManager.find_origin", "manager"),
    ("repro.runtime.workload", "WorkloadSimulator.run", "simulator"),
    ("repro.runtime.workload", "apply_trace_event", "simulator"),
    ("repro.runtime.fleet", "ConsistentHashRouter.choose", "fleet.route"),
    ("repro.runtime.fleet", "LoadAwareRouter.choose", "fleet.route"),
    ("repro.runtime.fleet", "FleetManager.migrate_across", "fleet.migrate"),
)

#: (module, attribute, layer, probe wrapper): wrapped in every run, since
#: the :class:`Probe` measures there; with a tracer they are spans too.
PROBE_POINTS = (
    ("repro.vbs.decode", "decode_vbs", "decode", _decode_probe),
    ("repro.runtime.controller", "ReconfigurationController.load_task",
     "load", _load_probe),
    ("repro.runtime.controller", "ReconfigurationController.migrate_task",
     "migrate", _load_probe),
)


class _Installed:
    """The replaced attributes, so :meth:`restore` can put them back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def instrument(tracer: Optional[Tracer], probe: Probe) -> _Installed:
    """Wrap the probe points, and with a ``tracer`` every span point."""
    installed = _Installed()
    points = [
        ((module, attr, layer), functools.partial(
            wrap, tracer=tracer, probe=probe))
        for module, attr, layer, wrap in PROBE_POINTS
    ]
    if tracer is not None:
        points += [(p, functools.partial(_spanned, tracer=tracer))
                   for p in SPAN_POINTS]
    for (module_name, attr, layer), make in points:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                installed.set(cls, meth, classmethod(
                    make(raw.__func__, attr, layer)))
            else:
                installed.set(cls, meth, make(raw, attr, layer))
            continue
        fn = getattr(module, attr)
        wrapped = make(fn, attr, layer)
        for name, mod in list(sys.modules.items()):
            if (
                mod is not None
                and (name == "repro" or name.startswith("repro."))
                and mod.__dict__.get(attr) is fn
            ):
                installed.set(mod, attr, wrapped)
    return installed
