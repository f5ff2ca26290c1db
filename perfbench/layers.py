"""The traced run: per-layer attribution of a workload's wall time.

The end-to-end figures come from untraced runs.  This run first times
untraced rounds of the workload, then rebuilds it, installs the
benchmark's wrappers around the layers' public entry points and runs one
round of the same work again.  Each wrapped call records a span (name,
start, end, parent) in memory; a layer's self time is its spans'
durations minus the time their child spans cover.  Every self time plus ``bench.unattributed_s``
(benchmark-loop time no layer claims) sums to the traced wall time, and traced over
median untraced round wall time is ``bench.trace_overhead_ratio``.

Event-loop callbacks are attributed by the ``name=`` they were scheduled
under (wrapped at ``Scheduler.call_at``).  The spans are written to
``.perfbench/`` in the checkout when the run ends.  Nothing in ``src/``
changes: the wrappers are installed on the classes for the traced round
and removed afterwards.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import statistics
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import ROOT, Checks, labelled_total, now

#: Share of ``--seconds`` spent on untraced reference rounds; one traced
#: round of the same work follows.
UNTRACED_SHARE = 0.5
#: Where span dumps are written, relative to the checkout root.
OUT_DIR = ".perfbench"

#: Layers in attribution order (every span belongs to exactly one).
LAYERS = (
    "core.proxy",
    "core.resilience",
    "platforms.native",
    "platforms.webview",
    "util.clock",
    "util.events",
    "device.gps",
    "device.messaging",
    "device.network",
    "runtime",
    "runtime.admission",
    "distrib",
    "obs",
    "obs.pipeline",
)

#: Scheduled-callback name prefix -> layer that owns the callback's code.
CALLBACK_LAYERS = (
    ("gps-fix", "device.gps"),
    ("sms-", "device.messaging"),
    ("http-", "device.network"),
    ("js-", "platforms.webview"),
    ("dispatch.", "runtime"),
    ("coop.", "runtime"),
    ("distrib:", "distrib"),
    ("s60-", "platforms.native"),
)


class SpanLog:
    """Spans kept in parallel arrays until the run ends."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # id -> (layer, name)
        self._ids: Dict[Tuple[str, str], int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}

    def intern(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def spans_named(self, layer: str, name: str) -> int:
        """How many spans of one name were recorded."""
        nid = self._ids.get((layer, name))
        return 0 if nid is None else self.name_id.count(nid)

    def clear(self) -> None:
        """Forget recorded spans and counts (set-up spans, say)."""
        if self.stack:
            raise RuntimeError("cannot clear the span log inside an open span")
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.counts.clear()

    def mark(self) -> Tuple[int, Dict[str, int]]:
        """The log's extent now (call when no span is open)."""
        return len(self.start), dict(self.counts)

    def rollback(self, mark: Tuple[int, Dict[str, int]]) -> None:
        """Drop what was recorded after ``mark``: callbacks scheduled while
        the wrappers were installed keep recording after they are removed."""
        length, counts = mark
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[length:]
        self.counts = counts

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        nid = self.intern(layer, name)
        return self._wrap_id(nid, fn)

    def _wrap_id(self, nid: int, fn: Callable) -> Callable:
        name_ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- attribution ---------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus its children's durations."""
        selfs = array("d", (e - s for s, e in zip(self.start, self.end)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                selfs[parent] -= self.end[index] - self.start[index]
        return selfs

    def write(self, path: str) -> None:
        """Dump every span as gzip'd TSV: layer, name, start, end, parent."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tlayer\tname\tstart_us\tend_us\tparent\n")
            for index in range(len(self.start)):
                layer, name = self.names[self.name_id[index]]
                out.write(
                    f"{index}\t{layer}\t{name}\t"
                    f"{(self.start[index] - origin) * 1e6:.3f}\t"
                    f"{(self.end[index] - origin) * 1e6:.3f}\t{self.parent[index]}\n"
                )


_DIGITS = re.compile(r"\d+")


class Instrumentation:
    """Installs the wrappers on the layers' classes; ``remove`` undoes it."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._patched: List[Tuple[object, str, object]] = []
        #: Active subscriptions per event bus (tracked through the public
        #: subscribe/unsubscribe calls) -- what a publish has to test.
        self._bus_subs: Dict[int, int] = {}
        self._callback_ids: Dict[str, int] = {}

    def patch(self, owner, attribute: str, replacement: Callable) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def span(self, owner, attribute: str, layer: str) -> None:
        """Wrap a class's method (or a module's function) in a span."""
        original = owner.__dict__[attribute]
        self.patch(owner, attribute, self.log.wrap(layer, f"{owner.__name__}.{attribute}", original))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def install(self) -> None:
        self._install_bench()
        self._install_proxies()
        self._install_natives()
        self._install_webview()
        self._install_clock()
        self._install_events()
        self._install_devices()
        self._install_runtime()
        self._install_distrib()
        self._install_obs()

    # -- per layer -----------------------------------------------------------

    def _install_bench(self) -> None:
        from perfbench import fleet

        # The fleet's agent loops run inside runtime callbacks; keep the
        # benchmark's own check out of the runtime's self time.
        self.span(fleet, "check_fix", "bench")

    def _install_proxies(self) -> None:
        from repro.core.proxies.factory import implementation_class, standard_registry
        from repro.core.resilience.policy import ResilienceRuntime

        registry = standard_registry()
        methods = (
            "get_location", "add_proximity_alert", "remove_proximity_alert",
            "send_text_message", "get", "post",
        )
        seen = set()
        for interface in ("Location", "Sms", "Http"):
            descriptor = registry.descriptor(interface)
            for platform in ("android", "s60", "webview"):
                cls = implementation_class(descriptor.binding_for(platform).implementation_class)
                if cls in seen:
                    continue
                seen.add(cls)
                for method in methods:
                    if method in cls.__dict__:
                        self.span(cls, method, "core.proxy")
        self.span(ResilienceRuntime, "execute", "core.resilience")

    def _install_natives(self) -> None:
        from repro.platforms.android.http import HttpClient
        from repro.platforms.android.intents import BroadcastRegistry
        from repro.platforms.android.location import LocationManager
        from repro.platforms.android.telephony import SmsManager
        from repro.platforms.s60.location import LocationProvider, LocationProviderStatics
        from repro.platforms.s60.messaging import MessageConnection

        for cls, methods in (
            (LocationManager, ("get_current_location", "get_last_known_location",
                               "add_proximity_alert", "remove_proximity_alert")),
            (SmsManager, ("send_text_message",)),
            (BroadcastRegistry, ("register", "unregister", "broadcast")),
            (HttpClient, ("execute",)),
            (LocationProvider, ("get_location",)),
            (LocationProviderStatics, ("add_proximity_listener", "remove_proximity_listener")),
            (MessageConnection, ("send",)),
        ):
            for method in methods:
                self.span(cls, method, "platforms.native")

    def _install_webview(self) -> None:
        from repro.core.proxies.location.webview import LocationWrapperJava
        from repro.core.proxies.sms.webview import SmsWrapperJava
        from repro.platforms.webview import bridge

        log = self.log
        crossing = bridge._BridgeMethod
        original_call = crossing.__dict__["__call__"]
        per_method: Dict[str, Callable] = {}

        def cross(stub, *args):
            method = stub._method_name
            timed = per_method.get(method)
            if timed is None:
                timed = per_method[method] = log.wrap(
                    "platforms.webview", f"bridge:{method}", original_call
                )
            log.count("platforms.webview.crossings")
            return timed(stub, *args)

        self.patch(crossing, "__call__", cross)
        for cls in (LocationWrapperJava, SmsWrapperJava):
            original = cls.__dict__["get_notifications"]

            def poll(wrapper, notification_id, _original=original):
                batch = _original(wrapper, notification_id)
                log.count("platforms.webview.polls")
                if batch == "[]":
                    log.count("platforms.webview.empty_polls")
                return batch

            self.patch(cls, "get_notifications", log.wrap("platforms.webview", f"{cls.__name__}.get_notifications", poll))

    def _install_clock(self) -> None:
        from repro.util.clock import ScheduledTask, Scheduler

        log = self.log
        callback_ids = self._callback_ids
        original_call_at = Scheduler.__dict__["call_at"]
        original_cancel = ScheduledTask.__dict__["cancel"]

        def layer_of(name: str) -> str:
            for prefix, layer in CALLBACK_LAYERS:
                if name.startswith(prefix):
                    return layer
            return "util.clock"

        def callback_id(name: str) -> int:
            label = _DIGITS.sub("*", name) or "unnamed"
            nid = callback_ids.get(label)
            if nid is None:
                nid = callback_ids[label] = log.intern(layer_of(label), f"callback:{label}")
            return nid

        def call_at(scheduler, when_ms, callback, *, name=""):
            log.count("util.clock.scheduled")
            timed = log._wrap_id(callback_id(name), callback)

            def run_callback():
                log.count("util.clock.callbacks")
                return timed()

            return original_call_at(scheduler, when_ms, run_callback, name=name)

        def cancel(task):
            if not task.cancelled:
                log.count("util.clock.cancels")
            return original_cancel(task)

        self.patch(Scheduler, "call_at", call_at)
        self.patch(ScheduledTask, "cancel", cancel)
        self.span(Scheduler, "run_until", "util.clock")

    def _install_events(self) -> None:
        from repro.util.events import EventBus, Subscription

        log = self.log
        subs = self._bus_subs
        original_subscribe = EventBus.__dict__["subscribe"]
        original_unsubscribe = Subscription.__dict__["unsubscribe"]
        original_publish = EventBus.__dict__["publish"]

        def subscribe(bus, pattern, handler):
            subs[id(bus)] = subs.get(id(bus), 0) + 1
            return original_subscribe(bus, pattern, handler)

        def unsubscribe(sub):
            if sub.active:
                subs[id(sub.bus)] = subs.get(id(sub.bus), 0) - 1
            return original_unsubscribe(sub)

        def publish(bus, topic, payload=None):
            log.count("util.events.publishes")
            log.count("util.events.tested", subs.get(id(bus), 0))
            delivered = original_publish(bus, topic, payload)
            log.count("util.events.deliveries", delivered)
            return delivered

        self.patch(EventBus, "subscribe", subscribe)
        self.patch(Subscription, "unsubscribe", unsubscribe)
        self.patch(EventBus, "publish", log.wrap("util.events", "EventBus.publish", publish))

    def _install_devices(self) -> None:
        from repro.device.messaging import SmsCenter
        from repro.device.network import SimulatedNetwork

        self.span(SimulatedNetwork, "request", "device.network")
        self.span(SimulatedNetwork, "request_async", "device.network")
        self.span(SmsCenter, "submit", "device.messaging")

    def _install_runtime(self) -> None:
        from repro.runtime import ConcurrencyRuntime
        from repro.runtime.admission.controller import AdmissionController

        log = self.log
        for method in ("submit", "submit_invocation", "http_get"):
            self.span(ConcurrencyRuntime, method, "runtime")
        original_get_location = ConcurrencyRuntime.__dict__["get_location"]

        def get_location(runtime, proxy, **kwargs):
            future = original_get_location(runtime, proxy, **kwargs)
            log.count("runtime.fix_requests")
            if future.done() and future.error is None:
                log.count("runtime.fix_cache_hits")
            return future

        self.patch(ConcurrencyRuntime, "get_location", log.wrap("runtime", "ConcurrencyRuntime.get_location", get_location))
        self.span(AdmissionController, "admit", "runtime.admission")

    def _install_distrib(self) -> None:
        from repro.distrib.idempotency import IdempotencyStore
        from repro.distrib.replication import ReplicatedTable

        self.span(ReplicatedTable, "put", "distrib")
        self.span(ReplicatedTable, "anti_entropy_sweep", "distrib")
        self.span(IdempotencyStore, "execute", "distrib")

    def _install_obs(self) -> None:
        from repro.obs.pipeline import TelemetryPipeline
        from repro.obs.tracer import Tracer

        self.span(Tracer, "start_span", "obs")
        self.span(Tracer, "end_span", "obs")
        self.span(TelemetryPipeline, "record_span", "obs.pipeline")


# -- the report ----------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_report(log: SpanLog, wall_s: float) -> Dict[str, Dict[str, float]]:
    """Per-layer self time, call counts and self-time p50 per span name."""
    selfs = log.self_times()
    busy = {layer: 0.0 for layer in LAYERS}
    busy["bench"] = 0.0
    by_name: Dict[int, List[float]] = {}
    for index, nid in enumerate(log.name_id):
        layer = log.names[nid][0]
        busy[layer] += selfs[index]
        by_name.setdefault(nid, []).append(selfs[index])
    claimed = sum(value for layer, value in busy.items() if layer != "bench")
    per_name = {
        f"{log.names[nid][0]}/{log.names[nid][1]}": {
            "calls": len(values),
            "self_s": sum(values),
            "self_us_p50": statistics.median(values) * 1e6,
        }
        for nid, values in sorted(by_name.items())
    }
    return {
        "busy_s": busy,
        "unattributed_s": wall_s - claimed,
        "per_name": per_name,
    }


def _layer_self_us(log: SpanLog, selfs: array, layer: str, name_filter: Optional[Callable[[str], bool]] = None) -> Tuple[int, float]:
    """(calls, median self µs) of one layer's spans."""
    values = [
        selfs[index]
        for index, nid in enumerate(log.name_id)
        if log.names[nid][0] == layer and (name_filter is None or name_filter(log.names[nid][1]))
    ]
    if not values:
        return 0, 0.0
    return len(values), statistics.median(values) * 1e6


def per_layer_metrics(log: SpanLog, wall_s: float, untraced_s: float, extra: Dict[str, float], result) -> Dict[str, object]:
    """Fill ``result`` with every per-layer metric; returns the report."""
    report = layer_report(log, wall_s)
    selfs = log.self_times()
    counts = log.counts
    busy = report["busy_s"]
    metric = result.metric

    calls, p50 = _layer_self_us(log, selfs, "core.proxy")
    metric("core.proxy.calls", calls, "count")
    metric("core.proxy.self_us_p50", p50, "us")
    calls, p50 = _layer_self_us(log, selfs, "core.resilience")
    metric("core.resilience.calls", calls, "count")
    metric("core.resilience.self_us_p50", p50, "us")
    metric("core.resilience.retries", extra.get("resilience_retries", 0), "count")
    calls, p50 = _layer_self_us(log, selfs, "platforms.native")
    metric("platforms.native_calls", calls, "count")
    metric("platforms.native_self_us_p50", p50, "us")

    crossings = counts.get("platforms.webview.crossings", 0)
    webview_ops = extra.get("webview_ops", 0)
    metric("platforms.webview.crossings", crossings, "count")
    metric("platforms.webview.crossings_per_op", _ratio(crossings, webview_ops), "ratio")
    _, p50 = _layer_self_us(log, selfs, "platforms.webview", lambda name: name.startswith("bridge:"))
    metric("platforms.webview.bridge_self_us_p50", p50, "us")
    polls = counts.get("platforms.webview.polls", 0)
    metric("platforms.webview.polls", polls, "count")
    metric("platforms.webview.empty_poll_ratio", _ratio(counts.get("platforms.webview.empty_polls", 0), polls), "ratio")

    callbacks = counts.get("util.clock.callbacks", 0)
    cancels = counts.get("util.clock.cancels", 0)
    metric("util.clock.callbacks", callbacks, "count")
    metric("util.clock.pops", callbacks + cancels, "count")
    metric("util.clock.cancelled_ratio", _ratio(cancels, callbacks + cancels), "ratio")

    metric("obs.spans", extra.get("obs_spans", 0), "count")
    metric("obs.pipeline.traces", extra.get("pipeline_traces", 0), "count")
    metric("obs.pipeline.kept_ratio", _ratio(extra.get("pipeline_kept", 0), extra.get("pipeline_traces", 0)), "ratio")
    metric("obs.pipeline.dropped_spans", extra.get("pipeline_dropped", 0), "count")

    metric("device.gps.fixes", extra.get("gps_fixes", 0), "count")
    tested = counts.get("util.events.tested", 0)
    metric("util.events.publishes", counts.get("util.events.publishes", 0), "count")
    metric("util.events.subscriptions_tested", tested, "count")
    metric("util.events.match_ratio", _ratio(counts.get("util.events.deliveries", 0), tested), "ratio")
    metric("device.network.requests", extra.get("network_requests", 0), "count")

    submits = extra.get("runtime_submits", 0)
    metric("runtime.submits", submits, "count")
    metric("runtime.coalesced_ratio", _ratio(extra.get("runtime_coalesced", 0), submits), "ratio")
    fix_requests = counts.get("runtime.fix_requests", 0)
    metric("runtime.fix_requests", fix_requests, "count")
    metric("runtime.fix_cache_hit_ratio", _ratio(counts.get("runtime.fix_cache_hits", 0), fix_requests), "ratio")
    decisions = extra.get("admission_decisions", 0)
    metric("runtime.admission.admits", extra.get("admission_admits", 0), "count")
    metric("runtime.admission.decisions", decisions, "count")
    metric("runtime.admission.reject_ratio", _ratio(extra.get("admission_rejects", 0), decisions), "ratio")
    metric("distrib.puts", extra.get("distrib_puts", 0), "count")
    writes = extra.get("idempotent_writes", 0)
    metric("distrib.idempotent_writes", writes, "count")
    metric("distrib.dedup_hit_ratio", _ratio(extra.get("dedup_hits", 0), writes), "ratio")

    metric("core.descriptor.load_s", extra["descriptor_load_s"], "s")
    for layer in LAYERS:
        metric(f"{layer}.busy_s", busy[layer], "s")
    metric("bench.unattributed_s", report["unattributed_s"], "s")
    metric("bench.traced_wall_s", wall_s, "s")
    metric("bench.trace_overhead_ratio", wall_s / untraced_s, "ratio")
    return report


def check_attribution(busy_s: Dict[str, float], unattributed_s: float, wall_s: float) -> Optional[str]:
    """Layer self times plus unattributed time must tile the traced wall."""
    attributed = sum(busy_s.values()) + unattributed_s
    if abs(attributed - wall_s) > 1e-6 * max(1.0, wall_s):
        return f"layer self times sum to {attributed!r} s, traced wall is {wall_s!r} s"
    if unattributed_s < 0:
        return f"layers claim {-unattributed_s!r} s more than the traced wall"
    return None


def descriptor_load_seconds(repeats: int = 5) -> float:
    """Median time to load and validate every shipped proxy descriptor."""
    from repro.core.descriptor.registry import ProxyRegistry
    from repro.core.proxies.factory import SHIPPED_DESCRIPTOR_FILES, descriptors_dir

    texts = [(descriptors_dir() / name).read_text() for name in SHIPPED_DESCRIPTOR_FILES]
    samples = []
    for _ in range(repeats):
        start = now()
        registry = ProxyRegistry()
        for text in texts:
            registry.register_xml(text)
        samples.append(now() - start)
    return statistics.median(samples)


def write_outputs(log: SpanLog, report: Dict[str, object], workload: str, seed: int) -> str:
    """Write the spans and the layer report; returns the span file path."""
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    log.write(stem + ".spans.tsv.gz")
    with open(stem + ".layers.json", "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    return stem + ".spans.tsv.gz"


# -- driving one workload under the wrappers -----------------------------------

#: Registry counters read before and after the traced round:
#: key -> (metric, labels).
REGISTRY_COUNTERS = {
    "coalesced": ("runtime.coalesced", {}),
    "admitted": ("runtime.outcome", {"outcome": "admitted"}),
    "outcome_coalesced": ("runtime.outcome", {"outcome": "coalesced"}),
    "throttled": ("runtime.outcome", {"outcome": "throttled"}),
    "absorbed": ("runtime.outcome", {"outcome": "absorbed"}),
    "shed": ("runtime.outcome", {"outcome": "shed"}),
    "dedup_hits": ("distrib.dedup_hits", {}),
    "retries": ("resilience.retries", {}),
}


def registry_totals(registries) -> Dict[str, float]:
    return {
        key: sum(labelled_total(metrics, name, **labels) for metrics in registries)
        for key, (name, labels) in REGISTRY_COUNTERS.items()
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def _common_extra(log: SpanLog, counters: Dict[str, float]) -> Dict[str, float]:
    decisions = sum(
        counters[key] for key in ("admitted", "outcome_coalesced", "throttled", "absorbed", "shed")
    )
    return {
        "resilience_retries": counters["retries"],
        "obs_spans": log.spans_named("obs", "Tracer.start_span"),
        "gps_fixes": log.spans_named("device.gps", "callback:gps-fix"),
        "network_requests": log.spans_named("device.network", "SimulatedNetwork.request")
        + log.spans_named("device.network", "SimulatedNetwork.request_async"),
        "runtime_submits": log.spans_named("runtime", "ConcurrencyRuntime.submit"),
        "runtime_coalesced": counters["coalesced"],
        "admission_admits": log.spans_named("runtime.admission", "AdmissionController.admit"),
        "admission_decisions": decisions,
        "admission_rejects": counters["throttled"] + counters["shed"],
        "distrib_puts": log.spans_named("distrib", "ReplicatedTable.put"),
        "idempotent_writes": log.spans_named("distrib", "IdempotencyStore.execute"),
        "dedup_hits": counters["dedup_hits"],
    }


def _untraced_wall(one_round: Callable[[], float], seconds: float) -> float:
    """Median raw wall time of untraced rounds run for ``seconds``."""
    deadline = now() + seconds
    walls = [one_round()]
    while now() < deadline:
        walls.append(one_round())
    return statistics.median(walls)


def _trace_invoke(seed: int, seconds: float, sampled: bool, ops: int, result, checks: Checks):
    from perfbench import invoke

    def untraced_round() -> float:
        handsets = invoke.set_up(sampled)
        run = invoke.InvokeRun(handsets, seed, Checks())
        start = now()
        run.run(ops, now)
        if sampled:
            invoke.export_all(handsets)
        return now() - start

    untraced_s = _untraced_wall(untraced_round, seconds * UNTRACED_SHARE)

    log = SpanLog()
    instrumentation = Instrumentation(log)
    instrumentation.install()
    try:
        handsets = invoke.set_up(sampled)
        registries = [h.device.obs.metrics for h in handsets.values()]
        before = registry_totals(registries)
        accounting_before = invoke.check_exports(handsets, Checks()) if sampled else {}
        run = invoke.InvokeRun(handsets, seed, checks)
        log.clear()
        start = now()
        run.run(ops, now)
        if sampled:
            invoke.export_all(handsets)
        traced_s = now() - start
        window = log.mark()
    finally:
        instrumentation.remove()
    metrics = _delta(registry_totals(registries), before)
    extra = _common_extra(log, metrics)
    extra["webview_ops"] = run.platform_ops["webview"]
    if sampled:
        accounting = _delta(invoke.check_exports(handsets, checks), accounting_before)
        extra["pipeline_traces"] = accounting["traces_total"]
        extra["pipeline_kept"] = accounting["traces_kept"]
        extra["pipeline_dropped"] = accounting["dropped_spans"]
    run.finish()
    log.rollback(window)
    result.attempted = run.ops
    result.failed = run.failed
    return log, traced_s, untraced_s, extra, run.failed == 0


def _trace_fleet(seed: int, seconds: float, agents: int, result, checks: Checks):
    from perfbench import fleet as fleet_workload

    def untraced_round() -> float:
        run = fleet_workload.FleetRun(fleet_workload.deploy(agents), seed)
        start = now()
        run.advance_to(fleet_workload.ROUND_MS)
        return now() - start

    untraced_s = _untraced_wall(untraced_round, seconds * UNTRACED_SHARE)

    log = SpanLog()
    instrumentation = Instrumentation(log)
    instrumentation.install()
    try:
        deployed = fleet_workload.deploy(agents)
        registries = [deployed.runtime.observability.metrics] + [
            agent.device.obs.metrics for agent in deployed.agents
        ]
        before = registry_totals(registries)
        run = fleet_workload.FleetRun(deployed, seed)
        log.clear()
        start = now()
        run.advance_to(fleet_workload.ROUND_MS)
        traced_s = now() - start
        window = log.mark()
    finally:
        instrumentation.remove()
    metrics = _delta(registry_totals(registries), before)
    extra = _common_extra(log, metrics)
    run.stop(checks)
    log.rollback(window)
    result.attempted = run.intended
    result.failed = run.failed
    return log, traced_s, untraced_s, extra, True


def run_traced(workload: str, seed: int, seconds: float, size, result) -> None:
    checks = Checks()
    descriptor_load_s = descriptor_load_seconds()
    if workload == "fleet":
        log, traced_s, untraced_s, extra, ops_ok = _trace_fleet(seed, seconds, size.agents, result, checks)
    else:
        log, traced_s, untraced_s, extra, ops_ok = _trace_invoke(
            seed, seconds, workload == "invoke_sampled", size.round_ops, result, checks
        )
    extra["descriptor_load_s"] = descriptor_load_s
    report = per_layer_metrics(log, traced_s, untraced_s, extra, result)
    checks.expect(
        check_attribution(
            {layer: report["busy_s"][layer] for layer in LAYERS},
            report["unattributed_s"],
            traced_s,
        )
    )
    path = write_outputs(log, report, workload, seed)
    result.notes.append(f"traced run: {len(log.start)} spans written to {os.path.relpath(path, ROOT)}")
    result.notes.extend(checks.messages)
    result.correct = checks.ok and ops_ok
