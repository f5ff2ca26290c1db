"""The ``invoke`` and ``invoke_sampled`` workloads.

One caller runs the Figure-10 app mix as a closed loop over three calibrated
handsets (android, s60, webview), each driven through the app's uniform
Location and Sms proxies.  The op stream comes from the seed: on every
platform half ``getLocation``, a quarter ``sendSMS`` with delivery reports,
and a quarter ``addProximityAlert`` whose matching ``removeProximityAlert``
runs a seeded 40-200 ops later; round *r* of a run uses the seed's *r*-th
stream.  After every op the loop runs the handset scheduler's
due callbacks, as the handset's main loop would.

``invoke_sampled`` runs the same stream with the production telemetry
posture (a recording hub plus a 1% streaming pipeline) on every handset and
ends with an export; it is the only difference between the two.
"""

from __future__ import annotations

import gc
import heapq
import random
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apps.workforce import scenario
from repro.bench.calibration import (
    PAPER_FIGURE_10,
    figure10_android_latency,
    figure10_s60_latency,
    figure10_webview_bridge_latency,
)
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxies.location.webview import LocationProxyJs
from repro.core.proxies.sms.webview import SmsProxyJs
from repro.core.proxy.callbacks import ProximityListener, SmsStatusListener
from repro.errors import ProxyError
from repro.obs import Observability
from repro.obs.pipeline import PipelineConfig
from repro.util.geo import haversine_m

from perfbench.common import (
    Checks, Meter, now, peak_rss_mb, run_rounds, set_up_seconds,
)

PLATFORMS = ("android", "s60", "webview")
SMS_DESTINATION = "+915550900"
#: Ops between an alert and its removal (uniform, inclusive).
ALERT_LIFETIME_OPS = (40, 200)
#: The production telemetry posture ``invoke_sampled`` installs.
SAMPLED_POSTURE = PipelineConfig(default_rate=0.01, streaming=True)
#: A proxied fix may lag the receiver by one fix interval plus noise.
LOCATION_TOLERANCE_M = 150.0
#: Ops between registration-bound checks.
CHECK_EVERY = 64
#: Ops per timing window between host-speed probes (a multiple of CHECK_EVERY).
PROBE_EVERY_OPS = 512
#: Virtual time the end-of-run drain gives in-flight SMS to settle.
SETTLE_MS = 120_000.0
#: Virtual charges match the calibration up to float accumulation error.
CHARGE_TOLERANCE_MS = 1e-6
#: Wall time of one full-size round (build, 8 000 ops, settle and checks)
#: on the reference host, untraced and sampled; sets how many rounds fit
#: in ``--seconds``.
ROUND_WALL_S = {False: 0.5, True: 1.25}


def expected_charge_ms(platform: str, api: str) -> float:
    """The calibrated native charge of one op: its Figure-10 "without
    proxy" bar, or for ``removeProximityAlert`` the bare cost (zero
    natively; one default-priced bridge crossing on WebView)."""
    if api == "removeProximityAlert":
        if platform == "webview":
            return figure10_webview_bridge_latency().default_ms
        return 0.0
    return PAPER_FIGURE_10[(api, platform)][0]


#: One shuffled deck of new ops per platform: half ``getLocation``, a
#: quarter ``sendSMS``, a quarter ``addProximityAlert``.
DECK = tuple(
    (platform, api)
    for platform in PLATFORMS
    for api in ("getLocation", "getLocation", "sendSMS", "addProximityAlert")
)


def op_stream(seed: int, part: int = 0) -> Iterator[Tuple[str, str, int]]:
    """Endless seeded stream of ``(platform, api, alert_id)``; ``part``
    picks one of the seed's streams.  New ops are dealt from shuffled
    copies of ``DECK``, so every stream runs the same mix in a different
    order; removals are interleaved as they fall due."""
    rng = random.Random(f"invoke:{seed}:{part}")
    removals: List[Tuple[int, int, str]] = []
    deck: List[Tuple[str, str]] = []
    next_alert = 0
    index = 0
    while True:
        if removals and removals[0][0] <= index:
            _, alert, platform = heapq.heappop(removals)
            yield platform, "removeProximityAlert", alert
        else:
            if not deck:
                deck = list(DECK)
                rng.shuffle(deck)
            platform, api = deck.pop()
            if api != "addProximityAlert":
                yield platform, api, -1
            else:
                alert = next_alert
                next_alert += 1
                heapq.heappush(
                    removals, (index + rng.randint(*ALERT_LIFETIME_OPS), alert, platform)
                )
                yield platform, "addProximityAlert", alert
        index += 1


class _AlertListener(ProximityListener):
    def __init__(self) -> None:
        self.events = 0

    def proximity_event(self, *args) -> None:
        self.events += 1


class SmsLedger(SmsStatusListener):
    """The app's SMS status listener: tracks messages still in flight.

    A message leaves flight on its terminal report — ``delivered`` (or
    ``failed``) where the platform reports delivery, ``sent`` on S60,
    which has no delivery visibility.
    """

    def __init__(self, terminal: str, on_terminal=None) -> None:
        self._terminal = terminal
        self._on_terminal = on_terminal
        self.in_flight: set = set()
        self._early: set = set()
        self.failures = 0

    def submitted(self, message_id: str) -> None:
        if message_id in self._early:
            self._early.discard(message_id)
        else:
            self.in_flight.add(message_id)

    def _settle(self, message_id: str) -> None:
        if message_id in self.in_flight:
            self.in_flight.discard(message_id)
        else:
            self._early.add(message_id)
        if self._on_terminal is not None:
            self._on_terminal(message_id)

    def on_sent(self, message_id: str) -> None:
        if self._terminal == "sent":
            self._settle(message_id)

    def on_delivered(self, message_id: str) -> None:
        self._settle(message_id)

    def on_failed(self, message_id: str, reason: str) -> None:
        self.failures += 1
        self._settle(message_id)


class Handset:
    """One calibrated handset with the app's Location and Sms proxies."""

    def __init__(self, platform: str, hub: Optional[Observability]) -> None:
        self.platform = platform
        self.hub = hub
        if platform == "android":
            sc = scenario.build_android(latency=figure10_android_latency(), observability=hub)
        elif platform == "s60":
            sc = scenario.build_s60(latency=figure10_s60_latency(), observability=hub)
        else:
            sc = scenario.build_webview(
                latency=figure10_webview_bridge_latency(),
                android_latency=figure10_android_latency(),
                observability=hub,
            )
        self.scenario = sc
        self.device = sc.device
        self.scheduler = sc.device.scheduler
        self.clock = sc.device.scheduler.clock
        self.site = sc.config.site
        sc.device.gps.power_on()
        sc.platform.run_for(5_000)
        if platform == "webview":
            context = sc.new_context()
            webview = sc.platform.new_webview()
            WebViewPlatformExtension().install_wrappers(
                webview, sc.platform, context, ["Location", "Sms"]
            )
            holder: Dict[str, object] = {}

            def page(window) -> None:
                holder["location"] = LocationProxyJs.in_page(window)
                holder["sms"] = SmsProxyJs.in_page(window)

            webview.load_page(page)
            self.location = holder["location"]
            self.sms = holder["sms"]
            self.registry = sc.platform.android.broadcast_registry
            self.ledger = SmsLedger("delivered", self.sms.stop_tracking)
        else:
            self.location = create_proxy("Location", sc.platform)
            self.sms = create_proxy("Sms", sc.platform)
            if platform == "android":
                context = sc.new_context()
                self.location.set_property("context", context)
                self.sms.set_property("context", context)
                self.registry = sc.platform.broadcast_registry
                self.ledger = SmsLedger("delivered")
            else:
                self.registry = None
                self.ledger = SmsLedger("sent")
        self.alerts: Dict[int, _AlertListener] = {}
        self.base_registrations = self.registrations()

    def registrations(self) -> int:
        """Platform-side registrations the app holds (receivers or
        proximity listeners)."""
        if self.registry is not None:
            return self.registry.registered_count()
        return self.scenario.platform.location_provider.proximity_registration_count

    def call(self, api: str, alert: int):
        """One op through the uniform proxy API."""
        if api == "getLocation":
            return self.location.get_location()
        if api == "sendSMS":
            message_id = self.sms.send_text_message(SMS_DESTINATION, "bench", self.ledger)
            self.ledger.submitted(message_id)
            return message_id
        site = self.site
        if api == "addProximityAlert":
            listener = self.alerts[alert] = _AlertListener()
            return self.location.add_proximity_alert(
                site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
            )
        return self.location.remove_proximity_alert(self.alerts.pop(alert))

    def run_due(self) -> int:
        """The handset main loop's turn: run every callback now due."""
        return self.scheduler.run_until(self.clock.now_ms)


def build_handsets(sampled: bool) -> Dict[str, Handset]:
    handsets = {}
    for platform in PLATFORMS:
        hub = None
        if sampled:
            hub = Observability(capture_real_time=False)
            hub.install_pipeline(SAMPLED_POSTURE, source=platform)
        handsets[platform] = Handset(platform, hub)
    return handsets


def warm_up(handsets: Dict[str, Handset]) -> None:
    """Run each API a few times on each handset, then settle."""
    for handset in handsets.values():
        for round_ in range(8):
            handset.call("getLocation", -1)
            handset.call("sendSMS", -1)
            handset.call("addProximityAlert", -1 - round_)
            handset.run_due()
        for round_ in range(8):
            handset.call("removeProximityAlert", -1 - round_)
        handset.scheduler.run_for(SETTLE_MS)


# -- correctness checks (each returns a problem message or None) -------------

def check_charge(platform: str, api: str, charge_ms: float) -> Optional[str]:
    expected = expected_charge_ms(platform, api)
    if abs(charge_ms - expected) > CHARGE_TOLERANCE_MS:
        return f"{api} on {platform} charged {charge_ms!r} ms, calibrated bar is {expected!r} ms"
    return None


def check_output(handset: Handset, api: str, value) -> Optional[str]:
    if api == "getLocation":
        truth = handset.device.gps.ground_truth()
        try:
            off_m = haversine_m(value.latitude, value.longitude, truth.latitude, truth.longitude)
        except AttributeError:
            return f"getLocation on {handset.platform} returned {value!r}"
        if off_m > LOCATION_TOLERANCE_M:
            return f"getLocation on {handset.platform} is {off_m:.0f} m from the receiver"
        return None
    if api == "sendSMS":
        if not isinstance(value, str) or not value:
            return f"sendSMS on {handset.platform} returned {value!r}, not a message id"
        return None
    if value is not None:
        return f"{api} on {handset.platform} returned {value!r}"
    return None


def check_registrations(
    platform: str, registered: int, base: int, alerts: int, in_flight: int
) -> Optional[str]:
    """Receivers stay bounded by outstanding alerts plus in-flight SMS
    (two status receivers each where delivery is reported)."""
    bound = base + alerts + 2 * in_flight
    if registered > bound:
        return (
            f"{platform} holds {registered} registrations; bound is {bound} "
            f"({alerts} alerts, {in_flight} SMS in flight)"
        )
    return None


def check_settled(handset: Handset) -> List[str]:
    """After removing every alert and settling, nothing is left behind."""
    problems = []
    if handset.ledger.in_flight:
        problems.append(
            f"{handset.platform}: {len(handset.ledger.in_flight)} SMS never reported"
        )
    if handset.ledger.failures:
        problems.append(f"{handset.platform}: {handset.ledger.failures} SMS failed")
    left = handset.registrations() - handset.base_registrations
    if left != 0:
        problems.append(f"{handset.platform}: {left} registrations leaked")
    return problems


def check_pipeline(accounting: Dict[str, int], rollup_traces: int) -> Optional[str]:
    if accounting["tail_misses"] != 0:
        return f"pipeline missed {accounting['tail_misses']} anomalous traces"
    if rollup_traces != accounting["traces_total"]:
        return (
            f"rollups count {rollup_traces} traces, pipeline saw "
            f"{accounting['traces_total']}"
        )
    if accounting["traces_kept"] < 1:
        return "pipeline kept no trace"
    return None


def rollup_trace_count(pipeline) -> int:
    return sum(int(series["count"]) for series in pipeline.rollups.to_dict()["series"])


# -- the closed loop ---------------------------------------------------------

class InvokeRun:
    """State of one closed-loop run over a set of handsets."""

    def __init__(self, handsets: Dict[str, Handset], seed: int, checks, part: int = 0) -> None:
        self.handsets = handsets
        self.stream = op_stream(seed, part)
        self.checks = checks
        self.latencies_us = array("d")
        self.ops = 0
        self.failed = 0
        self.virtual_ms = 0.0
        self.platform_ops = {platform: 0 for platform in handsets}

    def run(self, ops: int, clock, meter=None) -> None:
        """Run ``ops`` more ops; with a ``meter``, close a timing window
        every ``PROBE_EVERY_OPS`` ops."""
        handsets = self.handsets
        checks = self.checks
        latencies = self.latencies_us
        stream = self.stream
        end = self.ops + ops
        while self.ops < end:
            platform, api, alert = next(stream)
            handset = handsets[platform]
            virtual_before = handset.clock.now_ms
            start = clock()
            try:
                value = handset.call(api, alert)
            except ProxyError as exc:
                latencies.append((clock() - start) * 1e6)
                self.failed += 1
                checks.expect(f"{api} on {platform} raised {exc!r}")
            else:
                latencies.append((clock() - start) * 1e6)
                charge = handset.clock.now_ms - virtual_before
                if not (
                    checks.expect(check_charge(platform, api, charge))
                    & checks.expect(check_output(handset, api, value))
                ):
                    self.failed += 1
            handset.run_due()
            self.virtual_ms += handset.clock.now_ms - virtual_before
            self.ops += 1
            self.platform_ops[platform] += 1
            if self.ops % CHECK_EVERY == 0:
                self.check_bounds()
                if meter is not None and self.ops % PROBE_EVERY_OPS == 0:
                    meter.boundary(len(latencies))

    def check_bounds(self) -> None:
        for handset in self.handsets.values():
            self.checks.expect(
                check_registrations(
                    handset.platform,
                    handset.registrations(),
                    handset.base_registrations,
                    len(handset.alerts),
                    len(handset.ledger.in_flight),
                )
            )

    def finish(self) -> None:
        """Remove outstanding alerts, settle in-flight SMS, check leftovers."""
        self.check_bounds()
        for handset in self.handsets.values():
            for alert in list(handset.alerts):
                handset.call("removeProximityAlert", alert)
            handset.scheduler.run_for(SETTLE_MS)
            for problem in check_settled(handset):
                self.checks.expect(problem)


def set_up(sampled: bool) -> Dict[str, Handset]:
    """The handsets of one run, built and warmed up."""
    handsets = build_handsets(sampled)
    warm_up(handsets)
    return handsets


def export_all(handsets: Dict[str, Handset]) -> None:
    """The sampled posture's end-of-round export of every pipeline."""
    for handset in handsets.values():
        handset.hub.pipeline.export_jsonl()


def check_exports(handsets: Dict[str, Handset], checks) -> Dict[str, int]:
    """Pipeline accounting checks; returns the summed accounting."""
    total: Dict[str, int] = {}
    for handset in handsets.values():
        pipeline = handset.hub.pipeline
        accounting = pipeline.accounting()
        problem = check_pipeline(accounting, rollup_trace_count(pipeline))
        checks.expect(None if problem is None else f"{handset.platform}: {problem}")
        for key, value in accounting.items():
            total[key] = total.get(key, 0) + value
    return total


def run_round(seed: int, sampled: bool, checks, ops: int, part: int = 0) -> Dict[str, float]:
    """Build fresh handsets (untimed), run ``ops`` ops of the stream
    (timed, with the sampled posture's export), then settle and check.

    Every round rebuilds the handsets and replays the same stream prefix,
    so rounds do identical work; peak memory is read at the end of the
    timed ops, a fixed amount of work."""
    gc.collect()  # the previous round's cyclic garbage, outside the timing
    handsets = set_up(sampled)
    run = InvokeRun(handsets, seed, checks, part)
    meter = Meter()
    meter.start()
    run.run(ops, now, meter)
    if sampled:
        export_all(handsets)
    meter.stop(len(run.latencies_us))
    wall = meter.normalized_s()
    rss = peak_rss_mb()
    if sampled:
        check_exports(handsets, checks)
    run.finish()
    return {
        "attempted": run.ops,
        "failed": run.failed,
        "rss_mb": rss,
        "host_factor": meter.host_factor(),
        "latencies_us": meter.normalized_samples(run.latencies_us),
        "ops_per_s": run.ops / wall,
        "agent_s_per_s": run.virtual_ms / 1000.0 / wall,
    }


def run_untraced(seed: int, seconds: float, sampled: bool, import_s: float, size, result) -> None:
    """The end-to-end measurement: about ``seconds`` of rounds; fills ``result``."""
    setup_s = set_up_seconds(
        lambda: set_up(sampled), import_s,
        "perfbench.invoke", f"perfbench.invoke.set_up({sampled})", size.setup_probes,
    )
    checks = Checks()
    rounds = run_rounds(
        lambda index: run_round(seed, sampled, checks, size.round_ops, index),
        seconds, ROUND_WALL_S[sampled],
    )
    result.end_to_end(rounds, setup_s)
    result.correct = checks.ok and result.failed == 0
    result.notes.extend(checks.messages)
