"""Golden digest of the 1% streaming telemetry posture.

A seeded Figure-10 op mix (``getLocation``, ``sendSMS``,
``addProximityAlert``/``removeProximityAlert``) runs on an android, an
s60 and a webview handset, each with a recording hub and a
``PipelineConfig(default_rate=0.01, streaming=True)`` pipeline.  Each
pipeline's retained export, its ``to_dict()`` (config, accounting,
rollups, retention) and its metrics snapshot are hashed per platform.
The constants pin the exact bytes, so any change to span construction,
attribute cleaning, trace completion order, the sampling decision or the
P² arithmetic that moves a single byte fails here.
"""

import hashlib
import json
import random

import pytest

from repro.apps.workforce import scenario
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxies.location.webview import LocationProxyJs
from repro.core.proxies.sms.webview import SmsProxyJs
from repro.core.proxy.callbacks import ProximityListener, SmsStatusListener
from repro.errors import ProxyError
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.obs.pipeline import PipelineConfig

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]

POSTURE = PipelineConfig(default_rate=0.01, streaming=True)
OPS = 400
SEED = 5
#: Transient substrate faults, after set-up, so some traces end in error.
FAULT_RATE = 0.02
FAULTS_FROM_MS = 10_000.0
#: Virtual time the end of the run gives in-flight SMS to settle.
SETTLE_MS = 20_000.0
#: sha256 of export_jsonl() / to_dict() / metrics.snapshot(), per platform.
GOLDEN = {
    "android": (
        "6b399c5eabb5fcd90a661b882ff69ca3a6a5a7c262160dfa2be6ad44314b5fa4",
        "9e4d4457e82a432faf6d20d35958f2f1a48118d8114956be27f5a2c600f0c118",
        "c0455fcd1ceeccc809162739510952feb41d01da26dc85dc3975ec8c3d657851",
    ),
    "s60": (
        "fb488eaf7b2e23731aa3ca61817f38d2bcba7642ee80c797b3811ec62711418b",
        "4019f9076a6e3272743e7d117cfffa2e03b973d337201521d3fa45f446f70c0e",
        "411f8c053a0bb7a21f29510fee75f56f2f372d1ec74fc33ce1538c86643a8c3f",
    ),
    "webview": (
        "4864c910ded3bf9e2c0d9594ad5a781828f885c8677590c8fa093ff8964d82a2",
        "f4c55413dd780e93c03e1b8c8507632b602872f3f12d760f99cff31be3e12520",
        "029b3c80265128616b876610669b762f64c5a0236cec6d873df2d6816b143f9e",
    ),
}


class _Listener(ProximityListener, SmsStatusListener):
    def proximity_event(self, *args) -> None:
        pass

    def on_sent(self, message_id) -> None:
        pass

    def on_delivered(self, message_id) -> None:
        pass

    def on_failed(self, message_id, reason) -> None:
        pass


def _proxies(platform, hub):
    builders = {
        "android": scenario.build_android,
        "s60": scenario.build_s60,
        "webview": scenario.build_webview,
    }
    plan = FaultPlan.transient(FAULT_RATE, seed=SEED, start_ms=FAULTS_FROM_MS)
    sc = builders[platform](fault_plan=plan, observability=hub)
    sc.device.gps.power_on()
    sc.platform.run_for(5_000.0)
    if platform == "webview":
        webview = sc.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, sc.platform, sc.new_context(), ["Location", "Sms"]
        )
        holder = {}

        def page(window):
            holder["location"] = LocationProxyJs.in_page(window)
            holder["sms"] = SmsProxyJs.in_page(window)

        webview.load_page(page)
        return sc, holder["location"], holder["sms"]
    location = create_proxy("Location", sc.platform)
    sms = create_proxy("Sms", sc.platform)
    if platform == "android":
        context = sc.new_context()
        location.set_property("context", context)
        sms.set_property("context", context)
    return sc, location, sms


def run_platform(platform):
    hub = Observability(capture_real_time=False)
    pipeline = hub.install_pipeline(POSTURE, source=platform)
    sc, location, sms = _proxies(platform, hub)
    rng = random.Random(f"sampled-digest:{SEED}:{platform}")
    site = sc.config.site
    listener = _Listener()
    alerts = []
    for _ in range(OPS):
        draw = rng.random()
        try:
            if draw < 0.5:
                location.get_location()
            elif draw < 0.75:
                sms.send_text_message("+915550900", "digest", listener)
            elif draw < 0.9 or not alerts:
                alerts.append(_Listener())
                location.add_proximity_alert(
                    site.latitude, site.longitude, 0.0, site.radius_m, -1, alerts[-1]
                )
            else:
                location.remove_proximity_alert(alerts.pop(rng.randrange(len(alerts))))
        except ProxyError:
            pass
        sc.platform.run_for(rng.uniform(0.0, 200.0))
    sc.platform.run_for(SETTLE_MS)
    return pipeline


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(pipeline):
    return (
        _sha(pipeline.export_jsonl()),
        _sha(json.dumps(pipeline.to_dict(), sort_keys=True)),
        _sha(json.dumps(pipeline.metrics.snapshot(), sort_keys=True)),
    )


@pytest.fixture(scope="module")
def pipelines():
    return {platform: run_platform(platform) for platform in GOLDEN}


@pytest.mark.parametrize("platform", sorted(GOLDEN))
def test_run_keeps_head_and_tail_traces(pipelines, platform):
    accounting = pipelines[platform].accounting()
    assert accounting["traces_total"] >= OPS * 3 // 4
    assert accounting["head_kept"] >= 1
    assert accounting["tail_kept"] >= 1
    assert accounting["tail_misses"] == 0
    assert accounting["traces_kept"] < accounting["traces_total"]
    tail_rules = pipelines[platform].metrics.counter_values("obs.tail_kept")
    assert (("rule", "error"),) in tail_rules


@pytest.mark.parametrize("platform", sorted(GOLDEN))
def test_sampled_digest_is_pinned(pipelines, platform):
    assert digests(pipelines[platform]) == GOLDEN[platform]
