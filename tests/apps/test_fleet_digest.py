"""Golden digest of a small shipped fleet deployment.

Thirty agents on the runtime + admission + two-region distrib deployment
run 60 s of virtual time.  Each agent's last GPS fix, battery drain
report, proximity-alert fires, activity events and server track are
hashed into one digest.  The constant below pins the exact floats and
event order, so any change to the virtual-time substrate (scheduler,
event bus, trajectory, fix emission) that moves a single event fails
here.
"""

import hashlib

from repro.apps.workforce.fleet import build_fleet, launch_fleet, launch_fleet_on_runtime
from repro.distrib.config import DistribConfig
from repro.runtime import AdmissionConfig

AGENTS = 30
HORIZON_MS = 60_000.0
#: sha256 of the run's per-agent state lines (see :func:`fleet_state_lines`).
GOLDEN_DIGEST = "be00a303efac95fee1856641643c5a9b6b579c06d07f43ec12236cd3f9fa2a2c"


def run_fleet():
    fleet = build_fleet(
        AGENTS,
        leg_ms=20_000.0,
        runtime=True,
        admission=AdmissionConfig(),
        distrib=DistribConfig(regions=("ap-south", "eu-west")),
    )
    launch_fleet(fleet)
    launch_fleet_on_runtime(fleet, reports=2, period_ms=20_000.0)
    executed = fleet.run_for(HORIZON_MS)
    return fleet, executed


def fleet_state_lines(fleet, executed):
    lines = [f"executed={executed} now={fleet.scheduler.clock.now_ms!r}"]
    for agent in fleet.agents:
        agent_id = agent.profile.agent_id
        fix = agent.device.gps.last_fix
        lines.append(
            f"{agent_id} fix={fix.point.latitude!r},{fix.point.longitude!r},"
            f"{fix.point.altitude!r},{fix.timestamp_ms!r},{fix.accuracy_m!r},"
            f"{fix.speed_mps!r}"
        )
        lines.append(f"{agent_id} drain={sorted(agent.device.battery.drain_report().items())!r}")
        lines.append(f"{agent_id} level={agent.device.battery.level_mwh!r}")
        alerts = agent.platform.location_state._alerts
        lines.append(f"{agent_id} alerts={[alert.fired for alert in alerts]!r}")
        lines.append(f"{agent_id} activity={agent.logic.activity_events!r}")
        track = fleet.server.track_of(agent_id)
        if track is None:
            lines.append(f"{agent_id} track=None")
        else:
            lines.append(
                f"{agent_id} track={track.latitude!r},{track.longitude!r},"
                f"{track.last_report_ms!r},{track.report_count}"
            )
    lines.append(f"inbox={fleet.supervisor_inbox!r}")
    return lines


def test_fleet_run_exercises_every_recorded_channel():
    fleet, _ = run_fleet()
    assert all(agent.device.gps.last_fix is not None for agent in fleet.agents)
    fires = [
        alert.fired
        for agent in fleet.agents
        for alert in agent.platform.location_state._alerts
    ]
    assert any(fires)
    tracks = [fleet.server.track_of(agent.profile.agent_id) for agent in fleet.agents]
    assert any(track is not None and track.report_count for track in tracks)


def test_fleet_digest_is_pinned():
    fleet, executed = run_fleet()
    digest = hashlib.sha256(
        "\n".join(fleet_state_lines(fleet, executed)).encode()
    ).hexdigest()
    assert digest == GOLDEN_DIGEST
