"""The ``fleet`` workload: a workforce fleet on the shipped deployment.

``build_fleet(n, runtime=True, admission=AdmissionConfig(),
distrib=DistribConfig(two regions))`` plus ``launch_fleet``; then a
benchmark-owned cooperative loop per agent, through public
``ConcurrencyRuntime`` calls: ``get_location``, a report
``submit_invocation`` whose acknowledged fix is ``put`` into the replicated
``reports`` table, a coalescable ``http_get`` status poll, then sleep until
the next period.  Agents report in phase cohorts of about a hundred at a
seeded offset, so each cohort's GETs coalesce and its burst reaches the
admission plane.

Every intended op is counted.  A refused or raised call, and a fix that is
not near the agent's own position, count as failed; the agent carries on
to its next period.  (The shipped ``launch_fleet_on_runtime`` loop dies on
its first shed ``getLocation``, which is why the benchmark drives its own.)
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from array import array
from typing import Dict, List, Optional

from repro.apps.workforce.common import PATH_REPORT_LOCATION, PATH_STATUS, SERVER_HOST, encode
from repro.apps.workforce.fleet import build_fleet, launch_fleet
from repro.distrib.config import DistribConfig
from repro.errors import ProxyError
from repro.runtime import AdmissionConfig
from repro.util.geo import haversine_m

from perfbench.common import (
    Checks, Meter, labelled_total, now, peak_rss_mb, run_rounds, set_up_seconds,
)

REGIONS = ("ap-south", "eu-west")
#: Virtual period between one agent's reports.
PERIOD_MS = 20_000.0
#: Agents per reporting cohort (a cohort fires at one instant).
COHORT_SIZE = 100
#: Virtual time advanced per slice of the agent loop (the wall-clock check interval).
SLICE_MS = 1_000.0
#: Slices per timing window between host-speed probes.
PROBE_EVERY_SLICES = 4
#: Virtual horizon of one round.  Every round rebuilds the fleet from the
#: same seed, so rounds do identical work and must end in identical states.
ROUND_MS = 120_000.0
#: Wall time of one round (build, timed horizon, stop and checks) on the
#: reference host; sets how many rounds fit in ``--seconds``.
ROUND_WALL_S = 1.0
#: A fix is the agent's own if it lies this close to the receiver's
#: position, plus the distance the agent can travel while the fix ages.
FIX_TOLERANCE_M = 100.0
MAX_AGENT_SPEED_MPS = 40.0
REPORT_URL = f"http://{SERVER_HOST}{PATH_REPORT_LOCATION}"
STATUS_URL = f"http://{SERVER_HOST}{PATH_STATUS}"


def deploy(agents: int):
    """The shipped deployment with the proxied app launched on every agent."""
    fleet = build_fleet(
        agents,
        runtime=True,
        admission=AdmissionConfig(),
        distrib=DistribConfig(regions=REGIONS),
    )
    launch_fleet(fleet)
    return fleet


def cohort_phases(seed: int, agents: int) -> List[float]:
    """Each agent's first-report offset: its cohort's phase.  Agent *i*
    is in cohort *i* mod the cohort count, and cohort *k* starts at the
    seeded offset into the *k*-th slot of the period (the first half of
    it, so cohorts never fire together).  The seed moves every cohort by
    the same amount, so every seed loads the admission plane alike and
    fails the same ops: ``attempted`` and ``failed`` are the same on
    every seed."""
    rng = random.Random(f"fleet:{seed}")
    cohorts = max(1, agents // COHORT_SIZE)
    slot = PERIOD_MS / cohorts
    offset = rng.uniform(0.0, 0.5)
    return [slot * (index % cohorts + offset) for index in range(agents)]


# -- correctness checks (each returns a problem message or None) -------------

def check_fix(agent_id: str, fix, truth, now_ms: float) -> Optional[str]:
    """A reported fix must lie near the agent's own position."""
    off_m = haversine_m(fix.latitude, fix.longitude, truth.latitude, truth.longitude)
    age_s = max(0.0, now_ms - fix.timestamp_ms) / 1000.0
    if off_m > FIX_TOLERANCE_M + MAX_AGENT_SPEED_MPS * age_s:
        return f"{agent_id} got a fix {off_m / 1000.0:.1f} km from its own position"
    return None


def check_admitted_completed(counts: Dict[str, float]) -> Optional[str]:
    """No admitted work dropped: every admitted, absorbed or coalesced
    request (counted per future) either completed, failed in its thunk, or
    was evicted by higher-class work."""
    admitted = counts["admitted"] + counts["absorbed"] + counts["coalesced"]
    finished = counts["completed"] + counts["failed"] + counts["evicted"]
    if admitted != finished:
        return f"runtime admitted {admitted:.0f} requests but finished {finished:.0f}"
    return None


def check_converged(tables: Dict[str, Dict[str, str]]) -> Optional[str]:
    """Every replicated table holds the same content in every region."""
    for name, hashes in sorted(tables.items()):
        if len(set(hashes.values())) != 1:
            return f"table {name!r} diverges across regions: {hashes}"
    return None


def check_digest(first: str, second: str) -> Optional[str]:
    if first != second:
        return f"same-seed runs differ: digest {first[:12]} vs {second[:12]}"
    return None


def runtime_counts(runtime) -> Dict[str, float]:
    metrics = runtime.observability.metrics
    return {
        "admitted": labelled_total(metrics, "runtime.outcome", outcome="admitted"),
        "absorbed": labelled_total(metrics, "runtime.outcome", outcome="absorbed"),
        "coalesced": labelled_total(metrics, "runtime.outcome", outcome="coalesced"),
        "completed": metrics.total("runtime.completed"),
        "failed": metrics.total("runtime.failed"),
        "evicted": labelled_total(metrics, "admission.shed", reason="evicted"),
    }


class FleetRun:
    """One fleet and the benchmark's agent loops over it."""

    def __init__(self, fleet, seed: int) -> None:
        self.fleet = fleet
        self.runtime = fleet.runtime
        self.intended = 0
        self.failed = 0
        #: Calls that returned a result, right or wrong.
        self.completed = 0
        #: Calls refused by the admission plane or raising an error.
        self.refused = 0
        self.wrong_fixes = 0
        self.wrong: List[str] = []
        self.report_us = array("d")
        self.stopping = False
        for agent, phase in zip(fleet.agents, cohort_phases(seed, len(fleet.agents))):
            self.runtime.spawn(f"bench:{agent.profile.agent_id}", self._loop(agent, phase))

    def _timed_post(self, logic, body: str):
        start = now()
        response = logic.http.post(REPORT_URL, body)
        self.report_us.append((now() - start) * 1e6)
        return response

    def _outcome(self, future):
        """Wait for ``future``; a refused or raising call is a failed op."""
        try:
            value = yield future
        except Exception:  # refused by the admission plane or raised in the call
            self.refused += 1
            self.failed += 1
            return None
        self.completed += 1
        return value

    def _loop(self, agent, phase: float):
        runtime = self.runtime
        logic = agent.logic
        agent_id = agent.profile.agent_id
        table = runtime.distrib.table("reports")
        yield phase
        while not self.stopping:
            started = runtime.scheduler.clock.now_ms
            self.intended += 3
            fix = yield from self._outcome(runtime.get_location(logic.location, tenant=agent_id))
            report = None
            if fix is None:
                self.failed += 1  # no fix, so no report to send
            else:
                problem = check_fix(
                    agent_id, fix, agent.device.gps.ground_truth(),
                    runtime.scheduler.clock.now_ms,
                )
                if problem is not None:
                    self.wrong_fixes += 1
                    self.failed += 1
                    if len(self.wrong) < 3:
                        self.wrong.append(problem)
                body = encode(
                    {
                        "agent": agent_id,
                        "latitude": fix.latitude,
                        "longitude": fix.longitude,
                        "timestamp_ms": fix.timestamp_ms,
                    }
                )
                report = runtime.submit_invocation(
                    logic.http, "post",
                    lambda body=body: self._timed_post(logic, body),
                    key=agent_id, tenant=agent_id,
                )
            status = runtime.http_get(logic.http, STATUS_URL, tenant=agent_id)
            if report is not None:
                response = yield from self._outcome(report)
                if response is not None:
                    if response.ok:
                        table.put(
                            agent_id,
                            {"latitude": fix.latitude, "longitude": fix.longitude,
                             "timestamp_ms": fix.timestamp_ms},
                            region=agent.region,
                        )
                    else:
                        self.failed += 1
            response = yield from self._outcome(status)
            if response is not None and not response.ok:
                self.failed += 1
            yield max(0.0, PERIOD_MS - (runtime.scheduler.clock.now_ms - started))

    def virtual_ms(self) -> float:
        return self.runtime.scheduler.clock.now_ms

    def advance_to(self, until_ms: float, meter=None) -> None:
        """Advance in virtual slices; with a ``meter``, close a timing
        window every ``PROBE_EVERY_SLICES`` slices."""
        slices = 0
        while self.virtual_ms() < until_ms:
            self.fleet.run_for(SLICE_MS)
            slices += 1
            if meter is not None and slices % PROBE_EVERY_SLICES == 0:
                meter.boundary(len(self.report_us))

    def state_digest(self) -> str:
        """Virtual-time digest of everything the run observably did."""
        server = self.fleet.server
        tracks = []
        for agent in self.fleet.agents:
            track = server.track_of(agent.profile.agent_id)
            if track is not None:
                tracks.append(
                    [track.agent_id, track.report_count, round(track.latitude, 9),
                     round(track.longitude, 9), track.last_report_ms]
                )
        state = {
            "t_ms": self.virtual_ms(),
            "intended": self.intended,
            "failed": self.failed,
            "refused": self.refused,
            "tracks": tracks,
            "tables": self.runtime.distrib.tables()["reports"].content_hashes(),
            "runtime": runtime_counts(self.runtime),
        }
        return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()

    def stop(self, checks) -> None:
        """Let every agent loop finish, then run the end-of-run checks."""
        self.stopping = True
        self.runtime.drain()
        dead = self.runtime.tasks.failed_tasks()
        if dead:
            checks.expect(f"{len(dead)} agent loops died: {dead[0].error!r}")
        checks.expect(check_admitted_completed(runtime_counts(self.runtime)))
        self.runtime.distrib.run_until_converged()
        checks.expect(
            check_converged(
                {name: table.content_hashes()
                 for name, table in self.runtime.distrib.tables().items()}
            )
        )


def run_round(seed: int, agents: int, checks) -> Dict[str, object]:
    """Deploy a fresh fleet (untimed), drive it ``ROUND_MS`` of virtual
    time (timed), then stop the agents and check the end state.  Peak
    memory is read at the horizon, a fixed amount of work."""
    gc.collect()  # the previous round's cyclic garbage, outside the timing
    run = FleetRun(deploy(agents), seed)
    meter = Meter()
    meter.start()
    run.advance_to(ROUND_MS, meter)
    meter.stop(len(run.report_us))
    wall = meter.normalized_s()
    rss = peak_rss_mb()
    digest = run.state_digest()
    run.stop(checks)
    return {
        "attempted": run.intended,
        "failed": run.failed,
        "wrong": run.wrong,
        "wrong_fixes": run.wrong_fixes,
        "refused": run.refused,
        "digest": digest,
        "rss_mb": rss,
        "host_factor": meter.host_factor(),
        "latencies_us": meter.normalized_samples(run.report_us),
        "ops_per_s": run.completed / wall,
        "agent_s_per_s": agents * ROUND_MS / 1000.0 / wall,
    }


def run_untraced(seed: int, seconds: float, import_s: float, size, result) -> None:
    """The end-to-end measurement: about ``seconds`` of rounds; fills ``result``."""
    agents = size.agents
    setup_s = set_up_seconds(
        lambda: deploy(agents), import_s,
        "perfbench.fleet", f"perfbench.fleet.deploy({agents})", size.setup_probes,
    )
    checks = Checks()
    rounds = run_rounds(lambda index: run_round(seed, agents, checks), seconds, ROUND_WALL_S)
    for later in rounds[1:]:
        checks.expect(check_digest(rounds[0]["digest"], later["digest"]))
    result.end_to_end(rounds, setup_s)
    result.correct = checks.ok
    result.notes.extend(checks.messages)
    first = rounds[0]
    result.notes.extend(first["wrong"])
    result.notes.append(
        f"fleet round: {first['failed']} of {first['attempted']} ops failed "
        f"({first['wrong_fixes']} fixes not the agent's own, {first['refused']} refused)"
    )
