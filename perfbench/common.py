"""Shared helpers: host-speed normalization, timing windows, set-up timing,
rounds and the result line."""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters whose import-and-build time joins the in-process
#: one; ``setup_s`` is the median, so one slow start (a page-cache miss, a
#: GC pause) does not move the figure.
SETUP_PROBES = 4


class Checks:
    """Collects correctness-check failures (keeps the first few messages)."""

    def __init__(self, keep: int = 10) -> None:
        self.failures = 0
        self.messages: List[str] = []
        self._keep = keep

    def expect(self, problem: Optional[str]) -> bool:
        """Record ``problem`` (a message, or ``None`` when the check held)."""
        if problem is None:
            return True
        self.failures += 1
        if len(self.messages) < self._keep:
            self.messages.append(problem)
        return False

    @property
    def ok(self) -> bool:
        return self.failures == 0


def now() -> float:
    return time.perf_counter()


# -- host-speed normalization --------------------------------------------------
#
# Shared hosts drift in speed by +-25% over seconds to minutes, and that
# drift moves every wall-clock figure together.  The loops therefore stop
# every few dozen milliseconds of work to time a fixed calibration probe,
# and scale each window's wall time by
# (PROBE_REFERENCE_S / probe time around it) ** PROBE_EXPONENT.  Code
# changes move the workload but not the probe, so they still show in full.
# The probe mixes interpreter-bound work with random reads over a table far
# larger than the caches, because the drift slows the two kinds of work by
# different amounts and the workloads do both.  Measured across runs on a
# 2-vCPU Linux VM, the workloads slowed by between half as much as the
# probe and as much as it, depending on the period; the square root
# corrects half of the drift and never adds more than half of the probe's
# own noise.

#: Probe time on the reference host (a 2-vCPU Linux VM, Python 3.11).
PROBE_REFERENCE_S = 2.0e-3
#: How strongly the probe ratio scales wall time (0 = raw wall time).
PROBE_EXPONENT = 0.5
#: Probes on each side of a window whose median sets its scale factor.
PROBE_SMOOTHING = 3
#: Size of the probe's lookup table and lookups per probe.
PROBE_TABLE_KEYS = 300_000
PROBE_LOOKUPS = 3_000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _bump(table: Dict[str, int], cell: _Cell) -> int:
    table[cell.key] = table.get(cell.key, 0) + cell.value
    return cell.value


def resident_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


@functools.lru_cache(maxsize=1)
def _probe_table() -> Tuple[Dict[str, int], List[str], float]:
    """The probe's lookup table, its lookup keys and its resident size."""
    before = resident_mb()
    rng = random.Random("perfbench-probe")
    table = {f"key{i}": i for i in range(PROBE_TABLE_KEYS)}
    keys = [f"key{rng.randrange(PROBE_TABLE_KEYS)}" for _ in range(PROBE_LOOKUPS)]
    return table, keys, resident_mb() - before


def calibration_probe(n: int = 1000) -> float:
    """Time a fixed mix of the work the workloads do: object construction,
    attribute and dict access, calls and a small sort, then random lookups
    in a large table.  The cyclic collector is held off so the probe's cost
    never depends on the size of the workload's heap."""
    table, keys, _ = _probe_table()
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = now()
        cells_by_key: Dict[str, int] = {}
        cells = []
        total = 0
        for i in range(n):
            cell = _Cell(f"k{i & 31}", i)
            cells.append(cell)
            total += _bump(cells_by_key, cell)
        cells.sort(key=lambda c: c.value & 15)
        for key in keys:
            total += table[key]
        return now() - start
    finally:
        if collecting:
            gc.enable()


def host_scale(*probes: float) -> float:
    """The factor that turns wall time measured around ``probes`` into
    normalized time."""
    return (PROBE_REFERENCE_S / statistics.median(probes)) ** PROBE_EXPONENT


class Meter:
    """Times a loop in windows separated by calibration probes.

    ``boundary(n)`` closes the current window after ``n`` samples in all;
    probe time is excluded from every window.
    """

    def __init__(self) -> None:
        self.window_wall = array("d")
        self.window_end = array("l")
        self.probes = array("d")
        self._started: Optional[float] = None

    def start(self) -> None:
        self.probes.append(calibration_probe())
        self._started = now()

    def boundary(self, samples: int) -> None:
        self.stop(samples)
        self.start()

    def stop(self, samples: int) -> None:
        self.window_wall.append(now() - self._started)
        self.window_end.append(samples)
        self.probes.append(calibration_probe())

    def factors(self) -> List[float]:
        """Per-window scale to the reference host (smoothed probes)."""
        return [
            host_scale(*self.probes[max(0, index + 1 - PROBE_SMOOTHING): index + 1 + PROBE_SMOOTHING])
            for index in range(len(self.window_wall))
        ]

    def normalized_s(self) -> float:
        return sum(wall * factor for wall, factor in zip(self.window_wall, self.factors()))

    def normalized_samples(self, samples: Sequence[float]) -> List[float]:
        """``samples`` (in window order) scaled by their window's factor."""
        out: List[float] = []
        begin = 0
        for end, factor in zip(self.window_end, self.factors()):
            out.extend(value * factor for value in samples[begin:end])
            begin = end
        out.extend(samples[begin:])
        return out

    def host_factor(self) -> float:
        return host_scale(*self.probes)


def labelled_total(metrics, name: str, **labels: str) -> float:
    """Sum of a counter over the label sets that carry ``labels``."""
    return sum(
        instrument.value
        for instrument in metrics.collect(name)
        if all(instrument.labels.get(key) == value for key, value in labels.items())
    )


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB), less the
    calibration probe's table, which is the benchmark's and not the
    program's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - _probe_table()[2]


def set_up_probe_seconds(module: str, call: str, probes: int) -> List[float]:
    """Set-up time in ``probes`` fresh interpreters: from before
    ``import module`` until ``call`` (a set-up expression in it, e.g.
    ``perfbench.fleet.deploy(300)``) returns, each normalized by the
    calibration probes taken around it."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{SRC!r}, {ROOT!r}]\n"
        "start = time.perf_counter()\n"
        f"import {module}\n"
        f"{call}\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    before = calibration_probe()
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        after = calibration_probe()
        samples.append(float(done.stdout.strip().splitlines()[-1]) * host_scale(before, after))
        before = after
    return samples


def set_up_seconds(build: Callable[[], object], import_s: float, module: str, call: str, probes: int) -> float:
    """``setup_s``: the median of this process's set-up (``import_s``, the
    normalized import time measured by the caller, plus one ``build()``) and
    ``probes`` fresh interpreters' set-up."""
    before = calibration_probe()
    start = now()
    build()
    in_process = import_s + (now() - start) * host_scale(before, calibration_probe())
    return statistics.median([in_process] + set_up_probe_seconds(module, call, probes))


#: Rounds every run makes, however short its budget (same-seed rounds are
#: compared with each other).
MIN_ROUNDS = 2


def run_rounds(
    one_round: Callable[[int], Dict[str, object]], seconds: float, round_s: float
) -> List[Dict[str, object]]:
    """Run ``one_round(index)`` for ``seconds / round_s`` rounds (at least
    ``MIN_ROUNDS``), where
    ``round_s`` is one round's wall time on the reference host, so a run
    measures about ``seconds``.  The count does not depend on the host's
    speed, so a run's ``attempted`` and ``failed`` are fixed by its
    arguments."""
    return [one_round(index) for index in range(max(MIN_ROUNDS, round(seconds / round_s)))]


#: The per-round rates every workload reports (median over rounds).
ROUND_UNITS = {
    "ops_per_s": "1/s",
    "agent_s_per_s": "s/s",
}


class Result:
    """The benchmark's one-line JSON result."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.notes: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def end_to_end(self, rounds: Sequence[Dict[str, object]], setup_s: float) -> None:
        """Counts summed over rounds, latency percentiles over every timed
        call of every round, rates as medians over rounds, and the
        run-level metrics."""
        self.attempted = sum(r["attempted"] for r in rounds)
        self.failed = sum(r["failed"] for r in rounds)
        latencies = sorted(value for r in rounds for value in r["latencies_us"])
        self.metric("op_p50_us", percentile(latencies, 50), "us")
        self.metric("op_p99_us", percentile(latencies, 99), "us")
        for name, unit in ROUND_UNITS.items():
            self.metric(name, statistics.median(r[name] for r in rounds), unit)
        self.metric("setup_s", setup_s, "s")
        self.metric("ok_ratio", 1.0 - self.failed / self.attempted, "ratio")
        self.metric("peak_rss_mb", rounds[0]["rss_mb"], "MB")
        factors = ", ".join(f"{r['host_factor']:.3f}" for r in rounds)
        self.notes.append(f"{len(rounds)} rounds; host speed factor per round: {factors}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": bool(self.correct),
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": self.metrics,
            },
            sort_keys=False,
        )
