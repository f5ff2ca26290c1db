"""Command-line entry point of the repository benchmark.

    python3 perfbench/run.py --workload {invoke,invoke_sampled,fleet} \
        --seed N --seconds S --trace {0,1} [--short]

Run from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a separate traced run.
Diagnostics go to standard error.  Exit status is 0 only when a result was
printed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Each workload and the module whose import ``setup_s`` times.
MODULES = {
    "invoke": "perfbench.invoke",
    "invoke_sampled": "perfbench.invoke",
    "fleet": "perfbench.fleet",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--short", action="store_true",
        help="smoke mode: small rounds, no fresh-interpreter set-up timing "
        "(figures not comparable with full runs)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import importlib

    from perfbench.common import calibration_probe, host_scale

    before = calibration_probe()
    import_start = time.perf_counter()
    importlib.import_module(MODULES[args.workload])
    import_s = (time.perf_counter() - import_start) * host_scale(before, calibration_probe())
    from perfbench import workloads

    result = workloads.run(args, import_s)
    for note in result.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"perfbench: process wall {time.perf_counter() - _STARTED:.1f} s", file=sys.stderr)
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
