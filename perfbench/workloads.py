"""Dispatch one benchmark run to its workload, untraced or traced."""

from __future__ import annotations

from typing import NamedTuple

from perfbench.common import SETUP_PROBES, Result


class Size(NamedTuple):
    """How much work one run does."""

    #: Fleet agents.
    agents: int
    #: Ops per ``invoke``/``invoke_sampled`` round.
    round_ops: int
    #: Fresh interpreters timed for ``setup_s`` besides the running one.
    setup_probes: int


FULL = Size(agents=300, round_ops=8_000, setup_probes=SETUP_PROBES)
#: The smoke mode the benchmark's own tests use; its figures are not
#: comparable with full runs.
SHORT = Size(agents=40, round_ops=1_000, setup_probes=0)


def run(args, import_s: float) -> Result:
    result = Result()
    size = SHORT if args.short else FULL
    if args.trace:
        from perfbench import layers

        layers.run_traced(args.workload, args.seed, args.seconds, size, result)
    elif args.workload == "fleet":
        from perfbench import fleet

        fleet.run_untraced(args.seed, args.seconds, import_s, size, result)
    else:
        from perfbench import invoke

        invoke.run_untraced(
            args.seed, args.seconds, args.workload == "invoke_sampled", import_s, size, result
        )
    return result
