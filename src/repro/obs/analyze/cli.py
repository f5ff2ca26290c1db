"""``python -m repro.obs`` — trace analytics from the command line.

Eleven subcommands, all operating on exported JSONL trace files (or,
for ``diff``, saved profile / BENCH documents; for ``flight``, a saved
flight-recorder document).  Every subcommand follows one convention: a
positional ``trace`` input plus ``--format {text,json}`` (``--json`` is
the shorthand), so scripts can pipe any analysis as JSON.

* ``profile`` — the Figure-10 per-layer overhead decomposition, with
  optional flamegraph collapsed stacks, a top-N self-time table, and a
  saveable deterministic JSON profile;
* ``slo`` — replay dispatch spans through an SLO engine and report
  attainment / breaches;
* ``diff`` — compare two profiles and run the perf-regression gate
  (report-only by default; ``--gate`` makes regressions exit non-zero);
* ``timeline`` — fold ``queue:<op>`` spans into per-shard Gantt
  timelines with a USE-style utilization/saturation summary;
* ``critical-path`` — the chain of lane segments that exactly explains
  a concurrent drain's makespan, with per-span slack;
* ``flight`` — render a flight-recorder incident document;
* ``admission`` — shed / throttle / autoscale breakdown from the
  admission plane's span events;
* ``distrib`` — replication-lag / dedup / saga tables from the
  distributed tier's spans and events (a projection of the causal fold:
  one pass over the tier's records serves both reports);
* ``causal`` — the cross-region happens-before graph: visibility
  latency, convergence paths, saga decomposition and the
  causality-violation audit (``--gate`` fails on violations/cycles);
* ``scenario`` — record/replay declarative cross-platform scenarios and
  diff recordings against the declared-divergence table (``--gate``
  fails on undeclared divergences; see ``docs/SCENARIOS.md``);
* ``health`` — the fleet health console: replay a trace through the
  telemetry pipeline and fuse sampling accounting, RED rollups, SLO
  state, admission outcomes, flight incidents and the causal audit into
  one report (``--gate`` fails on drops, overflows, tail misses,
  causal violations or SLO breaches).

Every input file is opened and parsed in one place (:func:`_load`), and
the reports share one tail: ``--out`` → ``--format`` → gate exit.  Exit
codes: ``0`` ok; ``1`` a ``--gate`` failed or ``slo`` found a breach;
``2`` unusable input (an unreadable or malformed file, a bad option value,
an unknown scenario), reported as one ``repro.obs: error: PATH[:LINE]:
reason`` line on stderr, like argparse's own usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, InputError, json_object
from repro.obs.analyze.admission import AdmissionReport, render_admission_text
from repro.obs.analyze.causal import CausalReport, render_causal_text
from repro.obs.analyze.critical_path import CriticalPath
from repro.obs.analyze.distrib import DistribReport, render_distrib_text
from repro.obs.analyze.diff import (
    DEFAULT_NOISE_FRAC,
    DEFAULT_NOISE_MS,
    diff_profiles,
    load_profile_text,
)
from repro.obs.analyze.overhead import (
    OverheadProfile,
    collapsed_stacks,
    parse_jsonl,
    render_profile_text,
    top_spans_text,
)
from repro.obs.analyze.slo import SloEngine, SloSpec
from repro.obs.flight import FlightRecorder, render_flight_text
from repro.obs.pipeline import HealthReport, PipelineConfig, render_health_text
from repro.obs.timeline import ShardTimelines

#: (name, one-line description) — single source for subparsers and --help.
COMMANDS: Tuple[Tuple[str, str], ...] = (
    ("profile", "per-layer overhead decomposition of a trace"),
    ("slo", "evaluate SLO specs over a trace's dispatch spans"),
    ("diff", "compare two profiles / traces; optional regression gate"),
    ("timeline", "per-shard Gantt timelines and USE summary from a trace"),
    ("critical-path", "the lane-segment chain explaining a drain's makespan"),
    ("flight", "render a saved flight-recorder incident document"),
    ("admission", "shed/throttle/autoscale breakdown from a trace"),
    ("distrib", "replication-lag/dedup/saga breakdown from a trace"),
    ("causal", "cross-region happens-before graph and consistency audit"),
    ("scenario", "record/replay cross-platform scenarios; divergence gate"),
    ("health", "fleet health console over a trace; telemetry health gate"),
)


def _format_parent() -> argparse.ArgumentParser:
    """The shared output-format options every subcommand takes."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parent.add_argument(
        "--json", action="store_const", const="json", dest="format",
        help="shorthand for --format json",
    )
    return parent


#: One ``add_argument`` call: (flags, keyword options).
_Arg = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **options: Any) -> _Arg:
    return flags, options


def _out(document: str) -> _Arg:
    return _arg("--out", metavar="PATH", help=f"also save the JSON {document} to PATH")


def _gate(failure: str) -> _Arg:
    return _arg("--gate", action="store_true", help=f"exit 1 on {failure}")


_TRACE = _arg("trace", help="JSONL trace export")
_SLO_HELP = "op:threshold_ms[:target[:window_ms[:platform]]] (repeatable)"

#: Each command's arguments, in --help order (``scenario`` nests its own
#: actions below).
_ARGUMENTS: Dict[str, List[_Arg]] = {
    "profile": [
        _TRACE,
        _arg("--time", choices=("virtual", "real"), default="virtual",
             help="time domain to fold in (real needs an include_real_time export)"),
        _arg("--top", type=int, default=0, metavar="N",
             help="also print the top-N spans by self-time"),
        _arg("--flame", action="store_true",
             help="print flamegraph collapsed stacks instead of the table"),
        _out("profile"),
    ],
    "slo": [
        _TRACE,
        _arg("--slo", action="append", required=True, metavar="SPEC",
             dest="specs", help=_SLO_HELP),
    ],
    "diff": [
        _arg("base", help="baseline trace JSONL, profile JSON, or BENCH json"),
        _arg("new", help="candidate trace JSONL, profile JSON, or BENCH json"),
        _arg("--noise-ms", type=float, default=DEFAULT_NOISE_MS),
        _arg("--noise-frac", type=float, default=DEFAULT_NOISE_FRAC),
        _gate("regressions (default: report only)"),
    ],
    "timeline": [
        _TRACE,
        _arg("--width", type=int, default=60, metavar="COLS",
             help="Gantt cell columns (default: 60)"),
        _out("timeline document"),
    ],
    "critical-path": [
        _TRACE,
        _arg("--max-steps", type=int, default=40, metavar="N",
             help="path steps to show before eliding (default: 40)"),
        _out("path document"),
    ],
    "flight": [_arg("trace", help="saved flight-recorder JSON document")],
    "admission": [_TRACE, _out("report")],
    "distrib": [_TRACE, _out("report")],
    "causal": [
        _TRACE, _out("report"),
        _gate("causal violations or a happens-before cycle"),
    ],
    "health": [
        _TRACE,
        _arg("--flight", metavar="PATH", default=None,
             help="also fold a saved flight-recorder JSON document in"),
        _arg("--slo", action="append", metavar="SPEC", dest="specs",
             default=[], help=_SLO_HELP),
        _arg("--rate", type=float, default=1.0, metavar="R",
             help="head-sampling keep rate to replay at (default: 1.0)"),
        _arg("--rate-op", action="append", metavar="CLASS=R", dest="rate_ops",
             default=[], help="per-op-class rate override (repeatable)"),
        _arg("--seed", type=int, default=0, help="sampling seed (default: 0)"),
        _arg("--retain", type=int, default=4096, metavar="N",
             help="retention ring capacity in spans (default: 4096)"),
        _arg("--max-series", type=int, default=64, metavar="N",
             help="rollup key-cardinality bound (default: 64)"),
        _arg("--max-metric-series", type=int, default=None, metavar="N",
             help="label-cardinality guard on the pipeline's metrics registry"),
        _out("health report"),
        _gate("drops, overflows, tail misses, causal violations or SLO breaches"),
        _arg("--strict", action="store_true",
             help="with --gate, also fail on any anomalous trace at all"),
    ],
}

_DIVERGENCE_GATE = _gate("any undeclared divergence")

#: ``scenario`` actions: name → (help, arguments).
_SCENARIO_ACTIONS = {
    "list": ("list the bundled scenario library", []),
    "record": ("record a scenario into a JSONL recording", [
        _arg("scenario", help="bundled scenario name or scenario JSON file"),
        _arg("--platform", metavar="NAME", default=None,
             help="record on this platform (default: the scenario's own)"),
        _arg("--out", metavar="PATH", help="write the JSONL recording to PATH"),
    ]),
    "replay": ("replay a recording on a platform and diff", [
        _arg("recording", help="JSONL scenario recording"),
        _arg("--platform", metavar="NAME", default=None,
             help="replay on this platform (default: the recording's own)"),
        _out("diff document"),
        _DIVERGENCE_GATE,
    ]),
    "diff": ("diff two recordings of the same scenario", [
        _arg("base", help="baseline JSONL scenario recording"),
        _arg("other", help="candidate JSONL scenario recording"),
        _out("diff document"),
        _DIVERGENCE_GATE,
    ]),
}


def _add_arguments(parser: argparse.ArgumentParser, arguments: List[_Arg]) -> None:
    for flags, options in arguments:
        parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    summary = "\n".join(f"  {name:<14} {text}" for name, text in COMMANDS)
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Trace analytics over exported JSONL span files.\n\n"
            "commands:\n"
            f"{summary}\n\n"
            "Every command takes its input file as a positional argument and\n"
            "supports --format {text,json} (--json for short)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parent = _format_parent()
    for name, text in COMMANDS:
        if name == "scenario":
            actions = commands.add_parser(name, help=text).add_subparsers(
                dest="scenario_command", required=True
            )
            for action, (action_help, arguments) in _SCENARIO_ACTIONS.items():
                _add_arguments(
                    actions.add_parser(action, help=action_help, parents=[parent]),
                    arguments,
                )
        else:
            _add_arguments(
                commands.add_parser(name, help=text, parents=[parent]),
                _ARGUMENTS[name],
            )
    return parser


# -- one load path, one emit tail ----------------------------------------------

def _load(path: str, parse: Callable[[str], Any]) -> Any:
    """Read and parse one input file; any input failure names ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise InputError(exc.strerror or str(exc), source=path) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text: {exc.reason}", source=path) from None
    except InputError as exc:
        exc.source = path
        raise


def _emit(
    report: Any,
    args: argparse.Namespace,
    render: Callable[[Any], str],
    failed: Optional[Callable[[Any], bool]] = None,
) -> int:
    """The shared tail: ``--out``, then ``--format``, then the gate exit."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(render(report))
    if failed is not None and args.gate and failed(report):
        return 1
    return 0


#: The table-driven trace reports: command → (build from records, text
#: renderer, gate failure test or None when ``--gate`` does not apply).
_REPORTS = {
    "timeline": (ShardTimelines.from_records,
                 lambda r, a: r.render_text(width=a.width), None),
    "critical-path": (CriticalPath.from_records,
                      lambda r, a: r.render_text(max_steps=a.max_steps), None),
    "admission": (AdmissionReport.from_records,
                  lambda r, a: render_admission_text(r), None),
    "distrib": (DistribReport.from_records,
                lambda r, a: render_distrib_text(r), None),
    "causal": (CausalReport.from_records,
               lambda r, a: render_causal_text(r),
               lambda r: bool(r.violations) or not r.acyclic),
}


def _cmd_report(args: argparse.Namespace) -> int:
    build, render, failed = _REPORTS[args.command]
    report = build(_load(args.trace, parse_jsonl))
    return _emit(report, args, lambda r: render(r, args), failed)


def _cmd_profile(args: argparse.Namespace) -> int:
    records = _load(args.trace, parse_jsonl)
    profile = OverheadProfile.from_records(records, time=args.time)
    render = render_profile_text
    if args.flame:
        # Collapsed stacks replace the table, whichever format was asked.
        args.format = "text"
        render = lambda _: collapsed_stacks(records, time=args.time)  # noqa: E731
    code = _emit(profile, args, render)
    if args.top:
        print()
        print(top_spans_text(records, args.top, time=args.time))
    return code


def _cmd_slo(args: argparse.Namespace) -> int:
    specs = [_slo_spec(text) for text in args.specs]
    records = _load(args.trace, parse_jsonl)
    engine = SloEngine(specs)
    ingested = engine.ingest_records(records)
    last_t = max(
        (record["end_virtual_ms"] for record in records
         if record.get("end_virtual_ms") is not None),
        default=0.0,
    )
    statuses = engine.evaluate(last_t)
    if args.format == "json":
        print(json.dumps(
            {"ingested": ingested, "statuses": [s.to_dict() for s in statuses]},
            sort_keys=True, indent=2,
        ))
    else:
        print(f"{ingested} invocations ingested; evaluated at t={last_t:.1f}ms")
        for status in statuses:
            verdict = "BREACHED" if status.breached else "ok"
            print(
                f"  {status.spec.name}: {verdict} "
                f"attainment={status.attainment:.4f} (target {status.spec.target_ratio}) "
                f"errors={status.error_rate:.4f} (budget {status.spec.error_budget}) "
                f"n={status.window_count}"
            )
            for reason in status.reasons:
                print(f"    - {reason}")
    return 1 if any(status.breached for status in statuses) else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_profiles(
        _load(args.base, load_profile_text),
        _load(args.new, load_profile_text),
        noise_ms=args.noise_ms,
        noise_frac=args.noise_frac,
    )
    if args.format == "json":
        print(json.dumps(diff.to_dict(), sort_keys=True, indent=2))
    else:
        print(diff.render_text())
    if args.gate and not diff.passed:
        return 1
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    payload = _load(args.trace, FlightRecorder.parse)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render_flight_text(payload))
    return 0


def _load_scenario(spec: str):
    """A bundled library name, or a path to a scenario JSON document."""
    import os

    from repro.scenario import LIBRARY, build
    from repro.scenario.recording import scenario_from_payload

    if spec in LIBRARY:
        return build(spec)
    if os.path.exists(spec):
        return _load(spec, lambda text: scenario_from_payload(json_object(text)))
    raise InputError(
        f"unknown scenario: not a bundled name "
        f"({', '.join(sorted(LIBRARY))}) and not a file",
        source=spec,
    )


def _emit_diff(diff, args: argparse.Namespace) -> int:
    return _emit(diff, args, lambda d: d.render_text(), lambda d: not d.passed)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import (
        LIBRARY,
        ScenarioRecording,
        diff_recordings,
        replay,
    )
    from repro.scenario import record as record_scenario

    if args.scenario_command == "list":
        entries = [
            {"name": name, "platform": (s := LIBRARY[name]()).platform,
             "steps": len(s.steps), "description": s.description}
            for name in sorted(LIBRARY)
        ]
        if args.format == "json":
            print(json.dumps(entries, sort_keys=True, indent=2))
        else:
            for entry in entries:
                print(
                    f"{entry['name']:<18} {entry['platform']:<8} "
                    f"{entry['steps']:>2} steps  {entry['description']}"
                )
        return 0
    if args.scenario_command == "record":
        recording = record_scenario(
            _load_scenario(args.scenario), platform=args.platform
        )
        text = recording.to_jsonl()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(
                f"recorded {recording.scenario.name} on "
                f"{recording.platform}: {len(recording.outcomes)} outcomes "
                f"-> {args.out}"
            )
        else:
            print(text, end="")
        return 0
    if args.scenario_command == "replay":
        base = _load(args.recording, ScenarioRecording.parse)
        result = replay(base, platform=args.platform)
        return _emit_diff(result.diff, args)
    # diff
    diff = diff_recordings(
        _load(args.base, ScenarioRecording.parse),
        _load(args.other, ScenarioRecording.parse),
    )
    return _emit_diff(diff, args)


def _rate_override(text: str) -> Tuple[str, float]:
    op, sep, rate = text.partition("=")
    try:
        if sep:
            return op, float(rate)
    except ValueError:
        pass
    raise InputError(f"must be CLASS=RATE, got {text!r}", source="--rate-op")


def _slo_spec(text: str) -> SloSpec:
    try:
        return SloSpec.parse(text)
    except (ConfigurationError, ValueError) as exc:
        raise InputError(f"{text!r}: {exc}", source="--slo") from None


def _cmd_health(args: argparse.Namespace) -> int:
    config = PipelineConfig(
        default_rate=args.rate,
        rates=dict(_rate_override(text) for text in args.rate_ops),
        seed=args.seed,
        span_capacity=args.retain,
        max_series=args.max_series,
        max_metric_series=args.max_metric_series,
    )
    specs = [_slo_spec(text) for text in args.specs]
    flight_payload = (
        _load(args.flight, FlightRecorder.parse) if args.flight else None
    )
    report = HealthReport.from_records(
        _load(args.trace, lambda text: parse_jsonl(text, require=("trace_id",))),
        config=config,
        slo_specs=specs,
        flight_payload=flight_payload,
        strict=args.strict,
    )
    return _emit(report, args, render_health_text, lambda r: not r.healthy)


_HANDLERS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "profile": _cmd_profile,
    "slo": _cmd_slo,
    "diff": _cmd_diff,
    "flight": _cmd_flight,
    "scenario": _cmd_scenario,
    "health": _cmd_health,
    **{name: _cmd_report for name in _REPORTS},
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns 0 (ok) or 1 (a failed gate or SLO).

    Unusable input — an unreadable or malformed file, a bad option
    value, an unknown scenario — prints one ``repro.obs: error:
    PATH[:LINE]: reason`` line to stderr and exits 2, the code argparse
    already uses for a bad command line.
    """
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"repro.obs: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
