"""Scenario recordings: the byte-stable JSONL capture format.

A :class:`ScenarioRecording` is one executed scenario — the full
scenario definition plus the per-step outcomes it produced on one
platform.  Serialization is canonical (sorted keys, rounded floats,
pure JSON types), so two identically-seeded runs of the same scenario
produce **byte-identical** files and recordings can be committed,
diffed and replayed like golden fixtures.

Line format::

    {"schema": "repro.scenario-recording/v1", "name": ..., "platform":
     ..., "seed": ..., "scenario": {...}}     # header
    {"step": "s00", "kind": "advance", ...}   # one line per step
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, InputError, json_object
from repro.scenario.model import Scenario

#: Serialization schema tag for recording documents.
RECORDING_SCHEMA = "repro.scenario-recording/v1"


def round_floats(value: Any, digits: int = 6) -> Any:
    """Recursively round floats (and tuples → lists) for byte-stable JSON."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(item, digits) for item in value]
    return value


def shape_to_list(shape: Tuple) -> List:
    """A :func:`~repro.scenario.driver.normalized_shape` tuple as JSON."""
    if len(shape) == 1:
        return [shape[0], []]
    return [shape[0], [shape_to_list(child) for child in shape[1]]]


def shape_to_tuple(payload) -> Tuple:
    """Inverse of :func:`shape_to_list` (for the conformance harness)."""
    name, children = payload
    if name == "native" and not children:
        return ("native",)
    return (name, tuple(shape_to_tuple(child) for child in children))


def scenario_from_payload(payload: Any, *, line: Optional[int] = None) -> Scenario:
    """:meth:`Scenario.from_dict` over an input document: a payload that
    does not describe a valid scenario raises :class:`InputError`."""
    if not isinstance(payload, dict):
        raise InputError("scenario is not a JSON object", line=line)
    try:
        return Scenario.from_dict(payload)
    except (ConfigurationError, KeyError, TypeError) as exc:
        raise InputError(f"invalid scenario: {exc}", line=line) from None


def _canonical_line(payload: Mapping[str, Any]) -> str:
    return json.dumps(
        round_floats(dict(payload)), sort_keys=True, separators=(",", ":")
    )


@dataclass(frozen=True)
class ScenarioRecording:
    """One scenario run: definition + per-step outcomes on one platform."""

    scenario: Scenario
    platform: str
    outcomes: Tuple[Dict[str, Any], ...]

    def __post_init__(self) -> None:
        # Outcomes round-trip through canonical JSON immediately, so the
        # in-memory recording is indistinguishable from a parsed one —
        # replay-of-replay is a fixed point by construction.
        canonical = tuple(
            json.loads(_canonical_line(outcome)) for outcome in self.outcomes
        )
        object.__setattr__(self, "outcomes", canonical)
        if len(canonical) != len(self.scenario.steps):
            raise ConfigurationError(
                f"recording has {len(canonical)} outcomes for "
                f"{len(self.scenario.steps)} scenario steps"
            )

    def outcome(self, step_id: str) -> Dict[str, Any]:
        for outcome in self.outcomes:
            if outcome.get("step") == step_id:
                return outcome
        raise KeyError(step_id)

    @property
    def header(self) -> Dict[str, Any]:
        return {
            "schema": RECORDING_SCHEMA,
            "name": self.scenario.name,
            "platform": self.platform,
            "seed": self.scenario.seed,
            "scenario": self.scenario.to_dict(),
        }

    def to_jsonl(self) -> str:
        lines = [_canonical_line(self.header)]
        lines.extend(_canonical_line(outcome) for outcome in self.outcomes)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ScenarioRecording":
        """Rebuild a recording from its JSONL text; an unusable document
        raises :class:`~repro.errors.InputError` naming the line."""
        numbered = [
            (lineno, json_object(line, line=lineno))
            for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        if not numbered:
            raise InputError("empty scenario recording")
        header_line, header = numbered[0]
        if header.get("schema") != RECORDING_SCHEMA:
            raise InputError(
                f"unsupported recording schema {header.get('schema')!r}",
                line=header_line,
            )
        if "platform" not in header:
            raise InputError("recording header has no platform", line=header_line)
        scenario = scenario_from_payload(header.get("scenario"), line=header_line)
        for lineno, outcome in numbered[1:]:
            if "step" not in outcome:
                raise InputError("outcome has no step", line=lineno)
        return cls(
            scenario=scenario,
            platform=header["platform"],
            outcomes=tuple(outcome for _, outcome in numbered[1:]),
        )
