"""Profile diff and the perf-regression gate.

Compares two overhead profiles — each loadable from a JSONL trace
export, a saved ``repro.obs.profile/v1`` JSON document, or a
``repro.bench/v1`` ``BENCH_*.json`` result embedding a profile — and
flags per-layer regressions above a noise threshold.

Comparison is on *per-invocation* layer self-time, so a baseline run
with 30 repetitions diffs cleanly against a smoke run with 3.  A layer
regresses when its per-invocation self-time grew by more than
``noise_ms`` **and** more than ``noise_frac`` of the baseline (both
must trip, so microsecond jitter on a near-zero layer never gates).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Union

from repro.errors import InputError, json_object
from repro.obs.analyze.overhead import LAYERS, OverheadProfile, PROFILE_SCHEMA

#: Default gate thresholds (per-invocation milliseconds / fraction).
DEFAULT_NOISE_MS = 0.05
DEFAULT_NOISE_FRAC = 0.10


@dataclass(frozen=True)
class LayerDelta:
    """One (operation, platform, layer) comparison."""

    operation: str
    platform: str
    layer: str
    base_ms: float  # per-invocation
    new_ms: float  # per-invocation
    regressed: bool

    @property
    def delta_ms(self) -> float:
        return self.new_ms - self.base_ms

    @property
    def ratio(self) -> float:
        """Relative growth (0.0 when the baseline layer was empty)."""
        if self.base_ms <= 0.0:
            return 0.0
        return self.delta_ms / self.base_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operation": self.operation,
            "platform": self.platform,
            "layer": self.layer,
            "base_ms": round(self.base_ms, 6),
            "new_ms": round(self.new_ms, 6),
            "delta_ms": round(self.delta_ms, 6),
            "regressed": self.regressed,
        }


@dataclass
class ProfileDiff:
    """Every layer delta between two profiles, plus gate bookkeeping."""

    deltas: List[LayerDelta]
    noise_ms: float
    noise_frac: float
    missing_in_new: List[str]
    new_operations: List[str]

    def regressions(self) -> List[LayerDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def passed(self) -> bool:
        return not self.regressions() and not self.missing_in_new

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.obs.diff/v1",
            "noise_ms": self.noise_ms,
            "noise_frac": self.noise_frac,
            "passed": self.passed,
            "regressions": [delta.to_dict() for delta in self.regressions()],
            "deltas": [delta.to_dict() for delta in self.deltas],
            "missing_in_new": list(self.missing_in_new),
            "new_operations": list(self.new_operations),
        }

    def render_text(self) -> str:
        lines: List[str] = []
        regressions = self.regressions()
        if regressions:
            lines.append(
                f"REGRESSIONS ({len(regressions)}) — per-invocation self-time, "
                f"thresholds: +{self.noise_ms}ms and +{self.noise_frac * 100:.0f}%"
            )
            for delta in regressions:
                lines.append(
                    f"  {delta.operation}/{delta.platform} {delta.layer}: "
                    f"{delta.base_ms:.4f}ms -> {delta.new_ms:.4f}ms "
                    f"(+{delta.delta_ms:.4f}ms, +{delta.ratio * 100:.1f}%)"
                )
        else:
            lines.append("no per-layer regressions above the noise threshold")
        if self.missing_in_new:
            lines.append(f"missing in new profile: {', '.join(self.missing_in_new)}")
        if self.new_operations:
            lines.append(f"new operations: {', '.join(self.new_operations)}")
        improved = [
            delta for delta in self.deltas
            if delta.delta_ms < -self.noise_ms and not delta.regressed
        ]
        if improved:
            lines.append(f"improved layers: {len(improved)}")
        return "\n".join(lines)


ProfileLike = Union[OverheadProfile, Dict[str, Any], str]


def _as_profile(source: ProfileLike) -> OverheadProfile:
    if isinstance(source, OverheadProfile):
        return source
    if isinstance(source, dict):
        return _profile_from_document(source)
    return load_profile_text(source)


def _profile_from_document(payload: Dict[str, Any]) -> OverheadProfile:
    if payload.get("schema") == PROFILE_SCHEMA:
        return OverheadProfile.from_dict(payload)
    # A repro.bench/v1 result embedding the traced profile.
    metrics = payload.get("metrics")
    profile = metrics.get("profile") if isinstance(metrics, dict) else None
    if isinstance(profile, dict) and profile.get("schema") == PROFILE_SCHEMA:
        return OverheadProfile.from_dict(profile)
    raise InputError("document is neither a profile nor a bench result with one")


def load_profile_text(text: str) -> OverheadProfile:
    """Build a profile from file content: a JSONL trace export, a saved
    profile document, or a BENCH result embedding one."""
    stripped = text.lstrip()
    if not stripped:
        return OverheadProfile()
    first_line = stripped.splitlines()[0]
    try:
        head = json.loads(first_line)
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and "span_id" in head:
        return OverheadProfile.from_jsonl(text)
    return _profile_from_document(json_object(text))


def diff_profiles(
    base: ProfileLike,
    new: ProfileLike,
    *,
    noise_ms: float = DEFAULT_NOISE_MS,
    noise_frac: float = DEFAULT_NOISE_FRAC,
) -> ProfileDiff:
    """Per-layer comparison of two profiles (see the module docstring
    for the regression rule)."""
    base_profile = _as_profile(base)
    new_profile = _as_profile(new)
    deltas: List[LayerDelta] = []
    base_keys = set(base_profile.operations)
    new_keys = set(new_profile.operations)
    for key in sorted(base_keys & new_keys):
        base_entry = base_profile.operations[key]
        new_entry = new_profile.operations[key]
        layers = sorted(
            set(base_entry.layer_self_ms) | set(new_entry.layer_self_ms) | set(LAYERS)
        )
        for layer in layers:
            base_ms = base_entry.per_invocation(layer)
            new_ms = new_entry.per_invocation(layer)
            growth = new_ms - base_ms
            regressed = growth > noise_ms and (
                base_ms <= 0.0 or growth > noise_frac * base_ms
            )
            deltas.append(
                LayerDelta(
                    operation=key[0],
                    platform=key[1],
                    layer=layer,
                    base_ms=base_ms,
                    new_ms=new_ms,
                    regressed=regressed,
                )
            )
    return ProfileDiff(
        deltas=deltas,
        noise_ms=noise_ms,
        noise_frac=noise_frac,
        missing_in_new=[f"{op}/{plat}" for op, plat in sorted(base_keys - new_keys)],
        new_operations=[f"{op}/{plat}" for op, plat in sorted(new_keys - base_keys)],
    )
