"""The ``python -m repro.obs`` input contract.

Unusable input — a missing or unreadable file, a malformed line, a bad
option value, an unknown scenario — exits 2 with exactly one line on
stderr, ``repro.obs: error: PATH[:LINE]: reason``, and no traceback.
Exit 1 keeps meaning a failed ``--gate`` or a breached ``slo``, so CI can
tell "artifact unreadable" from "regression found".  A hypothesis suite
mutates valid exports (truncated lines, injected garbage, swapped field
types, a dropped ``span_id`` or ``name``) and checks every trace
subcommand refuses them the same way, while valid exports — subsets of
real ones, optional fields dropped or nulled — never exit 2.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InputError
from repro.obs.analyze.cli import main
from repro.obs.analyze.overhead import parse_jsonl
from tests.obs.analyze.corpus import TRACE_NAMES, trace_text

pytestmark = pytest.mark.obs

HERE = pathlib.Path(__file__).parent
REPO = HERE.parents[2]
SCENARIOS = REPO / "tests" / "scenarios"
MALFORMED = HERE / "malformed_trace.jsonl"
NO_TRACE_ID = HERE / "no_trace_id.jsonl"
BAD_ATTRIBUTE_VALUE = HERE / "bad_attribute_value.jsonl"

TRACE_COMMANDS = (
    "profile", "slo", "timeline", "critical-path",
    "admission", "distrib", "causal", "health",
)
EXTRA_ARGS = {"slo": ["--slo", "post:100"]}

#: A record whose ``attributes`` is not a mapping (some subcommands used
#: to accept it silently, others died with an AttributeError).
LIST_ATTRIBUTES = '{"span_id":1,"trace_id":1,"name":"x","attributes":[1]}\n'


def argv_for(command, path):
    return [command, str(path)] + EXTRA_ARGS.get(command, [])


def run(argv):
    """``main(argv)`` → (exit code, stdout, stderr); other exceptions
    propagate, so a traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_input_error(result, path, line=None):
    """Exit 2, one stderr line naming ``path`` (and ``line``, if given)."""
    code, _, err = result
    assert code == 2, err
    where = f"{path}:" if line is None else f"{path}:{line}: "
    assert err.startswith(f"repro.obs: error: {where}"), err
    assert err.count("\n") == 1 and err.endswith("\n"), err


class TestLoaderErrors:
    def test_bad_json_names_its_own_line(self, tmp_path):
        text = '{"span_id":1,"trace_id":1,"name":"x"}\n\nnot json\n'
        with pytest.raises(InputError) as excinfo:
            parse_jsonl(text)
        assert excinfo.value.line == 3
        assert str(excinfo.value).startswith("line 3: invalid JSON")
        path = tmp_path / "bad.jsonl"
        path.write_text(text, encoding="utf-8")
        assert_input_error(run(["distrib", str(path)]), path, 3)

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_non_mapping_attributes_exit_2_everywhere(self, command, tmp_path):
        path = tmp_path / "attrs.jsonl"
        path.write_text(LIST_ATTRIBUTES, encoding="utf-8")
        result = run(argv_for(command, path))
        assert_input_error(result, path, 1)
        assert "attributes" in result[2]

    @pytest.mark.parametrize(
        "argv",
        [argv_for(command, "{missing}") for command in TRACE_COMMANDS]
        + [
            ["flight", "{missing}"],
            ["diff", "{missing}", "{valid}"],
            ["diff", "{valid}", "{missing}"],
            ["health", "{valid}", "--flight", "{missing}"],
            ["scenario", "replay", "{missing}"],
            ["scenario", "diff", "{recording}", "{missing}"],
        ],
        ids=lambda argv: "-".join(a.strip("{}") for a in argv),
    )
    def test_missing_file_exits_2(self, argv, tmp_path):
        missing = tmp_path / "absent.jsonl"
        valid = tmp_path / "valid.jsonl"
        valid.write_text(trace_text("saga_dedup"), encoding="utf-8")
        names = {
            "{missing}": str(missing), "{valid}": str(valid),
            "{recording}": str(SCENARIOS / "commute.jsonl"),
        }
        result = run([names.get(arg, arg) for arg in argv])
        assert_input_error(result, missing)
        assert "No such file or directory" in result[2]

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b'{"span_id":1,"name":"\xff"}\n')
        assert_input_error(run(["causal", str(path)]), path)


class TestOtherInputs:
    @pytest.fixture
    def valid(self, tmp_path):
        path = tmp_path / "valid.jsonl"
        path.write_text(trace_text("saga_dedup"), encoding="utf-8")
        return path

    @pytest.fixture
    def broken(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(LIST_ATTRIBUTES, encoding="utf-8")
        return path

    def test_diff_names_either_bad_input(self, valid, broken):
        assert_input_error(run(["diff", str(broken), str(valid)]), broken, 1)
        assert_input_error(run(["diff", str(valid), str(broken)]), broken, 1)

    def test_diff_rejects_a_non_profile_document(self, valid, tmp_path):
        document = tmp_path / "doc.json"
        document.write_text('{\n  "schema": "nope"\n}\n', encoding="utf-8")
        assert_input_error(run(["diff", str(valid), str(document)]), document)

    def test_flight_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "flight.json"
        path.write_text('{\n  "schema": \n', encoding="utf-8")
        assert_input_error(run(["flight", str(path)]), path, 3)

    def test_health_flight_document_is_checked(self, valid, tmp_path):
        flight = tmp_path / "flight.json"
        flight.write_text('{"schema": "repro.obs.profile/v1"}', encoding="utf-8")
        result = run(["health", str(valid), "--flight", str(flight)])
        assert_input_error(result, flight)

    def test_malformed_rate_op_exits_2(self, valid):
        for value in ("notify", "notify=fast"):
            result = run(["health", str(valid), "--rate-op", value])
            assert_input_error(result, "--rate-op")

    @pytest.mark.parametrize("command", ["slo", "health"])
    @pytest.mark.parametrize("spec", ["nocolon", "post:abc", "post:100:2"])
    def test_malformed_slo_spec_exits_2(self, command, spec, valid):
        result = run([command, str(valid), "--slo", spec])
        assert_input_error(result, "--slo")
        assert repr(spec) in result[2]

    def test_health_needs_trace_ids(self):
        """``health`` replays whole traces, so a record without
        ``trace_id`` is unusable there; the other folds still take it."""
        result = run(["health", str(NO_TRACE_ID)])
        assert_input_error(result, NO_TRACE_ID, 1)
        assert "no trace_id" in result[2]
        for command in TRACE_COMMANDS:
            if command != "health":
                assert run(argv_for(command, NO_TRACE_ID))[0] == 0, command

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_non_numeric_lag_exits_2(self, command):
        """A ``replicate:`` span's ``lag_ms`` is folded as a number; a
        string there used to end in a ValueError traceback and exit 1,
        the failed-gate code."""
        result = run(argv_for(command, BAD_ATTRIBUTE_VALUE))
        assert_input_error(result, BAD_ATTRIBUTE_VALUE, 2)
        assert "attributes.lag_ms is a str, not a number" in result[2]

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("replicate:reports", "lag_ms", [1]),
            ("replicate:reports", "lag_ms", True),
            ("gossip:reports", "merges", "x"),
            ("gossip:reports", "merges", {"n": 1}),
            ("queue:post", "shard", "a"),
            ("queue:post", "wait_ms", "x"),
        ],
    )
    @pytest.mark.parametrize(
        "command", ["causal", "distrib", "health", "timeline", "critical-path"]
    )
    def test_non_numeric_fold_attributes_exit_2(self, command, name, key, value, tmp_path):
        record = {"span_id": 1, "trace_id": 1, "name": name, "attributes": {key: value}}
        path = tmp_path / "attrs.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        result = run([command, str(path)])
        assert_input_error(result, path, 1)
        assert f"attributes.{key} is a {type(value).__name__}" in result[2]

    @pytest.mark.parametrize("value", [None, 0, 2.5])
    def test_numeric_fold_attributes_still_fold(self, value, tmp_path):
        records = [
            {"span_id": 1, "trace_id": 1, "name": "replicate:t",
             "attributes": {"lag_ms": value}},
            {"span_id": 2, "trace_id": 1, "name": "gossip:t",
             "attributes": {"merges": value}},
            {"span_id": 3, "trace_id": 1, "name": "queue:t",
             "attributes": {"shard": 1, "wait_ms": value},
             "start_virtual_ms": 0.0, "end_virtual_ms": 1.0},
        ]
        path = tmp_path / "attrs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        for command in ("causal", "distrib", "health", "timeline", "critical-path"):
            assert run([command, str(path)])[0] == 0, command

    def test_unknown_scenario_exits_2(self):
        result = run(["scenario", "record", "no_such_flow"])
        assert_input_error(result, "no_such_flow")
        assert "unknown scenario" in result[2]

    def test_malformed_scenario_file_exits_2(self, tmp_path):
        spec = tmp_path / "scenario.json"
        spec.write_text('{"name": "x"}', encoding="utf-8")
        assert_input_error(run(["scenario", "record", str(spec)]), spec)

    def test_scenario_replay_and_diff_name_the_bad_line(self, tmp_path):
        lines = (SCENARIOS / "commute.jsonl").read_text().splitlines()
        lines[1] = lines[1][:-5]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_input_error(run(["scenario", "replay", str(broken)]), broken, 2)
        result = run(
            ["scenario", "diff", str(SCENARIOS / "commute.jsonl"), str(broken)]
        )
        assert_input_error(result, broken, 2)

    def test_scenario_header_must_be_a_recording(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text('\n{"schema": "repro.scenario-recording/v0"}\n')
        assert_input_error(run(["scenario", "replay", str(path)]), path, 2)


class TestProcessExit:
    """The real entry point: exit status and stderr of ``python -m``."""

    def run_module(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", *argv],
            capture_output=True, text=True, env=env, cwd=REPO,
        )

    @pytest.mark.parametrize("command", ["causal", "health"])
    def test_gates_separate_unreadable_from_regression(self, command):
        done = self.run_module(command, "--gate", str(MALFORMED))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"repro.obs: error: {MALFORMED}:1: attributes is a list\n"
        )

    def test_missing_file_has_no_traceback(self, tmp_path):
        missing = tmp_path / "absent.jsonl"
        done = self.run_module("causal", str(missing))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == (
            f"repro.obs: error: {missing}: No such file or directory\n"
        )


# -- hostile inputs -------------------------------------------------------------

#: Envelope fields a swap may hit, and values no field of that kind accepts.
RECORD_FIELDS = (
    "name", "trace_id", "span_id", "parent_id", "start_virtual_ms",
    "end_virtual_ms", "status", "error", "attributes", "events",
)
EVENT_FIELDS = ("name", "t_virtual_ms", "attributes")
WRONG_VALUES = {
    "attributes": st.sampled_from([[1], "x", 7, None]),
    "events": st.sampled_from([{"k": 1}, "x", 7, None, [1]]),
}
WRONG_SCALAR = st.sampled_from([[1], {"k": 1}])

GARBAGE = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    min_size=1, max_size=20,
).filter(lambda text: text.strip() and not text.strip().startswith("{"))


@st.composite
def mutated_exports(draw):
    """(export text, the 1-based line the mutation broke)."""
    lines = trace_text(draw(st.sampled_from(TRACE_NAMES))).splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["truncate", "garbage", "swap", "drop"]))
    if kind == "truncate":
        line = lines[index]
        lines[index] = line[: draw(st.integers(1, len(line) - 1))]
    elif kind == "garbage":
        lines.insert(index, draw(GARBAGE))
    else:
        record = json.loads(lines[index])
        if kind == "drop":
            del record[draw(st.sampled_from(["span_id", "name"]))]
        else:
            targets = [(record, key) for key in RECORD_FIELDS if key in record]
            targets += [
                (event, key)
                for event in record.get("events", [])
                for key in EVENT_FIELDS if key in event
            ]
            target, key = draw(st.sampled_from(targets))
            target[key] = draw(WRONG_VALUES.get(key, WRONG_SCALAR))
        lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n", index + 1


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=60, deadline=None)
@given(mutated=mutated_exports())
def test_every_subcommand_refuses_a_mutated_export(mutated, scratch):
    text, line = mutated
    path = scratch / "mutated.jsonl"
    path.write_text(text, encoding="utf-8")
    for command in TRACE_COMMANDS:
        assert_input_error(run(argv_for(command, path)), path, line)
    valid = scratch / "valid.jsonl"
    valid.write_text(trace_text("saga_dedup"), encoding="utf-8")
    # ``diff`` sniffs the first line to tell a trace from a profile, so
    # only the path (not always the line) is guaranteed.
    assert_input_error(run(["diff", str(path), str(valid)]), path)
    assert_input_error(run(["diff", str(valid), str(path)]), path)


#: Loader-accepted variations of an export: optional fields dropped or
#: nulled (``trace_id`` stays: the health replay groups traces by it).
DROPPABLE = ("status", "error", "attributes", "events", "parent_id")
NULLABLE = ("parent_id", "error", "start_virtual_ms", "end_virtual_ms")


@st.composite
def valid_exports(draw):
    text = ""
    for line in trace_text(draw(st.sampled_from(TRACE_NAMES))).splitlines():
        if not draw(st.booleans()):
            continue
        record = json.loads(line)
        for key in draw(st.sets(st.sampled_from(DROPPABLE), max_size=2)):
            del record[key]
        for key in draw(st.sets(st.sampled_from(NULLABLE), max_size=2)):
            record[key] = None
        text += json.dumps(record) + "\n"
    return text


@settings(max_examples=40, deadline=None)
@given(text=valid_exports())
def test_valid_exports_never_exit_2(text, scratch):
    path = scratch / "valid.jsonl"
    path.write_text(text, encoding="utf-8")
    for command in TRACE_COMMANDS:
        code, _, err = run(argv_for(command, path))
        assert code in (0, 1) and err == ""
    assert run(["diff", str(path), str(path)])[0] == 0
