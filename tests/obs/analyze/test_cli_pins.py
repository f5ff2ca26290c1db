"""Byte-identity pins for every trace subcommand's stdout.

The SHA-256 of stdout for each trace subcommand × {text, --json} over
the three corpus traces (``tests/obs/analyze/corpus.py``), computed
before the trace loader, the CLI skeleton and the distrib projection
were consolidated.  Valid input must keep producing the same bytes and
exit code 0; a change that alters output on purpose must recompute
these pins and say why.
"""

import hashlib

import pytest

from repro.obs.analyze.cli import main
from tests.obs.analyze.corpus import trace_text

pytestmark = [pytest.mark.obs, pytest.mark.distrib]

#: Extra arguments a subcommand needs to run at all.
EXTRA_ARGS = {"slo": ["--slo", "post:100"]}

#: (trace, subcommand, format) → SHA-256 of stdout.
PINS = {
    ("partitioned_storm", "admission", "json"):
        "4590370b8747ac9d56037c2d5686088d506372294966aefeca03bc2c0f18a999",
    ("partitioned_storm", "admission", "text"):
        "c9d804e94f5cd43feda5ac5debb0083b7c28b7b83b90aa22dba32b0e4d1c371c",
    ("partitioned_storm", "causal", "json"):
        "49700fd5b9d6ba553801fcb28034742b94b57aa1ad7fbcaa0b03bf17882bfc00",
    ("partitioned_storm", "causal", "text"):
        "26fca0fbf28b325402691d5a1fad29c7a95cac08b7c25743089db84bbfa5fcc2",
    ("partitioned_storm", "critical-path", "json"):
        "22c2d4f594257866c0dad900a5e9a8e048c91b6649ff21c844282735d6f76788",
    ("partitioned_storm", "critical-path", "text"):
        "0c30286b88fabb27b1c3cb3379785c3a67bd14977503132cf2bd7209c2426fca",
    ("partitioned_storm", "distrib", "json"):
        "0c9fda1ee3279e773f3766a14d016a1a97a2eeb705f5893aaa6e5b10e114ce04",
    ("partitioned_storm", "distrib", "text"):
        "7a71aeaae7b53939b6738b0bb1df082fcd167090512999f9cc1212c63ded3e11",
    ("partitioned_storm", "health", "json"):
        "80677e3c92e92e6d47bc24fd02d67e45b1c46f4344f9ba9fa2fbd3fdbb9cfd8e",
    ("partitioned_storm", "health", "text"):
        "dde42c7c8b650da709ed48ff6da86d105cf7e5cc40d11a6b558ff090c2ff01d6",
    ("partitioned_storm", "profile", "json"):
        "920f47619c035003c4c60dd9de8e0d9bc16e4f97f7366bc482f3dea1d319de1f",
    ("partitioned_storm", "profile", "text"):
        "b76e001e89e2ec08f2c920f9fed3947f58d4f9fc20ebed33638a910195499741",
    ("partitioned_storm", "slo", "json"):
        "f5e6ebb64b718288b6a79716311a312bddd5d1043ebcba6918c7717ac9e986e8",
    ("partitioned_storm", "slo", "text"):
        "2e833f99ca75fe83dd5a37630cb34ad1398236b2f12a06405881fe03984b6422",
    ("partitioned_storm", "timeline", "json"):
        "58cc3b0eb8a0b318f38232fb4a2da8073697d4606932f6ee600f4afd321684cb",
    ("partitioned_storm", "timeline", "text"):
        "0c30286b88fabb27b1c3cb3379785c3a67bd14977503132cf2bd7209c2426fca",
    ("saga_dedup", "admission", "json"):
        "4590370b8747ac9d56037c2d5686088d506372294966aefeca03bc2c0f18a999",
    ("saga_dedup", "admission", "text"):
        "c9d804e94f5cd43feda5ac5debb0083b7c28b7b83b90aa22dba32b0e4d1c371c",
    ("saga_dedup", "causal", "json"):
        "3dda0e34322cd8b0efe1375912c962612e5c418a3784c6d5acd53207fc357ddd",
    ("saga_dedup", "causal", "text"):
        "c5ccd65620f0c5474360095e63309e0411599d40e800b0b3e4cb4635906d178b",
    ("saga_dedup", "critical-path", "json"):
        "22c2d4f594257866c0dad900a5e9a8e048c91b6649ff21c844282735d6f76788",
    ("saga_dedup", "critical-path", "text"):
        "0c30286b88fabb27b1c3cb3379785c3a67bd14977503132cf2bd7209c2426fca",
    ("saga_dedup", "distrib", "json"):
        "2d46b1cffb664e67cc95d0746dc047a9a84310517edf8a0957d2a509661e061e",
    ("saga_dedup", "distrib", "text"):
        "6f5db3f05b900a17b81b1c44976f5fb22e60008f968410cac5a554c499a13fd2",
    ("saga_dedup", "health", "json"):
        "66e9db00b5cd8fdfe185aa249b53f77ed7a0c94c12f4f898f7f09cace201ad45",
    ("saga_dedup", "health", "text"):
        "26bd54f1d84c81a98629918a2436902ab1f88f89591da7864c7febf0c1fdf547",
    ("saga_dedup", "profile", "json"):
        "920f47619c035003c4c60dd9de8e0d9bc16e4f97f7366bc482f3dea1d319de1f",
    ("saga_dedup", "profile", "text"):
        "b76e001e89e2ec08f2c920f9fed3947f58d4f9fc20ebed33638a910195499741",
    ("saga_dedup", "slo", "json"):
        "5fdba7c7efbd92ec44a88668438107d5c2b2ea30b44eb3cd7a88993aca007c01",
    ("saga_dedup", "slo", "text"):
        "5f6b3f81c56487fb3bef87227b3c876c2017a8ae29b3857df5426794ff00b09c",
    ("saga_dedup", "timeline", "json"):
        "58cc3b0eb8a0b318f38232fb4a2da8073697d4606932f6ee600f4afd321684cb",
    ("saga_dedup", "timeline", "text"):
        "0c30286b88fabb27b1c3cb3379785c3a67bd14977503132cf2bd7209c2426fca",
    ("storm", "admission", "json"):
        "4590370b8747ac9d56037c2d5686088d506372294966aefeca03bc2c0f18a999",
    ("storm", "admission", "text"):
        "c9d804e94f5cd43feda5ac5debb0083b7c28b7b83b90aa22dba32b0e4d1c371c",
    ("storm", "causal", "json"):
        "9acc690dfd73f337c5ec0bb5e412cafd079f01d1e58645eedff3170d1e54fc1d",
    ("storm", "causal", "text"):
        "fa24e01236d2f957b5b617d9b8bc4a79ded29cfc8d6e4cbe30ba4bab1d2752a1",
    ("storm", "critical-path", "json"):
        "22c2d4f594257866c0dad900a5e9a8e048c91b6649ff21c844282735d6f76788",
    ("storm", "critical-path", "text"):
        "0c30286b88fabb27b1c3cb3379785c3a67bd14977503132cf2bd7209c2426fca",
    ("storm", "distrib", "json"):
        "a2158dc6a865e7f9b97f59d10ea1a2882d7a1f9bfb45dcfcb7ae32f6522380d8",
    ("storm", "distrib", "text"):
        "ee62027cf0ff0b1af9b790e8dd5505df28c7e041feeb6ba9dbf406c18acf0a2c",
    ("storm", "health", "json"):
        "44730bd36798e5cb1fc609f6e8de7166fe68aec822cf252852e9f76c80aa7c2b",
    ("storm", "health", "text"):
        "1094531ef139076f2f0f12221c48006aa97766d9a011c6320c52540b11de784d",
    ("storm", "profile", "json"):
        "920f47619c035003c4c60dd9de8e0d9bc16e4f97f7366bc482f3dea1d319de1f",
    ("storm", "profile", "text"):
        "b76e001e89e2ec08f2c920f9fed3947f58d4f9fc20ebed33638a910195499741",
    ("storm", "slo", "json"):
        "f5e6ebb64b718288b6a79716311a312bddd5d1043ebcba6918c7717ac9e986e8",
    ("storm", "slo", "text"):
        "2e833f99ca75fe83dd5a37630cb34ad1398236b2f12a06405881fe03984b6422",
    ("storm", "timeline", "json"):
        "58cc3b0eb8a0b318f38232fb4a2da8073697d4606932f6ee600f4afd321684cb",
    ("storm", "timeline", "text"):
        "0c30286b88fabb27b1c3cb3379785c3a67bd14977503132cf2bd7209c2426fca",
}


@pytest.mark.parametrize("trace, command, fmt", sorted(PINS))
def test_stdout_is_byte_identical(trace, command, fmt, tmp_path, capsys):
    path = tmp_path / f"{trace}.jsonl"
    path.write_text(trace_text(trace), encoding="utf-8")
    argv = [command, str(path)] + EXTRA_ARGS.get(command, [])
    if fmt == "json":
        argv.append("--json")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS[
        (trace, command, fmt)
    ]
