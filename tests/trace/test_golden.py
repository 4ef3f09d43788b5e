"""Golden answers: the Figure-7 recording queried and linted end to end.

``golden/`` holds what ``repro trace query`` and ``repro lint`` printed for
``repro trace record unix --no-causal`` when the retired row ``.rtrc``
format was still the default recording layout.  The same recording, now
written as ``.rtrcx``, must reproduce those outputs byte for byte, both
serially and with the parallel segment scan (``--jobs 2``).  The recorded
bytes themselves are pinned too: the ``.rtrcx`` encoding may not drift.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: sha256 of ``trace record unix --no-causal`` written as .rtrcx
FIG7_SHA256 = "c8c8c834fece2024a7f2484b070a094dccace88dbe5dd317fbd3ca8979ccdef1"

COMMANDS = {
    "fig7_mappings.json": [
        "trace", "query", "{trace}", "--pattern", "{? WriteCall}@UNIX Process",
        "--mappings", "--window", "0.01", "--json",
    ],
    "fig7_stats.json": [
        "trace", "query", "{trace}", "--pattern", "{? DiskWrite}@UNIX Kernel",
        "--stats", "--json",
    ],
    "fig7_lint.json": ["lint", "--format", "json", "{trace}"],
}


@pytest.fixture(scope="module")
def fig7(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "fig7.rtrcx"
    assert main(["trace", "record", "unix", "--no-causal", "--out", str(path)]) == 0
    return path


def test_recorded_bytes_are_pinned(fig7):
    assert hashlib.sha256(fig7.read_bytes()).hexdigest() == FIG7_SHA256


@pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_outputs_match_row_era_golden(fig7, golden, jobs, capsys):
    argv = [arg.replace("{trace}", str(fig7)) for arg in COMMANDS[golden]]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out.replace(str(fig7), "TRACE")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
