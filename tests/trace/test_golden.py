"""Golden answers: recorded runs queried and linted end to end.

``golden/fig7_*`` holds what ``repro trace query`` and ``repro lint``
printed for ``repro trace record unix --no-causal`` when the retired row
``.rtrc`` format was still the default recording layout.  The same
recording, now written as ``.rtrcx``, must reproduce those outputs byte for
byte, both serially and with the parallel segment scan (``--jobs 2``).

``golden/db_*`` holds the Figure-6 answers ``repro trace query`` printed for
``repro trace record db --clients 3 --queries 6`` while questions were
still answered by replaying the trace through dedicated SAS watchers: a
single pattern, a conjunction, an ordered pair and a node filter.  The
shared multi-question engine must reproduce them byte for byte.

The recorded bytes themselves are pinned too: the ``.rtrcx`` encoding may
not drift.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: sha256 of ``trace record unix --no-causal`` written as .rtrcx
FIG7_SHA256 = "c8c8c834fece2024a7f2484b070a094dccace88dbe5dd317fbd3ca8979ccdef1"

#: sha256 of ``trace record db --clients 3 --queries 6``
DB_SHA256 = "93761954aeab214e8d7bcc87bd38b0a7483c72a1b6c2fdfc61820f0bcdd5845c"

QUERY_ACTIVE = "{? QueryActive}@Database"
DISK_READ = "{server0 DiskRead}@DB Server"

DB_COMMANDS = {
    "db_query.json": ["--pattern", QUERY_ACTIVE],
    "db_conj.json": ["--pattern", QUERY_ACTIVE, "--pattern", DISK_READ],
    "db_ordered.json": ["--ordered", "--pattern", DISK_READ, "--pattern", QUERY_ACTIVE],
    "db_node3.json": ["--node", "3", "--pattern", QUERY_ACTIVE],
}

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


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "db.rtrcx"
    argv = ["trace", "record", "db", "--out", str(path), "--clients", "3", "--queries", "6"]
    assert main(argv) == 0
    return path


def test_db_recorded_bytes_are_pinned(db):
    assert hashlib.sha256(db.read_bytes()).hexdigest() == DB_SHA256


@pytest.mark.parametrize("golden", sorted(DB_COMMANDS))
def test_db_answers_match_sas_replay_golden(db, golden, capsys):
    capsys.readouterr()
    assert main(["trace", "query", str(db), *DB_COMMANDS[golden], "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
