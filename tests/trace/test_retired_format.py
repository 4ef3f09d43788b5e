"""The retired row ``.rtrc`` format: every entry point names it and refuses.

``.rtrcx`` is the only trace format.  A file that still starts with the
row magic ``RTRC`` must end in a defined outcome that tells the user why:
exit 2 with the retired-format message from the trace commands and
``serve``, an NV000 diagnostic from ``lint``.  Recording refuses any
destination that is not ``.rtrcx``.
"""

import json

import pytest

from repro.cli import main

RETIRED = "row-format .rtrc traces are retired"


@pytest.fixture
def row_file(tmp_path):
    # header of the retired layout: magic, version 1, empty metadata
    path = tmp_path / "old.rtrc"
    path.write_bytes(b"RTRC\x01\x00" + bytes(16) + b"CRTR")
    return path


@pytest.fixture(autouse=True)
def no_debug(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "info", "{f}"],
        ["trace", "query", "{f}", "--pattern", "{? DiskWrite}"],
        ["serve", "--trace", "{f}", "--once", "--port", "0"],
    ],
    ids=["trace-info", "trace-query", "serve"],
)
def test_commands_exit_two_naming_the_retired_format(row_file, argv, capsys):
    rc = main([arg.replace("{f}", str(row_file)) for arg in argv])
    assert rc == 2
    assert RETIRED in capsys.readouterr().err


def test_lint_reports_nv000(row_file, tmp_path, capsys):
    # a row file under the .rtrcx suffix is read and refused by name; under
    # its own .rtrc suffix it is not a lint input at all
    renamed = tmp_path / "old.rtrcx"
    renamed.write_bytes(row_file.read_bytes())
    rc = main(["lint", "--format", "json", str(renamed), str(row_file)])
    assert rc == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [d["code"] for d in diags] == ["NV000", "NV000"]
    by_path = {d["path"]: d["message"] for d in diags}
    assert RETIRED in by_path[str(renamed)]
    assert "unrecognized input type" in by_path[str(row_file)]


def test_record_refuses_a_non_rtrcx_destination(tmp_path, capsys):
    dest = tmp_path / "run.rtrc"
    assert main(["trace", "record", "unix", "--out", str(dest)]) == 2
    assert ".rtrcx" in capsys.readouterr().err
    assert not dest.exists()
