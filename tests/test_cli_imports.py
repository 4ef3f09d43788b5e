"""Import budget: each ``repro`` command loads only the layers it runs.

Every command below runs in a fresh interpreter that records which
modules it imported.  None of them may load numpy or the simulated
machine stack, and ``compile`` may not load the trace store.  Each
command's standard output must be byte-identical to the same command run
in a process that imported every layer first, so loading less never
changes what a command prints.

The lazy packages (PEP 562 ``__getattr__`` over a name -> submodule
table) must still expose every public name as the very object its
defining module holds.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: modules no command below may import: numpy and the simulator stack
FORBIDDEN = (
    "numpy",
    "repro.machine",
    "repro.cmrts.dispatch",
    "repro.cmfortran.interp",
    "repro.paradyn.tool",
)

LAZY_PACKAGES = ("repro.analyze", "repro.cmfortran", "repro.cmrts", "repro.paradyn")

#: runs ``repro.cli.main(argv)``; writes the imported module names to
#: argv[1] at exit.  argv[2] == "eager" imports every layer first.
_PROBE = """
import sys
sys.path.insert(0, {src!r})
out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
if mode == "eager":
    import importlib
    import numpy, repro.machine, repro.cmrts.dispatch, repro.cmfortran.interp
    import repro.paradyn.tool, repro.trace, repro.mapdsl, repro.serve, repro.sweep
    for pkg in {lazy!r}:
        module = importlib.import_module(pkg)
        for name in module.__all__:
            getattr(module, name)
from repro.cli import main
try:
    code = main(argv)
finally:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
""".format(src=str(SRC), lazy=LAZY_PACKAGES)


@pytest.fixture(scope="module")
def db_trace(tmp_path_factory):
    """A small columnar db trace, like the benchmark's ``cli`` workload."""
    from repro.dbsim import Query, run_db_study
    from repro.trace import ColumnarTraceWriter

    path = tmp_path_factory.mktemp("cli_imports") / "small.rtrcx"
    queries = [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(6)]
    with ColumnarTraceWriter(path, metadata={"study": "db"}) as writer:
        run_db_study(queries, num_clients=2, recorder=writer)
    return str(path)


def _commands(trace: str) -> dict[str, list[str]]:
    return {
        "help": ["--help"],
        "trace_info": ["trace", "info", trace],
        "trace_query": [
            "trace", "query", trace,
            "--pattern", "{Q1 QueryActive}", "--pattern", "{server0 DiskRead}", "--json",
        ],
        "lint": ["lint", "--deep", "examples/fragment.pif"],
        "mapc_check": ["mapc", "check", "examples/db.map"],
        "compile": ["compile", "examples/heat.cmf"],
        "metrics": ["metrics"],
    }


def _run(tmp_path: Path, mode: str, argv: list[str]) -> tuple[bytes, set[str]]:
    modules = tmp_path / f"modules_{mode}.txt"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(modules), mode, *argv],
        cwd=REPO,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout, set(modules.read_text(encoding="utf-8").split())


@pytest.mark.parametrize(
    "command", ["help", "trace_info", "trace_query", "lint", "mapc_check", "compile", "metrics"]
)
def test_command_loads_only_its_layers(command, db_trace, tmp_path):
    argv = _commands(db_trace)[command]
    lazy_out, loaded = _run(tmp_path, "lazy", argv)
    assert lazy_out, "command printed nothing"
    assert not [m for m in FORBIDDEN if m in loaded]
    if command == "compile":
        assert not [m for m in loaded if m == "repro.trace" or m.startswith("repro.trace.")]
    eager_out, eager_loaded = _run(tmp_path, "eager", argv)
    assert "numpy" in eager_loaded  # the reference really imported every layer
    assert lazy_out == eager_out


def test_importing_a_lazy_package_loads_none_of_its_submodules(tmp_path):
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        f"import {', '.join(LAZY_PACKAGES)}\n"
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(["repro._lazy", *LAZY_PACKAGES])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_are_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    listing = dir(module)
    for submodule, names in module._EXPORTS.items():
        leaf = importlib.import_module(f"{package}.{submodule}")
        for name in names:
            assert name in listing, name
            assert getattr(module, name) is getattr(leaf, name), name
            origin = getattr(getattr(leaf, name), "__module__", None)
            if isinstance(origin, str) and origin.startswith(package + "."):
                assert origin == leaf.__name__, (name, origin)
    assert sorted(module.__all__) == sorted(n for ns in module._EXPORTS.values() for n in ns)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
