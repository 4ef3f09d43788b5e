"""Lazy package exports (PEP 562).

A package ``__init__`` that eagerly re-exports every submodule makes
``import repro.<package>.<leaf>`` pay for all of them, numpy and the
simulator included.  The packages whose submodules carry that weight
instead declare which submodule defines each public name; the submodule
is imported on first access, and the name is then cached on the package::

    __getattr__, __dir__ = lazy_exports(__name__, {"program": ("compile_source",)})

``from repro.<package> import name`` keeps working unchanged.  Code
inside ``src/`` imports from the leaf modules, so importing one layer does
not load the others through a package ``__init__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` over a submodule -> names table."""
    where = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = where.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | where.keys())

    return __getattr__, __dir__
