"""Lazy package re-exports (PEP 562), declared once.

A package ``__init__`` names the modules it re-exports from and the
names each one defines; nothing is imported until a name is first read.
Importing one submodule — what every run does — then loads only that
submodule's own imports, not every sibling the package re-exports.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*.

    *exports* maps each defining module to the names the package
    re-exports from it.  A name's module is imported on its first read
    and the value is bound in the package, so later reads never come
    back here; ``from package import *`` reads every name.
    """
    namespace = sys.modules[package].__dict__
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *owners})

    return list(owners), __getattr__, __dir__
