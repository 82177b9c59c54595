"""Field census: every configuration field has a reader.

The test walks ``src/`` with ``ast``.  Each field of the configuration
dataclasses named in :data:`CLASSES` must be loaded as an attribute
(``something.<field>``) at least once outside that class's own
``__post_init__``, which checks a value but does not use it.  A field
nothing reads is a setting callers can change without any run behaving
differently: delete it rather than declare it.

The census matches names, not types, so a load of an equally named
attribute of another object counts too.  It errs towards passing.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Source file (relative to ``src/``) -> the configuration classes it declares.
CLASSES = {
    "repro/core/config.py": ("PayloadParkConfig", "NfServerBinding"),
    "repro/nf/framework.py": ("NfFramework",),
    "repro/nf/server.py": ("NfServerConfig",),
    "repro/netsim/nic.py": ("NicSpec",),
    "repro/netsim/pcie.py": ("PcieSpec",),
    "repro/experiments/runner.py": ("ScenarioConfig", "RunOptions"),
    "repro/traffic/pktgen.py": ("PktGenConfig",),
    "repro/workloads/base.py": ("TrafficModel",),
    "repro/obs/config.py": ("ObserveSpec",),
    "repro/orchestrator/spec.py": ("RunSpec", "CampaignSpec"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def declared_fields(module: ast.Module, class_name: str) -> List[str]:
    """The annotated class-level names of *class_name* (its dataclass fields)."""
    for node in module.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.dump(item.annotation)
            ]
    raise LookupError(f"class {class_name} not found")


class _Loads(ast.NodeVisitor):
    """Attribute loads, keyed by the class whose ``__post_init__`` holds
    them (``None`` for every other load)."""

    def __init__(self) -> None:
        self.loads: Dict[object, Set[str]] = {}
        self._classes: List[str] = []
        self._post_init_of = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer = self._post_init_of
        if node.name == "__post_init__" and self._classes and outer is None:
            self._post_init_of = self._classes[-1]
        self.generic_visit(node)
        self._post_init_of = outer

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.setdefault(self._post_init_of, set()).add(node.attr)
        self.generic_visit(node)


@lru_cache(maxsize=None)
def attribute_loads() -> Dict[object, Set[str]]:
    visitor = _Loads()
    for path in sorted(SRC.rglob("*.py")):
        visitor.visit(_parse(path))
    return visitor.loads


def unread_fields(class_name: str, fields: List[str]) -> List[str]:
    """The fields of *class_name* no load outside its ``__post_init__`` names."""
    read: Set[str] = set()
    for owner, names in attribute_loads().items():
        if owner != class_name:
            read |= names
    return [name for name in fields if name not in read]


CASES = [(path, name) for path, names in CLASSES.items() for name in names]


@pytest.mark.parametrize("path,class_name", CASES, ids=[name for _path, name in CASES])
def test_every_field_is_read(path, class_name):
    fields = declared_fields(_parse(SRC / path), class_name)
    assert fields, f"{class_name} declares no fields"
    assert unread_fields(class_name, fields) == []


def test_a_load_inside_its_own_post_init_does_not_count():
    module = ast.parse(
        "class Cfg:\n"
        "    used: int = 1\n"
        "    checked: int = 2\n"
        "    def __post_init__(self):\n"
        "        assert self.checked > 0\n"
        "def reader(cfg):\n"
        "    return cfg.used\n"
    )
    visitor = _Loads()
    visitor.visit(module)
    assert visitor.loads == {"Cfg": {"checked"}, None: {"used"}}
    assert declared_fields(module, "Cfg") == ["used", "checked"]
