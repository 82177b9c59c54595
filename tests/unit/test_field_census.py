"""Field census: every configuration field and every stored attribute
has a reader.

The tests walk ``src/`` with ``ast``.  Each field of the configuration
dataclasses named in :data:`CLASSES` must be loaded as an attribute
(``something.<field>``) at least once outside that class's own
``__post_init__``, which checks a value but does not use it.  A field
nothing reads is a setting callers can change without any run behaving
differently: delete it rather than declare it.

Likewise every attribute stored on an object (``something.<name> = …``
or ``… += …``) must be loaded somewhere under ``src/``; a string that
spells the name (``getattr(obj, "name")``, an ``attrgetter`` path, a
``__slots__`` entry) counts as a load.  A store into an item, or a load
that only feeds the attribute's own update, does not: in
``self.x[k] = v``, ``self.x[k] = self.x.get(k, 0) + 1`` or
``self.x[k] += 1`` no ``self.x`` is a read.  State nothing reads is work every packet
pays for with no run behaving differently.  Only names the standard
library reads are exempt (:data:`STDLIB_READS`).

The census matches names, not types, so a load of an equally named
attribute of another object counts too: a tally only tests read passes
when another class's attribute of that name has a reader.  It errs
towards passing.
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

#: Stored attributes no code under ``src/`` reads, because the standard
#: library does: ``socketserver`` reads ``daemon_threads``, ``logging``
#: reads ``propagate``, and a ``%(cell)s`` format field reads ``cell``.
STDLIB_READS = frozenset({"daemon_threads", "propagate", "cell"})


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


def _updated(target: ast.expr):
    """The attribute an assignment to *target* updates: ``self.x`` for
    ``self.x`` and for ``self.x[k]`` (``None`` for anything else)."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target if isinstance(target, ast.Attribute) else None


class _Loads(ast.NodeVisitor):
    """Attribute loads, keyed by the class whose ``__post_init__`` holds
    them (``None`` for every other load); attribute stores, each with
    its first ``file:line``; and the names strings spell.  In an
    assignment (plain or augmented), a load of the attribute it updates
    is neither."""

    def __init__(self) -> None:
        self.loads: Dict[object, Set[str]] = {}
        self.stores: Dict[str, str] = {}
        self.spelled: Set[str] = set()
        self.path = "<string>"
        self._classes: List[str] = []
        self._post_init_of = None
        self._updating: Set[str] = set()

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

    def _visit_update(self, node: ast.AST, updated: Set[str]) -> None:
        outer = self._updating
        self._updating = updated
        self.generic_visit(node)
        self._updating = outer

    def visit_Assign(self, node: ast.Assign) -> None:
        self._visit_update(node, {
            ast.unparse(attribute)
            for attribute in map(_updated, node.targets)
            if attribute is not None
        })

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attribute = _updated(node.target)
        self._visit_update(node, set() if attribute is None else {ast.unparse(attribute)})

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            if self._updating and ast.unparse(node) in self._updating:
                self.generic_visit(node)
                return
            self.loads.setdefault(self._post_init_of, set()).add(node.attr)
        elif isinstance(node.ctx, ast.Store):
            self.stores.setdefault(node.attr, f"{self.path}:{node.lineno}")
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                self.spelled.update(parts)


@lru_cache(maxsize=None)
def walk_src() -> _Loads:
    visitor = _Loads()
    for path in sorted(SRC.rglob("*.py")):
        visitor.path = str(path.relative_to(SRC))
        visitor.visit(_parse(path))
    return visitor


def attribute_loads() -> Dict[object, Set[str]]:
    return walk_src().loads


def unread_stores(visitor: _Loads) -> Dict[str, str]:
    """Stored attribute names no load or string names, with where each
    is first stored."""
    read = set(visitor.spelled).union(*visitor.loads.values())
    return {
        name: where
        for name, where in sorted(visitor.stores.items())
        if name not in read and name not in STDLIB_READS
    }


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


def test_every_stored_attribute_is_read():
    assert unread_stores(walk_src()) == {}


def test_a_store_needs_a_load_or_a_spelling():
    module = ast.parse(
        "class Node:\n"
        "    __slots__ = ('slotted',)\n"
        "    def __init__(self):\n"
        "        self.kept = self.tally = self.slotted = self.named = 0\n"
        "        self.propagate = False\n"
        "    def step(self):\n"
        "        self.tally += 1\n"
        "        self.late = f'{self.kept}.tally'\n"
        "        return getattr(self, 'named')\n"
    )
    visitor = _Loads()
    visitor.visit(module)
    assert unread_stores(visitor) == {"late": "<string>:8", "tally": "<string>:4"}


def test_a_load_feeding_its_own_update_is_not_a_read():
    # SwitchNode.drop_reasons as it was: filled on every drop, read by
    # nothing but its own update.
    module = ast.parse(
        "class SwitchNode:\n"
        "    def __init__(self):\n"
        "        self.drop_reasons: Dict[str, int] = {}\n"
        "        self.seen: Dict[str, int] = {}\n"
        "        self.hits, self.total = {}, 0\n"
        "    def drop(self, reason, other):\n"
        "        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1\n"
        "        self.seen[reason] = self.seen.get(reason, 0) + 1\n"
        "        self.hits[reason] += 1\n"
        "        self.total = self.total + other.total\n"
        "        return self.seen\n"
    )
    visitor = _Loads()
    visitor.visit(module)
    assert unread_stores(visitor) == {
        "drop_reasons": "<string>:3", "hits": "<string>:5",
    }


def test_a_plain_item_store_is_not_a_read():
    # PayloadParkProgram.taggers as it was: filled once per binding at
    # install, read by nothing under src/.
    module = ast.parse(
        "class Program:\n"
        "    def __init__(self):\n"
        "        self.taggers: Dict[str, int] = {}\n"
        "        self.tables: Dict[str, int] = {}\n"
        "        self.paths = [[]]\n"
        "    def install(self, name, tagger, table):\n"
        "        self.taggers[name] = tagger\n"
        "        self.tables[name] = table\n"
        "        self.paths[0][0] = table\n"
        "        return self.tables\n"
    )
    visitor = _Loads()
    visitor.visit(module)
    assert unread_stores(visitor) == {"paths": "<string>:5", "taggers": "<string>:3"}
