"""Every public top-level function and class of `leoqsim`, and every member
of its classes, has a caller, and neither importing the command line nor a
run pulls in scipy or `numpy.random`.

A name counts as used when the package itself or the benchmark harness in
`perfbench/` (its tests excluded) refers to it anywhere other than its own
definition: as a name, an attribute, an import, or a dotted string (the
harness patches functions by name). A class member (a method, a property, a
class-level field or a `self.` attribute) counts as used only when it is
read: loaded as an attribute, or named in a dotted string. Members are
matched by name alone, whatever the class. Code that only tests call belongs
in `tests/`. The layers below the engine, and the report in `stats`, know a
satellite by its index and never name it; the engine's name table does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leoqsim"
HARNESS = ROOT / "perfbench"

# Documented API without an in-package caller: the scenario round trip.
DOCUMENTED = {"serialize_scenario"}

# Below the engine and in the report a satellite is its index: these modules
# never name one.
INDEX_ONLY = ("congestion.py", "scheduling.py", "routing.py", "traffic.py", "stats.py")
NAMING = {"SatelliteId", "sid_of", "index_of"}


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def read_names(tree: ast.AST) -> set[str]:
    """Attributes loaded, and the parts of dotted strings other than the
    names a `__slots__` declares."""
    declared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            declared.update(id(n) for n in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in declared:
                names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def class_members(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """(class, member) for each method, property, class-level field and
    `self.` attribute of every class; dunder names are the language's."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
                names.update(
                    node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for name in sorted(names):
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name


def sources() -> list[Path]:
    harness = [p for p in sorted(HARNESS.rglob("*.py")) if not p.name.startswith("test_")]
    return sorted(PACKAGE.rglob("*.py")) + harness


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_definition_is_used():
    used = set()
    defined = []
    for path in sources():
        tree = parsed(path)
        used |= referenced_names(tree)
        if PACKAGE in path.parents:
            defined += [(path.name, name) for name in public_definitions(tree)]
    assert defined
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used and name not in DOCUMENTED]
    assert unused == []


def test_every_class_member_is_read():
    read = set()
    members = []
    for path in sources():
        tree = parsed(path)
        read |= read_names(tree)
        if PACKAGE in path.parents:
            members += [(path.name, cls, name) for cls, name in class_members(tree)]
    assert len(members) > 100
    unread = [f"{module}:{cls}.{name}" for module, cls, name in members if name not in read]
    assert unread == []


def test_layers_below_the_engine_never_name_a_satellite():
    named = {module: sorted(referenced_names(parsed(PACKAGE / module)) & NAMING)
             for module in INDEX_ONLY}
    assert named == {module: [] for module in INDEX_ONLY}


def test_importing_the_cli_does_not_load_scipy(tmp_path):
    # Importing scipy's graph routines adds about 33 MB of resident memory, so
    # route tables are built with numpy alone. Importing `numpy.random` adds
    # about 6.1 MB, so arrival streams draw their blocks from
    # `random.Random.getrandbits`; a 1 s run checks that no draw loads it.
    scenario = tmp_path / "short.ini"
    scenario.write_text("[run]\nduration_s = 1\n", encoding="utf-8")
    run = ["run", str(scenario), "--out", str(tmp_path / "report")]
    probe = (
        "import sys, leoqsim.cli\n"
        "print('scipy' in sys.modules)\n"
        f"code = leoqsim.cli.main({run!r})\n"
        "print(code, 'scipy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    lines = result.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False False"
