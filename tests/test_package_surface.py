"""Every public top-level function and class of `leoqsim` has a caller, and
neither importing the command line nor a run pulls in scipy or
`numpy.random`.

A name counts as used when the package itself or the benchmark harness in
`perfbench/` (its tests excluded) refers to it anywhere other than its own
definition: as a name, an attribute, an import, or a dotted string (the
harness patches functions by name). Code that only tests call belongs in
`tests/`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leoqsim"
HARNESS = ROOT / "perfbench"

# Documented API without an in-package caller: the scenario round trip.
DOCUMENTED = {"serialize_scenario"}


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


def test_every_public_definition_is_used():
    harness = [p for p in sorted(HARNESS.rglob("*.py")) if not p.name.startswith("test_")]
    sources = sorted(PACKAGE.rglob("*.py")) + harness
    used = set()
    defined = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= referenced_names(tree)
        if PACKAGE in path.parents:
            defined += [(path.name, name) for name in public_definitions(tree)]
    assert defined
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used and name not in DOCUMENTED]
    assert unused == []


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
