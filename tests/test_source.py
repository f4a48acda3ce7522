"""Source hygiene of the package: no module imports a name it never reads,
and every tape made outside numcore names the Params it trains."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mmgl"


def unused_imports(source):
    """(line, name) of each name bound by an import in `source` and read
    nowhere in it; an import whose first line carries `# noqa: F401` is
    kept on purpose, and `from __future__` binds nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and "# noqa: F401" not in lines[node.lineno - 1]:
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_every_import_form():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom math import pi, tau\n"
              "from re import (  # noqa: F401\n    sub,\n)\n"
              "print(os, tau)\n")
    assert unused_imports(source) == [(3, "j"), (4, "pi")]


def unnamed_tapes(source):
    """Lines of each `Tape(...)` or `x.Tape(...)` call in `source` that does
    not pass `trainable=`: a tape trains every Param by default, and one that
    trains nothing should say so, so that it records nothing."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Tape"
            and not any(k.arg == "trainable" for k in node.keywords)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "numcore.py"),
                         ids=lambda p: p.name)
def test_every_tape_names_its_trainable_set(path):
    assert unnamed_tapes(path.read_text()) == []


def test_unnamed_tape_check_sees_every_call_form():
    source = ("tape = nc.Tape()\nt = Tape(trainable=())\nu = nc.Tape(trainable=opt.params)\n"
              "v = Tape()\nw = f(nc.Tape(), 1)\nx = nc.Tape\n")
    assert unnamed_tapes(source) == [1, 4, 5]
