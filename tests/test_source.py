"""Source hygiene of the package: no module imports a name it never reads,
every tape made outside numcore names the Params it trains, only numcore
asks whether a node needs a gradient or whether a value is a node, the
dense reference layers record no tape node of their own, and only maff
spells the keys of its weights."""
import ast
import re
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


def needs_grad_reads(source):
    """Lines of each read of an attribute `needs_grad` in `source`: whether a
    gradient is kept is numcore's decision, made in `Tape.backward`, so a
    VJP elsewhere forms every parent's gradient instead of asking."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "needs_grad"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "numcore.py"),
                         ids=lambda p: p.name)
def test_only_numcore_reads_needs_grad(path):
    assert needs_grad_reads(path.read_text()) == []


def test_needs_grad_check_sees_every_read_form():
    source = ("wants = [t is not None and t.needs_grad for t in (h, zn)]\n"
              "node.needs_grad = True\nif not x.needs_grad:\n    pass\n"
              "f(getattr(y, 'grad'), y.needs_grad_count)\n")
    assert needs_grad_reads(source) == [1, 3]


def node_type_tests(source):
    """Lines of each `isinstance` call in `source` whose type argument names
    `Node`: outside numcore an input is an array or a node by contract, so
    no function takes either and wraps the arrays itself."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2
                  and any(getattr(t, "id", getattr(t, "attr", None)) == "Node"
                          for t in ast.walk(node.args[1])))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "numcore.py"),
                         ids=lambda p: p.name)
def test_only_numcore_type_tests_a_node(path):
    assert node_type_tests(path.read_text()) == []


def test_node_type_check_sees_every_form():
    source = ("a = [isinstance(x, nc.Node) for x in xs]\nif isinstance(y, Node):\n    pass\n"
              "b = isinstance(z, (np.ndarray, nc.Node))\nc = isinstance(w, nc.Param)\n"
              "d = isinstance(v, NodeList)\n")
    assert node_type_tests(source) == [1, 2, 4]


# The dense reference layers, which only the acceptance gate and the tests run
REFERENCE_LAYERS = {"agl.py": ("learned_adjacency", "smoothness_loss", "sparsity_reg"),
                    "gcn.py": ("normalize_adj",)}


def record_reads(source, names):
    """(function, line) of each read of `_record`, as an attribute or a bare
    name, called or not, in the top-level functions `names` of `source`
    (nested functions included): a layer that records no node of its own is
    a composition of numcore ops, whose VJPs are grad-checked."""
    found = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            found += [(fn.name, node.lineno) for node in ast.walk(fn)
                      if getattr(node, "attr", getattr(node, "id", None)) == "_record"]
    return sorted(found)


@pytest.mark.parametrize("module", sorted(REFERENCE_LAYERS))
def test_reference_layers_record_no_node_of_their_own(module):
    source, names = (SRC / module).read_text(), REFERENCE_LAYERS[module]
    defined = {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    assert set(names) <= defined
    assert record_reads(source, names) == []


def test_record_check_sees_every_read_form():
    source = ("def layer(tape, a):\n    n = tape._record(a)\n"
              "    def vjp(g):\n        return _record(g)\n"
              "    return nc.Tape()._record(n, (a,), vjp)\n"
              "def other(tape):\n    return tape._record(1)\n"
              "def alias(t):\n    rec = t._record\n    return t.record(rec)\n")
    assert record_reads(source, ("layer", "alias")) == [
        ("alias", 9), ("layer", 2), ("layer", 4), ("layer", 5)]


# The homes of numpy's exp: the one softmax, the loss kernel, whose
# log-sum-exp needs the normaliser, and the RBF edge kernel
EXP_HOMES = {"numcore.py": ("softmax", "cross_entropy_rows"), "agl.py": ("rbf_kernel",)}


def exp_uses(source):
    """(top-level function or None, line) of each use of numpy's exp in
    `source`: `np.exp` or `numpy.exp` under any alias of numpy, called or
    passed as a value, and each `from numpy import exp` with every read of
    the name it binds."""
    tree = ast.parse(source)
    mods, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names |= {a.asname or a.name for a in node.names if a.name == "exp"}
    found = []
    for top in tree.body:
        where = getattr(top, "name", None)
        found += [(where, node.lineno) for node in ast.walk(top)
                  if (isinstance(node, ast.Attribute) and node.attr == "exp"
                      and getattr(node.value, "id", None) in mods)
                  or (isinstance(node, ast.Name) and node.id in names)
                  or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                      and any(a.name == "exp" for a in node.names))]
    return sorted(found, key=lambda use: (use[1], str(use[0])))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_exp_runs_only_in_its_kernels(path):
    uses, homes = exp_uses(path.read_text()), EXP_HOMES.get(path.name, ())
    assert [use for use in uses if use[0] not in homes] == []
    assert set(homes) <= {where for where, _ in uses}


def test_exp_check_sees_every_form():
    source = ("import numpy as np\nimport numpy\nfrom numpy import exp, log\n"
              "from numpy import exp as e\n"
              "def softmax(x):\n    return np.exp(x)\n"
              "def f(x):\n    y = numpy.exp(x)\n    z = list(map(np.exp, x))\n"
              "    return exp(e(y)) + log(z)\n"
              "w = np.exp2(1) + math.exp(1) + np.log(1)\n")
    assert exp_uses(source) == [(None, 3), (None, 4), ("softmax", 6), ("f", 8), ("f", 9),
                                ("f", 10), ("f", 10)]


MAFF_KEY = re.compile(r"\bw_(?:qkv|q|k|v|m|h)\b")


def maff_key_spellings(source):
    """Lines of each string literal in `source`, f-string parts included,
    that spells a MAFF weight key (`w_qkv`, `w_q`, `w_k`, `w_v`, `w_m` or
    `w_h`): maff owns the layout of its weights, earlier artifacts' included,
    so the artifact reader names a Param only through the Param."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and MAFF_KEY.search(node.value)})


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "maff.py"),
                         ids=lambda p: p.name)
def test_only_maff_spells_its_weight_keys(path):
    assert maff_key_spellings(path.read_text()) == []


def test_maff_key_check_sees_every_form():
    source = ('a = z["param:w_qkv.m1"]\nb = f"w_q.{name}"\nc = "w_m"\n'
              'd = ("w_k", "w_v")\ne = model.maff.w_m.name\nf = "mlp.w1" + "w_a" + "w_mx"\n'
              'g = f"{w}.w_h"\n')
    assert maff_key_spellings(source) == [1, 2, 3, 4, 7]
    assert maff_key_spellings((SRC / "maff.py").read_text()) != []
