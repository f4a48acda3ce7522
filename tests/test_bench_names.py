"""The benchmark looks mmgl functions up by name: a rename that breaks a
traced run (`bench/run.py --trace 1`) or `bench/selftest.py` fails here, and so
does any change that makes the harness's own self-test fail."""
import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def selftest_sites():
    """(module name, attribute) pairs that the selftest's binding check reads:
    each `[(module, n) for n in (names...)]` in test_tracer_patches_every_binding."""
    tree = ast.parse((BENCH / "selftest.py").read_text())
    fn = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name == "test_tracer_patches_every_binding")
    sites = []
    for comp in ast.walk(fn):
        if isinstance(comp, ast.ListComp) and isinstance(comp.elt, ast.Tuple):
            module = comp.elt.elts[0].id
            sites += [(f"mmgl.{module}", c.value) for c in comp.generators[0].iter.elts]
    return sites


def test_tracer_targets_resolve():
    for module, attr, _ in tracer_targets():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr} is gone"
            obj = getattr(obj, part)


def test_selftest_bindings_are_the_traced_functions():
    defining = {attr: module for module, attr, _ in tracer_targets()}
    sites = selftest_sites()
    assert {name for _, name in sites} >= {"impute_mean", "zscore", "load_model"}
    for module, name in sites:
        bound = getattr(importlib.import_module(module), name, None)
        traced = getattr(importlib.import_module(defining[name]), name)
        assert bound is traced, f"{module}.{name} is not {defining[name]}.{name}"


def test_bench_selftest_passes():
    # every workload at tiny sizes: all metrics present and non-zero, tape
    # counts equal across seeds, every traced binding patched
    out = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=BENCH.parent,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
