"""Fast self-test of the benchmark harness at tiny sizes (about 10 s).

    python3 bench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that BENCHMARK.json matches the definitions in run.py, that the seed
changes the inputs, that the tape counts repeat across seeds, that the tracer
patches every binding of a wrapped function, and that the benchmark fails
cleanly where there are no mmgl sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets the pinned thread counts before anything imports numpy
import tracer
import workloads

FAILURES = []


def check(ok, msg):
    if not ok:
        FAILURES.append(msg)
        print(f"FAIL {msg}", file=sys.stderr)


def bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(workload, seed, trace):
    out = bench(run.ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    check(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: "
                               f"{out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None


def test_spec_and_metrics(spec):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        check(json.load(f) == spec, "BENCHMARK.json differs from run.py --write-spec")
    counts = {}
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(w["name"], 1, trace)
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']}: result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w['name']} trace={trace}: {res['attempted']} attempted, "
                  f"{res['failed']} failed, correct={res['correct']}")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            check(got == want, f"{w['name']} trace={trace}: metric names/units differ: "
                               f"{sorted(set(got.items()) ^ set(want.items()))}")
            check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                  f"{w['name']} trace={trace}: non-numeric metric value")
            if trace == 0:
                zero = [n for n, m in res["metrics"].items() if m["value"] == 0]
                check(not zero, f"{w['name']}: end-to-end metrics read 0: {zero}")
            else:
                counts[w["name"]] = {n: res["metrics"][n]["value"] for n in tracer.COUNTS}
    # the tape counts depend on shapes only, so another seed must give the same
    res = result_of("cv-manymodal", 2, 1)
    if res is not None and "cv-manymodal" in counts:
        again = {n: res["metrics"][n]["value"] for n in tracer.COUNTS}
        check(again == counts["cv-manymodal"], f"tape counts changed with the seed: "
                                               f"{counts['cv-manymodal']} vs {again}")
        check(again["numcore.tape_nodes"] > 0 and again["maff.tape_nodes"] > 0,
              "cv-manymodal recorded no tape nodes")


def test_seed_changes_inputs(spec, scratch):
    import mmgl.cli as cli

    def inputs(name, seed, tag):
        w = workloads.make(name, seed, tiny=True)
        work = os.path.join(scratch, f"{name}-{tag}")
        os.makedirs(work)
        w.setup(lambda argv: run.call(cli, argv)[0], work)
        data = []
        for path in w.inputs():
            with open(path, "rb") as f:
                data.append(f.read())
        return data

    for w in spec["workloads"]:
        a, a2, b = (inputs(w["name"], 1, "a"), inputs(w["name"], 1, "a2"),
                    inputs(w["name"], 2, "b"))
        check(a == a2, f"{w['name']}: the same seed gave different inputs")
        check(all(x != y for x, y in zip(a, b)), f"{w['name']}: seeds 1 and 2 share an input")


def test_tracer_patches_every_binding():
    import mmgl.cli as cli
    import mmgl.train as train

    sites = [(cli, n) for n in ("load_csv", "run_cv", "fit", "predict_inductive_batch",
                                "impute_mean", "zscore", "load_model", "_load_new_patients")]
    sites += [(train, n) for n in ("impute_mean", "zscore", "stratified_kfold")]
    before = [getattr(m, n) for m, n in sites]
    t = tracer.Tracer()
    t.install()
    try:
        for (m, n), orig in zip(sites, before):
            check(getattr(m, n) is not orig and getattr(m, n).__wrapped__ is orig,
                  f"{m.__name__}.{n} is not traced")
    finally:
        t.uninstall()
    check(all(getattr(m, n) is orig for (m, n), orig in zip(sites, before)),
          "uninstall left a wrapper behind")


def test_fails_without_sources(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(os.path.join(run.ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    out = bench(bare, "--workload", "cv-tadpole", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    check(out.returncode != 0 and not out.stdout.strip(),
          f"without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}")


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    spec = run.spec()
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        test_spec_and_metrics(spec)
        test_seed_changes_inputs(spec, scratch)
        test_tracer_patches_every_binding()
        test_fails_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
