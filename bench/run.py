"""mmgl benchmark: one workload per run, in one process, through `mmgl.cli.main`.

Run from the repository root:

    python3 bench/run.py --workload cv-tadpole --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json

Each run is a closed loop with one client: it makes the workload's inputs from
--seed (set-up, repeated SETUP_REPEATS times), then calls `mmgl` with the argv
a user would type until --seconds have passed, checking every call's outputs.
Times are scaled to a reference machine speed with a probe (see PROBE_REF_S).
With --trace 0 it reports the end-to-end metrics; with --trace 1 every other
call runs with timing spans installed (bench/tracer.py) and it reports the
per-layer metrics, the spans going to .bench_out/. The last line of stdout is
the JSON result; the line before it records the environment.
"""
import os

# One BLAS thread and one fold thread, set before numpy is first imported:
# on two cores an epoch's time varied about twice as much with BLAS threaded.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MMGL_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metric_specs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
RUN_SECONDS = 30
# Median time of one probe on a shared 2-core x86-64 VM (Python 3.11, numpy
# 2.4, OpenBLAS 0.3.31 Haswell kernel). That host changed speed by up to 50%
# over minutes, so a run also times a fixed probe, about a tenth of its time
# spread between the calls, and reports times scaled by PROBE_REF_S / its
# median probe time: the times at the reference speed. The raw times are
# printed on the line before the result.
PROBE_REF_S = 0.047
PROBE_SHARE = 0.1

WORKLOADS = [
    ("cv-tadpole", "mmgl cv on the tadpole-like preset (N=685): graph-bound, most of an "
                   "epoch is the dense N x N learned-graph block and its backward"),
    ("cv-manymodal", "mmgl cv on 150-patient, 8-modality cohorts with missing cells: "
                     "fusion- and tape-overhead-bound (heads x M^2 attention loops), "
                     "small N x N block"),
    ("predict-tadpole", "mmgl predict of 85 unseen patients against a 600-patient model: "
                        "inductive scoring, no backward pass, one (N+1)^2 graph per patient"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("call_ms_p50", "ms", "lower", 0.25),
    ("acc", "fraction", "higher", 0.15),
    ("auc", "fraction", "higher", 0.1),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("success_rate", "fraction", "higher", 0.01),
]


def spec():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in layer_metric_specs()],
    }


class Probe:
    """Fixed reference work: a Python loop, numpy elementwise passes over a
    600 x 600 array and BLAS products, the three kinds of work mmgl does."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((600, 600))
        self.b = rng.random((600, 16))
        self.samples = []

    def once(self):
        start = time.perf_counter()
        x = 0
        for j in range(150_000):
            x += j * j
        for _ in range(10):
            c = self.a * 1.0001 + self.a
            np.maximum(c, 0.5).sum(axis=1)
        for _ in range(20):
            self.a @ self.b
        self.a @ self.a
        self.samples.append(time.perf_counter() - start)

    def after(self, seconds):
        """Probe for about PROBE_SHARE of `seconds` of measured work, at least once."""
        for _ in range(max(1, round(PROBE_SHARE * seconds / PROBE_REF_S))):
            self.once()

    def scale(self):
        """Factor from this run's times to times at the reference speed."""
        return PROBE_REF_S / statistics.median(self.samples)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": PINNED,
    }


def call(cli, argv):
    """Run one `mmgl` command in-process; returns (exit code, seconds, log)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        except Exception:  # a traceback is a failed call, not a failed run
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
    return rc, seconds, buf.getvalue()


def set_up(workload, cli, work, probe):
    """Set up SETUP_REPEATS times; the inputs must come out byte-identical."""
    times, first = [], None
    for r in range(SETUP_REPEATS):
        rep = os.path.join(work, f"setup{r}")
        os.makedirs(rep)
        start = time.perf_counter()
        workload.setup(lambda argv: call(cli, argv)[0], rep)
        times.append(time.perf_counter() - start)
        probe.after(times[-1])
        files = []
        for path in workload.inputs():
            with open(path, "rb") as f:
                files.append(f.read())
        if first is None:
            first = files
        elif files != first:
            raise RuntimeError("set-up is not deterministic in the seed")
    return times


def measure(workload, cli, seconds, probe, tracer=None):
    """Closed loop of calls; with a tracer, every odd call is traced."""
    calls = []  # (seconds, traced, result or None)
    failures = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.min_calls() or time.perf_counter() < deadline:
        argv = workload.argv(i)
        traced = tracer is not None and i % 2 == 1
        gc.collect()  # start each call from a clean heap, as a fresh process would
        if traced:
            tracer.op = i
            tracer.install()
        try:
            rc, dt, log = call(cli, argv)
        finally:
            if traced:
                tracer.uninstall()
        result = None
        if rc != 0:
            failures.append(f"call {i} {argv[0]}: exit {rc}: {log.strip()[-400:]}")
        else:
            try:
                result = workload.check(i)
            except Exception as exc:  # noqa: BLE001 - every broken output is a failure
                failures.append(f"call {i} {argv[0]}: {exc}")
        calls.append((dt, traced, result))
        probe.after(dt)
        i += 1
    return calls, failures


def end_to_end(workload, setups, calls, failures, scale):
    ok = [(dt * scale, r) for dt, _, r in calls if r is not None]
    acc, auc = workload.quality([r for _, r in ok]) if ok else (0.0, 0.0)
    values = {
        "setup_s": statistics.median(setups) * scale,
        "throughput_per_s": (sum(r["items"] for _, r in ok) / sum(dt for dt, _ in ok)
                             if ok else 0.0),
        "call_ms_p50": statistics.median(dt * 1e3 for dt, _ in ok) if ok else 0.0,
        "acc": acc,
        "auc": auc,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (len(calls) - len(failures)) / len(calls),
    }
    units = {n: u for n, u, _, _ in END_TO_END}
    return {n: {"value": values[n], "unit": units[n]} for n, _, _, _ in END_TO_END}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes (bench/selftest.py)")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "mmgl", "cli.py")):
        print(f"error: no mmgl sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mmgl.cli as cli

    workload = workloads.make(args.workload, args.seed, args.tiny)
    probe = Probe()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        try:
            setups = set_up(workload, cli, work, probe)
        except (workloads.CheckFailed, RuntimeError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        tracer = Tracer() if args.trace else None
        calls, failures = measure(workload, cli, args.seconds, probe, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    correct = not failures
    if tracer is None:
        metrics = end_to_end(workload, setups, calls, failures, probe.scale())
    else:
        plain = [dt for dt, traced, r in calls if not traced and r is not None]
        traced = [dt for dt, traced, r in calls if traced and r is not None]
        ratio = (statistics.median(traced) / statistics.median(plain)
                 if plain and traced else 0.0)
        metrics = tracer.metrics(ratio)
        if not tracer.counts_repeat():
            print("failed: a tape count changed between calls", file=sys.stderr)
            correct = False
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    info = {"env": environment(), "items": workload.items_unit,
            "raw_setup_s": [round(dt, 4) for dt in setups],
            "raw_call_ms": [round(dt * 1e3, 2) for dt, _, _ in calls],
            "probe_ms_p50": statistics.median(probe.samples) * 1e3,
            "probes": len(probe.samples)}
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
