"""fasdnet benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload table2-sweep --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
runs one repetition untraced and one traced and prints the per-layer
metrics. Metric names and units come from BENCHMARK.json. The last
line of stdout is the result as one JSON object; the lines before it
give the environment, the artifact digests and every metric by name
and unit. The exit code is 0 whenever a result is printed, also when
an output check failed (the result then says "correct": false).
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: at these matrix sizes a second thread changes run
# times by 15-25% depending on what else the machine runs, which makes
# results from a shared machine hard to compare. BLAS reads the setting
# when numpy loads, so it is pinned before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5  # this process plus four fresh set-up processes
MAX_MEASURE_S = 120  # stop repeating even if a workload wants more samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_fasdnet():
    """Import fasdnet from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    fasdnet = importlib.import_module("fasdnet")
    if not Path(fasdnet.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fasdnet was imported from {fasdnet.__file__}, not {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"fasdnet.{layer}")
    return fasdnet


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        name = version = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = getattr(handle, symbol)()
                    break
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": name, "blas_version": version,
            "blas_threads": threads, "blas_threads_requested": int(BLAS_THREADS)}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    return {
        "python": platform.python_version(),
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def probe_setup_s(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(workload, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        workload.repetition()
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            break
        if elapsed >= seconds and (workload.enough() or workload.failed):
            break
    workload.finish()


def end_to_end_metrics(workload, args, setup_s: float) -> dict[str, float]:
    measure(workload, args.seconds)
    setups = [setup_s] + [probe_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    return {
        **workload.end_to_end(),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(workload) -> dict[str, float]:
    """One untraced and one traced set-up plus repetition of the same
    work. The difference of their normalized walls is the tracing
    overhead. Self times are raw seconds on the stopwatch's work clock,
    so the normalization kernel, which can run inside a traced call,
    is in no span."""
    tracer = Tracer(clock=workload.stopwatch.work_clock)
    walls, raw_walls = [], []
    for traced in (False, True):
        if traced:
            tracer.install()
        _, setup_raw, setup_norm = workload.stopwatch.measure(workload.setup)
        workload.repetition()
        walls.append(setup_norm + workload.rep_walls[-1])
        raw_walls.append(setup_raw + workload.raw_walls[-1])
    metrics = tracer.metrics(traced_wall_s=raw_walls[1], overhead_s=walls[1] - walls[0])
    workload.finish()
    return metrics


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "fasdnet" / "__init__.py").is_file():
        print(f"error: no fasdnet sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        fasdnet = import_fasdnet()
        workload = WORKLOADS[args.workload](fasdnet, args.seed, work_dir)
        workload.setup()
        setup_s = workload.stopwatch.normalize(time.perf_counter() - start)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics = per_layer_metrics(workload)
        else:
            metrics = end_to_end_metrics(workload, args, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    print("env " + json.dumps(environment(), sort_keys=True))
    for key, digest in sorted(workload.digests.items()):
        print(f"digest {key} {digest}")
    if not args.trace:
        for line in workload.report_lines():
            print(f"metric {line}")
    print(f"metric failed_share {workload.failed / max(workload.attempted, 1):.6f} ratio "
          f"({workload.failed} of {workload.attempted} operations)")
    kind = "per_layer" if args.trace else "end_to_end"
    result = {}
    for entry in spec[kind]:
        result[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
        print(f"metric {entry['name']} {metrics[entry['name']]} {entry['unit']}")
    print(json.dumps({
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
