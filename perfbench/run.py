"""Benchmark of the eisgan-soh study: `train`, `study` and `estimate` workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. Set-up runs several times and its median is reported; the
timed section then repeats the workload's unit of work for `--seconds` and
reports medians. With `--trace 0` the last stdout line is a JSON object with
the end-to-end metrics of BENCHMARK.json; with `--trace 1` the units
alternate between untraced and traced, and the last line holds the per-layer
metrics of BENCHMARK.json derived from the traced units' spans. Every other
metric is printed above it, by name, with its unit and sample count.
"""

from __future__ import annotations

import argparse
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

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: one client thread drives the load; BLAS gets one thread so runs do not fight for the cores
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: numpy otherwise advises huge pages for arrays >= 4 MB; whether the host can supply
#: them at that moment then changes the run's memory and page-fault work
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
#: glibc hands the top of its heap back to the OS once more than a trim threshold is
#: free there, and adapts that threshold to the sizes freed. In some processes, as the
#: allocation order falls out, the d=120 LML's multi-MB temporaries then shrink and
#: regrow the heap on every call: 3 million page faults and twice the time per `study`
#: unit, in four of ten runs. Fixed thresholds keep freed memory in the process, as it
#: stays in the other runs. (mallopt parameters: M_TRIM_THRESHOLD, M_MMAP_THRESHOLD.)
MALLOC_THRESHOLDS = {-1: 1 << 30, -3: 32 << 20}
SETUP_REPEATS = 5
#: the import part of set-up is timed in fresh interpreters, each one compiling the
#: package afresh (`-B`), and its median is taken like the set-up's
IMPORT_REPEATS = 3
IMPORT_CODE = ("import time; t0 = time.perf_counter(); "
               "import eisgan_soh.cli, numpy, scipy.linalg; print(time.perf_counter() - t0)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "study", "estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("default", "smoke"), default="default",
                        help="input sizes; smoke runs each workload in seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its statistic suffix."""
    for suffix, unit in ((".calls", "count"), ("gflop_per_s", "GFLOP/s"),
                         (".gflop", "GFLOP"), ("rows_per_s", "rows/s"),
                         ("lml_per_fit", "calls/fit"), ("peak_mb", "MB"),
                         ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name}")


def pin_malloc() -> bool:
    """Fix glibc's malloc thresholds (see MALLOC_THRESHOLDS); False where mallopt fails."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return mallopt is not None and all(mallopt(param, value) == 1
                                       for param, value in MALLOC_THRESHOLDS.items())


def import_seconds(src: Path) -> list[float]:
    """Times to import every module of the package, numpy and scipy.linalg."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return [float(subprocess.run([sys.executable, "-B", "-c", IMPORT_CODE], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]


def environment(workload, seed, profile, seconds, malloc_pinned) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"workload": workload, "seed": seed, "profile": profile, "seconds": seconds,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "malloc_pinned": malloc_pinned,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def blas_threads():
    """Thread counts reported by every loaded OpenBLAS, or the pinned setting."""
    import ctypes

    counts = []
    libs = {line.split()[-1] for line in open("/proc/self/maps")
            if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else int(os.environ["OPENBLAS_NUM_THREADS"])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "eisgan_soh" / "__init__.py").is_file():
        print(f"perfbench: no eisgan_soh package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"), **NUMPY_ENV)
    malloc_pinned = pin_malloc()
    sys.dont_write_bytecode = True  # leave the checkout as it was
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    import eisgan_soh
    import eisgan_soh.cli  # noqa: F401  (imports every module of the package)
    import workloads

    env = environment(args.workload, args.seed, args.profile, args.seconds, malloc_pinned)
    print("perfbench env " + json.dumps(env), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    tally = workloads.Tally()
    bench = workloads.WORKLOADS[args.workload](
        args.seed, workloads.PROFILES[args.profile][args.workload], str(workdir), tally)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install(eisgan_soh)
        setup_s, unit_s, unit_cpu, traced_units = run(bench, args.seconds, tracer, tally)
        untraced_s = [t for i, t in enumerate(unit_s) if i not in traced_units]
        traced_s = [t for i, t in enumerate(unit_s) if i in traced_units]
        metrics = {}  # name -> (value, unit, samples)
        try:
            metrics.update(bench.report(
                [i for i in range(len(unit_s)) if i not in traced_units], untraced_s))
        except Exception as exc:  # e.g. no unit succeeded: reported as a failed check
            tally.check(False, f"workload metrics: {type(exc).__name__}: {exc}")
        if tracer:
            tracer.enabled = False
            layers = tracing.layer_metrics(tracer, traced_units,
                                           tracer.lml_d120_peak_mb(eisgan_soh))
            for name, value in sorted(layers.items()):
                metrics[name] = (value, metric_unit(name), len(traced_units))
            metrics["trace_overhead_s"] = (
                statistics.median(traced_s) - statistics.median(untraced_s), "s",
                len(unit_s))
            tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["setup_s"] = (statistics.median(import_s) + statistics.median(setup_s), "s",
                          len(setup_s))
    metrics["wall_s"] = (statistics.median(untraced_s), "s", len(untraced_s))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1)
    metrics["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio",
                              tally.attempted)

    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"perfbench metric {name} = {value!r} {unit} (n={samples})")
    print(f"perfbench counts attempted={tally.attempted} failed={tally.failed}")
    for error in tally.errors[:20]:
        print(f"perfbench check failed: {error}", file=sys.stderr)
    with open(OUT_DIR / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "attempted": tally.attempted, "failed": tally.failed,
                   "errors": tally.errors, "import_s": import_s, "setup_s": setup_s,
                   "unit_s": unit_s,
                   "unit_cpu": unit_cpu, "traced_units": traced_units,
                   "metrics": {k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in sorted(metrics.items())}}, fh, indent=1)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for entry in declared:
        value, unit, _ = metrics.get(entry["name"], (0.0, entry["unit"], 0))
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": result}))
    return 0


def run(bench, seconds, tracer, tally):
    """Set up SETUP_REPEATS times, then repeat timed units for `seconds`.

    With a tracer, odd units are traced and even ones are not. Returns the
    set-up times, every unit's time, every unit's (user s, system s, minor page
    faults) and the traced units' indices.
    """
    clock = time.perf_counter
    setup_s = []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.run, tracer.enabled = tracing.SETUP_RUN, True
        t0 = clock()
        bench.setup()
        setup_s.append(clock() - t0)
        if tracer:
            tracer.enabled = False

    unit_s, unit_cpu, traced_units = [], [], []
    min_units = max(bench.min_units, 2 if tracer else 1)
    start = clock()
    index = 0
    while index < min_units or clock() - start + statistics.mean(unit_s) <= seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.run, tracer.enabled = index, True
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = clock()
        try:
            output = bench.unit(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = None
            tally.check(False, f"unit {index}: {type(exc).__name__}: {exc}")
        elapsed = clock() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        unit_cpu.append((r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime,
                         r1.ru_minflt - r0.ru_minflt))
        if tracer:
            tracer.enabled = False
        unit_s.append(elapsed)
        if traced:
            traced_units.append(index)
        if output is not None:
            bench.check(index, output)
        index += 1
    return setup_s, unit_s, unit_cpu, traced_units


if __name__ == "__main__":
    sys.exit(main())
