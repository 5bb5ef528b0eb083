"""roboface benchmark: one workload per run, last output line is JSON.

    python3 perfbench/run.py --workload live|offline|train|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` next
to this directory; without it the benchmark exits with status 2. With
``--trace 0`` the JSON carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of the traced run. The status is 1 when an output
check fails. ``--workload all`` runs the three workloads one after another,
each in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("live", "offline", "train")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ROBOFACE_THREADS")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not (SRC / "roboface" / "__init__.py").is_file():
        fail(f"no roboface package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import roboface

    if not Path(roboface.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported roboface from {roboface.__file__}, not from {SRC}")


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "seed": seed,
        "note": f"shared, noisy {nproc}-core machine; the benchmark pins no CPUs",
    }


def recorded_digests() -> dict:
    path = Path(__file__).with_name("digests.json")
    return json.loads(path.read_text()) if path.is_file() else {}


def run_one(args) -> int:
    load_package()
    import workloads
    from tracing import Tracer

    print(f"roboface benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine_record(args.seed)))
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        if args.workload == "live":
            workload = workloads.Live(args.seed)
        elif args.workload == "offline":
            workload = workloads.Offline(args.seed, scratch)
        else:
            workload = workloads.Train(args.seed)
        tracer = Tracer() if args.trace else None
        end_to_end = workload.run(args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    op = workload.labels["op"]
    labels = dict(workload.labels, op_p50_ms=f"{op}_p50_ms",
                  op_tail_ms=f"{op}_p{workloads.TAIL_PERCENTILE}_ms")
    samples = workload.info["op_samples"]
    if tracer is None:
        for name, (value, unit) in end_to_end.items():
            extra = f" (n={samples})" if name.startswith("op_") else ""
            print(f"metric {name} = {value:.6g} {unit}  [{labels.get(name, name)}{extra}]")
    print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in workload.setup_times))
    ratio = workload.failed / max(workload.attempted, 1)
    print(f"failed_op_ratio = {ratio:.6g} ({workload.failed} failed of "
          f"{workload.attempted} attempted)")
    if workload.labels["op"] == "tick":
        print(f"ticks over the {workloads.TICK_BUDGET_MS:g} ms budget in wall time: "
              f"{workload.wall_over_budget} (not failed; see README)")
    for error in workload.raised:
        print(f"raised: {error}")
    print("info: " + json.dumps(workload.info))
    if tracer is not None:
        per_layer = tracer.metrics(workload.overhead_pct)
        for name, metric in per_layer.items():
            print(f"layer {name} = {metric['value']:.6g} {metric['unit']}")
        spans = ROOT / ".perfbench-out" / f"spans-{args.workload}.jsonl"
        tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                             "machine": machine_record(args.seed)})
        print(f"spans written to {spans.relative_to(ROOT)}")

    recorded = recorded_digests().get(args.workload)
    match = "unrecorded" if recorded is None else (
        "match" if recorded == workload.digests else "DIFFERENT")
    print(f"reference digests ({match}): " + json.dumps(workload.digests))
    for name, ok in workload.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(workload.checks.values())

    if tracer is not None:
        metrics = per_layer
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        load_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
