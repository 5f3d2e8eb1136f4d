"""rabsde benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload solve_report --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from anywhere; the benchmark measures the rabsde sources in ``src/``
next to this directory.  Every workload runs closed loop, one client, ops
back to back, each sample in its own fresh process (see README.md).  Lines
starting with ``#`` are for people; the last stdout line is the JSON result.
Working files go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes per run whose set-up times give setup_s
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take
THREADS = "1"  # BLAS threads and suite workers: one client, no contention
# Wall time of worker.calibrate on the reference core: a 2.1 GHz Xeon
# (Sapphire Rapids, KVM guest) when its host was quiet.
REF_S = 0.0022
CAL_SPAN = 5

END_TO_END = (
    ("op_p50_s", "s"), ("op_p90_s", "s"), ("ops_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
)


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RABSDE_THREADS"):
        env[var] = THREADS
    return env


def _spawn(args, mode: str, workdir: str, deadline: float, spans: str | None = None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=_child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} {mode} process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} {mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(window: dict) -> list[float]:
    """Op wall times scaled to the reference core speed (see worker.calibrate).

    Op i is scaled by the median of the calibration loops timed from just
    before op i-CAL_SPAN to just after op i+CAL_SPAN: one loop alone is
    jittery, and the host's speed changes over seconds, not single ops."""
    walls, refs = window["walls"], window["refs"]
    return [wall * REF_S / statistics.median(refs[max(i - CAL_SPAN, 0):i + CAL_SPAN + 2])
            for i, wall in enumerate(walls)]


def _rate(times: list[float]) -> float:
    return len(times) / sum(times)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def environment() -> dict:
    import numpy as np

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def caches() -> dict:
        out = {}
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for entry in sorted(os.listdir(base)):
                def read(name):
                    with open(os.path.join(base, entry, name), encoding="utf-8") as fh:
                        return fh.read().strip()
                if read("type") in ("Unified", "Data"):
                    out[f"L{read('level')}"] = read("size")
        except OSError:
            pass
        return out

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": caches(),
        "blas_threads": int(THREADS),
        "suite_workers": int(THREADS),
        "loop": "closed, 1 client, ops back to back",
        "note": "lattice.bytes_computed is computed from array sizes, not measured "
                "bandwidth; per-step slices are at most 97^2*8 = 75 KB here and sit in L2",
    }


def run_workload(args, env: dict) -> tuple[dict, dict]:
    """Returns (result line, record for the results file)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            main = _spawn(args, "trace", workdir, deadline,
                          spans=os.path.join(results_dir, f"spans-{tag}.csv.gz"))
            metrics = dict(main["per_layer"])
            metrics["trace.overhead_frac"] = (
                _rate(scaled(main["untraced"])) / _rate(scaled(main["timed"])) - 1.0)
            info = {"traced_ops": len(main["timed"]["walls"]), "spans": main["spans"],
                    "self_time_shares": main["shares"]}
        else:
            samples = [_spawn(args, "setup", workdir, deadline)
                       for _ in range(SETUP_SAMPLES - 1)]
            main = _spawn(args, "measure", workdir, deadline)
            samples.append(main)
            times = scaled(main["timed"])
            walls = main["timed"]["walls"]
            metrics = {
                "op_p50_s": statistics.median(times),
                "op_p90_s": percentile(times, 0.9),
                "ops_per_s": _rate(times),
                "setup_s": statistics.median(
                    s["setup_s"] * REF_S / s["setup_ref_s"] for s in samples),
                "peak_rss_mb": main["peak_rss_mb"],
                "ok_frac": (main["attempted"] - main["failed"]) / main["attempted"],
            }
            info = {"op_samples": len(times),
                    "beyond_p90": len(times) - math.ceil(0.9 * len(times)),
                    "wall_op_p50_s": statistics.median(walls),
                    "wall_op_p90_s": percentile(walls, 0.9),
                    "wall_ops_per_s": _rate(walls),
                    "wall_setup_s": statistics.median(s["setup_s"] for s in samples),
                    "calibration_p50_s": statistics.median(main["timed"]["refs"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(fail_frac=main["failed"] / main["attempted"], failures=main["reasons"],
                output_digest=main["digest"])
    result = {"correct": main["failed"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **info, **result}
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rabsde", "cli.py")):
        print(f"perfbench: no rabsde sources at {os.path.join(ROOT, 'src', 'rabsde')}",
              file=sys.stderr)
        return 2
    units = dict(tracing.PER_LAYER if args.trace else END_TO_END)
    env = environment()
    print(f"# env {json.dumps(env)}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        try:
            result, record = run_workload(args, env)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for key in ("op_samples", "beyond_p90", "wall_op_p50_s", "wall_op_p90_s",
                    "wall_ops_per_s", "wall_setup_s", "calibration_p50_s", "traced_ops",
                    "fail_frac", "output_digest"):
            if key in record:
                print(f"# {name} {key} = {record[key]}")
        for reason in record["failures"]:
            print(f"# {name} FAILED {reason}")
        for layer, share in record.get("self_time_shares", {}).items():
            print(f"# {name} share {layer} = {share:.3f}")
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} = {value:.6g} {units[metric]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {(metric if len(names) == 1 else f"{name}.{metric}"): {"value": value, "unit": units[metric]}
             for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
