"""Wall time, peak RSS and output of ``rabsde solve`` up an N ladder, as a CSV
node table (``--format csv``, the default) or a JSON report (``--format json``).

Each run solves ``perfbench.workloads.put_family(random.Random(0), N, N // 8,
"explicit")`` (the benchmark's put family, whose obstacle binds) in a fresh
interpreter, so ``ru_maxrss`` is that run's own peak.  Several source trees can
be measured in one call, with their runs interleaved, to compare two commits:

    python scripts/csv_ladder.py --tree parent=/path/to/parent/checkout \\
        --tree change=. --steps 64 128 256 --repeats 3 --format csv json --out BENCH_9.json

The output is JSON: every run (exit status, wall seconds from spawn to exit,
``ru_maxrss`` in MB, the run's own ``--timing`` phases, and for a CSV the
sha256 of the table, for a JSON report its y0, ``k_max_path_total``, pass
flag and check values, for a refused run its last stderr line) and, per format
and N, each tree's median wall time, largest peak RSS, median of every
``--timing`` phase (a CSV run's ``emit`` phase is the node table) and median
``outside_phases_s``: a run's wall time less the sum of its phases, which is
what no phase covers (interpreter start, imports, argument parsing and, for a
JSON report, its emit).  The exit
status is 1 when two trees, or two runs of one tree, wrote different CSV bytes
or JSON check values at some N.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import put_family  # noqa: E402

_MAIN = "import sys; from rabsde.cli import main; sys.exit(main(sys.argv[1:]))"
# the solution checks a JSON report carries, each under checks/violation
_CHECKS = ("equation_residual", "k_decrease", "skorokhod_product", "obstacle_violation")


def _check_values(report: dict) -> dict:
    """The validation values of a JSON report, as written (NaN as "nan")."""
    values = {c["name"]: c["violation"] for c in report["checks"] if c["name"] in _CHECKS}
    values["max_representation_residual"] = report["solve"]["max_representation_residual"]
    values["driver_square_sum"] = report["validate"]["driver_square_sum"]
    return values


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_once(tree: str, scenario: str, out: str, fmt: str = "csv") -> dict:
    """One ``rabsde solve --format fmt --timing`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, "-c", _MAIN, "solve", "--scenario", scenario,
            "--format", fmt, "--out", out, "--timing"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        lines = proc.stderr.read().decode().splitlines()
    _pid, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"exit": proc.returncode, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and fmt == "csv":
        record["sha256"] = _sha256(out)
        record["bytes"] = os.path.getsize(out)
    elif os.path.exists(out):  # a JSON report carries its own timing
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        record["timing"] = report.pop("timing", None)
        record.update(y0=report["solve"]["y0"], k_max_path_total=report["solve"]["k_max_path_total"],
                      passed=report["pass"], checks=_check_values(report))
    if lines and lines[-1].startswith('{"timing"'):
        record["timing"] = json.loads(lines[-1])["timing"]
    elif lines:
        record["stderr"] = lines[-1]
    if os.path.exists(out):
        os.remove(out)
    return record


def outside_phases_s(runs: list[dict]) -> float | None:
    """Median over the runs that carry ``--timing`` phases of ``wall_s`` less
    the sum of those phases; None when no run carries them."""
    gaps = [r["wall_s"] - sum(r["timing"].values()) for r in runs if r.get("timing")]
    return statistics.median(gaps) if gaps else None


def ladder(trees: dict[str, str], steps: list[int], repeats: int, workdir: str,
           fmt: str = "csv") -> dict:
    runs: dict = {name: {str(n): [] for n in steps} for name in trees}
    for n in steps:
        scenario = os.path.join(workdir, f"put{n}.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(put_family(random.Random(0), n, n // 8, "explicit"), fh)
        for r in range(repeats):
            names = list(trees) if r % 2 == 0 else list(reversed(trees))
            for name in names:
                record = run_once(trees[name], scenario, os.path.join(workdir, f"out.{fmt}"), fmt)
                runs[name][str(n)].append(record)
                print(f"{fmt} N={n} {name} run {r}: {record['wall_s']:.2f} s, "
                      f"{record['maxrss_mb']:.0f} MB, exit {record['exit']}", file=sys.stderr)
    summary = {}
    for n in steps:
        row: dict = {}
        hashes = set()
        for name in trees:
            done = runs[name][str(n)]
            timings = [r["timing"] for r in done if r.get("timing")]
            row[name] = {"wall_s_median": statistics.median(r["wall_s"] for r in done),
                         "maxrss_mb_max": max(r["maxrss_mb"] for r in done),
                         "exits": sorted({r["exit"] for r in done}),
                         "timing_s_median": {phase: statistics.median(t[phase] for t in timings if phase in t)
                                             for phase in sorted(set().union(*timings))},
                         "outside_phases_s": outside_phases_s(done)}
            if fmt == "csv":
                row[name]["sha256"] = sorted({r.get("sha256") or "missing" for r in done})
            else:
                row[name]["checks"] = sorted({json.dumps(r.get("checks"), sort_keys=True) for r in done})
            hashes.update(row[name]["sha256" if fmt == "csv" else "checks"])
        key = "sha256_equal" if fmt == "csv" else "checks_equal"
        row[key] = len(hashes) == 1 and not hashes & {"missing", "null"}
        summary[str(n)] = row
    return {"runs": runs, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                    help="a source tree holding src/rabsde; repeat to compare trees")
    ap.add_argument("--steps", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--format", nargs="+", choices=["csv", "json"], default=["csv"],
                    help="report formats to run, each over the whole ladder")
    ap.add_argument("--out", default=None, help="JSON output path (default stdout)")
    args = ap.parse_args(argv)
    trees = {}
    for spec in args.tree:
        name, sep, path = spec.partition("=")
        if not sep or not os.path.isdir(os.path.join(path, "src", "rabsde")):
            ap.error(f"--tree {spec!r}: expected NAME=PATH with PATH/src/rabsde")
        trees[name] = os.path.abspath(path)
    with tempfile.TemporaryDirectory(prefix="csv_ladder-") as workdir:
        result = {fmt: ladder(trees, args.steps, args.repeats, workdir, fmt) for fmt in args.format}
    result["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count()}
    result["what"] = ("rabsde solve --format FMT --timing on put_family(random.Random(0), N, "
                      "N // 8, 'explicit'), per format FMT; one fresh interpreter per run, runs "
                      "interleaved across trees; wall_s from spawn to exit, maxrss_mb = ru_maxrss")
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    rows = [row for fmt in args.format for row in result[fmt]["summary"].values()]
    return 0 if all(row.get("sha256_equal", row.get("checks_equal")) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
