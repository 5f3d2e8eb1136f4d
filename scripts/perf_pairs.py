"""Alternating perfbench pairs of two source trees: the parent and the change.

Each pair runs ``<tree>/perfbench/run.py --workload W --seed S`` once for each
tree, one after the other, in fresh processes; the tree that runs first
alternates from pair to pair (the parent first in even pairs), so a drift of
the host's speed falls on both sides alike.  After each run the script reads
the record the run wrote to ``<tree>/.perfbench/results/`` (every end-to-end
metric, the raw ``wall_*`` times, the calibration loop and the output digest):

    python scripts/perf_pairs.py --parent /path/to/parent/checkout --change . \\
        --workload solve_kernel --seed 0 401 --pairs 10 --out BENCH_21.json

It prints, per workload, seed and side, the median and quartiles of scaled
``op_p50_s`` and raw ``wall_op_p50_s``, the median ``calibration_p50_s``, and
the share of pairs in which the change's op time is better; then the
change/parent ratio of the two op medians, scaled and raw, and of the two
calibration medians, flagged ``calibration_moved`` when that ratio is off 1 by
more than ``CALIBRATION_DRIFT``: scaled times then carry the calibration
loop's own shift (its speed depends on the process's heap layout, which the
source bytes and the tree's path change), so read the raw ratio.  Then, per end-to-end
metric, the evidence for a claim in its own direction (``HIGHER_BETTER``
lists the metrics where more is better): the share of pairs the change wins
and the change's median gain over the parent's interquartile range; and a
no-regression verdict against the metric's bound in the parent's
``BENCHMARK.json`` (read only): the change-vs-parent median ratio, and
``worse`` when the change's median is worse than the parent's by more than
the bound, else ``unresolved`` when the parent's own spread (interquartile
range over median) exceeds the bound and not every change run beats every
parent run, else ``ok``.  The JSON output holds every run and that summary,
with the quartiles of every metric.  The exit status is 1 when a run
fails (an op failed or perfbench exited non-zero), the two trees' output
digests differ, or a metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# the end-to-end metrics of a perfbench run, all read from its results record
END_TO_END = ("op_p50_s", "op_p90_s", "ops_per_s", "setup_s", "peak_rss_mb", "ok_frac")
RAW = ("wall_op_p50_s", "wall_op_p90_s", "wall_setup_s", "calibration_p50_s")
# the end-to-end metrics where higher is better; every other one is better lower
HIGHER_BETTER = ("ops_per_s", "ok_frac")
# a change/parent ratio of the calibration medians this far off 1 flags the scaled times
CALIBRATION_DRIFT = 0.05


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run of ``tree``, as its results record tells it."""
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip().splitlines()[-1:]}
    path = os.path.join(tree, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"exit": 0, **record["metrics"], **{key: record[key] for key in RAW},
            "failed": record["failed"], "output_digest": record["output_digest"]}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def verdicts(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json``: the change's median over
    the parent's, the parent's relative spread, the bound and the verdict."""
    out = {}
    for metric in metrics:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        parent, change = ([r[name] for r in runs[side]] for side in SIDES)
        p, c = statistics.median(parent), statistics.median(change)
        ratio = c / p if p else (1.0 if c == p else math.inf)
        worse_by = ratio - 1.0 if lower else 1.0 - ratio
        q = quartiles(parent)
        spread = (q["q3"] - q["q1"]) / abs(p) if p else 0.0
        beats = max(change) < min(parent) if lower else min(change) > max(parent)
        verdict = "worse" if worse_by > bound else "unresolved" if spread > bound and not beats else "ok"
        out[name] = {"ratio": ratio, "parent_spread": spread, "bound": bound, "verdict": verdict}
    return out


def summarize(runs: dict) -> dict:
    """Per side, the quartiles of every metric; per end-to-end metric and
    ``wall_op_p50_s``, in the metric's direction, the share of pairs the
    change wins and its median gain over the parent's interquartile range,
    with the change/parent median ratio; the calibration ratio and whether it
    moved; digests equal."""
    ok = all(r["exit"] == 0 and r["failed"] == 0 for side in SIDES for r in runs[side])
    if not ok:
        return {"ok": False}
    out: dict = {"ok": True, "pairs": len(runs["change"])}
    for side in SIDES:
        out[side] = {key: quartiles([r[key] for r in runs[side]]) for key in END_TO_END + RAW}
    for key in END_TO_END + ("wall_op_p50_s",):
        gain = 1.0 if key in HIGHER_BETTER else -1.0  # (change - parent) * gain > 0: the change is better
        wins = sum((c[key] - p[key]) * gain > 0 for p, c in zip(runs["parent"], runs["change"]))
        parent, change = out["parent"][key]["median"], out["change"][key]["median"]
        ratio = change / parent if parent else float("nan")
        out[f"{key}_change_wins"] = wins / len(runs["change"])
        out[f"{key}_median_change_frac"] = ratio - 1.0
        out[f"{key}_median_gap_over_parent_iqr"] = (
            (change - parent) * gain / (out["parent"][key]["q3"] - out["parent"][key]["q1"] or float("nan")))
        out[f"{key}_ratio"] = ratio
    calibration = [out[side]["calibration_p50_s"]["median"] for side in SIDES]
    out["calibration_ratio"] = calibration[1] / calibration[0]
    out["calibration_moved"] = abs(out["calibration_ratio"] - 1.0) > CALIBRATION_DRIFT
    out["digests_equal"] = len({r["output_digest"] for side in SIDES for r in runs[side]}) == 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="source tree of the parent (holds perfbench/ and src/)")
    ap.add_argument("--change", required=True, help="source tree of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", default=None, help="JSON output path (default: none)")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, tree in trees.items():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"--{side} {tree!r}: no perfbench/run.py there")
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    result: dict = {"runs": {}, "summary": {}}
    for workload in args.workload:
        for seed in args.seed:
            key = f"{workload}/seed{seed}"
            runs = result["runs"][key] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else reversed(SIDES):
                    record = run_once(trees[side], workload, seed, args.seconds)
                    runs[side].append({"pair": pair, **record})
                    print(f"{key} pair {pair} {side}: op_p50_s {record.get('op_p50_s', float('nan')) * 1e3:.2f} ms, "
                          f"wall {record.get('wall_op_p50_s', float('nan')) * 1e3:.2f} ms", file=sys.stderr)
            summary = result["summary"][key] = summarize(runs)
            if not summary["ok"]:
                print(f"{key}: a run failed")
                continue
            for side in SIDES:
                line = ", ".join(f"{metric} {s['median'] * 1e3:.2f} ms [{s['q1'] * 1e3:.2f}, {s['q3'] * 1e3:.2f}]"
                                 for metric, s in ((m, summary[side][m]) for m in ("op_p50_s", "wall_op_p50_s")))
                print(f"{key} {side}: {line}")
            print(f"{key} change wins: op_p50_s {summary['op_p50_s_change_wins']:.0%}, "
                  f"wall_op_p50_s {summary['wall_op_p50_s_change_wins']:.0%}; "
                  f"digests equal: {summary['digests_equal']}; calibration_p50_s "
                  + ", ".join(f"{side} {summary[side]['calibration_p50_s']['median'] * 1e3:.3f} ms" for side in SIDES))
            print(f"{key} change/parent: op_p50_s {summary['op_p50_s_ratio']:.3f} scaled, "
                  f"wall_op_p50_s {summary['wall_op_p50_s_ratio']:.3f} raw; calibration_p50_s "
                  f"{summary['calibration_ratio']:.3f}"
                  + (" calibration_moved: read the raw ratio" if summary["calibration_moved"] else ""))
            summary["verdicts"] = verdicts(runs, metrics)
            for name, v in summary["verdicts"].items():
                print(f"{key} {name}: change/parent median {v['ratio']:.3f}, change better in "
                      f"{summary[f'{name}_change_wins']:.0%} of pairs, median gain "
                      f"{summary[f'{name}_median_gap_over_parent_iqr']:.2f} parent IQRs, parent spread "
                      f"{v['parent_spread']:.1%}, bound {v['bound']:.0%}: {v['verdict']}")
    result["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count()}
    result["method"] = (f"perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0 "
                        f"per tree, {args.pairs} pairs per workload and seed, the parent first in even pairs")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result, indent=1, sort_keys=True) + "\n")
    good = all(s["ok"] and s["digests_equal"] and all(v["verdict"] != "worse" for v in s["verdicts"].values())
               for s in result["summary"].values())
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
