"""scripts/perf_pairs.py on synthetic runs: the change/parent ratios it
reports, the calibration flag, and its unchanged verdicts and exit rule."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


def _perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(wall: float, cal: float, digest: str = "d") -> dict:
    """One run's record: the scaled op time is the raw one over the calibration
    loop's time, as perfbench scales it (reference 2 ms)."""
    op = wall * 0.002 / cal
    return {"exit": 0, "failed": 0, "output_digest": digest, "op_p50_s": op, "op_p90_s": op,
            "ops_per_s": 1.0 / op, "setup_s": 0.2, "peak_rss_mb": 40.0, "ok_frac": 1.0,
            "wall_op_p50_s": wall, "wall_op_p90_s": wall, "wall_setup_s": 0.2, "calibration_p50_s": cal}


def _runs(parent: list, change: list) -> dict:
    return {"parent": [_record(*r) for r in parent], "change": [_record(*r) for r in change]}


def test_a_faster_calibration_loop_is_flagged_beside_the_raw_ratio():
    pp = _perf_pairs()
    # the change is 10 % faster in raw wall time, but its calibration loop runs
    # 12 % faster too, so its scaled time reads slower
    runs = _runs([(0.010, 0.00225)] * 4, [(0.009, 0.00198)] * 4)
    summary = pp.summarize(runs)
    assert summary["wall_op_p50_s_ratio"] == pytest.approx(0.9)
    assert summary["op_p50_s_ratio"] == pytest.approx(0.9 * 0.00225 / 0.00198)
    assert summary["op_p50_s_ratio"] > 1.0
    assert summary["calibration_ratio"] == pytest.approx(0.88)
    assert summary["calibration_moved"] is True


@pytest.mark.parametrize("cal, moved", [(0.00209, False), (0.00191, False), (0.00211, True), (0.00189, True)])
def test_the_calibration_flag_needs_a_shift_past_five_percent(cal, moved):
    summary = _perf_pairs().summarize(_runs([(0.010, 0.002)] * 3, [(0.010, cal)] * 3))
    assert summary["calibration_moved"] is moved


def test_the_verdicts_and_the_exit_rule_do_not_read_the_calibration(tmp_path, monkeypatch, capsys):
    pp = _perf_pairs()
    trees = {}
    for side in pp.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        trees[str(tmp_path / side)] = side
    bench = {"end_to_end": [{"name": "op_p50_s", "better": "lower", "bound": 0.24}]}
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(bench))
    # raw 10 % faster, calibration 12 % faster: the scaled ratio is about 1.02, within the bound
    records = {"parent": _record(0.010, 0.00225), "change": _record(0.009, 0.00198)}
    monkeypatch.setattr(pp, "run_once", lambda tree, *args: dict(records[trees[tree]]))
    out = tmp_path / "bench.json"
    code = pp.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "solve_kernel", "--pairs", "2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert ("solve_kernel/seed0 change/parent: op_p50_s 1.023 scaled, wall_op_p50_s 0.900 raw; "
            "calibration_p50_s 0.880 calibration_moved: read the raw ratio") in printed
    summary = json.loads(out.read_text())["summary"]["solve_kernel/seed0"]
    assert summary["calibration_moved"] is True and summary["verdicts"]["op_p50_s"]["verdict"] == "ok"
    # a scaled time worse past its bound is still "worse", and exits 1, whatever the calibration did
    records["change"] = _record(0.013, 0.00198)
    assert pp.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "solve_kernel", "--pairs", "2"]) == 1


def test_a_higher_better_claim_is_judged_in_its_own_direction():
    pp = _perf_pairs()
    runs = _runs([(0.010, 0.002)] * 5, [(0.010, 0.002)] * 5)
    # the change serves more ops per second in 4 of 5 pairs, and uses more memory in every pair
    for run, (parent, change) in zip(zip(runs["parent"], runs["change"]),
                                     [(100, 104), (101, 106), (99, 105), (102, 101), (98, 107)]):
        run[0]["ops_per_s"], run[1]["ops_per_s"] = parent, change
        run[1]["peak_rss_mb"] = 41.0
    summary = pp.summarize(runs)
    assert summary["ops_per_s_change_wins"] == pytest.approx(0.8)
    # medians 100 and 105 over the parent's quartiles 98.5 and 101.5
    assert summary["ops_per_s_median_gap_over_parent_iqr"] == pytest.approx(5.0 / 3.0)
    assert summary["ops_per_s_ratio"] == pytest.approx(1.05)
    assert summary["peak_rss_mb_change_wins"] == 0.0 and summary["peak_rss_mb_ratio"] == pytest.approx(1.025)
    assert math.isnan(summary["peak_rss_mb_median_gap_over_parent_iqr"])  # a parent IQR of 0
    # ties win nothing, whichever the direction
    assert summary["ok_frac_change_wins"] == 0.0 and summary["setup_s_change_wins"] == 0.0
    assert summary["parent"]["ops_per_s"] == {"q1": 98.5, "median": 100, "q3": 101.5}
