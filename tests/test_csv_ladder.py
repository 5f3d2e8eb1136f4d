"""scripts/csv_ladder.py on synthetic runs: the time no ``--timing`` phase covers."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "csv_ladder.py"


def _csv_ladder():
    spec = importlib.util.spec_from_file_location("csv_ladder", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outside_phases_is_the_median_of_wall_less_the_phase_sum():
    runs = [
        {"exit": 0, "wall_s": 0.200, "timing": {"load": 0.010, "solve": 0.004, "validate": 0.002, "report": 0.001}},
        {"exit": 0, "wall_s": 0.150, "timing": {"load": 0.020, "solve": 0.010, "emit": 0.020}},
        {"exit": 0, "wall_s": 0.190, "timing": {"load": 0.010, "solve": 0.010}},
        # a refused run carries no phases and is left out
        {"exit": 2, "wall_s": 9.0, "stderr": "error: /steps: must be a positive integer"},
    ]
    # the gaps are 0.183, 0.100 and 0.170
    assert _csv_ladder().outside_phases_s(runs) == pytest.approx(0.170, abs=1e-15)


def test_outside_phases_is_none_without_any_timed_run():
    assert _csv_ladder().outside_phases_s([{"exit": 2, "wall_s": 0.1, "stderr": "error"}]) is None
