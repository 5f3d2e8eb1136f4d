"""The exact bytes of each subcommand's report, pinned by sha256.

Every scenario document is written here.  A change to how a report is
assembled must leave these bytes as they are; a change that means to move a
number changes its pin and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from rabsde.cli import main

# 3 steps, one step of anticipation, a default that can happen at every step
DOC = {
    "horizon": 1.0,
    "steps": 3,
    "delta_steps": 1,
    "lambda": 0.4,
    "driver": {"text": "-0.3*y + 0.05*ey - 0.1*u", "form": "H"},
    "obstacle": "0.8 - w - 0.2*h",
    "terminal": "max(0.8 - w - 0.2*h, 0)",
    "name": "pinned",
}
# the same problem raised everywhere, so that it dominates DOC
DOMINATING = {
    **DOC,
    "driver": {"text": "-0.3*y + 0.05*ey - 0.1*u + 0.05", "form": "H"},
    "obstacle": "0.85 - w - 0.2*h",
    "terminal": "max(0.8 - w - 0.2*h, 0) + 0.1",
}
# 8 steps: more decision nodes than the brute-force Snell oracle enumerates,
# few enough paths for the running-max check
PAST_CAP = {**DOC, "steps": 8}
CRR = {
    "horizon": 1.0,
    "steps": 8,
    "lambda": 0.0,
    "driver": "-0.04*y",
    "obstacle": "max(1 - exp(w), 0)",
    "terminal": "max(1 - exp(w), 0)",
    "oracle": {"kind": "crr", "spot": 1.0, "strike": 1.0, "rate": 0.04, "sigma": 1.0},
}

CASES = {
    "solve_json": (["solve", "--scenario", DOC],
                   "447955b04c2426f5b2dcc690cbbf06833c57f36a7f43dd52926a88a468ecb8e3"),
    "solve_csv": (["solve", "--scenario", DOC, "--format", "csv"],
                  "58b96b56078ef0209f31c74b176ebd7a7dc59dca495d858ae11c53f94db00499"),
    # the implicit scheme's inner loop, with its one Aitken step per node
    "solve_implicit_json": (["solve", "--scenario", {**DOC, "scheme": "implicit"}],
                            "698e5dafbbf0abe673a4724f13b9139e7fa5adca4b558d6fc3c7566dbd39a018"),
    "solve_implicit_csv": (["solve", "--scenario", {**DOC, "scheme": "implicit"}, "--format", "csv"],
                           "df510c909e8262d39fc1235700dd68b8312f770dfd83242e9715499450421de2"),
    # Picard's distances are taken in log-sum-exp form
    "solve_outputs": (["solve", "--scenario", {**DOC, "outputs": ["validate", "picard", "stopping"]}],
                      "2119105d26b54b6d32187c91b46abe5bd93fed15c4e2288e935e43446f878e47"),
    "solve_oracle_crr": (["solve", "--scenario", CRR, "--oracle", "crr"],
                         "411a84e79898a7835e466aed6cfa974002360db3d7229977e68f0ce63a160f5a"),
    "picard_beta_4": (["picard", "--scenario", DOC, "--beta", "4"],
                      "247b341df6c8237ed2545e13dc85b83211717e6030f875ce067d972f746f51db"),
    "stopping": (["stopping", "--scenario", DOC],
                 "3464cc626c346276bd36aae43194b2682dab3b3e9edfcaea473b09223a2abf5b"),
    # the expected dK sums dK under the closed-form node law
    "stopping_past_cap": (["stopping", "--scenario", PAST_CAP],
                          "d4ce40c9ac0762e64c55fe1107f6311993ca6f7d8a6ddd556273b80a8b38ad77"),
    "compare_iterates_30": (["compare", "--scenario", DOMINATING, "--scenario2", DOC, "--iterates", "30"],
                            "d0d1bb2cb3fb87d882785be04dbe38925e0bb560940c9476baff2b15b1ce23ca"),
    "suite_7": (["suite", "--cases", "7"],
                "bd9c0df3db41d9bf8e86c3a09d9059d5a6259a3eb23067f85b7056a5c78e3ca5"),
}


def _args(tmp_path, argv) -> list[str]:
    """The case's command line, each document written to a file."""
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    return args


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(tmp_path, case):
    argv, sha = CASES[case]
    out = tmp_path / "report"
    assert main(_args(tmp_path, argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_on_stdout_are_the_pinned_bytes(tmp_path, capsys, case):
    argv, sha = CASES[case]
    assert main(_args(tmp_path, argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == sha
