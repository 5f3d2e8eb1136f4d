"""The four benchmark workloads: seeded inputs, the timed op and its output check.

Each workload turns ``--seed`` into a fixed list of ``n_inputs`` inputs and
cycles through them, one op per input, closed loop with a single client.
Nothing here imports rabsde at module level: ``setup()`` does, so that the
import is part of the measured set-up time.

An op returns whatever the user of that entry point gets back. ``check``
inspects it outside the timed region and returns ``(ok, digest_bytes,
reason)``; the digest bytes are what a later change must reproduce
(bit-identical or within a stated tolerance).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WARMUP_OPS = 2


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def put_family(rng: random.Random, n_steps: int, delta: int, scheme: str,
               lam=0.3, jump_term: bool = True) -> dict:
    """Scenario around the ROADMAP baseline: H-form driver in y, ey and u,
    anticipation lag delta, and a put-like obstacle that binds.

    The ROADMAP test scenario itself (obstacle ``w - 0.6 + 0.3*t`` under
    terminal ``w + 0.5*h + 1.5``) never touches its obstacle, so its dK is
    zero everywhere; a discounting driver under a decaying put payoff keeps
    the reflection active on 2-25 % of the nodes.
    """
    a = _u(rng, 0.3, 0.5)
    b = _u(rng, 0.05, 0.15)
    c = _u(rng, 0.05, 0.15)
    e = _u(rng, 0.0, 0.1)
    s0 = _u(rng, 0.5, 0.7)
    s1 = _u(rng, 0.05, 0.2)
    q = _u(rng, 0.2, 0.4)
    # A driver may not depend on u where the intensity vanishes.
    u_term = f" - {c}*u" if jump_term else ""
    return {
        "horizon": 1.0,
        "steps": n_steps,
        "delta_steps": delta,
        "lambda": lam,
        "driver": {"text": f"-{a}*y + {b}*ey{u_term} + {e}", "form": "H"},
        "obstacle": f"max({s0} - w, 0) - {s1}*t",
        "terminal": f"max({s0} - w, 0) + {q}*h",
        "scheme": scheme,
    }


def expected_rows(doc: dict) -> int:
    """Node count of the scenario's lattice, sum over k of n_nodes(k).

    Step k holds k+1 alive nodes plus one block of k+1 defaulted nodes per
    default step d <= k with positive intensity on step d-1.
    """
    n = doc["steps"]
    lam = doc["lambda"] if isinstance(doc["lambda"], list) else [doc["lambda"]] * n
    total = 0
    blocks = 1
    for k in range(n + 1):
        if k >= 1 and lam[k - 1] > 0:
            blocks += 1
        total += (k + 1) * blocks
    return total


def _non_finite(obj) -> bool:
    """True when a parsed report holds a NaN/inf, either as a number or in the
    string form the report writer uses for them."""
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, str):
        return obj.lower() in ("nan", "inf", "-inf", "infinity", "-infinity")
    return False


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_cli_report(code: int, raw: bytes):
    """A CLI op passes when it exits 0, reports ``"pass": true`` and every
    number in the report (``y0`` included) is finite."""
    if code != 0:
        return False, f"exit code {code}"
    doc = json.loads(raw)
    if doc.get("pass") is not True:
        return False, "report says pass: false"
    if _non_finite(doc):
        return False, "non-finite number in report"
    y0 = doc.get("solve", {}).get("y0")
    if not isinstance(y0, (int, float)):
        return False, "report has no numeric solve.y0"
    return True, doc


class Workload:
    name = ""
    n_inputs = 16

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")

    def setup(self) -> None:
        """Import rabsde and turn the generated inputs into call arguments."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out):
        raise NotImplementedError


class SolveReport(Workload):
    """``rabsde solve --format csv`` in-process: the user's single solve run."""

    name = "solve_report"
    N, DELTA = 24, 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.docs = [put_family(self.rng, self.N, self.DELTA, "explicit") for _ in range(self.n_inputs)]

    def setup(self):
        from rabsde import cli

        self.cli = cli
        self.paths = [
            _write_json(os.path.join(self.workdir, f"solve{i}.json"), d)
            for i, d in enumerate(self.docs)
        ]
        self.out = os.path.join(self.workdir, "report.csv")

    def op(self, i):
        code = self.cli.main(
            ["solve", "--scenario", self.paths[i], "--format", "csv", "--out", self.out]
        )
        return code, _read(self.out)

    def check(self, i, out):
        # With --format csv the report body is the node table; exit code 0 is
        # exactly the report's "pass": true.
        code, raw = out
        if code != 0:
            return False, raw, f"exit code {code}"
        text = raw.decode()
        lowered = text.lower()
        if "nan" in lowered or "inf" in lowered:
            return False, raw, "non-finite cell in node table"
        rows = text.count("\n") - 1
        if rows != expected_rows(self.docs[i]):
            return False, raw, f"{rows} rows, expected {expected_rows(self.docs[i])}"
        if text.count(",") != 8 * (rows + 1):
            return False, raw, "ragged node table"
        first = text.split("\n", 2)[1].split(",")
        if first[:3] != ["0", "0", "0"] or not math.isfinite(float(first[3])):
            return False, raw, "first row is not the root with a finite Y"
        return True, raw, ""


class SolveKernel(Workload):
    """Library ``solve_backward`` + ``validate_solution``: kernel and solver only."""

    name = "solve_kernel"
    N, DELTA = 96, 12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.docs = [put_family(self.rng, self.N, self.DELTA, "implicit") for _ in range(self.n_inputs)]

    def setup(self):
        import numpy as np

        from rabsde import cli, solver

        self.np = np
        self.solver = solver
        self.scenarios = [cli.scenario_from_dict(d) for d in self.docs]

    def op(self, i):
        sc = self.scenarios[i]
        sol = self.solver.solve_backward(sc)
        return sol, self.solver.validate_solution(sol, sc)

    def check(self, i, out):
        sol, rep = out
        numbers = (sol.y0, rep.driver_square_sum) + tuple(v for _, v in rep.checks())
        digest = repr(numbers).encode()
        if not all(math.isfinite(v) for v in numbers):
            return False, digest, "non-finite y0 or validation value"
        if not all(bool(self.np.isfinite(a).all()) for a in sol.y.values):
            return False, digest, "non-finite Y"
        if not rep.passes():
            return False, digest, f"validation failed: {rep.checks()}"
        return True, digest, ""


class SuiteSweep(Workload):
    """``cli.run_suite(seed_i, CASES, workers=1)``: many tiny lattices."""

    name = "suite_sweep"
    CASES = 10
    # The cost of a suite op depends on how many candidates its seed rejects;
    # many distinct seeds keep the median of a run from depending on the mix.
    n_inputs = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [self.rng.randrange(2**31) for _ in range(self.n_inputs)]

    def setup(self):
        from rabsde import cli

        self.cli = cli

    def op(self, i):
        return self.cli.run_suite(self.seeds[i], self.CASES, workers=1)

    def check(self, i, out):
        digest = json.dumps(out, sort_keys=True).encode()
        if out.get("pass") is not True or out.get("failures") != 0:
            return False, digest, "suite reports failures"
        if out.get("cases") != self.CASES:
            return False, digest, f"{out.get('cases')} cases, expected {self.CASES}"
        if _non_finite(out):
            return False, digest, "non-finite number in suite result"
        return True, digest, ""


class VerifySmall(Workload):
    """One op = ``stopping``, ``picard``, ``compare --iterates`` and
    ``solve --oracle crr`` on small inputs, so the oracle layers are timed."""

    name = "verify_small"
    STOP_LAMBDA = [0.0, 0.3, 0.0, 0.0]  # 17 decision nodes: 2^17 rules
    PICARD_N = 12
    COMPARE_N = 12
    PUT_N = 32

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.inputs = []
        for _ in range(self.n_inputs):
            stop = put_family(rng, 4, 1, "explicit", lam=self.STOP_LAMBDA, jump_term=False)
            picard = put_family(rng, self.PICARD_N, self.PICARD_N // 8, "implicit")
            dominated = put_family(rng, self.COMPARE_N, self.COMPARE_N // 8, "explicit")
            n0, m0 = _u(rng, 0.02, 0.1), _u(rng, 0.05, 0.2)
            dominating = dict(
                dominated,
                driver={"text": f"{dominated['driver']['text']} + {n0}", "form": "H"},
                obstacle=f"{dominated['obstacle']} + {round(m0 / 2, 4)}",
                terminal=f"{dominated['terminal']} + {m0}",
            )
            strike, rate, sigma = _u(rng, 0.9, 1.1), _u(rng, 0.02, 0.06), _u(rng, 0.8, 1.2)
            payoff = f"max({strike!r} - 1.0*exp({sigma!r}*w), 0)"
            put = {
                "horizon": 1.0, "steps": self.PUT_N, "delta_steps": 0, "lambda": 0.0,
                "driver": {"text": f"-{rate!r}*y", "form": "H"},
                "obstacle": payoff, "terminal": payoff, "scheme": "explicit",
                "oracle": {"kind": "crr", "spot": 1.0, "strike": strike,
                           "rate": rate, "sigma": sigma},
            }
            self.inputs.append((stop, picard, dominating, dominated, put))

    def setup(self):
        from rabsde import cli

        self.cli = cli
        self.argvs = []
        for i, docs in enumerate(self.inputs):
            p = [_write_json(os.path.join(self.workdir, f"v{i}_{j}.json"), d)
                 for j, d in enumerate(docs)]
            self.argvs.append([
                ["stopping", "--scenario", p[0]],
                # At the default beta (1 + 10*C'^2, about 17 here) the weighted
                # distance stalls at a 1e-12..5e-12 round-off floor on some
                # inputs and never meets the default tol of 1e-12.
                ["picard", "--scenario", p[1], "--beta", "4"],
                ["compare", "--scenario", p[2], "--scenario2", p[3], "--iterates", "40"],
                ["solve", "--scenario", p[4], "--oracle", "crr"],
            ])
        self.outs = [os.path.join(self.workdir, f"verify{j}.json") for j in range(4)]

    def op(self, i):
        results = []
        for argv, out in zip(self.argvs[i], self.outs):
            code = self.cli.main(argv + ["--out", out])
            results.append((code, _read(out)))
        return results

    def check(self, i, out):
        digest = b"".join(raw for _, raw in out)
        docs = []
        for (code, raw), argv in zip(out, self.argvs[i]):
            ok, doc = _check_cli_report(code, raw)
            if not ok:
                return False, digest, f"{argv[0]}: {doc}"
            docs.append(doc)
        stop, _picard, compare, crr = docs
        if stop["stopping"].get("brute_force") is None:
            return False, digest, "stopping oracle was skipped"
        if compare["comparison"]["iterates"]["count"] < 1:
            return False, digest, "iterate bridge produced no iterate"
        if "oracle" not in crr:
            return False, digest, "crr oracle did not run"
        return True, digest, ""


WORKLOADS = {w.name: w for w in (SolveReport, SolveKernel, SuiteSweep, VerifySmall)}


def digest_of(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()
