"""One workload process: set up, warm up, then run ops back to back.

Started by ``run.py`` with a fresh interpreter per sample, so that the
measured set-up covers interpreter start, ``import rabsde.cli`` and the
untimed warm-up ops.  Prints one JSON object on its last stdout line.

Modes:
  setup    set up and warm up, report the set-up time, exit;
  measure  also run the untraced timed window (end-to-end metrics);
  trace    an untraced window of half the time, then a traced window of
           whole input cycles for the other half (per-layer metrics).

Every op is followed by the calibration loop ``calibrate``; see its
docstring for why.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibrate() -> float:
    """Fixed reference work with the program's mix of object churn, float
    formatting, small numpy calls and ~128 KB array passes; returns its
    wall time.

    On the shared 2-vCPU hosts this benchmark was built on, the speed of a
    core changes by up to 1.6x for seconds at a time, whatever runs in the
    guest.  Timing this loop next to every op lets ``run.py`` scale op
    times to a reference core speed (``REF_S``), which removes most of that
    swing from the end-to-end metrics.
    """
    start = time.perf_counter()
    small = np.linspace(0.0, 1.0, 4096)
    big = np.linspace(0.0, 1.0, 16384)
    acc = 0.0
    rows = []
    for i in range(300):
        pair = _Pair(i, i + 1)
        rows.append(f"{pair.a},{pair.b * 0.5:.17g}")
        acc += float(np.max(small[1:] + small[:-1]))
        if i % 20 == 0:
            acc += float((0.5 * (big[1:] + big[:-1])).sum())
    if acc != acc or len(rows) != 300:  # keeps the work observable
        raise RuntimeError("calibration loop went wrong")
    return time.perf_counter() - start


class Runner:
    """Runs ops on one workload and checks every output."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first_digest: dict[int, bytes] = {}

    def run(self, i: int, call=None) -> float:
        """One op on input ``i``, timed; its output is checked afterwards.

        A failed op is counted, never retried or dropped."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = (call or self.wl.op)(i)
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - start
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            ok, digest, reason = self.wl.check(i, out)
        except (KeyError, TypeError, ValueError) as exc:
            ok, reason = False, f"malformed output: {type(exc).__name__}: {exc}"
        if ok and self.first_digest.setdefault(i, digest) != digest:
            ok, reason = False, "output differs from the first op on the same input"
        if not ok:
            self._fail(i, reason)
        return elapsed

    def _fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"input {i}: {reason}")

    def window(self, seconds: float, min_ops: int, whole_cycles: bool, call=None):
        """Closed loop over the inputs until ``seconds`` and ``min_ops`` are
        both reached (and, for traced windows, the input cycle is complete).

        Returns ``{"walls": op wall times, "refs": calibration times}``, with
        one calibration before the first op and one after every op."""
        walls, refs = [], [calibrate()]
        start = time.perf_counter()
        hard_stop = start + 3 * seconds
        n = self.wl.n_inputs
        while True:
            walls.append(self.run(len(walls) % n, call))
            refs.append(calibrate())
            now = time.perf_counter()
            if whole_cycles and len(walls) % n:
                continue
            if (now - start >= seconds and len(walls) >= min_ops) or now >= hard_stop:
                return {"walls": walls, "refs": refs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="gzip CSV file for the traced spans")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    runner = Runner(wl)
    for i in range(workloads.WARMUP_OPS):
        runner.run(i)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "setup_ref_s": statistics.median(calibrate() for _ in range(3))}

    if args.mode == "measure":
        result["timed"] = runner.window(args.seconds, MIN_OPS, whole_cycles=False)
    elif args.mode == "trace":
        import tracing

        result["untraced"] = runner.window(args.seconds / 2, 0, whole_cycles=True)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            result["timed"] = runner.window(
                args.seconds / 2, 0, whole_cycles=True,
                call=lambda i: tracer.run_op(i, wl.op, i),
            )
        finally:
            restore()
        result["per_layer"], result["shares"] = tracing.layer_metrics(
            tracer, len(result["timed"]["walls"]))
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        reasons=runner.reasons,
        digest=workloads.digest_of([runner.first_digest[i] for i in sorted(runner.first_digest)]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
