"""One benchmark process: set-up, untraced timed phase, traced pass.

Started by ``run.py`` in a fresh interpreter so that set-up time includes
interpreter start and ``import idemkit``.  Prints one JSON object on its
last stdout line.

Phases:

1. set-up: import, seeded input generation, warm-up.  With ``--full-trace
   1`` the set-up's spans are recorded too (the generators' self time).
2. timed: the workload's cycle of ops, one op at a time, repeated until
   ``--seconds`` have passed and every op ran at least ``BEST_OF`` times;
   no wrapper is installed.  Throughput and latency percentiles are read
   from the ``BEST_OF`` fastest runs of each op, as ``timeit`` reads the
   best of its repeats: on a shared host whose speed shifts by up to 1.5
   times for seconds to minutes at a time, each op's fastest runs repeat
   from run to run where means and all-run percentiles do not.  Taking
   the same number of runs of every op keeps the op mix, and so the
   percentiles, the same however many cycles fit.
3. traced: one more cycle with the layers wrapped, which gives the
   deterministic work counts (``mul_per_op``).  ``--full-trace 1`` wraps
   every layer for the per-layer metrics; otherwise only ``mul`` is
   wrapped, which keeps this counting pass close to an untraced cycle.

With ``--setup-only 1`` the process stops after phase 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: every op runs at least this many times in the timed phase, and the
#: end-to-end timings come from this many of its fastest runs
BEST_OF = 2
#: timing ladder for the tail: the highest entry with >= 10 samples beyond it
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(ops_per_cycle: int) -> float:
    """Tail percentile fixed by the cycle size, not by how many cycles fit,
    so a faster program is read at the same percentile as a slower one."""
    samples = ops_per_cycle * BEST_OF
    for p in TAIL_PERCENTILES:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def run_op(op):
    """(latency_ns, outcome_ok, error) for one op; checks run after the clock."""
    start = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter_ns() - start, False, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start
    try:
        ok = bool(op.check(result))
    except Exception as exc:
        return latency, False, f"check {type(exc).__name__}: {exc}"
    return latency, ok, None if ok else "unexpected outcome"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-time", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--full-trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", help="write the traced pass's span records here")
    args = ap.parse_args()

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import idemkit

    import_s = time.perf_counter() - import_start
    if Path(idemkit.__file__).resolve().parent != ROOT / "src" / "idemkit":
        print(f"worker: imported idemkit from {idemkit.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from tracer import Tracer, summarize
    from workloads import WORKLOADS

    tracer = Tracer(None if args.full_trace else frozenset({"instances.mul"}))
    if args.full_trace:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    try:
        workload.warm_up()
        tracer.uninstall()
        first_op = time.monotonic()
        setup_s = first_op - args.spawn_time
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = workload.ops
        op_lat: list[list[int]] = [[] for _ in ops]
        failures: list[dict] = []
        by_label: dict[str, list[int]] = {}
        runs = 0
        start = time.perf_counter()
        deadline = start + args.seconds
        while runs < BEST_OF * len(ops) or time.perf_counter() < deadline:
            op = ops[runs % len(ops)]
            latency, ok, error = run_op(op)
            op_lat[runs % len(ops)].append(latency)
            by_label.setdefault(op.label, []).append(latency)
            if not ok:
                failures.append({"phase": "timed", "op": op.label, "error": error})
            runs += 1
        elapsed = time.perf_counter() - start
        cycles = runs / len(ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        tracer.phase = "ops"
        traced = 0
        tracer.install()
        trace_start = time.perf_counter()
        try:
            for op in ops:
                tracer.op = traced
                traced += 1
                _, ok, error = run_op(op)
                if not ok:
                    failures.append({"phase": "traced", "op": op.label, "error": error})
        finally:
            trace_elapsed = time.perf_counter() - trace_start
            tracer.uninstall()
        records = tracer.export()
        layers, mul_by_op = summarize(records, traced)
        if args.spans_out:
            fields = ["name", "dur_ns", "self_ns", "parent", "op", "phase", "note", "error"]
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": fields, "records": records}, fh)
    finally:
        workload.close()

    best_ms = np.array([sorted(lats)[:BEST_OF] for lats in op_lat]).ravel() / 1e6
    all_ms = np.concatenate([np.array(lats) for lats in op_lat]) / 1e6
    pct = tail_percentile(len(ops))
    labels = [op.label for op in ops]
    per_label = Counter(labels)
    per_op: dict[str, dict] = {}
    for label, lats in by_label.items():
        p50, p99 = np.percentile(lats, (50, 99)) / 1e6
        per_op[label] = {"count": len(lats), "p50_ms": float(p50), "p99_ms": float(p99), "mul": 0}
    for index, muls in mul_by_op.items():
        per_op.setdefault(labels[index], {"mul": 0})["mul"] += muls / per_label[labels[index]]
    result = {
        "setup_s": setup_s,
        # this fresh interpreter's `import idemkit`, as a CLI process pays it
        "cli_import_s": import_s,
        "attempted": len(all_ms) + traced,
        "failed": len(failures),
        "failures": failures[:20],
        "timed": {
            "cycles": cycles,
            "ops_per_cycle": len(ops),
            "ops": len(all_ms),
            "elapsed_s": elapsed,
            "best_of": BEST_OF,
            "ops_per_s": len(best_ms) / (best_ms.sum() / 1e3),
            "op_p50_ms": float(np.percentile(best_ms, 50)),
            "op_tail_ms": float(np.percentile(best_ms, pct)),
            "tail_percentile": pct,
            "tail_samples": len(best_ms),
            "tail_samples_beyond": int(np.sum(best_ms > np.percentile(best_ms, pct))),
            "all_runs": {
                "ops_per_s": len(all_ms) / elapsed,
                "op_p50_ms": float(np.percentile(all_ms, 50)),
                "op_tail_ms": float(np.percentile(all_ms, pct)),
            },
        },
        "peak_rss_mb": rss_mb,
        "traced": {
            "ops": traced,
            "elapsed_s": trace_elapsed,
            "overhead_frac": trace_elapsed / (elapsed / cycles) - 1,
            "layers": layers,
        },
        "per_op": per_op,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
