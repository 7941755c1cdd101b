"""idemkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload dense-calculus --seed 1 --seconds 30 --trace 0

Workloads: ``dense-calculus``, ``mc-trials``, ``cli-readme`` (see
``bench/workloads.py`` for what each runs and why).  Each is a closed loop
with one caller: the next op starts when the previous one has returned.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (the
environment, the tail percentile and its sample count, ``failed_frac``,
failures and per-op figures), which are also written to
``bench/out/result-<workload>-seed<seed>-trace<trace>.json``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
set-ups, each in a fresh interpreter), ``ops_per_s``, ``op_p50_ms`` and
``op_tail_ms`` (over the two fastest runs of each op in the timed phase;
see ``worker.py``), ``mul_per_op`` (exact, from the counting pass that follows
the timed phase) and ``peak_rss_mb``.  ``--trace 1`` prints the per-layer
metrics of a traced run and writes its spans to
``bench/out/spans-<workload>-seed<seed>.json``.

Any op whose outcome differs from the expected one makes ``correct``
false and the exit code 1.  Seeds 1 to 10 are the development seeds; seed
9001 (``HELDOUT_SEED``) is held out for checking later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: BLAS threads per workload (None: one per CPU, OpenBLAS's default).
#: mc-trials and cli-readme multiply matrices of size 64 and below, where a
#: second thread only adds hand-off cost: on 2 CPUs it halved mc-trials'
#: throughput, made the README's uhf transfer 3 to 6 times slower and
#: widened the run-to-run spread.  dense-calculus gains 1.5 to 1.8 times,
#: and on one thread its spread over five seeds widened from 0.10-0.16 to
#: 0.21-0.27 of the median.
BLAS_THREADS = {"dense-calculus": None, "mc-trials": 1, "cli-readme": 1}
WORKLOAD_NAMES = tuple(BLAS_THREADS)
HELDOUT_SEED = 9001
SETUP_REPEATS = 3
#: a run must end within 180 s; workers share what is left of this budget
BUDGET_S = 170.0


def blas_record() -> dict:
    """BLAS library, version and thread count as numpy sees them."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError):
        info["blas"] = info["blas_version"] = "unknown"
    info["blas_threads"] = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    return info


def spawn_worker(args, extra: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result."""
    workdir = OUT / f"work-{os.getpid()}"
    spawn = time.monotonic()
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", str(workdir),
        "--spawn-time", repr(spawn),
        *extra,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        raise SystemExit(f"bench: worker for {args.workload} exceeded the time budget")
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker for {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def op_mul(per_op: dict, label: str) -> int:
    return per_op.get(label, {}).get("mul", 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "idemkit" / "__init__.py").is_file():
        print(f"bench: no idemkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS[args.workload] or nproc)
    OUT.mkdir(exist_ok=True)

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_worker(args, ["--setup-only", "1"], deadline)["setup_s"])
        res = spawn_worker(args, [], deadline)
    else:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        res = spawn_worker(args, ["--full-trace", "1", "--spans-out", str(spans)], deadline)
    setups.append(res["setup_s"])

    timed, traced = res["timed"], res["traced"]
    layers = dict(traced["layers"])
    mul_per_op = layers.pop("mul_per_op")
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (timed["ops_per_s"], "ops/s"),
            "op_p50_ms": (timed["op_p50_ms"], "ms"),
            "op_tail_ms": (timed["op_tail_ms"], "ms"),
            "mul_per_op": (mul_per_op[0], "count"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        expected = [m["name"] for m in spec["end_to_end"]]
    else:
        per_op = res["per_op"]
        metrics = {
            **layers,
            "calculus.neumann_inverse.mul_n512_q0.9": (op_mul(per_op, "neumann_inverse n=512 q=0.9"), "count"),
            "calculus.lift_idempotent.mul_n512_t0.2": (op_mul(per_op, "lift corrected n=512 t=0.2"), "count"),
            "cli.import_s": (res["cli_import_s"], "s"),
            "trace.ops": (traced["ops"], "count"),
            "trace_overhead_frac": (traced["overhead_frac"], "ratio"),
        }
        expected = [m["name"] for m in spec["per_layer"]]
    if sorted(metrics) != sorted(expected):
        missing, extra = set(expected) - set(metrics), set(metrics) - set(expected)
        print(f"bench: metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}", file=sys.stderr)
        return 2

    correct = res["failed"] == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": {
            "nproc": nproc,
            "python": platform.python_version(),
            **blas_record(),
        },
        "setup_s_samples": setups,
        "failed_frac": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
        "failures": res["failures"],
        "timed": timed,
        "traced": {k: v for k, v in traced.items() if k != "layers"},
        "mul_per_op": mul_per_op[0],
        "per_op": res["per_op"],
    }
    if args.trace == 1:
        detail["absent"] = {
            "spans": sorted(k[: -len(".calls")] for k, (v, _) in metrics.items() if k.endswith(".calls") and not v),
            "why": "this workload's ops never call them; their metrics read 0",
        }
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
