"""Time a benchmark workload's ops in this checkout and another, paired in one process.

Usage (from the repository root)::

    python3 tools/compare_ops.py PARENT_DIR --workload mc-trials --seed 1 --rounds 10

Both checkouts' ``src/idemkit`` and ``bench/workloads.py`` are loaded into
this process, each side's modules swapped into ``sys.modules`` while that
side is imported, set up and run; each side's ``idemkit.__file__`` must lie
under its own checkout.  BLAS runs on the threads ``bench/run.py`` gives
the workload (one for mc-trials and cli-readme).  Each round runs every op
of the workload's cycle on both sides back to back, the side that goes
first alternating from op to op and from round to round, and checks each
outcome after the clock stops, as ``bench/worker.py`` does.

Printed per side: ``ops_per_s`` and ``op_p50_ms`` over the best-of-2
fastest runs of each op, computed as ``bench/worker.py`` computes them
(with one round, over the one run); then, per op label, the mean of those
runs on each side and their ratio.  Pairing the sides op by op in one
process resolves changes well below the run-to-run spread of separate
``bench/run.py`` processes.  The exit status is 1 if any op failed its
check on either side.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "here")


def _load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _owned(name: str) -> bool:
    return name in ("idemkit", "workloads") or name.startswith("idemkit.")


class Side:
    """One checkout's ``idemkit`` and workload, each op run with its modules in place."""

    def __init__(self, name: str, checkout: Path, workload: str, seed: int, workdir: Path):
        self.name = name
        for key in [k for k in sys.modules if _owned(k)]:
            del sys.modules[key]
        src = str(checkout / "src")
        sys.path.insert(0, src)
        try:
            idemkit = importlib.import_module("idemkit")
            workloads = _load_file("workloads", checkout / "bench" / "workloads.py")
        finally:
            sys.path.remove(src)
        where = Path(idemkit.__file__).resolve()
        if not where.is_relative_to((checkout / "src" / "idemkit").resolve()):
            raise SystemExit(f"compare_ops: {name} imported idemkit from {where}, not from {checkout}")
        self.modules = {k: m for k, m in sys.modules.items() if _owned(k)}
        self.workload = workloads.WORKLOADS[workload](seed, workdir)
        self.workload.warm_up()
        self.ops = self.workload.ops

    def activate(self) -> None:
        sys.modules.update(self.modules)


def main(argv=None) -> int:
    run = _load_file("idemkit_bench_run", ROOT / "bench" / "run.py")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the other checkout's root directory")
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    opts = parser.parse_args(argv)
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = opts.parent.resolve()
    if not (parent / "src" / "idemkit" / "__init__.py").is_file():
        print(f"compare_ops: no src/idemkit under {parent}", file=sys.stderr)
        return 2
    # before numpy loads: OpenBLAS reads its thread count once, at start-up
    threads = run.BLAS_THREADS[opts.workload] or len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    import numpy as np

    worker = _load_file("idemkit_bench_worker", ROOT / "bench" / "worker.py")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = [
            Side(name, checkout, opts.workload, opts.seed, Path(tmp) / name)
            for name, checkout in zip(SIDES, (parent, ROOT))
        ]
        labels = [op.label for op in sides[0].ops]
        if labels != [op.label for op in sides[1].ops]:
            print("compare_ops: the two checkouts' workloads run different ops", file=sys.stderr)
            return 2
        lat = {side.name: [[] for _ in labels] for side in sides}
        try:
            for r in range(opts.rounds):
                for i in range(len(labels)):
                    for side in sides if (r + i) % 2 == 0 else sides[::-1]:
                        side.activate()
                        latency, ok, error = worker.run_op(side.ops[i])
                        lat[side.name][i].append(latency)
                        if not ok:
                            failures.append(f"{side.name} round {r}: {labels[i]}: {error}")
        finally:
            for side in sides:
                side.workload.close()

    best = {name: np.array([sorted(runs)[: worker.BEST_OF] for runs in lats]) / 1e6 for name, lats in lat.items()}
    print(
        f"{opts.workload} seed {opts.seed}: {len(labels)} ops per side, rounds {opts.rounds}, "
        f"{threads} BLAS thread(s); best-of-{min(worker.BEST_OF, opts.rounds)} runs of each op"
    )
    summary = {}
    for name in SIDES:
        ms = best[name].ravel()
        summary[name] = (len(ms) / (ms.sum() / 1e3), float(np.percentile(ms, 50)))
        print(f"{name:>6}: ops_per_s {summary[name][0]:.1f}, op_p50_ms {summary[name][1]:.4f}")
    print(
        f"here/parent: ops_per_s {summary['here'][0] / summary['parent'][0]:.3f}, "
        f"op_p50_ms {summary['here'][1] / summary['parent'][1]:.3f}"
    )
    print("per label, mean ms of the best runs: parent, here, here/parent")
    for label in dict.fromkeys(labels):
        rows = [i for i, other in enumerate(labels) if other == label]
        old, new = (float(best[name][rows].mean()) for name in SIDES)
        print(f"  {old:9.4f} {new:9.4f} {new / old:6.3f}  {label}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
