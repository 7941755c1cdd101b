"""Compare the CLI's reports in this checkout against those of another checkout.

Usage (from the repository root)::

    python3 tools/compare_reports.py PARENT_DIR [--seeds 7 11] [--extra "ARGS"]... [--repeat N]

For each seed, every command of ``bench/workloads.readme_commands(seed)``
(loaded by file path from this checkout), every extra argument list and
every help or parser-error case of ``PARSER_CHECKS``, with ``--seed``
appended, runs once in each checkout as a subprocess of
``idemkit.cli.main`` with that checkout's ``src`` first on ``PYTHONPATH``
and one BLAS thread.  Each run writes its report with ``--out`` into a
fresh directory.  Exit code, stdout, stderr and report bytes are compared;
every difference is printed, and the exit status is 1 if there is any.
When both reports parse as JSON, a byte difference is followed by
``same document`` if they parse to equal documents (equal types, NaN equal
to NaN), or else by up to 10 differing paths, each with the parent's value
and this checkout's, such as ``certificates[3].entries[1].lhs: 0.1 -> 0.2``.

With ``--repeat N`` each command runs N times per side instead, the two
sides taking turns at going first, and the wall time of each subprocess,
interpreter start included, and its peak RSS (``ru_maxrss`` from
``os.wait4``) are recorded.  The median wall time and peak RSS per command
are printed, then per side the sum of the median wall times and the
largest median peak RSS; the reports of the first run of each side are the
ones compared, and the exit status still reports only differences.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: argument lists run at every seed besides the README's commands
DEFAULT_EXTRAS = [
    ["transfer", "--tower", '{"kind":"uhf","depth":6}', "--direction", "inj", "--trials", "20"],
    ["transfer", "--tower", '{"kind":"cantor","depth":8}', "--direction", "sur", "--trials", "100"],
    # the surjective transfers of the mc-trials towers: levels up to 4096
    # points, and uhf levels up to 256 x 256 matrices
    ["transfer", "--tower", '{"kind":"cantor","depth":12}', "--direction", "sur", "--trials", "100"],
    ["transfer", "--tower", '{"kind":"uhf","depth":8}', "--direction", "sur", "--trials", "8"],
    ["path-trivialize", "--n", "4", "--path", "random"],
    # a 12-segment rotation path closed to 1e-14, a random path at n = 16,
    # and a tolerance that only the Newton-Schulz rounding floor ends
    ["path-trivialize", "--n", "3", "--path", "rotation", "--tol", "1e-12"],
    ["path-trivialize", "--n", "16", "--path", "random", "--tol", "1e-10"],
    ["path-trivialize", "--n", "2", "--path", "rotation", "--tol", "1e-300"],
    ["k0", "--instance", '{"kind":"matrix","n":8}'],
    # the scalar and grid routes of k0 (the grid-gap entry), which no
    # README command takes
    ["k0", "--instance", '{"kind":"complex"}'],
    ["k0", "--instance", '{"kind":"functions","points":4}'],
    # the config's defaults, which no README command leaves unset
    ["collapse"],
    ["lift"],
    # printed lifts of dense matrices, whose series the measured power norms
    # shorten; they exit 2, or 0 where the input is near the identity and
    # the printed series gives an idempotent (seed 7)
    ["lift", "--instance", '{"kind":"matrix","n":16}', "--defect", "0.2", "--variant", "printed"],
    ["lift", "--instance", '{"kind":"matrix","n":16}', "--defect", "0.05", "--variant", "printed"],
    # a printed lift of the dense-calculus benchmark's size, powers of 1 MB
    ["lift", "--instance", '{"kind":"matrix","n":256}', "--defect", "0.2", "--variant", "printed"],
    # the largest collapse, and one over a non-scalar inner instance
    ["collapse", "--n", "65536"],
    ["collapse", "--n", "8", "--instance", '{"kind":"matrix","n":2}'],
    # collapses at the work bound, n times one inner product's work equal
    # to 4096**2: n = 4096 over 64 x 64 complex matrices (work 64**2), and
    # n = 1 over 256 x 256 matrices of scaled integers (work 256**3)
    ["collapse", "--n", "4096", "--instance", '{"kind":"matrix","n":64}'],
    [
        "collapse",
        "--n",
        "1",
        "--instance",
        '{"kind":"matrix","n":256,"inner":{"kind":"scaled-integers"}}',
    ],
    # the exact collapses: ``int`` norms, and ``Fraction`` norms
    ["collapse", "--n", "8", "--instance", '{"kind":"scaled-integers"}'],
    ["collapse", "--n", "8", "--instance", '{"kind":"scaled-integers","r":"1/2"}'],
    # norm audits the README leaves out: complex scalars (norm ``abs``), a
    # norm that reads more than magnitudes, and ``Fraction`` norms
    ["norm-audit"],
    ["norm-audit", "--instance", '{"kind":"matrix","n":3,"norm":"spectral"}', "--samples", "16"],
    ["norm-audit", "--instance", '{"kind":"scaled-integers","r":"1/2"}'],
    # both modes of the sequence descriptor, which no README command builds:
    # the l1 convolution algebra, and "linf", which parse_instance builds as
    # functions on range(truncation)
    ["norm-audit", "--instance", '{"kind":"sequence","mode":"l1","truncation":4}'],
    ["norm-audit", "--instance", '{"kind":"sequence","mode":"linf","truncation":8}'],
    # sequence products batched over the block products of a matrix
    [
        "norm-audit",
        "--instance",
        '{"kind":"matrix","n":3,"inner":{"kind":"sequence","truncation":3}}',
    ],
    # the largest matrix over an l1 sequence at n = 4 whose audit row, two
    # products at --samples 0, the work bound accepts: 2 * 4**3 * 362**2
    [
        "norm-audit",
        "--samples",
        "0",
        "--instance",
        '{"kind":"matrix","n":4,"inner":{"kind":"sequence","truncation":362}}',
    ],
    # audits whose rows batch each kind of product: a function algebra,
    # sequences that numpy sums pairwise (from truncation 8), block
    # products, sequences of matrices and matrices of sequences
    ["norm-audit", "--instance", '{"kind":"functions","points":64}'],
    ["norm-audit", "--instance", '{"kind":"sequence","truncation":512}'],
    [
        "norm-audit",
        "--samples",
        "6",
        "--instance",
        '{"kind":"matrix","n":8,"inner":{"kind":"matrix","n":8}}',
    ],
    [
        "norm-audit",
        "--samples",
        "4",
        "--instance",
        '{"kind":"sequence","truncation":16,"inner":{"kind":"matrix","n":3}}',
    ],
    [
        "norm-audit",
        "--samples",
        "4",
        "--instance",
        '{"kind":"matrix","n":9,"inner":{"kind":"sequence","truncation":9}}',
    ],
]

#: help and parser-error argument lists, compared at every seed like the
#: extras; none of them parses to a config
PARSER_CHECKS = [
    ["--help"],
    ["lift", "--help"],
    ["tensor-audit", "-h"],
    ["mystery"],
    ["lift", "--variant", "foo"],
    ["collapse", "--n", "x"],
]

_RUN_CLI = "import sys; from idemkit.cli import main; sys.exit(main(sys.argv[1:]))"

#: most differing paths printed per report
MAX_PATHS = 10

_ABSENT = object()


def document_diffs(old, new, path: str = ""):
    """``(path, old value, new value)`` at each place two parsed JSON
    documents differ; a key or item only one side has pairs with ``_ABSENT``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from document_diffs(
                old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}" if path else key
            )
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from document_diffs(
                old[i] if i < len(old) else _ABSENT,
                new[i] if i < len(new) else _ABSENT,
                f"{path}[{i}]",
            )
    elif not _same(old, new):
        yield path, old, new


def _same(a, b) -> bool:
    # == alone would equate 1, 1.0 and True, and tell NaN from itself
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _value_text(value) -> str:
    text = "(absent)" if value is _ABSENT else json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


def report_lines(old: bytes, new: bytes) -> list[str]:
    """What changed between two reports that both parse as JSON: ``same
    document``, or up to ``MAX_PATHS`` differing paths; nothing otherwise."""
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except (TypeError, ValueError):  # no report, or a CSV one
        return []
    diffs = list(document_diffs(old_doc, new_doc))
    if not diffs:
        return ["same document"]
    lines = [f"{p}: {_value_text(a)} -> {_value_text(b)}" for p, a, b in diffs[:MAX_PATHS]]
    if len(diffs) > MAX_PATHS:
        lines.append(f"... {len(diffs) - MAX_PATHS} more differing paths")
    return lines


def load_workloads():
    """``bench/workloads.py`` of this checkout, which imports its ``idemkit``."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run(checkout: Path, args: list[str], workdir: Path) -> tuple:
    """``((exit code, stdout, stderr, report bytes or None), wall seconds,
    peak RSS in MB)`` of one command; the peak is the child's ``ru_maxrss``
    from ``os.wait4``."""
    workdir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(checkout / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    stdout, stderr = workdir / "stdout", workdir / "stderr"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _RUN_CLI, *args, "--out", "report.out"],
            cwd=workdir,
            env=env,
            stdout=out,
            stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    report_path = workdir / "report.out"
    report = report_path.read_bytes() if report_path.exists() else None
    result = (proc.returncode, stdout.read_bytes(), stderr.read_bytes(), report)
    return result, wall, usage.ru_maxrss / 1024  # kilobytes on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the other checkout's root directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument(
        "--extra", action="append", default=[], help="one more argument list, shell-quoted"
    )
    parser.add_argument(
        "--repeat", type=int, default=0, help="time N runs of each command per side"
    )
    opts = parser.parse_args(argv)
    if opts.repeat < 0:
        parser.error("--repeat must be nonnegative")
    parent = opts.parent.resolve()
    if not (parent / "src" / "idemkit").is_dir():
        print(f"compare_reports: no src/idemkit under {parent}", file=sys.stderr)
        return 1
    extras = DEFAULT_EXTRAS + PARSER_CHECKS + [shlex.split(text) for text in opts.extra]
    fields = ("exit code", "stdout", "stderr", "report")
    compared = differing = 0
    sides = [("here", ROOT), ("parent", parent)]
    totals = {"here": 0.0, "parent": 0.0}
    largest_rss = {"here": 0.0, "parent": 0.0}
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in opts.seeds:
            commands = [args for args, _ in workloads.readme_commands(seed)]
            commands += [[*args, "--seed", str(seed)] for args in extras]
            for args in commands:
                outputs = {}
                walls, rss = {"here": [], "parent": []}, {"here": [], "parent": []}
                for rep in range(max(1, opts.repeat)):
                    for side, checkout in sides if rep % 2 == 0 else sides[::-1]:
                        workdir = Path(tmp) / f"{compared}-{side}-{rep}"
                        result, wall, peak = run(checkout, args, workdir)
                        outputs.setdefault(side, result)
                        walls[side].append(wall)
                        rss[side].append(peak)
                compared += 1
                pairs = zip(fields, outputs["here"], outputs["parent"])
                diffs = [name for name, a, b in pairs if a != b]
                if diffs:
                    differing += 1
                    print(f"DIFF ({', '.join(diffs)}): {shlex.join(args)}")
                    if "report" in diffs:
                        for line in report_lines(outputs["parent"][3], outputs["here"][3]):
                            print(f"  {line}")
                if opts.repeat:
                    medians = {side: statistics.median(w) for side, w in walls.items()}
                    rss_medians = {side: statistics.median(r) for side, r in rss.items()}
                    for side, median in medians.items():
                        totals[side] += median
                        largest_rss[side] = max(largest_rss[side], rss_medians[side])
                    print(
                        f"TIME here {1000 * medians['here']:.1f} ms, "
                        f"parent {1000 * medians['parent']:.1f} ms; "
                        f"RSS here {rss_medians['here']:.1f} MB, "
                        f"parent {rss_medians['parent']:.1f} MB: {shlex.join(args)}"
                    )
    print(f"{compared} commands compared, {differing} differ")
    if opts.repeat:
        print(
            f"median wall time summed over {compared} commands ({opts.repeat} runs per side): "
            f"here {totals['here']:.3f} s, parent {totals['parent']:.3f} s; "
            f"largest median peak RSS here {largest_rss['here']:.1f} MB, "
            f"parent {largest_rss['parent']:.1f} MB"
        )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
