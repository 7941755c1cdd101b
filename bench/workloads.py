"""The benchmark's three workloads: seeded inputs, ops and expected outcomes.

A workload's set-up builds every input from the workload seed with the
library's seeded generators and returns a fixed cycle of ops.  Each op
carries its expected outcome; the timed phase repeats the cycle, one op at
a time (closed loop, one caller).  Op bodies look library functions up on
the ``idemkit`` package at call time, so the tracer's rebinding sees them.

Why these workloads:

* ``dense-calculus``: 20 ops at n in {256, 512} (one at 128) and on a
  depth-9 UHF tower; BLAS matrix products set the time (cost is series length x n^3)
  and Python dispatch is under 1%.  A change that needs fewer
  multiplications shows in full here; a dispatch-only change should not
  move it.
* ``mc-trials``: 1,443 small certified ops per cycle at n in {2, 4, 8}
  and on UHF and Cantor towers of depth 6 to 12, shaped like the
  acceptance suite.  Most ops take a fraction of a millisecond, mostly
  Python: instance dispatch, certificate bookkeeping and small numpy
  calls.  Backend and dispatch changes move it; series length barely
  does.
* ``cli-readme``: every README command and a few scaled and failing
  variants, each through ``idemkit.cli.main`` with empty memo caches,
  writing its report with ``--out``.  Every command pays argument
  parsing, the exact and sparse bookkeeping (``deloop``, ``Fraction``
  norms, tuple instances) and report rendering, and two inputs take the
  exit-1 error path; interpreter start and ``import idemkit`` are its
  set-up.  Import, report, ``deloop`` and exact-path changes show only
  here.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import idemkit as ik
import idemkit.cli  # loaded before the tracer installs, so cli.main is wrapped


@dataclass
class Op:
    """One certified operation and the check of its expected outcome."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def call(name: str, *args, **kwargs) -> Callable[[], Any]:
    """Deferred ``idemkit.<name>(*args, **kwargs)``, looked up at call time."""
    return lambda: getattr(ik, name)(*args, **kwargs)


def valid(result) -> bool:
    return result.cert.valid


def invalid(result) -> bool:
    return not result.cert.valid


def verdict(expected: str) -> Callable[[Any], bool]:
    def check(result) -> bool:
        if result.verdict != expected:
            return False
        return expected != "yes" or result.unit.cert.valid

    return check


def round_trip(tower, level: int, e, tail: float) -> Callable[[], Any]:
    """Surjective transfer of a level idempotent plus the output class key."""

    def run():
        result = ik.transfer_surjective(tower, ik.LimitElement(level, e, tail), eps=0.01)
        return result, ik.level_class_key(tower, result.level, result.idempotent.e)

    return run


def key_preserved(key_in) -> Callable[[Any], bool]:
    def check(out) -> bool:
        result, key_out = out
        return key_out == key_in and result.cert.valid and result.unit.cert.valid

    return check


def fresh_path_trivialize(inst, rank: int, seed: int) -> Callable[[], Any]:
    """Build a new path per call: a reused path's sample cache would make
    repeats two to three times cheaper than a first trivialization."""
    return lambda: ik.path_trivialize(ik.conjugation_path(inst, rank, seed=seed), tol=1e-8)


def pinned_almost_idempotent(inst, t: float, rng):
    """``p + h*x`` for a seeded projector ``p`` and direction ``x``, with ``h``
    solved so that the defect ``norm(a*a - a)`` lies in ``[t*(1 - 1e-9), t]``.

    The corrected series' length depends on the defect alone, so pinning it
    makes the lift's multiplication count the same on every seed, where the
    library generator's band ``[t/2, t]`` would not.
    """
    rank = int(rng.integers(1, inst.n))
    base = ik.conjugated_projector(inst, rank, rng, spread=0.5)
    x = inst.random_element(rng)
    x /= inst.norm(x)

    def excess(h):
        a = base + h * x
        return float(inst.norm(inst.sub(inst.mul(a, a), a))) - t, a

    lo, f_lo = 0.0, excess(0.0)[0]
    hi = t / 4
    f_hi, a = excess(hi)
    while f_hi < 0:
        lo, f_lo, hi = hi, f_hi, 2 * hi
        f_hi, a = excess(hi)
    side = 0
    for _ in range(200):
        if -1e-9 * t <= f_hi <= 0:
            return a
        # Illinois regula falsi: halve the stale end's weight on repeats
        h = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_h, a_h = excess(h)
        if -1e-9 * t <= f_h <= 0:
            return a_h
        if f_h > 0:
            hi, f_hi = h, f_h
            if side == 1:
                f_lo /= 2
            side = 1
        else:
            lo, f_lo = h, f_h
            if side == -1:
                f_hi /= 2
            side = -1
    raise RuntimeError(f"could not pin the defect at {t}")


def nearby_conjugate(inst, e, rng, bound: float):
    """Idempotent ``f = e + e*y*(1 - e)``, conjugate to ``e`` by ``1 -/+ e*y*(1 - e)``,
    scaled so that ``conjugation_bound(norm(e), norm(e - f))`` equals ``bound``."""
    n_e = float(inst.norm(e))
    dist = math.sqrt(n_e * n_e + bound) - n_e
    nil = inst.mul(inst.mul(e, inst.random_element(rng)), inst.sub(inst.one(), e))
    return e + nil * (dist / float(inst.norm(nil)))


def warm_blas(sizes) -> None:
    """First BLAS/LAPACK calls at a size pay thread start-up and allocation."""
    rng = np.random.default_rng(0)
    for n in sizes:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(3):
            x = x @ x / np.abs(x).sum(axis=0).max()
        np.linalg.inv(np.eye(n) + x)
        np.linalg.svd(x)
        np.linalg.cond(x)


def level_trial(tower, level: int, rng, almost: bool):
    """A level idempotent and an honest tail bound (as the acceptance suite draws them)."""
    inst = tower.levels[level]
    if isinstance(inst, ik.MatrixAlgebra):
        if almost:
            e = ik.random_almost_idempotent(inst, 1e-4, seed=int(rng.integers(0, 2**31)))
            t = float(inst.distance(inst.mul(e, e), e))
            two_a = float(inst.norm(inst.sub(inst.int_scale(2, e), inst.one())))
            return e, two_a * ((1 - 4 * t) ** -0.5 - 1) / 2 + inst.slack
        return ik.conjugated_projector(inst, int(rng.integers(0, inst.n + 1)), rng, spread=0.4), 0.0
    return rng.integers(0, 2, inst.size).astype(complex), 0.0


class Workload:
    """Set-up builds ``ops`` (the timed cycle) and ``warm_ops`` (run once
    before timing); the traced pass runs ``ops`` once more."""

    def warm_up(self) -> None:
        for op in self.warm_ops:
            op.check(op.run())

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# dense-calculus


DENSE_SIZES = (256, 512)
NEUMANN_Q = (0.5, 0.9)
#: t = 0.24 would need 534 corrected terms; the library's tail-bound update
#: converts the 516th coefficient to float and overflows, so 0.235 (349
#: terms) is the defect nearest 1/4 the library can lift at tol 1e-10
NEAR_QUARTER_T = 0.235
LIFT_T = (0.05, 0.2)
#: at NEAR_QUARTER_T the series' high powers reach subnormal floats, which
#: BLAS multiplies about 100 times slower: on 2 Xeon CPUs the lift took 20 s
#: at n = 512 and 3 s at n = 256, so it runs at n = 128, keeping a cycle
#: near 10 s
NEAR_QUARTER_N = 128
UHF_DEPTH = 9


class DenseCalculus(Workload):
    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.ops = self._ops(rng, DENSE_SIZES, UHF_DEPTH)
        warm_blas(DENSE_SIZES)
        # the same op kinds at toy size fill the coefficient caches and
        # lazy imports without paying for a second dense cycle
        self.warm_ops = self._ops(np.random.default_rng([seed, 2]), (16,), 4)

    @staticmethod
    def _ops(rng, sizes, uhf_depth) -> list[Op]:
        small = ik.MatrixAlgebra(ik.COMPLEX, min(NEAR_QUARTER_N, *sizes))
        a = pinned_almost_idempotent(small, NEAR_QUARTER_T, rng)
        ops = [
            Op(
                f"lift corrected n={small.n} t={NEAR_QUARTER_T}",
                call("lift_idempotent", small, a, "corrected", 1e-10),
                valid,
            )
        ]
        for n in sizes:
            inst = ik.MatrixAlgebra(ik.COMPLEX, n)
            for q in NEUMANN_Q:
                d = inst.random_element(rng)
                d *= q / inst.norm(d)
                u = inst.sub(inst.one(), d)
                ops.append(Op(f"neumann_inverse n={n} q={q}", call("neumann_inverse", inst, u, 1e-9), valid))
            lift_inputs = {t: pinned_almost_idempotent(inst, t, rng) for t in LIFT_T}
            for t, a in lift_inputs.items():
                ops.append(
                    Op(f"lift corrected n={n} t={t}", call("lift_idempotent", inst, a, "corrected", 1e-10), valid)
                )
            ops.append(
                Op(f"lift printed n={n} t=0.2", call("lift_idempotent", inst, lift_inputs[0.2], "printed", 1e-10), invalid)
            )
            lifted = ik.lift_idempotent(inst, lift_inputs[0.05], "corrected", 1e-10)
            near = ik.certify_idempotent(inst, nearby_conjugate(inst, lifted.e, rng, 0.5), 1e-9)
            ops.append(Op(f"conjugating_unit n={n}", call("conjugating_unit", inst, lifted, near, 1e-9), valid))
            rank = int(rng.integers(1, n - 1))
            e, f, g = (
                ik.certify_idempotent(inst, ik.conjugated_projector(inst, r, rng, spread=0.5), 1e-9)
                for r in (rank, rank, rank + 1)
            )
            ops.append(Op(f"are_equivalent far n={n}", call("are_equivalent", inst, e, f, 1e-9), verdict("yes")))
            ops.append(Op(f"are_equivalent unequal n={n}", call("are_equivalent", inst, e, g, 1e-9), verdict("no")))
        tower = ik.make_uhf_tower(uhf_depth)
        for level, almost in ((uhf_depth - 1, False), (uhf_depth - 1, True), (uhf_depth, False)):
            e, tail = level_trial(tower, level, rng, almost)
            key = ik.level_class_key(tower, level, e)
            label = f"transfer_surjective uhf{uhf_depth} level={level}" + (" almost" if almost else "")
            ops.append(Op(label, round_trip(tower, level, e, tail), key_preserved(key)))
        return ops


# ---------------------------------------------------------------------------
# mc-trials


MC_SIZES = (2, 4, 8)
#: ops per cycle of each kind, per size where the kind is sized
MC_COUNTS = {
    "neumann": 60,
    "lift": 60,
    "conjugate": 60,
    "equivalent": 60,
    "path": 24,
    "sur-uhf": 180,
    # 27 per level: level-12 transfers, the slowest ops, are 1.9% of the
    # cycle, so the p99 tail lands inside their latency band, not at its
    # edge next to the level-11 band
    "sur-cantor": 351,
    "inj-uhf": 60,
    "inj-cantor": 60,
}


def exact_idempotent_pair(rng, n: int):
    """Exactly representable idempotents within the proximity bound."""
    k = int(rng.integers(0, n + 1))
    scale = 0.5 / max(1, k)
    x = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) * scale
    delta = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) * (scale / 25)
    e = np.zeros((n, n), dtype=complex)
    e[:k, :k] = np.eye(k)
    f = e.copy()
    e[:k, k:] = x
    f[:k, k:] = x + delta
    p = np.eye(n)[rng.permutation(n)]
    return p @ e @ p.T, p @ f @ p.T


class McTrials(Workload):
    def __init__(self, seed: int, workdir: Path):
        self.ops = self._ops(np.random.default_rng([seed, 1]), 1)
        self.warm_ops = self._ops(np.random.default_rng([seed, 2]), 0)

    @staticmethod
    def _ops(rng, scale: int) -> list[Op]:
        """Sizes, tower levels, path ranks, Neumann radii and lift defects
        are spread evenly over the acceptance suite's ranges rather than
        drawn: they set most of an op's cost (a level-12 Cantor transfer
        takes thirty times the median op), so every seed gets the same cost
        mix and only the elements themselves depend on the seed."""
        count = {k: max(1, v * scale) for k, v in MC_COUNTS.items()}
        ops = []
        for n in MC_SIZES:
            inst = ik.MatrixAlgebra(ik.COMPLEX, n)
            for i in range(count["neumann"]):
                m = inst.random_element(rng)
                m *= 0.9 * (i + 0.5) / count["neumann"] / inst.norm(m)
                ops.append(Op(f"neumann_inverse n={n}", call("neumann_inverse", inst, inst.sub(inst.one(), m), 1e-9), valid))
            for i in range(count["lift"]):
                t = 0.02 + 0.18 * (i + 0.5) / count["lift"]
                a = ik.random_almost_idempotent(inst, t, seed=int(rng.integers(0, 2**31)))
                ops.append(Op(f"lift corrected n={n}", call("lift_idempotent", inst, a, "corrected", 1e-10), valid))
            for _ in range(count["conjugate"]):
                e, f = (ik.certify_idempotent(inst, x, 0) for x in exact_idempotent_pair(rng, n))
                ops.append(Op(f"conjugating_unit n={n}", call("conjugating_unit", inst, e, f, 1e-9), valid))
            for i in range(count["equivalent"]):
                rank = int(rng.integers(0, n + 1))
                other = rank if i % 2 == 0 else (rank + 1) % (n + 1)
                e, f = (
                    ik.certify_idempotent(inst, ik.conjugated_projector(inst, r, rng, spread=0.4), 1e-9)
                    for r in (rank, other)
                )
                expect = "yes" if rank == other else "no"
                ops.append(Op(f"are_equivalent {expect} n={n}", call("are_equivalent", inst, e, f, 1e-9), verdict(expect)))
            for i in range(count["path"]):
                rank = i % (n + 1)
                ops.append(
                    Op(f"path_trivialize n={n}", fresh_path_trivialize(inst, rank, int(rng.integers(0, 2**31))), valid)
                )
        for kind, tower in (("uhf", ik.make_uhf_tower(6)), ("cantor", ik.make_cantor_tower(12))):
            for i in range(count[f"sur-{kind}"]):
                level = i % (tower.depth + 1)
                almost = kind == "uhf" and i % 4 == 3
                e, tail = level_trial(tower, level, rng, almost)
                key = ik.level_class_key(tower, level, e)
                ops.append(
                    Op(f"transfer_surjective {kind}{tower.depth}", round_trip(tower, level, e, tail), key_preserved(key))
                )
        for kind, tower in (("uhf", ik.make_uhf_tower(6)), ("cantor", ik.make_cantor_tower(8))):
            for i in range(count[f"inj-{kind}"]):
                level = i % (tower.depth + 1)
                inst = tower.levels[level]
                if isinstance(inst, ik.MatrixAlgebra):
                    rank = int(rng.integers(0, inst.n + 1))
                    e, f = (
                        ik.certify_idempotent(inst, ik.conjugated_projector(inst, rank, rng, spread=0.4), 1e-9)
                        for _ in range(2)
                    )
                    u = ik.are_equivalent(inst, e, f, 1e-9).unit.u
                else:
                    bits = rng.integers(0, 2, inst.size).astype(complex)
                    e = f = ik.certify_idempotent(inst, bits, 1e-9)
                    u = inst.one()
                unit = ik.LimitElement(level, u, 0.0)
                ops.append(
                    Op(
                        f"transfer_injective {kind}{tower.depth}",
                        call("transfer_injective", tower, level, e, f, unit, eps=0.01, tol=1e-9),
                        valid,
                    )
                )
        return ops


# ---------------------------------------------------------------------------
# cli-readme


def readme_commands(seed: int) -> list[tuple[list[str], int]]:
    """(arguments, expected exit code) for each command of one cycle.

    Every command takes the workload seed in place of the README's fixed
    ``--seed 7``, so the seed varies the inputs here as in the other
    workloads.
    """
    s = ["--seed", str(seed)]
    uhf_sur = ["transfer", "--tower", '{"kind":"uhf","depth":6}', "--direction", "sur", "--eps", "0.01", "--trials", "100", *s]
    lift = ["lift", "--instance", '{"kind":"matrix","n":4}', "--defect", "0.1", "--variant", "corrected", *s]
    return [
        # the README's command-line section, in order
        (lift, 0),
        (["lift", "--instance", '{"kind":"complex"}', "--defect", "0.09", "--variant", "printed", *s], 2),
        (["k0", "--instance", '{"kind":"matrix","n":2}', *s], 0),
        (["k0", "--instance", '{"kind":"uhf","depth":6}', *s], 0),
        (uhf_sur, 0),
        (["transfer", "--tower", '{"kind":"cantor","depth":8}', "--direction", "inj", "--trials", "20", *s], 0),
        (["path-trivialize", "--n", "2", "--path", "rotation", "--tol", "1e-8", *s], 0),
        (["swindle-check", "--support", "4096", *s], 0),
        (["collapse", "--n", "16", *s], 0),
        (["norm-audit", "--instance", '{"kind":"scaled-integers","r":"2"}', *s], 2),
        (["tensor-audit", *s], 0),
        # scaled variants
        (["collapse", "--n", "1024", *s], 0),
        (["swindle-check", "--support", "65536", *s], 0),
        ([*uhf_sur, "--format", "csv"], 0),
        # tuple-of-tuples fallback instances
        (["norm-audit", "--instance", '{"kind":"matrix","n":6,"inner":{"kind":"scaled-integers"}}', *s], 0),
        (["norm-audit", "--instance", '{"kind":"matrix","n":4,"inner":{"kind":"matrix","n":2}}', *s], 0),
        # bad inputs take the exit-1 path
        (["lift", "--defect", "0.3", *s], 1),
        (["transfer", "--tower", '{"kind":"uhf","depth":13}', *s], 1),
        # repeats within one cycle: their reports must match byte for byte,
        # and 20 commands give the p75 tail 10 samples beyond it in the two
        # fastest runs of each command
        (lift, 0),
        (uhf_sur, 0),
    ]


#: idemkit's memo caches; a fresh CLI process starts with them empty
MEMO_CACHES = [
    fn
    for module in (ik.calculus, ik.core)
    for fn in vars(module).values()
    if callable(getattr(fn, "cache_clear", None))
]


class CliReadme(Workload):
    """README commands through the CLI entry point, in this process.

    Each op empties idemkit's memo caches, runs ``idemkit.cli.main`` on
    one command and reads back the report it wrote with ``--out``, so it
    pays argument parsing, the command's work, the cache fill and report
    rendering, as a CLI process does.  Interpreter start and ``import
    idemkit``, the rest of a CLI process's cost, are this workload's set-up
    (``setup_s``) and the traced run's ``cli.import_s``.
    """

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.reference: dict[tuple, bytes] = {}
        self.ops = [self._op(i, args, code) for i, (args, code) in enumerate(readme_commands(seed))]
        self.warm_ops = [self._op(-1, ["k0", "--instance", '{"kind":"matrix","n":2}'], 0)]

    def _op(self, index: int, args: list[str], code: int) -> Op:
        out = self.workdir / f"report-{index}.out"
        argv = [*args, "--out", str(out)]

        def run():
            out.unlink(missing_ok=True)
            for fn in MEMO_CACHES:
                fn.cache_clear()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    returncode = ik.cli.main(argv)
                except SystemExit as exc:  # argparse rejects malformed arguments this way
                    returncode = exc.code if isinstance(exc.code, int) else 1
            return returncode, out.read_bytes() if out.exists() else None

        def check(result) -> bool:
            returncode, payload = result
            if returncode != code:
                return False
            if code == 1:
                return payload is None
            ref = self.reference.setdefault(tuple(args), payload)
            return payload is not None and payload == ref

        return Op(" ".join(args), run, check)

    def close(self) -> None:
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {
    "dense-calculus": DenseCalculus,
    "mc-trials": McTrials,
    "cli-readme": CliReadme,
}
