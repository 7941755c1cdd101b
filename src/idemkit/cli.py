"""Command-line entry point: experiment orchestration and report emission.

Exit codes: 0 when every certificate in the report is valid, 2 when the
experiment ran but produced an invalid certificate (a reproducible negative
result), 1 on malformed input, a parser error included, or a precondition
failure.  Each command accepts only the flags it reads.  Identical
(config, seed) pairs produce byte-identical reports; per-trial randomness
is derived deterministically from the master seed and the trial index.

:func:`main` builds the subparser of the named command only; top-level
help, a missing command and an unknown one build all eight, so every help
text and error line reads as with the full parser.  No parser is kept
between calls: a CLI process builds one on every run, so a cached parser
would only make in-process calls look cheaper than the command is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import calculus, colimit, deloop, homotopy, k0 as k0mod
from .core import GROUP_AXIOM_PREFIXES, Certificate, check_norm_axioms, tensor_norm_int
from .errors import ConfigError, IdemkitError
from .instances import (
    COMPLEX,
    MAX_ELEMENT_ENTRIES,
    TOWER_KINDS,
    ComplexScalars,
    MatrixAlgebra,
    SampledFunctionAlgebra,
    Tower,
    conjugated_projector,
    over_complex,
    parse_instance,
    parse_tower,
    product_work,
    random_almost_idempotent,
)
from .report import SCHEMA_VERSION, render_report

#: largest --trials: a uhf depth-6 surjective transfer holds about 9 KB and
#: writes about 1 KB of report per trial, about 90 MB and 10 MB at the cap
MAX_TRIALS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: command, descriptors, seed and knobs.

    Round-trips through ``to_dict``/``from_dict``; unknown fields are
    rejected so a stale config file fails loudly, and so is a field the
    command does not read (see ``_COMMANDS``) that is set off its default,
    so that it cannot produce a vacuous report.
    """

    command: str
    instance: Optional[dict] = None
    tower: Optional[dict] = None
    seed: int = 0
    tolerance: float = 1e-9
    trials: int = 100
    eps: float = 0.01
    defect: float = 0.09
    variant: str = "corrected"
    direction: str = "sur"
    n: int = 2
    support: int = 1024
    path: str = "rotation"
    samples: int = 8
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown report format {self.format!r}")
        for name in ("instance", "tower"):
            if not isinstance(getattr(self, name), (dict, type(None))):
                raise ConfigError(f"the {name} descriptor must be a JSON object")
        # a JSON true or false would otherwise pass as the number 1 or 0
        # (field types are the annotation strings of a postponed evaluation)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "float") and isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a number, not a boolean: {value!r}")
        # numpy's generators take no negative seed
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.tolerance, (int, float)) and 0 < self.tolerance < math.inf):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        # h_bound(eps) is defined only below 1/4; one range serves both directions
        if not (isinstance(self.eps, (int, float)) and 0 < self.eps < 0.25):
            raise ConfigError(f"eps must satisfy 0 < eps < 1/4, got {self.eps!r}")
        if not (isinstance(self.trials, int) and 1 <= self.trials <= MAX_TRIALS):
            raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}, got {self.trials!r}")
        unread = [
            f.name
            for f in dataclasses.fields(self)
            if f.name not in _READ_FIELDS[self.command] and getattr(self, f.name) != f.default
        ]
        if unread:
            raise ConfigError(f"{self.command} does not read the config fields {unread}")

    def to_dict(self) -> dict:
        # shallow: dataclasses.asdict would recurse through a deep descriptor
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        extras = set(d) - known
        if extras:
            raise ConfigError(f"unknown config fields: {sorted(extras)}")
        return ExperimentConfig(**d)


def _report_skeleton(config: ExperimentConfig) -> dict:
    cfg = config.to_dict()
    cfg.pop("out")
    cfg.pop("format")
    return {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "config": cfg,
        "certificates": [],
    }


# ---------------------------------------------------------------------------
# command bodies


def _run_lift(config: ExperimentConfig, report: dict) -> None:
    inst = parse_instance({"kind": "complex"} if config.instance is None else config.instance)
    if isinstance(inst, MatrixAlgebra) and over_complex(inst):
        a = random_almost_idempotent(inst, config.defect, seed=config.seed)
    elif isinstance(inst, ComplexScalars):
        # the real scalar with squaring defect exactly `defect`
        a = complex(calculus.h_bound(config.defect))
    else:
        raise ConfigError("lift supports complex scalars or complex matrix instances")
    a_sq = inst.mul(a, a)
    defect = inst.distance(a_sq, a)
    lifted = calculus._lift(inst, a, a_sq, config.variant, config.tolerance, defect)[0]
    report["input"] = {
        "element": inst.serialize_element(a),
        "defect": float(defect),
        "variant": config.variant,
    }
    report["output_element"] = inst.serialize_element(lifted.e)
    report["certificates"].append(("lift", lifted.cert))


def _run_k0(config: ExperimentConfig, report: dict) -> None:
    desc = {"kind": "matrix", "n": 2} if config.instance is None else config.instance
    obj = parse_tower(desc) if desc.get("kind") in TOWER_KINDS else parse_instance(desc)
    pres = k0mod.k0_of_instance(obj)
    report["k0"] = pres.to_json()
    report["class_map_samples"] = _k0_samples(obj, config.seed, report)


def _k0_samples(obj, seed: int, report: dict) -> list:
    rng = np.random.default_rng(seed)
    samples = []
    if isinstance(obj, ComplexScalars):
        for v in (0, 1):
            samples.append({"element": v, "key": v})
    elif isinstance(obj, MatrixAlgebra) and over_complex(obj):
        for rank in range(min(obj.n, 3) + 1):
            e = conjugated_projector(obj, rank, rng, spread=0.4)
            cls = k0mod.classify(obj, calculus.certify_idempotent(obj, e, 1e-9))
            samples.append({"rank": rank, "key": cls.key})
            report["certificates"].append((f"class[rank={rank}]", cls.cert))
    elif isinstance(obj, SampledFunctionAlgebra) and over_complex(obj):
        for trial in range(min(obj.size, 3)):
            bits = rng.integers(0, 2, obj.size)
            e = bits.astype(complex)
            cls = k0mod.classify(obj, calculus.certify_idempotent(obj, e, 1e-9))
            samples.append({"trial": trial, "key": list(cls.key)})
            report["certificates"].append((f"class[{trial}]", cls.cert))
    elif isinstance(obj, Tower):
        for level in range(1, min(3, obj.depth) + 1):
            inst = obj.levels[level]
            e = conjugated_projector(inst, 1, rng, spread=0.4)
            key = colimit.level_class_key(obj, level, e)
            samples.append({"level": level, "rank": 1, "key": str(key)})
    return samples


def _run_transfer(config: ExperimentConfig, report: dict) -> None:
    tower = parse_tower({"kind": "uhf", "depth": 4} if config.tower is None else config.tower)
    if config.direction == "sur":
        cmp_report = colimit.k0_colimit_compare(tower, config.trials, config.seed, config.eps)
        report["transfer"] = cmp_report.to_json()
        report["certificates"].extend(cmp_report.certificates)
    elif config.direction == "inj":
        records = []
        for idx in range(config.trials):
            rng = np.random.default_rng([config.seed, idx])
            level = int(rng.integers(0, tower.depth + 1))
            inst = tower.levels[level]
            # each trial idempotent is certified once, for both calls
            if isinstance(inst, MatrixAlgebra):
                rank = int(rng.integers(0, inst.n + 1))
                e, f = (
                    calculus.certify_idempotent(
                        inst, conjugated_projector(inst, rank, rng, spread=0.4), config.tolerance
                    )
                    for _ in range(2)
                )
                res = k0mod.are_equivalent(inst, e, f, config.tolerance)
                if res.verdict != "yes":
                    raise IdemkitError("equal-rank trial pair unexpectedly inequivalent")
                u = res.unit.u
            else:
                bits = rng.integers(0, 2, inst.size)
                e = f = calculus.certify_idempotent(inst, bits.astype(complex), config.tolerance)
                u = inst.one()
            transfer = colimit.transfer_injective(
                tower,
                level,
                e,
                f,
                colimit.LimitElement(level, u, 0.0),
                eps=config.eps,
                tol=config.tolerance,
            )
            records.append({"trial": idx, "level_in": level, "level_out": transfer.level})
            report["certificates"].append((f"transfer[{idx}]", transfer.cert))
        report["transfer"] = {"tower": tower.describe(), "records": records}
    else:
        raise ConfigError(f"unknown transfer direction {config.direction!r}")


#: largest path-trivialize size: the path caches one n x n complex sample
#: per segment end (13 on the rotation path), 16 MB each at n = 1024
MAX_PATH_N = 1024

#: largest norm-audit sample count: the audit writes 2 * (samples + 2)**2
#: triangle and submultiplicativity entries, 8,712 at 64
MAX_AUDIT_SAMPLES = 64


def _run_path_trivialize(config: ExperimentConfig, report: dict) -> None:
    if config.n > MAX_PATH_N:
        raise ConfigError(f"path-trivialize --n must be at most {MAX_PATH_N}, got {config.n}")
    inst = MatrixAlgebra(COMPLEX, config.n)
    if config.path == "rotation":
        path = homotopy.rotation_path(inst)
    elif config.path == "random":
        path = homotopy.conjugation_path(inst, rank=max(1, config.n // 2), seed=config.seed)
    else:
        raise ConfigError(f"unknown path kind {config.path!r}")
    unit = homotopy.path_trivialize(path, tol=config.tolerance)
    report["path"] = {
        "kind": config.path,
        "n": config.n,
        "note": (
            "certifies class constancy along the path by composing proximity "
            "conjugations; splitting the path ring itself into restriction "
            "pieces has no finite model and is out of scope"
        ),
    }
    report["certificates"].append(("trivialization", unit.cert))


def _run_swindle(config: ExperimentConfig, report: dict) -> None:
    swindle = deloop.swindle_conjugator(config.support)
    report["swindle"] = swindle.to_json()
    report["certificates"].append(("swindle", swindle.cert))


def _run_collapse(config: ExperimentConfig, report: dict) -> None:
    inner = COMPLEX if config.instance is None else parse_instance(config.instance)
    collapse = deloop.finite_collapse_certificate(config.n, inner)
    report["collapse"] = {
        "n": collapse.n,
        "pairs": collapse.n,
        "note": (
            "the two-sided span of the corner covers the whole truncated ring, "
            "so the quotient has trivial idempotent classes at this size"
        ),
    }
    report["certificates"].append(("collapse", collapse.cert))


def _run_norm_audit(config: ExperimentConfig, report: dict) -> None:
    if not 0 <= config.samples <= MAX_AUDIT_SAMPLES:
        raise ConfigError(
            f"norm-audit --samples must be between 0 and {MAX_AUDIT_SAMPLES}, got {config.samples}"
        )
    inst = parse_instance({"kind": "complex"} if config.instance is None else config.instance)
    # one row, the products of one sample with all samples + 2, is one call
    if (config.samples + 2) * product_work(inst) > MAX_ELEMENT_ENTRIES:
        raise ConfigError(
            f"norm-audit --samples {config.samples} would form or walk over "
            f"{MAX_ELEMENT_ENTRIES} entries in one row of products"
        )
    rng = np.random.default_rng(config.seed)
    samples = [inst.one(), inst.zero()] + [
        inst.random_element(rng) for _ in range(config.samples)
    ]
    cert = check_norm_axioms(inst, samples)
    report["norm_audit"] = {
        "instance": inst.describe(),
        "samples": len(samples),
        "group_axioms_valid": cert.valid_for(GROUP_AXIOM_PREFIXES),
    }
    report["certificates"].append(("norm-axioms", cert))


def _run_tensor_audit(config: ExperimentConfig, report: dict) -> None:
    scales = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    cert = Certificate()
    for m in range(-8, 9):
        for r in scales:
            for s in scales:
                got = tensor_norm_int(m, r, s, 8)
                cert.add(f"tensor[{m},{r},{s}]", abs(got - r * s * abs(m)), 0)
    report["tensor_audit"] = {"m_range": 8, "scales": [str(s) for s in scales], "bound": 8}
    report["certificates"].append(("tensor-identity", cert))


#: each command's help, the flags it reads besides the common ones, and its body
_COMMANDS = {
    "lift": (
        "polish an almost-idempotent", ("--instance", "--tol", "--defect", "--variant"), _run_lift
    ),
    "k0": ("K0 presentation of an instance or a tower", ("--instance",), _run_k0),
    "transfer": (
        "tower transfer experiments",
        ("--tower", "--tol", "--trials", "--eps", "--direction"),
        _run_transfer,
    ),
    "path-trivialize": (
        "trivialize an idempotent path", ("--tol", "--n", "--path"), _run_path_trivialize
    ),
    "swindle-check": ("verify the interleaving identity", ("--support",), _run_swindle),
    "collapse": ("finite corner-span certificate", ("--instance", "--n"), _run_collapse),
    "norm-audit": ("norm-axiom audit on an instance", ("--instance", "--samples"), _run_norm_audit),
    "tensor-audit": ("projective tensor norm sweep", (), _run_tensor_audit),
}


def build_report(config: ExperimentConfig) -> dict:
    """Run the experiment and return the full report dictionary.

    Its ``"certificates"`` are ``(name, Certificate)`` pairs until
    :func:`~idemkit.report.render_report` serializes them.
    """
    report = _report_skeleton(config)
    _COMMANDS[config.command][2](config, report)
    report["summary"] = {
        "all_certificates_valid": all(cert.valid for _, cert in report["certificates"]),
        "certificates": len(report["certificates"]),
    }
    return report


def run(config: ExperimentConfig) -> int:
    """Execute a config, write its report, and map the outcome to an exit code."""
    report = build_report(config)
    payload = render_report(report, config.format)
    if config.out:
        Path(config.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0 if report["summary"]["all_certificates_valid"] else 2


# ---------------------------------------------------------------------------
# argument parsing


def _read_descriptor(name: str, text: str) -> dict:
    """A JSON object, inline or in a file; ``null`` or any other JSON value
    is rejected rather than read as the omitted flag."""
    try:
        try:
            desc = json.loads(text)
        except json.JSONDecodeError:
            desc = json.loads(Path(text).read_bytes())
    except (OSError, ValueError):  # undecodable bytes, a NUL in the path, a 4301-digit int
        raise ConfigError(f"not valid JSON and not a readable file: {text!r}") from None
    except RecursionError:
        raise ConfigError(f"the {name} descriptor nests too deeply for the JSON parser") from None
    if not isinstance(desc, dict):
        raise ConfigError(f"the {name} descriptor must be a JSON object, got {text!r}")
    return desc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`ConfigError`, so a bad
    flag or value exits 1 with one line, like any other malformed input."""

    def error(self, message):
        raise ConfigError(message)


#: every flag and how it parses
_FLAGS = {
    "--seed": {"type": int},
    "--out": {"help": "report file (stdout when omitted)"},
    "--format": {"choices": ("json", "csv")},
    "--instance": {"help": "instance descriptor (inline JSON or file); k0 takes a tower too"},
    "--tower": {"help": "tower descriptor (inline JSON or file)"},
    "--tol": {"type": float, "dest": "tolerance"},
    "--trials": {"type": int},
    "--eps": {"type": float},
    "--defect": {"type": float},
    "--variant": {"choices": ("corrected", "printed")},
    "--direction": {"choices": ("sur", "inj")},
    "--n": {"type": int},
    "--path": {"choices": ("rotation", "random")},
    "--support": {"type": int},
    "--samples": {"type": int},
}

#: the flags every command reads
_COMMON_FLAGS = ("--seed", "--out", "--format")

#: the config fields each command reads: the common flags' and its own
_READ_FIELDS = {
    command: {"command"}
    | {_FLAGS[flag].get("dest", flag[2:]) for flag in (*_COMMON_FLAGS, *flags)}
    for command, (_, flags, _) in _COMMANDS.items()
}


def _build_parser(commands=_COMMANDS) -> argparse.ArgumentParser:
    """The argument parser with a subparser for each of ``commands``."""
    parser = _Parser(
        prog="idemkit",
        description="certified idempotent calculus experiments with JSON/CSV reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        help_text, flags, _ = _COMMANDS[command]
        p = sub.add_parser(command, help=help_text)
        for flag in (*_COMMON_FLAGS, *flags):
            p.add_argument(flag, **_FLAGS[flag])
        if command == "collapse":
            p.set_defaults(n=16)  # path-trivialize keeps the config's n = 2
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Config from parsed flags; an omitted flag takes the field's default."""
    d = {k: v for k, v in vars(args).items() if v is not None}
    for key in ("instance", "tower"):
        if key in d:
            d[key] = _read_descriptor(key, d[key])
    return ExperimentConfig.from_dict(d)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command's flags, help and errors need only its own subparser
    commands = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        config = config_from_args(_build_parser(commands).parse_args(argv))
        return run(config)
    except ConfigError as exc:
        print(f"idemkit: config error: {exc}", file=sys.stderr)
        return 1
    except IdemkitError as exc:
        print(f"idemkit: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"idemkit: cannot write the report: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
