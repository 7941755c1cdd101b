"""Span recorder that wraps idemkit's layer boundaries from outside the package.

``Tracer.install()`` replaces the public functions of each layer, the
instance-class methods, ``Tower.push``, ``Certificate.add`` and
``EndOperator.compose`` with timing wrappers, rebinding each function in
every ``idemkit`` module namespace that holds it, so calls made inside the
library are recorded too.  ``uninstall()`` restores the originals.  Nothing
under ``src/idemkit`` is edited; the untraced benchmark phases run with no
wrapper installed.

Each call becomes one span record ``[name, start_ns, end_ns, parent, op,
phase, note, error]`` kept in memory; ``summarize`` turns the records into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

NAME, START, END, PARENT, OP, PHASE, NOTE, ERROR = range(8)

#: instance methods and the span each is recorded under
INSTANCE_METHODS = {
    "mul": "instances.mul",
    "norm": "instances.norm",
    "add": "instances.linear",
    "sub": "instances.linear",
    "neg": "instances.linear",
    "int_scale": "instances.linear",
    "one": "instances.linear",
    "zero": "instances.linear",
}

#: module-level functions: (module, attribute, span name)
FUNCTIONS = [
    ("idemkit.instances", "random_unit", "instances.gen"),
    ("idemkit.instances", "conjugated_projector", "instances.gen"),
    ("idemkit.instances", "random_almost_idempotent", "instances.gen"),
    ("idemkit.core", "check_norm_axioms", "core.check_norm_axioms"),
    ("idemkit.calculus", "neumann_inverse", "calculus.neumann_inverse"),
    ("idemkit.calculus", "lift_idempotent", "calculus.lift_idempotent"),
    ("idemkit.calculus", "conjugating_unit", "calculus.conjugating_unit"),
    ("idemkit.calculus", "certify_idempotent", "calculus.certify_idempotent"),
    ("idemkit.k0", "classify", "k0.classify"),
    ("idemkit.k0", "are_equivalent", "k0.are_equivalent"),
    ("idemkit.colimit", "transfer_surjective", "colimit.transfer_surjective"),
    ("idemkit.colimit", "transfer_injective", "colimit.transfer_injective"),
    ("idemkit.colimit", "level_class_key", "colimit.level_class_key"),
    ("idemkit.homotopy", "path_trivialize", "homotopy.path_trivialize"),
    ("idemkit.homotopy", "conjugation_path", None),
    ("idemkit.homotopy", "rotation_path", None),
    ("idemkit.deloop", "finite_collapse_certificate", "deloop.finite_collapse_certificate"),
    ("idemkit.deloop", "swindle_conjugator", "deloop.swindle_conjugator"),
    ("idemkit.report", "render_report", "report.render"),
    ("idemkit.cli", "main", "cli.main"),
]

#: span groups reported with calls, self time and errors
SPAN_GROUPS = [
    "instances.mul",
    "instances.norm",
    "instances.linear",
    "instances.push",
    "instances.gen",
    "core.cert_add",
    "core.check_norm_axioms",
    "calculus.neumann_inverse",
    "calculus.lift_idempotent",
    "calculus.conjugating_unit",
    "calculus.certify_idempotent",
    "k0.classify",
    "k0.are_equivalent",
    "colimit.transfer_surjective",
    "colimit.transfer_injective",
    "colimit.level_class_key",
    "homotopy.path_trivialize",
    "homotopy.sample",
    "deloop.finite_collapse_certificate",
    "deloop.compose",
    "deloop.swindle_conjugator",
    "report.render",
    "cli.main",
]


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return bound.arguments


def _note_surjective(fn, args, kwargs, result):
    e = _bound_args(fn, args, kwargs)["e"]
    return result.level - e.level + 1


def _note_injective(fn, args, kwargs, result):
    a = _bound_args(fn, args, kwargs)
    return result.level - max(a["level"], a["u"].level) + 1


NOTES = {
    "k0.are_equivalent": lambda fn, args, kwargs, result: result.verdict,
    "colimit.transfer_surjective": _note_surjective,
    "colimit.transfer_injective": _note_injective,
    "homotopy.path_trivialize": lambda fn, args, kwargs, result: int(
        result.cert.entry("segments").lhs
    ),
    "report.render": lambda fn, args, kwargs, result: len(result),
}


class Tracer:
    """In-memory span recorder; ``op`` and ``phase`` tag each new span.

    ``only`` restricts the wrappers to the named spans (a cheap counting
    pass); by default every span is recorded.
    """

    def __init__(self, only: frozenset | None = None):
        self.only = only
        self.records: list[list] = []
        self.op = -1
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        records, stack, tracer = self.records, self._stack, self
        note = NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op, tracer.phase, None, False]
            stack.append(len(records))
            records.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(fn, args, kwargs, result)
            return result

        return traced

    def _wrap_path_factory(self, fn):
        """Wrap a path constructor so each returned path's sampler is a span."""
        tracer = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            path = fn(*args, **kwargs)
            path.sampler = tracer.wrap("homotopy.sample", path.sampler)
            return path

        return factory

    def _patch(self, owner, attr: str, new, span: str) -> None:
        if self.only is None or span in self.only:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def install(self) -> None:
        """Install the wrappers (those named in ``only``, if set); call
        ``uninstall`` to restore the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from idemkit.core import AlgebraInstance, Certificate
        from idemkit.deloop import EndOperator
        from idemkit.instances import Tower

        classes, todo = [], [AlgebraInstance]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for meth, span in INSTANCE_METHODS.items():
                fn = cls.__dict__.get(meth)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._patch(cls, meth, self.wrap(span, fn), span)
        for owner, attr, span in (
            (Tower, "push", "instances.push"),
            (Certificate, "add", "core.cert_add"),
            (EndOperator, "compose", "deloop.compose"),
        ):
            self._patch(owner, attr, self.wrap(span, getattr(owner, attr)), span)

        modules = [m for k, m in sorted(sys.modules.items()) if k == "idemkit" or k.startswith("idemkit.")]
        for modname, attr, span in FUNCTIONS:
            if modname not in sys.modules:
                continue  # a layer this process never imported
            original = getattr(sys.modules[modname], attr)
            if span is None:
                span, new = "homotopy.sample", self._wrap_path_factory(original)
            else:
                new = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, new, span)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def export(self) -> list[list]:
        """Records with self time in place of the start stamp (JSON-friendly)."""
        return with_self_time(self.records)


def with_self_time(records: list[list]) -> list[list]:
    """Copy records as ``[name, dur_ns, self_ns, parent, op, phase, note, error]``.

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap their siblings in this single-threaded
    program.
    """
    child = [0] * len(records)
    for rec in records:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = []
    for i, rec in enumerate(records):
        dur = rec[END] - rec[START]
        out.append([rec[NAME], dur, dur - child[i], rec[PARENT], rec[OP], rec[PHASE], rec[NOTE], rec[ERROR]])
    return out


def summarize(records: list[list], ops: int) -> tuple[dict, dict]:
    """Per-layer metrics from exported records of the traced pass.

    Only spans tagged with phase ``"ops"`` count, except the seeded
    generators, whose self time is reported wherever they ran (set-up, or
    inside a CLI command).  Returns ``(metrics, mul_by_op)``, where
    ``mul_by_op`` maps an op index to the ``mul`` calls made inside it.
    """
    n = len(records)
    mul_sub = [0] * n
    for i in range(n - 1, -1, -1):
        rec = records[i]
        if rec[NAME] == "instances.mul":
            mul_sub[i] += 1
        if rec[PARENT] >= 0:
            mul_sub[rec[PARENT]] += mul_sub[i]

    calls = dict.fromkeys(SPAN_GROUPS, 0)
    self_ns = dict.fromkeys(SPAN_GROUPS, 0)
    errors = dict.fromkeys(SPAN_GROUPS, 0)
    mul_in = {"calculus.neumann_inverse": 0, "calculus.lift_idempotent": 0}
    mul_by_op: dict[int, int] = {}
    yes, proximity = 0, 0
    scanned, transfers, segments, report_bytes = 0, 0, 0, 0
    for i, (name, _dur, self_t, parent, op, phase, note, error) in enumerate(records):
        if phase != "ops" and name != "instances.gen":
            continue
        calls[name] += 1
        self_ns[name] += self_t
        errors[name] += bool(error)
        if phase != "ops":
            continue
        if name == "instances.mul":
            mul_by_op[op] = mul_by_op.get(op, 0) + 1
        elif name in mul_in:
            mul_in[name] += mul_sub[i]
        elif name == "calculus.conjugating_unit" and parent >= 0:
            if records[parent][NAME] == "k0.are_equivalent":
                proximity += 1
        elif name == "k0.are_equivalent":
            yes += note == "yes"
        elif name in ("colimit.transfer_surjective", "colimit.transfer_injective"):
            if note is not None:
                scanned += note
                transfers += 1
        elif name == "homotopy.path_trivialize":
            segments += note or 0
        elif name == "report.render":
            report_bytes += note or 0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for g in SPAN_GROUPS:
        metrics[f"{g}.calls"] = (calls[g], "count")
        metrics[f"{g}.self_s"] = (self_ns[g] / 1e9, "s")
        metrics[f"{g}.errors"] = (errors[g], "count")
    for g, muls in mul_in.items():
        metrics[f"{g}.mul_per_call"] = (ratio(muls, calls[g]), "count")
    metrics["core.cert_entries_per_op"] = (ratio(calls["core.cert_add"], ops), "count")
    metrics["k0.basis_route_frac"] = (ratio(yes - proximity, yes), "ratio")
    metrics["colimit.levels_scanned_per_transfer"] = (ratio(scanned, transfers), "count")
    metrics["colimit.scan_hit_frac"] = (ratio(transfers, scanned), "ratio")
    metrics["homotopy.segments_per_path"] = (
        ratio(segments, calls["homotopy.path_trivialize"]),
        "count",
    )
    metrics["report.bytes_per_op"] = (ratio(report_bytes, ops), "bytes")
    metrics["mul_per_op"] = (ratio(calls["instances.mul"], ops), "count")
    return metrics, mul_by_op
