"""Deterministic report rendering (JSON and delimited CSV).

A report is a dictionary of JSON values except for ``"certificates"``, a
list of ``(name, Certificate)`` pairs.  Every certificate fact, an entry's
value or a validity verdict, appears only in that list; the one exception
is ``"summary"``.  The other blocks hold each command's inputs and its
non-certificate results, so the CSV, which renders only the list, leaves
out no certificate.  The renderers here are the only code that serializes
those certificates.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = 2


def render_json(report: dict) -> bytes:
    """The report as sorted, indented JSON (:func:`json_text`)."""
    return (json_text(_document(report)) + "\n").encode()


def _document(report: dict) -> dict:
    """The report's JSON values; each ``(name, Certificate)`` pair becomes
    ``{"name", "entries", "valid"}``."""
    certificates = [
        {"name": name, "entries": cert.to_json(), "valid": cert.valid}
        for name, cert in report["certificates"]
    ]
    return {**report, "certificates": certificates}


def json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, the same text.

    With ``indent`` set, ``json.dumps`` takes its pure-Python encoder, a
    chain of generators; this writer appends to one list instead.  It
    follows that encoder's rules: keys sorted as ``sorted(d.items())``
    sorts them, ``float`` and ``int`` keys written as their text, ASCII
    string escapes, ``float.__repr__`` with ``NaN`` and ``Infinity``,
    ``[]`` and ``{}`` for empty containers, and ``TypeError`` for any other
    type.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append the text of ``value``, whose lines start with ``newline``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("[" + inner)
        for i, item in enumerate(value):
            if i:
                out.append(separator)
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("{" + inner)
        for i, (key, item) in enumerate(sorted(value.items())):
            if i:
                out.append(separator)
            out.append(encode_basestring_ascii(_key_text(key)) + ": ")
            _write(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def render_csv(report: dict) -> bytes:
    """One row per entry of each ``(name, Certificate)`` pair in the report."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["certificate", "entry", "lhs", "rhs", "advisory", "holds"])
    for name, cert in report["certificates"]:
        for entry in cert.entries:
            d = entry.to_json()
            writer.writerow([name, entry.name, d["lhs"], d["rhs"], entry.advisory, entry.holds])
    return buf.getvalue().encode()


def render_report(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")
