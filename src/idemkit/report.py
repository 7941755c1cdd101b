"""Deterministic report rendering (JSON and delimited CSV).

A report is a dictionary of JSON values except for ``"certificates"``, a
list of ``(name, Certificate)`` pairs.  Every certificate fact, an entry's
value or a validity verdict, appears only in that list; the one exception
is ``"summary"``.  The other blocks hold each command's inputs and its
non-certificate results, so the CSV, which renders only the list, leaves
out no certificate.  The renderers here are the only code that serializes
those certificates.

The JSON is ``json.dumps`` with sorted keys and no whitespace, one line
ending in a newline: equal reports give equal bytes, and
``python -m json.tool`` indents it for reading.
"""

from __future__ import annotations

import csv
import io
import json

SCHEMA_VERSION = 2


def render_json(report: dict) -> bytes:
    """The report as sorted, compact JSON on one line."""
    return (json.dumps(_document(report), sort_keys=True, separators=(",", ":")) + "\n").encode()


def _document(report: dict) -> dict:
    """The report's JSON values; each ``(name, Certificate)`` pair becomes
    ``{"name", "entries", "valid"}``."""
    certificates = [
        {"name": name, "entries": cert.to_json(), "valid": cert.valid}
        for name, cert in report["certificates"]
    ]
    return {**report, "certificates": certificates}


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
