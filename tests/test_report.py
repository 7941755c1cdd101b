"""A JSON report is one line that parses back to its document, and every
certificate in it checks again from the parsed report alone."""

import json

import pytest

from idemkit import cli
from idemkit.core import Certificate
from idemkit.report import _document, render_json
from test_bench_hooks import workloads


@pytest.mark.parametrize("seed", [7, 11])
def test_every_readme_report_parses_back_and_checks_again(seed):
    seen = set()
    for args, code in workloads.readme_commands(seed):
        # exit-1 commands write no report; the csv command's report is the
        # uhf transfer's, and the repeats are the same reports again
        if code == 1 or "--format" in args or tuple(args) in seen:
            continue
        seen.add(tuple(args))
        report = cli.build_report(cli.config_from_args(cli._build_parser().parse_args(args)))
        text = render_json(report).decode()
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        assert doc == _document(report)
        valid = [c["valid"] for c in doc["certificates"]]
        for c in doc["certificates"]:
            assert Certificate.from_json(c["entries"]).valid == c["valid"]
        assert doc["summary"]["all_certificates_valid"] == all(valid)
        assert (code == 0) == all(valid)
    assert len(seen) == 15
