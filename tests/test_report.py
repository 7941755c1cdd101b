"""The JSON writer gives the bytes of ``json.dumps(..., sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from idemkit import cli
from idemkit.report import _document, json_text, render_json
from test_bench_hooks import workloads


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("seed", [7, 11])
def test_every_readme_report_renders_as_json_dumps(seed):
    seen = set()
    for args, code in workloads.readme_commands(seed):
        # exit-1 commands write no report; the csv command's report is the
        # uhf transfer's, and the repeats are the same reports again
        if code == 1 or "--format" in args or tuple(args) in seen:
            continue
        seen.add(tuple(args))
        report = cli.build_report(cli.config_from_args(cli._build_parser().parse_args(args)))
        doc = _document(report)
        assert json_text(doc) == _dumps(doc)
        assert render_json(report) == (_dumps(doc) + "\n").encode()
    assert len(seen) == 15


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text()
)


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=5)
        | st.dictionaries(st.integers(-5, 5), children, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
        | st.dictionaries(st.none(), children, max_size=1)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [{1: 2, "a": 3}, [object()], {"x": {1j: 0}}, {(1, 2): 0}],
    ids=["mixed-keys", "object", "complex-key", "tuple-key"],
)
def test_json_text_rejects_what_json_dumps_rejects(doc):
    with pytest.raises(TypeError) as expected:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(expected.value)
