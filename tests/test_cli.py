"""CLI configs, exit codes, report formats and reproducibility."""

import csv
import dataclasses
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idemkit
from idemkit import cli
from idemkit.cli import ExperimentConfig, _build_parser, build_report, config_from_args, main, run
from idemkit.core import Certificate
from idemkit.errors import ConfigError
from idemkit.report import SCHEMA_VERSION, render_report
from test_bench_hooks import workloads


def test_config_round_trips_through_serialization():
    config = ExperimentConfig(command="lift", instance={"kind": "complex"}, seed=3)
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"command": "lift", "wat": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig(command="mystery")


@pytest.mark.parametrize(
    "d, unread",
    [
        ({"command": "k0", "tower": {"kind": "uhf", "depth": 3}}, "['tower']"),
        ({"command": "lift", "trials": 5, "support": 3}, "['trials', 'support']"),
    ],
)
def test_config_rejects_a_field_the_command_does_not_read(d, unread):
    # the k0 config would report the default 2 x 2 matrices' Z, not the tower's Z[1/2]
    message = f"{d['command']} does not read the config fields {unread}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(d)
    with pytest.raises(ConfigError):
        ExperimentConfig(**d)


def test_config_accepts_an_unread_field_at_its_default():
    config = ExperimentConfig.from_dict({"command": "lift", "trials": 100, "support": 1024})
    assert config == ExperimentConfig(command="lift")


def test_k0_on_matrix_reports_z(tmp_path, capsys):
    out = tmp_path / "k0.json"
    code = main(["k0", "--instance", '{"kind":"matrix","n":2}', "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["k0"]["group"] == "Z"
    assert report["schema"] == 3


def test_k0_on_uhf_tower_reports_dyadic(tmp_path):
    out = tmp_path / "k0t.json"
    assert main(["k0", "--instance", '{"kind":"uhf","depth":3}', "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k0"]["group"] == "Z[1/2]"


def test_malformed_json_exits_one(capsys):
    assert main(["lift", "--instance", "{not json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_printed_variant_on_scalar_exits_two(tmp_path):
    out = tmp_path / "printed.json"
    code = main(
        [
            "lift",
            "--instance",
            '{"kind":"complex"}',
            "--defect",
            "0.09",
            "--variant",
            "printed",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    report = json.loads(out.read_text())
    entries = {e["name"]: e for e in report["certificates"][0]["entries"]}
    assert entries["defect"]["lhs"] == pytest.approx(0.16, abs=1e-9)
    assert not report["summary"]["all_certificates_valid"]


def test_lift_forms_the_input_square_once(monkeypatch, tmp_path):
    products = []
    mul = idemkit.MatrixAlgebra.mul
    monkeypatch.setattr(idemkit.MatrixAlgebra, "mul", lambda self, x, y: products.append(1) or mul(self, x, y))
    out = tmp_path / "lift.json"
    args = ["lift", "--instance", '{"kind":"matrix","n":4}', "--defect", "0.1", "--out", str(out)]
    assert main(args) == 0
    report = json.loads(out.read_text())
    inst = idemkit.MatrixAlgebra(idemkit.COMPLEX, 4)
    a = idemkit.random_almost_idempotent(inst, 0.1, seed=0)
    assert report["input"]["defect"] == float(inst.distance(mul(inst, a, a), a))
    in_cli = len(products)
    idemkit.lift_idempotent(inst, a, "corrected", 1e-9)
    assert in_cli == len(products) - in_cli
    with pytest.raises(idemkit.PreconditionError, match="unknown lift variant"):
        build_report(ExperimentConfig(command="lift", variant="mystery"))


def test_lift_writes_each_complex_entry_as_a_float_pair():
    # a scalar is one [re, im] pair, and a matrix lists its rows of pairs
    assert json.dumps(cli._complex_pairs(complex(-0.0, 0.25))) == "[-0.0, 0.25]"
    m = np.array([[0, 1 - 0.5j], [-3j, 2]], dtype=complex)
    pairs = cli._complex_pairs(m)
    assert pairs == [[[0.0, 0.0], [1.0, -0.5]], [[0.0, -3.0], [2.0, 0.0]]]
    assert all(type(v) is float for row in pairs for pair in row for v in pair)
    scalar = build_report(ExperimentConfig(command="lift"))
    assert scalar["input"]["element"] == [idemkit.calculus.h_bound(0.09), 0.0]
    assert np.shape(scalar["output_element"]) == (2,)
    matrix = build_report(ExperimentConfig(command="lift", instance={"kind": "matrix", "n": 3}))
    assert np.shape(matrix["input"]["element"]) == np.shape(matrix["output_element"]) == (3, 3, 2)


def test_printed_matrix_lift_at_a_tiny_tolerance_exits_zero(tmp_path):
    # the input's defect is 0.045, where the printed series reaches 1e-300
    # before its coefficients pass the float range
    out = tmp_path / "lift.json"
    args = ["lift", "--instance", '{"kind":"matrix","n":4}', "--variant", "printed", "--tol", "1e-300"]
    assert main([*args, "--out", str(out)]) == 0
    [cert] = json.loads(out.read_text())["certificates"]
    assert 0 < cert["entries"][0]["lhs"] <= 1e-300


def test_corrected_variant_on_scalar_exits_zero(tmp_path):
    out = tmp_path / "ok.json"
    args = [
        "lift",
        "--instance",
        '{"kind":"complex"}',
        "--defect",
        "0.09",
        "--tol",
        "1e-13",
        "--out",
        str(out),
    ]
    assert main(args) == 0


@pytest.mark.parametrize("flags", [["--tol", "1e-300"], ["--defect", "0.249"]])
def test_corrected_lift_reaches_tiny_tolerances_and_defects_near_a_quarter(flags, tmp_path):
    out = tmp_path / "lift.json"
    assert main(["lift", *flags, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    [cert] = report["certificates"]
    assert [e["name"] for e in cert["entries"]] == [
        "tail-bound", "defect", "commute", "distance-h", "distance-derived",
    ]
    assert cert["valid"] and report["summary"]["all_certificates_valid"]
    assert cert["entries"][0]["lhs"] > 0


def test_reports_are_byte_identical_for_equal_config_and_seed(tmp_path):
    config = ExperimentConfig(
        command="transfer",
        tower={"kind": "uhf", "depth": 3},
        trials=5,
        seed=11,
        out=str(tmp_path / "a.json"),
    )
    run(config)
    run(ExperimentConfig.from_dict({**config.to_dict(), "out": str(tmp_path / "b.json")}))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_instance_descriptor_from_file(tmp_path):
    desc = tmp_path / "inst.json"
    desc.write_text('{"kind":"matrix","n":2}')
    out = tmp_path / "k0.json"
    assert main(["k0", "--instance", str(desc), "--out", str(out)]) == 0


def test_csv_format_lists_entries(tmp_path):
    out = tmp_path / "swindle.csv"
    assert main(["swindle-check", "--support", "64", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "certificate,entry,lhs,rhs,advisory,holds"
    assert any("collisions" in line for line in lines[1:])


def test_transfer_injective_direction(tmp_path):
    out = tmp_path / "inj.json"
    args = [
        "transfer",
        "--tower",
        '{"kind":"uhf","depth":3}',
        "--direction",
        "inj",
        "--trials",
        "3",
        "--seed",
        "5",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    report = json.loads(out.read_text())
    assert len(report["transfer"]["records"]) == 3


def test_norm_audit_flags_scaled_integers_ring(tmp_path):
    out = tmp_path / "audit.json"
    code = main(
        ["norm-audit", "--instance", '{"kind":"scaled-integers","r":"2"}', "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["norm_audit"]["group_axioms_valid"]


def test_tensor_audit_passes(tmp_path):
    out = tmp_path / "tensor.json"
    assert main(["tensor-audit", "--out", str(out)]) == 0


def test_collapse_and_path_commands(tmp_path):
    assert main(["collapse", "--n", "8", "--out", str(tmp_path / "c.json")]) == 0
    out = tmp_path / "p.json"
    assert main(["path-trivialize", "--n", "2", "--path", "rotation", "--tol", "1e-8", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    [cert] = report["certificates"]
    segments = {e["name"]: e for e in cert["entries"]}["segments"]
    assert cert["name"] == "trivialization" and segments["lhs"] >= 1


def test_build_report_contains_config_echo():
    report = build_report(ExperimentConfig(command="swindle-check", support=32))
    assert report["config"]["support"] == 32
    assert "out" not in report["config"]


@pytest.mark.parametrize(
    "args",
    [
        ["norm-audit", "--instance", '{"kind":"matrix","n":"abc"}'],
        ["norm-audit", "--instance", '{"kind":"matrix"}'],
        ["norm-audit", "--instance", '{"kind":"matrix","n":100000}'],
        ["k0", "--instance", "[1, 2]"],
        ["lift", "--variant", "printed", "--tol", "1e-300"],
        ["lift", "--tol", "0"],
        ["transfer", "--trials", "-1"],
    ],
)
def test_bad_input_exits_one_with_a_message(args, capsys):
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("idemkit: ")


_FIELDS = ("n", "r", "norm", "points", "mode", "truncation", "depth")
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.floats(-1, 3),
    st.sampled_from(["abc", "1/2", "1/0", "spectral", "col-l1", "l1", "linf"]),
    st.lists(st.integers(0, 3), max_size=3),
)
_KINDS = st.sampled_from(
    ["complex", "scaled-integers", "matrix", "functions", "sequence", "uhf", "cantor", "mystery"]
)
_DESCRIPTORS = st.recursive(
    st.fixed_dictionaries({"kind": _KINDS}, optional={f: _VALUES for f in _FIELDS}),
    lambda inner: st.fixed_dictionaries(
        {"kind": _KINDS}, optional={**{f: _VALUES for f in _FIELDS}, "inner": inner, "params": inner}
    ),
    max_leaves=3,
)
_SIZES = st.integers(1, 3)
_WELL_FORMED = st.recursive(
    st.one_of(
        st.just({"kind": "complex"}),
        st.builds(lambda r: {"kind": "scaled-integers", "r": r}, st.sampled_from([1, 2, "1/2"])),
    ),
    lambda inner: st.one_of(
        st.builds(lambda n, i: {"kind": "matrix", "n": n, "inner": i}, _SIZES, inner),
        st.builds(lambda p, i: {"kind": "functions", "points": p, "inner": i}, _SIZES, inner),
        st.builds(
            lambda m, t, i: {"kind": "sequence", "mode": m, "truncation": t, "inner": i},
            st.sampled_from(["l1", "linf"]),
            _SIZES,
            inner,
        ),
    ),
    max_leaves=3,
)
_COMMANDS = st.sampled_from(
    [
        ["norm-audit", "--samples", "1", "--instance"],
        ["k0", "--instance"],
        ["lift", "--instance"],
        ["collapse", "--n", "2", "--instance"],
        ["transfer", "--trials", "1", "--tower"],
    ]
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=_COMMANDS, desc=st.one_of(_DESCRIPTORS, _WELL_FORMED))
def test_descriptors_through_main_end_in_an_exit_code(command, desc):
    """Small descriptors of every shape: an exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.out")
        assert main([*command, json.dumps(desc), "--out", out]) in (0, 1, 2)


def test_report_certificates_stay_objects_until_rendered():
    config = ExperimentConfig(
        command="norm-audit", instance={"kind": "scaled-integers", "r": "1/2"}, samples=2
    )
    report = build_report(config)
    [(name, cert)] = report["certificates"]
    assert name == "norm-axioms" and isinstance(cert, Certificate)
    assert report["summary"]["all_certificates_valid"] is cert.valid is False
    doc = json.loads(render_report(report, "json"))
    assert doc["certificates"] == [{"name": name, "entries": cert.to_json(), "valid": False}]
    rows = list(csv.reader(render_report(report, "csv").decode().splitlines()))[1:]
    assert len(rows) == len(cert.entries)
    for row, entry in zip(rows, cert.entries):
        d = entry.to_json()
        assert row == [name, entry.name, str(d["lhs"]), str(d["rhs"]), "False", str(entry.holds)]


@pytest.mark.parametrize(
    "command, n, extra",
    [
        pytest.param("collapse", "1000000000", [], id="collapse"),
        pytest.param("path-trivialize", "1000000000", [], id="path-trivialize"),
        pytest.param("path-trivialize", "1025", [], id="path-trivialize-1025"),
        # 2**16 inner elements of 64 x 64 entries each
        pytest.param(
            "collapse", "65536", ["--instance", '{"kind":"matrix","n":64}'], id="collapse-matrix-64"
        ),
    ],
)
def test_huge_n_exits_one_before_allocating(command, n, extra, capsys):
    assert main([command, "--n", n, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: config error: ")
    assert err.count("\n") == 1


def _nested(kind: str, size_field: str, levels: int) -> str:
    """JSON text of ``levels`` nested containers of size 1 over complex scalars."""
    level = f'{{"kind":"{kind}","{size_field}":1,"inner":'
    return level * levels + '{"kind":"complex"}' + "}" * levels


@pytest.mark.parametrize(
    "args",
    [
        # 257 * 257**2 block products of 1 x 1 entries, over the work bound
        pytest.param(
            [
                "norm-audit",
                "--samples",
                "0",
                "--instance",
                '{"kind":"matrix","n":257,"inner":{"kind":"matrix","n":1}}',
            ],
            id="nested-matrix-257",
        ),
        pytest.param(
            ["norm-audit", "--samples", "0", "--instance", '{"kind":"sequence","truncation":4097}'],
            id="l1-truncation-4097",
        ),
        pytest.param(["transfer", "--trials", "10001"], id="trials-10001"),
        # 16**3 block products of 4096**2 / 2 sequence entry products each
        pytest.param(
            [
                "norm-audit",
                "--samples",
                "0",
                "--instance",
                '{"kind":"matrix","n":16,"inner":{"kind":"sequence","truncation":4096}}',
            ],
            id="matrix-16-over-l1-4096",
        ),
        # an object matmul multiplies all 4096**3 entry pairs one at a time
        pytest.param(
            [
                "collapse",
                "--n",
                "1",
                "--instance",
                '{"kind":"matrix","n":4096,"inner":{"kind":"scaled-integers"}}',
            ],
            id="matrix-4096-over-scaled-integers",
        ),
        # 2n inner products at the work bound each: collapse bounds n times
        # the work of one product, not the entries of one element
        pytest.param(
            [
                "collapse",
                "--n",
                "2",
                "--instance",
                '{"kind":"matrix","n":256,"inner":{"kind":"scaled-integers"}}',
            ],
            id="collapse-2-matrix-256-over-scaled-integers",
        ),
        pytest.param(
            ["collapse", "--n", "2", "--instance", '{"kind":"sequence","truncation":4096}'],
            id="collapse-2-l1-4096",
        ),
        # more axes than numpy takes: 3 per matrix level, 1 per sequence or
        # function level, and the batch axis that collapse's products add
        pytest.param(["norm-audit", "--instance", _nested("matrix", "n", 22)], id="matrix-22"),
        pytest.param(
            ["norm-audit", "--instance", _nested("sequence", "truncation", 33)], id="l1-33"
        ),
        pytest.param(
            ["collapse", "--n", "1", "--instance", _nested("sequence", "truncation", 32)],
            id="collapse-l1-32",
        ),
        # deeper than the parse, or the report's config, could recurse
        pytest.param(
            ["norm-audit", "--instance", _nested("functions", "points", 300)], id="functions-300"
        ),
        pytest.param(
            ["norm-audit", "--instance", _nested("functions", "points", 900)], id="functions-900"
        ),
        pytest.param(
            ["norm-audit", "--instance", '{"kind":"matrix","params":' * 700 + "{}" + "}" * 700],
            id="params-700",
        ),
        # an integer that Python's JSON parser will not convert
        pytest.param(
            ["norm-audit", "--instance", '{"kind":"matrix","n":' + "1" * 5000 + "}"],
            id="n-of-5000-digits",
        ),
    ],
)
def test_work_caps_exit_one_with_one_line_before_allocating(args, capsys):
    _exits_one_with_one_line_before_allocating(args, capsys)


def _exits_one_with_one_line_before_allocating(args, capsys) -> str:
    """The error line of ``args``, which must exit 1 in under 1 s and 10 MB."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(args)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: config error: ")
    assert err.count("\n") == 1
    assert elapsed < 1 and peak < 10 * 2**20
    return err


@pytest.mark.parametrize(
    "instance",
    [
        # 2 * 4096**2 entries walked by one row of l1 convolutions
        pytest.param('{"kind":"sequence","truncation":4096}', id="l1-4096"),
        # 2 * 256**3 entry products in one row of object matmuls
        pytest.param(
            '{"kind":"matrix","n":256,"inner":{"kind":"scaled-integers"}}',
            id="matrix-256-over-scaled-integers",
        ),
    ],
)
def test_norm_audit_row_work_exits_one_naming_samples(instance, capsys):
    args = ["norm-audit", "--samples", "0", "--instance", instance]
    assert "--samples" in _exits_one_with_one_line_before_allocating(args, capsys)


def test_descriptor_file_too_deep_for_the_json_parser_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_nested("matrix", "n", 2000))
    assert main(["norm-audit", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: config error: ")
    assert err.count("\n") == 1


def test_shallow_mixed_nesting_runs(tmp_path):
    functions = '{"kind":"functions","points":2}'
    sequence = f'{{"kind":"sequence","truncation":3,"inner":{functions}}}'
    instance = f'{{"kind":"matrix","n":2,"inner":{sequence}}}'
    out = tmp_path / "audit.json"
    assert main(["norm-audit", "--instance", instance, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["norm_audit"]["instance"]["inner"]["inner"]["kind"] == (
        "functions"
    )


def test_trials_up_to_the_cap_are_accepted():
    assert cli.MAX_TRIALS == 10_000
    assert ExperimentConfig(command="transfer", trials=cli.MAX_TRIALS).trials == cli.MAX_TRIALS


@pytest.mark.parametrize(
    "args, setting",
    [
        pytest.param(["lift", "--tol", "inf"], "tolerance", id="tol-inf"),
        pytest.param(["lift", "--tol", "nan"], "tolerance", id="tol-nan"),
        pytest.param(["transfer", "--direction", "inj", "--eps", "1e300"], "eps", id="eps-1e300"),
        pytest.param(["transfer", "--direction", "inj", "--eps", "nan"], "eps", id="eps-nan"),
        pytest.param(["transfer", "--direction", "sur", "--eps", "0.25"], "eps", id="eps-quarter"),
        pytest.param(["transfer", "--eps", "0"], "eps", id="eps-0"),
        # the surjective transfer certifies at its own tol, the default direction included
        pytest.param(["transfer", "--direction", "sur", "--tol", "1e-300"], "--tol", id="sur-tol"),
        pytest.param(["transfer", "--tol", "1e-3"], "--tol", id="default-direction-tol"),
        pytest.param(["norm-audit", "--samples", "65"], "--samples", id="samples-65"),
        pytest.param(["norm-audit", "--samples", "-1"], "--samples", id="samples-negative"),
        # 12 elements of 4096 x 4096 entries each
        pytest.param(
            ["norm-audit", "--instance", '{"kind":"matrix","n":4096}'],
            "--samples",
            id="samples-matrix-4096",
        ),
    ],
)
def test_vacuous_or_oversized_knobs_exit_one_with_one_line(args, setting, capsys):
    # one trial keeps a transfer that wrongly ran short; no other command reads --trials
    trials = ["--trials", "1"] if args[0] == "transfer" else []
    assert main([*args, *trials]) == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: config error: ")
    assert err.count("\n") == 1
    assert setting in err


def test_only_the_injective_transfer_reads_tol(tmp_path):
    out = tmp_path / "report.json"
    base = ["transfer", "--trials", "3", "--seed", "7", "--out", str(out)]
    assert main([*base, "--direction", "inj", "--tol", "1e-300"]) == 0
    assert json.loads(out.read_text())["config"]["tolerance"] == 1e-300
    # the default tolerance, set or not, is accepted on the surjective side
    assert main([*base, "--direction", "sur", "--tol", "1e-9"]) == 0


def test_an_unknown_sequence_mode_exits_one_with_one_line(capsys):
    assert main(["norm-audit", "--instance", '{"kind":"sequence","mode":"l2"}']) == 1
    err = capsys.readouterr().err
    assert err == "idemkit: config error: unknown sequence mode 'l2'; use 'l1' or 'linf'\n"


def test_k0_on_functions_samples_bit_vectors(tmp_path):
    out = tmp_path / "k0f.json"
    assert main(["k0", "--instance", '{"kind":"functions","points":4}', "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k0"]["group"] == "Z^4"
    samples = report["class_map_samples"]
    assert [s["trial"] for s in samples] == [0, 1, 2]
    assert all(len(s["key"]) == 4 and set(s["key"]) <= {0, 1} for s in samples)
    assert [c["name"] for c in report["certificates"]] == ["class[0]", "class[1]", "class[2]"]
    assert report["summary"]["all_certificates_valid"]


def _readme_command_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("idemkit ")]


def test_readme_library_example_runs_verbatim(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    start = time.perf_counter()
    exec(compile(block, "README.md", "exec"), ns)
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    # the rank-2 projector at uhf level 6 stays at level 6, normalized trace 2/64
    assert len(lines) == 3 and lines[-1] == "6 1/32"
    # its colimit norm is about 18.3, the largest of any transfer test, and
    # eps = 0.01 still certifies both the transfer and the conjugating unit
    result = ns["result"]
    assert result.cert.valid and result.unit.cert.valid
    assert elapsed < 1.0


def test_readme_states_the_schema_and_each_commands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r'"schema": (\d+)', readme) == [str(SCHEMA_VERSION)]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", readme, re.MULTILINE)
    assert len(rows) == len(_COMMAND_FLAGS)
    assert {command: set(re.findall(r"--[a-z]+", flags)) for command, flags in rows} == _COMMAND_FLAGS


def test_readme_shows_every_command():
    shown = {shlex.split(line)[1] for line in _readme_command_lines()}
    assert shown == {
        "lift", "transfer", "k0", "path-trivialize",
        "swindle-check", "collapse", "norm-audit", "tensor-audit",
    }


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_exits_as_documented(line, tmp_path):
    comment = line.partition(" #")[2]
    argv = shlex.split(line, comments=True)[1:]
    expected = 2 if "exits 2" in comment else 0
    assert main([*argv, "--out", str(tmp_path / "report.out")]) == expected


def _outside_certificates(node):
    """Every JSON object of a report that is not inside its certificate list."""
    if isinstance(node, dict):
        yield node
        for key, value in node.items():
            if key != "certificates":
                yield from _outside_certificates(value)
    elif isinstance(node, list):
        for value in node:
            yield from _outside_certificates(value)


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_reports_write_each_certificate_once(line, tmp_path):
    """Certificate entries appear only in the certificate list, and the CSV
    rows are exactly the JSON certificates' entries, in order."""
    argv = shlex.split(line, comments=True)[1:]
    main([*argv, "--out", str(tmp_path / "r.json")])
    main([*argv, "--format", "csv", "--out", str(tmp_path / "r.csv")])
    report = json.loads((tmp_path / "r.json").read_text())
    for obj in _outside_certificates(report):
        assert not {"name", "lhs", "rhs"} <= obj.keys(), obj
    rows = list(csv.reader((tmp_path / "r.csv").read_text().splitlines()))[1:]
    assert [(row[0], row[1]) for row in rows] == [
        (cert["name"], entry["name"])
        for cert in report["certificates"]
        for entry in cert["entries"]
    ]


def test_transfer_csv_lists_every_unit_certificate(tmp_path):
    out = tmp_path / "sur.csv"
    argv = ["transfer", "--direction", "sur", "--trials", "3", "--format", "csv"]
    assert main([*argv, "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    for i in range(3):
        entries = {entry for name, entry, *_ in rows if name == f"unit[{i}]"}
        assert {"intertwine", "residual-left"} <= entries


@pytest.mark.parametrize("seed", [-1, True, 1.0, "7"])
def test_config_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(command="k0", seed=seed)


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("k0", "seed", True),
        ("lift", "tolerance", True),
        ("transfer", "trials", True),
        ("transfer", "eps", True),
        ("lift", "defect", False),
        ("collapse", "n", True),
        ("swindle-check", "support", True),
        ("norm-audit", "samples", True),
    ],
)
def test_config_rejects_a_boolean_in_a_numeric_field(command, field, value):
    # JSON true and false are Python bools, which are ints
    with pytest.raises(ConfigError, match=f"^{field} must be an? (integer|number), got {value}$"):
        ExperimentConfig.from_dict({"command": command, field: value})


@pytest.mark.parametrize(
    "d, message",
    [
        # these ended in a TypeError traceback
        ({"command": "swindle-check", "support": 2.5}, "support must be an integer, got 2.5"),
        ({"command": "path-trivialize", "n": "4"}, "n must be an integer, got '4'"),
        ({"command": "norm-audit", "samples": 1.5}, "samples must be an integer, got 1.5"),
        # these ran and echoed the wrong type into the report
        ({"command": "lift", "defect": "0.1"}, "defect must be a number, got '0.1'"),
        ({"command": "collapse", "n": 3.0}, "n must be an integer, got 3.0"),
        # the other annotations, and a missing command
        ({"command": "lift", "variant": 1}, "variant must be a string, got 1"),
        ({"command": "k0", "instance": [1, 2]}, "instance must be a JSON object, got [1, 2]"),
        ({"command": "k0", "out": 3}, "out must be a string, got 3"),
        ({"command": ["k0"]}, "command must be a string, got ['k0']"),
        ({}, "a config needs its command"),
    ],
)
def test_config_checks_every_field_against_its_annotation(d, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli.build_report(ExperimentConfig.from_dict(d))


def test_config_takes_an_int_where_it_reads_a_float():
    config = ExperimentConfig.from_dict({"command": "lift", "tolerance": 1})
    assert config.tolerance == 1 and cli.build_report(config)["config"]["tolerance"] == 1


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["k0", "--seed", "-1"], id="k0-negative-seed"),
        pytest.param(["transfer", "--seed", "-3", "--trials", "1"], id="transfer-negative-seed"),
        pytest.param(["norm-audit", "--seed", "-1"], id="norm-audit-negative-seed"),
        pytest.param(["k0", "--instance", "{dir}"], id="instance-directory"),
        pytest.param(["transfer", "--tower", "{dir}"], id="tower-directory"),
        pytest.param(["k0", "--instance", "{undecodable}"], id="instance-undecodable-file"),
        pytest.param(["k0", "--out", "{dir}"], id="out-directory"),
        pytest.param(["k0", "--out", "{dir}/missing/report.json"], id="out-under-missing-directory"),
    ],
)
def test_bad_seeds_and_paths_exit_one_with_one_line(args, tmp_path, capsys):
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\x80\x81")
    args = [a.format(dir=tmp_path, undecodable=undecodable) for a in args]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["lift", "--instance", "{}"],
        ["lift", "--instance", "null"],
        ["k0", "--instance", "{}"],
        ["k0", "--instance", "null"],
        ["collapse", "--instance", "{}"],
        ["norm-audit", "--instance", "{}"],
        ["transfer", "--tower", "{}"],
        ["transfer", "--tower", "null"],
    ],
    ids=shlex.join,
)
def test_an_empty_or_null_descriptor_exits_one_with_one_line(args, tmp_path, capsys):
    # an explicit descriptor is never read as the omitted flag's default
    out = tmp_path / "report.out"
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: config error: ")
    assert err.count("\n") == 1
    assert "descriptor" in err
    assert not out.exists()


_SCIPY_GUARD = """
import sys
import idemkit, idemkit.cli
from idemkit.cli import main
from idemkit.homotopy import homotopy_invariance_experiment

out = sys.argv[1]
code = main(["k0", "--instance", '{"kind":"matrix","n":2}', "--out", out])
print(code, "scipy" in sys.modules)
code = main(["path-trivialize", "--n", "2", "--path", "random", "--tol", "1e-8", "--out", out])
print(code, "scipy" in sys.modules)
report = homotopy_invariance_experiment(2, 1, seed=0)
print(int(not report.all_constant), "scipy" in sys.modules)
"""


def test_no_command_or_random_path_loads_scipy(tmp_path):
    # a fresh interpreter: this test process may have loaded SciPy already
    src = str(Path(idemkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, str(tmp_path / "report.json")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["0 False"] * 3


def _load_compare_reports():
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("idemkit_tools_compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CHECKED_ARGS = [args for args, _ in workloads.readme_commands(7)]
_CHECKED_ARGS += _load_compare_reports().DEFAULT_EXTRAS


@pytest.mark.parametrize("args", _CHECKED_ARGS, ids=shlex.join)
def test_readme_and_comparison_commands_parse(args):
    config = config_from_args(_build_parser().parse_args(args))
    assert config.command == args[0]
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    # the report's config block holds the fields the command reads, and it
    # rebuilds the run, where and how the report is written aside
    block = cli._report_skeleton(config)["config"]
    own = {"tolerance" if flag == "--tol" else flag[2:] for flag in _COMMAND_FLAGS[config.command]}
    assert set(block) == {"command", "seed"} | own
    assert ExperimentConfig.from_dict(block) == dataclasses.replace(config, out=None, format="json")


def test_compare_reports_names_what_changed_inside_a_json_report():
    tool = _load_compare_reports()
    old = b'{"a":[1,{"x":NaN}],"b":1,"c":"s"}\n'
    assert tool.report_lines(old, b'{"c": "s", "b": 1, "a": [1, {"x": NaN}]}') == [
        "same document"
    ]
    assert tool.report_lines(old, b'{"a":[1.0,{"x":2},3],"b":true}') == [
        "a[0]: 1 -> 1.0",
        "a[1].x: NaN -> 2",
        "a[2]: (absent) -> 3",
        "b: 1 -> true",
        'c: "s" -> (absent)',
    ]
    many = tool.report_lines(b"[]", json.dumps(list(range(12))).encode())
    assert len(many) == tool.MAX_PATHS + 1 and many[-1] == "... 2 more differing paths"
    assert tool.report_lines(None, old) == tool.report_lines(b"a,b\n", b"a,c\n") == []


def test_compare_reports_runs_a_command_and_reads_its_peak_rss(tmp_path):
    tool = _load_compare_reports()
    (code, stdout, stderr, report), wall, peak_mb = tool.run(
        tool.ROOT, ["swindle-check", "--support", "4"], tmp_path / "run"
    )
    assert (code, stdout, stderr) == (0, b"", b"")
    assert json.loads(report)["summary"]["all_certificates_valid"]
    assert wall > 0 and peak_mb > 1


def test_compare_ops_pairs_this_checkout_with_itself():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "compare_ops.py"), str(root), "--workload", "cli-readme", "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("cli-readme seed 1: 20 ops per side, rounds 1,")
    assert lines[1].startswith("parent: ops_per_s ") and lines[2].strip().startswith("here: ops_per_s ")
    assert lines[-1] == "0 failed checks"


def test_each_flag_has_one_default():
    # an omitted flag takes the config field's default in every command, in
    # the full parser and in the one-command parser that main builds
    for command in _COMMAND_FLAGS:
        for parser in (_build_parser(), _build_parser([command])):
            assert config_from_args(parser.parse_args([command])) == ExperimentConfig(command)
    # so a bare collapse runs the n = 2 that build_report runs
    report = build_report(config_from_args(_build_parser().parse_args(["collapse"])))
    assert report["config"] == {"command": "collapse", "instance": None, "n": 2, "seed": 0}


#: the flags every command takes
_COMMON_FLAGS = {"--seed", "--out", "--format"}

#: the flags each command reads besides the common ones
_COMMAND_FLAGS = {
    "lift": {"--instance", "--tol", "--defect", "--variant"},
    "k0": {"--instance"},
    "transfer": {"--tower", "--tol", "--trials", "--eps", "--direction"},
    "path-trivialize": {"--tol", "--n", "--path"},
    "swindle-check": {"--support"},
    "collapse": {"--instance", "--n"},
    "norm-audit": {"--instance", "--samples"},
    "tensor-audit": set(),
}

#: a valid value for each flag of any command
_FLAG_VALUES = {
    "--seed": "1",
    "--out": "report.out",
    "--format": "json",
    "--instance": '{"kind":"complex"}',
    "--tower": '{"kind":"uhf","depth":1}',
    "--tol": "1e-9",
    "--trials": "1",
    "--eps": "0.01",
    "--defect": "0.1",
    "--variant": "corrected",
    "--direction": "sur",
    "--n": "2",
    "--path": "rotation",
    "--support": "4",
    "--samples": "1",
}

_UNREAD = [
    (command, flag)
    for command, own in _COMMAND_FLAGS.items()
    for flag in _FLAG_VALUES
    if flag not in own | _COMMON_FLAGS
]


def test_each_command_parses_exactly_the_flags_it_reads():
    expected = {
        (command, flag)
        for command, own in _COMMAND_FLAGS.items()
        for flag in own | _COMMON_FLAGS
    }
    # the full parser and the one-command parser that main builds
    for build in (lambda command: _build_parser(), lambda command: _build_parser([command])):
        accepted = []
        for command in _COMMAND_FLAGS:
            for flag, value in _FLAG_VALUES.items():
                try:
                    build(command).parse_args([command, flag, value])
                except ConfigError:
                    continue
                accepted.append((command, flag))
        assert set(accepted) == expected
        assert len(accepted) == 42


@pytest.mark.parametrize(
    "args, built",
    [
        pytest.param(["lift", "--defect", "0.3"], [["lift"]], id="lift"),
        pytest.param(["lift", "--help"], [["lift"]], id="lift-help"),
        pytest.param(["--help"], [list(_COMMAND_FLAGS)], id="help"),
        pytest.param(["mystery"], [list(_COMMAND_FLAGS)], id="unknown-command"),
        pytest.param([], [list(_COMMAND_FLAGS)], id="no-command"),
    ],
)
def test_main_builds_only_the_named_commands_parser(args, built, monkeypatch, capsys):
    calls = []

    def spy(commands=cli._COMMANDS):
        calls.append(list(commands))
        return _build_parser(commands)

    monkeypatch.setattr(cli, "_build_parser", spy)
    try:
        main(args)
    except SystemExit:
        pass
    assert calls == built


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for command in _COMMAND_FLAGS:
        help_text = cli._COMMANDS[command][0]
        assert re.search(rf"^    {command} +{help_text}$", out, re.MULTILINE), command


@pytest.mark.parametrize("command, flag", _UNREAD, ids=" ".join)
def test_a_flag_the_command_does_not_read_exits_one_with_one_line(command, flag, tmp_path, capsys):
    out = tmp_path / "report.out"
    assert main([command, flag, _FLAG_VALUES[flag], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"idemkit: config error: unrecognized arguments: {flag} ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args, setting",
    [
        pytest.param(["lift", "--variant", "foo"], "--variant", id="variant-foo"),
        pytest.param(["lift", "--format", "xml"], "--format", id="format-xml"),
        pytest.param(["collapse", "--n", "x"], "--n", id="n-not-an-int"),
        pytest.param(["mystery"], "mystery", id="unknown-command"),
        pytest.param([], "command", id="no-command"),
    ],
)
def test_parser_errors_exit_one_with_one_line(args, setting, tmp_path, capsys):
    out = tmp_path / "report.out"
    assert main([*args, "--out", str(out)] if args else args) == 1
    err = capsys.readouterr().err
    assert err.startswith("idemkit: config error: ")
    assert err.count("\n") == 1
    assert setting in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["lift", "--help"], ["tensor-audit", "-h"]])
def test_help_still_exits_zero(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: idemkit")
