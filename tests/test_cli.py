import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from extropy import McStudyConfig, cli, dynamic, mc_bias_mse, measures, parse_family
from extropy.cli import main


def run(args):
    return main(args)


@pytest.fixture()
def two_group_csv(tmp_path):
    rng = np.random.default_rng(8)
    rows = ["arm,value"]
    for _ in range(60):
        rows.append(f"a,{-np.log1p(-rng.random()):.6f}")
        rows.append(f"b,{-np.log1p(-rng.random()) / 2:.6f}")
    path = tmp_path / "two.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def test_measure_relative(tmp_path, capsys):
    code = run([
        "measure", "relative", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert abs(report["results"]["value"] - 1 / 12) < 1e-8
    assert "relative" in capsys.readouterr().out


def test_measure_dynamic_requires_t(tmp_path):
    assert run(["measure", "residual-relative", "--family-x", "exp:1",
                "--family-y", "exp:2", "--out", str(tmp_path)]) == 2
    assert run(["measure", "residual-relative", "--family-x", "exp:1",
                "--family-y", "exp:2", "--t", "nan", "--out", str(tmp_path)]) == 2


def test_measure_over_the_support_refuses_t(tmp_path, capsys):
    # --t was once parsed, ignored and written into the report's inputs
    for name in ("extropy", "inaccuracy", "relative", "divergence-fg", "divergence-gf"):
        out = tmp_path / name
        y = [] if name == "extropy" else ["--family-y", "exp:2"]
        assert run(["measure", name, "--family-x", "exp:1", *y, "--t", "5", "--out", str(out)]) == 2
        assert "takes no --t" in capsys.readouterr().err
        assert not (out / "report.json").exists()


def test_measure_atom_convention(tmp_path):
    code = run([
        "measure", "past-extropy", "--family-x", "crh:a=1,b=2,atom=true", "--t", "0.75",
        "--atom-convention", "paper", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    import math
    a, t = 1.0, 0.75
    expected = (1.0 / (-2 * math.exp(2 * a * t))) * (1 + (a / 2) * (math.exp(2 * a * t) - 1))
    assert abs(report["results"]["value"] - expected) < 1e-8


def test_bad_family_is_input_error(tmp_path):
    assert run(["measure", "relative", "--family-x", "cauchy:1",
                "--family-y", "exp:2", "--out", str(tmp_path)]) == 2


def test_denominator_underflow_is_numerical_failure(tmp_path):
    assert run(["measure", "residual-extropy", "--family-x", "exp:rate=2",
                "--t", "60", "--out", str(tmp_path)]) == 3


def test_estimate_single_csv(two_group_csv, tmp_path):
    out = tmp_path / "est"
    code = run(["estimate", two_group_csv, "--value-col", "value",
                "--group-col", "arm", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["relative_extropy"] >= 0.0
    assert len(report["results"]["bandwidths"]) == 2


def test_estimate_missing_column(two_group_csv, tmp_path):
    assert run(["estimate", two_group_csv, "--value-col", "nope",
                "--group-col", "arm", "--out", str(tmp_path)]) == 2


def test_estimate_missing_file(tmp_path):
    assert run(["estimate", str(tmp_path / "none.csv"), "--value-col", "v",
                "--group-col", "g", "--out", str(tmp_path)]) == 2


def test_simulate_writes_study(tmp_path):
    out = tmp_path / "sim"
    code = run([
        "simulate", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
        "--n", "20,30", "--reps", "4", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    study = (out / "study.csv").read_text().splitlines()
    assert study[0] == "n,mean_estimate,bias,mse,reps,failures"
    assert len(study) == 3
    report = json.loads((out / "report.json").read_text())
    assert abs(report["results"]["true_value"] - 1 / 12) < 1e-8


def test_simulate_deterministic(tmp_path):
    args = lambda sub: [
        "simulate", "--family-x", "exp:rate=1", "--family-y", "weibull:shape=2,scale=1",
        "--n", "20", "--reps", "3", "--seed", "11", "--out", str(tmp_path / sub),
    ]
    assert run(args("one")) == 0
    assert run(args("two")) == 0
    for name in ("report.json", "study.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_groups_outputs_and_determinism(two_group_csv, tmp_path):
    args = lambda sub: [
        "groups", two_group_csv, "--value-col", "value", "--group-col", "arm",
        "--out", str(tmp_path / sub),
    ]
    assert run(args("one")) == 0
    assert run(args("two")) == 0
    for name in ("report.json", "matrix.csv", "heatmap.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    svg = (tmp_path / "one" / "heatmap.svg").read_text()
    assert svg.count("<rect") == 4  # 2x2 cells
    assert "color ramp" in svg


def test_groups_quantile_mode(tmp_path):
    rng = np.random.default_rng(12)
    rows = ["income,spend"]
    for _ in range(150):
        rows.append(f"{rng.uniform(10, 100):.2f},{rng.normal(40, 8):.2f}")
    path = tmp_path / "q.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "qo"
    code = run([
        "groups", str(path), "--value-col", "spend", "--group-col", "income",
        "--quantiles", "0.2,0.4,0.6,0.8", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["results"]["labels"]) == 5
    matrix = np.array(report["results"]["matrix"])
    assert matrix.shape == (5, 5)
    assert np.allclose(matrix, matrix.T)


def test_verify_exponential_pair(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["all_identities_hold"]
    assert not report["results"]["hypothesis_not_met"]


def test_verify_hypothesis_not_met(tmp_path):
    # crossing hazards and no DFR member: identities hold, premises do not
    out = tmp_path / "v2"
    code = run(["verify", "--family-x", "weibull:shape=2,scale=1",
                "--family-y", "weibull:shape=3,scale=1.2", "--out", str(out)])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["all_identities_hold"]
    assert report["results"]["hypothesis_not_met"]


@pytest.mark.parametrize("fy", ["exp:rate=1", "exp:rate=2"])
def test_verify_bound_residuals_are_never_negative_zero(tmp_path, fy):
    # a one-sided residual is max(rhs - lhs, 0): written as -(lhs - rhs) it gives
    # -0.0 for the lower bound of two equal laws
    out = tmp_path / "v"
    assert run(["verify", "--family-x", "exp:rate=1", "--family-y", fy, "--out", str(out)]) == 0
    bounds = json.loads((out / "report.json").read_text())["results"]["bounds"]
    assert len(bounds) == 3
    for bound in bounds:
        assert math.copysign(1.0, bound["max_abs_residual"]) == 1.0, bound


def test_report_inputs_are_each_subcommands_flags_without_out(two_group_csv, tmp_path):
    # the inputs are read off the parsed flags, so a new flag shows up here first
    csv = ["--value-col", "value", "--group-col", "arm"]
    pair = ["--family-x", "exp:rate=1", "--family-y", "exp:rate=2"]
    cases = {
        "measure": (["residual-relative", *pair, "--t", "0.5"], {"family_x", "family_y", "t", "atom_convention"}),
        "estimate": ([two_group_csv, *csv], {"csv", "value_col", "group_col", "boundary_reflect"}),
        "simulate": ([*pair, "--n", "20,30", "--reps", "2"],
                     {"family_x", "family_y", "n", "reps", "seed", "boundary_reflect"}),
        "groups": ([two_group_csv, *csv], {"csv", "value_col", "group_col", "quantiles", "boundary_reflect"}),
        "verify": (pair, {"family_x", "family_y", "grid", "atom_convention"}),
    }
    for command, (argv, keys) in cases.items():
        out = tmp_path / command
        assert run([command, *argv, "--out", str(out)]) == 0, command
        inputs = json.loads((out / "report.json").read_text())["inputs"]
        assert set(inputs) == keys and "out" not in inputs, (command, sorted(inputs))
    assert json.loads((tmp_path / "simulate" / "report.json").read_text())["inputs"]["n"] == [20, 30]


def test_estimate_two_files(tmp_path):
    rng = np.random.default_rng(15)
    for name, rate in (("x.csv", 1.0), ("y.csv", 2.0)):
        rows = ["value"] + [f"{-np.log1p(-rng.random()) / rate:.6f}" for _ in range(50)]
        (tmp_path / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run(["estimate", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"),
                "--value-col", "value", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["n"] == [50, 50]


def test_estimate_reports_its_dropped_rows(tmp_path):
    # 83 rows, 3 of them missing a cell: a blank value, a blank arm and a short row.
    # With --group-col all 3 are dropped; read as two files of values, each copy
    # drops the 2 rows without a value, so the report counts 4
    rng = np.random.default_rng(29)
    rows = [f"{'ab'[i % 2]},{rng.exponential(1.0 + i % 2):.6f}" for i in range(80)]
    rows[10:10] = ["a,", ",0.3", "b"]
    for name in ("x.csv", "y.csv"):
        (tmp_path / name).write_text("\n".join(["arm,value", *rows]) + "\n", encoding="utf-8")
    runs = {
        "one": ([str(tmp_path / "x.csv"), "--group-col", "arm"], 1, 3),
        "two": ([str(tmp_path / "x.csv"), str(tmp_path / "y.csv")], 2, 4),
    }
    for name, (argv, files, dropped) in runs.items():
        assert run(["estimate", *argv, "--value-col", "value", "--out", str(tmp_path / name)]) == 0
        results = json.loads((tmp_path / name / "report.json").read_text())["results"]
        assert results["dropped_rows"] == dropped, name
        assert sum(results["n"]) + dropped == 83 * files, name


@pytest.mark.parametrize("x_cells, message", [
    (["0.1", "0.2", "nan", "0.4", "0.5", "0.6"], "row 4, column 'value'"),
    (["0.1", "0.2", "0.3", "0.4"], "has 4 observations, minimum is 5"),
], ids=["non-finite-cell", "four-values"])
def test_estimate_two_files_rejects_input_as_one_csv_does(tmp_path, capsys, x_cells, message):
    y_cells = [f"{0.1 * k + 0.05:.2f}" for k in range(20)]
    for name, cells in (("x.csv", x_cells), ("y.csv", y_cells)):
        (tmp_path / name).write_text("\n".join(["value", *cells]) + "\n", encoding="utf-8")
    code = run(["estimate", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"),
                "--value-col", "value", "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("second, flags, message", [
    ("x.csv", [], "duplicate group labels"),
    ("y.csv", ["--group-col", "arm"], "--group-col takes one CSV"),
], ids=["same-file-twice", "group-col"])
def test_estimate_two_files_input_errors(tmp_path, capsys, second, flags, message):
    # both once exited 0: the same file gave an estimate of 0, and the ignored
    # --group-col was echoed in report.json
    for name in ("x.csv", "y.csv"):
        cells = [f"{0.1 * k + 0.05:.2f}" for k in range(20)]
        (tmp_path / name).write_text("\n".join(["value", *cells]) + "\n", encoding="utf-8")
    code = run(["estimate", str(tmp_path / "x.csv"), str(tmp_path / second),
                "--value-col", "value", *flags, "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_measure_gf_direction_labeled(tmp_path):
    code = run(["measure", "divergence-gf", "--family-x", "exp:rate=1",
                "--family-y", "exp:rate=2", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["measure_id"] == "divergence_gf"
    assert abs(report["results"]["value"] - 1 / 6) < 1e-8


def test_groups_heatmap_escapes_its_labels(tmp_path):
    # the labels were written unescaped: "a&b" and "<c>" made an SVG no XML parser reads
    rng = np.random.default_rng(3)
    rows = ["arm,value"] + [f"{arm},{v!r}" for arm in ("a&b", "<c>") for v in rng.normal(size=30).tolist()]
    path = tmp_path / "marks.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["groups", str(path), "--value-col", "value", "--group-col", "arm", "--out", str(out)]) == 0
    texts = [t.text for t in ElementTree.parse(out / "heatmap.svg").iter("{http://www.w3.org/2000/svg}text")]
    assert texts[:5] == ["pairwise relative extropy", "<c>", "a&b", "<c>", "a&b"]


@pytest.mark.parametrize("spec, message", [
    ("crh:a=1,b=2,atom=ture", "atom takes true/false"),  # once parsed as a law without the atom
    ("exp:1,rate=2", "positional and key=value parameters mixed"),
    ("exp:rate=1,foo=2", "unknown parameter 'foo'"),
], ids=["atom-value", "mixed", "unknown-key"])
def test_family_spec_errors_name_their_cause(tmp_path, capsys, spec, message):
    # a key or layout error was reported as a "bad numeric value"
    code = run(["measure", "extropy", "--family-x", spec, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "bad numeric" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("fx, fy, last", [
    ("uniform:0,1", "crh:1,2", 0.95),  # different right ends
    ("uniform:0,1", "crh:a=3,b=1", 0.95),  # a density rising to the shared end
    ("crh:a=8,b=1", "crh:a=10,b=1", 0.95 ** (1 / 8)),  # both rising steeply
])
def test_verify_bounded_supports_stop_short_of_the_right_end(tmp_path, fx, fy, last):
    # near the end of a bounded support the fixed central difference cannot
    # resolve d_r, so the auto grid keeps clear of the last 5% of mass
    out = tmp_path / "b"
    code = run(["verify", "--family-x", fx, "--family-y", fy, "--out", str(out)])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["all_identities_hold"]
    assert report["inputs"]["grid"][-1] <= last


def test_verify_computes_each_integral_once(tmp_path, monkeypatch):
    from extropy import dynamic, measures

    windowed = measures._windowed
    keys = []
    calls = []

    def counting(form, window, models, t=None, atom_convention="ac"):
        calls.append(form)
        labels = tuple(m.label for m in models)
        times = [None] if t is None else np.ravel(t).tolist()
        keys.extend((form, window, labels, ti, atom_convention) for ti in times)
        return windowed(form, window, models, t, atom_convention)

    monkeypatch.setattr(measures, "_windowed", counting)
    monkeypatch.setattr(dynamic, "_windowed", counting)
    code = run(["verify", "--family-x", "exp:rate=1", "--family-y", "weibull:shape=2,scale=1",
                "--out", str(tmp_path)])
    assert code == 4
    repeated = sorted({k for k in keys if keys.count(k) > 1}, key=repr)
    assert not repeated, repeated[:5]
    assert len(keys) <= 167, len(keys)
    # each series over the grid is one batched integral
    assert len(calls) <= 30, len(calls)


# every measure name, and the public library call it must agree with
LIBRARY = {
    "extropy": lambda x, y, t, conv: measures.extropy(x),
    "inaccuracy": lambda x, y, t, conv: measures.extropy_inaccuracy(x, y),
    "relative": lambda x, y, t, conv: measures.relative_extropy(x, y),
    "divergence-fg": lambda x, y, t, conv: measures.extropy_divergence(x, y),
    "divergence-gf": lambda x, y, t, conv: measures.extropy_divergence(y, x),
    "residual-extropy": lambda x, y, t, conv: dynamic.residual_extropy(x, t),
    "residual-inaccuracy": lambda x, y, t, conv: dynamic.residual_inaccuracy(x, y, t),
    "residual-relative": lambda x, y, t, conv: dynamic.residual_relative(x, y, t),
    "residual-divergence-fg": lambda x, y, t, conv: dynamic.residual_divergence(x, y, t),
    "residual-divergence-gf": lambda x, y, t, conv: dynamic.residual_divergence(y, x, t),
    "past-extropy": lambda x, y, t, conv: dynamic.past_extropy(x, t, atom_convention=conv),
    "past-inaccuracy": lambda x, y, t, conv: dynamic.past_inaccuracy(x, y, t, atom_convention=conv),
    "past-relative": lambda x, y, t, conv: dynamic.past_relative(x, y, t, atom_convention=conv),
    "past-divergence-fg": lambda x, y, t, conv: dynamic.past_divergence(x, y, t, atom_convention=conv),
    "past-divergence-gf": lambda x, y, t, conv: dynamic.past_divergence(y, x, t, atom_convention=conv),
}


@pytest.mark.parametrize("fx, fy, conv", [
    ("exp:1", "weibull:2,1", "ac"),
    ("crh:a=1,b=2,atom=true", "crh:a=0.5,b=2,atom=true", "paper"),
], ids=["exp-weibull", "crh-atoms-paper"])
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_measure_matches_the_library(tmp_path, name, fx, fy, conv):
    assert set(cli._MEASURES) == set(LIBRARY)
    t = [] if cli._MEASURES[name][1] == "support" else ["--t", "0.5"]  # only windowed measures take --t
    code = run(["measure", name, "--family-x", fx, "--family-y", fy, *t,
                "--atom-convention", conv, "--out", str(tmp_path)])
    assert code == 0
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    expected = LIBRARY[name](parse_family(fx), parse_family(fy), 0.5, conv)
    assert results["value"] == expected.value
    assert results["measure_id"] == name.replace("-", "_")


@pytest.mark.parametrize("argv", [
    lambda csv, d: ["simulate", "--family-x", "exp:1", "--family-y", "exp:2", "--n", "abc"],
    lambda csv, d: ["verify", "--family-x", "exp:1", "--family-y", "exp:2", "--t", "0.5,abc"],
    lambda csv, d: ["groups", csv, "--value-col", "value", "--group-col", "arm",
                    "--quantiles", "0.5,abc"],
    lambda csv, d: ["groups", d, "--value-col", "value", "--group-col", "arm"],
    # a non-finite --t once exited 3 on verify and on most measures: a NaN that
    # no report may carry, or a survival or cdf at nan read as 0
    lambda csv, d: ["measure", "extropy", "--family-x", "exp:1", "--t", "nan"],
    lambda csv, d: ["measure", "residual-extropy", "--family-x", "exp:1", "--t", "nan"],
    lambda csv, d: ["measure", "past-extropy", "--family-x", "exp:1", "--t", "inf"],
    lambda csv, d: ["measure", "residual-extropy", "--family-x", "exp:1", "--t", "0.5,1"],
    lambda csv, d: ["verify", "--family-x", "exp:1", "--family-y", "exp:2", "--t", "nan"],
    lambda csv, d: ["verify", "--family-x", "exp:1", "--family-y", "exp:2", "--t", "1,inf"],
], ids=["simulate-n", "verify-t", "groups-quantiles", "groups-directory", "measure-t-nan-unused",
        "measure-t-nan", "measure-t-inf", "measure-two-t", "verify-t-nan", "verify-t-inf"])
def test_malformed_flags_and_unreadable_paths_are_input_errors(two_group_csv, tmp_path, capsys, argv):
    code = run(argv(two_group_csv, str(tmp_path)) + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("empty", [",", ""], ids=["comma", "blank"])
@pytest.mark.parametrize("argv", [
    lambda csv, e: ["simulate", "--family-x", "exp:1", "--family-y", "exp:2", "--n", e, "--reps", "5"],
    lambda csv, e: ["verify", "--family-x", "exp:1", "--family-y", "exp:2", "--t", e],
    lambda csv, e: ["groups", csv, "--value-col", "value", "--group-col", "arm", "--quantiles", e],
], ids=["simulate-n", "verify-t", "groups-quantiles"])
def test_empty_number_lists_are_input_errors(two_group_csv, tmp_path, capsys, argv, empty):
    # once: simulate wrote a report with no rows, verify exited 3 on an empty
    # grid; a blank --t ran the auto grid and a blank --quantiles grouped by the raw column
    code = run(argv(two_group_csv, empty) + ["--out", str(tmp_path)])
    assert code == 2
    assert "takes comma-separated numbers" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["measure", "relative", "--family-x", "weibull:2,inf", "--family-y", "exp:1"],
    ["measure", "extropy", "--family-x", "uniform:0,inf"],
    ["measure", "extropy", "--family-x", "uniform:-inf,0"],
    ["measure", "extropy", "--family-x", "crh:1,inf"],
    ["measure", "extropy", "--family-x", "exp:inf"],
], ids=["weibull-scale", "uniform-hi", "uniform-lo", "crh-b", "exp-rate"])
def test_non_finite_family_parameters_are_input_errors(tmp_path, capsys, argv):
    # once: each printed a number (0.25 or -0) and exited 0
    code = run(argv + ["--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "report.json").exists()


def test_measure_divergent_weibull_extropy_is_input_error(tmp_path, capsys):
    # shape <= 1/2: int f^2 diverges at 0, where the quadrature once reported +0.621
    code = run(["measure", "extropy", "--family-x", "weibull:0.467,3.24", "--out", str(tmp_path)])
    assert code == 2
    assert "diverges" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.fixture()
def near_identical_csv(tmp_path):
    # 30 Exp(1) draws x and x (1 + 1e-12): the estimate is rounding noise around 0
    rng = np.random.default_rng(1)
    x = (-np.log1p(-rng.random(30))).tolist()
    rows = ["arm,value"] + [f"a,{v!r}" for v in x] + [f"b,{v * (1.0 + 1e-12)!r}" for v in x]
    path = tmp_path / "near.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def test_rounding_noise_estimates_are_zero(near_identical_csv, tmp_path):
    common = [near_identical_csv, "--value-col", "value", "--group-col", "arm"]
    assert run(["groups", *common, "--out", str(tmp_path / "g")]) == 0
    matrix = json.loads((tmp_path / "g" / "report.json").read_text())["results"]["matrix"]
    assert matrix == [[0.0, 0.0], [0.0, 0.0]]
    assert run(["estimate", *common, "--out", str(tmp_path / "e")]) == 0
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert report["results"]["relative_extropy"] == 0.0


@pytest.mark.parametrize("fx, fy, lower", [
    ("uniform:-1,1", "uniform:-1,2", -1.0),
    ("uniform:2,3", "uniform:2.5,4", 2.0),
], ids=["below-0", "above-0"])
def test_simulate_cuts_off_at_the_left_end_of_the_support_hull(tmp_path, fx, fy, lower):
    # the estimates were cut off at 0 whatever the families' support
    out = tmp_path / "sim"
    code = run(["simulate", "--family-x", fx, "--family-y", fy, "--n", "20", "--reps", "10",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())["results"]
    px, py = parse_family(fx), parse_family(fy)
    row = mc_bias_mse(McStudyConfig(px, py, n=20, reps=10, seed=3,
                                    true_value=report["true_value"], support_lower=lower))
    assert report["rows"][0]["mean_estimate"] == row.mean_estimate


def test_estimate_refuses_to_reflect_data_below_the_bound(tmp_path, capsys):
    # reflection at 0 once folded the negative half of these samples silently
    rng = np.random.default_rng(4)
    rows = ["arm,value"] + [f"a,{v!r}" for v in rng.normal(0.0, 1.0, 200).tolist()]
    rows += [f"b,{v!r}" for v in rng.normal(0.5, 1.0, 200).tolist()]
    path = tmp_path / "normal.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    common = [str(path), "--value-col", "value", "--group-col", "arm"]
    assert run(["estimate", *common, "--out", str(tmp_path / "off")]) == 0
    code = run(["estimate", *common, "--boundary-reflect", "on", "--out", str(tmp_path / "on")])
    assert code == 2
    assert "reflection at 0" in capsys.readouterr().err
    assert not (tmp_path / "on" / "report.json").exists()


def test_negative_seed_is_an_input_error(tmp_path, capsys):
    # numpy's SeedSequence rejects it: simulate once exited 1 with a traceback
    code = run(["simulate", "--family-x", "exp:1", "--family-y", "exp:2", "--n", "20",
                "--reps", "2", "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_overflowing_measure_is_numerical_failure(tmp_path, capsys):
    # f^2 overflows at 0: the report once read "value": -Infinity with exit 0
    code = run(["measure", "extropy", "--family-x", "exp:1e160", "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_overflowing_integrand_names_the_overflow_and_its_piece(tmp_path, capsys):
    # f^2 of exp:1e160 is inf within about 1e-159 of 0; the message once read
    # "integral nan ... tolerance nan"
    code = run(["measure", "extropy", "--family-x", "exp:1e160", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "is not finite: the integrand overflows at 1e-176 in its piece [0, 1e-175]" in err
    assert "tolerance nan" not in err


def test_integrand_overflow_on_a_piece_too_narrow_to_probe_is_numerical_failure(tmp_path):
    # Exp(1e308)'s first quantile piece [0, 1e-323] holds no double to probe;
    # the command once ended in a ValueError traceback with exit 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "extropy", "measure", "extropy", "--family-x", "exp:1e308",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 3
    assert done.stderr.startswith("numerical failure: ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "report.json").exists()


def test_non_finite_result_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def infinite(form, window, models, t=None, atom_convention="ac"):
        return measures.MeasureReport(-np.inf, abs_error=np.inf)

    monkeypatch.setattr(measures, "_windowed", infinite)
    code = run(["measure", "extropy", "--family-x", "exp:1", "--out", str(tmp_path)])
    assert code == 3
    assert "report.results.abs_error is inf" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_estimate_overflowing_spread_is_numerical_failure(tmp_path, capsys):
    rng = np.random.default_rng(2)
    rows = ["arm,value"] + [f"{arm},{1e155 * v!r}" for arm in "ab" for v in rng.exponential(size=50).tolist()]
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = run(["estimate", str(path), "--value-col", "value", "--group-col", "arm",
                "--out", str(tmp_path / "out")])
    assert code == 3
    assert "spread overflows" in capsys.readouterr().err


def test_estimate_without_a_bandwidth_bracket_is_numerical_failure(tmp_path, capsys):
    # a tight cluster and one outlier: the bandwidth equation of arm a has no
    # sign change in its bracket
    rng = np.random.default_rng(1)
    a = np.concatenate([rng.normal(0.0, 1e-6, 199), [1.0]])
    b = np.random.default_rng(2).normal(size=200)
    rows = ["arm,value"] + [f"a,{v!r}" for v in a.tolist()] + [f"b,{v!r}" for v in b.tolist()]
    path = tmp_path / "cluster.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = run(["estimate", str(path), "--value-col", "value", "--group-col", "arm",
                "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "group 'a': " in err and "no sign change" in err


def test_estimate_underflowing_robust_scale_is_numerical_failure(tmp_path, capsys):
    # four zeros, 1e-300 and 1: the IQR is 7.5e-301, so the pilot widths' powers round
    # to 0; this exited 1 with a bare ZeroDivisionError
    (tmp_path / "tiny.csv").write_text("v\n0\n0\n0\n0\n1e-300\n1\n", encoding="utf-8")
    rows = ["v"] + [f"{v!r}" for v in np.random.default_rng(2).normal(size=50).tolist()]
    (tmp_path / "ok.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = run(["estimate", str(tmp_path / "tiny.csv"), str(tmp_path / "ok.csv"), "--value-col", "v",
                "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "robust scale" in err and "underflows" in err


_IMPORT_GUARD = """
import sys
from extropy.cli import main
out, csv = sys.argv[1:]
assert main(["verify", "--family-x", "exp:rate=1", "--family-y", "weibull:shape=2,scale=1",
             "--out", out + "/verify"]) == 4
print("loaded:", sorted(m for m in sys.modules if (m + ".").startswith(("scipy", "numpy.ma."))))
assert main(["groups", csv, "--value-col", "value", "--group-col", "arm",
             "--out", out + "/groups"]) == 0
assert main(["groups", csv, "--value-col", "value", "--group-col", "value", "--quantiles", "0.5",
             "--out", out + "/quantiles"]) == 0
assert main(["estimate", csv, "--value-col", "value", "--group-col", "arm",
             "--out", out + "/estimate"]) == 0
assert main(["measure", "relative", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
             "--out", out + "/measure"]) == 0
assert main(["simulate", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2", "--n", "20",
             "--reps", "3", "--out", out + "/simulate"]) == 0
assert main(["verify", "--family-x", "weibull:shape=0.7,scale=2", "--family-y", "exp:rate=2",
             "--out", out + "/singular"]) in (0, 4)
print("loaded:", sorted(m for m in sys.modules if (m + ".").startswith(("scipy", "numpy.ma."))))
"""


def test_cli_commands_load_no_scipy(tmp_path, two_group_csv):
    # a fresh interpreter: this test process has long imported scipy.  No
    # command here loads numpy.ma either (np.unique's first call imports it,
    # as np.percentile once did in the bandwidth of estimate, groups and
    # simulate, and np.quantile in the cuts of groups --quantiles).  simulate
    # sums over quadrature nodes under its lower bound, and verify on a Weibull
    # shape below 1 integrates pieces singular at 0: numpy serves both
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path), two_group_csv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: []", "loaded: []"]


def test_groups_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # groups of 600: the Sheather-Jones sums reduce blocks of 2^16 pair terms,
    # which a BLAS dot would split across its threads
    rng = np.random.default_rng(20261019)
    values = rng.lognormal(size=1200).tolist()
    csv = tmp_path / "rows.csv"
    csv.write_text("\n".join(["arm,value"] + [f"{'ab'[i % 2]},{v!r}" for i, v in enumerate(values)]),
                   encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "extropy", "groups", str(csv), "--value-col", "value",
             "--group-col", "arm", "--out", str(tmp_path / threads)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stderr
    for name in ("report.json", "matrix.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
