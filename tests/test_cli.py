import json

import numpy as np
import pytest

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


def test_measure_gf_direction_labeled(tmp_path):
    code = run(["measure", "divergence-gf", "--family-x", "exp:rate=1",
                "--family-y", "exp:rate=2", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["measure_id"] == "divergence_gf"
    assert abs(report["results"]["value"] - 1 / 6) < 1e-8


def test_groups_format_selects_outputs(two_group_csv, tmp_path):
    out = tmp_path / "fmt"
    code = run(["groups", two_group_csv, "--value-col", "value", "--group-col", "arm",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    assert (out / "matrix.csv").exists()
    assert not (out / "heatmap.svg").exists()
    assert (out / "report.json").exists()
