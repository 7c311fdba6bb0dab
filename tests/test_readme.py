"""The Library example of README.md runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    block = re.search(r"## Library\n.*?```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md has no Library example"
    # the example reads customers.csv: (income, spending) rows whose spending drifts with income
    rng = np.random.default_rng(0)
    income = rng.uniform(15.0, 137.0, 400)
    spending = rng.normal(50.0 + 18.0 * np.sin((income - 15.0) / 40.0), 11.0)
    rows = ["income,spending"] + [f"{i:.2f},{s:.3f}" for i, s in zip(income, spending)]
    (tmp_path / "customers.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(block.group(1), str(README), "exec"), names)
    assert abs(names["relative_extropy"](names["fx"], names["fy"]).value - 1 / 12) < 1e-8
    assert float(names["fy"].hazard(0.5)) == 2.0
    assert len(names["ds"].groups) == 5 and names["matrix"].values.shape == (5, 5)
