"""The benchmark's workloads: CLI arguments, inputs made from the seed, and the
output gate that decides whether a job's results are correct.

Each workload is dominated by a different layer of the package (measured
with the tracer at the commit the reference was recorded on):

* ``verify-exp-weibull``: parametric quadrature on unbounded supports; the
  tail-truncation search is most of the compute, no SJ or KDE work.
* ``simulate-exp``: many small-n estimates; quadrature over the KDE
  integrand is most of the compute, SJ the rest, almost no truncation search
  (only for the true value).
* ``groups-quantile``: few large-n estimates; the Sheather-Jones bandwidth
  is nearly all of the compute.

No flag that changes nothing is passed (no ``--seed`` to ``verify`` or
``groups``, no ``--format``), so the arguments survive the removal of those
flags from the CLI.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 20260810
ROOT = Path(__file__).resolve().parent.parent  # the source checkout
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Tolerances of the package at the commit the reference was recorded on:
# QuadratureSpec.abs_tol bounds every integral, and the brentq call in
# estimation.sheather_jones_bandwidth solves the standardized bandwidth to
# |dh| <= xtol + rtol*|h|.  Two results that each meet a bound may differ by
# twice it; every estimate is half an integral, so abs_tol covers it.
ABS_TOL = 1e-9
BRENT_XTOL = 1e-14
BRENT_RTOL = 8.9e-16

CUSTOMER_ROWS = 8000
QUANTILES = (0.1, 0.3, 0.6)
SIM_SIZES = (50, 200)
SIM_REPS = 100


def synthesize_customers(path: Path, seed: int, rows: int = CUSTOMER_ROWS) -> None:
    """(income, spending) rows whose spending drifts with income."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    income = rng.uniform(15.0, 137.0, rows)
    spending = rng.normal(50.0 + 18.0 * np.sin((income - 15.0) / 40.0), 11.0)
    lines = ["income,spending"]
    lines += [f"{i:.2f},{s:.3f}" for i, s in zip(income, spending)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _bands(csv_path: str) -> list[np.ndarray]:
    """Spending per income band, formed as ``grouping.load_csv`` forms them."""
    with open(ROOT / csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    income = np.array([float(r["income"]) for r in rows])
    spending = np.array([float(r["spending"]) for r in rows])
    band = np.searchsorted(np.quantile(income, QUANTILES), income, side="left")
    return [spending[band == b] for b in range(len(QUANTILES) + 1)]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    expected_exit: int
    artifacts: tuple[str, ...]
    argv: Callable[[int, str, str], list[str]]
    items: Callable[[dict], int]
    check: Callable[[dict, Path, str], list[str]]
    prepare: Callable[[Path, int], str] = lambda work, seed: ""
    replications: int = 0
    compare: Callable[[dict, dict, str], list[str]] | None = None
    seeded: bool = True
    #: share of the compute that streams over arrays larger than the cache;
    #: the probe of the host's speed weights its array kernel by it (child.py)
    array_share: float = 0.0

    def reference(self, seed: int) -> dict | None:
        """Recorded results to compare against: at the default seed, or at
        every seed when the job does not use it."""
        if self.compare is None or (self.seeded and seed != DEFAULT_SEED):
            return None
        return _load_json(REFERENCE)[self.name]

    def gate(self, exit_code: int, out: Path, input_path: str, reference: dict | None) -> list[str]:
        """Every reason the job's outputs are wrong; empty when correct."""
        if exit_code != self.expected_exit:
            return [f"exit code {exit_code}, expected {self.expected_exit}"]
        missing = [a for a in self.artifacts if not (out / a).is_file()]
        if missing:
            return [f"missing outputs: {missing}"]
        results = _load_json(out / "report.json")["results"]
        problems = self.check(results, out, input_path)
        if not problems and reference is not None:
            problems = self.compare(results, reference, input_path)
        return problems


# -- verify --------------------------------------------------------------------


def _verify_check(results: dict, out: Path, input_path: str) -> list[str]:
    problems = [f"check {c['name']} does not hold" for c in results["checks"] if not c["holds"]]
    if results["all_identities_hold"] is not True:
        problems.append("all_identities_hold is not true")
    if results["hypothesis_not_met"] is not True:
        problems.append("exit 4 without hypothesis_not_met")
    return problems


def _verify_compare(results: dict, ref: dict, input_path: str) -> list[str]:
    problems = [f"check {c['name']}: residual above its tolerance"
                for c in results["checks"] if not c["max_abs_residual"] <= c["tolerance"]]
    if [c["name"] for c in results["checks"]] != ref["checks"]:
        problems.append("the set of checks differs from reference")
    if results["orderings"] != ref["orderings"]:
        problems.append(f"orderings {results['orderings']} differ from reference")
    bounds = [{k: b[k] for k in ("kind", "holds", "hypothesis_met")} for b in results["bounds"]]
    if bounds != ref["bounds"]:
        problems.append(f"bounds {bounds} differ from reference")
    return problems


# -- simulate ------------------------------------------------------------------


def _simulate_check(results: dict, out: Path, input_path: str) -> list[str]:
    rows = results["rows"]
    problems = []
    if [r["n"] for r in rows] != list(SIM_SIZES):
        problems.append(f"rows for n={[r['n'] for r in rows]}, expected {list(SIM_SIZES)}")
    for r in rows:
        if r["failures"] != 0:
            problems.append(f"n={r['n']}: {r['failures']} failed replications")
        if not _finite([r["mean_estimate"], r["bias"], r["mse"]]) or r["mse"] < 0:
            problems.append(f"n={r['n']}: non-finite or negative statistics")
    study = (out / "study.csv").read_text(encoding="utf-8").splitlines()
    if len(study) != len(SIM_SIZES) + 1:
        problems.append(f"study.csv has {len(study)} lines")
    return problems


# -- groups --------------------------------------------------------------------


def _groups_prepare(work: Path, seed: int) -> str:
    path = work / "customers.csv"
    synthesize_customers(path, seed)
    return path.relative_to(ROOT).as_posix()


def _groups_check(results: dict, out: Path, input_path: str) -> list[str]:
    k = len(QUANTILES) + 1
    labels, matrix, bws = results["labels"], results["matrix"], results["bandwidths"]
    if len(labels) != k or len(bws) != k or [len(r) for r in matrix] != [k] * k:
        return [f"expected {k} groups, got labels {labels}"]
    problems = []
    if sum(results["group_sizes"]) + results["dropped_rows"] != CUSTOMER_ROWS:
        problems.append("group sizes do not account for every row")
    if not _finite(bws) or min(bws) <= 0:
        problems.append(f"bandwidths not finite and positive: {bws}")
    cells = [v for row in matrix for v in row]
    if not _finite(cells):
        problems.append("matrix has non-finite cells")
    for i in range(k):
        if matrix[i][i] != 0.0:
            problems.append(f"diagonal cell {i} is {matrix[i][i]}")
        for j in range(i + 1, k):
            if matrix[i][j] != matrix[j][i]:
                problems.append(f"matrix not symmetric at ({i}, {j})")
            if not matrix[i][j] > 0:
                problems.append(f"off-diagonal cell ({i}, {j}) is {matrix[i][j]}")
    with open(out / "matrix.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if table[0][1:] != labels or len(table) != k + 1:
        problems.append("matrix.csv labels or shape differ from report.json")
    return problems


# -- comparison with the reference values at the default seed ------------------


def _close(problems: list[str], label: str, a: float, b: float, tol: float) -> None:
    if not abs(a - b) <= tol:
        problems.append(f"{label}: {a!r} differs from reference {b!r} by more than {tol:.3g}")


def _simulate_compare(results: dict, ref: dict, input_path: str) -> list[str]:
    if [r["n"] for r in results["rows"]] != [r["n"] for r in ref["rows"]]:
        return ["simulate rows differ from reference sizes"]
    problems: list[str] = []
    _close(problems, "true_value", results["true_value"], ref["true_value"], ABS_TOL)
    for r, q in zip(results["rows"], ref["rows"]):
        for key in ("mean_estimate", "bias", "mse"):
            _close(problems, f"n={r['n']} {key}", r[key], q[key], ABS_TOL)
        if r["failures"] != q["failures"]:
            problems.append(f"n={r['n']}: failures differ from reference")
    return problems


def _groups_compare(results: dict, ref: dict, input_path: str) -> list[str]:
    if results["labels"] != ref["labels"] or results["group_sizes"] != ref["group_sizes"]:
        return ["group labels or sizes differ from reference"]
    problems: list[str] = []
    for i, (row, ref_row) in enumerate(zip(results["matrix"], ref["matrix"])):
        for j, (a, b) in enumerate(zip(row, ref_row)):
            _close(problems, f"matrix[{i}][{j}]", a, b, ABS_TOL)
    bands = _bands(input_path)
    for i, (bw, ref_bw, band) in enumerate(zip(results["bandwidths"], ref["bandwidths"], bands)):
        sd = float(np.std(band, ddof=1))
        tol = 2.0 * (BRENT_XTOL * sd + BRENT_RTOL * abs(ref_bw))
        _close(problems, f"bandwidth[{i}]", bw, ref_bw, tol)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-exp-weibull",
            why=(
                "parametric quadrature on unbounded supports: truncation search is most of "
                "the compute, no SJ or KDE; items are grid points"
            ),
            item="grid point",
            expected_exit=4,  # the documented "hypothesis not met" code for this pair
            artifacts=("report.json",),
            argv=lambda seed, inp, out: [
                "verify", "--family-x", "exp:rate=1", "--family-y", "weibull:shape=2,scale=1",
                "--out", out,
            ],
            items=lambda report: len(report["inputs"]["grid"]),
            check=_verify_check,
            compare=_verify_compare,
            seeded=False,
        ),
        Workload(
            name="simulate-exp",
            why=(
                "many small-n estimates: quadrature over the KDE integrand dominates, SJ on the "
                "cached path is the rest, almost no truncation search (only the true value); "
                "items are replications"
            ),
            item="replication",
            expected_exit=0,
            artifacts=("report.json", "study.csv"),
            argv=lambda seed, inp, out: [
                "simulate", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
                "--n", ",".join(map(str, SIM_SIZES)), "--reps", str(SIM_REPS),
                "--seed", str(seed), "--out", out,
            ],
            items=lambda report: len(SIM_SIZES) * SIM_REPS,
            check=_simulate_check,
            replications=len(SIM_SIZES) * SIM_REPS,
            compare=_simulate_compare,
        ),
        Workload(
            name="groups-quantile",
            why=(
                "few large-n estimates with no lower bound: SJ on the cached and chunked paths "
                "is nearly all the compute; items are CSV rows"
            ),
            item="CSV row",
            expected_exit=0,
            artifacts=("report.json", "matrix.csv", "heatmap.svg"),
            argv=lambda seed, inp, out: [
                "groups", inp, "--value-col", "spending", "--group-col", "income",
                "--quantiles", ",".join(map(str, QUANTILES)), "--out", out,
            ],
            items=lambda report: CUSTOMER_ROWS,
            check=_groups_check,
            prepare=_groups_prepare,
            compare=_groups_compare,
            array_share=0.5,
        ),
    )
}
