"""Self-checks of the benchmark: the tracer, the gate and the input generator.

    python3 -m pytest perfbench/checks.py -q      # about 70 s on 2 cores

Each workload runs traced, untraced, then traced again at the default seed,
so the reference comparison of the gate is exercised as well.
"""

import functools
import json
import shutil
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER_NAMES, ROOT, Job, fresh_input, per_layer_unit
from workloads import ABS_TOL, DEFAULT_SEED, WORKLOADS, synthesize_customers

TRACES = (True, False, True)


@functools.cache
def run_traces(name: str) -> list[Job]:
    workload = WORKLOADS[name]
    input_path = fresh_input(workload, DEFAULT_SEED)
    reference = workload.reference(DEFAULT_SEED)
    return [Job(workload, DEFAULT_SEED, input_path, i, t, reference) for i, t in enumerate(TRACES)]


@pytest.fixture(params=list(WORKLOADS))
def jobs(request):
    return run_traces(request.param)


def test_every_job_passes_the_gate(jobs):
    assert [j.problems for j in jobs] == [[] for _ in jobs]
    assert sum(j.failed for j in jobs) == 0


def test_speed_probe_is_cheap_and_sampled(jobs):
    for job in jobs:
        r = job.result
        assert r["probe_s"] > 0 and r["compute_ref_s"] > 0 and r["setup_ref_s"] > 0
        assert r["probe_s"] < 0.05 * (r["setup_s"] + r["compute_s"]), r


def test_traced_counters_repeat(jobs):
    first, second = (j.result["trace"] for j in jobs if j.trace)
    assert first["counts"] == second["counts"]
    assert first["distinct_ratio"] == second["distinct_ratio"]
    assert first["self_s"].keys() == second["self_s"].keys()


def test_traced_outputs_match_untraced(jobs):
    traced, untraced = jobs[0], jobs[1]
    assert traced.outputs.keys() == set(traced.workload.artifacts)
    assert traced.outputs == untraced.outputs


def test_trace_shows_the_layer_each_workload_stresses(jobs):
    """The dominant layer named in workloads.py is most of the traced compute."""
    self_s = jobs[0].result["trace"]["self_s"]
    name = jobs[0].workload.name
    dominant = {
        "verify-exp-weibull": ["quadrature.truncation_point"],
        # the KDE is evaluated only inside the estimator's integrand
        "simulate-exp": ["quadrature.integrate.estimation", "estimation.kde"],
        "groups-quantile": ["estimation.sheather_jones_bandwidth"],
    }[name]
    # the cli span encloses every other one, so the self times add up to its wall time
    share = sum(self_s.get(layer, 0.0) for layer in dominant) / sum(self_s.values())
    assert share > 0.5, (name, share, self_s)


def test_csv_generator_is_deterministic_in_the_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    synthesize_customers(a, 7)
    synthesize_customers(b, 7)
    synthesize_customers(c, 8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def _perturbed_gate(job, tmp_path: Path, cells, delta: float, reference):
    out = tmp_path / "out"
    shutil.copytree(job.out, out)
    report = json.loads((out / "report.json").read_text())
    for i, j in cells:
        report["results"]["matrix"][i][j] += delta
    (out / "report.json").write_text(json.dumps(report))
    return job.workload.gate(0, out, job.input_path, reference)


def test_gate_rejects_a_matrix_cell_beyond_tolerance(tmp_path):
    job = run_traces("groups-quantile")[1]
    reference = WORKLOADS["groups-quantile"].reference(DEFAULT_SEED)
    mirrored = [(0, 1), (1, 0)]
    assert _perturbed_gate(job, tmp_path / "a", mirrored, 0.5 * ABS_TOL, reference) == []
    problems = _perturbed_gate(job, tmp_path / "b", mirrored, 10 * ABS_TOL, reference)
    assert problems and all("matrix[" in p for p in problems)
    # off the default seed there is no reference, but an asymmetric cell still fails
    problems = _perturbed_gate(job, tmp_path / "c", [(0, 1)], 10 * ABS_TOL, None)
    assert problems == ["matrix not symmetric at (0, 1)"]


def test_gate_rejects_a_changed_verify_ordering_or_bound(tmp_path):
    job = run_traces("verify-exp-weibull")[1]
    reference = job.workload.reference(DEFAULT_SEED + 1)  # verify ignores the seed
    for edit in (
        lambda r: r["orderings"].update(rex="<"),
        lambda r: r["bounds"][0].update(holds=True),
        lambda r: r["bounds"][1].update(hypothesis_met=True),
    ):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        shutil.copytree(job.out, out)
        report = json.loads((out / "report.json").read_text())
        edit(report["results"])
        (out / "report.json").write_text(json.dumps(report))
        problems = job.workload.gate(4, out, job.input_path, reference)
        assert len(problems) == 1 and "differ from reference" in problems[0], problems


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, per_layer_unit(name)) for name in PER_LAYER_NAMES
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
