#!/usr/bin/env python3
"""Benchmark of the extropy CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload simulate-exp --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, 35 s each, default seed

Run from the root of a source checkout; the package is imported from
``src/``.  Each job is a fresh ``python`` child (one at a time, numerical
libraries pinned to one thread) that times ``import extropy.cli`` and then
``extropy.cli.main(argv)``, both in CPU time, while a probe samples the
speed of the shared host (see child.py).  The end-to-end times are reported
at reference speed: the measured time times the job's mean probed speed, so
the host's changing speed does not show as a change of the program; the
times as measured are printed in the text summary.  Jobs
repeat for about ``--seconds`` (at least three with ``--trace 0``) and
medians are reported.  Every job's outputs go through the workload's gate,
and repeated jobs must write byte-identical files.

With ``--trace 1`` traced and untraced jobs alternate: the traced ones give
the per-layer metrics (see tracer.py) and the untraced ones the base for the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # no job starts that could end past this

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, ROOT, WORK, WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("compute_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
)


#: dynamic-layer functions whose call counts are reported one by one
DYNAMIC_DETAIL = (
    "residual_relative",
    "residual_divergence",
    "residual_extropy",
    "past_extropy",
    "past_inaccuracy",
    "past_relative",
    "past_divergence",
)


def _layer(prefix: str, *fields: str) -> list[str]:
    return [f"{prefix}.{f}" for f in fields]


PER_LAYER_NAMES = (
    _layer("quadrature.truncation_point", "calls", "self_s", "probe_evals", "distinct_ratio")
    + _layer("quadrature.integrate.parametric", "calls", "self_s", "evals", "subdivisions", "failures")
    + _layer("quadrature.integrate.estimation", "calls", "self_s", "evals", "subdivisions", "failures")
    + _layer("measures", "calls", "self_s")
    + _layer("dynamic", "calls", "self_s", "distinct_ratio")
    + [f"dynamic.{fn}.calls" for fn in DYNAMIC_DETAIL]
    + _layer("estimation.sheather_jones_bandwidth", "calls", "self_s", "brent_evals", "pair_terms_computed")
    + _layer("estimation.estimate_relative_extropy", "calls", "self_s")
    + _layer("estimation.kde", "points", "self_s", "kernel_terms_computed")
    + _layer("estimation.mc_bias_mse", "self_s", "reps", "failed_reps")
    + _layer("grouping.load_csv", "self_s", "rows")
    + _layer("grouping.pairwise_matrix", "self_s", "pairs")
    + _layer("reports", "self_s", "bytes")
    + ["cli.self_s", "trace.overhead_s"]
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("distinct_ratio") else "count"


class Job:
    """One child process and what the gate made of it."""

    def __init__(self, workload, seed: int, input_path: str, index: int, trace: bool,
                 reference: dict | None):
        self.out = WORK / workload.name / f"job{index:03d}"
        self.out.mkdir(parents=True)
        result_path = self.out / "child.json"
        argv = workload.argv(seed, input_path, self.out.relative_to(ROOT).as_posix())
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        with open(self.out / "stdout.txt", "wb") as so, open(self.out / "stderr.txt", "wb") as se:
            start = time.perf_counter()
            try:
                returncode = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(result_path),
                     "1" if trace else "0", str(workload.array_share), "--", *argv],
                    cwd=ROOT, env=env, stdout=so, stderr=se, timeout=CHILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                returncode = "timeout"
            self.wall_s = time.perf_counter() - start
        self.workload = workload
        self.trace = trace
        self.input_path = input_path
        self.problems = [] if returncode == 0 else [f"child exited {returncode}; see {se.name}"]
        self.result, report = {}, None
        if not self.problems:
            self.result = json.loads(result_path.read_text())
            try:
                self.problems = workload.gate(self.result["exit_code"], self.out, input_path, reference)
                path = self.out / "report.json"
                report = json.loads(path.read_text()) if path.is_file() else None
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self.problems = [f"outputs not in the expected form: {exc!r}"]
        self.items = workload.items(report) if not self.problems else 0
        # a job is one operation, and so is each Monte-Carlo replication in it
        rows = (report or {}).get("results", {}).get("rows")
        failed_reps = sum(r["failures"] for r in rows) if rows else workload.replications
        self.attempted = 1 + workload.replications
        self.failed = (1 if self.problems else 0) + (failed_reps if workload.replications else 0)
        self.outputs = {
            a: (self.out / a).read_bytes() for a in workload.artifacts if (self.out / a).is_file()
        }


def fresh_input(workload, seed: int) -> str:
    """Empty the workload's work directory and write its input for ``seed``."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return workload.prepare(work, seed)


def run_jobs(workload, seed: int, seconds: float, trace: bool) -> list[Job]:
    input_path = fresh_input(workload, seed)
    reference = workload.reference(seed)
    minimum = 2 if trace else 3
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 0
        jobs.append(Job(workload, seed, input_path, len(jobs), traced, reference))
        elapsed = time.perf_counter() - start
        if elapsed + 1.5 * max(j.wall_s for j in jobs) > RUN_LIMIT_S:
            break
        # start another job if it is expected to end closer to the end of the
        # run than stopping now would, so runs last --seconds on average
        expected = statistics.median(j.wall_s for j in jobs)
        if elapsed + expected / 2 > seconds and len(jobs) >= minimum:
            break
    correct = [j for j in jobs if not j.problems]
    for job in correct[1:]:
        if job.outputs != correct[0].outputs:
            job.problems.append("outputs differ from the first correct job's")
            job.failed += 1
    return jobs


def reference_wall_s(job: Job) -> float:
    """Wall time less the probe's, scaled as the child's CPU time was."""
    r = job.result
    scale = (r["setup_ref_s"] + r["compute_ref_s"]) / (r["setup_s"] + r["compute_s"])
    return (job.wall_s - r["probe_s"]) * scale


def end_to_end_metrics(jobs: list[Job]) -> dict:
    ok = [j for j in jobs if not j.problems]
    values = {
        "wall_s": [reference_wall_s(j) for j in ok],
        "compute_s": [j.result["compute_ref_s"] for j in ok],
        "setup_s": [j.result["setup_ref_s"] for j in ok],
        "peak_rss_mb": [j.result["peak_rss_mb"] for j in ok],
        "items_per_s": [j.items / j.result["compute_ref_s"] for j in ok],
    }
    return {
        name: {"value": statistics.median(values[name]) if ok else float("nan"), "unit": unit}
        for name, unit in END_TO_END
    }


def measured_times(jobs: list[Job]) -> dict:
    """Median times as measured, for the text summary."""
    ok = [j for j in jobs if not j.problems]
    if not ok:
        return {}
    return {
        "wall_s": statistics.median(j.wall_s for j in ok),
        "compute_s": statistics.median(j.result["compute_s"] for j in ok),
        "setup_s": statistics.median(j.result["setup_s"] for j in ok),
    }


def per_layer_metrics(jobs: list[Job]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced jobs, plus any disagreement between them."""
    traced = [j for j in jobs if j.trace and not j.problems]
    untraced = [j for j in jobs if not j.trace and not j.problems]
    if not traced or not untraced:
        return {}, ["no correct traced and untraced job pair"]
    counts = [j.result["trace"]["counts"] for j in traced]
    problems = [] if all(c == counts[0] for c in counts) else ["traced jobs disagree on counters"]
    metrics = {}
    for name in PER_LAYER_NAMES:
        prefix, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            value = statistics.median(
                j.result["compute_ref_s"] for j in traced
            ) - statistics.median(j.result["compute_ref_s"] for j in untraced)
        elif field == "self_s":
            value = statistics.median(j.result["trace"]["self_s"].get(prefix, 0.0) for j in traced)
        elif field == "distinct_ratio":
            value = traced[0].result["trace"]["distinct_ratio"][prefix]
        else:
            value = counts[0].get(name, 0)
        metrics[name] = {"value": value, "unit": per_layer_unit(name)}
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    jobs = run_jobs(workload, seed, seconds, trace)
    problems = [f"job {i}: {p}" for i, j in enumerate(jobs) for p in j.problems]
    if trace:
        metrics, trace_problems = per_layer_metrics(jobs)
        problems += trace_problems
    else:
        metrics = end_to_end_metrics(jobs)
    for p in problems:
        print(f"{name}: FAILED {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(j.attempted for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "metrics": metrics,
        "jobs": len(jobs),
        "measured": measured_times(jobs),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "extropy" / "cli.py").is_file():
        print(f"no extropy source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    seed = args.seed % 2**63
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, seed, args.seconds, bool(args.trace)) for name in names}
    for name, res in results.items():
        print(f"{name}: {res['jobs']} jobs, failed_frac = {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']} of {res['attempted']} operations; one item = {WORKLOADS[name].item})")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for metric, value in res["measured"].items():
            print(f"  {metric} = {value:.6g} s as measured, not at reference speed")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
