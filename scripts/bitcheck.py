#!/usr/bin/env python3
"""What a change moved: a bit manifest of a source tree, and a comparison of two.

``write`` runs a fixed sweep of Sheather-Jones bandwidths and the CLI's
reports at fixed seeds, and writes one line per item: a bandwidth's bits (or
the type and message of what the solve raised), a run's exit code, and each
report file's SHA-256 with the numbers it holds.  ``compare`` prints each item
that differs between two manifests with its largest relative move, and counts
the changed exceptions:

    python scripts/bitcheck.py write new.txt
    python scripts/bitcheck.py write old.txt --src ../parent/src
    python scripts/bitcheck.py compare old.txt new.txt

Write both manifests on one machine: the last bits of ``np.exp`` may differ
between CPUs, so a manifest is no reference to keep.  ``--quick`` writes a
small slice (every kind at three sizes, the edge samples and two small runs)
in a few seconds.  ``compare`` exits 1 when the manifests differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REPORT_SEEDS = (20260810, 1, 2)

# the sweep's kinds, each drawn as kind(rng, n): light and heavy tails, ties,
# lattices and clusters; the bandwidth is scale-free, so scales are the edge samples'
KINDS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "exponential": lambda rng, n: rng.exponential(size=n),
    "uniform": lambda rng, n: rng.uniform(size=n),
    "rounded": lambda rng, n: np.round(rng.normal(size=n), 1),
    "band": lambda rng, n: np.round(rng.normal(50.0, 11.0, n), 3),
    "lattice": lambda rng, n: rng.integers(0, 10, n).astype(float),
    "three-valued": lambda rng, n: rng.choice([0.0, 1.0, 2.5], n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 3.0, n),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "pareto": lambda rng, n: rng.pareto(1.0, n),
    "t1.5": lambda rng, n: rng.standard_t(1.5, n),
    "bimodal": lambda rng, n: np.concatenate([rng.normal(size=n // 2), rng.normal(5.0, 1.0, n - n // 2)]),
    "cluster-outlier": lambda rng, n: np.append(rng.normal(0.0, 1e-3, n - 1), 1.0),
    "ties-outliers": lambda rng, n: np.append(np.round(rng.normal(size=n - 2)), [30.0, -30.0]),
}
# 257 and 363 are the first sizes past one kept block and past the keep cap
SIZES = (5, 6, 8, 10, 13, 17, 23, 30, 40, 50, 70, 100, 140, 200,
         256, 257, 300, 362, 363, 500, 800, 1600, 3200)
SWEEP_SEEDS = range(9)
QUICK_SIZES, QUICK_SEEDS = (5, 50, 363), range(1)


def edge_samples() -> dict[str, np.ndarray]:
    """Scales from 1e-300 to 1e200, constant, two-point, too small, and robust
    scales that underflow against the sd."""
    base = np.random.default_rng(0).normal(size=50)
    edges = {f"normal50x1e{k}": base * 10.0**k for k in (-300, -200, -100, -10, 10, 100, 150, 154, 155, 200)}
    edges["constant"] = np.ones(10)
    edges["two-point"] = np.repeat([0.0, 1.0], 5)
    edges["n4"] = base[:4]
    edges["iqr-1e-300"] = np.array([0.0, 0.0, 0.0, 0.0, 1e-300, 1.0])
    edges["iqr-1e-46"] = np.array([0.0, 0.0, 0.0, 0.0, 1e-46, 1.0])
    edges["iqr-1e-300-n401"] = np.array([0.0] * 300 + [1e-300] * 100 + [1.0])
    return edges


def sweep_lines(quick: bool):
    from extropy.estimation import SampleBatch, sheather_jones_bandwidth

    def outcome(x: np.ndarray) -> str:
        try:
            return sheather_jones_bandwidth(SampleBatch(x)).hex()
        except Exception as exc:  # the manifest records what any solve raises
            return f"!{type(exc).__name__}: {exc}"

    sizes, seeds = (QUICK_SIZES, QUICK_SEEDS) if quick else (SIZES, SWEEP_SEEDS)
    for k, (kind, draw) in enumerate(KINDS.items()):
        for n in sizes:
            for seed in seeds:
                yield f"sj/{kind}/n={n}/seed={seed}", outcome(draw(np.random.default_rng([seed, n, k]), n))
    for name, x in edge_samples().items():
        yield f"sj/edge/{name}", outcome(x)


def _write_sample(path: Path, values) -> None:
    path.write_text("v\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")


def runs(work: Path, quick: bool):
    """(name, argv) of every CLI run, after writing the inputs it reads under ``work``."""
    if quick:
        yield "simulate/seed=1", ["simulate", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
                                  "--n", "20", "--reps", "3", "--seed", "1"]
        yield "measure/relative", ["measure", "relative", "--family-x", "exp:1", "--family-y", "exp:2"]
        return
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import QUANTILES, synthesize_customers

    for seed in REPORT_SEEDS:
        rng = np.random.default_rng(seed)
        _write_sample(work / f"exp1-{seed}.csv", rng.exponential(1.0, 200))
        _write_sample(work / f"exp2-{seed}.csv", rng.exponential(0.5, 200))
        _write_sample(work / f"cauchy-{seed}.csv", rng.standard_cauchy(1600))
        _write_sample(work / f"t-{seed}.csv", rng.standard_t(1.5, 1600))
        synthesize_customers(work / f"customers-{seed}.csv", seed)
        for reflect in ("off", "on"):
            tag = f"seed={seed}/reflect={reflect}"
            yield f"simulate/{tag}", ["simulate", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
                                      "--n", "50,200", "--reps", "100", "--seed", str(seed),
                                      "--boundary-reflect", reflect]
            yield f"groups/{tag}", ["groups", f"customers-{seed}.csv", "--value-col", "spending",
                                    "--group-col", "income", "--quantiles", ",".join(map(str, QUANTILES)),
                                    "--boundary-reflect", reflect]
            for pair in (("exp1", "exp2"), ("cauchy", "t")):
                yield f"estimate/{'-'.join(pair)}/{tag}", ["estimate", *(f"{p}-{seed}.csv" for p in pair),
                                                           "--value-col", "v", "--boundary-reflect", reflect]
    for x, y in (("exp:rate=1", "weibull:shape=2,scale=1"), ("weibull:shape=0.7,scale=2", "exp:rate=2"),
                 ("crh:a=1,b=2,atom=true", "crh:a=0.5,b=2,atom=true")):
        yield f"verify/{x}/{y}", ["verify", "--family-x", x, "--family-y", y]
    from extropy.cli import _MEASURES

    for name, (_, window, _) in sorted(_MEASURES.items()):
        t = [] if window == "support" else ["--t", "0.5"]  # only the windowed measures take --t
        yield f"measure/{name}", ["measure", name, "--family-x", "exp:1", "--family-y", "exp:2", *t]


_NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def report_lines(quick: bool):
    from extropy.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cwd = os.getcwd()
        os.chdir(work)  # inputs by relative path: no report names the temporary directory
        try:
            for i, (name, argv) in enumerate(runs(work, quick)):
                out = work / f"out{i}"
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, "--out", out.name])
                yield f"run/{name}", f"exit={code}"
                for path in sorted(out.iterdir()) if out.is_dir() else ():
                    data = path.read_bytes()
                    numbers = b",".join(_NUMBER.findall(data)).decode()
                    yield f"report/{name}/{path.name}", f"{hashlib.sha256(data).hexdigest()}\t{numbers}"
        finally:
            os.chdir(cwd)


def write(path: Path, quick: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lines in (sweep_lines(quick), report_lines(quick)):
            for key, value in lines:
                fh.write(f"{key}\t{value}\n")


def _read(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh)


def _move(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 where they are equal."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(old_path: Path, new_path: Path) -> int:
    old, new = _read(old_path), _read(new_path)
    changed = exceptions = 0
    largest: dict[str, tuple[float, str]] = {}
    for key in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        changed += 1
        group = key.split("/", 1)[0] if key.startswith("sj/") else "/".join(key.split("/", 2)[:2])
        if a is None or b is None:
            print(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        if key.startswith("sj/") and (a.startswith("!") or b.startswith("!")):
            exceptions += 1
            print(f"{key}: {a} -> {b}")
            continue
        if key.startswith("sj/"):
            move = _move(float.fromhex(a), float.fromhex(b))
        elif key.startswith("report/"):
            xs, ys = (v.split("\t", 1)[1].split(",") for v in (a, b))
            if len(xs) != len(ys):
                print(f"{key}: {len(xs)} -> {len(ys)} numbers")
                continue
            move = max(_move(float(x), float(y)) for x, y in zip(xs, ys))
        else:
            print(f"{key}: {a} -> {b}")
            continue
        print(f"{key}: largest relative move {move:.3g}")
        if move > largest.get(group, (-1.0, ""))[0]:
            largest[group] = (move, key)
    print(f"{changed} of {len(set(old) | set(new))} items changed; {exceptions} exceptions changed")
    for group, (move, key) in sorted(largest.items()):
        print(f"largest move in {group}: {move:.3g} ({key})")
    return 1 if changed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the manifest of a source tree")
    w.add_argument("out", type=Path)
    w.add_argument("--src", type=Path, default=ROOT / "src", help="the package's source directory")
    w.add_argument("--quick", action="store_true", help="a small slice of the sweep and reports")
    c = sub.add_parser("compare", help="print what moved between two manifests")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = ap.parse_args()
    if args.command == "compare":
        return compare(args.old, args.new)
    sys.path.insert(0, str(args.src.resolve()))
    write(args.out.resolve(), args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
