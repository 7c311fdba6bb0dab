#!/usr/bin/env python3
"""End-to-end grouped-divergence demo on synthetic customer data.

Generates a CSV of (income, spending) rows where the spending distribution
drifts across the income range, bands customers into income quintiles, and
emits the pairwise relative-extropy matrix, heatmap and report:

    python scripts/grouped_divergence_demo.py --rows 400 --seed 20260810 --out demo_out/
"""

import argparse
from pathlib import Path

import numpy as np

from extropy import load_csv, pairwise_matrix
from extropy.reports import write_heatmap, write_matrix_csv, write_report


def synthesize(path: Path, rows: int, seed: int) -> None:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    lines = ["income,spending"]
    for _ in range(rows):
        income = float(rng.uniform(15.0, 137.0))
        # spending drifts with income: mid incomes spend differently from the tails
        center = 50.0 + 18.0 * np.sin((income - 15.0) / 40.0)
        lines.append(f"{income:.2f},{rng.normal(center, 11.0):.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=400)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--quantiles", default="0.2,0.4,0.6,0.8")
    ap.add_argument("--out", default="demo_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "customers.csv"
    synthesize(csv_path, args.rows, args.seed)

    probs = tuple(float(p) for p in args.quantiles.split(","))
    ds = load_csv(str(csv_path), "spending", "income", cut_probabilities=probs)
    matrix = pairwise_matrix(ds)

    write_matrix_csv(out / "matrix.csv", matrix)
    write_heatmap(out / "heatmap.svg", matrix, title="relative extropy of spending by income band")
    write_report(
        out / "report.json",
        "grouped-divergence-demo",
        {"rows": args.rows, "seed": args.seed, "quantiles": list(probs)},
        {
            "labels": list(matrix.labels),
            "bandwidths": list(matrix.bandwidths),
            "matrix": matrix.values,
        },
    )

    width = max(len(l) for l in matrix.labels)
    print(f"income bands: {', '.join(matrix.labels)}")
    for label, row in zip(matrix.labels, matrix.values):
        cells = " ".join(f"{v:.5f}" for v in row)
        print(f"{label:>{width}}  {cells}")
    print(f"outputs in {out}/")


if __name__ == "__main__":
    main()
