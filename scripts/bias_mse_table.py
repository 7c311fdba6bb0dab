#!/usr/bin/env python3
"""Bias/MSE table for the relative-extropy estimator.

Runs the Monte-Carlo study for a pair of families over several sample sizes
and prints the table, optionally writing study.csv.  The true value is
computed by quadrature from the family models, so any supported pair works:

    python scripts/bias_mse_table.py --family-x exp:rate=1 --family-y exp:rate=2 \
        --sizes 50,75,100 --reps 500 --seed 20260810 --out results/
"""

import argparse
from pathlib import Path

from extropy import McStudyConfig, mc_bias_mse, parse_family, relative_extropy
from extropy.reports import write_study_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family-x", default="exp:rate=1")
    ap.add_argument("--family-y", default="exp:rate=2")
    ap.add_argument("--sizes", default="50,75,100")
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--full-interval", action="store_true",
                    help="integrate over the whole line instead of from the left end "
                    "of the supports' hull")
    ap.add_argument("--out", default=None, help="directory for study.csv (optional)")
    args = ap.parse_args()

    px, py = parse_family(args.family_x), parse_family(args.family_y)
    true_value = relative_extropy(px, py).value
    # the config cuts off at the left end of the supports' hull unless told None
    whole_line = {"support_lower": None} if args.full_interval else {}
    print(f"true d(f,g) = {true_value:.6f}  ({args.family_x} vs {args.family_y})")
    print(f"{'n':>6} {'mean':>10} {'bias':>10} {'mse':>12}")

    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        cfg = McStudyConfig(
            family_x=px,
            family_y=py,
            n=n,
            reps=args.reps,
            seed=args.seed,
            true_value=true_value,
            **whole_line,
        )
        row = mc_bias_mse(cfg)
        rows.append(row)
        print(f"{row.n:>6} {row.mean_estimate:>10.5f} {row.bias:>+10.5f} {row.mse:>12.3e}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = write_study_csv(out / "study.csv", rows)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
