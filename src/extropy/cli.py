"""Command-line interface.

Subcommands map onto the library layers: ``measure`` (closed-form/quadrature
measures between named families, optionally at a time t), ``estimate`` (two
samples -> relative-extropy estimate, the one pair of a two-group
``pairwise_matrix``), ``simulate`` (Monte-Carlo bias/MSE table), ``groups``
(CSV -> pairwise divergence matrix + heatmap), ``verify`` (identity/ODE/bound
suites on a model pair).  Each command writes all of its files to ``--out``:
``report.json``, plus ``study.csv`` for ``simulate`` and ``matrix.csv`` and
``heatmap.svg`` for ``groups``.  Family specs are read by
:func:`~extropy.distributions.parse_family`.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 a verify-suite
hypothesis was declared but does not hold empirically.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamic, measures
from .distributions import parse_family
from .errors import ExtropyError, InsufficientGrid, InvalidParameter
from .estimation import McStudyConfig, mc_bias_mse
from .grouping import GroupedDataset, load_csv, load_sample, pairwise_matrix
from .reports import write_heatmap, write_matrix_csv, write_report, write_study_csv

# measure name -> (form, window, swap): each form of ``measures._FORMS`` over
# each window, and J(g|f) as J(f|g) with X and Y swapped.  A name's
# measure_id is the name with "-" -> "_".
_MEASURES = {
    prefix + form.replace("_", "-").replace("fg", "gf" if swap else "fg"): (form, window, swap)
    for prefix, window in (("", "support"), ("residual-", "residual"), ("past-", "past"))
    for form in measures._FORMS
    for swap in ((False, True) if form.endswith("_fg") else (False,))
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extropy",
        description="Extropy-based information measures, estimation and grouped analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, needs_y=False):
        p.add_argument("--family-x", required=True, help="e.g. exp:rate=1 or weibull:shape=2,scale=1")
        p.add_argument("--family-y", required=needs_y, help="second family spec")
        p.add_argument("--out", default=".", help="output directory (default: current)")

    p = sub.add_parser("measure", help="evaluate one measure between named families")
    p.add_argument("name", choices=sorted(_MEASURES))
    add_common(p)
    p.add_argument("--t", default=None, help="time point of the residual- and past- measures (the others refuse it)")
    p.add_argument("--atom-convention", choices=("paper", "ac"), default="ac")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("estimate", help="estimate relative extropy from two samples")
    p.add_argument("csv", nargs="+", help="one CSV with a 2-level group column, or two CSVs")
    p.add_argument("--value-col", required=True)
    p.add_argument("--group-col", default=None)
    p.add_argument("--boundary-reflect", choices=("on", "off"), default="off")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="Monte-Carlo bias/MSE study for the estimator")
    add_common(p, needs_y=True)
    p.add_argument("--n", default="50,75,100", help="sample sizes, comma separated")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--boundary-reflect", choices=("on", "off"), default="off")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("groups", help="pairwise divergence matrix over CSV groups")
    p.add_argument("csv")
    p.add_argument("--value-col", required=True)
    p.add_argument("--group-col", required=True)
    p.add_argument("--quantiles", default=None, help="e.g. 0.2,0.4,0.6,0.8 to band a numeric column")
    p.add_argument("--boundary-reflect", choices=("on", "off"), default="off")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("verify", help="run identity/ODE/bound suites on a model pair")
    add_common(p, needs_y=True)
    p.add_argument("--t", default=None, help="grid times, comma separated (default: auto)")
    p.add_argument("--atom-convention", choices=("paper", "ac"), default="ac")
    p.set_defaults(func=cmd_verify)

    return parser


def _numbers(text: str, flag: str, kind) -> list:
    """The comma-separated finite numbers of a flag's value, each parsed by ``kind``."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise InvalidParameter(f"{flag} takes comma-separated numbers, got {text!r}")
    if not all(-math.inf < v < math.inf for v in values):  # NaN compares False
        raise InvalidParameter(f"{flag} takes finite numbers, got {text!r}")
    return values


def _inputs(args, *drop: str, **values) -> dict:
    """A report's inputs: every parsed flag but the subcommand, its handler, the
    measure name and ``--out``, less ``drop``, with ``values`` set in place."""
    skip = {"command", "func", "name", "out", *drop}
    return {key: value for key, value in vars(args).items() if key not in skip} | values


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_measure(args) -> int:
    form, window, swap = _MEASURES[args.name]
    dx = parse_family(args.family_x)
    dy = parse_family(args.family_y) if args.family_y else None
    if form != "extropy" and dy is None:
        raise InvalidParameter(f"measure {args.name!r} needs --family-y")
    if (window == "support") != (args.t is None):
        problem = "needs --t" if args.t is None else "takes no --t: it runs over the whole support"
        raise InvalidParameter(f"measure {args.name!r} {problem}")
    times = [None] if args.t is None else _numbers(args.t, "--t", float)
    if len(times) != 1:
        raise InvalidParameter(f"measure takes one --t, got {args.t!r}")
    models = (dx,) if form == "extropy" else (dy, dx) if swap else (dx, dy)
    report = measures._windowed(form, window, models, times[0], args.atom_convention)
    measure_id = args.name.replace("-", "_")
    out = _outdir(args)
    write_report(
        out / "report.json",
        f"measure {args.name}",
        _inputs(args, t=times[0]),
        {
            "measure_id": measure_id,
            "value": report.value,
            "abs_error": report.abs_error,
            "subdivisions": report.subdivisions,
            "warnings": list(report.warnings),
        },
    )
    print(f"{measure_id} = {report.value:.10g}")
    return 0


def _pair_from_args(args) -> GroupedDataset:
    """The two groups of one CSV's group column, or of two CSVs labelled by their paths."""
    if len(args.csv) == 2:
        if args.group_col is not None:
            raise InvalidParameter("--group-col takes one CSV; two CSVs are labelled by their paths")
        (x, dropped_x), (y, dropped_y) = (load_sample(path, args.value_col) for path in args.csv)
        return GroupedDataset(groups=tuple(zip(args.csv, (x, y))), dropped_rows=dropped_x + dropped_y)
    if len(args.csv) == 1:
        if not args.group_col:
            raise InvalidParameter("one CSV needs --group-col with exactly two groups")
        ds = load_csv(args.csv[0], args.value_col, args.group_col)
        if len(ds.groups) != 2:
            raise InvalidParameter(f"expected exactly 2 groups, found {len(ds.groups)}")
        return ds
    raise InvalidParameter("estimate takes one or two CSV paths")


def cmd_estimate(args) -> int:
    ds = _pair_from_args(args)
    matrix = pairwise_matrix(ds, boundary_reflect=args.boundary_reflect == "on")
    value = float(matrix.values[0, 1])
    out = _outdir(args)
    write_report(
        out / "report.json",
        "estimate",
        _inputs(args),
        {
            "groups": list(ds.labels),
            "n": [batch.n for _, batch in ds.groups],
            "dropped_rows": ds.dropped_rows,
            "bandwidths": list(matrix.bandwidths),
            "relative_extropy": value,
        },
    )
    print(f"relative extropy estimate = {value:.10g}")
    return 0


def cmd_simulate(args) -> int:
    params_x = parse_family(args.family_x)
    params_y = parse_family(args.family_y)
    true_value = measures.relative_extropy(params_x, params_y).value
    sizes = _numbers(args.n, "--n", int)
    rows = []
    for n in sizes:
        cfg = McStudyConfig(
            family_x=params_x,
            family_y=params_y,
            n=n,
            reps=args.reps,
            seed=args.seed,
            true_value=true_value,
            boundary_reflect=args.boundary_reflect == "on",
        )
        rows.append(mc_bias_mse(cfg))
    out = _outdir(args)
    write_study_csv(out / "study.csv", rows)
    write_report(
        out / "report.json",
        "simulate",
        _inputs(args, n=sizes),
        {
            "true_value": true_value,
            "rows": [
                {
                    "n": r.n,
                    "mean_estimate": r.mean_estimate,
                    "bias": r.bias,
                    "mse": r.mse,
                    "failures": r.failures,
                }
                for r in rows
            ],
        },
    )
    for r in rows:
        print(f"n={r.n}: mean={r.mean_estimate:.5f} bias={r.bias:+.5f} mse={r.mse:.6g}")
    return 0


def cmd_groups(args) -> int:
    probs = None if args.quantiles is None else tuple(_numbers(args.quantiles, "--quantiles", float))
    ds = load_csv(args.csv, args.value_col, args.group_col, cut_probabilities=probs)
    matrix = pairwise_matrix(ds, boundary_reflect=args.boundary_reflect == "on")
    out = _outdir(args)
    written = (write_matrix_csv(out / "matrix.csv", matrix), write_heatmap(out / "heatmap.svg", matrix))
    write_report(
        out / "report.json",
        "groups",
        _inputs(args),
        {
            "labels": list(matrix.labels),
            "group_sizes": [b.n for _, b in ds.groups],
            "dropped_rows": ds.dropped_rows,
            "bandwidths": list(matrix.bandwidths),
            "matrix": matrix.values,
        },
    )
    print(f"{len(matrix.labels)} groups; matrix max = {matrix.values.max():.6g}")
    for path in written:
        print(f"wrote {path}")
    return 0


# the times of verify's grid where --t is not given
_GRID_POINTS = 10


def _auto_grid(dx, dy) -> dynamic.TimeGrid:
    """``_GRID_POINTS`` evenly spaced times where all four conditioning denominators are safe.

    On a finite right end the grid also stops where a survival falls to 0.05:
    nearer the end d_r changes faster than the fixed central difference of
    the ODE checks resolves.
    """
    lo = max(dx.support[0], dy.support[0])
    hi = min(dx.support[1], dy.support[1])
    if hi <= lo:
        raise InsufficientGrid("the supports do not overlap; no valid grid times")
    floor = 1e-6
    min_survival = 0.05 if np.isfinite(hi) else floor
    if not np.isfinite(hi):
        hi = lo + 1.0
        while min(float(dx.survival(hi)), float(dy.survival(hi))) > 0.05:
            hi *= 2.0
    candidates = np.linspace(lo, hi, 512)[1:-1]
    survival = np.minimum(dx.survival(candidates), dy.survival(candidates))
    cdf = np.minimum(dx.cdf(candidates), dy.cdf(candidates))
    valid = candidates[(survival > min_survival) & (cdf > floor)]
    if len(valid) < _GRID_POINTS:
        raise InsufficientGrid("could not find enough valid grid times for this pair")
    idx = np.linspace(0, len(valid) - 1, _GRID_POINTS).round().astype(int)
    return dynamic.TimeGrid(points=tuple(valid[idx].tolist()))


def cmd_verify(args) -> int:
    dx = parse_family(args.family_x)
    dy = parse_family(args.family_y)
    if args.t is not None:
        grid = dynamic.TimeGrid(points=tuple(_numbers(args.t, "--t", float)))
    else:
        grid = _auto_grid(dx, dy)

    p = dynamic.dynamic_profile(dx, dy, grid, args.atom_convention)
    checks: list[dict] = []

    def record(name, residual, tol, holds=None):
        ok = residual <= tol if holds is None else holds
        checks.append({"name": name, "max_abs_residual": residual, "tolerance": tol, "holds": bool(ok)})

    tol = measures._IDENTITY_TOL
    record("split_identity", abs(p.j_fg + p.j_gf - p.d), tol)
    record("triple_identity", abs(p.d - (2 * p.xi - p.jx - p.jy)), tol)
    record("symmetry", abs(p.d_yx - p.d), tol)
    for name, v in (
        ("sum_rules", dynamic.sum_rules(p)),
        ("ode_relative", dynamic.ode_check_relative(p)),
        ("ode_divergence", dynamic.ode_check_divergence(p)),
        ("decompositions", dynamic.global_decompositions(p)),
    ):
        record(name, v.max_abs_residual, v.tolerance, v.holds)
    orderings = dynamic.dynamic_orderings(p)
    equivalent = orderings.rex_red_equivalent and orderings.pex_ped_equivalent
    record("ordering_equivalences", 0.0, 0.0, equivalent)

    bounds = dynamic.bound_checks(p)
    fields = ("kind", "holds", "hypothesis_met", "max_abs_residual", "note")
    bound_rows = [{name: getattr(v, name) for name in fields} for v in bounds]
    # the equality case characterizes d_r, it does not gate
    gated = [v for v in bounds if v.kind != "bound_equality"]
    hypothesis_failed = any(v.hypothesis_met is False for v in gated)
    bound_violated = any(not v.holds and v.hypothesis_met is not False for v in gated)

    all_ok = all(c["holds"] for c in checks) and not bound_violated
    out = _outdir(args)
    write_report(
        out / "report.json",
        "verify",
        _inputs(args, "t", grid=list(grid.points)),
        {
            "checks": checks,
            "bounds": bound_rows,
            "orderings": {name: getattr(orderings, name) for name in ("hr", "rh", "rex", "red", "pex", "ped")},
            "all_identities_hold": all_ok,
            "hypothesis_not_met": hypothesis_failed,
        },
    )
    for c in checks:
        state = "ok" if c["holds"] else "FAIL"
        print(f"{c['name']}: {state} (residual {c['max_abs_residual']:.3e})")
    for b in bound_rows:
        print(
            f"{b['kind']}: holds={b['holds']} hypothesis_met={b['hypothesis_met']}"
        )
    if not all_ok:
        return 3
    if hypothesis_failed:
        return 4
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ExtropyError as exc:
        kind = "input error" if exc.exit_code == 2 else "numerical failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
