"""Command-line interface.

Subcommands map onto the library layers: ``measure`` (closed-form/quadrature
measures between named families, optionally at a time t), ``estimate`` (two
samples -> relative-extropy estimate), ``simulate`` (Monte-Carlo bias/MSE
table), ``groups`` (CSV -> pairwise divergence matrix + heatmap), ``verify``
(identity/ODE/bound suites on a model pair).

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 a verify-suite
hypothesis was declared but does not hold empirically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dynamic, measures
from .distributions import make_model, parse_family
from .errors import (
    CsvParseError,
    DegenerateSample,
    DenominatorUnderflow,
    ExtropyError,
    InsufficientGrid,
    InvalidModel,
    InvalidParameter,
    MissingColumn,
    NoBracket,
    QuadratureFailure,
    TooFewObservations,
)
from .estimation import (
    McStudyConfig,
    SampleBatch,
    estimate_relative_extropy,
    mc_bias_mse,
    sheather_jones_bandwidth,
)
from .grouping import QuantileGroupSpec, load_csv, pairwise_matrix
from .quadrature import QuadratureSpec
from .reports import write_heatmap, write_matrix_csv, write_report, write_study_csv

_INPUT_ERRORS = (
    InvalidParameter,
    MissingColumn,
    CsvParseError,
    TooFewObservations,
    FileNotFoundError,
)
_NUMERICAL_ERRORS = (
    QuadratureFailure,
    DenominatorUnderflow,
    DegenerateSample,
    NoBracket,
    InsufficientGrid,
    InvalidModel,
)

_STATIC_MEASURES = {
    "extropy": lambda x, y, t, q, conv: measures.extropy(x, q),
    "inaccuracy": lambda x, y, t, q, conv: measures.extropy_inaccuracy(x, y, q),
    "relative": lambda x, y, t, q, conv: measures.relative_extropy(x, y, q),
    "divergence-fg": lambda x, y, t, q, conv: measures.extropy_divergence(x, y, q),
    "divergence-gf": lambda x, y, t, q, conv: measures.extropy_divergence(y, x, q),
}
_DYNAMIC_MEASURES = {
    "residual-extropy": lambda x, y, t, q, conv: dynamic.residual_extropy(x, t, q),
    "past-extropy": lambda x, y, t, q, conv: dynamic.past_extropy(x, t, q, conv),
    "residual-inaccuracy": lambda x, y, t, q, conv: dynamic.residual_inaccuracy(x, y, t, q),
    "past-inaccuracy": lambda x, y, t, q, conv: dynamic.past_inaccuracy(x, y, t, q, conv),
    "residual-relative": lambda x, y, t, q, conv: dynamic.residual_relative(x, y, t, q),
    "past-relative": lambda x, y, t, q, conv: dynamic.past_relative(x, y, t, q, conv),
    "residual-divergence-fg": lambda x, y, t, q, conv: dynamic.residual_divergence(x, y, t, q),
    "residual-divergence-gf": lambda x, y, t, q, conv: dynamic.residual_divergence(y, x, t, q),
    "past-divergence-fg": lambda x, y, t, q, conv: dynamic.past_divergence(x, y, t, q, conv),
    "past-divergence-gf": lambda x, y, t, q, conv: dynamic.past_divergence(y, x, t, q, conv),
}
_PAIR_MEASURES = set(_STATIC_MEASURES) - {"extropy"} | set(_DYNAMIC_MEASURES) - {
    "residual-extropy",
    "past-extropy",
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
    p.add_argument("name", choices=sorted(set(_STATIC_MEASURES) | set(_DYNAMIC_MEASURES)))
    add_common(p)
    p.add_argument("--t", type=float, default=None, help="time point for dynamic measures")
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
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("groups", help="pairwise divergence matrix over CSV groups")
    p.add_argument("csv")
    p.add_argument("--value-col", required=True)
    p.add_argument("--group-col", required=True)
    p.add_argument("--quantiles", default=None, help="e.g. 0.2,0.4,0.6,0.8 to band a numeric column")
    p.add_argument("--boundary-reflect", choices=("on", "off"), default="off")
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=("json", "csv", "svg", "all"), default="all")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("verify", help="run identity/ODE/bound suites on a model pair")
    add_common(p, needs_y=True)
    p.add_argument("--t", default=None, help="grid times, comma separated (default: auto)")
    p.add_argument("--atom-convention", choices=("paper", "ac"), default="ac")
    p.set_defaults(func=cmd_verify)

    return parser


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_measure(args) -> int:
    q = QuadratureSpec()
    params_x = parse_family(args.family_x)
    dx = make_model(params_x)
    dy = None
    if args.family_y:
        dy = make_model(parse_family(args.family_y))
    if args.name in _PAIR_MEASURES and dy is None:
        raise InvalidParameter(f"measure {args.name!r} needs --family-y")
    if args.name in _DYNAMIC_MEASURES and args.t is None:
        raise InvalidParameter(f"measure {args.name!r} needs --t")
    fn = _STATIC_MEASURES.get(args.name) or _DYNAMIC_MEASURES[args.name]
    report = fn(dx, dy, args.t, q, args.atom_convention)
    if args.name.endswith("-gf"):
        import dataclasses

        report = dataclasses.replace(report, measure_id=report.measure_id.replace("_fg", "_gf"))
    out = _outdir(args)
    write_report(
        out / "report.json",
        f"measure {args.name}",
        {
            "family_x": args.family_x,
            "family_y": args.family_y,
            "t": args.t,
            "atom_convention": args.atom_convention,
        },
        {
            "measure_id": report.measure_id,
            "value": report.value,
            "abs_error": report.abs_error,
            "truncated_at": report.truncated_at,
            "subdivisions": report.subdivisions,
            "warnings": list(report.warnings),
        },
    )
    print(f"{report.measure_id} = {report.value:.10g}")
    return 0


def _batches_from_args(args) -> tuple[tuple[str, SampleBatch], tuple[str, SampleBatch]]:
    if len(args.csv) == 2:
        import csv as _csv

        pair = []
        for path in args.csv:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = _csv.DictReader(fh)
                if args.value_col not in (reader.fieldnames or []):
                    raise MissingColumn(f"column {args.value_col!r} not in {path}")
                vals = []
                for idx, row in enumerate(reader, start=2):
                    raw = (row.get(args.value_col) or "").strip()
                    if not raw:
                        continue
                    try:
                        vals.append(float(raw))
                    except ValueError:
                        raise CsvParseError(idx, args.value_col, raw) from None
            pair.append((path, SampleBatch(np.asarray(vals))))
        return pair[0], pair[1]
    if len(args.csv) == 1:
        if not args.group_col:
            raise InvalidParameter("one CSV needs --group-col with exactly two groups")
        ds = load_csv(args.csv[0], args.value_col, group_column=args.group_col)
        if len(ds.groups) != 2:
            raise InvalidParameter(f"expected exactly 2 groups, found {len(ds.groups)}")
        return ds.groups[0], ds.groups[1]
    raise InvalidParameter("estimate takes one or two CSV paths")


def cmd_estimate(args) -> int:
    (label_x, sx), (label_y, sy) = _batches_from_args(args)
    bx = sheather_jones_bandwidth(sx)
    by = sheather_jones_bandwidth(sy)
    value = estimate_relative_extropy(
        sx, sy, bandwidth_x=bx, bandwidth_y=by,
        boundary_reflect=args.boundary_reflect == "on",
    )
    out = _outdir(args)
    write_report(
        out / "report.json",
        "estimate",
        {
            "csv": list(args.csv),
            "value_col": args.value_col,
            "group_col": args.group_col,
            "boundary_reflect": args.boundary_reflect,
        },
        {
            "groups": [label_x, label_y],
            "n": [sx.n, sy.n],
            "bandwidths": [bx, by],
            "relative_extropy": value,
        },
    )
    print(f"relative extropy estimate = {value:.10g}")
    return 0


def cmd_simulate(args) -> int:
    params_x = parse_family(args.family_x)
    params_y = parse_family(args.family_y)
    true_value = measures.relative_extropy(make_model(params_x), make_model(params_y)).value
    sizes = [int(v) for v in str(args.n).split(",") if v.strip()]
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
    if args.format == "csv":
        write_study_csv(out / "study.csv", rows)
    write_report(
        out / "report.json",
        "simulate",
        {
            "family_x": args.family_x,
            "family_y": args.family_y,
            "n": sizes,
            "reps": args.reps,
            "seed": args.seed,
            "boundary_reflect": args.boundary_reflect,
        },
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
    quantiles = None
    if args.quantiles:
        probs = tuple(float(p) for p in args.quantiles.split(",") if p.strip())
        quantiles = QuantileGroupSpec(group_column=args.group_col, cut_probabilities=probs)
        ds = load_csv(args.csv, args.value_col, quantile_spec=quantiles)
    else:
        ds = load_csv(args.csv, args.value_col, group_column=args.group_col)
    matrix = pairwise_matrix(ds, boundary_reflect=args.boundary_reflect == "on")
    out = _outdir(args)
    emitted = []
    if args.format in ("csv", "all"):
        emitted.append(str(write_matrix_csv(out / "matrix.csv", matrix)))
    if args.format in ("svg", "all"):
        emitted.append(str(write_heatmap(out / "heatmap.svg", matrix)))
    write_report(
        out / "report.json",
        "groups",
        {
            "csv": args.csv,
            "value_col": args.value_col,
            "group_col": args.group_col,
            "quantiles": args.quantiles,
            "boundary_reflect": args.boundary_reflect,
        },
        {
            "labels": list(matrix.labels),
            "group_sizes": [b.n for _, b in ds.groups],
            "dropped_rows": ds.dropped_rows,
            "bandwidths": list(matrix.bandwidths),
            "matrix": matrix.values,
        },
    )
    print(f"{len(matrix.labels)} groups; matrix max = {matrix.values.max():.6g}")
    for path in emitted:
        print(f"wrote {path}")
    return 0


def _auto_grid(dx, dy, q: QuadratureSpec, count: int = 10) -> dynamic.TimeGrid:
    """Evenly spaced times where all four conditioning denominators are safe."""
    lo = max(dx.support[0], dy.support[0])
    hi = min(dx.support[1], dy.support[1])
    if hi <= lo:
        raise InsufficientGrid("the supports do not overlap; no valid grid times")
    if not np.isfinite(hi):
        hi = lo + 1.0
        while min(float(dx.survival(hi)), float(dy.survival(hi))) > 0.05:
            hi *= 2.0
    candidates = np.linspace(lo, hi, 512)[1:-1]
    floor = 1e-6
    valid = [
        float(t)
        for t in candidates
        if min(float(dx.survival(t)), float(dy.survival(t))) > floor
        and min(float(dx.cdf(t)), float(dy.cdf(t))) > floor
    ]
    if len(valid) < count:
        raise InsufficientGrid("could not find enough valid grid times for this pair")
    idx = np.linspace(0, len(valid) - 1, count).round().astype(int)
    return dynamic.TimeGrid(points=tuple(valid[i] for i in idx))


def cmd_verify(args) -> int:
    q = QuadratureSpec()
    dx = make_model(parse_family(args.family_x))
    dy = make_model(parse_family(args.family_y))
    if args.t:
        grid = dynamic.TimeGrid(points=tuple(float(v) for v in str(args.t).split(",")))
    else:
        grid = _auto_grid(dx, dy, q)

    checks: list[dict] = []

    def record(name, residual, tol, holds=None):
        ok = residual <= tol if holds is None else holds
        checks.append({"name": name, "max_abs_residual": residual, "tolerance": tol, "holds": bool(ok)})
        return ok

    tol10 = 10.0 * q.abs_tol
    fg, gf, d = measures.decompose_relative(dx, dy, q)
    record("split_identity", abs(fg + gf - d), tol10)
    xi = measures.extropy_inaccuracy(dx, dy, q).value
    jx = measures.extropy(dx, q).value
    jy = measures.extropy(dy, q).value
    record("triple_identity", abs(d - (2 * xi - jx - jy)), tol10)
    record("symmetry", abs(measures.relative_extropy(dy, dx, q).value - d), tol10)

    sum_resid = 0.0
    for t in grid.points:
        s = (
            dynamic.residual_divergence(dx, dy, t, q).value
            + dynamic.residual_divergence(dy, dx, t, q).value
            - dynamic.residual_relative(dx, dy, t, q).value
        )
        p = (
            dynamic.past_divergence(dx, dy, t, q, args.atom_convention).value
            + dynamic.past_divergence(dy, dx, t, q, args.atom_convention).value
            - dynamic.past_relative(dx, dy, t, q, args.atom_convention).value
        )
        sum_resid = max(sum_resid, abs(s), abs(p))
    record("sum_rules", sum_resid, tol10)

    ode_rel = dynamic.ode_check_relative(dx, dy, grid, q)
    record("ode_relative", ode_rel.max_abs_residual, ode_rel.tolerance, ode_rel.holds)
    ode_div = dynamic.ode_check_divergence(dx, dy, grid, q)
    record("ode_divergence", ode_div.max_abs_residual, ode_div.tolerance, ode_div.holds)

    deco_resid = 0.0
    for t in grid.points[:: max(1, len(grid.points) // 5)]:
        verdict = dynamic.global_decompositions(dx, dy, t, q, tol=1e-6, atom_convention=args.atom_convention)
        deco_resid = max(deco_resid, verdict.max_abs_residual)
    record("decompositions", deco_resid, 1e-6)

    orderings = dynamic.dynamic_orderings(dx, dy, grid, q)
    record(
        "ordering_equivalences",
        0.0,
        0.0,
        orderings.rex_red_equivalent and orderings.pex_ped_equivalent,
    )

    bounds = dynamic.bound_checks(dx, dy, grid, q)
    bound_rows = []
    hypothesis_failed = False
    bound_violated = False
    for v in bounds:
        bound_rows.append(
            {
                "kind": v.kind,
                "holds": v.holds,
                "hypothesis_met": v.hypothesis_met,
                "max_abs_residual": v.max_abs_residual,
                "note": v.note,
            }
        )
        if v.kind == "bound_equality":
            continue  # characterization report, not a pass/fail gate
        if v.hypothesis_met is False:
            hypothesis_failed = True
        elif not v.holds:
            bound_violated = True

    all_ok = all(c["holds"] for c in checks) and not bound_violated
    out = _outdir(args)
    write_report(
        out / "report.json",
        "verify",
        {
            "family_x": args.family_x,
            "family_y": args.family_y,
            "grid": list(grid.points),
            "atom_convention": args.atom_convention,
        },
        {
            "checks": checks,
            "bounds": bound_rows,
            "orderings": {
                "hr": orderings.hr,
                "rh": orderings.rh,
                "rex": orderings.rex,
                "red": orderings.red,
                "pex": orderings.pex,
                "ped": orderings.ped,
            },
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
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ExtropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
