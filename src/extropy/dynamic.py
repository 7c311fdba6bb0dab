"""Residual- and past-lifetime measures, their identities, bounds and orderings.

Residual measures condition on survival past t (densities divided by the
survivals at t, integrals over (t, inf)); past measures condition on failure
by t (cdfs, integrals over (0, t)).  Signs are fixed so that both dynamic
relative extropies are nonnegative and split as sums of the two directional
divergences, mirroring the static layer:

* residual relative   d_r(f,g,t) = (1/2) int_t^inf (f/S_F(t) - g/S_G(t))^2
* residual divergence J_r(f|g,t) = (1/2) int_t^inf (f/S_F(t) - g/S_G(t)) f/S_F(t)
* past relative       d_p(f,g,t) = (1/2) int_0^t   (f/F(t)   - g/G(t))^2
* past divergence     J_p(f|g,t) = (1/2) int_0^t   (f/F(t)   - g/G(t)) f/F(t)

The differential identity asserted for d_r is

    d_r' - d_r (h_X + h_Y) = (h_Y - h_X)(J_t(X) - J_t(Y)) - (1/2)(h_X - h_Y)^2,

which is what the sum of the two divergence equations yields and what two
exponentials satisfy exactly.  A variant with (h_X + h_Y)^2 in the last term
circulates; it fails on exponentials and is inconsistent at f = g, but can be
evaluated via ``form="printed"`` for comparison.

Each of the eight measures takes a time t or an array of times; an array
gives an array of values from one batched integral.

Past measures accept ``atom_convention``: "ac" integrates densities only;
"paper" also folds a point mass at the left endpoint into the quadratic forms
as its squared conditional mass, reproducing the constant-reversed-hazard
closed forms with their leading "1 +" bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import measures
from .distributions import ExponentialParams
from .errors import InsufficientGrid, InvalidModel, InvalidParameter
from .measures import _FLIP, _IDENTITY_TOL, _equivalent, _relation, _windowed
from .models import DistributionModel, MeasureReport
from .quadrature import QuadratureSpec, integrate  # noqa: F401 (perfbench/tracer.py rebinds integrate)

__all__ = [
    "TimeGrid",
    "DynamicVerdict",
    "DynamicOrderings",
    "DynamicProfile",
    "residual_extropy",
    "past_extropy",
    "residual_inaccuracy",
    "past_inaccuracy",
    "residual_relative",
    "past_relative",
    "residual_divergence",
    "past_divergence",
    "hazard_repr_inaccuracy",
    "hazard_repr_relative",
    "dynamic_profile",
    "sum_rules",
    "ode_check_relative",
    "ode_check_divergence",
    "bound_checks",
    "constancy_detector",
    "dynamic_orderings",
    "global_decompositions",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times; ``step`` is their finite-difference step."""

    points: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise InsufficientGrid("grid needs at least one point")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise InvalidParameter("grid points must be strictly increasing")

    def step(self) -> float:
        span = self.points[-1] - self.points[0]
        return max(1e-4 * span, 1e-6)


@dataclass(frozen=True)
class DynamicVerdict:
    """Outcome of a grid-based identity or bound check."""

    kind: str
    holds: bool
    max_abs_residual: float
    tolerance: float
    per_point: tuple[tuple[float, float, float], ...]
    hypothesis_met: bool | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# Residual measures
# ---------------------------------------------------------------------------


def residual_extropy(d: DistributionModel, t: float) -> MeasureReport:
    """Extropy of the residual life at t: -(1/2) int_t (f / S(t))^2."""
    return _windowed("extropy", "residual", (d,), t)


def residual_inaccuracy(dX: DistributionModel, dY: DistributionModel, t: float) -> MeasureReport:
    """-(1/2) int_t f g / (S_F(t) S_G(t)); equals residual extropy at f = g."""
    return _windowed("inaccuracy", "residual", (dX, dY), t)


def residual_relative(dX: DistributionModel, dY: DistributionModel, t: float) -> MeasureReport:
    """d_r(f,g,t) >= 0; constant in t for two exponentials."""
    return _windowed("relative", "residual", (dX, dY), t)


def residual_divergence(dX: DistributionModel, dY: DistributionModel, t: float) -> MeasureReport:
    """J_r(f|g,t) = xiJ_r(X,Y,t) - J_t(X); sign unrestricted."""
    return _windowed("divergence_fg", "residual", (dX, dY), t)


# ---------------------------------------------------------------------------
# Past measures
# ---------------------------------------------------------------------------


def past_extropy(d: DistributionModel, t: float, atom_convention: str = "ac") -> MeasureReport:
    """Extropy of the past life at t: -(1/2) int_0^t (f / F(t))^2."""
    return _windowed("extropy", "past", (d,), t, atom_convention)


def past_inaccuracy(
    dX: DistributionModel, dY: DistributionModel, t: float, atom_convention: str = "ac"
) -> MeasureReport:
    """-(1/2) int_0^t f g / (F(t) G(t))."""
    return _windowed("inaccuracy", "past", (dX, dY), t, atom_convention)


def past_relative(
    dX: DistributionModel, dY: DistributionModel, t: float, atom_convention: str = "ac"
) -> MeasureReport:
    """d_p(f,g,t) = (1/2) int_0^t (f/F(t) - g/G(t))^2 >= 0."""
    return _windowed("relative", "past", (dX, dY), t, atom_convention)


def past_divergence(
    dX: DistributionModel, dY: DistributionModel, t: float, atom_convention: str = "ac"
) -> MeasureReport:
    """J_p(f|g,t) = xiJ_p(X,Y,t) - past extropy of X; sign unrestricted."""
    return _windowed("divergence_fg", "past", (dX, dY), t, atom_convention)


# ---------------------------------------------------------------------------
# Hazard-rate representations (X exponential)
# ---------------------------------------------------------------------------


class _HazardLaw(DistributionModel):
    """The law on [0, inf) of hazard h and cumulative hazard H; quantiles bisect the rising H."""

    label = "hazard-defined law"
    support = (0.0, np.inf)

    def __init__(self, hazard, cumulative):
        self._h, self._cum = hazard, cumulative

    def pdf(self, x):
        return self._h(x) * self.survival(x)

    def cdf(self, x):
        return -np.expm1(-self._cum(x))

    def survival(self, x):
        return np.exp(-self._cum(x))

    def quantile(self, u):
        target = -np.log1p(-np.asarray(u, dtype=float))
        lo, hi = np.zeros_like(target), np.ones_like(target)
        while np.any(short := self._cum(hi) < target):  # double hi to a bracket of H = target
            if (hi[short] > np.finfo(float).max / 2).any():
                raise InvalidModel("the cumulative hazard stays bounded: not a lifetime law")
            hi = np.where(short, 2.0 * hi, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self._cum(mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return hi


def hazard_repr_inaccuracy(
    rate_x: float, hazard_y: Callable, t: float, cumulative_hazard_y: Callable
) -> float:
    """-(1/2) int_t^inf rate e^(-rate (x - t)) h_Y(x) e^(-(H(x) - H(t))) dx, from h_Y and H alone.

    This is :func:`residual_inaccuracy` against the law of (h_Y, H), so it runs in conditional
    units out to +inf, split at both laws' quantiles, and raises :class:`DenominatorUnderflow`
    where e^(-H(t)) is below the floor and :class:`InvalidModel` where h_Y is negative.  H is
    required; both callables take arrays.
    """
    law = _HazardLaw(hazard_y, cumulative_hazard_y)
    return residual_inaccuracy(ExponentialParams(rate_x), law, t).value


def hazard_repr_relative(
    rate_x: float, hazard_y: Callable, t: float, cumulative_hazard_y: Callable
) -> float:
    """d_r(X, Y; t) = 2 xiJ_r(X, Y; t) - J_t(Y) + rate/4, from h_Y and H alone.

    rate/4 = -J_t(X) is the exponential's closed form; both integrals run as in
    :func:`hazard_repr_inaccuracy`.
    """
    law = _HazardLaw(hazard_y, cumulative_hazard_y)
    inaccuracy = residual_inaccuracy(ExponentialParams(rate_x), law, t).value
    return 2.0 * inaccuracy - residual_extropy(law, t).value + rate_x / 4.0


# ---------------------------------------------------------------------------
# One pair's grid profile, and the identity, bound and ordering checks on it
# ---------------------------------------------------------------------------

Series = tuple[float, ...]

# Tolerance of the ODE checks, whose central differences of d_r and J_r(f|g)
# err far more than the integrals they difference.
_ODE_TOL = 1e-3
# Tolerance of the hazard-rate bounds and of their equality case.
_BOUND_TOL = 1e-6
# Tolerance of the decompositions, whose right sides weight up to five
# separately integrated dynamic measures by survivals and cdfs.
_DECOMPOSITION_TOL = 1e-6


@dataclass(frozen=True)
class DynamicProfile:
    """Every series the grid checks read for one model pair, each computed once.

    Series are indexed like ``points``.  ``d_r_prime`` and ``jr_fg_prime``
    are central differences of d_r and J_r(f|g) over [max(t - h, 0), t + h]
    for the grid's step h, each end its own integral.  Past series follow
    the ``atom_convention`` the profile was built with, except ``past_ac``:
    (J(_tX), J(_tY), J_p(f|g), J_p(g|f)) from the densities alone, which the
    orderings read under either convention.  ``xi_r`` and ``xi_p`` are indexed like
    ``decomposition_points``, every ``len // 5``-th grid point.  The last
    seven fields are the static measures (``d_yx`` is d(g, f)).
    """

    points: Series
    hx: Series
    hy: Series
    lx: Series
    ly: Series
    sfx: Series
    sfy: Series
    cfx: Series
    cfy: Series
    d_r: Series
    d_r_prime: Series
    jr_fg: Series
    jr_fg_prime: Series
    jr_gf: Series
    jtx: Series
    jty: Series
    d_p: Series
    jp_fg: Series
    jp_gf: Series
    jpx: Series
    jpy: Series
    past_ac: tuple[Series, Series, Series, Series]
    decomposition_points: Series
    xi_r: Series
    xi_p: Series
    xi: float
    jx: float
    jy: float
    j_fg: float
    j_gf: float
    d: float
    d_yx: float


def dynamic_profile(
    dX: DistributionModel,
    dY: DistributionModel,
    grid: TimeGrid,
    atom_convention: str = "ac",
) -> DynamicProfile:
    """Evaluate the series of :class:`DynamicProfile` for (dX, dY) on the grid.

    Each series is one batched integral over the grid times.  Each side of
    each identity stays its own integral: d_r is never formed from the
    divergences, nor a static measure from its parts, so the checks compare
    independent computations.  Every grid point needs both survivals
    and both cdfs above ``QuadratureSpec.denominator_floor``, else
    :class:`InsufficientGrid`.
    """
    ts = grid.points
    at_ts = np.array(ts)
    low = np.min([m(at_ts) for m in (dX.survival, dY.survival, dX.cdf, dY.cdf)], axis=0)
    if low.min() <= QuadratureSpec.denominator_floor:
        i = int(np.argmin(low))
        raise InsufficientGrid(
            f"t = {ts[i]:g}: a survival or cdf is {low[i]:.3e}, at or below the denominator floor"
        )
    step = grid.step()
    lo = tuple(max(t - step, 0.0) for t in ts)
    hi = tuple(t + step for t in ts)
    deco = ts[:: max(1, len(ts) // 5)]
    conv = {"atom_convention": atom_convention}

    def at(fn):
        return tuple(np.asarray(fn(at_ts), dtype=float).tolist())

    def series(measure, *models, times=ts, **convention):
        return tuple(measure(*models, np.array(times), **convention).value.tolist())

    def slope(measure, *models):
        at_lo, at_hi = series(measure, *models, times=lo), series(measure, *models, times=hi)
        return tuple((b - a) / (t1 - t0) for a, b, t0, t1 in zip(at_lo, at_hi, lo, hi))

    def past(**convention):
        return (
            series(past_extropy, dX, **convention),
            series(past_extropy, dY, **convention),
            series(past_divergence, dX, dY, **convention),
            series(past_divergence, dY, dX, **convention),
        )

    jpx, jpy, jp_fg, jp_gf = past_series = past(**conv)
    j_fg, j_gf, d = measures.decompose_relative(dX, dY)
    return DynamicProfile(
        points=ts,
        hx=at(dX.hazard), hy=at(dY.hazard),
        lx=at(dX.reversed_hazard), ly=at(dY.reversed_hazard),
        sfx=at(dX.survival), sfy=at(dY.survival), cfx=at(dX.cdf), cfy=at(dY.cdf),
        d_r=series(residual_relative, dX, dY),
        d_r_prime=slope(residual_relative, dX, dY),
        jr_fg=series(residual_divergence, dX, dY),
        jr_fg_prime=slope(residual_divergence, dX, dY),
        jr_gf=series(residual_divergence, dY, dX),
        jtx=series(residual_extropy, dX), jty=series(residual_extropy, dY),
        d_p=series(past_relative, dX, dY, **conv),
        jp_fg=jp_fg, jp_gf=jp_gf, jpx=jpx, jpy=jpy,
        past_ac=past_series if atom_convention == "ac" else past(),
        decomposition_points=deco,
        xi_r=series(residual_inaccuracy, dX, dY, times=deco),
        xi_p=series(past_inaccuracy, dX, dY, times=deco, **conv),
        xi=measures.extropy_inaccuracy(dX, dY).value,
        jx=measures.extropy(dX).value, jy=measures.extropy(dY).value,
        j_fg=j_fg, j_gf=j_gf, d=d,
        d_yx=measures.relative_extropy(dY, dX).value,
    )


def _verdict(
    kind: str, rows, tol: float, side: str = "=", premise: bool | None = None, note: str = ""
) -> DynamicVerdict:
    """Verdict on rows (t, lhs, rhs) that should satisfy lhs ``side`` rhs to within tol.

    A row's residual is |lhs - rhs| for "=", and how far it falls on the wrong
    side for ">=" and "<="; with no rows it is 0.  The check holds when the
    largest residual is within tol and the premise, recorded as
    ``hypothesis_met``, is not False.
    """
    rows = tuple(rows)
    residual = {
        "=": lambda lhs, rhs: abs(lhs - rhs),
        ">=": lambda lhs, rhs: max(rhs - lhs, 0.0),
        "<=": lambda lhs, rhs: max(lhs - rhs, 0.0),
    }[side]
    worst = max((residual(lhs, rhs) for _, lhs, rhs in rows), default=0.0)
    return DynamicVerdict(
        kind=kind,
        holds=worst <= tol and premise is not False,
        max_abs_residual=worst,
        tolerance=tol,
        per_point=rows,
        hypothesis_met=premise,
        note=note,
    )


def sum_rules(p: DynamicProfile) -> DynamicVerdict:
    """Check J(f|g,t) + J(g|f,t) = d(f,g,t) on the grid, residual rows then past.

    Rows are (t, J(f|g,t) + J(g|f,t), d(f,g,t)); the past rows follow the
    profile's atom convention.  The tolerance is ``_IDENTITY_TOL``, as for
    the static identities.
    """
    rows = [(t, fg + gf, d) for t, fg, gf, d in zip(p.points, p.jr_fg, p.jr_gf, p.d_r)]
    rows += [(t, fg + gf, d) for t, fg, gf, d in zip(p.points, p.jp_fg, p.jp_gf, p.d_p)]
    return _verdict("sum_rules", rows, _IDENTITY_TOL)


def ode_check_relative(p: DynamicProfile, form: str = "corrected") -> DynamicVerdict:
    """Check the differential identity satisfied by d_r on the grid.

    lhs = d_r' - d_r (h_X + h_Y), with d_r' by central difference; rhs is the
    corrected form by default.  ``form="printed"`` evaluates the
    (h_X + h_Y)^2 variant instead and simply reports its residuals.
    """
    if form not in ("corrected", "printed"):
        raise InvalidParameter(f"form must be 'corrected' or 'printed', got {form!r}")
    rows = []
    for t, d_r, d_prime, hx, hy, jtx, jty in zip(
        p.points, p.d_r, p.d_r_prime, p.hx, p.hy, p.jtx, p.jty
    ):
        last = hx - hy if form == "corrected" else hx + hy
        rows.append((t, d_prime - d_r * (hx + hy), (hy - hx) * (jtx - jty) - 0.5 * last**2))
    return _verdict("ode_residual", rows, _ODE_TOL, note=f"form={form}")


def ode_check_divergence(p: DynamicProfile) -> DynamicVerdict:
    """Check d/dt J_r(f|g,t) = (h_X+h_Y) J_r + (h_Y-h_X)(h_X/2 + J_t(X))."""
    rows = [
        (t, lhs, (hx + hy) * j_r + (hy - hx) * (hx / 2.0 + jtx))
        for t, lhs, j_r, hx, hy, jtx in zip(p.points, p.jr_fg_prime, p.jr_fg, p.hx, p.hy, p.jtx)
    ]
    return _verdict("ode_divergence", rows, _ODE_TOL)


def _nonincreasing(values: Sequence[float], slack: float = 1e-9) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def _nondecreasing(values: Sequence[float], slack: float = 1e-9) -> bool:
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def bound_checks(p: DynamicProfile) -> list[DynamicVerdict]:
    """Evaluate the three hazard-rate bounds for d_r on the grid.

    (i) lower bound via dynamic extropies, hypothesis: d_r nondecreasing;
    (ii) d/dt log d_r <= h_X + h_Y, hypothesis: one-sided hazard ordering
    with a DFR member; (iii) the equality case, which characterizes
    d_r = 1 / (S_F S_G).  Hypotheses are tested empirically on the grid and a
    failed premise is reported in ``hypothesis_met``, never raised.
    """
    ts, d_r, d_prime, hx, hy = p.points, p.d_r, p.d_r_prime, p.hx, p.hy
    # (i) d_r >= ((h_X - h_Y)/(h_X + h_Y)) (J_t(X) - J_t(Y)) when d_r is nondecreasing
    nondecreasing = _nondecreasing(d_r) and all(dp >= -_BOUND_TOL for dp in d_prime)
    lower = [
        (t, d, ((a - b) / (a + b)) * (ex - ey))
        for t, d, a, b, ex, ey in zip(ts, d_r, hx, hy, p.jtx, p.jty)
    ]
    # (ii) d/dt log d_r <= h_X + h_Y under a one-sided hazard ordering + DFR member
    ordered = all(a >= b for a, b in zip(hx, hy)) or all(b >= a for a, b in zip(hx, hy))
    dfr = _nonincreasing(hx) or _nonincreasing(hy)
    log_derivative = [
        (t, dp / d, a + b)
        for t, d, dp, a, b in zip(ts, d_r, d_prime, hx, hy)
        if d > QuadratureSpec.denominator_floor
    ]
    # (iii) equality case: d/dt log d_r = h_X + h_Y iff d_r = 1/(S_F S_G)
    equality = [(t, d * sf * sg, 1.0) for t, d, sf, sg in zip(ts, d_r, p.sfx, p.sfy)]
    return [
        _verdict("bound_lower", lower, _BOUND_TOL, ">=", nondecreasing,
                 "hypothesis: d_r nondecreasing on the grid"),
        _verdict("bound_log_derivative", log_derivative, _BOUND_TOL, "<=", ordered and dfr,
                 "hypothesis: one-sided hazard ordering and a DFR member"),
        _verdict("bound_equality", equality, _BOUND_TOL, note="equality case d_r = 1/(S_F S_G)"),
    ]


def constancy_detector(values: Sequence[tuple[float, float]], tol: float) -> bool:
    """True when the (t, value) series is constant to within tol (max - min)."""
    if len(values) < 3:
        raise InsufficientGrid(f"constancy check needs >= 3 points, got {len(values)}")
    vals = [v for _, v in values]
    return (max(vals) - min(vals)) <= tol


@dataclass(frozen=True)
class DynamicOrderings:
    """Pointwise dynamic orderings and the divergence/extropy equivalences.

    Relations follow the sign convention in which ``X <= Y`` in hazard order
    means h_X >= h_Y everywhere (smaller in hazard order = stochastically
    smaller), and similarly for reversed hazards.  ``rex_red_equivalent`` and
    ``pex_ped_equivalent`` report whether the extropy ordering and the
    reversed divergence ordering agree at every resolvable grid point.
    """

    points: tuple[float, ...]
    hr: str
    rh: str
    rex: str
    red: str
    pex: str
    ped: str
    rex_red_equivalent: bool
    pex_ped_equivalent: bool


def dynamic_orderings(p: DynamicProfile) -> DynamicOrderings:
    """Evaluate hr/rh/rex/red/pex/ped orderings pointwise on the grid.

    The past orderings read the density-only past series (``past_ac``).
    """
    jpx, jpy, jp_fg, jp_gf = p.past_ac
    return DynamicOrderings(
        points=p.points,
        hr=_FLIP[_relation(p.hx, p.hy)],
        rh=_FLIP[_relation(p.lx, p.ly)],
        rex=_relation(p.jtx, p.jty),
        red=_relation(p.jr_fg, p.jr_gf),
        pex=_relation(jpx, jpy),
        ped=_relation(jp_fg, jp_gf),
        rex_red_equivalent=_equivalent(p.jtx, p.jty, p.jr_fg, p.jr_gf),
        pex_ped_equivalent=_equivalent(jpx, jpy, jp_fg, jp_gf),
    )


def global_decompositions(p: DynamicProfile) -> DynamicVerdict:
    """Check the three decompositions of static measures into past/residual parts.

    (a) xiJ = F G xiJ_p + S_F S_G xiJ_r
    (b) J(f|g) = S_F S_G J_r(f|g) + F G J_p(f|g) + (S_G - S_F)(S_F J_t(X) - F J(_tX))
    (c) d = d_p F G + d_r S_F S_G
            + (S_F - S_G)(S_G J_t(Y) + F J(_tX) - S_F J_t(X) - G J(_tY))

    One verdict over every point of the profile's ``decomposition_points``,
    three rows (a), (b), (c) per point.  The weighted third term of (b) is
    what the proof's expansion yields; the unweighted variant
    (J_t(X) - J(_tX)) is also evaluated and its largest residual recorded in
    ``note`` for comparison.  The tolerance is fixed at 1e-6.
    """
    rows, unweighted = [], 0.0
    for k, t in enumerate(p.decomposition_points):
        i = p.points.index(t)
        f_t, g_t, sf_t, sg_t = p.cfx[i], p.cfy[i], p.sfx[i], p.sfy[i]
        jr_fg, jtx, jty = p.jr_fg[i], p.jtx[i], p.jty[i]
        jp_fg, jpx, jpy = p.jp_fg[i], p.jpx[i], p.jpy[i]

        rhs_a = f_t * g_t * p.xi_p[k] + sf_t * sg_t * p.xi_r[k]
        rhs_b = sf_t * sg_t * jr_fg + f_t * g_t * jp_fg + (sg_t - sf_t) * (sf_t * jtx - f_t * jpx)
        rhs_c = p.d_p[i] * f_t * g_t + p.d_r[i] * sf_t * sg_t + (sf_t - sg_t) * (
            sg_t * jty + f_t * jpx - sf_t * jtx - g_t * jpy
        )
        rhs_b_unweighted = sf_t * sg_t * jr_fg + f_t * g_t * jp_fg + (sg_t - sf_t) * (jtx - jpx)
        rows += [(t, p.xi, rhs_a), (t, p.j_fg, rhs_b), (t, p.d, rhs_c)]
        unweighted = max(unweighted, abs(p.j_fg - rhs_b_unweighted))
    return _verdict(
        "decomposition", rows, _DECOMPOSITION_TOL, note=f"unweighted-(b)-residual={unweighted:.3e}"
    )
