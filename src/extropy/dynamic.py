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

Past measures accept ``atom_convention``: "ac" integrates densities only;
"paper" also folds a point mass at the left endpoint into the quadratic forms
as its squared conditional mass, reproducing the constant-reversed-hazard
closed forms with their leading "1 +" bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import measures
from .errors import InsufficientGrid, InvalidParameter
from .measures import _windowed
from .models import DistributionModel, MeasureReport
from .quadrature import QuadratureSpec, integrate, truncation_point

__all__ = [
    "TimeGrid",
    "DynamicVerdict",
    "DynamicOrderings",
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
    "ode_check_relative",
    "ode_check_divergence",
    "bound_checks",
    "constancy_detector",
    "dynamic_orderings",
    "global_decompositions",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times plus a finite-difference step."""

    points: tuple[float, ...]
    fd_step: float | None = None

    def __post_init__(self):
        if len(self.points) < 1:
            raise InsufficientGrid("grid needs at least one point")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise InvalidParameter("grid points must be strictly increasing")

    def step(self) -> float:
        if self.fd_step is not None:
            return self.fd_step
        span = self.points[-1] - self.points[0]
        return max(1e-4 * span, 1e-6)


@dataclass(frozen=True)
class DynamicVerdict:
    """Outcome of a grid-based identity, bound or constancy check."""

    kind: str
    holds: bool
    max_abs_residual: float
    tolerance: float
    per_point: tuple[tuple[float, float, float], ...]
    hypothesis_met: bool | None = None
    note: str = ""


def _q(q: QuadratureSpec | None) -> QuadratureSpec:
    return q or QuadratureSpec()


# ---------------------------------------------------------------------------
# Residual measures
# ---------------------------------------------------------------------------


def residual_extropy(d: DistributionModel, t: float, q: QuadratureSpec | None = None) -> MeasureReport:
    """Extropy of the residual life at t: -(1/2) int_t (f / S(t))^2."""
    return _windowed("extropy", "residual", (d,), t, q)


def residual_inaccuracy(
    dX: DistributionModel, dY: DistributionModel, t: float, q: QuadratureSpec | None = None
) -> MeasureReport:
    """-(1/2) int_t f g / (S_F(t) S_G(t)); equals residual extropy at f = g."""
    return _windowed("inaccuracy", "residual", (dX, dY), t, q)


def residual_relative(
    dX: DistributionModel, dY: DistributionModel, t: float, q: QuadratureSpec | None = None
) -> MeasureReport:
    """d_r(f,g,t) >= 0; constant in t for two exponentials."""
    return _windowed("relative", "residual", (dX, dY), t, q)


def residual_divergence(
    dX: DistributionModel, dY: DistributionModel, t: float, q: QuadratureSpec | None = None
) -> MeasureReport:
    """J_r(f|g,t) = xiJ_r(X,Y,t) - J_t(X); sign unrestricted."""
    return _windowed("divergence_fg", "residual", (dX, dY), t, q)


# ---------------------------------------------------------------------------
# Past measures
# ---------------------------------------------------------------------------


def past_extropy(
    d: DistributionModel, t: float, q: QuadratureSpec | None = None, atom_convention: str = "ac"
) -> MeasureReport:
    """Extropy of the past life at t: -(1/2) int_0^t (f / F(t))^2."""
    return _windowed("extropy", "past", (d,), t, q, atom_convention)


def past_inaccuracy(
    dX: DistributionModel,
    dY: DistributionModel,
    t: float,
    q: QuadratureSpec | None = None,
    atom_convention: str = "ac",
) -> MeasureReport:
    """-(1/2) int_0^t f g / (F(t) G(t))."""
    return _windowed("inaccuracy", "past", (dX, dY), t, q, atom_convention)


def past_relative(
    dX: DistributionModel,
    dY: DistributionModel,
    t: float,
    q: QuadratureSpec | None = None,
    atom_convention: str = "ac",
) -> MeasureReport:
    """d_p(f,g,t) = (1/2) int_0^t (f/F(t) - g/G(t))^2 >= 0."""
    return _windowed("relative", "past", (dX, dY), t, q, atom_convention)


def past_divergence(
    dX: DistributionModel,
    dY: DistributionModel,
    t: float,
    q: QuadratureSpec | None = None,
    atom_convention: str = "ac",
) -> MeasureReport:
    """J_p(f|g,t) = xiJ_p(X,Y,t) - past extropy of X; sign unrestricted."""
    return _windowed("divergence_fg", "past", (dX, dY), t, q, atom_convention)


# ---------------------------------------------------------------------------
# Hazard-rate representations (X exponential)
# ---------------------------------------------------------------------------


def _cumulative_hazard(
    hazard_y: Callable[[float], float],
    cumulative_hazard_y: Callable[[float], float] | None,
    q: QuadratureSpec,
) -> Callable[[float], float]:
    if cumulative_hazard_y is not None:
        return lambda x: float(cumulative_hazard_y(x))

    def cumulative(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return integrate(lambda u: float(hazard_y(u)), 0.0, x, q).value

    return cumulative


def hazard_repr_inaccuracy(
    rate_x: float,
    hazard_y: Callable[[float], float],
    t: float,
    q: QuadratureSpec | None = None,
    cumulative_hazard_y: Callable[[float], float] | None = None,
) -> float:
    """Residual inaccuracy rebuilt from the exponential rate and h_Y alone.

    -exp(rate t + H(t)) * int_t^inf (rate h_Y(x) / 2) exp(-rate x - H(x)) dx
    with H the cumulative hazard of Y.  Matches
    :func:`residual_inaccuracy` on the corresponding models.
    """
    if rate_x <= 0:
        raise InvalidParameter("rate_x must be positive")
    q = _q(q)
    cum = _cumulative_hazard(hazard_y, cumulative_hazard_y, q)
    survival_x = lambda x: math.exp(-rate_x * x)
    survival_y = lambda x: math.exp(-cum(x))
    pdf_y = lambda x: float(hazard_y(x)) * survival_y(x)
    upper = truncation_point(
        [survival_x, survival_y], [lambda x: rate_x * survival_x(x), pdf_y], t, q
    )

    def integrand(x):
        return 0.5 * rate_x * float(hazard_y(x)) * math.exp(-rate_x * x - cum(x))

    res = integrate(integrand, t, upper, q)
    return -math.exp(rate_x * t + cum(t)) * res.value


def hazard_repr_relative(
    rate_x: float,
    hazard_y: Callable[[float], float],
    t: float,
    q: QuadratureSpec | None = None,
    cumulative_hazard_y: Callable[[float], float] | None = None,
) -> float:
    """Residual relative extropy from the exponential rate and h_Y alone.

    Twice the hazard-form inaccuracy, plus the hazard-form negative residual
    extropy of Y, plus rate/4 (the negative residual extropy of X).
    """
    if rate_x <= 0:
        raise InvalidParameter("rate_x must be positive")
    q = _q(q)
    cum = _cumulative_hazard(hazard_y, cumulative_hazard_y, q)
    inaccuracy = hazard_repr_inaccuracy(rate_x, hazard_y, t, q, cumulative_hazard_y=cum)

    survival_y = lambda x: math.exp(-cum(x))
    pdf_y = lambda x: float(hazard_y(x)) * survival_y(x)
    upper = truncation_point([survival_y], [pdf_y], t, q)

    def integrand(x):
        return 0.5 * float(hazard_y(x)) ** 2 * math.exp(-2.0 * cum(x))

    res = integrate(integrand, t, upper, q)
    neg_extropy_y = math.exp(2.0 * cum(t)) * res.value
    return 2.0 * inaccuracy + neg_extropy_y + rate_x / 4.0


# ---------------------------------------------------------------------------
# Differential-equation and bound checks
# ---------------------------------------------------------------------------


def _dr_derivative(dX, dY, t, q, step) -> float:
    lo = max(t - step, 0.0)
    hi = t + step
    a = residual_relative(dX, dY, lo, q).value
    b = residual_relative(dX, dY, hi, q).value
    return (b - a) / (hi - lo)


def ode_check_relative(
    dX: DistributionModel,
    dY: DistributionModel,
    grid: TimeGrid,
    q: QuadratureSpec | None = None,
    form: str = "corrected",
    tol: float = 1e-3,
) -> DynamicVerdict:
    """Check the differential identity satisfied by d_r on the grid.

    lhs = d_r' - d_r (h_X + h_Y), with d_r' by central difference; rhs is the
    corrected form by default.  ``form="printed"`` evaluates the
    (h_X + h_Y)^2 variant instead and simply reports its residuals.
    """
    if form not in ("corrected", "printed"):
        raise InvalidParameter(f"form must be 'corrected' or 'printed', got {form!r}")
    q = _q(q)
    step = grid.step()
    rows = []
    for t in grid.points:
        d_r = residual_relative(dX, dY, t, q).value
        d_prime = _dr_derivative(dX, dY, t, q, step)
        hx = float(dX.hazard(t))
        hy = float(dY.hazard(t))
        jtx = residual_extropy(dX, t, q).value
        jty = residual_extropy(dY, t, q).value
        lhs = d_prime - d_r * (hx + hy)
        gap = (hy - hx) * (jtx - jty)
        if form == "corrected":
            rhs = gap - 0.5 * (hx - hy) ** 2
        else:
            rhs = gap - 0.5 * (hx + hy) ** 2
        rows.append((t, lhs, rhs))
    max_resid = max(abs(lhs - rhs) for _, lhs, rhs in rows)
    return DynamicVerdict(
        kind="ode_residual",
        holds=max_resid <= tol,
        max_abs_residual=max_resid,
        tolerance=tol,
        per_point=tuple(rows),
        note=f"form={form}",
    )


def ode_check_divergence(
    dX: DistributionModel,
    dY: DistributionModel,
    grid: TimeGrid,
    q: QuadratureSpec | None = None,
    tol: float = 1e-3,
) -> DynamicVerdict:
    """Check d/dt J_r(f|g,t) = (h_X+h_Y) J_r + (h_Y-h_X)(h_X/2 + J_t(X))."""
    q = _q(q)
    step = grid.step()
    rows = []
    for t in grid.points:
        lo = max(t - step, 0.0)
        hi = t + step
        j_lo = residual_divergence(dX, dY, lo, q).value
        j_hi = residual_divergence(dX, dY, hi, q).value
        lhs = (j_hi - j_lo) / (hi - lo)
        j_r = residual_divergence(dX, dY, t, q).value
        hx = float(dX.hazard(t))
        hy = float(dY.hazard(t))
        jtx = residual_extropy(dX, t, q).value
        rhs = (hx + hy) * j_r + (hy - hx) * (hx / 2.0 + jtx)
        rows.append((t, lhs, rhs))
    max_resid = max(abs(lhs - rhs) for _, lhs, rhs in rows)
    return DynamicVerdict(
        kind="ode_divergence",
        holds=max_resid <= tol,
        max_abs_residual=max_resid,
        tolerance=tol,
        per_point=tuple(rows),
    )


def _nonincreasing(values: Sequence[float], slack: float = 1e-9) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def _nondecreasing(values: Sequence[float], slack: float = 1e-9) -> bool:
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def bound_checks(
    dX: DistributionModel,
    dY: DistributionModel,
    grid: TimeGrid,
    q: QuadratureSpec | None = None,
    tol: float = 1e-6,
) -> list[DynamicVerdict]:
    """Evaluate the three hazard-rate bounds for d_r on the grid.

    (i) lower bound via dynamic extropies, hypothesis: d_r nondecreasing;
    (ii) d/dt log d_r <= h_X + h_Y, hypothesis: one-sided hazard ordering
    with a DFR member; (iii) the equality case, which characterizes
    d_r = 1 / (S_F S_G).  Hypotheses are tested empirically on the grid and a
    failed premise is reported in ``hypothesis_met``, never raised.
    """
    q = _q(q)
    step = grid.step()
    ts = list(grid.points)
    d_r = [residual_relative(dX, dY, t, q).value for t in ts]
    d_prime = [_dr_derivative(dX, dY, t, q, step) for t in ts]
    hx = [float(dX.hazard(t)) for t in ts]
    hy = [float(dY.hazard(t)) for t in ts]
    jtx = [residual_extropy(dX, t, q).value for t in ts]
    jty = [residual_extropy(dY, t, q).value for t in ts]
    sfx = [float(dX.survival(t)) for t in ts]
    sfy = [float(dY.survival(t)) for t in ts]

    verdicts = []

    # (i) d_r >= ((h_X - h_Y)/(h_X + h_Y)) (J_t(X) - J_t(Y)) when d_r is nondecreasing
    nondecreasing = _nondecreasing(d_r) and all(dp >= -tol for dp in d_prime)
    rows = []
    for i, t in enumerate(ts):
        rhs = ((hx[i] - hy[i]) / (hx[i] + hy[i])) * (jtx[i] - jty[i])
        rows.append((t, d_r[i], rhs))
    ok = all(lhs >= rhs - tol for _, lhs, rhs in rows)
    worst = max(max(rhs - lhs, 0.0) for _, lhs, rhs in rows)
    verdicts.append(
        DynamicVerdict(
            kind="bound_lower",
            holds=ok and nondecreasing,
            max_abs_residual=worst,
            tolerance=tol,
            per_point=tuple(rows),
            hypothesis_met=nondecreasing,
            note="hypothesis: d_r nondecreasing on the grid",
        )
    )

    # (ii) d/dt log d_r <= h_X + h_Y under a one-sided hazard ordering + DFR member
    ordered = all(a >= b for a, b in zip(hx, hy)) or all(b >= a for a, b in zip(hx, hy))
    dfr = _nonincreasing(hx) or _nonincreasing(hy)
    hypothesis = ordered and dfr
    rows = []
    for i, t in enumerate(ts):
        if d_r[i] <= q.denominator_floor:
            continue
        rows.append((t, d_prime[i] / d_r[i], hx[i] + hy[i]))
    ok = all(lhs <= rhs + tol for _, lhs, rhs in rows) if rows else True
    worst = max((max(lhs - rhs, 0.0) for _, lhs, rhs in rows), default=0.0)
    verdicts.append(
        DynamicVerdict(
            kind="bound_log_derivative",
            holds=ok and hypothesis,
            max_abs_residual=worst,
            tolerance=tol,
            per_point=tuple(rows),
            hypothesis_met=hypothesis,
            note="hypothesis: one-sided hazard ordering and a DFR member",
        )
    )

    # (iii) equality case: d/dt log d_r = h_X + h_Y iff d_r = 1/(S_F S_G)
    rows = [(t, d_r[i] * sfx[i] * sfy[i], 1.0) for i, t in enumerate(ts)]
    max_resid = max(abs(lhs - rhs) for _, lhs, rhs in rows)
    verdicts.append(
        DynamicVerdict(
            kind="bound_equality",
            holds=max_resid <= tol,
            max_abs_residual=max_resid,
            tolerance=tol,
            per_point=tuple(rows),
            note="equality case d_r = 1/(S_F S_G)",
        )
    )
    return verdicts


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


def _pointwise_relation(a: Sequence[float], b: Sequence[float], resolution: float) -> str:
    if all(x >= y - resolution for x, y in zip(a, b)) and any(
        x > y + resolution for x, y in zip(a, b)
    ):
        return ">"
    if all(x <= y + resolution for x, y in zip(a, b)) and any(
        x < y - resolution for x, y in zip(a, b)
    ):
        return "<"
    if all(abs(x - y) <= resolution for x, y in zip(a, b)):
        return "="
    return "crossing"


def dynamic_orderings(
    dX: DistributionModel,
    dY: DistributionModel,
    grid: TimeGrid,
    q: QuadratureSpec | None = None,
) -> DynamicOrderings:
    """Evaluate hr/rh/rex/red/pex/ped orderings pointwise on the grid."""
    q = _q(q)
    ts = list(grid.points)
    resolution = 100.0 * q.abs_tol

    hx = [float(dX.hazard(t)) for t in ts]
    hy = [float(dY.hazard(t)) for t in ts]
    lx = [float(dX.reversed_hazard(t)) for t in ts]
    ly = [float(dY.reversed_hazard(t)) for t in ts]
    jtx = [residual_extropy(dX, t, q).value for t in ts]
    jty = [residual_extropy(dY, t, q).value for t in ts]
    jr_fg = [residual_divergence(dX, dY, t, q).value for t in ts]
    jr_gf = [residual_divergence(dY, dX, t, q).value for t in ts]
    jpx = [past_extropy(dX, t, q).value for t in ts]
    jpy = [past_extropy(dY, t, q).value for t in ts]
    jp_fg = [past_divergence(dX, dY, t, q).value for t in ts]
    jp_gf = [past_divergence(dY, dX, t, q).value for t in ts]

    # X <=_hr Y iff h_X >= h_Y pointwise; relation string compares X to Y
    hr_rel = {"<": ">", ">": "<", "=": "=", "crossing": "crossing"}[
        _pointwise_relation(hx, hy, resolution)
    ]
    rh_rel = {"<": ">", ">": "<", "=": "=", "crossing": "crossing"}[
        _pointwise_relation(lx, ly, resolution)
    ]
    rex_rel = _pointwise_relation(jtx, jty, resolution)
    red_rel = _pointwise_relation(jr_fg, jr_gf, resolution)
    pex_rel = _pointwise_relation(jpx, jpy, resolution)
    ped_rel = _pointwise_relation(jp_fg, jp_gf, resolution)

    def equivalent(ext_x, ext_y, div_fg, div_gf):
        # J_t(X) <= J_t(Y)  <=>  J(f|g,t) >= J(g|f,t), pointwise where resolvable
        for ex_gap, dv_gap in zip(
            (x - y for x, y in zip(ext_x, ext_y)), (a - b for a, b in zip(div_fg, div_gf))
        ):
            if abs(ex_gap) <= resolution or abs(dv_gap) <= resolution:
                continue
            if (ex_gap < 0) != (dv_gap > 0):
                return False
        return True

    return DynamicOrderings(
        points=tuple(ts),
        hr=hr_rel,
        rh=rh_rel,
        rex=rex_rel,
        red=red_rel,
        pex=pex_rel,
        ped=ped_rel,
        rex_red_equivalent=equivalent(jtx, jty, jr_fg, jr_gf),
        pex_ped_equivalent=equivalent(jpx, jpy, jp_fg, jp_gf),
    )


def global_decompositions(
    dX: DistributionModel,
    dY: DistributionModel,
    t: float,
    q: QuadratureSpec | None = None,
    tol: float | None = None,
    atom_convention: str = "ac",
) -> DynamicVerdict:
    """Check the three decompositions of static measures into past/residual parts.

    (a) xiJ = F G xiJ_p + S_F S_G xiJ_r
    (b) J(f|g) = S_F S_G J_r(f|g) + F G J_p(f|g) + (S_G - S_F)(S_F J_t(X) - F J(_tX))
    (c) d = d_p F G + d_r S_F S_G
            + (S_F - S_G)(S_G J_t(Y) + F J(_tX) - S_F J_t(X) - G J(_tY))

    The weighted third term of (b) is what the proof's expansion yields; the
    unweighted variant (J_t(X) - J(_tX)) is also evaluated and its residual
    recorded in ``note`` for comparison.
    """
    q = _q(q)
    tol = 10.0 * q.abs_tol if tol is None else tol
    # the conditional measures below raise when a denominator is under the floor
    f_t = float(dX.cdf(t))
    g_t = float(dY.cdf(t))
    sf_t = float(dX.survival(t))
    sg_t = float(dY.survival(t))

    xi = measures.extropy_inaccuracy(dX, dY, q).value
    xi_r = residual_inaccuracy(dX, dY, t, q).value
    xi_p = past_inaccuracy(dX, dY, t, q, atom_convention).value
    j_fg = measures.extropy_divergence(dX, dY, q).value
    jr_fg = residual_divergence(dX, dY, t, q).value
    jp_fg = past_divergence(dX, dY, t, q, atom_convention).value
    d = measures.relative_extropy(dX, dY, q).value
    d_r = residual_relative(dX, dY, t, q).value
    d_p = past_relative(dX, dY, t, q, atom_convention).value
    jtx = residual_extropy(dX, t, q).value
    jty = residual_extropy(dY, t, q).value
    jpx = past_extropy(dX, t, q, atom_convention).value
    jpy = past_extropy(dY, t, q, atom_convention).value

    rhs_a = f_t * g_t * xi_p + sf_t * sg_t * xi_r
    rhs_b = sf_t * sg_t * jr_fg + f_t * g_t * jp_fg + (sg_t - sf_t) * (sf_t * jtx - f_t * jpx)
    rhs_c = d_p * f_t * g_t + d_r * sf_t * sg_t + (sf_t - sg_t) * (
        sg_t * jty + f_t * jpx - sf_t * jtx - g_t * jpy
    )
    rows = ((t, xi, rhs_a), (t, j_fg, rhs_b), (t, d, rhs_c))
    max_resid = max(abs(lhs - rhs) for _, lhs, rhs in rows)

    rhs_b_unweighted = sf_t * sg_t * jr_fg + f_t * g_t * jp_fg + (sg_t - sf_t) * (jtx - jpx)
    return DynamicVerdict(
        kind="decomposition",
        holds=max_resid <= tol,
        max_abs_residual=max_resid,
        tolerance=tol,
        per_point=rows,
        note=f"unweighted-(b)-residual={abs(j_fg - rhs_b_unweighted):.3e}",
    )
