"""Static extropy measures: extropy, inaccuracy, relative extropy, divergences.

Conventions (all integrals over the support hull, tails truncated by policy):

* extropy            J(X)      = -(1/2) int f^2
* inaccuracy         xiJ(X,Y)  = -(1/2) int f g
* relative extropy   d(f,g)    =  (1/2) int (f - g)^2   (symmetric, >= 0)
* divergence         J(f|g)    =  (1/2) int (f - g) f   (directional, any sign)

These satisfy d = J(f|g) + J(g|f) and d = 2 xiJ - J(X) - J(Y) exactly; the
operations recompute each side independently so tests can assert the
identities numerically.

The residual and past measures of :mod:`extropy.dynamic` are the same four
forms over another window, so all twelve run through :func:`_windowed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .distributions import ExponentialParams, WeibullParams
from .errors import DenominatorUnderflow, InvalidModel, InvalidParameter
from .models import DistributionModel, MeasureReport, upper_limit
from .quadrature import QuadratureSpec, integrate

__all__ = [
    "extropy",
    "extropy_inaccuracy",
    "relative_extropy",
    "extropy_divergence",
    "decompose_relative",
    "PerturbationQuery",
    "perturbation_approx",
    "OrderingVerdict",
    "compare_static_ordering",
]

# The quadratic forms of the two (conditional) densities u = f/a, v = g/b, and
# the coefficient that turns the integral of a form into the measure.
_FORMS = {
    "extropy": (-0.5, lambda u, v: u * u),
    "inaccuracy": (-0.5, lambda u, v: u * v),
    "relative": (0.5, lambda u, v: (u - v) ** 2),
    "divergence_fg": (0.5, lambda u, v: (u - v) * u),
}


def _window_mass(d: DistributionModel, window: str, t: float | None, q: QuadratureSpec) -> float:
    if window == "support":
        return 1.0
    name = "survival" if window == "residual" else "cdf"
    mass = float(getattr(d, name)(t))
    if mass <= q.denominator_floor:
        raise DenominatorUnderflow(f"{d.label}: {name}({t:g}) = {mass:.3e} below floor")
    return mass


def _windowed(
    form: str,
    window: str,
    models: Sequence[DistributionModel],
    t: float | None = None,
    q: QuadratureSpec | None = None,
    atom_convention: str = "ac",
) -> MeasureReport:
    """Integrate one quadratic form of (f, g) over one window.

    ``form`` is a key of ``_FORMS``; ``models`` is (X,) for "extropy" and
    (X, Y) otherwise.  ``window`` is "support" (the hull of the supports),
    "residual" ((t, inf), each density divided by its survival at t) or
    "past" ((lo, t], each density divided by its cdf at t).  Every integrand
    is a conditional density, so the error estimate and the tail truncation
    are in the units of the value.  The product form vanishes off the overlap
    of the supports and is integrated over it alone.  Under
    ``atom_convention="paper"`` the past window adds the form of the atoms'
    conditional masses to the integral.
    """
    q = q or QuadratureSpec()
    if atom_convention not in ("ac", "paper"):
        raise InvalidParameter(f"atom_convention must be 'ac' or 'paper', got {atom_convention!r}")
    coef, pointwise = _FORMS[form]
    masses = [_window_mass(m, window, t, q) for m in models]

    lo = min(m.support[0] for m in models)
    if window == "past":
        hi, trunc = min(t, max(m.support[1] for m in models)), None
    else:
        if window == "residual":
            lo = max(t, lo)
        hi, trunc = upper_limit(models, lo, q, min(masses))
    if form == "inaccuracy":
        lo = max([lo] + [m.support[0] for m in models])
        hi = min([hi] + [m.support[1] for m in models])
    edges = [p for m in models for p in m.support if math.isfinite(p)]

    pf, pg = models[0].pdf, models[-1].pdf
    a, b = masses[0], masses[-1]
    if form == "extropy":
        label = models[0].label

        def integrand(x: float) -> float:
            u = float(pf(x)) / a
            if u < 0.0:
                raise InvalidModel(f"{label}: pdf({x:g}) = {u:g} is negative")
            return u * u
    else:

        def integrand(x: float) -> float:
            return pointwise(float(pf(x)) / a, float(pg(x)) / b)

    res = integrate(integrand, lo, hi, q, points=edges, truncated_at=trunc)
    paper = window == "past" and atom_convention == "paper"
    atoms = [m.atom_at_lo / s if paper else 0.0 for m, s in zip(models, masses)]
    value = coef * (res.value + pointwise(atoms[0], atoms[-1]))
    return MeasureReport.from_integral(
        form if window == "support" else f"{window}_{form}", value, res,
        t=t, inputs=tuple(m.label for m in models), abs_tol=q.abs_tol,
    )


def extropy(d: DistributionModel, q: QuadratureSpec | None = None) -> MeasureReport:
    """J(X) = -(1/2) int f^2 over the support; always <= 0.

    Raises :class:`InvalidModel` when the density evaluates negative (the
    squared integrand would silently hide the defect otherwise).
    """
    return _windowed("extropy", "support", (d,), q=q)


def extropy_inaccuracy(
    dX: DistributionModel, dY: DistributionModel, q: QuadratureSpec | None = None
) -> MeasureReport:
    """xiJ(X,Y) = -(1/2) int f g; reduces to J(X) when the models coincide.

    Disjoint supports make the integral exactly zero; that is reported with a
    warning flag rather than an error because it usually signals user error.
    """
    if min(dX.support[1], dY.support[1]) <= max(dX.support[0], dY.support[0]):
        return MeasureReport(
            "inaccuracy", 0.0, warnings=("disjoint_supports",), inputs=(dX.label, dY.label)
        )
    return _windowed("inaccuracy", "support", (dX, dY), q=q)


def relative_extropy(
    dX: DistributionModel, dY: DistributionModel, q: QuadratureSpec | None = None
) -> MeasureReport:
    """d(f,g) = (1/2) int (f-g)^2 >= 0; zero iff the densities agree a.e."""
    return _windowed("relative", "support", (dX, dY), q=q)


def extropy_divergence(
    dX: DistributionModel, dY: DistributionModel, q: QuadratureSpec | None = None
) -> MeasureReport:
    """J(f|g) = (1/2) int (f-g) f = xiJ(X,Y) - J(X); sign unrestricted."""
    return _windowed("divergence_fg", "support", (dX, dY), q=q)


def decompose_relative(
    dX: DistributionModel, dY: DistributionModel, q: QuadratureSpec | None = None
) -> tuple[float, float, float]:
    """Return (J(f|g), J(g|f), d(f,g)), each computed by its own integral."""
    q = q or QuadratureSpec()
    fg = extropy_divergence(dX, dY, q).value
    gf = extropy_divergence(dY, dX, q).value
    d = relative_extropy(dX, dY, q).value
    return fg, gf, d


@dataclass(frozen=True)
class PerturbationQuery:
    """Relative extropy between f(., theta) and f(., theta + delta).

    ``family`` selects the one-parameter slice: "exponential" (theta = rate),
    "weibull-shape" or "weibull-scale" (the other parameter is ``fixed``).
    """

    family: str
    theta: float
    delta_theta: float
    param_derivative_step: float | None = None
    fixed: float = 1.0

    def step(self) -> float:
        if self.param_derivative_step is not None:
            return self.param_derivative_step
        return max(1e-5, 1e-5 * abs(self.theta))

    def params_at(self, theta: float):
        if self.family == "exponential":
            return ExponentialParams(rate=theta)
        if self.family == "weibull-shape":
            return WeibullParams(shape=theta, scale=self.fixed)
        if self.family == "weibull-scale":
            return WeibullParams(shape=self.fixed, scale=theta)
        raise InvalidParameter(f"unknown perturbation family {self.family!r}")


def perturbation_approx(
    pq: PerturbationQuery,
    q: QuadratureSpec | None = None,
    derivative: str = "theta",
) -> tuple[float, float]:
    """Small-increment approximation of relative extropy, and its exact value.

    approx = (delta^2 / 2) int (df/dtheta)^2 dx with the parameter derivative
    by central difference.  ``derivative="x"`` instead differentiates the
    density in its argument, exposed for comparison; the parameter reading is
    the one whose ratio to the exact value tends to 1 as delta -> 0.
    """
    if derivative not in ("theta", "x"):
        raise InvalidParameter(f"derivative must be 'theta' or 'x', got {derivative!r}")
    q = q or QuadratureSpec()
    base = pq.params_at(pq.theta)  # validates theta
    shifted = pq.params_at(pq.theta + pq.delta_theta)  # validates theta + delta

    exact = relative_extropy(base.model(), shifted.model(), q).value
    if pq.delta_theta == 0.0:
        return 0.0, exact

    h = pq.step()
    if derivative == "theta":
        lo_model = pq.params_at(pq.theta - h).model()
        hi_model = pq.params_at(pq.theta + h).model()

        def dsq(x):
            return ((float(hi_model.pdf(x)) - float(lo_model.pdf(x))) / (2.0 * h)) ** 2

        ref = [lo_model, hi_model]
    else:
        model = base.model()

        def dsq(x):
            hx = max(1e-6, 1e-6 * abs(x))
            return ((float(model.pdf(x + hx)) - float(model.pdf(x - hx))) / (2.0 * hx)) ** 2

        ref = [model]

    lo = min(m.support[0] for m in ref)
    hi, _ = upper_limit(ref, lo, q)
    res = integrate(dsq, lo, hi, q)
    approx = 0.5 * pq.delta_theta**2 * res.value
    return approx, exact


@dataclass(frozen=True)
class OrderingVerdict:
    """Signs and identities relating extropy and divergence orderings."""

    extropy_x: float
    extropy_y: float
    divergence_fg: float
    divergence_gf: float
    identity_gap: float
    extropy_relation: str
    divergence_relation: str
    consistent: bool
    implications: tuple[str, ...]


def _relation(a: float, b: float, resolution: float) -> str:
    if a > b + resolution:
        return ">"
    if a < b - resolution:
        return "<"
    return "="


def compare_static_ordering(
    dX: DistributionModel, dY: DistributionModel, q: QuadratureSpec | None = None
) -> OrderingVerdict:
    """Evaluate the extropy and divergence orderings and their equivalence.

    The equivalence rests on J(f|g) - J(g|f) = J(Y) - J(X); ``identity_gap``
    is the numerical residual of that identity and ``consistent`` additionally
    requires the two orderings to point the expected (opposite) ways whenever
    the gap between the compared quantities is resolvable.
    """
    q = q or QuadratureSpec()
    jx = extropy(dX, q).value
    jy = extropy(dY, q).value
    fg = extropy_divergence(dX, dY, q).value
    gf = extropy_divergence(dY, dX, q).value
    resolution = 100.0 * q.abs_tol
    gap = (fg - gf) - (jy - jx)

    ex_rel = _relation(jx, jy, resolution)
    ed_rel = _relation(fg, gf, resolution)
    # X <_ex Y (J(X) < J(Y)) holds iff X >_ed Y (J(f|g) > J(g|f))
    expected_ed = {"<": ">", ">": "<", "=": "="}[ex_rel]
    consistent = abs(gap) <= 10.0 * q.abs_tol and (
        ed_rel == expected_ed or "=" in (ex_rel, ed_rel)
    )

    implications = []
    if ex_rel == "<":  # X <_ex Y  =>  J(f|g) > 0
        implications.append(f"divergence_fg_positive:{fg > 0}")
    if ex_rel == ">":  # X >_ex Y  =>  J(g|f) > 0
        implications.append(f"divergence_gf_positive:{gf > 0}")

    return OrderingVerdict(
        extropy_x=jx,
        extropy_y=jy,
        divergence_fg=fg,
        divergence_gf=gf,
        identity_gap=gap,
        extropy_relation=ex_rel,
        divergence_relation=ed_rel,
        consistent=consistent,
        implications=tuple(implications),
    )
