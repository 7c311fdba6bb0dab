"""Static extropy measures: extropy, inaccuracy, relative extropy, divergences.

Conventions (all integrals over the support hull):

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import ExponentialParams, WeibullParams
from .errors import DenominatorUnderflow, InvalidModel, InvalidParameter
from .models import DistributionModel, MeasureReport, break_points
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

# The quadratic forms of the two (conditional) densities u = f/a, v = g/b, the
# coefficient that turns the integral of a form into the measure, and the
# density products (indices into the models) whose integrals decide whether
# the form's is finite; (u - v)^2 diverges only where u*u or v*v does.
_FORMS = {
    "extropy": (-0.5, lambda u, v: u * u, ((0, 0),)),
    "inaccuracy": (-0.5, lambda u, v: u * v, ((0, 1),)),
    "relative": (0.5, lambda u, v: (u - v) ** 2, ((0, 0), (1, 1))),
    "divergence_fg": (0.5, lambda u, v: (u - v) * u, ((0, 0), (0, 1))),
}


def _window_mass(d: DistributionModel, window: str, t):
    if window == "support":
        return 1.0
    name = "survival" if window == "residual" else "cdf"
    mass = np.asarray(getattr(d, name)(t), dtype=float)
    if np.min(mass) <= QuadratureSpec.denominator_floor:
        i = np.argmin(mass)
        raise DenominatorUnderflow(
            f"{d.label}: {name}({np.ravel(t)[i]:g}) = {mass.flat[i]:.3e} below floor"
        )
    return mass


def _windowed(
    form: str,
    window: str,
    models: Sequence[DistributionModel],
    t=None,
    atom_convention: str = "ac",
) -> MeasureReport:
    """Integrate one quadratic form of (f, g) over one window, at one or many times.

    ``form`` is a key of ``_FORMS``; ``models`` is (X,) for "extropy" and
    (X, Y) otherwise.  ``window`` is "support" (the hull of the supports),
    "residual" ((t, inf), each density divided by its survival at t) or
    "past" ((lo, t], each density divided by its cdf at t).  Every integrand
    is a conditional density, so the error estimate is in the units of the
    value.  The product form vanishes off the overlap of the supports and is
    integrated over it alone; on disjoint supports it is 0 with the warning
    "disjoint_supports".  A form whose integral diverges at a left end the
    window reaches (see ``DistributionModel.lo_exponent``) raises
    :class:`InvalidParameter` before integrating; otherwise the power of its
    most singular product tells :func:`integrate` how a piece unbounded at its
    left end grows.  A conditional density that evaluates negative raises
    :class:`InvalidModel`.  Under ``atom_convention="paper"`` the past window
    adds the form of the atoms' conditional masses to the integral.  An array
    ``t`` gives arrays of values in one batched integral; a scalar ``t`` (or
    none) gives a float.
    """
    if atom_convention not in ("ac", "paper"):
        raise InvalidParameter(f"atom_convention must be 'ac' or 'paper', got {atom_convention!r}")
    if t is not None and np.isnan(t).any():
        raise InvalidParameter("t is NaN")  # its window would be empty and integrate to 0
    coef, pointwise, products = _FORMS[form]
    measure_id = form if window == "support" else f"{window}_{form}"
    masses = [_window_mass(m, window, t) for m in models]
    labels = tuple(m.label for m in models)

    lo = min(m.support[0] for m in models)
    hi = max(m.support[1] for m in models)
    if window == "past":
        hi = np.minimum(t, hi)
    elif window == "residual":
        lo = np.maximum(t, lo)
    if form == "inaccuracy":
        start = max(m.support[0] for m in models)
        end = min(m.support[1] for m in models)
        if end <= start:
            # f g vanishes everywhere: exactly 0, flagged because it usually signals user error
            zero = np.zeros(np.shape(t)) if np.ndim(t) else 0.0
            return MeasureReport(zero, warnings=("disjoint_supports",))
        lo, hi = np.maximum(lo, start), np.minimum(hi, end)
    for i, j in products:
        a, b = models[i], models[j]
        edge, power = a.support[0], a.lo_exponent + b.lo_exponent
        # u v ~ (x - edge)^power near a shared left end, not integrable for power <= -1
        if b.support[0] == edge and power <= -1.0 and np.min(lo) <= edge:
            raise InvalidParameter(
                f"{measure_id} of {', '.join(labels)} diverges: its integrand behaves "
                f"like (x - {edge:g})^{power:g} where the window starts"
            )
    # where the integrand is unbounded at a left end, its most singular product leads
    power = min(models[i].lo_exponent + models[j].lo_exponent for i, j in products)

    def integrand(x, *masses):
        # each model's conditional density, once; a negative one is refused, since
        # a squared or product form would otherwise hide the defect
        us = [m.pdf(x) / a for m, a in zip(models, masses)]
        for m, u in zip(models, us):
            i = np.argmin(u)
            if u.flat[i] < 0.0:
                raise InvalidModel(f"{m.label}: pdf({x.flat[i]:g}) = {u.flat[i]:g} is negative")
        return pointwise(us[0], us[-1])

    res = integrate(integrand, lo, hi, points=break_points(models), args=masses, power=power)
    paper = window == "past" and atom_convention == "paper"
    atoms = [m.atom_at_lo / s if paper else 0.0 for m, s in zip(models, masses)]
    value = coef * (res.value + pointwise(atoms[0], atoms[-1]))
    if form == "relative" and np.min(value) < -QuadratureSpec.abs_tol:
        low = np.min(value)
        raise InvalidModel(f"{measure_id} came out {low:.3e}, below the nonnegativity floor")
    return MeasureReport(
        float(value) if np.ndim(value) == 0 else value, abs_error=res.abs_error, subdivisions=res.subdivisions
    )


def extropy(d: DistributionModel) -> MeasureReport:
    """J(X) = -(1/2) int f^2 over the support; always <= 0.

    Raises :class:`InvalidModel` when the density evaluates negative (the
    squared integrand would silently hide the defect otherwise).
    """
    return _windowed("extropy", "support", (d,))


def extropy_inaccuracy(dX: DistributionModel, dY: DistributionModel) -> MeasureReport:
    """xiJ(X,Y) = -(1/2) int f g; reduces to J(X) when the models coincide."""
    return _windowed("inaccuracy", "support", (dX, dY))


def relative_extropy(dX: DistributionModel, dY: DistributionModel) -> MeasureReport:
    """d(f,g) = (1/2) int (f-g)^2 >= 0; zero iff the densities agree a.e."""
    return _windowed("relative", "support", (dX, dY))


def extropy_divergence(dX: DistributionModel, dY: DistributionModel) -> MeasureReport:
    """J(f|g) = (1/2) int (f-g) f = xiJ(X,Y) - J(X); sign unrestricted."""
    return _windowed("divergence_fg", "support", (dX, dY))


def decompose_relative(dX: DistributionModel, dY: DistributionModel) -> tuple[float, float, float]:
    """Return (J(f|g), J(g|f), d(f,g)), each computed by its own integral."""
    fg = extropy_divergence(dX, dY).value
    gf = extropy_divergence(dY, dX).value
    d = relative_extropy(dX, dY).value
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
    fixed: float = 1.0

    def step(self) -> float:
        return max(1e-5, 1e-5 * abs(self.theta))

    def params_at(self, theta: float) -> DistributionModel:
        if self.family == "exponential":
            return ExponentialParams(rate=theta)
        if self.family == "weibull-shape":
            return WeibullParams(shape=theta, scale=self.fixed)
        if self.family == "weibull-scale":
            return WeibullParams(shape=self.fixed, scale=theta)
        raise InvalidParameter(f"unknown perturbation family {self.family!r}")


def perturbation_approx(pq: PerturbationQuery, derivative: str = "theta") -> tuple[float, float]:
    """Small-increment approximation of relative extropy, and its exact value.

    approx = (delta^2 / 2) int (df/dtheta)^2 dx with the parameter derivative
    by central difference.  ``derivative="x"`` instead differentiates the
    density in its argument, exposed for comparison; the parameter reading is
    the one whose ratio to the exact value tends to 1 as delta -> 0.
    """
    if derivative not in ("theta", "x"):
        raise InvalidParameter(f"derivative must be 'theta' or 'x', got {derivative!r}")
    base = pq.params_at(pq.theta)  # validates theta
    shifted = pq.params_at(pq.theta + pq.delta_theta)  # validates theta + delta

    exact = relative_extropy(base, shifted).value
    if pq.delta_theta == 0.0:
        return 0.0, exact

    h = pq.step()
    if derivative == "theta":
        lo_model = pq.params_at(pq.theta - h)
        hi_model = pq.params_at(pq.theta + h)

        def dsq(x):
            return ((hi_model.pdf(x) - lo_model.pdf(x)) / (2.0 * h)) ** 2

        ref = [lo_model, hi_model]
        points = break_points(ref)
    else:
        def dsq(x):
            hx = np.maximum(1e-6, 1e-6 * np.abs(x))
            return ((base.pdf(x + hx) - base.pdf(x - hx)) / (2.0 * hx)) ** 2

        ref = [base]
        # below lo + 1e-6 the backward point x - hx leaves the support
        points = break_points(ref) + [base.support[0] + 1e-6]

    lo = min(m.support[0] for m in ref)
    hi = max(m.support[1] for m in ref)
    # a squared difference of densities that grow like x^p at a left end grows like x^(2p)
    power = 2.0 * min(m.lo_exponent for m in ref)
    res = integrate(dsq, lo, hi, points=points, power=power)
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


# A relation read the other way round: X <= Y in hazard order means h_X >= h_Y.
_FLIP = {"<": ">", ">": "<", "=": "=", "crossing": "crossing"}
# Tolerance of an identity between measures that are integrated separately.
_IDENTITY_TOL = 10.0 * QuadratureSpec.abs_tol
# The smallest gap an ordering resolves.
_RESOLUTION = 100.0 * QuadratureSpec.abs_tol


def _relation(a: Sequence[float], b: Sequence[float]) -> str:
    """How series a compares with b, point by point, to within ``_RESOLUTION``.

    ">" (or "<") when a >= b (a <= b) everywhere and strictly somewhere, "="
    when they agree everywhere, else "crossing"; one-point series compare
    static measures.
    """
    r = _RESOLUTION
    if all(x >= y - r for x, y in zip(a, b)) and any(x > y + r for x, y in zip(a, b)):
        return ">"
    if all(x <= y + r for x, y in zip(a, b)) and any(x < y - r for x, y in zip(a, b)):
        return "<"
    if all(abs(x - y) <= r for x, y in zip(a, b)):
        return "="
    return "crossing"


def _equivalent(ext_x, ext_y, div_fg, div_gf) -> bool:
    """J(X) <= J(Y) iff J(f|g) >= J(g|f), at every point where both gaps are resolvable."""
    r = _RESOLUTION
    gaps = ((x - y, a - b) for x, y, a, b in zip(ext_x, ext_y, div_fg, div_gf))
    return all((ex < 0) == (dv > 0) for ex, dv in gaps if not (abs(ex) <= r or abs(dv) <= r))


def compare_static_ordering(dX: DistributionModel, dY: DistributionModel) -> OrderingVerdict:
    """Evaluate the extropy and divergence orderings and their equivalence.

    The equivalence rests on J(f|g) - J(g|f) = J(Y) - J(X); ``identity_gap``
    is the numerical residual of that identity, and ``consistent`` requires it
    within ``_IDENTITY_TOL`` and the two orderings to point opposite ways
    wherever both gaps exceed ``_RESOLUTION``.  The relations and the
    equivalence are those of :func:`extropy.dynamic.dynamic_orderings`, on
    one-point series.
    """
    jx = extropy(dX).value
    jy = extropy(dY).value
    fg = extropy_divergence(dX, dY).value
    gf = extropy_divergence(dY, dX).value
    gap = (fg - gf) - (jy - jx)

    ex_rel = _relation((jx,), (jy,))
    ed_rel = _relation((fg,), (gf,))
    consistent = abs(gap) <= _IDENTITY_TOL and _equivalent((jx,), (jy,), (fg,), (gf,))

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
