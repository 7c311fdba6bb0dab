"""Distribution model and measure-report containers.

A :class:`DistributionModel` bundles exact evaluators for one absolutely
continuous law (possibly carrying a point mass at the left support endpoint).
All measure operations consume models and emit :class:`MeasureReport` values
whose diagnostics come straight from the quadrature layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidModel
from .quadrature import QuadratureSpec, integrate

__all__ = ["DistributionModel", "MeasureReport", "validate_model", "break_points"]

Evaluator = Callable[[float], float]

#: cdf levels whose quantiles split every integral over a model's support; the
#: upper ones run down to a survival of 1e-16, so a residual window at any t
#: the denominator floor admits still has pieces on the model's scale beyond t
QUANTILE_LEVELS = (
    tuple(10.0**-k for k in range(15, 0, -1)) + (0.5,) + tuple(1.0 - 10.0**-k for k in range(1, 17))
)


@dataclass(frozen=True)
class DistributionModel:
    """Evaluable density, distribution and hazard functions on one support.

    Evaluators accept scalars or numpy arrays, return 0 density outside the
    support, and must be pure (they are shared across concurrent callers).
    ``quantile`` inverts the cdf on (0, 1); integrals split at its values.
    ``atom_at_lo`` is an optional point mass at ``support[0]``; density-based
    integrals never see it, but past-lifetime measures may fold it in under
    the mass-squared convention.  ``lo_exponent`` is the power p with
    pdf(x) ~ (x - support[0])^p as x approaches the left end; it is negative
    where the density is unbounded there.
    """

    label: str
    pdf: Evaluator
    cdf: Evaluator
    survival: Evaluator
    hazard: Evaluator
    reversed_hazard: Evaluator
    quantile: Evaluator
    support: tuple[float, float]
    atom_at_lo: float = 0.0
    lo_exponent: float = 0.0

    def __post_init__(self):
        lo, hi = self.support
        if not (lo < hi):
            raise InvalidModel(f"empty support [{lo}, {hi}]")
        if not (0.0 <= self.atom_at_lo < 1.0):
            raise InvalidModel(f"atom_at_lo {self.atom_at_lo} outside [0, 1)")


@dataclass(frozen=True)
class MeasureReport:
    """A computed measure value plus quadrature diagnostics."""

    measure_id: str
    value: float | np.ndarray
    t: float | np.ndarray | None = None
    abs_error: float | np.ndarray = 0.0
    subdivisions: int = 0
    warnings: tuple[str, ...] = ()
    inputs: tuple[str, ...] = field(default=())


def break_points(models: Sequence[DistributionModel]) -> list[float]:
    """Sorted finite support edges of ``models`` and their quantiles at ``QUANTILE_LEVELS``.

    Cut at these points, an integral of a form of the densities runs on each
    model's own scale: its last piece holds a tail mass of at most 1e-6.
    """
    edges = {p for m in models for p in m.support if math.isfinite(p)}
    edges.update(float(x) for m in models for x in m.quantile(np.array(QUANTILE_LEVELS)))
    return sorted(edges)


def validate_model(d: DistributionModel, q: QuadratureSpec | None = None) -> None:
    """Check the model invariants; raise :class:`InvalidModel` on violation.

    Normalization uses the quadrature tolerance scaled by a safety factor of
    100 (the probe integral is itself approximate).  Hazard identities are
    checked only where the relevant denominator exceeds the floor.
    """
    q = q or QuadratureSpec()
    lo, hi = d.support
    points = break_points([d])
    res = integrate(d.pdf, lo, hi, q, points=points)
    total = res.value + d.atom_at_lo
    if abs(total - 1.0) > 100 * max(q.abs_tol, res.abs_error) + 1e-9:
        raise InvalidModel(f"{d.label}: pdf + atom integrates to {total!r}, not 1")
    if abs(float(d.cdf(lo)) - d.atom_at_lo) > 1e-9:
        raise InvalidModel(f"{d.label}: cdf at the left endpoint is not the atom mass")
    if float(d.cdf(hi)) < 1.0 - 1e-6:
        raise InvalidModel(f"{d.label}: cdf does not reach 1 at the right endpoint")

    probe = np.linspace(lo, points[-1], 257)[1:-1]
    pdf = np.asarray(d.pdf(probe), dtype=float)
    if np.any(pdf < 0):
        raise InvalidModel(f"{d.label}: negative density")
    cdf = np.asarray(d.cdf(probe), dtype=float)
    if np.any(np.diff(cdf) < -1e-12):
        raise InvalidModel(f"{d.label}: cdf not nondecreasing")
    sf = np.asarray(d.survival(probe), dtype=float)
    if np.max(np.abs(sf - (1.0 - cdf))) > 1e-9:
        raise InvalidModel(f"{d.label}: survival != 1 - cdf")
    eps = q.denominator_floor
    ok = sf > eps
    hz = np.asarray(d.hazard(probe), dtype=float)
    if np.max(np.abs(hz[ok] * sf[ok] - pdf[ok]), initial=0.0) > 1e-8 * max(1.0, float(pdf.max())):
        raise InvalidModel(f"{d.label}: hazard * survival != pdf")
    ok = cdf > eps
    rh = np.asarray(d.reversed_hazard(probe), dtype=float)
    if np.max(np.abs(rh[ok] * cdf[ok] - pdf[ok]), initial=0.0) > 1e-8 * max(1.0, float(pdf.max())):
        raise InvalidModel(f"{d.label}: reversed_hazard * cdf != pdf")
