"""Distribution model and measure-report containers.

A :class:`DistributionModel` bundles exact evaluators for one absolutely
continuous law (possibly carrying a point mass at the left support endpoint).
All measure operations consume models and emit :class:`MeasureReport` values
whose diagnostics come straight from the quadrature layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidModel
from .quadrature import IntegralResult, QuadratureSpec, integrate, truncation_point

__all__ = ["DistributionModel", "MeasureReport", "validate_model", "RELATIVE_MEASURE_IDS"]

Evaluator = Callable[[float], float]

#: measure ids whose values are nonnegative up to quadrature error
RELATIVE_MEASURE_IDS = frozenset({"relative", "residual_relative", "past_relative"})


@dataclass(frozen=True)
class DistributionModel:
    """Evaluable density, distribution and hazard functions on one support.

    Evaluators accept scalars or numpy arrays, return 0 density outside the
    support, and must be pure (they are shared across concurrent callers).
    ``atom_at_lo`` is an optional point mass at ``support[0]``; density-based
    integrals never see it, but past-lifetime measures may fold it in under
    the mass-squared convention.
    """

    label: str
    pdf: Evaluator
    cdf: Evaluator
    survival: Evaluator
    hazard: Evaluator
    reversed_hazard: Evaluator
    support: tuple[float, float]
    atom_at_lo: float = 0.0

    def __post_init__(self):
        lo, hi = self.support
        if not (lo < hi):
            raise InvalidModel(f"empty support [{lo}, {hi}]")
        if not (0.0 <= self.atom_at_lo < 1.0):
            raise InvalidModel(f"atom_at_lo {self.atom_at_lo} outside [0, 1)")

    @property
    def unbounded(self) -> bool:
        return not np.isfinite(self.support[1])


@dataclass(frozen=True)
class MeasureReport:
    """A computed measure value plus quadrature diagnostics."""

    measure_id: str
    value: float
    t: float | None = None
    abs_error: float = 0.0
    truncated_at: float | None = None
    subdivisions: int = 0
    warnings: tuple[str, ...] = ()
    inputs: tuple[str, ...] = field(default=())

    @classmethod
    def from_integral(
        cls,
        measure_id: str,
        value: float,
        result: IntegralResult,
        *,
        t: float | None = None,
        warnings: tuple[str, ...] = (),
        inputs: tuple[str, ...] = (),
        abs_tol: float = 1e-9,
    ) -> "MeasureReport":
        if measure_id in RELATIVE_MEASURE_IDS and value < -abs_tol:
            raise InvalidModel(
                f"{measure_id} came out {value:.3e}, below the nonnegativity floor"
            )
        return cls(
            measure_id=measure_id,
            value=value,
            t=t,
            abs_error=result.abs_error,
            truncated_at=result.truncated_at,
            subdivisions=result.subdivisions,
            warnings=warnings,
            inputs=inputs,
        )


def upper_limit(
    models: Sequence[DistributionModel], lo: float, q: QuadratureSpec, mass: float = 1.0
) -> tuple[float, float | None]:
    """Finite upper limit for an integral from ``lo`` of a quadratic form of the densities.

    Returns ``(hi, truncated_at)``.  When every support is bounded, ``hi`` is
    the largest right endpoint and ``truncated_at`` is None.  Otherwise both
    are the :func:`truncation_point` of the unbounded models, raised to any
    bounded endpoint above it.  The search runs at ``abs_tol * mass**2``, so
    the tail stays below ``abs_tol`` when each density is divided by a window
    mass of at least ``mass``.
    """
    bounded = [m.support[1] for m in models if not m.unbounded]
    unbounded = [m for m in models if m.unbounded]
    if not unbounded:
        return max(bounded), None
    spec = replace(q, abs_tol=q.abs_tol * mass * mass)
    hi = truncation_point([m.survival for m in unbounded], [m.pdf for m in unbounded], lo, spec)
    hi = max([hi] + bounded)
    return hi, hi


def validate_model(d: DistributionModel, q: QuadratureSpec | None = None) -> None:
    """Check the model invariants; raise :class:`InvalidModel` on violation.

    Normalization uses the quadrature tolerance scaled by a safety factor of
    100 (the probe integral is itself approximate).  Hazard identities are
    checked only where the relevant denominator exceeds the floor.
    """
    q = q or QuadratureSpec()
    lo = d.support[0]
    upper, _ = upper_limit([d], lo, q)
    res = integrate(lambda x: float(d.pdf(x)), lo, upper, q)
    total = res.value + d.atom_at_lo
    if abs(total - 1.0) > 100 * max(q.abs_tol, res.abs_error) + 1e-9:
        raise InvalidModel(f"{d.label}: pdf + atom integrates to {total!r}, not 1")
    if abs(float(d.cdf(lo)) - d.atom_at_lo) > 1e-9:
        raise InvalidModel(f"{d.label}: cdf at the left endpoint is not the atom mass")
    if float(d.cdf(upper)) < 1.0 - 1e-6:
        raise InvalidModel(f"{d.label}: cdf does not reach 1 at the right endpoint")

    probe = np.linspace(lo, upper, 257)[1:-1]
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
