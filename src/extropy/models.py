"""Distribution model base class and measure-report containers.

A :class:`DistributionModel` is one absolutely continuous law (possibly
carrying a point mass at the left support endpoint) with exact evaluators;
its hazard and reversed hazard follow from them.
All measure operations consume models and emit :class:`MeasureReport` values
whose diagnostics come straight from the quadrature layer.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InvalidModel, InvalidParameter
from .quadrature import QuadratureSpec, integrate

__all__ = ["DistributionModel", "MeasureReport", "validate_model", "break_points"]

#: cdf levels whose quantiles split every integral over a model's support; the
#: upper ones run down to a survival of 1e-16, so a residual window at any t
#: the denominator floor admits still has pieces on the model's scale beyond t
QUANTILE_LEVELS = (
    tuple(10.0**-k for k in range(15, 0, -1)) + (0.5,) + tuple(1.0 - 10.0**-k for k in range(1, 17))
)


class DistributionModel(ABC):
    """One law on one support: its evaluators, and the hazards they define.

    The parametric families in :mod:`extropy.distributions` are frozen
    dataclasses of their parameters that subclass this; the parameter set is
    the model.  ``pdf``, ``cdf``, ``survival`` and ``quantile`` accept scalars
    or numpy arrays, return 0 density outside the support, and must be pure
    (models are shared across concurrent callers).  ``quantile`` inverts the
    cdf on (0, 1); integrals split at its values.  ``atom_at_lo`` is an
    optional point mass at ``support[0]``; density-based integrals never see
    it, but past-lifetime measures may fold it in under the mass-squared
    convention.  ``lo_exponent`` is the power p with pdf(x) ~ (x - support[0])^p
    as x approaches the left end; it is negative where the density is
    unbounded there.  Every parameter must be finite.
    """

    label: str
    support: tuple[float, float]
    atom_at_lo: float = 0.0
    lo_exponent: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise InvalidParameter(f"{self.label}: parameters must be finite")

    @abstractmethod
    def pdf(self, x): ...

    @abstractmethod
    def cdf(self, x): ...

    @abstractmethod
    def survival(self, x): ...

    @abstractmethod
    def quantile(self, u): ...

    def hazard(self, x):
        """pdf / survival, +inf where the survival is 0."""
        return _ratio(self.pdf(x), self.survival(x))

    def reversed_hazard(self, x):
        """pdf / cdf, +inf where the cdf is 0."""
        return _ratio(self.pdf(x), self.cdf(x))


def _ratio(num, den):
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)


@dataclass(frozen=True)
class MeasureReport:
    """A computed measure value plus quadrature diagnostics."""

    value: float | np.ndarray
    abs_error: float | np.ndarray = 0.0
    subdivisions: int = 0
    warnings: tuple[str, ...] = ()


def break_points(models: Sequence[DistributionModel]) -> list[float]:
    """Sorted finite support edges of ``models`` and their quantiles at ``QUANTILE_LEVELS``.

    Cut at these points, an integral of a form of the densities runs on each
    model's own scale: its last piece holds a tail mass of at most 1e-6.
    """
    edges = {p for m in models for p in m.support if math.isfinite(p)}
    edges.update(float(x) for m in models for x in m.quantile(np.array(QUANTILE_LEVELS)))
    return sorted(edges)


def validate_model(d: DistributionModel) -> None:
    """Check the model invariants; raise :class:`InvalidModel` on violation.

    Normalization uses the quadrature tolerance scaled by a safety factor of
    100 (the probe integral is itself approximate).  The hazards need no
    check: the base class defines them as pdf/survival and pdf/cdf.
    """
    lo, hi = d.support
    points = break_points([d])
    res = integrate(d.pdf, lo, hi, points=points, power=d.lo_exponent)
    total = res.value + d.atom_at_lo
    if abs(total - 1.0) > 100 * max(QuadratureSpec.abs_tol, res.abs_error) + 1e-9:
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
