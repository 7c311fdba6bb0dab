"""Adaptive quadrature with an explicit tail-truncation policy.

Every integral in the package runs through :func:`integrate`, which wraps
``scipy.integrate.quad`` and converts its diagnostics into an
:class:`IntegralResult`.  Unbounded upper limits are first mapped to a finite
truncation point by :func:`truncation_point`, chosen so that the discarded
tail mass is provably below the absolute tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate as _si

from .errors import QuadratureFailure

__all__ = ["QuadratureSpec", "IntegralResult", "integrate", "truncation_point"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and policies applied to every integral.

    ``denominator_floor`` is the epsilon below which conditional measures
    refuse to divide.  ``truncation_max`` caps the search for a finite upper
    limit on heavy-tailed models.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 200
    denominator_floor: float = 1e-12
    truncation_max: float = 1e12

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.denominator_floor <= 0:
            raise ValueError("denominator_floor must be positive")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error: float
    subdivisions: int
    truncated_at: float | None = None


def truncation_point(
    survivals: Iterable[Callable[[float], float]],
    pdfs: Iterable[Callable[[np.ndarray], np.ndarray]],
    lo: float,
    spec: QuadratureSpec,
) -> float:
    """Finite upper limit for an integral of density products over [lo, inf).

    Doubles a candidate T until every survival function at T is below
    ``abs_tol / (4 * max(1, M))`` where M is the largest density value seen on
    a probe grid.  Integrands built from products of the given densities then
    have tail mass below ``abs_tol`` (|fg|, f^2 and (f-g)^2 are all bounded by
    2 M times the larger survival).  Each ``pdf`` is probed on a whole array
    of points at once, so it must accept numpy arrays, as the evaluators of a
    ``DistributionModel`` do; survivals are called on scalars.
    """
    survivals = list(survivals)
    pdfs = list(pdfs)
    t = max(1.0, lo + 1.0)
    m = 1.0
    while True:
        grid = np.linspace(lo, t, 65)
        for pdf in pdfs:
            vals = np.asarray(pdf(grid), dtype=float)
            finite = vals[np.isfinite(vals)]
            if finite.size:
                m = max(m, float(finite.max()))
        threshold = spec.abs_tol / (4.0 * m)
        if all(float(sf(t)) <= threshold for sf in survivals):
            return t
        t *= 2.0
        if t > spec.truncation_max:
            raise QuadratureFailure(
                f"no truncation point below {spec.truncation_max:g} brings the tail "
                f"below {spec.abs_tol:g}"
            )


def integrate(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec,
    points: Sequence[float] | None = None,
    truncated_at: float | None = None,
) -> IntegralResult:
    """Integrate ``fn`` over the finite interval [lo, hi].

    ``points`` marks interior break points (support edges) passed through to
    QUADPACK.  Raises :class:`QuadratureFailure` when the error estimate stays
    above tolerance after ``max_subdivisions`` subdivisions.
    """
    if hi <= lo:
        return IntegralResult(0.0, 0.0, 0, truncated_at)
    brk = None
    if points:
        brk = sorted(p for p in points if lo < p < hi)
        if not brk:
            brk = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        out = _si.quad(
            fn,
            lo,
            hi,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
            points=brk,
            full_output=1,
        )
    value, abserr, info = out[0], out[1], out[2]
    ier = 0 if len(out) < 4 else 1
    subdivisions = int(info.get("last", 0))
    tolerance = max(spec.abs_tol, spec.rel_tol * abs(value))
    if ier != 0 and abserr > tolerance:
        raise QuadratureFailure(
            f"error estimate {abserr:.3e} above tolerance {tolerance:.3e} "
            f"after {subdivisions} subdivisions on [{lo:g}, {hi:g}]"
        )
    return IntegralResult(float(value), float(abserr), subdivisions, truncated_at)
