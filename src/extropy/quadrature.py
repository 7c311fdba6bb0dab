"""Batched quadrature split at shared break points, plus a tail-truncation search.

Every integral in the package runs through :func:`integrate`.  It integrates
an elementwise integrand over broadcast limits, each interval cut at shared
break points, and all pieces of all elements go to one call of the
double-exponential (tanh-sinh) rule of ``scipy.integrate.tanhsinh``.  Callers
place the break points at the models' quantiles, so every piece runs on the
models' own scale and an upper limit may be +inf.  :func:`truncation_point`
finds a finite upper limit for integrands whose law has no quantile.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate as _si

from .errors import QuadratureFailure

__all__ = ["QuadratureSpec", "IntegralResult", "integrate", "truncation_point"]

# Subdivision cap of the QUADPACK fallback for pieces singular at their left end.
_QUADPACK_LIMIT = 200
_EPS = np.finfo(float).eps


class QuadratureSpec:
    """The package's one numerical policy, read as class attributes.

    Every integral meets ``abs_tol`` or ``rel_tol``.  ``denominator_floor``
    is the epsilon below which conditional measures refuse to divide.
    ``truncation_max`` caps the search for a finite upper limit on
    heavy-tailed laws.
    """

    abs_tol = 1e-9
    rel_tol = 1e-8
    denominator_floor = 1e-12
    truncation_max = 1e12


@dataclass(frozen=True)
class IntegralResult:
    """Integrals and error estimates, shaped like the broadcast limits.

    ``value`` and ``abs_error`` are floats for scalar limits.  ``subdivisions``
    counts the non-empty pieces integrated over all elements.
    """

    value: float | np.ndarray
    abs_error: float | np.ndarray
    subdivisions: int


def truncation_point(
    survivals: Iterable[Callable[[float], float]],
    pdfs: Iterable[Callable[[np.ndarray], np.ndarray]],
    lo: float,
) -> float:
    """Finite upper limit for an integral of density products over [lo, inf).

    Doubles a candidate T until every survival function at T is below
    ``abs_tol / (4 * max(1, M))`` where M is the largest density value seen on
    a probe grid.  Integrands built from products of the given densities then
    have tail mass below ``abs_tol`` (|fg|, f^2 and (f-g)^2 are all bounded by
    2 M times the larger survival).  Each ``pdf`` is probed on a whole array
    of points at once; survivals are called on scalars.
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
        threshold = QuadratureSpec.abs_tol / (4.0 * m)
        if all(float(sf(t)) <= threshold for sf in survivals):
            return t
        t *= 2.0
        if t > QuadratureSpec.truncation_max:
            raise QuadratureFailure(
                f"no truncation point below {QuadratureSpec.truncation_max:g} brings the tail "
                f"below {QuadratureSpec.abs_tol:g}"
            )


def _near(x, y):
    """Within 8 ulps: tanh-sinh has no room for nodes between x and y (1 ulp gives NaN)."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which compares False
        return np.abs(x - y) <= 8.0 * _EPS * np.minimum(np.abs(x), np.abs(y))


def integrate(
    fn: Callable[..., np.ndarray],
    lo,
    hi,
    points: Sequence[float] = (),
    args: Sequence = (),
) -> IntegralResult:
    """Integrate the elementwise ``fn(x, *args)`` over [lo, hi] for every element.

    ``lo``, ``hi`` and each of ``args`` broadcast to one shape; ``hi`` may be
    +inf, and an element with ``hi <= lo`` integrates to 0.  Every interval is
    cut at the finite ``points`` inside it, and all pieces are integrated in
    one tanh-sinh call.  Cuts within 8 ulps of a limit or of each other
    merge.  A piece whose integrand is non-finite at its left end
    goes to QUADPACK instead: tanh-sinh cannot resolve x^p near -1 there.
    Raises :class:`QuadratureFailure` for the first element with a piece that
    did not converge and a summed error above max(abs_tol, rel_tol |value|).
    """
    lo, hi, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, *args)))
    shape = lo.shape
    lo, hi, args = lo.ravel(), hi.ravel(), [a.ravel() for a in args]
    edges = np.unique([p for p in points if np.isfinite(p)])
    edges = edges[np.concatenate(([True], ~_near(edges[1:], edges[:-1])))[: edges.size]]
    cuts = np.clip(np.concatenate(([-np.inf], edges, [np.inf]))[:, None], lo, hi)
    # a cut that close to a limit moves onto it, so no piece is a sliver
    cuts = np.where(_near(cuts, lo), lo, np.where(_near(cuts, hi), hi, cuts))
    a, b = cuts[:-1], cuts[1:]
    keep = b > a
    element = np.broadcast_to(np.arange(lo.size), a.shape)[keep]
    a, b, args = a[keep], b[keep], [arg[element] for arg in args]

    value, error = np.zeros(a.size), np.zeros(a.size)
    converged = np.ones(a.size, dtype=bool)
    with np.errstate(all="ignore"):
        singular = ~np.isfinite(fn(a, *args)) if a.size else np.zeros(0, dtype=bool)
    regular = ~singular
    if regular.any():
        res = _si.tanhsinh(
            fn, a[regular], b[regular], args=tuple(arg[regular] for arg in args),
            atol=QuadratureSpec.abs_tol, rtol=QuadratureSpec.rel_tol,
        )
        value[regular], error[regular], converged[regular] = res.integral, res.error, res.success
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        for i in np.flatnonzero(singular):
            piece = lambda x, i=i: float(fn(np.float64(x), *(arg[i] for arg in args)))
            out = _si.quad(piece, a[i], b[i], epsabs=QuadratureSpec.abs_tol,
                           epsrel=QuadratureSpec.rel_tol, limit=_QUADPACK_LIMIT, full_output=1)
            value[i], error[i], converged[i] = out[0], out[1], len(out) < 4

    total = np.bincount(element, weights=value, minlength=lo.size)
    abs_error = np.bincount(element, weights=error, minlength=lo.size)
    failed = np.bincount(element, weights=~converged, minlength=lo.size) > 0
    tolerance = np.maximum(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * np.abs(total))
    bad = np.flatnonzero(failed & ~(abs_error <= tolerance))
    if bad.size:
        i = bad[0]
        raise QuadratureFailure(
            f"error estimate {abs_error[i]:.3e} above tolerance {tolerance[i]:.3e} "
            f"on [{lo[i]:g}, {hi[i]:g}]"
        )
    if not shape:
        return IntegralResult(float(total[0]), float(abs_error[0]), int(a.size))
    return IntegralResult(total.reshape(shape), abs_error.reshape(shape), int(a.size))
