"""Batched quadrature split at shared break points.

Every integral in the package runs through :func:`integrate`.  It integrates
an elementwise integrand over broadcast limits, each interval cut at shared
break points, and all pieces of all elements go to one batched run of the
double-exponential (tanh-sinh) rule of Takahasi & Mori (1974) with the error
estimate of Bailey, Jeyabalan & Li (2005).  The rule is :func:`_tanhsinh`,
the algorithm of ``scipy.integrate.tanhsinh`` ported operation for operation,
so the package needs numpy alone.  A piece singular at its left end, where
the integrand grows like (x - a)^p with the p its caller states, is
integrated in s = ((x - a) / (b - a))^(p + 1), in which it is bounded.
Callers place the break points at the models' quantiles, so every piece runs
on the models' own scale and an upper limit may be +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure

__all__ = ["QuadratureSpec", "IntegralResult", "integrate"]

_EPS = np.finfo(float).eps


class QuadratureSpec:
    """The package's one numerical policy, read as class attributes.

    Every integral meets ``abs_tol`` or ``rel_tol``.  ``denominator_floor``
    is the epsilon below which conditional measures refuse to divide.
    """

    abs_tol = 1e-9
    rel_tol = 1e-8
    denominator_floor = 1e-12


@dataclass(frozen=True)
class IntegralResult:
    """Integrals and error estimates, shaped like the broadcast limits.

    ``value`` and ``abs_error`` are floats for scalar limits.  ``subdivisions``
    counts the non-empty pieces integrated over all elements.
    """

    value: float | np.ndarray
    abs_error: float | np.ndarray
    subdivisions: int


def truncation_point(*args, **kwargs):
    """A stub, not an algorithm: the benchmark tracer (perfbench/tracer.py) is its only reader."""
    raise NotImplementedError("no code in the package searches for a truncation point")


def _near(x, y):
    """Within 8 ulps: tanh-sinh has no room for nodes between x and y (1 ulp gives NaN)."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which compares False
        return np.abs(x - y) <= 8.0 * _EPS * np.minimum(np.abs(x), np.abs(y))


_MIN_LEVEL, _MAX_LEVEL = 2, 10
# Level 0 takes 8 steps out to the abscissa whose complement 1 - x underflows.
_H0 = math.asinh(math.log(2 / (4 * np.finfo(float).smallest_normal) - 1) / np.pi) / 8


def _level_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complements 1 - x_j and weights of level k's new abscissae on [-1, 1]."""
    h = _H0 / 2**k
    j = np.arange(8 * 2**k + 1) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)
    u1 = np.pi / 2 * np.cosh(j * h)
    u2 = np.pi / 2 * np.sinh(j * h)
    wj = u1 / np.cosh(u2) ** 2
    xjc = 1 / (np.exp(u2) * np.cosh(u2))
    if k == 0:
        wj[0] = wj[0] / 2  # x = 0 is evaluated twice, once per side
    return xjc, wj


_LEVELS = [_level_pairs(k) for k in range(_MAX_LEVEL + 1)]
# the first pass runs levels 0.._MIN_LEVEL at once; _FIRST_SIZES[k] counts the
# abscissae per side of the levels below k
_FIRST = tuple(np.concatenate(p) for p in zip(*_LEVELS[: _MIN_LEVEL + 1]))
_FIRST_SIZES = np.cumsum([0] + [xjc.size for xjc, _ in _LEVELS[:_MIN_LEVEL]])


def _tanhsinh(fn, a, b, args):
    """Tanh-sinh integrals of ``fn(x, *args)`` over [a, b] for 1-D finite a < b <= +inf.

    Returns the integrals, their error estimates and a converged mask.  Each
    level halves the step, which doubles the abscissae; an element retires
    once its error estimate meets ``abs_tol`` or ``rel_tol``, or once its sum
    is non-finite, and after level 10 the rest are returned unconverged.  An
    infinite limit is mapped to [0, 1] by x = 1/t - 1 + a.  Node by node this
    is the arithmetic of ``scipy.integrate.tanhsinh`` (as of scipy 1.17), so
    values and errors equal scipy's; the tests compare the two.
    """
    value, error = np.zeros(a.size), np.zeros(a.size)
    converged = np.zeros(a.size, dtype=bool)
    binf = np.isinf(b)
    mid = (a + b) / 2
    mid[binf] = a[binf] + 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # an element whose integrand is NaN at its midpoint fails at once
        nan = np.isnan(fn(mid, *args))
        value[nan] = error[nan] = np.nan
        active, keep = np.flatnonzero(~nan), ~nan
        a0, a, b, binf = a[keep, None], a[keep, None], b[keep, None], binf[keep]
        a[binf], b[binf] = 0.0, 1.0
        args = [arg[keep, None] for arg in args]
        # per side (row 0 at b, row 1 at a): how far out the outermost valid
        # node so far lies (t, or -t at a), with its value and weight
        reach0 = np.full((2, active.size), -np.inf)
        f0, w0 = np.full((2, active.size), np.nan), np.zeros((2, active.size))
        for n in range(_MIN_LEVEL, _MAX_LEVEL + 1):
            if not active.size:
                break
            h = _H0 / 2**n
            xjc, wj = _FIRST if n == _MIN_LEVEL else _LEVELS[n]
            alpha = (b - a) / 2
            t = np.concatenate((-alpha * xjc + b, alpha * xjc + a), axis=-1)
            wj = wj * alpha
            wj = np.concatenate((wj, wj), axis=-1)
            wj[(t <= a) | (t >= b)] = 0  # nodes rounded onto a limit
            x = t.copy()
            x[binf] = 1 / x[binf] - 1 + a0[binf]
            fj = np.asarray(fn(x, *args), dtype=float)
            fj[binf] *= t[binf] ** -2.0

            # Euler-Maclaurin sum; a non-finite or zero-weight node takes the
            # value of the outermost valid node on its side
            m, rows = t.shape[1] // 2, np.arange(active.size)
            invalid = ~np.isfinite(fj) | (wj == 0)
            reach = np.where(invalid, -np.inf, np.repeat([1.0, -1.0], m) * t)
            out = np.stack((np.argmax(reach[:, :m], axis=1), m + np.argmax(reach[:, m:], axis=1)))
            further = reach[rows, out] > reach0
            outermost = (v[rows, out][further] for v in (reach, fj, wj))
            reach0[further], f0[further], w0[further] = outermost
            fj = np.where(invalid, np.repeat(f0.T, m, axis=1), fj)
            fjwj = fj * wj
            sn = np.sum(fjwj, axis=-1) * h
            if n == _MIN_LEVEL:
                # the sums of the two levels below, from the same products
                per_side = fjwj.reshape(active.size, 2, -1)
                snm1, snm2 = (
                    np.sum(per_side[:, :, :size].reshape(active.size, -1), axis=-1) * (step * h)
                    for size, step in ((_FIRST_SIZES[2], 2), (_FIRST_SIZES[1], 4))
                )
            else:
                sn = snm1 / 2 + sn

            # error estimate of Bailey, Jeyabalan & Li, Section 5
            d1, d2 = np.abs(sn - snm1), np.abs(sn - snm2)
            d3, d5 = _EPS * np.max(np.abs(fjwj), axis=-1), _EPS * np.abs(sn)
            d4 = np.max(np.abs(f0 * w0), axis=0)
            temp = np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0)
            aerr = np.clip(np.max(np.stack([temp, d1**2, d3, d4]), axis=0), d5, d1)
            done = (aerr / np.abs(sn) < QuadratureSpec.rel_tol) | (aerr < QuadratureSpec.abs_tol)
            value[active], error[active], converged[active] = sn, aerr, done
            keep = ~done & np.isfinite(sn)
            active, snm2, snm1 = active[keep], snm1[keep], sn[keep]
            a0, a, b, binf = a0[keep], a[keep], b[keep], binf[keep]
            reach0, f0, w0 = reach0[:, keep], f0[:, keep], w0[:, keep]
            args = [arg[keep] for arg in args]
    return value, error, converged


def integrate(
    fn: Callable[..., np.ndarray],
    lo,
    hi,
    points: Sequence[float] = (),
    args: Sequence = (),
    power: float | None = None,
) -> IntegralResult:
    """Integrate the elementwise ``fn(x, *args)`` over [lo, hi] for every element.

    ``lo``, ``hi`` and each of ``args`` broadcast to one shape; ``hi`` may be
    +inf, and an element with ``hi <= lo`` integrates to 0.  Every interval is
    cut at the finite ``points`` inside it, and all pieces are integrated in
    one batched run of :func:`_tanhsinh`.  Cuts within 8 ulps of a limit or
    of each other merge.  A piece whose integrand is non-finite at its left
    end a, where it grows like (x - a)^``power``, goes to a second batched
    run in s = ((x - a) / (b - a))^(power + 1) (s = (x - a)^(power + 1) for
    b = +inf), in which the integrand is bounded: tanh-sinh cannot resolve
    x^p near -1 in x.  Such a piece without a ``power`` above -1 raises
    :class:`QuadratureFailure`, as does the first element with a piece that
    did not converge and a summed error above max(abs_tol, rel_tol |value|);
    when that element's integral is not finite, the message names the piece
    and a point where the integrand overflows, if a probe finds one.
    """
    lo, hi, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, *args)))
    shape = lo.shape
    lo, hi, args = lo.ravel(), hi.ravel(), [a.ravel() for a in args]
    # sorted, not np.unique: the merge below drops exact repeats, and unique's
    # first call imports numpy.ma
    edges = np.sort([p for p in points if np.isfinite(p)])
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
        value[regular], error[regular], converged[regular] = _tanhsinh(
            fn, a[regular], b[regular], [arg[regular] for arg in args]
        )
    if singular.any():
        if power is None or not power > -1.0:
            i = np.flatnonzero(singular)[0]
            raise QuadratureFailure(
                f"integrand is not finite at {a[i]:g}, the left end of [{a[i]:g}, {b[i]:g}], "
                f"and its power there is {power}, not above -1"
            )
        q = 1.0 / (power + 1.0)

        def substituted(s, left, width, *rest):
            return (width * q) * s ** (q - 1.0) * fn(left + width * s**q, *rest)

        left, right = a[singular], b[singular]
        bounded = np.isfinite(right)
        width = np.where(bounded, right - left, 1.0)
        value[singular], error[singular], converged[singular] = _tanhsinh(
            substituted, np.zeros(left.size), np.where(bounded, 1.0, np.inf),
            [left, width, *(arg[singular] for arg in args)],
        )

    total = np.bincount(element, weights=value, minlength=lo.size)
    abs_error = np.bincount(element, weights=error, minlength=lo.size)
    failed = np.bincount(element, weights=~converged, minlength=lo.size) > 0
    tolerance = np.maximum(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * np.abs(total))
    bad = np.flatnonzero(failed & ~(abs_error <= tolerance))
    if bad.size:
        i = bad[0]
        if not np.isfinite(total[i]):
            # probe the piece from b (or a + 1) toward a by factors of 10 in the distance,
            # so an overflow in a sliver at a, as of a density above 1e154 squared, shows
            k = np.flatnonzero((element == i) & ~np.isfinite(value))[0]
            x = a[k] + (b[k] - a[k] if np.isfinite(b[k]) else 1.0) * 10.0 ** -np.arange(330.0)
            x = x[(x > a[k]) & (x < b[k])]
            # a piece a few ulps wide, as [0, 1e-323], holds no point to probe
            with np.errstate(all="ignore"):
                big = x[np.isinf(fn(x, *(np.full(x.size, arg[k]) for arg in args)))] if x.size else x
            cause = f"the integrand overflows at {big[0]:g} in " if big.size else ""
            raise QuadratureFailure(
                f"integral {total[i]:.6g} on [{lo[i]:g}, {hi[i]:g}] is not finite: "
                f"{cause}its piece [{a[k]:g}, {b[k]:g}]"
            )
        raise QuadratureFailure(
            f"integral {total[i]:.6g} on [{lo[i]:g}, {hi[i]:g}] has error estimate "
            f"{abs_error[i]:.3e}, above tolerance {tolerance[i]:.3e}"
        )
    if not shape:
        return IntegralResult(float(total[0]), float(abs_error[0]), int(a.size))
    return IntegralResult(total.reshape(shape), abs_error.reshape(shape), int(a.size))
