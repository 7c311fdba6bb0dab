"""Nonparametric relative-extropy estimation from two samples.

The estimator is the plug-in (1/2) int (fhat - ghat)^2 built from Gaussian
kernel density estimates with solve-the-equation bandwidths (Sheather-Jones
with Gaussian reference pilots).  The integral is computed in closed form:
two Gaussian kernels integrate to a Gaussian in the distance of their
centres, so int fhat ghat is a finite double sum over the two samples
(Wand & Jones 1995, *Kernel Smoothing*; the estimate is half the L2
two-sample statistic of Anderson, Hall & Titterington 1994).  A dense
whole-line sum takes the Hermite fast Gauss transform (Greengard & Strain
1991), as every bandwidth pass above 362 points does; the rest are direct
sums over sorted blocks.  By default the integral runs over the whole
line, which makes the estimate invariant (up to rounding) under a common
shift of both samples; a lower support bound (at or below every
observation) and boundary reflection are available as options.  A bounded
sum is the whole-line sum less a boundary term that separates into one sum
per sample at a few quadrature nodes, so no normal cdf is evaluated.
``estimate_relative_extropy`` selects both bandwidths itself;
``estimate_pairwise_relative_extropy`` takes them given, for any number of
samples.  The module needs numpy alone: the bandwidth's quartiles are read
off the sorted sample (:func:`_sorted_quantile`).

The Monte-Carlo harness draws each replication from its own PCG64 substream,
so study rows are reproducible bit-for-bit and independent of scheduling; a
replication fails only with a package error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import SeededSampler, sample
from .errors import DegenerateSample, ExtropyError, InvalidModel, InvalidParameter, NoBracket
from .models import DistributionModel

# not called in this module: the name stays bound because the benchmark
# tracer (perfbench/tracer.py) rebinds estimation.integrate and fails without it
from .quadrature import integrate  # noqa: F401


# never called by the package: the name stays bound because the benchmark tracer
# (perfbench/tracer.py) rebinds estimation.brentq and fails without it; scipy
# loads only on a call, so importing the module loads numpy alone
def brentq(f, a, b, **kwargs):
    from scipy.optimize import brentq

    return brentq(f, a, b, **kwargs)


__all__ = [
    "SampleBatch",
    "KdeModel",
    "sample_batch",
    "sheather_jones_bandwidth",
    "estimate_relative_extropy",
    "estimate_pairwise_relative_extropy",
    "McStudyConfig",
    "McStudyRow",
    "mc_bias_mse",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# a Gaussian term farther than 8 of its widths from its centre is below
# exp(-32) (about 1.3e-14) of its peak; kernel sums drop such terms (a self Gram
# sum each one, row by row; a blocked sum those beyond its block's window).  That
# bounds the loss per term, not per sum: a sum made mostly of such pairs loses
# more.  A sparse reflected-image Gram sum lost up to 1.3e-13 of itself (normal,
# rounded and 1e6-offset samples reflected at their smallest observation, n =
# 100-3,200, against an all-pairs sum in long double), nine times the
# _SUM_ROUNDING of a sum
_KERNEL_WINDOW = 8.0
# kernel terms evaluated at once, which bounds the working memory at every n
_BLOCK_TERMS = 1 << 16
# pair terms the Sheather-Jones sums keep across one solve: all, in one chunk, while
# they fit one block (n <= 362); else none, and every pass takes the Hermite transform
_SJ_KEEP_TERMS = _BLOCK_TERMS
# u^6 exp(-u^2 / 2) is below 1e-18 of its peak for |u| > 10.5: pairs farther
# apart than that many pilot widths lie beyond the transform's reach
_SJ_WINDOW = 10.5
# the Sheather-Jones solve stops at a Newton step this small on the standardized
# scale, where the step is the error: half the 1e-14 the reference bandwidths of
# the benchmark gate hold (perfbench/workloads.py); steps of a few ulps stall
_SJ_STEP = 0.5e-14
# the Hermite fast Gauss transform of the Sheather-Jones sums: boxes one pilot width
# wide, moments b^k / k! for k < _FGT_TERMS (|b| <= 1/2 leaves under 1e-18 of each
# term), and boxes more than _FGT_REACH apart hold no pair within _SJ_WINDOW
_FGT_TERMS = 28
_FGT_REACH = math.ceil(_SJ_WINDOW) + 1
# the whole-line Gram sums' transform: boxes one tau wide, so boxes more than
# _GRAM_REACH apart hold no pair within _KERNEL_WINDOW.  A sum takes it when its pairs
# within the window exceed _GRAM_PAIRS_PER_BOX per occupied box (never for n m <=
# 10,000).  Timed per sum on normal, lognormal, Cauchy and rounded samples, n =
# 100-3,200, self and cross, 1 to 0.1 of Silverman's width: above 10,000 the
# transform won all 101 sums, by up to 22x; below it the direct sum won 97 of 139
_GRAM_REACH = math.ceil(_KERNEL_WINDOW) + 1
_GRAM_PAIRS_PER_BOX = 10_000
# the transform's offsets u round by up to eps |u| boxes, which moves the points:
# its sums erred by about 2.4e-18 times the mean |u| over the pairs (two dense
# clusters up to 1e5 boxes apart, n = 1,600), so a sum whose pairs lie more than
# this many boxes from the centre on average, where that nears 1e-15, stays direct
_GRAM_OFFSET = 256.0
# the bounded Gram sums' boundary term integrates exp(-s^2 / 2) times sums of
# exp(-u s), u >= 0, over s >= 0 by _BOUNDARY_NODES-point Gauss-Legendre on each
# panel between _BOUNDARY_PANELS; beyond 9 the Gaussian is below 3e-19 of the
# integral.  Against the Mills ratio at 40 digits, u in [0, 40], the rule in doubles
# erred by at most 4.5e-16 of a pair's bounded term (one 24-point panel on [0, 8.5]:
# 1.8e-15, and no faster in simulate, where the sums' other work dominates)
_BOUNDARY_PANELS = (0.0, 2.0, 9.0)
_BOUNDARY_NODES = 20
# relative rounding error allowed in each kernel sum: measured under 2 ulps
# (samples x against x (1 + 1e-12), n = 30 to 3000), with a 32-fold margin
_SUM_ROUNDING = 64.0 * np.finfo(float).eps


def _near_squares(z: np.ndarray, ends: np.ndarray, size: int):
    """Squared differences z_j - z_i of sorted ``z`` for i < j < ``ends[i]``, row by
    row, in chunks of whole rows of at most ``size`` terms (no row holds more)."""
    lengths = ends - np.arange(1, z.size + 1)
    counts = lengths.cumsum()  # the pairs of rows 0 .. i
    start = 0
    while start < z.size:
        before = int(counts[start - 1]) if start else 0
        stop = max(start + 1, int(counts.searchsorted(before + size, "right")))
        if counts[stop - 1] > before:
            rows = lengths[start:stop]
            # entry k of the chunk, in row i, is column k + i + 1 - (counts[i - 1] - before)
            shift = np.arange(start + 1, stop + 1) - (counts[start:stop] - before - rows)
            diffs = z[np.arange(counts[stop - 1] - before) + shift.repeat(rows)]
            diffs -= z[start:stop].repeat(rows)
            diffs *= diffs
            yield diffs
        start = stop


@functools.cache
def _boundary_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_k and weights W_k of ``_BOUNDARY_NODES``-point Gauss-Legendre on each
    panel of ``_BOUNDARY_PANELS``, with exp(-s_k^2 / 2) taken into W_k, so that
    sum_k W_k exp(-u s_k) is the Mills ratio M(u) = int_0^inf exp(-u s - s^2 / 2) ds.

    The nodes t on [-1, 1] are the roots of the Legendre polynomial P_K, found by
    Newton's method from cos(pi (k - 1/4) / (K + 1/2)), with P_K and P_(K-1) from
    the three-term recurrence and P_K'(t) = K (t P_K - P_(K-1)) / (t^2 - 1); the
    weights are 2 / ((1 - t^2) P_K'(t)^2).  numpy's leggauss gives the same rule
    through LAPACK, whose first call adds about 0.8 MB to simulate's peak memory.
    Built on the first call, so a process that never bounds a sum never builds them.
    """
    n = _BOUNDARY_NODES
    t = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):  # the guesses lie within 3e-4 of the roots; four steps reach rounding
        before, p = np.ones_like(t), t
        for j in range(2, n + 1):
            before, p = p, ((2 * j - 1) * t * p - (j - 1) * before) / j
        slope = n * (t * p - before) / (t * t - 1.0)
        t = t - p / slope
    ends = np.array(_BOUNDARY_PANELS)
    half, mid = 0.5 * np.diff(ends)[:, None], 0.5 * (ends[1:] + ends[:-1])[:, None]
    s = (mid + half * t).ravel()
    return s, (half * 2.0 / ((1.0 - t * t) * slope * slope)).ravel() * np.exp(-0.5 * s * s)


def _boundary_sums(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """A(s_k) = sum_i exp(e_i - u_i s_k) at the nodes of :func:`_boundary_nodes`,
    for ascending u >= 0 and descending e, in chunks of at most ``_BLOCK_TERMS``
    terms; the points from the first whose exp(e_i) underflows on are skipped."""
    s, _ = _boundary_nodes()
    keep = int(np.count_nonzero(np.exp(e)))
    step = max(1, _BLOCK_TERMS // s.size)
    sums = np.zeros(s.size)
    for start in range(0, keep, step):
        terms = np.multiply.outer(s, u[start : start + step])
        np.subtract(e[start : start + step], terms, out=terms)
        np.exp(terms, out=terms)
        sums += terms.sum(axis=1)
    return sums


def _gram_sum(x: np.ndarray, y: np.ndarray, bx: float, by: float, lower: float | None) -> float:
    """S = int_c^inf of the product of the mean kernels on sorted ``x`` and ``y``.

    Term by term, int_c^inf phi_bx(t - x_i) phi_by(t - y_j) dt equals
    phi_tau(d) Phi(r) with tau^2 = bx^2 + by^2, d = (x_i - y_j) / tau and
    r = u_i + v_j, u_i = (x_i - c) by / (bx tau), v_j = (y_j - c) bx / (by tau);
    without a lower bound c the Phi factor is 1.  S is the mean over all (i, j).

    The whole-line sum comes first.  One whose pairs within ``_KERNEL_WINDOW``
    * tau exceed ``_GRAM_PAIRS_PER_BOX`` per occupied box takes the Hermite
    transform (:func:`_hermite_transform`) of exp(-d^2 / 2) in boxes one tau
    wide, offset from x's middle sample, unless an offset overflows or its
    pairs lie more than ``_GRAM_OFFSET`` boxes from that sample on average; the
    rule runs only for n m > ``_GRAM_PAIRS_PER_BOX``, as no box of a smaller sum
    can hold more pairs.  Any other sum is direct, and drops terms farther apart
    than ``_KERNEL_WINDOW`` * tau.  One window per row of x, found by one
    ``searchsorted`` per end, serves the rule's pair counts and the direct sum.
    When x and y are the same points at the same bandwidth, each row's pairs
    above the diagonal within that window are gathered by :func:`_near_squares`,
    summed once and counted twice, plus the diagonal; cross and reflected-image
    sums run over blocks of x's rows, each against the y within their windows.

    A bound subtracts the pairs' shares below c, phi_tau(d) (1 - Phi(r)).  Since
    d^2 + r^2 = a^2 + b^2 with a = (x_i - c) / bx and b = (y_j - c) / by, each
    share is exp(-a^2 / 2) exp(-b^2 / 2) M(r) / (2 pi tau), M the Mills ratio,
    and M(u + v) = int_0^inf exp(-s^2 / 2) exp(-u s) exp(-v s) ds separates: the
    shares add up to int_0^inf exp(-s^2 / 2) A(s) B(s) ds / (2 pi tau), with A
    and B the sums of exp(-a^2 / 2 - u s) and exp(-b^2 / 2 - v s)
    (:func:`_boundary_sums`; B is A for a self sum).  Every share is at most
    half its pair's term, so the subtraction loses at most one bit.
    """
    tau = math.hypot(bx, by)
    symmetric = bx == by and (x is y or np.array_equal(x, y))
    # y[starts[i] : ends[i]] holds every y within the window of x_i; a self sum's row i
    # holds only its pairs above the diagonal
    ends = np.searchsorted(y, x + _KERNEL_WINDOW * tau, side="right")
    starts = np.arange(1, x.size + 1) if symmetric else np.searchsorted(y, x - _KERNEL_WINDOW * tau)
    dense = False
    if x.size * y.size > _GRAM_PAIRS_PER_BOX:  # else no box holds more pairs than the cutover
        centre = x[x.size // 2]  # rounding follows the spread, not the location
        u = (x - centre) / tau
        v = u if symmetric else (y - centre) / tau
        # each row's pairs within the window; a self sum's also those below the diagonal
        counts = 2 * (ends - starts) + 1 if symmetric else ends - starts
        pairs = int(counts.sum())
        boxes = 1 + np.count_nonzero(np.diff(np.floor(u if symmetric else np.sort(np.concatenate((u, v))))))
        # |u| over the pairs, NaN or inf where an offset overflows; so must v's ends be finite
        offset = float(np.einsum("i,i->", np.abs(u), counts.astype(float)))
        dense = pairs > _GRAM_PAIRS_PER_BOX * boxes and offset <= _GRAM_OFFSET * pairs and np.isfinite(v[[0, -1]]).all()
    if dense:
        coeffs, moments = _hermite_transform((u,) if symmetric else (u, v), _hermite_tables()[1])
        # sources x and y against targets y and x; a self sum, twice x against x
        total = (2.0 if symmetric else 1.0) * float(np.einsum("stc,stc->", coeffs, moments[::-1]))
    elif symmetric:
        total = 0.0
        for terms in _near_squares(x, ends, _BLOCK_TERMS):
            terms *= -0.5 / (tau * tau)
            np.exp(terms, out=terms)
            total += float(terms.sum())
        total = 2.0 * total + x.size
    else:
        total, step = 0.0, max(1, _BLOCK_TERMS // y.size)
        for start in range(0, x.size, step):
            stop = min(start + step, x.size)
            terms = np.subtract.outer(x[start:stop], y[starts[start] : ends[stop - 1]])
            np.square(terms, out=terms)
            terms *= -0.5 / (tau * tau)
            np.exp(terms, out=terms)
            total += float(terms.sum())
    if lower is not None:
        a, b = (x - lower) / bx, (y - lower) / by
        along_x = _boundary_sums(a * (by / tau), -0.5 * a * a)
        along_y = along_x if symmetric else _boundary_sums(b * (bx / tau), -0.5 * b * b)
        below = float(np.einsum("k,k,k->", _boundary_nodes()[1], along_x, along_y)) / _SQRT_2PI
        # the boundary term also counts the pairs the window drops, so a sum made of
        # those alone would come out below 0 by less than they weigh
        total = max(total - below, 0.0)
    return total / (x.size * y.size * _SQRT_2PI * tau)


@dataclass(frozen=True)
class SampleBatch:
    """Sorted, finite observations; the unit all estimators consume."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))
        if vals.size < 2:
            raise DegenerateSample(f"need at least 2 observations, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise DegenerateSample("sample contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE of a sample at a fixed bandwidth.

    ``reflect_at`` folds mass back across a boundary: the density becomes
    fhat(x) + fhat(2c - x) for x >= c and 0 below, preserving unit mass.
    """

    sample: SampleBatch
    bandwidth: float
    reflect_at: float | None = None

    def __post_init__(self):
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise InvalidParameter(f"bandwidth must be positive, got {self.bandwidth}")

    def pdf(self, x):
        """The mean of the Gaussian kernels on every observation v, and on every image
        2c - v when reflected at c, below which it is 0: the reference the closed
        forms are checked against, summed in chunks of at most ``_BLOCK_TERMS`` terms."""
        vals, b, c = self.sample.values, self.bandwidth, self.reflect_at
        x = np.asarray(x, dtype=float)
        centres = vals if c is None else np.concatenate((vals, 2.0 * c - vals))
        points, out = x.ravel(), np.empty(x.size)
        step = max(1, _BLOCK_TERMS // centres.size)
        for start in range(0, points.size, step):
            u = (points[start : start + step, None] - centres) / b
            out[start : start + step] = np.exp(-0.5 * u * u).sum(axis=1) / (vals.size * b * _SQRT_2PI)
        if c is not None:
            out[~(points >= c)] = 0.0
        return out.reshape(x.shape)[()]

    def inner(self, other: "KdeModel", lower: float | None = None) -> float:
        """int fhat ghat over [lower, inf) in closed form (the line for ``None``).

        Both samples must lie at or above the bound, or the reflection point
        of a reflected pair, else :class:`InvalidParameter`: the boundary
        term's u and v are then >= 0 (:func:`_gram_sum`).  Two densities reflected at the same c vanish below
        it, and their product over [c, inf) unfolds onto the whole line:
        int_c^inf f_r g_r = int f g + int f(t) g(2c - t) dt, the plain kernel
        sums over (x, y) and over (x, 2c - y) with no boundary term.  Other
        combinations (different reflection points, a bound above c) are refused.
        """
        x, y = self.sample.values, other.sample.values
        bx, by = self.bandwidth, other.bandwidth
        c = self.reflect_at
        if c != other.reflect_at or (c is not None and lower is not None and lower > c):
            raise InvalidParameter(
                f"inner product needs one reflection point at or above the bound; "
                f"got reflect_at {c} and {other.reflect_at}, lower {lower}"
            )
        anchor, low = (lower if c is None else c), min(x[0], y[0])
        if anchor is not None and not low >= anchor:
            raise InvalidParameter(
                f"{'lower bound' if c is None else 'boundary reflection'} at {anchor:g} needs "
                f"data at or above it; smallest observation is {low:g}"
            )
        if c is None:
            return _gram_sum(x, y, bx, by, lower)
        return _gram_sum(x, y, bx, by, None) + _gram_sum(x, (2.0 * c - y)[::-1], bx, by, None)


def sample_batch(
    params: DistributionModel, n: int, sampler: SeededSampler, *, substream: int | None = None
) -> SampleBatch:
    """Draw a seeded inverse-cdf sample from a family as a SampleBatch."""
    return SampleBatch(sample(params, n, sampler, substream=substream))


def _sorted_quantile(vals: np.ndarray, p: float) -> float:
    """``np.quantile(vals, p)`` of sorted, nonempty ``vals`` bit for bit, for 0 <= p < 1.

    numpy's linear method: virtual index (n - 1) p, its floor i and weight
    gamma, then a + (b - a) gamma, or b - (b - a)(1 - gamma) when gamma >= 0.5.
    ``np.quantile`` itself would import numpy.ma (0.8 MB) on its first call.
    """
    if vals.size == 1:
        return float(vals[0])
    at = (vals.size - 1) * p
    i = math.floor(at)
    gamma = at - i
    a, b = float(vals[i]), float(vals[i + 1])
    diff = b - a
    return a + diff * gamma if gamma < 0.5 else b - diff * (1.0 - gamma)


# the Sheather-Jones pair-term polynomials in e = -w/2, w = u^2, highest power
# first: w^2 - 6w + 3 = phi^(4)(u) sqrt(2 pi) e^(w/2), w^3 - 15w^2 + 45w - 15
# = phi^(6)(u) sqrt(2 pi) e^(w/2), and the psi4 slope w^3 - 10w^2 + 15w, which
# at w = (d/g)^2 is g d/dg of (w^2 - 6w + 3) e^(-w/2), over e^(-w/2)
_PSI4 = (4.0, 12.0, 3.0)
_PSI6 = (-8.0, -60.0, -90.0, -15.0)
_PSI4_SLOPE = (-8.0, -40.0, -30.0, 0.0)
# psi(e) = (4e^2 + 12e + 3) exp(e), the psi4 pair term, lies in [-1.855, 3] for e <= 0:
# it is least at e = (sqrt 10 - 5) / 2 = -0.919 and increases from there to psi(0) = 3;
# below e = -4.08 it is positive and increases with e
_PSI4_DIP = 0.5 * (math.sqrt(10.0) - 5.0)
# the bracket ends' bounds on the psi4 sum S are widened by this share of 3 n^2, the
# largest S, and r must clear h by this share of it: the exact pass rounds S by
# under 1e-13 of 3 n^2, as its terms |e^k exp(e)| <= 1.35, which psi4 weighs by under
# 10 per pair in all, are summed pairwise
_SJ_SLACK = 1e-9
# a pass sums each pair-term moment over runs of this many pairs and combines the
# moments run by run.  The moments cancel where psi dips: summed over whole blocks
# and then combined, they moved a normal bandwidth at n = 1,600, blocks kept, by
# 2.4e-14 from a long-double solve, and by runs 6.7e-16
_SJ_RUN = 1024
# the coefficients of _PSI4, _PSI6 and _PSI4_SLOPE on the moments S_k = sum of e^k exp(e),
# k = 0 .. 3, one row each; psi4's S_3 coefficient 0 adds an exact 0 to its runs
_SJ_MOMENTS = np.array([(*_PSI4[::-1], 0.0), _PSI6[::-1], _PSI4_SLOPE[::-1]])


@functools.cache
def _hermite_tables() -> tuple[np.ndarray, np.ndarray]:
    """The transform's tables T[o, k, c], k < p = ``_FGT_TERMS``: Sheather-Jones's
    for box offsets o <= ``_FGT_REACH`` and the Gram sums' for o <= ``_GRAM_REACH``.

    Both come from one recursion for the Hermite functions He_n(o) exp(-o^2 / 2).
    In SJ's, column c = l < p + 2 holds (-1)^l He_(k+l+4)(o) exp(-o^2 / 2): columns
    0 .. p - 1 are the table of He4 and columns 2 .. p + 1 that of He6, since
    He_(k+(l+2)+4) = He_(k+l+6) and (-1)^(l+2) = (-1)^l.  Column p + 2 + l holds
    the table of the psi4 slope x He5(x) = He6(x) + 5 He4(x), so that its
    cancellation falls in single entries: formed from the He6 and He4 sums,
    the slope took 20 times their rounding.  The Gram sums' column l < p holds
    (-1)^l He_(k+l)(o) exp(-o^2 / 2), the table of He0.  Row o = 0 is halved,
    because the transform sums over o >= 0 (:func:`_hermite_transform`).  Built on
    the first call, so a process that never takes the transform never builds them.
    """
    p = _FGT_TERMS
    o = np.arange(_FGT_REACH + 1.0)
    he = [np.ones_like(o), o]
    for k in range(1, 2 * p + 4):
        he.append(o * he[k] - k * he[k - 1])
    he = np.array(he) * np.exp(-0.5 * o * o)
    he[:, 0] *= 0.5
    k, l = np.ogrid[:p, : p + 2]
    sign = np.where(l % 2, -1.0, 1.0)[..., None]
    m = k + l[:, :p] + 4
    sj = np.concatenate([he[k + l + 4] * sign, (he[m + 2] + 5.0 * he[m]) * sign[:, :p]], axis=1)
    gram = he[m - 4, : _GRAM_REACH + 1] * sign[:, :p]
    return tuple(np.ascontiguousarray(np.moveaxis(t, -1, 0)) for t in (sj, gram))


def _hermite_transform(us: tuple[np.ndarray, ...], table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expansions C[s, t] and moments M[s, t] of sorted ``us[s]`` at the occupied boxes
    t: C[s, t] . M[r, t] sums the pairs from ``us[s]`` to ``us[r]``'s points in box t
    at box offsets 0 <= o < len(table), those at o = 0 halved.

    The Hermite fast Gauss transform (Greengard & Strain 1991; Raykar &
    Duraiswami 2006) in unit boxes.  Box floor(u) holds M[k] = sum of b^k / k!,
    k < ``_FGT_TERMS``, over its points, b = u - floor(u) - 1/2: running products
    along k over all points at once, then per-box sums along the points.  Points in
    boxes o apart are d = o + b_j - b_i apart, and Taylor's theorem about o
    gives He_m(d) exp(-d^2 / 2) as the sum over k and l of (b_i^k / k!)
    (b_j^l / l!) T_o[k, l], T_o[k, l] = (-1)^l He_(k+l+m)(o) exp(-o^2 / 2)
    (:func:`_hermite_tables`), so C[s, t] sums M[s, t - o] . T_o over o.  T_(-o)
    is T_o transposed: the pairs at o < 0 are those with the roles swapped.  A
    run of empty boxes longer than the reach shrinks to one past it, which drops
    no pair and keeps a heavy tail's cost to its occupied boxes.  Every
    reduction is an einsum, so no BLAS thread count reaches the bits.
    """
    p, reach = _FGT_TERMS, len(table) - 1
    boxes = [np.floor(u) for u in us]
    merged = boxes[0] if len(us) == 1 else np.sort(np.concatenate(boxes))
    occupied = merged[np.diff(merged, prepend=-math.inf) > 0]
    gaps = np.minimum(np.diff(occupied), reach + 1).astype(np.intp)
    slots = reach + np.concatenate(([0], np.cumsum(gaps)))
    moments = np.zeros((len(us), slots[-1] + 1, p))
    for own, u, box in zip(moments, us, boxes):
        starts = np.flatnonzero(np.diff(box, prepend=-math.inf))
        powers = np.empty((p, u.size))
        powers[0] = 1.0
        np.divide(u - box - 0.5, np.arange(1.0, p)[:, None], out=powers[1:])
        for k in range(2, p):
            powers[k] *= powers[k - 1]
        own[slots[np.searchsorted(occupied, box[starts])]] = np.add.reduceat(powers, starts, axis=1).T
    coeffs = np.zeros((len(us), slots.size, table.shape[-1]))
    for o, t in enumerate(table):
        coeffs += np.einsum("stk,kc->stc", moments[:, slots - o], t)
    return coeffs, moments[:, slots]


def _hermite_sums(u: np.ndarray) -> tuple[float, float, float]:
    """Sums over all (i, j), the diagonal included, of He4(d) exp(-d^2 / 2), of the
    same with He6 and with d He5(d), d = u_j - u_i, for sorted ``u``: twice its
    pairs at box offsets o >= 0 (:func:`_hermite_transform`).
    """
    p = _FGT_TERMS
    (coeffs,), (own,) = _hermite_transform((u,), _hermite_tables()[0])
    he4, he6, slope = (np.einsum("tc,tc->", coeffs[:, c : c + p], own) for c in (0, 2, p + 2))
    return 2.0 * float(he4), 2.0 * float(he6), 2.0 * float(slope)


def _psi4_term(e: float) -> float:
    """psi(e) = (4 e^2 + 12 e + 3) exp(e), the psi4 pair term at e = -(d / g)^2 / 2."""
    return (4.0 * e * e + 12.0 * e + 3.0) * math.exp(e)


def _pair_sums(squares, g: float, work: np.ndarray) -> tuple[float, float, float]:
    """Sums over the chunks of squared differences in ``squares`` of the psi4,
    psi6 and psi4 slope pair terms: p(e) exp(e), e = -dsq / (2 g^2), p each of
    ``_PSI4``, ``_PSI6`` and ``_PSI4_SLOPE``.

    All three are read off the moments S_k, the sums of e^k exp(e), k = 0 .. 3.
    Each chunk is scaled once into e in a row of ``work``, exp(e) fills the other
    and is multiplied by e in place for each next k, and each moment is summed
    pairwise over runs of ``_SJ_RUN`` pairs.  ``_SJ_MOMENTS`` combines the moments
    run by run, where their cancellation costs least, and the combined runs are
    summed.  No BLAS dot is used, whose last bits change with its thread count.
    """
    scale = -0.5 / (g * g)
    totals = np.zeros(3)
    for dsq in squares:
        ek, term = work[:, : dsq.size]
        np.multiply(dsq, scale, out=ek)
        np.exp(ek, out=term)
        starts = np.arange(0, dsq.size, _SJ_RUN)
        moments = np.empty((4, starts.size))
        np.add.reduceat(term, starts, out=moments[0])
        for k in range(1, 4):
            term *= ek
            np.add.reduceat(term, starts, out=moments[k])
        totals += np.einsum("ck,km->cm", _SJ_MOMENTS, moments).sum(axis=1)
    return tuple(totals.tolist())


def _sj_end_sign(z: np.ndarray, g: float, h: float, c1: float) -> float:
    """The sign of the bandwidth equation F(h) = (c1 / psi4(g))^(1/5) - h of sorted
    standardized ``z`` at a bracket end, +1.0 or -1.0, where bounds decide it; else 0.0.

    psi4(g) = S / (n (n - 1) g^5 sqrt(2 pi)), where S is the sum over all (i, j),
    the diagonal included, of psi(e_ij), e_ij = -((z_j - z_i) / g)^2 / 2, psi as at
    ``_PSI4_DIP``.  S is n^2 times int (f'')^2 of the sample's mean Gaussian
    kernel at width g / sqrt 2 (Wand & Jones 1995, section 3.5), and phi^(4)'s
    Fourier transform w^4 exp(-w^2 / 2) is >= 0, so 0 < S <= 3 n^2 for every
    sample: r = F(h) + h is at least (norm / 3 n^2)^(1/5).  Every e_ij lies in
    [-E, 0], E = (range / g)^2 / 2, so S is also at least 3 n + n (n - 1) min
    psi over that range, which bounds r above where it is positive.  Widened by
    ``_SJ_SLACK`` 3 n^2, a bound decides only where its r clears h by a relative
    ``_SJ_SLACK``.
    """
    if not (isinstance(g, float) and 1e-30 < g < 1e30):
        return 0.0  # a complex or extreme width goes to the exact pass, and what it raises
    n = z.size
    slack = _SJ_SLACK * 3.0 * n * n
    norm = c1 * n * (n - 1) * g**5 * _SQRT_2PI
    if (norm / (3.0 * n * n + slack)) ** 0.2 > h * (1.0 + _SJ_SLACK):
        return 1.0
    spread = 0.5 * (float(z[-1] - z[0]) / g) ** 2
    least = 3.0 * n + n * (n - 1) * _psi4_term(max(-spread, _PSI4_DIP)) - slack
    if least > 0.0 and (norm / least) ** 0.2 < h * (1.0 - _SJ_SLACK):
        return -1.0
    return 0.0


def _sj_model_step(near: tuple[float, float, float], far: tuple[float, float, float]) -> float:
    """The relative step exp(u) - 1 from ``near``'s h to the root of a cubic model
    of the bandwidth equation through two passes, each given as (h, r, d): r =
    (c1 / psi4(g))^(1/5) and d = g N'(g) / N at g = alpha2 h^(5/7), N the psi4
    sum.  nan where the model gives no root.  No pass is made.

    The root is where log(h / r) = 0.  log r is linear in log g and log N, and
    log g in log h, so the cubic Hermite of log N in log g through the two passes
    is, up to a linear term, that of log(h / r) in log h, whose slope is
    (2 + d) / 7.  Three Newton steps on that cubic from ``near``: the first is
    Newton's own step in log h, and the others follow the curvature the second
    pass shows.
    """
    (h0, r0, d0), (h1, r1, d1) = near, far
    try:
        w = math.log(h1 / h0)
        p0, s0, s1 = math.log(h0 / r0), (2.0 + d0) / 7.0, (2.0 + d1) / 7.0
        secant = (math.log(h1 / r1) - p0) / w
        c2 = (3.0 * secant - 2.0 * s0 - s1) / w
        c3 = (s0 + s1 - 2.0 * secant) / (w * w)
        u = 0.0
        for _ in range(3):
            u -= (p0 + u * (s0 + u * (c2 + u * c3))) / (s0 + u * (2.0 * c2 + 3.0 * u * c3))
        return math.expm1(u)
    except ArithmeticError:  # two passes at one h, a flat model or an overflowing step
        return math.nan


def sheather_jones_bandwidth(s: SampleBatch) -> float:
    """Solve-the-equation plug-in bandwidth for a Gaussian kernel.

    Pilot functionals use Gaussian-reference bandwidths on the robust scale
    min(sd, IQR/1.349); one so far below the sd that the pilot widths' powers
    fall below the normal doubles raises :class:`DegenerateSample`.  The sample
    is standardized by its sd first, which makes the result exactly
    scale-equivariant.  The equation
    F(h) = (c1 / psi4(alpha2 h^(5/7)))^(1/5) - h must change sign over
    [1e-3, 1e3] * n^(-1/5), else :class:`NoBracket`.  It is solved by Newton's
    method inside that bracket, which each evaluation narrows.  The start and
    each step go to the root of a cubic model of the psi4 sum through the two
    kept passes nearest the iterate (:func:`_sj_model_step`), where guards allow:
    the start near the direct plug-in bandwidth (c1 / psi4(a))^(1/5) that the
    psi4 pilot gives (n^(-1/5) where that is not inside the bracket), and a step
    near Newton's own.  A step that would leave the bracket, or not halve the
    step before it, bisects instead.  Where F has several roots in the bracket,
    the solve returns the one it reaches from the plug-in start, not the
    smallest or the largest.  Only the signs of F at the bracket ends reach the
    solve, and two bounds on the psi4 sum decide them in O(1)
    (:func:`_sj_end_sign`): it is positive and at most 3 n^2 for every sample,
    and at least what the sample's range allows.  An end they
    leave undecided takes the exact pass, so every bandwidth and every
    :class:`NoBracket` is the exact passes' own.  The solve stops at a step of
    at most ``_SJ_STEP`` and takes about 5 or 6 pair-sum passes, counting the two
    pilots.  Every pass gives the psi4, psi6 and psi4 slope sums at once, and
    each use reads the ones it needs.  While the pairs fit ``_SJ_KEEP_TERMS``
    (n <= 362), their squares are gathered once, as one chunk of whole rows, by
    :func:`_near_squares`, and kept for the whole solve; every pass reads the
    three sums off their pair-term moments (:func:`_pair_sums`).  Above that
    every pass takes the Hermite fast Gauss transform (:func:`_hermite_sums`).
    """
    if s.n < 5:
        raise DegenerateSample(f"bandwidth selection needs n >= 5, got {s.n}")
    vals = s.values
    n = s.n
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(vals.std(ddof=1))
    if sd == 0.0:
        raise DegenerateSample("sample has zero variance")
    if not math.isfinite(sd):
        raise DegenerateSample(
            f"sample spread overflows: the variance of observations in "
            f"[{vals[0]:.3e}, {vals[-1]:.3e}] exceeds the largest double (spreads up to about 1e154 fit)"
        )
    iqr = _sorted_quantile(vals, 0.75) - _sorted_quantile(vals, 0.25)
    scale_z = min(1.0, iqr / (1.349 * sd)) if iqr > 0 else 1.0
    a = 0.920 * 1.349 * scale_z * n ** (-1.0 / 7.0)
    b = 0.912 * 1.349 * scale_z * n ** (-1.0 / 9.0)
    if b**7 < np.finfo(float).tiny:  # a < b, so a**5 and both squares stay normal while b**7 does
        raise DegenerateSample(f"robust scale {scale_z * sd:.3e} underflows against the sd {sd:.3e}")

    z = vals / sd
    pairs = n * (n - 1) // 2
    kept = work = None
    if pairs <= _SJ_KEEP_TERMS:
        # one solve makes some 5 or 6 passes over the pairs: while they fit _SJ_KEEP_TERMS
        # their squares (the upper half) are kept for all of them, in chunks of whole
        # rows of at most `size` terms: one, while _SJ_KEEP_TERMS is _BLOCK_TERMS
        size = min(pairs, max(_BLOCK_TERMS, n))
        kept = list(_near_squares(z, np.full(n, n), size))
        # the passes work in these: fresh arrays at each pass cost page faults
        work = np.empty((2, size))

    def sums(g: float) -> tuple[float, float, float]:
        """Sums over all (i, j), the diagonal included, of the psi4, psi6 and psi4
        slope pair terms at e = -((z_j - z_i) / g)^2 / 2, by :func:`_pair_sums` over
        the kept pairs, else by :func:`_hermite_sums`."""
        if kept is None:
            # offsets from the median: rounding follows the spread
            return _hermite_sums((z - z[n // 2]) / g)
        psi4, psi6, slope = _pair_sums(kept, g, work)
        # the diagonal's terms are psi4(0) = 3 and psi6(0) = -15, the slope's 0
        return 2.0 * psi4 + 3.0 * n, 2.0 * psi6 - 15.0 * n, 2.0 * slope

    at_b = sums(b)
    td = -at_b[1] / (n * (n - 1) * b**7 * _SQRT_2PI)
    if not (td > 0 and math.isfinite(td)):
        raise DegenerateSample("sample too sparse for the pilot curvature functional")
    at_a = sums(a)
    psi4_a = at_a[0] / (n * (n - 1) * a**5 * _SQRT_2PI)
    alpha2_coeff = 1.357 * (psi4_a / td) ** (1.0 / 7.0)
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)

    def plug_in(g: float, at: tuple[float, float, float]) -> tuple[float, float]:
        """The plug-in bandwidth r = (c1 / psi4(g))^(1/5), psi4(g) = N / (n (n - 1)
        g^5 sqrt(2 pi)), and d = g N'(g) / N, from the sums ``at`` g (:func:`sums`),
        N the psi4 sum."""
        total, _, slope = at
        return (c1 / (total / (n * (n - 1) * g**5 * _SQRT_2PI))) ** 0.2, slope / total

    def equation(h: float) -> tuple[float, float]:
        """r and d (:func:`plug_in`) at g = alpha2 h^(5/7), for F(h) = r - h and
        F'(h) = (r / h)(5 - d) / 7 - 1."""
        g = alpha2_coeff * h ** (5.0 / 7.0)
        return plug_in(g, sums(g))

    h0 = n ** (-0.2)
    lo, hi = 1e-3 * h0, 1e3 * h0
    # only the signs of F at the ends reach the solve: bounds decide them, or the exact pass
    f_lo, f_hi = (
        _sj_end_sign(z, alpha2_coeff * end ** (5.0 / 7.0), end, c1) or equation(end)[0] - end
        for end in (lo, hi)
    )
    if f_lo * f_hi > 0:
        raise NoBracket(
            f"bandwidth equation has no sign change in [{lo * sd:.3e}, {hi * sd:.3e}]"
        )
    # Newton starts from the direct plug-in bandwidth (c1 / psi4(a))^(1/5), which the
    # psi4 pilot gives, where it lies inside the bracket
    h = (c1 / psi4_a) ** 0.2 if psi4_a > 0.0 else h0
    if not lo < h < hi:
        h = h0
    # Newton's iterate gives way to the root of the model through the two kept passes
    # nearest it (:func:`_sj_model_step`) where these guards hold: a start, through the
    # pilots, inside the bracket and within a factor 2 of the plug-in start; a step of
    # Newton's sign, at most twice its length, inside the bracket.  A bracket end's
    # exact pass is not kept, so exact and bound-decided ends give the same bits
    passes = [((g / alpha2_coeff) ** 1.4, *plug_in(g, at)) for g, at in ((b, at_b), (a, at_a))]
    near, far = sorted(passes, key=lambda p: abs(math.log(p[0] / h)))
    start = near[0] * (1.0 + _sj_model_step(near, far))
    if lo < start < hi and 0.5 * h <= start <= 2.0 * h:
        h = start
    step, last = hi - lo, hi - lo
    while abs(step) > _SJ_STEP:
        r, d = equation(h)
        f = r - h
        if f == 0.0:
            break
        if (f > 0.0) == (f_lo > 0.0):
            lo = h
        else:
            hi = h
        slope = (r / h) * (5.0 - d) / 7.0 - 1.0
        newton = -f / slope if slope != 0.0 else math.nan
        near = min(passes, key=lambda p: abs(math.log(p[0] / h)))
        passes.append((h, r, d))
        model = h * _sj_model_step(passes[-1], near)
        last, step = step, newton
        if model * newton > 0.0 and abs(model) <= 2.0 * abs(newton) and lo < h + model < hi:
            step = model
        # not (lo < . < hi) also holds for a NaN step
        if not (lo < h + step < hi) or abs(step) > 0.5 * abs(last):
            step = 0.5 * (lo + hi) - h
        h += step
    return float(h * sd)


def estimate_pairwise_relative_extropy(
    batches: Sequence[SampleBatch],
    bandwidths: Sequence[float],
    *,
    support_lower: float | None = None,
    boundary_reflect: bool = False,
) -> np.ndarray:
    """Plug-in relative-extropy estimates for every pair of samples.

    Entry (i, j) is (1/2) int (fhat_i - fhat_j)^2 = (1/2)(int fhat_i^2 +
    int fhat_j^2 - 2 int fhat_i fhat_j), each integral in closed form (see
    ``KdeModel.inner``) over the whole line, or over [support_lower, inf).
    Reflection anchors at ``support_lower`` (0 when it is ``None``).  Data
    below the bound, and a bandwidth count other than the sample count, raise
    :class:`InvalidParameter`.  Each sample's int fhat^2 is computed once and
    reused across its pairs; the matrix is symmetric with a zero diagonal.  An
    entry within the rounding bound of its three sums, ``_SUM_ROUNDING``
    relative to each, is 0.0; one below minus that bound raises
    :class:`InvalidModel`.  Dense whole-line sums take the Hermite transform
    (see :func:`_gram_sum`), whose sums are within 1e-14 of the direct ones,
    inside that bound.
    """
    if len(batches) != len(bandwidths):
        raise InvalidParameter(f"got {len(batches)} samples but {len(bandwidths)} bandwidths")
    reflect_at = None
    if boundary_reflect:
        reflect_at = 0.0 if support_lower is None else support_lower
    kdes = [KdeModel(batch, b, reflect_at) for batch, b in zip(batches, bandwidths)]
    norms = [m.inner(m, support_lower) for m in kdes]
    k = len(kdes)
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            cross = kdes[i].inner(kdes[j], support_lower)
            value = 0.5 * (norms[i] + norms[j] - 2.0 * cross)
            bound = 0.5 * _SUM_ROUNDING * (norms[i] + norms[j] + 2.0 * cross)
            if value < -bound:
                raise InvalidModel(
                    f"pair ({i}, {j}): estimate {value:.3e} is below its rounding bound -{bound:.3e}"
                )
            values[i, j] = values[j, i] = value if value > bound else 0.0
    return values


def estimate_relative_extropy(
    sx: SampleBatch,
    sy: SampleBatch,
    *,
    support_lower: float | None = None,
    boundary_reflect: bool = False,
) -> float:
    """Plug-in estimate of the relative extropy between two samples.

    (1/2) int (fhat - ghat)^2 in closed form over the whole line, which is
    translation invariant up to rounding.  ``support_lower`` clips the
    integral (and anchors reflection) at a known support boundary such as 0.
    Bandwidths are Sheather-Jones; :func:`estimate_pairwise_relative_extropy`
    takes given ones.
    """
    bandwidths = (sheather_jones_bandwidth(sx), sheather_jones_bandwidth(sy))
    values = estimate_pairwise_relative_extropy(
        (sx, sy), bandwidths, support_lower=support_lower, boundary_reflect=boundary_reflect
    )
    return float(values[0, 1])


# McStudyConfig's default support_lower: the left end of the families' support hull
_SUPPORT_HULL = object()


@dataclass(frozen=True)
class McStudyConfig:
    """One row of a bias/MSE study: families, sample size, replications.

    ``support_lower`` defaults to the left end of the hull of the two
    families' supports, where the estimates are cut off (and reflected); a
    bound above that end would fall inside the draws and is refused
    (:class:`InvalidParameter`).  ``None`` runs over the whole line.
    """

    family_x: DistributionModel
    family_y: DistributionModel
    n: int
    reps: int
    seed: int
    true_value: float
    support_lower: float | None = _SUPPORT_HULL
    boundary_reflect: bool = False

    def __post_init__(self):
        hull = min(self.family_x.support[0], self.family_y.support[0])
        if self.support_lower is _SUPPORT_HULL:
            object.__setattr__(self, "support_lower", hull)
        elif self.support_lower is not None and not self.support_lower <= hull:
            raise InvalidParameter(
                f"support_lower {self.support_lower:g} is above the support hull's left end {hull:g}"
            )
        if self.reps < 2:
            raise InvalidParameter(f"reps must be >= 2, got {self.reps}")
        if self.n < 10:
            raise InvalidParameter(f"n must be >= 10, got {self.n}")


@dataclass(frozen=True)
class McStudyRow:
    """Summary of one study row; ``failed`` holds (replication, repr of error)."""

    n: int
    mean_estimate: float
    bias: float
    mse: float
    reps: int
    failed: tuple[tuple[int, str], ...] = ()

    @property
    def failures(self) -> int:
        return len(self.failed)


def mc_bias_mse(cfg: McStudyConfig) -> McStudyRow:
    """Run the replications of one study row; deterministic given the seed.

    Replication i draws both samples from substream (seed, i), so rows can be
    recomputed independently and in any order.  Estimator failures (an
    :class:`ExtropyError`) are tolerated up to 1% of reps and recorded in the
    row; above that the study fails with every failed replication in the
    message.  Any other exception propagates.
    """
    sampler = SeededSampler(cfg.seed)
    estimates: list[float] = []
    failed: list[tuple[int, str]] = []
    for rep in range(cfg.reps):
        gen = sampler.substream(rep)
        try:
            xs = SampleBatch(np.asarray(cfg.family_x.quantile(gen.random(cfg.n))))
            ys = SampleBatch(np.asarray(cfg.family_y.quantile(gen.random(cfg.n))))
            estimates.append(
                estimate_relative_extropy(
                    xs,
                    ys,
                    support_lower=cfg.support_lower,
                    boundary_reflect=cfg.boundary_reflect,
                )
            )
        except ExtropyError as exc:  # a programming error propagates
            failed.append((rep, repr(exc)))
    if len(failed) > 0.01 * cfg.reps:
        listed = "; ".join(f"#{rep}: {err}" for rep, err in failed)
        raise DegenerateSample(f"{len(failed)} of {cfg.reps} replications failed: {listed}")
    k = len(estimates)
    mean = math.fsum(estimates) / k
    bias = mean - cfg.true_value
    mse = math.fsum((e - cfg.true_value) ** 2 for e in estimates) / k
    return McStudyRow(
        n=cfg.n, mean_estimate=mean, bias=bias, mse=mse, reps=cfg.reps, failed=tuple(failed)
    )
