"""Nonparametric relative-extropy estimation from two samples.

The estimator is the plug-in (1/2) int (fhat - ghat)^2 built from Gaussian
kernel density estimates with solve-the-equation bandwidths (Sheather-Jones
with Gaussian reference pilots).  The integral is computed in closed form:
two Gaussian kernels integrate to a Gaussian in the distance of their
centres, so int fhat ghat is a finite double sum over the two samples
(Wand & Jones 1995, *Kernel Smoothing*; the estimate is half the L2
two-sample statistic of Anderson, Hall & Titterington 1994).  By default it
runs over the whole line, which makes the estimate invariant (up to
rounding) under a common shift of both samples; a lower support bound (for
nonnegative data) and boundary reflection are available as options.
``estimate_relative_extropy`` selects both bandwidths itself;
``estimate_pairwise_relative_extropy`` takes them given, for any number of
samples.  The module needs numpy alone: a lower bound's normal cdf factor is
the module's own :func:`_normal_cdf`, and the bandwidth's quartiles are read
off the sorted sample (:func:`_sorted_quantile`).

The Monte-Carlo harness draws each replication from its own PCG64 substream,
so study rows are reproducible bit-for-bit and independent of scheduling; a
replication fails only with a package error.
"""

from __future__ import annotations

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
    "gaussian_kernel",
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
# exp(-32) (about 1.3e-14) of its peak; kernel sums drop such terms
_KERNEL_WINDOW = 8.0
# kernel terms evaluated at once, which bounds the working memory at every n
_BLOCK_TERMS = 1 << 16
# pair terms the Sheather-Jones sums keep across one solve: 2^21 doubles, 16 MB
_SJ_KEEP_TERMS = 1 << 21
# a block of pair differences whose rows average fewer terms than this is built
# by one index take, a longer one row by row: the take's index arrays cost more
# memory traffic than the loop's calls save on long rows (at n = 800 the two tie)
_SJ_GATHER_ROW = 400
# u^6 exp(-u^2 / 2) is below 1e-18 of its peak for |u| > 10.5; the
# Sheather-Jones sums drop pairs farther apart than that many pilot widths
_SJ_WINDOW = 10.5
# the Sheather-Jones solve stops at a Newton step this small on the standardized
# scale, where the step is the error: half the 1e-14 the reference bandwidths of
# the benchmark gate hold (perfbench/workloads.py); steps of a few ulps stall
_SJ_STEP = 0.5e-14
# Phi(z) rounds to exactly 1.0 in double precision for every z >= 8.3, so the
# bounded Gram sums evaluate Phi only on the staircase of pairs below it: each
# run of _PHI_ROWS rows takes its own column cut from its first (smallest) row
_PHI_ONE = 8.3
_PHI_ROWS = 16
# Phi(-t) exp(t^2 / 2) = erfcx(t / sqrt 2) / 2 for t >= 0 is _PHI_NUM(t) / _PHI_DEN(t)
# for t <= _PHI_SPLIT, and _PHI_TAIL_NUM(s) / _PHI_TAIL_DEN(s) / t with s = 1 / t^2
# above it, highest power first, each to a relative error of 1e-17: fits at 40
# digits by scripts/derive_phi_coefficients.py, rounded to doubles.  Every
# coefficient is positive, so Horner's rule adds no cancellation.
_PHI_NUM = (
    3.95255002770078e-06,
    0.00010299494938783691,
    0.001279822726927431,
    0.009820919554377324,
    0.0507263659367906,
    0.1807253640733471,
    0.4362771232069861,
    0.6613069441689924,
    0.5,
)
_PHI_DEN = (
    9.90757346363322e-06,
    0.00025817006858211915,
    0.0032179467479760823,
    0.024875581710090817,
    0.1303400526321844,
    0.4771168241899392,
    1.2143695451178032,
    2.0644672201898153,
    2.120498449140852,
    1.0,
)
_PHI_TAIL_NUM = (
    96.41863265704114,
    280.28080155066914,
    111.45430316258206,
    12.595167622793639,
    0.39894228040143265,
)
_PHI_TAIL_DEN = (
    627.2105835408548,
    928.7914827961059,
    308.94591092396064,
    32.57140328701131,
    1.0,
)
_PHI_SPLIT = 8.5
# Phi(-t) underflows to 0 beyond t = 38.5; the clip keeps t - round(t) finite
_PHI_CLIP = 40.0
# points per pass of _normal_cdf: its temporaries, 64 KB each, stay in cache,
# while a pass still amortizes the ~50 numpy calls it makes
_PHI_CHUNK = 8192
# relative rounding error allowed in each kernel sum: measured under 2 ulps
# (samples x against x (1 + 1e-12), n = 30 to 3000), with a 32-fold margin
_SUM_ROUNDING = 64.0 * np.finfo(float).eps


def gaussian_kernel(u):
    """Standard normal density (2 pi)^(-1/2) exp(-u^2 / 2)."""
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * u * u) / _SQRT_2PI


def _horner(coeffs: tuple[float, ...], e: np.ndarray, out: np.ndarray) -> None:
    """The polynomial with ``coeffs``, highest power first, at ``e`` into ``out``."""
    np.multiply(e, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= e
    if coeffs[-1]:
        out += coeffs[-1]


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf of a 1-D array, within a few ulps, in numpy alone.

    Phi(-t) = exp(-t^2 / 2) R(t) for t = |z|, and Phi(z) = 1 - Phi(-z) for
    z > 0.  R is one rational function up to ``_PHI_SPLIT``, which every z > 0
    needs, and another in 1 / t^2 beyond it, evaluated on the points of the far
    left tail alone.  As in Cody (1969, Math. Comp. 23:631), exp(-t^2 / 2) is
    exp(-h^2 / 2) exp(-(t - h)(t + h) / 2) with h = round(16 t) / 16, whose
    square is exact, so the tail keeps its relative accuracy down to the
    subnormals.  The work runs in chunks of ``_PHI_CHUNK`` points, whose
    temporaries stay in cache.
    """
    out = np.empty(z.size)
    for s in range(0, z.size, _PHI_CHUNK):
        zs, q = z[s : s + _PHI_CHUNK], out[s : s + _PHI_CHUNK]
        t = np.abs(zs)
        np.minimum(t, _PHI_CLIP, out=t)
        h = t * 16.0
        np.rint(h, out=h)
        h *= 0.0625
        near = t - h
        near *= t + h
        near *= -0.5
        np.exp(near, out=near)
        h *= h
        h *= -0.5
        np.exp(h, out=h)
        r = np.minimum(t, _PHI_SPLIT)
        den = np.empty_like(r)
        _horner(_PHI_DEN, r, den)
        _horner(_PHI_NUM, r, q)
        q /= den
        far = np.flatnonzero(zs < -_PHI_SPLIT)
        if far.size:
            tf = t[far]
            w = 1.0 / (tf * tf)
            tail, den = np.empty_like(w), np.empty_like(w)
            _horner(_PHI_TAIL_NUM, w, tail)
            _horner(_PHI_TAIL_DEN, w, den)
            q[far] = tail / den / tf
        q *= near
        q *= h  # last, where it may be subnormal
        np.subtract(1.0, q, out=q, where=zs > 0.0)
    return out


def _blocks(rows: np.ndarray, cols: np.ndarray, reach: float):
    """Row blocks of sorted ``rows`` and the window of sorted ``cols`` they reach.

    Yields ``(start, stop, lo, hi)``: every column outside ``cols[lo:hi]`` is
    farther than ``reach`` from every row in ``rows[start:stop]``.
    """
    step = max(1, _BLOCK_TERMS // cols.size)
    for start in range(0, rows.size, step):
        stop = min(start + step, rows.size)
        lo = int(np.searchsorted(cols, rows[start] - reach, side="left"))
        hi = int(np.searchsorted(cols, rows[stop - 1] + reach, side="right"))
        yield start, stop, lo, hi


def _upper_squares(z: np.ndarray, reach: float):
    """Squared differences z_j - z_i, j > i, of sorted ``z`` by row block, within ``reach``.

    Row i of a block runs from column i + 1 to the block's window end, so one
    block is the upper half in row-major order.  A block of short rows is one
    index take; a block of long rows is filled row by row in place.
    """
    for start, stop, _, hi in _blocks(z, z, reach):
        lengths = np.arange(hi - start - 1, hi - stop - 1, -1)
        ends = np.cumsum(lengths)
        if ends[-1] < _SJ_GATHER_ROW * (stop - start):
            # entry k of the block, in row i, is column k + i + 1 - (ends[i] - lengths[i])
            shift = np.arange(start + 1, stop + 1) - (ends - lengths)
            diffs = z[np.arange(ends[-1]) + np.repeat(shift, lengths)]
            diffs -= np.repeat(z[start:stop], lengths)
        else:
            diffs = np.empty(ends[-1])
            for i, end, length in zip(range(start, stop), ends, lengths):
                np.subtract(z[i + 1 : hi], z[i], out=diffs[end - length : end])
        diffs *= diffs
        yield diffs


def _gram_sum(x: np.ndarray, y: np.ndarray, bx: float, by: float, lower: float | None) -> float:
    """S = int_c^inf of the product of the mean kernels on sorted ``x`` and ``y``.

    Term by term, int_c^inf phi_bx(t - x_i) phi_by(t - y_j) dt equals
    phi_tau(x_i - y_j) Phi((mu_ij - c) / s) with tau^2 = bx^2 + by^2,
    mu_ij = (x_i by^2 + y_j bx^2) / tau^2 and s = bx by / tau; without a
    lower bound c the Phi factor is 1.  S is the mean over all (i, j).
    Terms farther apart than ``_KERNEL_WINDOW`` * tau are dropped.  When x
    and y are the same points at the same bandwidth, the strict upper half
    is summed once and counted twice, plus the diagonal.  Phi
    (:func:`_normal_cdf`) is evaluated only where u_i + v_j < ``_PHI_ONE``,
    in one call per row block.
    """
    tau = math.hypot(bx, by)
    symmetric = bx == by and (x is y or np.array_equal(x, y))
    if lower is not None:
        # (mu_ij - c) / s split into a row part and a column part
        u = (x - lower) * (by / (bx * tau))
        v = (y - lower) * (bx / (by * tau))
    total = 0.0
    diagonal = 0.0 if lower is not None else float(x.size)
    for start, stop, lo, hi in _blocks(x, y, _KERNEL_WINDOW * tau):
        if symmetric:
            lo = start  # the strict upper half; the window starts at or before it
        terms = np.subtract.outer(x[start:stop], y[lo:hi])
        np.square(terms, out=terms)
        terms *= -0.5 / (tau * tau)
        np.exp(terms, out=terms)
        if lower is not None:
            # u and v increase along the sorted axes: u[first] + v is the smallest
            # argument in each column of the rows from ``first``, and Phi is exactly
            # 1.0 from column ``one`` on; a symmetric sum needs no column before ``first``
            tiles, args = [], []
            for first in range(start, stop, _PHI_ROWS):
                left = first if symmetric else lo
                one = left + int(np.searchsorted(v[left:hi], _PHI_ONE - u[first], side="left"))
                if one > left:
                    last = min(first + _PHI_ROWS, stop)
                    tiles.append(terms[first - start : last - start, left - lo : one - lo])
                    args.append(np.add.outer(u[first:last], v[left:one]).ravel())
            if symmetric:
                args.append(u[start:stop] + v[start:stop])  # the block's diagonal, last
            phi = _normal_cdf(np.concatenate(args)) if args else None
            at = 0
            for tile in tiles:
                tile *= phi[at : at + tile.size].reshape(tile.shape)
                at += tile.size
            if symmetric:
                diagonal += float(phi[at:].sum())
        if symmetric:
            # zero the lower half in place: a fresh block-sized copy costs page faults
            terms[np.tri(*terms.shape, dtype=bool)] = 0.0
        total += float(terms.sum())
    if symmetric:
        total = 2.0 * total + diagonal
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

    def _raw(self, x):
        """Plain kernel sum, in sorted blocks windowed to 8 bandwidths.

        The window drops kernels whose contribution is below exp(-32) of
        their peak, so the truncation error is under 1e-14 per omitted kernel.
        """
        vals = self.sample.values
        b = self.bandwidth
        x = np.asarray(x, dtype=float)
        order = np.argsort(x, axis=None, kind="stable")
        xs = x.ravel()[order]
        sums = np.empty(xs.size)
        for start, stop, lo, hi in _blocks(xs, vals, _KERNEL_WINDOW * b):
            u = (xs[start:stop, None] - vals[None, lo:hi]) / b
            sums[start:stop] = np.exp(-0.5 * u * u).sum(axis=1)
        out = np.empty_like(sums)
        out[order] = sums / (vals.size * b * _SQRT_2PI)
        return out.reshape(x.shape)[()]

    def pdf(self, x):
        if self.reflect_at is None:
            return self._raw(x)
        c = self.reflect_at
        x = np.asarray(x, dtype=float)
        value = self._raw(x) + self._raw(2.0 * c - x)
        return np.where(x >= c, value, 0.0)

    def inner(self, other: "KdeModel", lower: float | None = None) -> float:
        """int fhat ghat over [lower, inf) in closed form (the line for ``None``).

        Two densities reflected at the same c vanish below it, and their
        product over [c, inf) unfolds onto the whole line:
        int_c^inf f_r g_r = int f g + int f(t) g(2c - t) dt, the plain kernel
        sums over (x, y) and over (x, 2c - y) with no Phi factor.  Other
        combinations (different reflection points, a bound above c) have no
        caller and are refused.
        """
        x, y = self.sample.values, other.sample.values
        bx, by = self.bandwidth, other.bandwidth
        c = self.reflect_at
        if c is None and other.reflect_at is None:
            return _gram_sum(x, y, bx, by, lower)
        if c != other.reflect_at or (lower is not None and lower > c):
            raise InvalidParameter(
                f"inner product needs one reflection point at or above the bound; "
                f"got reflect_at {c} and {other.reflect_at}, lower {lower}"
            )
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


def sheather_jones_bandwidth(s: SampleBatch) -> float:
    """Solve-the-equation plug-in bandwidth for a Gaussian kernel.

    Pilot functionals use Gaussian-reference bandwidths on the robust scale
    min(sd, IQR/1.349).  The sample is standardized by its sd first, which
    makes the result exactly scale-equivariant.  The equation
    F(h) = (c1 / psi4(alpha2 h^(5/7)))^(1/5) - h must change sign over
    [1e-3, 1e3] * n^(-1/5), else :class:`NoBracket`.  It is solved by Newton's
    method from n^(-1/5) inside that bracket, which each evaluation narrows; a
    step that would leave the bracket, or not halve the step before it,
    bisects instead.  The solve stops at a step of at most ``_SJ_STEP`` and
    takes about 9 pair-sum passes, counting the two pilots and the two
    bracket ends.  Each pass runs over the sorted blocks of
    ``_upper_squares``, less pairs beyond ``_SJ_WINDOW`` pilot widths when
    the blocks are rebuilt at each pass.  It scales each block's squared
    differences once into the exponent e = -w/2, evaluates the psi4 (or psi6)
    and slope polynomials in e by Horner's rule, and reduces each against
    the one shared exp(e).
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

    z = vals / sd
    pairs = n * (n - 1) // 2
    # one solve makes some 9 passes over the pairs: below the cap the blocks are
    # kept for all of them, above it each pass rebuilds them in its window
    kept = list(_upper_squares(z, math.inf)) if pairs <= _SJ_KEEP_TERMS else None
    # every pass works in these, sized to the largest block: fresh block-sized
    # arrays at each pass cost page faults
    e, expo, terms = np.empty((3, min(pairs, max(_BLOCK_TERMS, n))))

    def pair_sums(g: float, poly: tuple[float, ...], slope: bool = False) -> tuple[float, float]:
        """Sums over j > i of poly(e) exp(e) and, with ``slope``, of
        ``_PSI4_SLOPE``(e) exp(e); e = -((z_j - z_i) / g)^2 / 2.

        Each sum is one einsum, numpy's own multiply-add loop: the last bits
        of a BLAS dot change with its thread count.
        """
        total = slope_total = 0.0
        scale = -0.5 / (g * g)
        for dsq in kept if kept is not None else _upper_squares(z, _SJ_WINDOW * g):
            k = dsq.size
            ek, xk, tk = e[:k], expo[:k], terms[:k]
            np.multiply(dsq, scale, out=ek)
            np.exp(ek, out=xk)
            _horner(poly, ek, tk)
            total += float(np.einsum("i,i->", tk, xk))
            if slope:
                _horner(_PSI4_SLOPE, ek, tk)
                slope_total += float(np.einsum("i,i->", tk, xk))
        return total, slope_total

    def sd_functional(g: float, slope: bool = False) -> tuple[float, float]:
        """psi4 at g = N / (n (n - 1) g^5 sqrt(2 pi)) and, with ``slope``, g N'(g) / N."""
        total, slope_total = pair_sums(g, _PSI4, slope)
        total = 2.0 * total + 3.0 * n
        return total / (n * (n - 1) * g**5 * _SQRT_2PI), 2.0 * slope_total / total

    def td_functional(g: float) -> float:
        total = 2.0 * pair_sums(g, _PSI6)[0] - 15.0 * n
        return -total / (n * (n - 1) * g**7 * _SQRT_2PI)

    a = 0.920 * 1.349 * scale_z * n ** (-1.0 / 7.0)
    b = 0.912 * 1.349 * scale_z * n ** (-1.0 / 9.0)
    td = td_functional(b)
    if not (td > 0 and math.isfinite(td)):
        raise DegenerateSample("sample too sparse for the pilot curvature functional")
    alpha2_coeff = 1.357 * (sd_functional(a)[0] / td) ** (1.0 / 7.0)
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)

    def equation(h: float, slope: bool = False) -> tuple[float, float]:
        """F(h) and, with ``slope``, F'(h) = (r / h)(5 - g N'/N) / 7 - 1, r = F(h) + h."""
        psi4, log_slope = sd_functional(alpha2_coeff * h ** (5.0 / 7.0), slope)
        r = (c1 / psi4) ** 0.2
        return r - h, (r / h) * (5.0 - log_slope) / 7.0 - 1.0

    h0 = n ** (-0.2)
    lo, hi = 1e-3 * h0, 1e3 * h0
    f_lo, f_hi = equation(lo)[0], equation(hi)[0]
    if f_lo * f_hi > 0:
        raise NoBracket(
            f"bandwidth equation has no sign change in [{lo * sd:.3e}, {hi * sd:.3e}]"
        )
    h, step, last = h0, hi - lo, hi - lo
    while abs(step) > _SJ_STEP:
        f, slope = equation(h, slope=True)
        if f == 0.0:
            break
        if (f > 0.0) == (f_lo > 0.0):
            lo = h
        else:
            hi = h
        newton = -f / slope if slope != 0.0 else math.nan
        last, step = step, newton
        # not (lo < . < hi) also holds for a NaN step
        if not (lo < h + newton < hi) or abs(newton) > 0.5 * abs(last):
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
    Reflection anchors at ``support_lower`` (0 when it is ``None``) and
    needs every observation at or above it, else :class:`InvalidParameter`
    (folding would silently move the mass below it).  Each
    sample's int fhat^2 is computed once and reused across its pairs; the
    matrix is symmetric with a zero diagonal.  An entry within the rounding
    bound of its three sums, ``_SUM_ROUNDING`` relative to each, is 0.0; one
    below minus that bound raises :class:`InvalidModel`.
    """
    reflect_at = None
    if boundary_reflect:
        reflect_at = 0.0 if support_lower is None else support_lower
        low = min(float(batch.values.min()) for batch in batches)
        if low < reflect_at:
            raise InvalidParameter(
                f"boundary reflection at {reflect_at:g} needs data at or above it; "
                f"smallest observation is {low:g}"
            )
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
    families' supports, where the estimates are cut off (and reflected);
    set ``None`` for the translation-invariant estimator over the whole line.
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
        if self.support_lower is _SUPPORT_HULL:
            lower = min(self.family_x.support[0], self.family_y.support[0])
            object.__setattr__(self, "support_lower", lower)
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
