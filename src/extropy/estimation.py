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

The Monte-Carlo harness draws each replication from its own PCG64 substream,
so study rows are reproducible bit-for-bit and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from scipy.special import ndtr

from .distributions import SeededSampler, sample
from .errors import DegenerateSample, InvalidModel, InvalidParameter, NoBracket
from .models import DistributionModel

# not called in this module: the name stays bound because the benchmark
# tracer (perfbench/tracer.py) rebinds estimation.integrate and fails without it
from .quadrature import integrate  # noqa: F401


# never called by the package: the name stays bound because the benchmark tracer
# (perfbench/tracer.py) rebinds estimation.brentq and fails without it; importing
# scipy.optimize costs about 0.2 s (Intel Xeon), so it loads only on a call
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
# u^6 exp(-u^2 / 2) is below 1e-18 of its peak for |u| > 10.5; the
# Sheather-Jones sums drop pairs farther apart than that many pilot widths
_SJ_WINDOW = 10.5
# the Sheather-Jones solve stops at a Newton step this small on the standardized
# scale, where the step is the error: half the 1e-14 the reference bandwidths of
# the benchmark gate hold (perfbench/workloads.py); steps of a few ulps stall
_SJ_STEP = 0.5e-14
# ndtr(z) rounds to exactly 1.0 in double precision for every z >= 8.3
_PHI_ONE = 8.3
# relative rounding error allowed in each kernel sum: measured under 2 ulps
# (samples x against x (1 + 1e-12), n = 30 to 3000), with a 32-fold margin
_SUM_ROUNDING = 64.0 * np.finfo(float).eps


def gaussian_kernel(u):
    """Standard normal density (2 pi)^(-1/2) exp(-u^2 / 2)."""
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * u * u) / _SQRT_2PI


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

    Each row runs from column i + 1, so one block is the upper half in row-major order.
    """
    for start, stop, _, hi in _blocks(z, z, reach):
        diffs = np.concatenate([z[i + 1 : hi] - z[i] for i in range(start, stop)])
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
    is summed once and counted twice, plus the diagonal.
    """
    tau = math.hypot(bx, by)
    symmetric = bx == by and (x is y or np.array_equal(x, y))
    if lower is not None:
        # (mu_ij - c) / s split into a row part and a column part
        u = (x - lower) * (by / (bx * tau))
        v = (y - lower) * (bx / (by * tau))
    total = 0.0
    for start, stop, lo, hi in _blocks(x, y, _KERNEL_WINDOW * tau):
        if symmetric:
            lo = start  # the strict upper half; the window starts at or before it
        one = lo  # the Phi factor is exactly 1.0 from column ``one`` on
        if lower is not None:
            # u and v increase along the sorted axes: u[start] + v is the
            # smallest argument in each column of the block
            one = lo + int(np.searchsorted(v[lo:hi], _PHI_ONE - u[start], side="left"))
        terms = np.subtract.outer(x[start:stop], y[lo:hi])
        np.square(terms, out=terms)
        terms *= -0.5 / (tau * tau)
        np.exp(terms, out=terms)
        if one > lo:
            phi = np.add.outer(u[start:stop], v[lo:one])
            terms[:, : one - lo] *= ndtr(phi, out=phi)
        if symmetric:
            # zero the lower half in place: a fresh block-sized copy costs page faults
            terms[np.tri(*terms.shape, dtype=bool)] = 0.0
        total += float(terms.sum())
    if symmetric:
        diagonal = float(ndtr(u + v).sum()) if lower is not None else float(x.size)
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


def _psi4_terms(w: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """w^2 - 6w + 3 into ``out``: phi^(4)(u) sqrt(2 pi) e^(w/2) at w = u^2."""
    np.multiply(w, w, out=out)
    np.multiply(w, 6.0, out=tmp)
    out -= tmp
    out += 3.0


def _psi6_terms(w: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """w^3 - 15w^2 + 45w - 15 into ``out``: phi^(6)(u) sqrt(2 pi) e^(w/2) at w = u^2."""
    np.multiply(w, w, out=out)
    out *= w
    np.multiply(w, 15.0, out=tmp)
    tmp *= w
    out -= tmp
    np.multiply(w, 45.0, out=tmp)
    out += tmp
    out -= 15.0


def _psi4_slope_terms(w: np.ndarray, out: np.ndarray) -> None:
    """w^3 - 10w^2 + 15w into ``out``.

    At w = (d/g)^2 it is g d/dg of (w^2 - 6w + 3) e^(-w/2), over e^(-w/2).
    """
    np.subtract(w, 10.0, out=out)
    out *= w
    out += 15.0
    out *= w


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
    bracket ends.  Each pass sums the pair terms of psi4 and of its slope
    under one shared exponential, over the sorted blocks of
    ``_upper_squares``, less pairs beyond ``_SJ_WINDOW`` pilot widths when
    the blocks are rebuilt at each pass.
    """
    if s.n < 5:
        raise DegenerateSample(f"bandwidth selection needs n >= 5, got {s.n}")
    vals = s.values
    n = s.n
    sd = float(vals.std(ddof=1))
    if sd == 0.0:
        raise DegenerateSample("sample has zero variance")
    q75, q25 = np.percentile(vals, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale_z = min(1.0, iqr / (1.349 * sd)) if iqr > 0 else 1.0

    z = vals / sd
    pairs = n * (n - 1) // 2
    # one solve makes some 9 passes over the pairs: below the cap the blocks are
    # kept for all of them, above it each pass rebuilds them in its window
    kept = list(_upper_squares(z, math.inf)) if pairs <= _SJ_KEEP_TERMS else None
    # every pass works in these, sized to the largest block: fresh block-sized
    # arrays at each pass cost page faults
    w, expo, terms, slope_terms = np.empty((4, min(pairs, max(_BLOCK_TERMS, n))))

    def pair_sums(g: float, poly, slope: bool = False) -> tuple[float, float]:
        """Sums over j > i of poly(w) e^(-w/2) and, with ``slope``, of
        ``_psi4_slope_terms`` times e^(-w/2); w = ((z_j - z_i) / g)^2."""
        total = slope_total = 0.0
        for dsq in kept if kept is not None else _upper_squares(z, _SJ_WINDOW * g):
            k = dsq.size
            wk, ek, tk, sk = w[:k], expo[:k], terms[:k], slope_terms[:k]
            np.divide(dsq, g * g, out=wk)
            poly(wk, tk, ek)
            if slope:
                _psi4_slope_terms(wk, sk)
            np.multiply(wk, -0.5, out=ek)
            np.exp(ek, out=ek)
            tk *= ek
            total += float(tk.sum())
            if slope:
                sk *= ek
                slope_total += float(sk.sum())
        return total, slope_total

    def sd_functional(g: float, slope: bool = False) -> tuple[float, float]:
        """psi4 at g = N / (n (n - 1) g^5 sqrt(2 pi)) and, with ``slope``, g N'(g) / N."""
        total, slope_total = pair_sums(g, _psi4_terms, slope)
        total = 2.0 * total + 3.0 * n
        return total / (n * (n - 1) * g**5 * _SQRT_2PI), 2.0 * slope_total / total

    def td_functional(g: float) -> float:
        total = 2.0 * pair_sums(g, _psi6_terms)[0] - 15.0 * n
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
    bandwidth_x: float | None = None,
    bandwidth_y: float | None = None,
    support_lower: float | None = None,
    boundary_reflect: bool = False,
) -> float:
    """Plug-in estimate of the relative extropy between two samples.

    (1/2) int (fhat - ghat)^2 in closed form over the whole line, which is
    translation invariant up to rounding.  ``support_lower`` clips the
    integral (and anchors reflection) at a known support boundary such as 0.
    Bandwidths default to Sheather-Jones.
    """
    bx = sheather_jones_bandwidth(sx) if bandwidth_x is None else bandwidth_x
    by = sheather_jones_bandwidth(sy) if bandwidth_y is None else bandwidth_y
    values = estimate_pairwise_relative_extropy(
        (sx, sy), (bx, by), support_lower=support_lower, boundary_reflect=boundary_reflect
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
    recomputed independently and in any order.  Individual estimator failures
    are tolerated up to 1% of reps and recorded in the row; above that the
    study fails with every failed replication in the message.
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
        except Exception as exc:  # noqa: BLE001 - per-replication failure policy
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
