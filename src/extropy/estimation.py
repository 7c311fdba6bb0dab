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
from scipy.optimize import brentq
from scipy.special import ndtr

from .distributions import FamilyParams, SeededSampler, sample
from .errors import DegenerateSample, InvalidParameter, NoBracket

# not called in this module: the name stays bound because the benchmark
# tracer (perfbench/tracer.py) rebinds estimation.integrate and fails without it
from .quadrature import integrate  # noqa: F401

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
# ndtr(z) rounds to exactly 1.0 in double precision for every z >= 8.3
_PHI_ONE = 8.3


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
            terms = np.triu(terms, 1)
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

    def shifted(self, c: float) -> "SampleBatch":
        return SampleBatch(self.values + c)


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

        A reflected density vanishes below its boundary, so that boundary
        bounds the integral too.  Reflection at c is the plain kernel sum
        over the sample and its image 2c - x, counted twice.
        """
        bounds = [c for c in (lower, self.reflect_at, other.reflect_at) if c is not None]
        (x, wx), (y, wy) = self._centres(), other._centres()
        return wx * wy * _gram_sum(
            x, y, self.bandwidth, other.bandwidth, max(bounds) if bounds else None
        )

    def _centres(self) -> tuple[np.ndarray, float]:
        """Sorted kernel centres and the weight of their mean kernel."""
        vals = self.sample.values
        if self.reflect_at is None:
            return vals, 1.0
        return np.sort(np.concatenate([vals, 2.0 * self.reflect_at - vals])), 2.0


def sample_batch(
    params: FamilyParams, n: int, sampler: SeededSampler, *, substream: int | None = None
) -> SampleBatch:
    """Draw a seeded inverse-cdf sample from a family as a SampleBatch."""
    return SampleBatch(sample(params, n, sampler, substream=substream))


def sheather_jones_bandwidth(s: SampleBatch) -> float:
    """Solve-the-equation plug-in bandwidth for a Gaussian kernel.

    Pilot functionals use Gaussian-reference bandwidths on the robust scale
    min(sd, IQR/1.349); the fixed point is bracketed inside
    [1e-3, 1e3] * sd * n^(-1/5) and solved by Brent's method.  The sample is
    standardized by its sd first, which makes the result exactly
    scale-equivariant.
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
    if n <= 2000:  # cache the o(n^2) off-diagonal squared differences
        iu = np.triu_indices(n, k=1)
        dsq_cache = ((z[:, None] - z[None, :]) ** 2)[iu]

        def _offdiag_sum(h: float, poly) -> float:
            u2 = dsq_cache / (h * h)
            return float((poly(u2) * np.exp(-0.5 * u2)).sum())

    else:  # same exact sums, evaluated in row chunks to bound memory
        chunk = max(1, 2_000_000 // n)

        def _offdiag_sum(h: float, poly) -> float:
            total = 0.0
            for start in range(0, n, chunk):
                rows = z[start : start + chunk]
                u2 = (rows[:, None] - z[None, start:]) ** 2 / (h * h)
                # strict upper triangle of the global matrix: local col > local row
                mask = np.greater.outer(
                    np.arange(u2.shape[1]), np.arange(rows.size)
                ).T
                total += float((poly(u2) * np.exp(-0.5 * u2) * mask).sum())
            return total

    def sd_functional(h: float) -> float:
        total = 2.0 * _offdiag_sum(h, lambda u2: u2 * u2 - 6.0 * u2 + 3.0) + 3.0 * n
        return total / (n * (n - 1) * h**5 * _SQRT_2PI)

    def td_functional(h: float) -> float:
        total = (
            2.0 * _offdiag_sum(h, lambda u2: u2 * u2 * u2 - 15.0 * u2 * u2 + 45.0 * u2 - 15.0)
            - 15.0 * n
        )
        return -total / (n * (n - 1) * h**7 * _SQRT_2PI)

    a = 0.920 * 1.349 * scale_z * n ** (-1.0 / 7.0)
    b = 0.912 * 1.349 * scale_z * n ** (-1.0 / 9.0)
    td = td_functional(b)
    if not (td > 0 and math.isfinite(td)):
        raise DegenerateSample("sample too sparse for the pilot curvature functional")
    alpha2_coeff = 1.357 * (sd_functional(a) / td) ** (1.0 / 7.0)
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)

    def equation(h: float) -> float:
        return (c1 / sd_functional(alpha2_coeff * h ** (5.0 / 7.0))) ** 0.2 - h

    h0 = n ** (-0.2)
    lo, hi = 1e-3 * h0, 1e3 * h0
    f_lo, f_hi = equation(lo), equation(hi)
    if f_lo * f_hi > 0:
        raise NoBracket(
            f"bandwidth equation has no sign change in [{lo * sd:.3e}, {hi * sd:.3e}]"
        )
    root = brentq(equation, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return float(root * sd)


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
    Reflection anchors at ``support_lower`` (0 when it is ``None``).  Each
    sample's int fhat^2 is computed once and reused across its pairs; the
    matrix is symmetric with a zero diagonal.
    """
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
            values[i, j] = values[j, i] = 0.5 * (norms[i] + norms[j] - 2.0 * cross)
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


@dataclass(frozen=True)
class McStudyConfig:
    """One row of a bias/MSE study: families, sample size, replications.

    ``support_lower`` defaults to 0 because the study reproduces analyses of
    nonnegative lifetimes; set ``None`` for the translation-invariant
    estimator.
    """

    family_x: FamilyParams
    family_y: FamilyParams
    n: int
    reps: int
    seed: int
    true_value: float
    support_lower: float | None = 0.0
    boundary_reflect: bool = False

    def __post_init__(self):
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
