"""Independent oracles: the standard normal kernel, brute-force quadrature, a
from-scratch bandwidth solver and a long-double one, the families' closed-form
hazards, closed-form measures, a row-at-a-time CSV reader, the Hermite
transform's moments built by ``np.cumprod`` and the Sheather-Jones pair sums
formed one polynomial at a time.

Nothing here touches the package's quadrature or estimation code paths; the
point is to pin expected values through a second, dissimilar route.
"""

import csv
import math

import numpy as np

from extropy import ConstantReversedHazardParams, SampleBatch
from extropy.errors import CsvParseError, InvalidParameter, MissingColumn, TooFewObservations
from extropy.grouping import MIN_GROUP_SIZE, GroupedDataset

SQRT_2PI = np.sqrt(2.0 * np.pi)


def gaussian_kernel(u):
    """Standard normal density (2 pi)^(-1/2) exp(-u^2 / 2)."""
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * u * u) / SQRT_2PI


def trapezoid(fn, lo, hi, n=800_001):
    """High-resolution trapezoid rule on a uniform grid."""
    x = np.linspace(lo, hi, n)
    return float(np.trapezoid(fn(x), x))


def rel_extropy_trap(pdf_x, pdf_y, lo, hi, n=800_001):
    return 0.5 * trapezoid(lambda x: (pdf_x(x) - pdf_y(x)) ** 2, lo, hi, n)


def residual_relative_trap(pdf_x, sf_x, pdf_y, sf_y, t, hi, n=800_001):
    ax, ay = sf_x(t), sf_y(t)
    return 0.5 * trapezoid(lambda x: (pdf_x(x) / ax - pdf_y(x) / ay) ** 2, t, hi, n)


def past_relative_trap(pdf_x, cdf_x, pdf_y, cdf_y, t, n=400_001):
    ax, ay = cdf_x(t), cdf_y(t)
    return 0.5 * trapezoid(lambda x: (pdf_x(x) / ax - pdf_y(x) / ay) ** 2, 0.0, t, n)


def efficient_variances_relative_exponential(lam, mu):
    """Var_X(f - g) and Var_Y(g - f) for X ~ Exp(lam) with density f, Y ~ Exp(mu) with g.

    These are the variances of the efficient influence function of
    d(f, g) = 1/2 int (f - g)^2, which is (f - g)(x) under X and (g - f)(y)
    under Y.  Closed forms from the exponential moments
    E_X f = lam/2, E_X g = lam mu/(lam + mu), E_X f^2 = lam^2/3,
    E_X g^2 = lam mu^2/(lam + 2 mu), E_X fg = lam^2 mu/(2 lam + mu),
    and the same with the roles of lam and mu swapped under Y.
    """

    def var_own_minus_other(a, b):
        # variance of (own - other) density under the variable whose density is own
        mean_own, mean_other = a / 2.0, a * b / (a + b)
        sq_own, sq_other = a * a / 3.0, a * b * b / (a + 2.0 * b)
        cross = a * a * b / (2.0 * a + b)
        return sq_own - 2.0 * cross + sq_other - (mean_own - mean_other) ** 2

    return var_own_minus_other(lam, mu), var_own_minus_other(mu, lam)


def efficient_sd_relative_exponential(lam, mu, n, m):
    """Smallest sd any regular estimator of d(Exp(lam), Exp(mu)) can have from n and m draws.

    sigma_eff(n, m) = sqrt(Var_X(f - g)/n + Var_Y(g - f)/m), the information
    bound for two independent samples of sizes n (from X) and m (from Y).
    """
    var_x, var_y = efficient_variances_relative_exponential(lam, mu)
    return float(np.sqrt(var_x / n + var_y / m))


def sheather_jones_oracle(x):
    """Solve-the-equation bandwidth, coded straight from the plug-in equations.

    Works on the raw (unstandardized) data, forms the pairwise-difference
    functionals over the full meshgrid of squared differences (each Hermite
    polynomial in w = u^2 by Horner's rule), and solves the fixed point by
    plain bisection in log h.  Shares no code with the library.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    lam = min(1.349 * sd, iqr) if iqr > 0 else 1.349 * sd

    d2 = np.subtract.outer(x, x) ** 2

    def s_alpha(alpha):
        w = d2 / alpha**2
        total = (((w - 6.0) * w + 3.0) * np.exp(-0.5 * w)).sum() / SQRT_2PI
        return total / (n * (n - 1) * alpha**5)

    def t_b(bb):
        w = d2 / bb**2
        total = ((((w - 15.0) * w + 45.0) * w - 15.0) * np.exp(-0.5 * w)).sum() / SQRT_2PI
        return -total / (n * (n - 1) * bb**7)

    a = 0.920 * lam * n ** (-1.0 / 7.0)
    b = 0.912 * lam * n ** (-1.0 / 9.0)
    td = t_b(b)
    ratio = s_alpha(a) / td
    rk = 1.0 / (2.0 * np.sqrt(np.pi))

    def fixed_point_gap(h):
        alpha2 = 1.357 * ratio ** (1.0 / 7.0) * h ** (5.0 / 7.0)
        return (rk / (n * s_alpha(alpha2))) ** 0.2 - h

    lo = np.log(1e-3 * sd * n ** (-0.2))
    hi = np.log(1e3 * sd * n ** (-0.2))
    flo = fixed_point_gap(np.exp(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fixed_point_gap(np.exp(mid))
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-13:
            break
    return float(np.exp(0.5 * (lo + hi)))


def horner(coeffs, e, out):
    """The polynomial with ``coeffs``, highest power first, at ``e`` into ``out``."""
    np.multiply(e, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= e
    if coeffs[-1]:
        out += coeffs[-1]


def pair_sums_by_polynomial(squares, g, poly, slope, work):
    """Sums over the blocks of squared differences in ``squares`` of poly(e) exp(e)
    and, with ``slope``, of the psi4 slope (-8e^3 - 40e^2 - 30e) exp(e); e = -dsq /
    (2 g^2).  The moments e^k exp(e) up to the polynomials' degree only, one
    coefficient row per polynomial, as ``estimation._pair_sums`` combined them
    while a polynomial and a slope flag steered each pass: the reference whose
    bits the one three-sum pass keeps.
    """
    polys = (poly, (-8.0, -40.0, -30.0, 0.0)) if slope else (poly,)
    coeffs = np.zeros((len(polys), max(map(len, polys))))
    for row, c in zip(coeffs, polys):
        row[: len(c)] = c[::-1]
    scale = -0.5 / (g * g)
    totals = np.zeros(len(coeffs))
    for dsq in squares:
        ek, term = work[:, : dsq.size]
        np.multiply(dsq, scale, out=ek)
        np.exp(ek, out=term)
        starts = np.arange(0, dsq.size, 1024)
        moments = np.empty((coeffs.shape[1], starts.size))
        np.add.reduceat(term, starts, out=moments[0])
        for k in range(1, len(moments)):
            term *= ek
            np.add.reduceat(term, starts, out=moments[k])
        totals += np.einsum("ck,km->cm", coeffs, moments).sum(axis=1)
    return float(totals[0]), (float(totals[1]) if slope else 0.0)


def sheather_jones_longdouble(x):
    """The package's solve-the-equation bandwidth with every sum and the root in
    numpy's longdouble (80-bit on x86).

    The same equation as ``sheather_jones_bandwidth``: the sample standardized by
    its sd, the pilots on the robust scale with the package's double constants,
    the bracket [1e-3, 1e3] n^(-1/5).  The pair terms are the Hermite polynomials
    in w = u^2 (w^2 - 6w + 3 and w^3 - 15w^2 + 45w - 15) over the upper triangle
    of the full meshgrid, and the root is found by plain bisection on h until its
    midpoint stops moving.  Meant for samples whose bracket holds one root.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    ld = np.longdouble
    xl = x.astype(ld)
    sd = np.sqrt(((xl - xl.mean()) ** 2).sum() / ld(n - 1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = ld(q75) - ld(q25)
    scale = min(ld(1.0), iqr / (ld(1.349) * sd)) if iqr > 0 else ld(1.0)
    z = xl / sd
    w_pairs = (z[None, :] - z[:, None])[np.triu_indices(n, 1)] ** 2
    pi = np.arccos(ld(-1.0))
    sqrt_2pi = np.sqrt(2 * pi)

    def pair_sum(g, coeffs):
        w = w_pairs / (g * g)
        terms = np.empty_like(w)
        horner(coeffs, w, terms)
        return 2 * (terms * np.exp(-w / 2)).sum() + coeffs[-1] * n

    def psi4(g):
        return pair_sum(g, (1.0, -6.0, 3.0)) / (n * (n - 1) * g**5 * sqrt_2pi)

    def psi6(g):
        return pair_sum(g, (1.0, -15.0, 45.0, -15.0)) / (n * (n - 1) * g**7 * sqrt_2pi)

    a = ld(0.920) * ld(1.349) * scale * ld(n) ** (ld(-1.0) / 7)
    b = ld(0.912) * ld(1.349) * scale * ld(n) ** (ld(-1.0) / 9)
    alpha2 = ld(1.357) * (psi4(a) / -psi6(b)) ** (ld(1.0) / 7)
    c1 = 1 / (2 * np.sqrt(pi) * n)

    def gap(h):
        return (c1 / psi4(alpha2 * h ** (ld(5.0) / 7))) ** ld(0.2) - h

    h0 = ld(n) ** ld(-0.2)
    lo, hi = ld(1e-3) * h0, ld(1e3) * h0
    f_lo = gap(lo)
    assert f_lo * gap(hi) < 0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return float(mid * sd)
        f_mid = gap(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def gram_oracle(x, y, bx, by, lower):
    """int_lower^inf of the product of the mean Gaussian kernels on x and y, pair by pair.

    Every pair, no window: the (i, j) term is the N(x_i, bx^2) and N(y_j, by^2)
    densities' product integrated over [lower, inf), phi_tau(x_i - y_j)
    Phi((mu_ij - lower) / s) with tau^2 = bx^2 + by^2, mu_ij = (x_i by^2 +
    y_j bx^2) / tau^2 and s = bx by / tau; Phi from ``math.erfc``, the terms
    summed with ``math.fsum``.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    tau2 = bx * bx + by * by
    tau, s = math.sqrt(tau2), bx * by / math.sqrt(tau2)
    gap = np.subtract.outer(x, y).ravel()
    mu = ((x[:, None] * (by * by) + y[None, :] * (bx * bx)) / tau2).ravel()
    density = (np.exp(-0.5 * gap * gap / tau2) / (SQRT_2PI * tau)).tolist()
    z = ((lower - mu) / (s * math.sqrt(2.0))).tolist()
    return math.fsum(f * 0.5 * math.erfc(t) for f, t in zip(density, z)) / (x.size * y.size)


def hermite_transform_cumprod(us, table, terms):
    """``estimation._hermite_transform`` with each point's moments b^k / k! built along
    k: an (n, terms) ``np.divide.outer`` of b by k, a ``np.cumprod`` along axis 1 and
    a ``reduceat`` over axis 0.  The reference whose bits the row-by-row build keeps.
    """
    reach = len(table) - 1
    boxes = [np.floor(u) for u in us]
    merged = boxes[0] if len(us) == 1 else np.sort(np.concatenate(boxes))
    occupied = merged[np.diff(merged, prepend=-math.inf) > 0]
    gaps = np.minimum(np.diff(occupied), reach + 1).astype(np.intp)
    slots = reach + np.concatenate(([0], np.cumsum(gaps)))
    moments = np.zeros((len(us), slots[-1] + 1, terms))
    for own, u, box in zip(moments, us, boxes):
        starts = np.flatnonzero(np.diff(box, prepend=-math.inf))
        powers = np.empty((u.size, terms))
        powers[:, 0] = 1.0
        np.divide.outer(u - box - 0.5, np.arange(1.0, terms), out=powers[:, 1:])
        np.cumprod(powers, axis=1, out=powers)
        own[slots[np.searchsorted(occupied, box[starts])]] = np.add.reduceat(powers, starts)
    coeffs = np.zeros((len(us), slots.size, table.shape[-1]))
    for o, t in enumerate(table):
        coeffs += np.einsum("stk,kc->stc", moments[:, slots - o], t)
    return coeffs, moments[:, slots]


# --- closed-form hazards ------------------------------------------------------
# Each returns (hazard, reversed hazard) at points strictly inside the support,
# written from the family's formulas rather than as pdf/survival and pdf/cdf.


def exponential_hazards(rate, x):
    x = np.asarray(x, dtype=float)
    return np.full_like(x, rate), rate / np.expm1(rate * x)


def weibull_hazards(shape, scale, x):
    z = np.asarray(x, dtype=float) / scale
    u = z**shape
    hazard = (shape / scale) * z ** (shape - 1)
    return hazard, hazard * np.exp(-u) / -np.expm1(-u)


def uniform_hazards(lo, hi, x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (hi - x), 1.0 / (x - lo)


def crh_hazards(a, b, x):
    """F(x) = exp(a (x - b)): h = a F / (1 - F) = a / expm1(a (b - x)), rh = a."""
    x = np.asarray(x, dtype=float)
    return a / np.expm1(a * (b - x)), np.full_like(x, a)


# --- closed-form measures -----------------------------------------------------


def exponential_extropy(rate: float) -> float:
    """-rate/4; also the residual extropy at every t (memorylessness)."""
    if rate <= 0:
        raise InvalidParameter("rate must be positive")
    return -rate / 4.0


def exponential_inaccuracy(rate_x: float, rate_y: float) -> float:
    """-r1 r2 / (2 (r1 + r2)), invariant under residual conditioning."""
    if rate_x <= 0 or rate_y <= 0:
        raise InvalidParameter("rates must be positive")
    return -rate_x * rate_y / (2.0 * (rate_x + rate_y))


def closed_form_relative_exponential(rate_x: float, rate_y: float) -> float:
    """(1/4)(r1 + r2 - 4 r1 r2 / (r1 + r2)); equals (r1-r2)^2/(4(r1+r2))."""
    if rate_x <= 0 or rate_y <= 0:
        raise InvalidParameter("rates must be positive")
    return 0.25 * (rate_x + rate_y - 4.0 * rate_x * rate_y / (rate_x + rate_y))


def weibull_extropy(shape: float, scale: float) -> float:
    """-(k/(2s)) Gamma(2 - 1/k) / 2^(2 - 1/k); finite only for shape > 1/2."""
    if shape <= 0.5:
        raise InvalidParameter("weibull extropy requires shape > 1/2")
    return -(shape / (2.0 * scale)) * math.gamma(2.0 - 1.0 / shape) / 2.0 ** (2.0 - 1.0 / shape)


def exponential_past_extropy(rate: float, t: float) -> float:
    """-(r/4)(1 - e^{-2rt}) / (1 - e^{-rt})^2 for t > 0."""
    if rate <= 0 or t <= 0:
        raise InvalidParameter("rate and t must be positive")
    num = -np.expm1(-2.0 * rate * t)
    den = (-np.expm1(-rate * t)) ** 2
    return float(-(rate / 4.0) * num / den)


def crh_past_measures(
    p_x: ConstantReversedHazardParams,
    p_y: ConstantReversedHazardParams,
    t: float,
    include_atom: bool = False,
) -> tuple[float, float, float, float]:
    """Past measures of two constant-reversed-hazard laws at time t.

    Returns (past extropy of X, past inaccuracy, past divergence f|g,
    past relative).  The absolutely continuous convention integrates only the
    densities; ``include_atom`` additionally folds the point masses at 0 into
    the quadratic forms as squared conditional masses, which is what produces
    the "1 +" bracket of the worked closed forms.
    """
    if not (0.0 < t <= min(p_x.b, p_y.b)):
        raise InvalidParameter(f"t must lie in (0, min(b)] = (0, {min(p_x.b, p_y.b):g}]")
    a, c = p_x.a, p_y.a

    j_x = -(1.0 / (2.0 * math.exp(2.0 * a * t))) * (a / 2.0) * (math.exp(2.0 * a * t) - 1.0)
    j_y = -(1.0 / (2.0 * math.exp(2.0 * c * t))) * (c / 2.0) * (math.exp(2.0 * c * t) - 1.0)
    s = a + c
    xi = -(1.0 / (2.0 * math.exp(s * t))) * (a * c / s) * (math.exp(s * t) - 1.0)
    if include_atom:
        j_x -= 0.5 * math.exp(-2.0 * a * t)
        j_y -= 0.5 * math.exp(-2.0 * c * t)
        xi -= 0.5 * math.exp(-s * t)
    divergence = xi - j_x
    relative = 2.0 * xi - j_x - j_y
    return j_x, xi, divergence, relative


def _csv_records(path, columns):
    """The rows of a header CSV as ``csv.DictReader`` dicts, each with ``DictReader.line_num``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in columns:
            if col not in header:
                raise MissingColumn(f"column {col!r} not in header {header} of {path}")
        for row in reader:
            yield reader.line_num, row


def _csv_finite(line, column, cell):
    try:
        value = float(cell)
    except ValueError:
        raise CsvParseError(line, column, cell) from None
    if not math.isfinite(value):
        raise CsvParseError(line, column, cell)
    return value


def _csv_group(label, members):
    if len(members) < MIN_GROUP_SIZE:
        raise TooFewObservations(label, len(members), MIN_GROUP_SIZE)
    return SampleBatch(np.asarray(members))


def load_sample_rows(path, value_column):
    """``grouping.load_sample`` read one ``csv.DictReader`` row at a time."""
    values, dropped = [], 0
    for line, row in _csv_records(path, [value_column]):
        cell = (row.get(value_column) or "").strip()
        if cell:
            values.append(_csv_finite(line, value_column, cell))
        else:
            dropped += 1
    return _csv_group(path, values), dropped


def load_csv_rows(path, value_column, group_column, cut_probabilities=None):
    """``grouping.load_csv`` read one ``csv.DictReader`` row at a time, bands appended row by row."""
    ps = cut_probabilities
    dropped = 0
    values, keys = [], []
    for line, row in _csv_records(path, [value_column, group_column]):
        raw_value = (row.get(value_column) or "").strip()
        raw_key = (row.get(group_column) or "").strip()
        if not raw_value or not raw_key:
            dropped += 1
            continue
        values.append(_csv_finite(line, value_column, raw_value))
        keys.append(raw_key if ps is None else _csv_finite(line, group_column, raw_key))
    if not keys:
        raise TooFewObservations("<dataset>", 0, 2)
    if ps is None:
        buckets = {}
        for key, value in zip(keys, values):
            buckets.setdefault(key, []).append(value)
        ordered = sorted(buckets)
    else:
        arr = np.asarray(keys) + 0.0
        cuts = np.quantile(arr, ps)
        edges = [format(float(x), "g") for x in (arr.min(), *cuts, arr.max())]
        labels = [f"[{edges[0]},{edges[1]}]"] + [f"({lo},{hi}]" for lo, hi in zip(edges[1:], edges[2:])]
        buckets = {label: [] for label in labels}
        for b, value in zip(np.searchsorted(cuts, arr, side="left"), values):
            buckets[labels[int(b)]].append(value)
        ordered = labels
    return GroupedDataset(
        groups=tuple((label, _csv_group(label, buckets[label])) for label in ordered),
        dropped_rows=dropped,
    )
