"""Independent oracles: brute-force quadrature, a from-scratch bandwidth solver
and the families' closed-form hazards.

Nothing here touches the package's quadrature or estimation code paths; the
point is to pin expected values through a second, dissimilar route.
"""

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


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
