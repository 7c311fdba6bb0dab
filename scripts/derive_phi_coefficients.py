"""Derive the coefficients of the package's normal cdf (``estimation._normal_cdf``).

For z >= 0, 1 - Phi(z) = exp(-z^2 / 2) R(z) with R(z) = erfcx(z / sqrt 2) / 2;
R is smooth, positive and falls like 1 / (z sqrt(2 pi)).  The package
evaluates R as one rational function of degree 8 / 9 in z on [0, 8.5]
(``_PHI_NUM`` / ``_PHI_DEN``); Phi(z) rounds to 1 from z = 8.3 on, and the
package takes Phi at z >= 0 alone, so no other range is needed.

R is fitted to the relative error by linearized least squares, P - f Q = 0
weighted by 1 / (f Q_previous) and reweighted toward the minimax error
(Lawson), at 40 significant digits with mpmath.  The script rounds the
coefficients to doubles, checks R from the rounded form against mpmath and
against ``scipy.special.erfcx`` (where installed) on a dense grid of [0, 8.5],
and prints the two coefficient tuples in the form ``estimation.py`` holds
them, highest power first; the output is Python.  Nothing is downloaded; it
runs in a few seconds:

    python scripts/derive_phi_coefficients.py
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 40

HI = 8.5


def r_exact(t: mp.mpf) -> mp.mpf:
    """R(t) = Phi(-t) exp(t^2 / 2) = erfcx(t / sqrt 2) / 2."""
    return mp.erfc(t / mp.sqrt(2)) / 2 * mp.exp(t * t / 2)


def fit(f, lo: float, hi: float, num: int, den: int, nodes: int, rounds: int = 20):
    """Coefficients (lowest power first, Q(0) = 1) and error of the best relative fit found."""
    a, b = mp.mpf(lo), mp.mpf(hi)
    xs = [a, b] + [
        (a + b) / 2 + (b - a) / 2 * mp.cos(mp.pi * (k + mp.mpf(0.5)) / nodes) for k in range(nodes)
    ]
    fs = [f(x) for x in xs]
    lawson = [mp.mpf(1)] * len(xs)
    q_prev = [mp.mpf(1)] * len(xs)
    best = None
    for step in range(rounds):
        rows, rhs = [], []
        for x, fx, lam, q in zip(xs, fs, lawson, q_prev):
            w = mp.sqrt(lam) / (fx * q)
            rows.append([w * x**j for j in range(num + 1)] + [-w * fx * x**j for j in range(1, den + 1)])
            rhs.append(w * fx)
        sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        p = [sol[j] for j in range(num + 1)]
        q = [mp.mpf(1)] + [sol[num + j] for j in range(1, den + 1)]
        q_prev = [mp.polyval(q[::-1], x) for x in xs]
        errs = [mp.polyval(p[::-1], x) / qx / fx - 1 for x, qx, fx in zip(xs, q_prev, fs)]
        worst = max(abs(e) for e in errs)
        if best is None or worst < best[0]:
            best = (worst, [float(c) for c in p], [float(c) for c in q])
        if step >= 3:
            total = sum(lam * abs(e) for lam, e in zip(lawson, errs))
            lawson = [lam * abs(e) * len(xs) / total for lam, e in zip(lawson, errs)]
    return best


def horner(coeffs: list[float], x: np.ndarray) -> np.ndarray:
    """The polynomial with ``coeffs``, lowest power first, by Horner's rule in doubles."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def main() -> None:
    err, num, den = fit(r_exact, 0.0, HI, 8, 9, nodes=120)
    print(f"# fit at 40 digits, max relative error on the nodes of [0, {HI}]: {mp.nstr(err, 3)}")

    t = np.linspace(0.0, HI, 8001)
    rounded = horner(num, t) / horner(den, t)
    exact = np.array([float(r_exact(mp.mpf(v))) for v in t])
    print(f"# R from the rounded coefficients, in doubles: max relative error "
          f"{np.max(np.abs(rounded / exact - 1)):.3e} against mpmath on {t.size} points of [0, {HI:g}]")
    try:
        from scipy.special import erfcx
    except ImportError:
        print("# scipy not installed: no erfcx cross-check")
    else:
        # t / sqrt 2 rounds once, which moves erfcx by about an ulp (its log-slope is near -1)
        gap = np.max(np.abs(0.5 * erfcx(t / np.sqrt(2.0)) / rounded - 1))
        print(f"# against scipy.special.erfcx(t / sqrt 2) / 2: max relative gap {gap:.3e}")
    for name, coeffs in (("_PHI_NUM", num), ("_PHI_DEN", den)):
        print(f"{name} = (")
        for c in coeffs[::-1]:
            print(f"    {c!r},")
        print(")")


if __name__ == "__main__":
    main()
