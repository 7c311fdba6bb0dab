import numpy as np
import pytest
from scipy.integrate import tanhsinh

from extropy import QuadratureSpec, WeibullParams, extropy
from extropy.errors import QuadratureFailure
from extropy.quadrature import _tanhsinh, integrate
from oracles import weibull_extropy


def test_known_integral():
    res = integrate(lambda x: np.exp(-x), 0.0, 50.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.abs_error < 1e-8
    assert res.subdivisions >= 1


def test_infinite_upper_limit():
    res = integrate(lambda x: np.exp(-x), 0.0, np.inf)
    assert isinstance(res.value, float)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_interior_break_points_handle_kinks():
    fn = lambda x: np.where((x >= 0.25) & (x <= 0.75), 1.0, 0.0)
    res = integrate(fn, 0.0, 1.0, points=[0.25, 0.75])
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.subdivisions == 3


def test_repeated_and_ulp_apart_break_points_merge():
    fn = lambda x: np.exp(-x)
    once = integrate(fn, 0.0, 3.0, points=[1.0, 2.0])
    repeated = integrate(fn, 0.0, 3.0, points=[2.0, 1.0, 2.0, 1.0, np.nextafter(1.0, 2.0)])
    assert once.subdivisions == repeated.subdivisions == 3
    assert repeated.value == once.value


def test_broadcast_limits_keep_their_shape():
    lo = np.array([[0.0], [1.0]])
    hi = np.array([[0.5, 2.0, 3.0]])
    rate = np.array([1.0, 2.0, 3.0])
    res = integrate(lambda x, r: r * np.exp(-r * x), lo, hi, points=[1.5], args=(rate,))
    assert res.value.shape == res.abs_error.shape == (2, 3)
    exact = np.exp(-rate * lo) - np.exp(-rate * np.maximum(hi, lo))
    assert np.allclose(res.value, exact, rtol=0.0, atol=1e-9)
    assert res.value[1, 0] == 0.0  # hi < lo integrates to nothing


def test_empty_interval_is_zero():
    res = integrate(np.ones_like, 2.0, 2.0)
    assert res.value == 0.0 and res.subdivisions == 0


def test_left_end_singularity_is_integrated_in_its_power():
    # tanh-sinh alone returns 49.99996 here and reports convergence; in
    # s = x^0.02 the integrand is the constant 50
    res = integrate(lambda x: x**-0.98, 0.0, 1.0, power=-0.98)
    tol = max(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * 50.0)
    assert res.value == pytest.approx(50.0, abs=tol)


def test_left_end_singularity_on_a_half_line():
    # s = sqrt(x) over [0, inf): int x^-1/2 e^-x = sqrt(pi)
    res = integrate(lambda x: np.exp(-x) / np.sqrt(x), 0.0, np.inf, power=-0.5)
    assert res.value == pytest.approx(np.sqrt(np.pi), abs=QuadratureSpec.abs_tol)


def test_left_end_singularity_needs_its_power():
    for power in (None, -1.0):
        with pytest.raises(QuadratureFailure, match="not finite at 0"):
            integrate(lambda x: x**-0.5, 0.0, 1.0, power=power)


@pytest.mark.parametrize("shape, scale", [(0.7, 2.0), (0.9, 2.0)])
def test_weibull_extropy_with_an_unbounded_density(shape, scale):
    # f ~ x^(shape - 1) at 0, so f^2 is singular at the left end of the first piece
    exact = weibull_extropy(shape, scale)
    value = extropy(WeibullParams(shape, scale)).value
    tol = max(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * abs(exact))
    assert value == pytest.approx(exact, abs=tol)


def test_weibull_extropy_near_half_shape():
    exact = weibull_extropy(0.503, 85.5)
    value = extropy(WeibullParams(0.503, 85.5)).value
    tol = max(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * abs(exact))
    assert value == pytest.approx(exact, abs=tol)


def test_failure_on_pathological_integrand():
    rng = np.random.default_rng(0)
    noisy = lambda x: rng.normal(size=np.shape(x))
    with pytest.raises(QuadratureFailure):
        integrate(noisy, 0.0, 1.0)


# --- the tanh-sinh rule against scipy.integrate.tanhsinh ----------------------


def _matches_scipy(fn, a, b, args=()):
    """Run the package's rule and scipy's on the same batch and compare them.

    Returns the package's converged mask.  Values and error estimates agree to
    within 1 ulp (NaN where scipy's are NaN); convergence agrees exactly.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    args = [np.asarray(arg, dtype=float) for arg in args]
    want = tanhsinh(fn, a, b, args=tuple(args),
                    atol=QuadratureSpec.abs_tol, rtol=QuadratureSpec.rel_tol)
    value, error, converged = _tanhsinh(fn, a, b, args)
    assert np.array_equal(converged, want.success)
    for got, ref in ((value, want.integral), (error, want.error)):
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        finite = ~np.isnan(ref)
        np.testing.assert_array_max_ulp(got[finite], ref[finite], maxulp=1)
    return converged


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_tanhsinh_matches_scipy_on_finite_pieces_and_tails(scale):
    # exponential and Weibull(2) densities cut at their quartiles, plus the tail
    rate = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0]) / scale
    cuts = np.array([0.0, 0.29, 0.69, 1.39]) * scale
    a = np.concatenate((cuts, cuts[1:3]))
    b = np.concatenate((cuts[1:], [np.inf], [np.inf, 5.0 * scale]))
    expo = lambda x, r: r * np.exp(-r * x)
    weib = lambda x, r: 2.0 * r * (r * x) * np.exp(-((r * x) ** 2))
    for fn in (expo, weib, lambda x, r: expo(x, r) ** 2):
        assert _matches_scipy(fn, a, b, (rate,)).all()


def test_tanhsinh_matches_scipy_where_a_node_rounds_onto_a_limit():
    # the outermost nodes round onto b = 1, where the integrand is infinite;
    # they get zero weight and the sum takes the nearest finite value instead
    seen = []

    def fn(x):
        seen.append(np.any(x == 1.0))
        return (1.0 - x) ** -0.5

    assert _matches_scipy(fn, [0.0], [1.0]).all()
    assert any(seen)


def test_tanhsinh_matches_scipy_with_a_non_finite_interior_node():
    # x = 0.5 is a level-0 node of [0, 1]; its infinite value is replaced
    fn = lambda x: np.where(x == 0.5, np.inf, x * x)
    _matches_scipy(fn, [0.0, 0.0], [1.0, 2.0])
    # a NaN at the midpoint fails the element before the first level
    fn = lambda x: np.where(x == 0.5, np.nan, x * x)
    converged = _matches_scipy(fn, [0.0, 0.0], [1.0, 2.0])
    assert converged.tolist() == [False, True]


def test_tanhsinh_exhausting_level_ten_raises():
    # sin(1/x)/x oscillates faster than level 10 resolves near 1e-4
    fn = lambda x: np.sin(1.0 / x) / x
    assert not _matches_scipy(fn, [1e-4], [1.0]).any()
    with pytest.raises(QuadratureFailure):
        integrate(fn, 1e-4, 1.0)
