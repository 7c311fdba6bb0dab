import math

import numpy as np
import pytest

from extropy import QuadratureSpec
from extropy.errors import QuadratureFailure
from extropy.quadrature import integrate, truncation_point


def test_known_integral():
    q = QuadratureSpec()
    res = integrate(lambda x: math.exp(-x), 0.0, 50.0, q)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.abs_error < 1e-8
    assert res.subdivisions >= 1


def test_interior_break_points_handle_kinks():
    q = QuadratureSpec()
    fn = lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0
    res = integrate(fn, 0.0, 1.0, q, points=[0.25, 0.75])
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_empty_interval_is_zero():
    q = QuadratureSpec()
    res = integrate(lambda x: 1.0, 2.0, 2.0, q)
    assert res.value == 0.0 and res.subdivisions == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(denominator_floor=-1.0)


def test_truncation_tail_below_tolerance():
    q = QuadratureSpec()
    sf = lambda x: np.exp(-2.0 * x)
    pdf = lambda x: 2.0 * np.exp(-2.0 * x)
    t = truncation_point([sf], [pdf], 0.0, q)
    # discarded tail of the squared density is below abs_tol
    tail = integrate(lambda x: pdf(x) ** 2, t, t + 50.0, q).value
    assert tail < q.abs_tol


def test_truncation_gives_up_on_fat_tails():
    q = QuadratureSpec(truncation_max=1e4)
    sf = lambda x: 1.0 / (1.0 + x) ** 0.25
    pdf = lambda x: 0.25 / (1.0 + x) ** 1.25
    with pytest.raises(QuadratureFailure):
        truncation_point([sf], [pdf], 0.0, q)


def test_failure_on_pathological_integrand():
    q = QuadratureSpec(max_subdivisions=3, abs_tol=1e-13, rel_tol=1e-13)
    rng = np.random.default_rng(0)
    noisy = lambda x: float(rng.normal())
    with pytest.raises(QuadratureFailure):
        integrate(noisy, 0.0, 1.0, q)
