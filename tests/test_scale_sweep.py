"""Measures against closed forms over log-uniform scales, far from scale 1.

Every value must match to 10 max(abs_tol, rel_tol |exact|) or raise a typed
error; a silently wrong number fails.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extropy import (
    ConstantReversedHazardParams,
    ExponentialParams,
    QuadratureSpec,
    UniformParams,
    WeibullParams,
    extropy,
    relative_extropy,
)
from extropy.dynamic import (
    past_divergence,
    past_extropy,
    past_inaccuracy,
    past_relative,
    residual_extropy,
    residual_inaccuracy,
    residual_relative,
)
from extropy.errors import ExtropyError
from oracles import (
    closed_form_relative_exponential,
    crh_past_measures,
    exponential_extropy,
    exponential_inaccuracy,
    weibull_extropy,
)


def log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0**e)


def assert_matches(measure, exact):
    try:
        value = measure().value
    except ExtropyError:
        return  # a typed refusal is allowed; a wrong number is not
    tol = 10.0 * max(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * abs(exact))
    assert abs(value - exact) <= tol, (value, exact)


@settings(max_examples=60, deadline=None)
@given(
    log_uniform(-8, 8), log_uniform(-8, 8), st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=25.0),
)
def test_exponential_measures_at_any_rate(r1, r2, frac, far):
    mx, my = ExponentialParams(r1), ExponentialParams(r2)
    t = frac / max(r1, r2)
    relative = closed_form_relative_exponential(r1, r2)
    assert_matches(lambda: extropy(mx), exponential_extropy(r1))
    # survival down to e^-25, beyond the 1 - 1e-6 quantile
    assert_matches(lambda: residual_extropy(mx, far / r1), exponential_extropy(r1))
    assert_matches(lambda: relative_extropy(mx, my), relative)
    assert_matches(lambda: residual_relative(mx, my, t), relative)
    assert_matches(lambda: residual_inaccuracy(mx, my, t), exponential_inaccuracy(r1, r2))


near_half = st.floats(min_value=0.5, max_value=0.52, exclude_min=True)
shapes = st.one_of(
    near_half, st.floats(min_value=math.log10(0.5), max_value=2.0).map(lambda e: 10.0**e)
)


@settings(max_examples=60, deadline=None)
@given(shapes, log_uniform(-3, 3))
def test_weibull_extropy_at_any_scale(shape, scale):
    assume(shape > 0.5)
    model = WeibullParams(shape, scale)
    assert_matches(lambda: extropy(model), weibull_extropy(shape, scale))


@settings(max_examples=40, deadline=None)
@given(
    log_uniform(-3, 3), log_uniform(-3, 3), log_uniform(-2, 1.3), log_uniform(-2, 1.3),
    st.floats(min_value=0.05, max_value=1.0), st.booleans(),
)
def test_crh_past_measures_at_any_scale(b1, b2, ab1, ab2, frac, atom):
    px = ConstantReversedHazardParams(ab1 / b1, b1, include_atom=atom)
    py = ConstantReversedHazardParams(ab2 / b2, b2, include_atom=atom)
    t = frac * min(b1, b2)
    conv = "paper" if atom else "ac"
    jx, xi, divergence, relative = crh_past_measures(px, py, t, include_atom=atom)
    assert_matches(lambda: past_extropy(px, t, conv), jx)
    assert_matches(lambda: past_inaccuracy(px, py, t, conv), xi)
    assert_matches(lambda: past_divergence(px, py, t, conv), divergence)
    assert_matches(lambda: past_relative(px, py, t, conv), relative)


@settings(max_examples=40, deadline=None)
@given(
    log_uniform(-3, 3), log_uniform(-3, 3), st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=0.01, max_value=1.0),
)
def test_uniform_past_measures_at_any_scale(w1, w2, c1, c2, frac):
    l1 = c1 * w1
    l2 = l1 + c2 * w1
    lo, hi = max(l1, l2), min(l1 + w1, l2 + w2)
    assume(hi > lo)
    t = lo + frac * (hi - lo)
    mx, my = UniformParams(l1, l1 + w1), UniformParams(l2, l2 + w2)
    # past densities are 1/(t - l) on (l, t]; they overlap on (lo, t]
    jx, jy = -0.5 / (t - l1), -0.5 / (t - l2)
    xi = -0.5 * (t - lo) / ((t - l1) * (t - l2))
    assert_matches(lambda: past_extropy(mx, t), jx)
    assert_matches(lambda: past_inaccuracy(mx, my, t), xi)
    assert_matches(lambda: past_relative(mx, my, t), 2.0 * xi - jx - jy)


def test_wide_exponential_pair_is_not_silently_truncated():
    mx, my = ExponentialParams(0.001), ExponentialParams(1.0)
    value = relative_extropy(mx, my).value
    assert value == pytest.approx(closed_form_relative_exponential(0.001, 1.0), abs=1e-9)
