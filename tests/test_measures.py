import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import (
    ExponentialParams,
    PerturbationQuery,
    QuadratureSpec,
    UniformParams,
    WeibullParams,
    compare_static_ordering,
    decompose_relative,
    extropy,
    extropy_divergence,
    extropy_inaccuracy,
    perturbation_approx,
    past_extropy,
    past_inaccuracy,
    relative_extropy,
    residual_extropy,
    residual_inaccuracy,
)
from extropy.errors import InvalidParameter
from oracles import rel_extropy_trap

rates = st.floats(min_value=0.3, max_value=4.0)
shapes = st.floats(min_value=0.8, max_value=3.0)
scales = st.floats(min_value=0.5, max_value=3.0)

TOL10 = 10 * QuadratureSpec.abs_tol


def _weib_pdf(k, s):
    return lambda x: np.where(x > 0, (k / s) * (x / s) ** (k - 1) * np.exp(-((x / s) ** k)), 0.0)


# --- extropy ---------------------------------------------------------------


def test_extropy_exponential_2(exp2):
    assert extropy(exp2).value == pytest.approx(-0.5, abs=1e-9)


def test_extropy_uniform(unif01):
    assert extropy(unif01).value == pytest.approx(-0.5, abs=1e-12)


def test_extropy_weibull_against_trapezoid_oracle(weib21):
    pdf = _weib_pdf(2.0, 1.0)
    oracle = -0.5 * np.trapezoid(pdf(np.linspace(0, 8, 800_001)) ** 2, np.linspace(0, 8, 800_001))
    assert oracle == pytest.approx(-0.31332853432887503, abs=1e-10)  # frozen
    assert extropy(weib21).value == pytest.approx(oracle, abs=1e-8)


def test_extropy_never_positive(exp1, exp2, weib21, unif01):
    for m in (exp1, exp2, weib21, unif01):
        assert extropy(m).value <= 0.0


# --- inaccuracy ------------------------------------------------------------


def test_inaccuracy_identical_is_extropy(exp1):
    assert extropy_inaccuracy(exp1, exp1).value == pytest.approx(-0.25, abs=1e-9)


def test_inaccuracy_exp_pair(exp1, exp2):
    assert extropy_inaccuracy(exp1, exp2).value == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_inaccuracy_disjoint_supports_flagged():
    a = UniformParams(0.0, 1.0)
    b = UniformParams(2.0, 3.0)
    report = extropy_inaccuracy(a, b)
    assert report.value == 0.0
    assert "disjoint_supports" in report.warnings
    # the residual and past windows report it too, as +0.0
    for report in (residual_inaccuracy(a, b, 0.5), past_inaccuracy(a, b, 2.5)):
        assert report.value == 0.0 and np.copysign(1.0, report.value) == 1.0
        assert report.warnings == ("disjoint_supports",)


def test_divergent_weibull_forms_raise_before_integrating():
    # shape <= 1/2: int f^2 diverges at 0; quadrature once returned +0.621 for J(X)
    w, e = WeibullParams(0.467, 3.24), ExponentialParams(1.0)
    w4 = WeibullParams(0.4, 1.0)
    divergent = [
        lambda: extropy(w),
        lambda: relative_extropy(w, e),
        lambda: relative_extropy(e, w),
        lambda: extropy_divergence(w, e),
        lambda: extropy_inaccuracy(w4, w4),
        lambda: past_extropy(w, 1.0),
        lambda: residual_extropy(w, 0.0),
    ]
    for measure in divergent:
        with pytest.raises(InvalidParameter, match="diverges"):
            measure()
    # windows that stop short of 0, and forms with no square of that density, stay finite
    assert residual_extropy(w4, 1.0).value == pytest.approx(-0.0629046, abs=1e-7)
    assert extropy_divergence(e, w).value == pytest.approx(0.0589968, abs=1e-7)


# --- relative extropy -------------------------------------------------------


def test_relative_extropy_table_values(exp1, exp2):
    assert relative_extropy(exp1, exp2).value == pytest.approx(0.0833, abs=5e-5)
    e2 = ExponentialParams(2.0)
    e5 = ExponentialParams(5.0)
    assert relative_extropy(e2, e5).value == pytest.approx(0.32143, abs=5e-6)


def test_relative_extropy_identical_zero(weib21):
    assert relative_extropy(weib21, weib21).value == pytest.approx(0.0, abs=1e-12)


def test_relative_extropy_weibull_table3(weib_15_2, weib_2_3):
    # shape/scale parametrization reproduces the published 0.03414;
    # the oracle value 0.0341400089 is frozen from an 800k-point trapezoid
    oracle = rel_extropy_trap(_weib_pdf(1.5, 2.0), _weib_pdf(2.0, 3.0), 1e-12, 40.0)
    assert oracle == pytest.approx(0.0341400089, abs=1e-8)
    value = relative_extropy(weib_15_2, weib_2_3).value
    assert value == pytest.approx(oracle, abs=1e-6)
    assert value == pytest.approx(0.03414, abs=5e-6)


# --- divergence and the split identity ---------------------------------------


def test_divergence_self_zero(weib21):
    assert extropy_divergence(weib21, weib21).value == pytest.approx(0.0, abs=1e-12)


def test_divergence_exponential_values(exp1, exp2):
    assert extropy_divergence(exp1, exp2).value == pytest.approx(-1.0 / 12.0, abs=1e-9)
    assert extropy_divergence(exp2, exp1).value == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_decompose_exponential(exp1, exp2):
    fg, gf, d = decompose_relative(exp1, exp2)
    assert fg == pytest.approx(-1.0 / 12.0, abs=1e-9)
    assert gf == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert d == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert abs(fg + gf - d) <= TOL10


def test_decompose_identical(exp1):
    fg, gf, d = decompose_relative(exp1, exp1)
    assert (fg, gf, d) == (pytest.approx(0, abs=1e-12),) * 3


@settings(max_examples=25, deadline=None)
@given(rates, rates, shapes, scales)
def test_identities_random_pairs(l1, l2, k, s):
    mx = ExponentialParams(l1) if l1 < l2 else WeibullParams(k, s)
    my = ExponentialParams(l2)
    fg, gf, d = decompose_relative(mx, my)
    assert abs(fg + gf - d) <= TOL10
    xi = extropy_inaccuracy(mx, my).value
    jx = extropy(mx).value
    jy = extropy(my).value
    assert d == pytest.approx(2 * xi - jx - jy, abs=TOL10)
    assert d >= -TOL10
    assert relative_extropy(my, mx).value == pytest.approx(d, abs=TOL10)


# --- perturbation approximation ----------------------------------------------


def test_perturbation_exponential():
    pq = PerturbationQuery(family="exponential", theta=2.0, delta_theta=0.01)
    approx, exact = perturbation_approx(pq)
    closed = 0.01**2 / (4.0 * (2 * 2.0 + 0.01))  # exact two-exponential form
    assert exact == pytest.approx(closed, rel=1e-6)
    assert approx == pytest.approx(exact, rel=0.01)


def test_perturbation_zero_delta():
    pq = PerturbationQuery(family="exponential", theta=1.5, delta_theta=0.0)
    approx, exact = perturbation_approx(pq)
    assert approx == 0.0
    assert exact == pytest.approx(0.0, abs=1e-10)


def test_perturbation_limit_constant():
    # exact / (delta^2 / (8 lambda)) -> 1; the often-quoted (delta^2 / (4 lambda))
    # is off by the factor two this ratio exposes
    lam = 2.0
    for delta in (0.01, 0.005):
        pq = PerturbationQuery(family="exponential", theta=lam, delta_theta=delta)
        _, exact = perturbation_approx(pq)
        ratio = exact / (delta**2 / (8.0 * lam))
        assert ratio == pytest.approx(1.0, abs=0.01)
        bad_ratio = exact / (delta**2 / (4.0 * lam))
        assert abs(bad_ratio - 1.0) > 0.4


def test_perturbation_x_derivative_reading_differs():
    pq = PerturbationQuery(family="exponential", theta=2.0, delta_theta=0.01)
    approx_theta, exact = perturbation_approx(pq, derivative="theta")
    approx_x, _ = perturbation_approx(pq, derivative="x")
    assert approx_theta == pytest.approx(exact, rel=0.01)
    assert approx_x > 10 * exact  # integrand (df/dx)^2 is not the Taylor term


def test_perturbation_domain_guard():
    pq = PerturbationQuery(family="exponential", theta=0.005, delta_theta=-0.01)
    with pytest.raises(InvalidParameter):
        perturbation_approx(pq)


def test_perturbation_weibull_shape_slice():
    pq = PerturbationQuery(family="weibull-shape", theta=2.0, delta_theta=0.02, fixed=1.0)
    approx, exact = perturbation_approx(pq)
    assert approx == pytest.approx(exact, rel=0.05)


# --- orderings ----------------------------------------------------------------


def test_static_ordering_exponential(exp1, exp2):
    v = compare_static_ordering(exp1, exp2)
    assert v.extropy_x == pytest.approx(-0.25, abs=1e-9)
    assert v.extropy_y == pytest.approx(-0.5, abs=1e-9)
    assert v.extropy_relation == ">"  # J(X) > J(Y): X exceeds Y in extropy order
    assert v.divergence_relation == "<"
    assert abs(v.identity_gap) <= TOL10
    assert v.consistent
    assert "divergence_gf_positive:True" in v.implications


def test_static_ordering_ties(weib21):
    v = compare_static_ordering(weib21, weib21)
    assert v.extropy_relation == "=" and v.divergence_relation == "="
    assert v.consistent


@settings(max_examples=20, deadline=None)
@given(rates, rates)
def test_ordering_identity_random(l1, l2):
    v = compare_static_ordering(ExponentialParams(l1), ExponentialParams(l2))
    assert abs(v.identity_gap) <= TOL10
    assert v.consistent


def test_additive_extropy_corollary():
    # measure c = J(Y) - J(X) from computed extropies; the identity
    # J(f|g) - J(g|f) = J(Y) - J(X) then gives the consistent additive forms
    # J(g|f) = J(f|g) - c and d = 2 J(f|g) - c = 2 J(g|f) + c
    rng = np.random.default_rng(5)
    for _ in range(10):
        mx = ExponentialParams(float(rng.uniform(0.5, 3.0)))
        my = WeibullParams(float(rng.uniform(1.0, 2.5)), float(rng.uniform(0.5, 2.0)))
        c = extropy(my).value - extropy(mx).value
        fg, gf, d = decompose_relative(mx, my)
        assert gf == pytest.approx(fg - c, abs=TOL10)
        assert d == pytest.approx(2 * fg - c, abs=TOL10)
        assert d == pytest.approx(2 * gf + c, abs=TOL10)


def test_extropy_rejects_negative_density():
    from extropy.errors import InvalidModel

    class NegatedExponential(ExponentialParams):
        def pdf(self, x):
            return -np.asarray(super().pdf(x), dtype=float)

    with pytest.raises(InvalidModel):
        extropy(NegatedExponential(1.0))
