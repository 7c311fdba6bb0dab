import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import (
    ConstantReversedHazardParams,
    ExponentialParams,
    QuadratureSpec,
    TimeGrid,
    UniformParams,
    WeibullParams,
    bound_checks,
    constancy_detector,
    dynamic_orderings,
    dynamic_profile,
    extropy,
    extropy_inaccuracy,
    global_decompositions,
    hazard_repr_inaccuracy,
    hazard_repr_relative,
    ode_check_divergence,
    ode_check_relative,
    past_divergence,
    past_extropy,
    past_inaccuracy,
    past_relative,
    residual_divergence,
    residual_extropy,
    residual_inaccuracy,
    residual_relative,
    sum_rules,
)
from extropy.errors import DenominatorUnderflow, InsufficientGrid, InvalidModel, InvalidParameter
from oracles import (
    closed_form_relative_exponential,
    crh_past_measures,
    exponential_inaccuracy,
    residual_relative_trap,
)

rates = st.floats(min_value=0.4, max_value=3.0)

TOL10 = 10 * QuadratureSpec.abs_tol
GRID = TimeGrid(points=tuple(np.linspace(0.1, 1.0, 10)))


# --- residual measures -------------------------------------------------------


def test_residual_extropy_exponential_constant(exp2):
    for t in (0.0, 0.5, 1.3, 3.0):
        assert residual_extropy(exp2, t).value == pytest.approx(-0.5, abs=1e-9)


def test_residual_extropy_at_zero_is_static(weib21):
    assert residual_extropy(weib21, 0.0).value == pytest.approx(extropy(weib21).value, abs=1e-10)


def test_residual_extropy_weibull_oracle(weib21):
    # frozen from the trapezoid oracle over [0.5, 8]
    assert residual_extropy(weib21, 0.5).value == pytest.approx(-0.4139198856035279, abs=1e-8)


def test_residual_inaccuracy_reduces_to_extropy(weib21):
    t = 0.4
    assert residual_inaccuracy(weib21, weib21, t).value == pytest.approx(
        residual_extropy(weib21, t).value, abs=1e-10
    )


def test_residual_inaccuracy_exponential_memoryless(exp1, exp2):
    assert residual_inaccuracy(exp1, exp2, 0.0).value == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert residual_inaccuracy(exp1, exp2, 0.7).value == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_residual_relative_exponential_constant(exp1, exp2):
    for t in (0.0, 0.25, 0.8, 2.0):
        assert residual_relative(exp1, exp2, t).value == pytest.approx(1.0 / 12.0, abs=1e-8)


def test_residual_relative_self_zero(weib21):
    assert residual_relative(weib21, weib21, 0.6).value == pytest.approx(0.0, abs=1e-12)


def test_residual_relative_exp_weibull_oracle(exp1, weib21):
    # frozen from the trapezoid oracle over [0.3, 12]
    assert residual_relative(exp1, weib21, 0.3).value == pytest.approx(0.039211065856, abs=1e-7)
    # recompute the oracle here to guard against drift
    oracle = residual_relative_trap(
        lambda x: np.exp(-x),
        lambda t: math.exp(-t),
        lambda x: np.where(x > 0, 2 * x * np.exp(-(x**2)), 0.0),
        lambda t: math.exp(-(t**2)),
        0.3,
        12.0,
    )
    assert oracle == pytest.approx(0.039211065856, abs=1e-9)


def test_residual_divergence_values(exp1, exp2, weib21):
    assert residual_divergence(weib21, weib21, 0.5).value == pytest.approx(0.0, abs=1e-12)
    for t in (0.0, 0.6, 1.5):
        assert residual_divergence(exp1, exp2, t).value == pytest.approx(-1.0 / 12.0, abs=1e-9)
        assert residual_divergence(exp2, exp1, t).value == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_residual_divergence_inaccuracy_identity(exp1, weib21):
    for t in (0.2, 0.7):
        fg = residual_divergence(exp1, weib21, t).value
        xi = residual_inaccuracy(exp1, weib21, t).value
        jtx = residual_extropy(exp1, t).value
        assert fg == pytest.approx(xi - jtx, abs=TOL10)


def test_residual_denominator_underflow(exp2):
    with pytest.raises(DenominatorUnderflow):
        residual_extropy(exp2, 60.0)


_EXP_1 = ExponentialParams(1.0)
_EXP_HALF = ExponentialParams(0.5)
_UNIF_01 = UniformParams(0.0, 1.0)
_CONDITIONAL = {
    "residual_extropy": lambda t: residual_extropy(_EXP_1, t),
    "residual_inaccuracy": lambda t: residual_inaccuracy(_EXP_1, _EXP_HALF, t),
    "residual_relative": lambda t: residual_relative(_EXP_1, _EXP_HALF, t),
    "residual_divergence": lambda t: residual_divergence(_EXP_1, _EXP_HALF, t),
    "past_extropy": lambda t: past_extropy(_UNIF_01, t),
}
_RESIDUAL_EXACT = {
    "residual_extropy": -1 / 4,
    "residual_inaccuracy": -1 / 6,
    "residual_relative": 1 / 24,
    "residual_divergence": 1 / 12,
}


@pytest.mark.parametrize(
    "name, t, exact",
    [(name, t, exact) for name, exact in _RESIDUAL_EXACT.items()
     for t in (0.0, 1.0, 5.0, 10.0, 15.0, 20.0, 22.0, 25.0, 27.0)]
    + [("past_extropy", t, -1 / (2 * t)) for t in (1.0, 0.5, 1e-3, 1e-6, 1e-9)],
)
def test_conditional_closed_forms_up_to_the_floor(name, t, exact):
    """Exp(1)/Exp(0.5) residual measures are constant in t up to S(27) = 1.9e-12,
    just above the denominator floor, and the past extropy of U(0, 1) is
    -1/(2t) down to t = 1e-9: the tail cut is taken in conditional units."""
    value = _CONDITIONAL[name](t).value
    assert abs(value - exact) <= TOL10 * max(1.0, abs(exact))


# --- past measures ------------------------------------------------------------


def test_past_extropy_uniform_full_window(unif01):
    assert past_extropy(unif01, 1.0).value == pytest.approx(-0.5, abs=1e-10)


def test_past_inaccuracy_uniform_pair(unif01):
    assert past_inaccuracy(unif01, unif01, 0.5).value == pytest.approx(-1.0, abs=1e-10)


def test_past_measures_limit_to_static(exp1, exp2):
    t = 25.0  # survival ~ 1e-11: past window is essentially everything
    assert past_extropy(exp1, t).value == pytest.approx(extropy(exp1).value, abs=1e-4)
    assert past_inaccuracy(exp1, exp2, t).value == pytest.approx(
        extropy_inaccuracy(exp1, exp2).value, abs=1e-4
    )


def test_past_relative_cases(exp1, exp2, weib21):
    assert past_relative(weib21, weib21, 0.7).value == pytest.approx(0.0, abs=1e-12)
    u1 = UniformParams(0.0, 1.0)
    u2 = UniformParams(0.0, 2.0)
    assert past_relative(u1, u2, 0.5).value == pytest.approx(0.0, abs=1e-12)
    # frozen from the trapezoid oracle over [0, 1]
    assert past_relative(exp1, exp2, 1.0).value == pytest.approx(0.0385097631050, abs=1e-8)


def test_past_divergence_cases(exp1, unif01):
    assert past_divergence(exp1, exp1, 0.9).value == pytest.approx(0.0, abs=1e-12)
    # a uniform first argument has a flat past density, so the directional
    # divergence integrates to exactly zero whatever the second argument is
    assert past_divergence(unif01, exp1, 0.5).value == pytest.approx(0.0, abs=1e-10)


def test_past_divergence_crh_matches_closed_form():
    px = ConstantReversedHazardParams(1.0, 2.0)
    py = ConstantReversedHazardParams(0.5, 2.0)
    _, _, div, _ = crh_past_measures(px, py, 1.0)
    assert past_divergence(px, py, 1.0).value == pytest.approx(
        div, abs=1e-8
    )


def test_past_denominator_underflow(exp1):
    with pytest.raises(DenominatorUnderflow):
        past_extropy(exp1, 0.0)


def test_past_sum_rule_and_triple_identity(exp1, exp2):
    t = 0.8
    d_p = past_relative(exp1, exp2, t).value
    fg = past_divergence(exp1, exp2, t).value
    gf = past_divergence(exp2, exp1, t).value
    assert fg + gf == pytest.approx(d_p, abs=TOL10)
    xi_p = past_inaccuracy(exp1, exp2, t).value
    jpx = past_extropy(exp1, t).value
    jpy = past_extropy(exp2, t).value
    assert d_p == pytest.approx(2 * xi_p - jpx - jpy, abs=TOL10)
    assert fg == pytest.approx(xi_p - jpx, abs=TOL10)


def test_atom_convention_validation(exp1):
    with pytest.raises(InvalidParameter):
        past_extropy(exp1, 0.5, atom_convention="bogus")


# --- hazard-rate representations ----------------------------------------------


def test_hazard_repr_inaccuracy_constant_hazard():
    lam, mu, t = 1.0, 2.0, 0.5
    value = hazard_repr_inaccuracy(lam, lambda x: mu, t, cumulative_hazard_y=lambda x: mu * x)
    assert value == pytest.approx(exponential_inaccuracy(lam, mu), abs=1e-10)


def test_hazard_repr_inaccuracy_weibull_crosscheck(exp1, weib21):
    value = hazard_repr_inaccuracy(
        1.0, lambda x: 2.0 * x, 0.4, cumulative_hazard_y=lambda x: x * x
    )
    assert value == pytest.approx(residual_inaccuracy(exp1, weib21, 0.4).value, abs=1e-4)


def test_hazard_repr_inaccuracy_t_zero_is_static(exp1, exp2):
    value = hazard_repr_inaccuracy(1.0, lambda x: 2.0, 0.0, cumulative_hazard_y=lambda x: 2.0 * x)
    assert value == pytest.approx(extropy_inaccuracy(exp1, exp2).value, abs=1e-9)


def test_hazard_repr_relative_constant_hazard():
    lam, mu = 1.0, 2.0
    value = hazard_repr_relative(lam, lambda x: mu, 0.3, cumulative_hazard_y=lambda x: mu * x)
    assert value == pytest.approx(closed_form_relative_exponential(lam, mu), abs=1e-10)
    same = hazard_repr_relative(lam, lambda x: lam, 0.3, cumulative_hazard_y=lambda x: lam * x)
    assert same == pytest.approx(0.0, abs=1e-10)


def test_hazard_repr_relative_weibull_crosscheck(exp1, weib21):
    value = hazard_repr_relative(1.0, lambda x: 2.0 * x, 0.4, cumulative_hazard_y=lambda x: x * x)
    assert value == pytest.approx(residual_relative(exp1, weib21, 0.4).value, abs=1e-4)


@pytest.mark.parametrize(
    "y, hazard, cumulative, t",
    [
        (WeibullParams(2.0, 1.0), lambda x: 2.0 * x, lambda x: x * x, 1.5),
        (WeibullParams(2.0, 1.0), lambda x: 2.0 * x, lambda x: x * x, 3.0),
        (WeibullParams(2.0, 1.0), lambda x: 2.0 * x, lambda x: x * x, 4.0),
        (ExponentialParams(2.0), lambda x: 2.0, lambda x: 2.0 * x, 0.4),
    ],
    ids=["weibull-t1.5", "weibull-t3", "weibull-t4", "exp2-t0.4"],
)
def test_hazard_repr_agrees_with_residual_measures_to_1e9(exp1, y, hazard, cumulative, t):
    # exp(2 H(t)) is 6.6e7 at t = 3 for H = x^2, and tanh-sinh misjudges its error on an unsplit
    # exponential tail: the hazard forms must run in conditional units, split on the laws' scale
    relative = hazard_repr_relative(1.0, hazard, t, cumulative_hazard_y=cumulative)
    inaccuracy = hazard_repr_inaccuracy(1.0, hazard, t, cumulative_hazard_y=cumulative)
    assert abs(relative - residual_relative(exp1, y, t).value) <= 1e-9
    assert abs(inaccuracy - residual_inaccuracy(exp1, y, t).value) <= 1e-9


def test_hazard_repr_negative_hazard_is_invalid_model():
    with pytest.raises(InvalidModel):
        hazard_repr_relative(1.0, lambda x: -2.0, 0.5, cumulative_hazard_y=lambda x: 2.0 * x)


def test_hazard_repr_inaccuracy_negative_density_is_invalid_model():
    # h_Y(x) = x - 1 is negative below 1, so the law's density is too; the
    # product form once integrated it to -0.0618 without a word
    with pytest.raises(InvalidModel, match="is negative"):
        hazard_repr_inaccuracy(1.0, lambda x: x - 1.0, 0.5, lambda x: x**2 / 2.0 - x)


def test_hazard_repr_underflowing_survival_raises():
    # e^(-H(15)) = e^(-30) = 9.4e-14 is below the denominator floor of 1e-12
    with pytest.raises(DenominatorUnderflow):
        hazard_repr_relative(1.0, lambda x: 2.0, 15.0, cumulative_hazard_y=lambda x: 2.0 * x)


# --- differential identities ----------------------------------------------------


def test_ode_relative_exponential_analytic(exp1, exp2):
    verdict = ode_check_relative(dynamic_profile(exp1, exp2, GRID))
    assert verdict.holds
    assert verdict.max_abs_residual <= 1e-6


def test_ode_relative_mixed_pairs(exp1, weib21, weib_15_2, weib_2_3):
    for pair in ((exp1, weib21), (weib_15_2, weib_2_3)):
        verdict = ode_check_relative(dynamic_profile(*pair, GRID))
        assert verdict.holds, verdict
        assert verdict.max_abs_residual <= 1e-3


def test_ode_relative_printed_form_documents_gap(exp1, exp2):
    # the (h_X + h_Y)^2 variant misses by exactly 2 h_X h_Y on exponentials
    verdict = ode_check_relative(dynamic_profile(exp1, exp2, GRID), form="printed")
    assert not verdict.holds
    assert verdict.max_abs_residual == pytest.approx(2.0 * 1.0 * 2.0, abs=1e-6)


def test_ode_relative_degenerate_pair(exp1):
    # f = g: corrected form has both sides zero; printed form reports 2 h^2
    profile = dynamic_profile(exp1, exp1, GRID)
    corrected = ode_check_relative(profile)
    assert corrected.holds
    assert corrected.max_abs_residual <= 1e-9
    printed = ode_check_relative(profile, form="printed")
    assert printed.max_abs_residual == pytest.approx(2.0, abs=1e-9)
    for _, lhs, rhs in printed.per_point:
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(-2.0, abs=1e-9)


def test_ode_divergence_exponential_analytic(exp1, exp2):
    verdict = ode_check_divergence(dynamic_profile(exp1, exp2, GRID))
    assert verdict.holds
    assert verdict.max_abs_residual <= 1e-6


def test_ode_divergence_pairs(exp1, weib_15_2, weib_2_3):
    assert ode_check_divergence(dynamic_profile(exp1, exp1, GRID)).max_abs_residual <= 1e-9
    verdict = ode_check_divergence(dynamic_profile(weib_15_2, weib_2_3, GRID))
    assert verdict.holds
    assert verdict.max_abs_residual <= 1e-3


def test_past_inaccuracy_ode():
    # xiJ_p' + xiJ_p (rh_X + rh_Y) = -rh_X rh_Y / 2, with reversed hazards;
    # exercised on constant-reversed-hazard models where rh is exactly a, c
    px = ConstantReversedHazardParams(1.0, 2.0)
    py = ConstantReversedHazardParams(0.5, 2.0)
    h = 1e-5
    for t in (0.5, 1.0, 1.5):
        xi = past_inaccuracy(px, py, t).value
        xi_prime = (
            past_inaccuracy(px, py, t + h).value - past_inaccuracy(px, py, t - h).value
        ) / (2 * h)
        assert xi_prime + xi * (1.0 + 0.5) == pytest.approx(-0.5 * 1.0 * 0.5, abs=1e-6)


# --- bounds ----------------------------------------------------------------------


def test_bounds_exponential_pair(exp1, exp2):
    lower, logd, equality = bound_checks(dynamic_profile(exp1, exp2, GRID))
    assert lower.kind == "bound_lower" and lower.hypothesis_met and lower.holds
    # d_r = 1/12 >= -1/12, the bound's right side for this pair
    assert lower.per_point[0][1] == pytest.approx(1.0 / 12.0, abs=1e-8)
    assert lower.per_point[0][2] == pytest.approx(-1.0 / 12.0, abs=1e-8)
    assert logd.kind == "bound_log_derivative" and logd.hypothesis_met and logd.holds
    assert equality.kind == "bound_equality" and not equality.holds


def test_bounds_identical_pair(exp1):
    lower, logd, _ = bound_checks(dynamic_profile(exp1, exp1, GRID))
    assert lower.holds  # d_r = 0 >= 0
    assert logd.hypothesis_met


def test_equality_case_forward_direction(exp1, exp2):
    # a synthetic d_r(t) = 1/(S_F S_G) satisfies d/dt log d_r = h_X + h_Y
    h = 1e-6
    for t in (0.3, 0.8):
        dr = lambda u: 1.0 / (float(exp1.survival(u)) * float(exp2.survival(u)))
        log_deriv = (math.log(dr(t + h)) - math.log(dr(t - h))) / (2 * h)
        assert log_deriv == pytest.approx(
            float(exp1.hazard(t)) + float(exp2.hazard(t)), abs=1e-6
        )


# --- constancy and characterizations ----------------------------------------------


def test_constancy_exponential_inaccuracy(exp1, exp2):
    values = [(t, residual_inaccuracy(exp1, exp2, t).value) for t in GRID.points]
    assert constancy_detector(values, tol=1e-6)


def test_constancy_falsified_for_weibull(exp1, weib21):
    values = [(t, residual_inaccuracy(exp1, weib21, t).value) for t in GRID.points]
    assert not constancy_detector(values, tol=1e-3)
    spread = max(v for _, v in values) - min(v for _, v in values)
    assert spread > 1e-3


def test_constancy_trivial_and_guard():
    assert constancy_detector([(0.1, 1.0), (0.2, 1.0), (0.3, 1.0)], tol=0.0)
    with pytest.raises(InsufficientGrid):
        constancy_detector([(0.1, 1.0), (0.2, 1.0)], tol=1.0)


def test_exponential_residual_divergence_constant(exp1, exp2):
    values = [(t, residual_divergence(exp1, exp2, t).value) for t in GRID.points]
    assert constancy_detector(values, tol=1e-8)


# --- dynamic orderings --------------------------------------------------------------


def test_dynamic_orderings_exponential(exp1, exp2):
    o = dynamic_orderings(dynamic_profile(exp1, exp2, GRID))
    # h_X = 1 < h_Y = 2, so X exceeds Y in the hazard-rate order
    assert o.hr == ">"
    assert o.rh == "<"
    assert o.rex == ">" and o.red == "<"
    assert o.pex == ">" and o.ped == "<"
    assert o.rex_red_equivalent and o.pex_ped_equivalent


def test_dynamic_orderings_ties(weib21):
    o = dynamic_orderings(dynamic_profile(weib21, weib21, GRID))
    assert o.rex == "=" and o.red == "="
    assert o.rex_red_equivalent and o.pex_ped_equivalent


def test_dynamic_orderings_weibull_pair(weib_15_2, weib_2_3):
    o = dynamic_orderings(dynamic_profile(weib_15_2, weib_2_3, GRID))
    assert o.rex_red_equivalent
    assert o.pex_ped_equivalent


def test_profile_orderings_read_density_only_past_values():
    # under "paper" the past series fold in the atoms; the orderings compare
    # the density-only ones, so both conventions give the same orderings
    mx = ConstantReversedHazardParams(1.0, 2.0, include_atom=True)
    my = ConstantReversedHazardParams(0.5, 2.0, include_atom=True)
    grid = TimeGrid(points=(0.5, 1.0, 1.5))
    ac, paper = (dynamic_profile(mx, my, grid, atom_convention=c) for c in ("ac", "paper"))
    assert paper.past_ac == ac.past_ac == (ac.jpx, ac.jpy, ac.jp_fg, ac.jp_gf)
    assert paper.jpx != ac.jpx
    assert dynamic_orderings(paper) == dynamic_orderings(ac)


# --- global decompositions ------------------------------------------------------------


def test_decomposition_degenerate_extropy_split(exp1):
    # f = g reduces (a) to J(X) = S^2 J_t(X) + F^2 J(_tX)
    t = 0.9
    sf = float(exp1.survival(t))
    cd = float(exp1.cdf(t))
    lhs = extropy(exp1).value
    rhs = sf**2 * residual_extropy(exp1, t).value + cd**2 * past_extropy(exp1, t).value
    assert lhs == pytest.approx(rhs, abs=1e-9)
    verdict = global_decompositions(dynamic_profile(exp1, exp1, TimeGrid((t,))))
    assert verdict.holds
    assert verdict.max_abs_residual <= 10 * QuadratureSpec.abs_tol  # far inside the fixed 1e-6


def test_decompositions_exponential_tight(exp1, exp2):
    profile = dynamic_profile(exp1, exp2, GRID)
    assert profile.decomposition_points == GRID.points[::2]
    verdict = global_decompositions(profile)
    # rows (a), (b), (c) at each decomposition point
    assert [row[0] for row in verdict.per_point] == [t for t in GRID.points[::2] for _ in range(3)]
    assert verdict.holds
    assert verdict.max_abs_residual <= 1e-8


def test_decompositions_mixed_pairs(exp1, weib_15_2):
    profile = dynamic_profile(weib_15_2, exp1, TimeGrid((0.4, 1.0, 1.6)))
    verdict = global_decompositions(profile)
    assert len(verdict.per_point) == 9
    assert verdict.holds
    assert verdict.max_abs_residual <= 1e-6


def test_decomposition_unweighted_variant_fails(exp1, exp2):
    # the unweighted third term misses badly; its residual is reported in note
    verdict = global_decompositions(dynamic_profile(exp1, exp2, TimeGrid((0.7,))))
    resid = float(verdict.note.split("=")[1])
    assert resid > 1e-2


def test_sum_rules_residual_rows_then_past(exp1, weib21):
    profile = dynamic_profile(exp1, weib21, GRID)
    v = sum_rules(profile)
    assert v.holds and v.tolerance == TOL10
    assert [t for t, _, _ in v.per_point] == list(GRID.points) * 2
    assert [d for _, _, d in v.per_point] == list(profile.d_r + profile.d_p)


@pytest.mark.parametrize("points", [(0.0, 0.5), (0.5, 60.0)])
def test_profile_needs_every_survival_and_cdf_above_the_floor(exp1, exp2, points):
    # the profile holds past series, which condition on F(t), G(t), and
    # residual ones, which condition on S_F(t), S_G(t)
    with pytest.raises(InsufficientGrid, match="denominator floor"):
        dynamic_profile(exp1, exp2, TimeGrid(points=points))


# --- spec invariants -------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(rates, rates, st.floats(min_value=0.1, max_value=1.2))
def test_sum_rule_random(l1, l2, t):
    mx, my = ExponentialParams(l1), WeibullParams(1.0 + l2 / 3.0, 1.0)
    d_r = residual_relative(mx, my, t).value
    assert d_r >= -TOL10
    s = residual_divergence(mx, my, t).value + residual_divergence(my, mx, t).value
    assert s == pytest.approx(d_r, abs=TOL10)


def test_exponential_t_invariance(exp1, exp2):
    for fn in (
        lambda t: residual_relative(exp1, exp2, t).value,
        lambda t: residual_inaccuracy(exp1, exp2, t).value,
        lambda t: residual_divergence(exp1, exp2, t).value,
        lambda t: residual_extropy(exp1, t).value,
    ):
        values = [fn(t) for t in GRID.points]
        assert max(values) - min(values) <= 1e-8


def test_strict_monotonicity_on_verified_pair():
    # hypotheses: strictly decreasing densities and h_Y > h_X on the grid
    mx = WeibullParams(0.9, 2.0)
    my = ExponentialParams(2.0)
    ts = np.linspace(0.2, 1.0, 9)
    assert all(float(my.hazard(t)) > float(mx.hazard(t)) for t in ts)
    values = [residual_relative(mx, my, t).value for t in ts]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_strict_monotonicity_fails_for_exponentials(exp1, exp2):
    # the same hypotheses hold for Exp(1) vs Exp(2) yet d_r stays constant,
    # so monotonicity cannot be asserted as a universal law
    values = [residual_relative(exp1, exp2, t).value for t in GRID.points]
    assert max(values) - min(values) <= 1e-8


def test_monotonicity_counterexample_decreasing():
    # hypotheses hold (h_Y in [0.8, 1.02] > h_X = 0.5, both densities strictly
    # decreasing) while d_r strictly decreases
    mx = ExponentialParams(0.5)
    my = WeibullParams(0.8, 1.0)
    ts = np.linspace(0.3, 1.0, 8)
    assert all(float(my.hazard(t)) > float(mx.hazard(t)) for t in ts)
    values = [residual_relative(mx, my, t).value for t in ts]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_boundary_consistency(exp1, exp2, weib21):
    assert residual_relative(exp1, weib21, 0.0).value == pytest.approx(
        float(__import__("extropy").relative_extropy(exp1, weib21).value), abs=1e-9
    )
    t_large = 25.0
    assert past_relative(exp1, exp2, t_large).value == pytest.approx(
        float(__import__("extropy").relative_extropy(exp1, exp2).value), abs=1e-4
    )


def test_time_grid_validation():
    with pytest.raises(InvalidParameter):
        TimeGrid(points=(0.5, 0.5))
    with pytest.raises(InsufficientGrid):
        TimeGrid(points=())
    assert TimeGrid(points=(0.1, 1.1)).step() == pytest.approx(1e-4)
