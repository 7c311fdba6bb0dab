import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import (
    ConstantReversedHazardParams,
    ExponentialParams,
    QuadratureSpec,
    SeededSampler,
    UniformParams,
    WeibullParams,
    extropy,
    extropy_inaccuracy,
    relative_extropy,
    sample,
    validate_model,
)
from extropy.distributions import parse_family
from extropy.dynamic import past_divergence, past_extropy, past_inaccuracy, past_relative
from extropy.errors import InvalidParameter
from extropy.quadrature import integrate
from oracles import (
    closed_form_relative_exponential,
    crh_hazards,
    crh_past_measures,
    exponential_extropy,
    exponential_hazards,
    exponential_inaccuracy,
    exponential_past_extropy,
    uniform_hazards,
    weibull_extropy,
    weibull_hazards,
)

rates = st.floats(min_value=0.3, max_value=4.0)
shapes = st.floats(min_value=0.8, max_value=3.0)
scales = st.floats(min_value=0.5, max_value=3.0)


@pytest.mark.parametrize(
    "params",
    [
        ExponentialParams(2.0),
        WeibullParams(2.0, 1.0),
        WeibullParams(0.9, 2.0),
        UniformParams(0.5, 2.0),
        ConstantReversedHazardParams(1.0, 2.0, include_atom=True),
    ],
)
def test_model_invariants(params):
    validate_model(params)


def test_parameter_validation():
    for bad in (lambda: ExponentialParams(0.0), lambda: WeibullParams(-1, 1),
                lambda: UniformParams(1, 1), lambda: ConstantReversedHazardParams(0, 1)):
        with pytest.raises(InvalidParameter):
            bad()


@pytest.mark.parametrize("build", [
    lambda v: ExponentialParams(v),
    lambda v: WeibullParams(v, 1.0),
    lambda v: WeibullParams(2.0, v),
    lambda v: UniformParams(0.0, v),
    lambda v: UniformParams(-v, 0.0),
    lambda v: ConstantReversedHazardParams(v, 1.0),
    lambda v: ConstantReversedHazardParams(1.0, v),
], ids=["exp-rate", "weibull-shape", "weibull-scale", "uniform-hi", "uniform-lo", "crh-a", "crh-b"])
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_parameters_are_rejected(build, value):
    with pytest.raises(InvalidParameter):
        build(value)


def test_exact_hazards():
    m = ExponentialParams(2.0)
    assert float(m.hazard(0.3)) == 2.0
    assert float(m.hazard(5.0)) == 2.0

    crh = ConstantReversedHazardParams(1.5, 2.0)
    xs = np.linspace(0.1, 2.0, 7)
    assert np.allclose(np.asarray(crh.reversed_hazard(xs)), 1.5)

    w = WeibullParams(2.0, 1.0)
    xs = np.linspace(0.05, 3.0, 9)
    assert np.allclose(np.asarray(w.hazard(xs)), 2.0 * xs)
    # h * survival = pdf, checked numerically
    assert np.allclose(
        np.asarray(w.hazard(xs)) * np.asarray(w.survival(xs)), np.asarray(w.pdf(xs))
    )


@pytest.mark.parametrize(
    "model, reference",
    [
        (ExponentialParams(2.0), lambda x: exponential_hazards(2.0, x)),
        (WeibullParams(2.0, 1.0), lambda x: weibull_hazards(2.0, 1.0, x)),
        (WeibullParams(0.9, 2.0), lambda x: weibull_hazards(0.9, 2.0, x)),
        (UniformParams(0.5, 2.0), lambda x: uniform_hazards(0.5, 2.0, x)),
        (ConstantReversedHazardParams(1.5, 2.0), lambda x: crh_hazards(1.5, 2.0, x)),
        (ConstantReversedHazardParams(1.0, 2.0, include_atom=True),
         lambda x: crh_hazards(1.0, 2.0, x)),
    ],
    ids=["exp", "weibull-2", "weibull-0.9", "uniform", "crh", "crh-atom"],
)
def test_derived_hazards_match_closed_forms(model, reference):
    # quantiles from 1e-11 into both tails, kept where both conditioning
    # denominators clear the floor, strictly inside the support
    u = np.concatenate([np.geomspace(1e-11, 0.5, 60), 1.0 - np.geomspace(1e-11, 0.5, 60)])
    x = np.unique(model.quantile(u))
    sf, cdf = np.asarray(model.survival(x)), np.asarray(model.cdf(x))
    floor = QuadratureSpec.denominator_floor
    keep = (x > model.support[0]) & (x < model.support[1]) & (sf > floor) & (cdf > floor)
    x = x[keep]
    hazard, reversed_hazard = reference(x)
    # every survival and cdf is its own closed form, so both hazards are
    # within an ulp or so of theirs, into both tails
    eps = np.finfo(float).eps
    assert x.size > 50
    assert np.all(np.abs(np.asarray(model.hazard(x)) / hazard - 1.0) <= 2.0 * eps)
    assert np.all(np.abs(np.asarray(model.reversed_hazard(x)) / reversed_hazard - 1.0) <= 2.0 * eps)


def test_crh_mass_with_and_without_atom():
    p = ConstantReversedHazardParams(1.0, 2.0)
    mass = integrate(p.pdf, 0.0, 2.0).value
    assert mass == pytest.approx(1.0 - math.exp(-2.0), abs=1e-10)
    assert p.atom_at_lo == 0.0

    m_atom = ConstantReversedHazardParams(1.0, 2.0, include_atom=True)
    assert m_atom.atom_at_lo == pytest.approx(math.exp(-2.0))
    assert mass + m_atom.atom_at_lo == pytest.approx(1.0, abs=1e-10)
    assert float(m_atom.cdf(0.0)) == pytest.approx(m_atom.atom_at_lo)


# --- closed forms against quadrature --------------------------------------


def test_closed_form_relative_exponential_values():
    assert closed_form_relative_exponential(1.0, 2.0) == pytest.approx(1.0 / 12.0)
    assert closed_form_relative_exponential(1.0, 2.0) == pytest.approx(0.0833, abs=5e-5)
    assert closed_form_relative_exponential(2.0, 5.0) == pytest.approx(9.0 / 28.0)
    assert closed_form_relative_exponential(2.0, 5.0) == pytest.approx(0.32143, abs=5e-6)
    assert closed_form_relative_exponential(1.7, 1.7) == 0.0


@settings(max_examples=20, deadline=None)
@given(rates, rates)
def test_exponential_closed_forms_match_quadrature(l1, l2):
    m1, m2 = ExponentialParams(l1), ExponentialParams(l2)
    assert extropy(m1).value == pytest.approx(exponential_extropy(l1), abs=1e-8)
    assert extropy_inaccuracy(m1, m2).value == pytest.approx(
        exponential_inaccuracy(l1, l2), abs=1e-8
    )
    assert relative_extropy(m1, m2).value == pytest.approx(
        closed_form_relative_exponential(l1, l2), abs=1e-8
    )


@settings(max_examples=15, deadline=None)
@given(shapes, scales)
def test_weibull_extropy_closed_form(k, s):
    m = WeibullParams(k, s)
    assert extropy(m).value == pytest.approx(weibull_extropy(k, s), abs=1e-8)


def test_weibull_extropy_oracle_value():
    # frozen from the trapezoid oracle on [0, 8] (matches the gamma closed form)
    assert weibull_extropy(2.0, 1.0) == pytest.approx(-0.31332853432887503, abs=1e-12)


def test_exponential_past_extropy_closed_form():
    m = ExponentialParams(1.0)
    assert past_extropy(m, 2.0).value == pytest.approx(exponential_past_extropy(1.0, 2.0), abs=1e-9)
    assert exponential_past_extropy(1.0, 2.0) == pytest.approx(-0.3282588213748328, abs=1e-12)


# --- constant-reversed-hazard worked example -------------------------------


def test_crh_same_params_zero_relative():
    p = ConstantReversedHazardParams(1.3, 2.0)
    _, _, div, rel = crh_past_measures(p, p, 1.0)
    assert rel == 0.0
    assert div == 0.0


def test_crh_closed_forms_match_quadrature():
    px = ConstantReversedHazardParams(1.0, 2.0)
    py = ConstantReversedHazardParams(0.5, 2.0)
    t = 1.0
    jx, xi, div, rel = crh_past_measures(px, py, t)
    assert past_extropy(px, t).value == pytest.approx(jx, abs=1e-8)
    assert past_inaccuracy(px, py, t).value == pytest.approx(xi, abs=1e-8)
    assert past_relative(px, py, t).value == pytest.approx(rel, abs=1e-8)


def test_crh_atom_convention_reproduces_printed_bracket():
    a, b, t = 1.0, 2.0, 0.75
    px = ConstantReversedHazardParams(a, b, include_atom=True)
    jx, xi, _, _ = crh_past_measures(px, px, t, include_atom=True)
    expected_jx = (1.0 / (-2.0 * math.exp(2 * a * t))) * (1.0 + (a / 2.0) * (math.exp(2 * a * t) - 1.0))
    assert jx == pytest.approx(expected_jx, abs=1e-12)
    s = 2 * a
    expected_xi = -(1.0 / (2.0 * math.exp(s * t))) * (
        1.0 + (a * a / s) * (math.exp(s * t) - 1.0)
    )
    assert xi == pytest.approx(expected_xi, abs=1e-12)
    # atom convention agrees with the quadrature path fed the atom-bearing model
    assert past_extropy(px, t, atom_convention="paper").value == pytest.approx(jx, abs=1e-8)


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
def test_crh_atom_convention_all_past_measures(t):
    px = ConstantReversedHazardParams(1.0, 2.0, include_atom=True)
    py = ConstantReversedHazardParams(0.5, 2.0, include_atom=True)
    jx, xi, div, rel = crh_past_measures(px, py, t, include_atom=True)
    assert past_extropy(px, t, atom_convention="paper").value == pytest.approx(jx, abs=1e-8)
    assert past_inaccuracy(px, py, t, atom_convention="paper").value == pytest.approx(xi, abs=1e-8)
    assert past_divergence(px, py, t, atom_convention="paper").value == pytest.approx(div, abs=1e-8)
    assert past_relative(px, py, t, atom_convention="paper").value == pytest.approx(rel, abs=1e-8)


def test_crh_time_domain_guard():
    p = ConstantReversedHazardParams(1.0, 2.0)
    with pytest.raises(InvalidParameter):
        crh_past_measures(p, p, 2.5)


# --- sampling ---------------------------------------------------------------


def test_sampling_deterministic():
    p = WeibullParams(2.0, 3.0)
    s = SeededSampler(123)
    a = sample(p, 1000, s)
    b = sample(p, 1000, s)
    assert np.array_equal(a, b)
    c = sample(p, 1000, SeededSampler(124))
    assert not np.array_equal(a, c)
    # substreams are independent of how many siblings were drawn
    assert np.array_equal(sample(p, 50, s, substream=7), sample(p, 50, s, substream=7))


def test_sampling_law_of_large_numbers():
    p = ExponentialParams(1.0)
    values = sample(p, 100_000, SeededSampler(42))
    assert abs(values.mean() - 1.0) < 3.0 / math.sqrt(100_000)


def test_sampling_ks_distance():
    p = WeibullParams(2.0, 3.0)
    values = np.sort(sample(p, 100_000, SeededSampler(7)))
    grid = np.asarray(p.cdf(values))
    emp = np.arange(1, values.size + 1) / values.size
    assert np.max(np.abs(emp - grid)) < 0.01


@pytest.mark.parametrize(
    "params",
    [ExponentialParams(1.7), WeibullParams(1.5, 2.0), UniformParams(-1.0, 3.0),
     ConstantReversedHazardParams(2.0, 2.0, include_atom=True)],
)
def test_inverse_cdf_roundtrip(params):
    for u in np.linspace(0.1, 0.9, 9):
        x = float(params.quantile(u))
        assert float(params.cdf(x)) == pytest.approx(u, abs=1e-12)


# --- family parsing ---------------------------------------------------------


def test_parse_family_forms():
    assert parse_family("exp:rate=2") == ExponentialParams(2.0)
    assert parse_family("exponential:2") == ExponentialParams(2.0)
    assert parse_family("weibull:shape=1.5,scale=2") == WeibullParams(1.5, 2.0)
    assert parse_family("weib:1.5,2") == WeibullParams(1.5, 2.0)
    assert parse_family("uniform:lo=0,hi=1") == UniformParams(0.0, 1.0)
    assert parse_family("crh:a=1,b=2,atom=true") == ConstantReversedHazardParams(1.0, 2.0, True)
    for flag, atom in (("yes", True), ("On", True), ("1", True), ("false", False), ("no", False), ("0", False)):
        assert parse_family(f"crh:b=2,a=1,atom={flag}") == ConstantReversedHazardParams(1.0, 2.0, atom)
    assert parse_family("crh:1,2") == ConstantReversedHazardParams(1.0, 2.0, False)
    for bad in ("gauss:1", "exp:", "exp:rate=x", "weibull:shape=1", "exp:rate=1,foo=2",
                "crh:a=1,b=2,atom=ture", "crh:1,2,true", "exp:1,rate=2", "exp:rate=1,atom=true"):
        with pytest.raises(InvalidParameter):
            parse_family(bad)


@pytest.mark.parametrize(
    "text", ["exp:rate=1,rate=2", "exp:rate=1,RATE=1", "weibull:shape=2,scale=1,shape=3",
             "crh:a=1,b=2,atom=true,atom=false", "crh:a=1,b=2,atom=on,ATOM=on"],
)
def test_parse_family_refuses_a_repeated_parameter(text):
    # the last value used to win, so a typo in one of two values passed silently
    with pytest.raises(InvalidParameter, match="given twice"):
        parse_family(text)
