import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from extropy import (
    ExponentialParams,
    KdeModel,
    McStudyConfig,
    SampleBatch,
    SeededSampler,
    UniformParams,
    WeibullParams,
    estimate_relative_extropy,
    gaussian_kernel,
    mc_bias_mse,
    pairwise_matrix,
    sample_batch,
    sheather_jones_bandwidth,
)
from extropy import estimation
from extropy.errors import DegenerateSample, InvalidModel, InvalidParameter, NoBracket
from extropy.grouping import GroupedDataset
from extropy.quadrature import QuadratureSpec, integrate
from oracles import (
    efficient_sd_relative_exponential,
    efficient_variances_relative_exponential,
    sheather_jones_oracle,
    trapezoid,
)


def exp_batch(rate, n, seed):
    return sample_batch(ExponentialParams(rate), n, SeededSampler(seed))


# --- kernel and KDE ---------------------------------------------------------


def test_gaussian_kernel_center():
    assert float(gaussian_kernel(0.0)) == pytest.approx(0.3989422804, abs=1e-10)


def test_gaussian_kernel_symmetry_and_mass():
    u = np.linspace(0.1, 6.0, 25)
    assert np.allclose(gaussian_kernel(u), gaussian_kernel(-u))
    mass = integrate(gaussian_kernel, -8.0, 8.0).value
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_kde_kernel_at_its_center():
    m = KdeModel(SampleBatch(np.array([0.0, 0.0])), bandwidth=1.0)
    assert float(m.pdf(0.0)) == pytest.approx(0.3989422804, abs=1e-10)


def test_kde_shift_equivariance():
    batch = exp_batch(1.0, 60, 11)
    m = KdeModel(batch, 0.3)
    shifted = KdeModel(SampleBatch(batch.values + 2.5), 0.3)
    for x in (0.2, 0.9, 1.7):
        assert float(shifted.pdf(x + 2.5)) == pytest.approx(float(m.pdf(x)), abs=1e-12)


def test_kde_matches_brute_force_sum():
    batch = exp_batch(1.0, 100, 21)
    b = 0.25
    m = KdeModel(batch, b)
    x = 1.0
    brute = sum(
        math.exp(-0.5 * ((x - v) / b) ** 2) / math.sqrt(2 * math.pi) for v in batch.values
    ) / (100 * b)
    assert float(m.pdf(x)) == pytest.approx(brute, abs=1e-12)


def test_kde_mass_is_one():
    batch = exp_batch(1.0, 80, 3)
    b = sheather_jones_bandwidth(batch)
    m = KdeModel(batch, b)
    lo = batch.values[0] - 8 * b
    hi = batch.values[-1] + 8 * b
    assert integrate(m.pdf, lo, hi).value == pytest.approx(1.0, abs=1e-6)


def test_kde_windowed_path_matches_exact():
    rng = np.random.default_rng(9)
    values = rng.normal(size=10_050)  # beyond the exact-sum limit
    batch = SampleBatch(values)
    b = 0.1
    m = KdeModel(batch, b)
    for x in (-1.0, 0.0, 0.4, 2.0):
        exact = float(gaussian_kernel((x - batch.values) / b).sum()) / (batch.n * b)
        assert float(m.pdf(x)) == pytest.approx(exact, abs=1e-12)


def test_kde_reflection_preserves_mass_and_clips():
    batch = exp_batch(2.0, 60, 4)
    b = sheather_jones_bandwidth(batch)
    m = KdeModel(batch, b, reflect_at=0.0)
    assert float(m.pdf(-0.5)) == 0.0
    mass = integrate(m.pdf, 0.0, float(batch.values[-1]) + 8 * b).value
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_kde_inner_needs_one_reflection_point_at_or_above_the_bound():
    batch = exp_batch(2.0, 60, 4)
    plain, at0, at1 = (KdeModel(batch, 0.3, c) for c in (None, 0.0, 1.0))
    for a, b, lower in ((at0, at1, None), (at0, plain, None), (plain, at0, 0.0), (at0, at0, 0.5)):
        with pytest.raises(InvalidParameter):
            a.inner(b, lower)
    # a reflected density vanishes below its boundary, so a lower bound adds nothing
    assert at0.inner(at0, -1.0) == at0.inner(at0, 0.0) == at0.inner(at0)


# --- Sheather-Jones bandwidth -------------------------------------------------


@pytest.fixture(params=["kept", "rebuilt"])
def sj_blocks(request, monkeypatch):
    """SJ with its pair blocks kept for the whole solve, or rebuilt per evaluation."""
    if request.param == "rebuilt":
        monkeypatch.setattr(estimation, "_SJ_KEEP_TERMS", 0)


def test_sj_scale_equivariance(sj_blocks):
    batch = exp_batch(1.0, 90, 17)
    h = sheather_jones_bandwidth(batch)
    for c in (0.01, 3.7, 250.0):
        hc = sheather_jones_bandwidth(SampleBatch(c * batch.values))
        assert hc == pytest.approx(c * h, rel=1e-9)


def test_sj_against_independent_oracle(sj_blocks):
    # dual implementation: same plug-in equations coded separately (raw data,
    # meshgrid sums, bisection in log h)
    for seed in (12345, 777):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=100)
        mine = sheather_jones_bandwidth(SampleBatch(x))
        oracle = sheather_jones_oracle(x)
        assert mine == pytest.approx(oracle, abs=1e-6)


@functools.lru_cache(maxsize=None)
def _sj_oracle_case(kind, n):
    """A seeded sample and its oracle bandwidth, once per case for both
    fixtures: the oracle's meshgrid bisection takes seconds at n = 800."""
    rng = np.random.default_rng(n)
    if kind == "normal":
        x = rng.normal(size=n)
    elif kind == "exponential":
        x = rng.exponential(size=n)
    else:
        x = np.concatenate([rng.normal(size=n // 2), rng.normal(4.0, 0.5, size=n - n // 2)])
    return x, sheather_jones_oracle(x)


@pytest.mark.parametrize("n", [50, 200, 800])
@pytest.mark.parametrize("kind", ["normal", "exponential", "bimodal"])
def test_sj_matches_oracle_to_rounding(sj_blocks, kind, n):
    # both sides solve to about 1e-14 of the root; 1e-12 leaves room only
    # for the rounding of two different summation orders
    x, oracle = _sj_oracle_case(kind, n)
    assert sheather_jones_bandwidth(SampleBatch(x)) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_sj_rebuilt_blocks_match_kept(monkeypatch):
    rng = np.random.default_rng(31)
    samples = [
        rng.normal(size=300),
        rng.standard_cauchy(size=300),  # the window drops the far tail pairs
        np.concatenate([rng.normal(size=150), rng.normal(40.0, 1.0, size=150)]),
    ]
    kept = [sheather_jones_bandwidth(SampleBatch(x)) for x in samples]
    monkeypatch.setattr(estimation, "_SJ_KEEP_TERMS", 0)
    for x, h in zip(samples, kept):
        assert sheather_jones_bandwidth(SampleBatch(x)) == pytest.approx(h, rel=4e-15, abs=0.0)


def test_sj_rate_with_sample_size():
    # quadrupling n should shrink the bandwidth by roughly 4^(-1/5)
    ratios = []
    for seed in range(50):
        sampler = SeededSampler(seed)
        small = sample_batch(WeibullParams(2.0, 1.0), 100, sampler, substream=0)
        big = sample_batch(WeibullParams(2.0, 1.0), 400, sampler, substream=1)
        ratios.append(sheather_jones_bandwidth(big) / sheather_jones_bandwidth(small))
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio == pytest.approx(4.0 ** (-0.2), rel=0.25)


def test_sj_degenerate_inputs():
    with pytest.raises(DegenerateSample):
        sheather_jones_bandwidth(SampleBatch(np.array([1.0, 1.0, 1.0, 1.0, 1.0])))
    with pytest.raises(DegenerateSample):
        sheather_jones_bandwidth(SampleBatch(np.array([1.0, 2.0, 3.0])))


def test_sj_without_sign_change_raises_no_bracket(sj_blocks):
    # the outlier sets the sd, and the tight cluster puts the root of the
    # bandwidth equation below the bracket's lower end, 1e-3 sd n^(-1/5)
    x = np.concatenate([np.random.default_rng(1).normal(0.0, 1e-6, 199), [1.0]])
    with pytest.raises(NoBracket, match="no sign change"):
        sheather_jones_bandwidth(SampleBatch(x))


def test_sample_batch_validation():
    with pytest.raises(DegenerateSample):
        SampleBatch(np.array([1.0]))
    with pytest.raises(DegenerateSample):
        SampleBatch(np.array([1.0, np.inf]))
    batch = SampleBatch(np.array([3.0, 1.0, 2.0]))
    assert list(batch.values) == [1.0, 2.0, 3.0]


# --- the estimator ---------------------------------------------------------------


def test_estimate_identical_samples_zero():
    batch = exp_batch(1.0, 80, 5)
    assert estimate_relative_extropy(batch, batch) == 0.0


def test_estimate_translation_invariance():
    sx = exp_batch(1.0, 70, 6)
    sy = exp_batch(2.0, 70, 7)
    base = estimate_relative_extropy(sx, sy)
    for c in (-3.0, 4.5):
        shifted = estimate_relative_extropy(
            SampleBatch(sx.values + c), SampleBatch(sy.values + c)
        )
        assert shifted == pytest.approx(base, abs=1e-9)


def test_estimate_symmetry_and_nonnegativity():
    sx = exp_batch(1.0, 60, 8)
    sy = exp_batch(2.0, 60, 9)
    a = estimate_relative_extropy(sx, sy)
    b = estimate_relative_extropy(sy, sx)
    assert a >= 0.0
    assert a == pytest.approx(b, abs=1e-12)


def test_estimate_ballpark_on_seeded_pair():
    sx = exp_batch(1.0, 200, 101)
    sy = exp_batch(2.0, 200, 202)
    value = estimate_relative_extropy(sx, sy, support_lower=0.0)
    assert abs(value - 1.0 / 12.0) < 0.1


def test_estimate_support_lower_changes_value():
    sx = exp_batch(1.0, 60, 10)
    sy = exp_batch(2.0, 60, 12)
    full = estimate_relative_extropy(sx, sy)
    clipped = estimate_relative_extropy(sx, sy, support_lower=0.0)
    assert clipped < full  # drops the below-zero leakage region
    reflected = estimate_relative_extropy(sx, sy, support_lower=0.0, boundary_reflect=True)
    assert reflected >= 0.0


def _phi(z):
    """Standard normal cdf, written out independently of the package."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_estimate_two_point_closed_form():
    # fhat = phi_bx(. - 0), ghat = phi_by(. - delta): int fhat^2 = 1/(2 sqrt(pi) bx),
    # int ghat^2 = 1/(2 sqrt(pi) by), int fhat ghat = phi_tau(delta), tau^2 = bx^2 + by^2
    delta, bx, by, c = 0.7, 0.3, 0.5, 0.2
    sx = SampleBatch(np.array([0.0, 0.0]))
    sy = SampleBatch(np.array([delta, delta]))
    tau = math.hypot(bx, by)
    cross = math.exp(-0.5 * (delta / tau) ** 2) / (math.sqrt(2.0 * math.pi) * tau)
    xx = 1.0 / (2.0 * math.sqrt(math.pi) * bx)
    yy = 1.0 / (2.0 * math.sqrt(math.pi) * by)
    exact = 0.5 * (xx + yy - 2.0 * cross)
    value = estimate_relative_extropy(sx, sy, bandwidth_x=bx, bandwidth_y=by)
    assert abs(value - exact) <= 1e-14

    # on [c, inf): each product of two kernels is a Gaussian of mean mu and sd s,
    # so it keeps the share Phi((mu - c) / s) of its integral
    mu, s = delta * bx**2 / tau**2, bx * by / tau
    exact_c = 0.5 * (
        xx * _phi((0.0 - c) / (bx / math.sqrt(2.0)))
        + yy * _phi((delta - c) / (by / math.sqrt(2.0)))
        - 2.0 * cross * _phi((mu - c) / s)
    )
    value_c = estimate_relative_extropy(sx, sy, bandwidth_x=bx, bandwidth_y=by, support_lower=c)
    assert abs(value_c - exact_c) <= 1e-14


def _quadrature_estimate(sx, sy, bx, by, support_lower, boundary_reflect):
    """(1/2) int (fhat - ghat)^2 by QUADPACK, independent of the package quadrature."""
    reflect_at = support_lower if boundary_reflect else None
    fx, fy = KdeModel(sx, bx, reflect_at), KdeModel(sy, by, reflect_at)
    pad = 5.0 * max(bx, by)
    lo = min(float(sx.values[0]), float(sy.values[0])) - pad
    hi = max(float(sx.values[-1]), float(sy.values[-1])) + pad
    if support_lower is not None:
        lo = max(lo, support_lower)
    integrand = lambda x: (float(fx.pdf(x)) - float(fy.pdf(x))) ** 2
    return 0.5 * quad(
        integrand, lo, hi, epsabs=QuadratureSpec.abs_tol, epsrel=QuadratureSpec.rel_tol, limit=200
    )[0]


@pytest.mark.parametrize("n", [50, 200, 2500])
@pytest.mark.parametrize(
    "support_lower, boundary_reflect", [(None, False), (0.0, False), (0.0, True)]
)
def test_estimate_matches_quadrature(n, support_lower, boundary_reflect):
    # n = 2500 spans several row blocks of the windowed sums; Silverman's
    # rule of thumb stands in for the slower Sheather-Jones bandwidths
    sx = exp_batch(1.0, n, 1000 + n)
    sy = exp_batch(2.0, n, 2000 + n)
    bx, by = (0.9 * float(s.values.std(ddof=1)) * n ** (-0.2) for s in (sx, sy))
    value = estimate_relative_extropy(
        sx, sy, bandwidth_x=bx, bandwidth_y=by,
        support_lower=support_lower, boundary_reflect=boundary_reflect,
    )
    reference = _quadrature_estimate(sx, sy, bx, by, support_lower, boundary_reflect)
    assert abs(value - reference) <= 1e-12


@pytest.mark.parametrize("boundary_reflect", [False, True])
def test_pairwise_matrix_reuses_self_terms_exactly(boundary_reflect):
    # each group's int fhat^2 is computed once for all its pairs; every cell must
    # still equal the two-sample estimate at the same bandwidths
    groups = [("a", exp_batch(1.0, 120, 31)), ("b", exp_batch(2.0, 90, 32)),
              ("c", exp_batch(0.5, 150, 33)), ("d", exp_batch(1.0, 60, 34))]
    ds = GroupedDataset(groups=tuple(groups), source="<memory>", value_column="v",
                        group_by="g", dropped_rows=0)
    matrix = pairwise_matrix(ds, boundary_reflect=boundary_reflect)
    for i, j in itertools.combinations(range(len(groups)), 2):
        pair = estimate_relative_extropy(
            groups[i][1], groups[j][1],
            bandwidth_x=matrix.bandwidths[i], bandwidth_y=matrix.bandwidths[j],
            boundary_reflect=boundary_reflect,
        )
        assert abs(matrix.values[i, j] - pair) <= 1e-15


def near_identical_pair(seed=1, n=30):
    """Exp(1) draws x and x (1 + 1e-12), each through its repr as a CSV would store it."""
    rng = np.random.default_rng(seed)
    x = [float(repr(v)) for v in (-np.log1p(-rng.random(n))).tolist()]
    return x, [float(repr(v * (1.0 + 1e-12))) for v in x]


def test_estimate_within_rounding_of_its_sums_is_zero():
    # the three kernel sums cancel to a few ulps, either side of 0
    for seed in range(10):
        x, y = near_identical_pair(seed)
        assert estimate_relative_extropy(SampleBatch(np.array(x)), SampleBatch(np.array(y))) == 0.0


def test_estimate_below_rounding_bound_raises(monkeypatch):
    # a cross term larger than both self terms by more than rounding breaks Cauchy-Schwarz
    monkeypatch.setattr(KdeModel, "inner", lambda self, other, lower=None: 1.0 + 1e-12 * (self is not other))
    with pytest.raises(InvalidModel, match="rounding bound"):
        estimate_relative_extropy(exp_batch(1.0, 20, 1), exp_batch(2.0, 20, 2))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_estimate_nonnegative_random_seeds(seed):
    sx = exp_batch(1.0, 30, seed)
    sy = exp_batch(1.5, 30, seed + 1)
    assert estimate_relative_extropy(sx, sy) >= 0.0


def test_efficient_variance_oracle_against_trapezoid():
    # the information bound that criterion 10 measures the estimator's spread against
    var_x, var_y = efficient_variances_relative_exponential(1.0, 2.0)
    assert var_x == pytest.approx(19.0 / 180.0, abs=1e-15)
    assert var_y == pytest.approx(11.0 / 90.0, abs=1e-15)
    assert efficient_sd_relative_exponential(1.0, 2.0, 200, 200) == pytest.approx(0.03375, abs=5e-6)

    def trap_var(own, other, hi):
        # Var(own - other) under the density own, by brute-force quadrature on [0, hi]
        mean = trapezoid(lambda x: (own(x) - other(x)) * own(x), 0.0, hi)
        return trapezoid(lambda x: (own(x) - other(x)) ** 2 * own(x), 0.0, hi) - mean**2

    for lam, mu, hi in ((1.0, 2.0, 40.0), (0.5, 1.5, 80.0)):
        f = lambda x: lam * np.exp(-lam * x)
        g = lambda x: mu * np.exp(-mu * x)
        var_x, var_y = efficient_variances_relative_exponential(lam, mu)
        assert abs(var_x - trap_var(f, g, hi)) <= 1e-8
        assert abs(var_y - trap_var(g, f, hi)) <= 1e-8


# --- Monte-Carlo study -------------------------------------------------------------


def _cfg(n=50, reps=8, seed=99, **kw):
    return McStudyConfig(
        family_x=ExponentialParams(1.0),
        family_y=ExponentialParams(2.0),
        n=n,
        reps=reps,
        seed=seed,
        true_value=1.0 / 12.0,
        **kw,
    )


def test_mc_study_deterministic():
    row_a = mc_bias_mse(_cfg())
    row_b = mc_bias_mse(_cfg())
    assert row_a == row_b


def test_mc_study_mse_bias_inequality():
    row = mc_bias_mse(_cfg(reps=20))
    assert row.mse >= row.bias**2 - 1e-12


def test_mc_study_config_validation():
    with pytest.raises(InvalidParameter):
        _cfg(reps=1)
    with pytest.raises(InvalidParameter):
        _cfg(n=5)


def test_mc_study_cuts_off_at_the_support_hull_by_default():
    assert _cfg().support_lower == 0.0
    below = McStudyConfig(UniformParams(-1.0, 1.0), UniformParams(-1.0, 2.0), n=20, reps=2,
                          seed=3, true_value=0.0)
    assert below.support_lower == -1.0
    assert _cfg(support_lower=None).support_lower is None


def test_mc_study_same_family_shrinks():
    def run(n):
        cfg = McStudyConfig(
            family_x=ExponentialParams(1.0),
            family_y=ExponentialParams(1.0),
            n=n,
            reps=40,
            seed=314,
            true_value=0.0,
        )
        return mc_bias_mse(cfg)

    small, large = run(50), run(200)
    assert small.mean_estimate > 0.0  # smoothing and sampling noise never cancel
    assert large.mean_estimate > 0.0
    assert large.mse < small.mse


def test_mc_study_failure_policy(monkeypatch):
    import extropy.estimation as est

    def boom(*a, **k):
        raise DegenerateSample("forced")

    monkeypatch.setattr(est, "estimate_relative_extropy", boom)
    with pytest.raises(DegenerateSample):
        mc_bias_mse(_cfg(reps=5))


def test_mc_study_records_failed_replications(monkeypatch):
    import extropy.estimation as est

    def fail_on(reps):
        counter = itertools.count()

        def estimate(*a, **k):
            rep = next(counter)
            if rep in reps:
                raise DegenerateSample(f"forced {rep}")
            return 0.1

        return estimate

    # one failure in 100 replications is tolerated and recorded with its index
    monkeypatch.setattr(est, "estimate_relative_extropy", fail_on({42}))
    row = mc_bias_mse(_cfg(n=10, reps=100))
    assert row.failed == ((42, "DegenerateSample('forced 42')"),)
    assert row.failures == 1
    assert row.mean_estimate == pytest.approx(0.1)

    # above 1% the error lists every failed replication, not just the first
    monkeypatch.setattr(est, "estimate_relative_extropy", fail_on({1, 3}))
    with pytest.raises(DegenerateSample) as info:
        mc_bias_mse(_cfg(n=10, reps=5))
    message = str(info.value)
    assert "2 of 5 replications failed" in message
    assert "#1: DegenerateSample('forced 1')" in message
    assert "#3: DegenerateSample('forced 3')" in message


def test_mc_consistency_trend():
    # mean estimate moves toward the true 0.0833 as n grows through
    # {50, 100, 200, 400}; one inversion of at most 10% of the gap tolerated
    distances = []
    for n in (50, 100, 200, 400):
        row = mc_bias_mse(_cfg(n=n, reps=200, seed=20260810))
        distances.append(abs(row.mean_estimate - 0.0833))
    inversions = [b - a for a, b in zip(distances, distances[1:]) if b > a]
    assert len(inversions) <= 1
    for excess, prev in zip(inversions, distances):
        assert excess <= 0.10 * prev
