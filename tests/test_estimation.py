import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.integrate import quad

from extropy import (
    ExponentialParams,
    KdeModel,
    McStudyConfig,
    SampleBatch,
    SeededSampler,
    UniformParams,
    WeibullParams,
    estimate_pairwise_relative_extropy,
    estimate_relative_extropy,
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
    gaussian_kernel,
    gram_oracle,
    hermite_transform_cumprod,
    horner,
    pair_sums_by_polynomial,
    self_gram_longdouble,
    sheather_jones_longdouble,
    sheather_jones_oracle,
    trapezoid,
    upper_squares,
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


def _kde_by_loops(values, b, points, reflect_at=None):
    """The KDE at each point by a loop over the points and, in it, over the sample
    and its images 2c - v, each kernel by math.exp; 0 below a reflection point c."""
    centres = list(values) + ([] if reflect_at is None else [2.0 * reflect_at - v for v in values])
    out = []
    for x in points:
        if reflect_at is not None and x < reflect_at:
            out.append(0.0)
            continue
        kernels = [math.exp(-0.5 * ((x - v) / b) ** 2) for v in centres]
        out.append(math.fsum(kernels) / (len(values) * b * math.sqrt(2.0 * math.pi)))
    return np.array(out)


def test_kde_pdf_sums_every_kernel_over_several_chunks():
    # 200 points against 3,000 kernels take ten chunks of at most 2^16 terms; a 2-D x
    # keeps its shape
    values = np.random.default_rng(5).normal(size=3000)
    b = 0.05
    x = np.linspace(-3.0, 3.0, 200).reshape(20, 10)
    assert x.size > estimation._BLOCK_TERMS // values.size
    got = KdeModel(SampleBatch(values), b).pdf(x)
    assert got.shape == x.shape
    expected = _kde_by_loops(np.sort(values), b, x.ravel()).reshape(x.shape)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


def test_kde_pdf_reflected_sums_the_images_and_is_zero_below():
    batch = exp_batch(2.0, 60, 4)
    b = 0.3
    x = np.array([-2.0, -0.5, -1e-300, 0.0, 1e-3, 0.2, 0.7, 1.5, 4.0])
    reflected = KdeModel(batch, b, reflect_at=0.0).pdf(x)
    np.testing.assert_allclose(reflected, _kde_by_loops(batch.values, b, x, 0.0), rtol=1e-13, atol=0.0)
    assert reflected[:3].tolist() == [0.0, 0.0, 0.0]
    # at c each image is as far from c as its observation, so the density doubles
    plain = KdeModel(batch, b).pdf(0.0)
    assert reflected[3] == pytest.approx(2.0 * plain, rel=1e-14)
    # a reflection point inside the sample: images of the observations above c lie below it
    inside = KdeModel(batch, b, reflect_at=0.4).pdf(x)
    np.testing.assert_allclose(inside, _kde_by_loops(batch.values, b, x, 0.4), rtol=1e-13, atol=0.0)
    assert not inside[:6].any() and inside[6:].all()


def test_kde_pdf_of_a_scalar_is_a_scalar_and_of_an_empty_array_empty():
    batch = exp_batch(1.0, 40, 7)
    for reflect_at in (None, 0.0):
        m = KdeModel(batch, 0.25, reflect_at)
        value = m.pdf(0.5)
        assert np.ndim(value) == 0
        (expected,) = _kde_by_loops(batch.values, 0.25, [0.5], reflect_at)
        assert float(value) == pytest.approx(expected, rel=1e-13)
        for empty in (np.empty(0), np.empty((0, 3)), []):
            got = m.pdf(empty)
            assert got.shape == np.shape(empty) and got.dtype == float


def test_kde_inner_needs_one_reflection_point_at_or_above_the_bound():
    batch = exp_batch(2.0, 60, 4)
    plain, at0, at1 = (KdeModel(batch, 0.3, c) for c in (None, 0.0, 1.0))
    for a, b, lower in ((at0, at1, None), (at0, plain, None), (plain, at0, 0.0), (at0, at0, 0.5)):
        with pytest.raises(InvalidParameter):
            a.inner(b, lower)
    # a reflected density vanishes below its boundary, so a lower bound adds nothing
    assert at0.inner(at0, -1.0) == at0.inner(at0, 0.0) == at0.inner(at0)


@pytest.mark.parametrize("n", [20, 200, 1500])
@pytest.mark.parametrize("kind, lower", [("exponential", 0.0), ("normal", -0.3)])
def test_bounded_inner_matches_all_pairs_oracle(kind, lower, n):
    # the whole-line sums are direct at n = 20 (below the transform's cutover) and
    # 200, and take the Hermite transform at 1500; the boundary term takes one
    # chunk at every size.  The bound is the support's end under exponential
    # data, and normal data are moved so that their pair's smallest observation
    # is the bound, where the boundary term's exponents u and v start at 0
    rng = np.random.default_rng(n)
    draw = rng.exponential if kind == "exponential" else rng.normal
    x, y = draw(size=n), 1.5 * draw(size=n)
    if kind == "normal":
        low = min(x.min(), y.min())
        x, y = lower + (x - low), lower + (y - low)
        assert min(x.min(), y.min()) == lower
    fx = KdeModel(SampleBatch(x), 0.9 * n**-0.2)
    fy = KdeModel(SampleBatch(y), 1.3 * n**-0.2)
    for f, g in ((fx, fx), (fx, fy)):
        oracle = gram_oracle(f.sample.values, g.sample.values, f.bandwidth, g.bandwidth, lower)
        assert f.inner(g, lower) == pytest.approx(oracle, rel=1e-13, abs=0.0)


def _rows_gram_oracle(x, y, bx, by, lower, rows=400):
    """``gram_oracle`` over blocks of ``rows`` rows of x, so that no block holds more
    than rows * y.size pairs; each block's mean weighs by its rows."""
    parts = [gram_oracle(x[i : i + rows], y, bx, by, lower) * x[i : i + rows].size for i in range(0, x.size, rows)]
    return math.fsum(parts) / x.size


@pytest.mark.parametrize("n", [2, 50])
@pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3])
def test_boundary_term_at_the_bound_and_at_extreme_width_ratios(n, ratio):
    # both samples start exactly at the bound, so the pair of their smallest points
    # has r = u + v = 0, where the boundary term is largest (half the pair's term);
    # bx / by of 1e-3 and 1e3 put nearly every exp(-a^2 / 2) of one side below
    # underflow and every exp(-v s) of the other near 1
    rng = np.random.default_rng(n)
    lower = 0.25
    x, y = (np.sort(lower + np.append(0.0, rng.exponential(size=k - 1))) for k in (n, n + n // 5))
    by = 0.4
    bx = ratio * by
    for a, b, wa, wb in ((x, x, bx, bx), (y, y, by, by), (x, y, bx, by), (y, x, by, bx)):
        got = estimation._gram_sum(a, b, wa, wb, lower)
        assert got == pytest.approx(gram_oracle(a, b, wa, wb, lower), rel=1e-13, abs=0.0), (wa, wb)


def test_bound_far_below_the_data_leaves_the_whole_line_sum():
    # 40 bandwidths below the smallest point every exp(-a^2 / 2) underflows: the
    # boundary term adds nothing, and the sum is the whole-line sum bit for bit
    rng = np.random.default_rng(5)
    x, y = np.sort(rng.normal(size=300)), np.sort(rng.normal(0.5, 1.2, size=200))
    bx, by = 0.3, 0.45
    lower = min(x[0], y[0]) - 40.0 * max(bx, by)
    assert math.exp(-0.5 * ((min(x[0], y[0]) - lower) / max(bx, by)) ** 2) == 0.0
    for a, b, wa, wb in ((x, x, bx, bx), (x, y, bx, by)):
        got = estimation._gram_sum(a, b, wa, wb, lower)
        assert got == estimation._gram_sum(a, b, wa, wb, None)
        assert got == pytest.approx(gram_oracle(a, b, wa, wb, lower), rel=1e-13, abs=0.0)


def test_bounded_sum_of_pairs_beyond_the_window_is_not_negative():
    # every pair lies farther apart than the direct sum's 8 tau, which drops it,
    # while the boundary term counts it: the difference came out at -3.4e-36.  The
    # true value is below exp(-32) of one term's peak, the window's own loss
    x, y, b = np.array([0.0, 0.1]), np.array([2.5, 2.6]), 0.2
    assert estimation._gram_sum(x, y, b, b, 0.0) == 0.0
    assert 0.0 < gram_oracle(x, y, b, b, 0.0) < math.exp(-32.0) / (math.sqrt(2.0 * math.pi) * math.hypot(b, b))


def test_dense_bounded_sums_take_the_transform(monkeypatch):
    # above the cutover a bounded sum is the transform's whole-line sum less the
    # boundary term: a cross sum of 3,200 against 800 points and a self sum of 800
    calls = _count_gram_transforms(monkeypatch)
    rng = np.random.default_rng(3200)
    x, y = np.sort(rng.exponential(size=3200)), np.sort(1.5 * rng.exponential(size=800))
    bx, by = 0.9 * 3200**-0.2, 1.3 * 800**-0.2
    for a, b, wa, wb in ((x, y, bx, by), (y, y, by, by)):
        got = estimation._gram_sum(a, b, wa, wb, 0.0)
        assert got == pytest.approx(_rows_gram_oracle(a, b, wa, wb, 0.0), rel=1e-13, abs=0.0)
    assert calls == [2, 1]


@pytest.mark.parametrize("boundary_reflect", [False, True])
def test_data_below_the_bound_are_refused_before_phi(monkeypatch, boundary_reflect):
    # a bound inside normal data once returned numbers; now every entry point
    # refuses them before the boundary term, whose exponents u and v are >= 0
    seen = []

    def recording_sums(u, e, sums=estimation._boundary_sums):
        seen.append(float(u[0]))  # u ascends
        return sums(u, e)

    monkeypatch.setattr(estimation, "_boundary_sums", recording_sums)
    rng = np.random.default_rng(7)
    sx, sy = SampleBatch(rng.normal(size=60)), SampleBatch(rng.normal(0.5, 1.0, size=60))
    above = SampleBatch(sx.values - sx.values[0])
    lower = -0.3
    reflect_at = lower if boundary_reflect else None
    options = dict(support_lower=lower, boundary_reflect=boundary_reflect)
    with pytest.raises(InvalidParameter, match="-0.3 needs data at or above it"):
        estimate_relative_extropy(sx, sy, **options)
    for a, b in ((sx, sy), (above, sx), (sx, above)):
        with pytest.raises(InvalidParameter):
            estimate_pairwise_relative_extropy((a, b), (0.3, 0.4), **options)
        with pytest.raises(InvalidParameter):
            KdeModel(a, 0.3, reflect_at).inner(KdeModel(b, 0.4, reflect_at), lower)
    # only the self terms of samples above the bound reached the boundary term
    assert all(u >= 0.0 for u in seen)
    # data whose smallest observation is the bound are accepted, their u from 0
    seen.clear()
    at = SampleBatch(lower + (sy.values - sy.values[0]))
    estimate_pairwise_relative_extropy((at, SampleBatch(at.values + 0.1)), (0.3, 0.4), **options)
    assert (seen == []) if boundary_reflect else (min(seen) == 0.0 and all(u >= 0.0 for u in seen))
    # a study whose bound is above its families' support draws data below it
    with pytest.raises(InvalidParameter, match="support hull"):
        McStudyConfig(UniformParams(-1.0, 1.0), UniformParams(-1.0, 2.0), n=20, reps=2,
                      seed=3, true_value=0.0, support_lower=0.0)


def test_pairwise_estimate_needs_one_bandwidth_per_sample():
    # zip once dropped the third sample and returned a 2 x 2 matrix
    batches = (exp_batch(1.0, 30, 1), exp_batch(2.0, 30, 2), exp_batch(0.5, 30, 3))
    for bandwidths in ((0.3, 0.4), (0.3, 0.4, 0.5, 0.6)):
        with pytest.raises(InvalidParameter, match="bandwidths"):
            estimate_pairwise_relative_extropy(batches, bandwidths)
    assert estimate_pairwise_relative_extropy(batches, (0.3, 0.4, 0.5)).shape == (3, 3)


# --- Sheather-Jones bandwidth -------------------------------------------------


@pytest.mark.parametrize(
    "n, reach", [(5, math.inf), (50, math.inf), (256, math.inf), (257, math.inf), (300, math.inf),
                 (362, math.inf), (2100, 0.3)],
)
def test_sj_pair_blocks_match_a_row_by_row_build(monkeypatch, n, reach):
    # an infinite reach checks the pairs a solve keeps (n <= 362, up to 65,341 pairs):
    # one array of the whole upper half, row after row; a finite one the layout of a
    # direct self Gram sum: each row's pairs above the diagonal within the kernel
    # window, rows of their own lengths, in whole-row chunks of at most `size` terms
    # (_BLOCK_TERMS there), here small enough for many
    z = np.sort(np.random.default_rng(n).lognormal(size=n))
    if reach == math.inf:
        given, pair_sums = [], estimation._pair_sums

        def recording(squares, *args):
            given.append(squares)
            return pair_sums(squares, *args)

        monkeypatch.setattr(estimation, "_pair_sums", recording)
        sheather_jones_bandwidth(SampleBatch(z))
        blocks = given[0]  # every pass gets the one kept list
        assert isinstance(blocks, list) and all(s is blocks for s in given if isinstance(s, list))
        z = z / z.std(ddof=1)  # the solve works on the standardized sample
        diffs = np.concatenate([z[i + 1 :] - z[i] for i in range(n)])
        assert len(blocks) == 1 and np.array_equal(blocks[0], diffs * diffs)
    else:
        size = 2000
        ends = np.searchsorted(z, z + reach, side="right")
        chunks = list(estimation._near_squares(z, ends, size))
        rows = [(z[i + 1 : ends[i]] - z[i]) ** 2 for i in range(n)]
        assert max(r.size for r in rows) <= size < sum(r.size for r in rows) / 4
        assert len(chunks) >= 4 and all(0 < c.size <= size for c in chunks)
        # every chunk ends at the end of a row
        row_ends = set(np.cumsum([r.size for r in rows]).tolist())
        assert set(np.cumsum([c.size for c in chunks]).tolist()) <= row_ends
        assert np.array_equal(np.concatenate(chunks), np.concatenate(rows))


@pytest.mark.parametrize(
    "name, series",
    [("_PSI4", [0, 0, 0, 0, 1]), ("_PSI6", [0, 0, 0, 0, 0, 0, 1]), ("_PSI4_SLOPE", [0, 0, 0, 0, 5, 0, 1])],
)
def test_sj_pair_polynomials_are_hermite(name, series):
    # each polynomial in e = -u^2 / 2 is He4(u), He6(u) or u He5(u) = He6(u) + 5 He4(u),
    # which the transform's tables assume; the coefficients are exact in both bases
    in_e = getattr(estimation, name)[::-1]  # lowest power first
    in_u = np.zeros(2 * len(in_e) - 1)
    in_u[::2] = [c * (-0.5) ** j for j, c in enumerate(in_e)]
    assert np.array_equal(in_u, hermite_e.herme2poly(series))


def test_hermite_table_matches_numpy_hermite_e():
    # SJ's T[o, k, l] = (-1)^l He_(k+l+4)(o) exp(-o^2 / 2) for l < p + 2, then the
    # same with He_(k+l+6) + 5 He_(k+l+4) for l < p; the Gram sums' is
    # (-1)^l He_(k+l)(o) exp(-o^2 / 2) for l < p; row o = 0 halved in both
    table, gram = estimation._hermite_tables()
    p = estimation._FGT_TERMS
    assert table.shape == (estimation._FGT_REACH + 1, p, 2 * p + 2)
    assert gram.shape == (estimation._GRAM_REACH + 1, p, p)
    for o in range(table.shape[0]):
        he = [hermite_e.hermeval(float(o), np.eye(2 * p + 5)[m]) * math.exp(-0.5 * o * o)
              for m in range(2 * p + 5)]
        half = 0.5 if o == 0 else 1.0
        for k in range(p):
            want = [(-1) ** l * he[k + l + 4] * half for l in range(p + 2)]
            want += [(-1) ** l * (he[k + l + 6] + 5.0 * he[k + l + 4]) * half for l in range(p)]
            assert table[o, k] == pytest.approx(want, rel=1e-12, abs=1e-300), (o, k)
            if o < gram.shape[0]:
                want = [(-1) ** l * he[k + l] * half for l in range(p)]
                assert gram[o, k] == pytest.approx(want, rel=1e-12, abs=1e-300), (o, k)


def _sj_pilot_width(z):
    """The psi4 pilot width of a standardized sample, as the solve takes it."""
    iqr = estimation._sorted_quantile(z, 0.75) - estimation._sorted_quantile(z, 0.25)
    scale = min(1.0, iqr / (1.349 * z.std(ddof=1)))
    return 0.920 * 1.349 * scale * z.size ** (-1.0 / 7.0)


def _direct_sum(z, g, poly):
    """Direct sum over all (i, j), diagonal included, of poly(e) exp(e) for the pairs
    within ``_SJ_WINDOW`` pilot widths, built by broadcasting 256 rows at a time, its
    terms added in numpy's longdouble (80-bit on x86), as exact as fsum here."""
    total = np.longdouble(0.0)
    for start in range(0, z.size, 256):
        rows = np.arange(start, min(start + 256, z.size))[:, None]
        diffs = z[None, :] - z[rows]
        dsq = (diffs * diffs)[(np.arange(z.size) > rows) & (diffs <= estimation._SJ_WINDOW * g)]
        e = dsq * (-0.5 / (g * g))
        terms = np.empty_like(e)
        horner(poly, e, terms)
        total += (terms * np.exp(e)).astype(np.longdouble).sum()
    return float(2 * total + poly[-1] * z.size)


@pytest.mark.parametrize("n", [363, 800, 1600, 3200])
@pytest.mark.parametrize("kind", ["normal", "exponential", "lognormal", "cauchy", "bimodal", "rounded"])
def test_hermite_transform_matches_the_windowed_direct_sums(kind, n):
    # psi4, psi6 and the psi4 slope, each with its diagonal, at the pilot width and
    # at 0.4 of it; the bar is 1e-13 of the total
    rng = np.random.default_rng(n)
    x = {
        "normal": lambda: rng.normal(size=n),
        "exponential": lambda: rng.exponential(size=n),
        "lognormal": lambda: rng.lognormal(size=n),
        "cauchy": lambda: rng.standard_cauchy(size=n),
        "bimodal": lambda: np.concatenate([rng.normal(size=n // 2), rng.normal(40.0, 1.0, n - n // 2)]),
        "rounded": lambda: np.round(rng.normal(50.0, 11.0, n), 3),  # ties, like the CSV bands
    }[kind]()
    z = np.sort(x) / x.std(ddof=1)
    pilot = _sj_pilot_width(z)
    for g in (pilot, 0.4 * pilot):
        sums = estimation._hermite_sums((z - z[n // 2]) / g)
        for got, poly in zip(sums, (estimation._PSI4, estimation._PSI6, estimation._PSI4_SLOPE)):
            want = _direct_sum(z, g, poly)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (g, poly)


@pytest.mark.parametrize("table", [0, 1], ids=["sj", "gram"])
@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("kind", ["normal", "one-box", "box-each", "far-apart", "cauchy", "rounded"])
def test_hermite_transform_keeps_the_bits_of_the_cumprod_build(kind, samples, table):
    # the moments built row by row along k must equal, bit for bit, those of a cumprod
    # along k per point, and so must every expansion built on them
    rng = np.random.default_rng(29)
    draw = {
        "normal": lambda n: rng.normal(0.0, 6.0, n),
        "one-box": lambda n: rng.uniform(3.001, 3.999, n),
        "box-each": lambda n: np.arange(n) * 1.0 + rng.uniform(0.0, 0.99, n),
        # two clusters 300 boxes apart: a run of empty boxes far past either reach
        "far-apart": lambda n: np.concatenate([rng.normal(0.0, 2.0, n // 2), rng.normal(300.0, 2.0, n - n // 2)]),
        "cauchy": lambda n: rng.standard_cauchy(n),
        "rounded": lambda n: np.round(rng.normal(50.0, 11.0, n), 1),  # ties, like the CSV bands
    }[kind]
    us = tuple(np.sort(draw(n)) for n in (1601, 700)[:samples])
    t = estimation._hermite_tables()[table]
    got = estimation._hermite_transform(us, t)
    want = hermite_transform_cumprod(us, t, estimation._FGT_TERMS)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.fixture(params=["kept", "rebuilt"])
def sj_blocks(request, monkeypatch):
    """SJ at every n of the tests with its pair blocks kept for the whole solve
    ("kept"), or with nothing kept and every pass by the Hermite transform
    ("rebuilt": its moments are rebuilt at each pass).  By default only n <= 362
    keeps its blocks, and every pass above that takes the transform."""
    monkeypatch.setattr(estimation, "_SJ_KEEP_TERMS", 1 << 22 if request.param == "kept" else 0)


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


@pytest.mark.parametrize("n", [300, 1600])
def test_sj_rebuilt_blocks_match_kept(monkeypatch, n):
    # by default n = 300 keeps its blocks, and n = 1600 takes the Hermite transform
    # on every pass, the path above the keep cap; each is compared with the other path
    keeps = n * (n - 1) // 2 <= estimation._SJ_KEEP_TERMS
    assert keeps == (n == 300)
    rng = np.random.default_rng(31)
    samples = [
        rng.normal(size=n),
        rng.standard_cauchy(size=n),  # the window drops the far tail pairs
        np.concatenate([rng.normal(size=n // 2), rng.normal(40.0, 1.0, size=n // 2)]),
    ]
    transforms = []
    hermite = estimation._hermite_sums
    monkeypatch.setattr(estimation, "_hermite_sums", lambda u: transforms.append(u.size) or hermite(u))

    def solve(x):
        before = len(transforms)
        return sheather_jones_bandwidth(SampleBatch(x)), len(transforms) - before

    default = [solve(x) for x in samples]
    monkeypatch.setattr(estimation, "_SJ_KEEP_TERMS", 0 if keeps else 1 << 22)
    other = [solve(x) for x in samples]
    for (h, _), (h_other, _) in zip(default, other):
        assert h_other == pytest.approx(h, rel=4e-15, abs=0.0)
    # every solve above the keep cap ran the transform, and no kept one did
    above, kept = (other, default) if keeps else (default, other)
    assert all(count > 0 for _, count in above) and all(count == 0 for _, count in kept)


def test_sj_passes_above_the_keep_cap_all_take_the_transform(monkeypatch):
    # the sums' path depends on n alone: with both bracket ends left to their exact
    # passes, every pass at n = 800 is a transform
    x = np.random.default_rng(800).normal(size=800)
    transforms, direct = [], []
    hermite, pair_sums = estimation._hermite_sums, estimation._pair_sums
    monkeypatch.setattr(estimation, "_hermite_sums", lambda u: transforms.append(u.size) or hermite(u))
    monkeypatch.setattr(estimation, "_pair_sums", lambda *args: direct.append(1) or pair_sums(*args))
    h = sheather_jones_bandwidth(SampleBatch(x))
    bounded = len(transforms)
    assert not direct  # the bounds on the bracket ends make no pass
    del transforms[:]
    monkeypatch.setattr(estimation, "_sj_end_sign", lambda *args: 0.0)
    assert sheather_jones_bandwidth(SampleBatch(x)) == h
    assert not direct and len(transforms) == bounded + 2  # the two ends' exact passes


def _record_pair_sums(monkeypatch):
    """One entry per ``_pair_sums`` call of the solves that follow: True where a
    bracket end's bound made it."""
    calls, inside = [], [False]
    pair_sums, bound = estimation._pair_sums, estimation._sj_end_sign

    def recording_sums(*args):
        calls.append(inside[0])
        return pair_sums(*args)

    def recording_bound(*args):
        inside[0] = True
        try:
            return bound(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(estimation, "_pair_sums", recording_sums)
    monkeypatch.setattr(estimation, "_sj_end_sign", recording_bound)
    return calls


def test_sj_kept_solve_makes_at_most_seven_passes(monkeypatch):
    # two pilots and Newton from the direct plug-in bandwidth; both bracket ends are
    # decided by bounds, with no pass.  Newton from n^(-1/5) and an exact pass at the
    # lower end took 9 passes here
    calls = _record_pair_sums(monkeypatch)
    sheather_jones_bandwidth(SampleBatch(np.random.default_rng(200).exponential(size=200)))
    assert 0 < len(calls) <= 7
    assert not any(calls)


# mean passes per solve of the next test (both pilots included), measured when Newton
# stepped from the plug-in start alone: seeds 0-19 at n = 50, 200 and 350, and the
# band-like transform samples at n = 800, seeds 0-9; Cauchy counts the 58 of 60 draws
# with a sign change.  Steps to the root of the cubic model through the two nearest
# passes took the means 7.20, 6.32, 6.30, 6.83, 6.78 and 6.0 to 5.80, 4.62, 4.63,
# 5.24, 5.57 and 4.3
_SJ_PASSES_BEFORE_THE_MODEL = {
    "exponential": 432 / 60, "normal": 379 / 60, "rounded": 378 / 60, "cauchy": 396 / 58,
    "bimodal": 407 / 60, "band": 60 / 10,
}


@pytest.mark.parametrize("kind", list(_SJ_PASSES_BEFORE_THE_MODEL))
def test_sj_model_steps_take_fewer_passes_on_every_kind(monkeypatch, kind):
    # the bimodal mixture N(0, 1) + N(5, 1) is far from a power law in g between the
    # pilots and the root, where a start along the pilot's slope alone lost passes
    calls = []
    pair_sums, hermite = estimation._pair_sums, estimation._hermite_sums
    monkeypatch.setattr(estimation, "_pair_sums", lambda *args: calls.append(1) or pair_sums(*args))
    monkeypatch.setattr(estimation, "_hermite_sums", lambda u: calls.append(1) or hermite(u))
    draw = {
        "exponential": lambda rng, n: rng.exponential(size=n),
        "normal": lambda rng, n: rng.normal(size=n),
        "rounded": lambda rng, n: np.round(rng.normal(size=n), 1),
        "cauchy": lambda rng, n: rng.standard_cauchy(n),
        "bimodal": lambda rng, n: np.concatenate([rng.normal(size=n // 2), rng.normal(5.0, 1.0, n - n // 2)]),
        "band": lambda rng, n: np.round(rng.normal(50.0, 11.0, n), 3),
    }[kind]
    cases = [(800, seed) for seed in range(10)] if kind == "band" else [
        (n, seed) for n in (50, 200, 350) for seed in range(20)
    ]
    passes = []
    for n, seed in cases:
        del calls[:]
        try:
            sheather_jones_bandwidth(SampleBatch(draw(np.random.default_rng(seed), n)))
        except NoBracket:
            continue
        passes.append(len(calls))
    assert np.mean(passes) < _SJ_PASSES_BEFORE_THE_MODEL[kind], passes


def test_sj_sample_with_several_roots_gets_the_one_newton_reaches_from_the_plug_in_start():
    # F has roots near 0.108, 0.262 and 0.546 here, and the plug-in start is 0.786:
    # Newton descends to 0.546, where bisection over the whole bracket (the oracle of
    # tests/oracles.py) finds 0.108.  A model start taken without its factor-2 guard
    # jumped to 0.108
    x = np.random.default_rng(16).integers(0, 10, size=362).astype(float)
    assert sheather_jones_bandwidth(SampleBatch(x)) == pytest.approx(0.5460541812253596, rel=1e-13, abs=0.0)


def test_sj_bracket_ends_above_the_keep_cap_make_no_direct_pass(monkeypatch):
    # above the cap every pass takes the transform, and the bounds on both bracket ends
    # are O(1) in the pairs: no bound sums pairs directly
    calls = _record_pair_sums(monkeypatch)
    sheather_jones_bandwidth(SampleBatch(np.random.default_rng(800).normal(size=800)))
    assert calls == []


@pytest.mark.parametrize("n", [800, 3200])
def test_sj_bounds_decide_both_ends_of_band_like_samples(monkeypatch, n):
    # the quantile bands of the groups workload: a normal(50, 11) column rounded to
    # 3 decimals.  Both ends are decided by bounds, so the solve makes two passes
    # fewer than one whose ends take their exact passes, and none of them direct
    x = np.round(np.random.default_rng(n).normal(50.0, 11.0, n), 3)
    bound, signs, transforms, direct = estimation._sj_end_sign, [], [], []
    hermite, pair_sums = estimation._hermite_sums, estimation._pair_sums
    monkeypatch.setattr(estimation, "_hermite_sums", lambda u: transforms.append(u.size) or hermite(u))
    monkeypatch.setattr(estimation, "_pair_sums", lambda *args: direct.append(1) or pair_sums(*args))
    monkeypatch.setattr(estimation, "_sj_end_sign", lambda *args: signs.append(bound(*args)) or signs[-1])
    h = sheather_jones_bandwidth(SampleBatch(x))
    assert signs == [1.0, -1.0] and not direct
    bounded = len(transforms)
    del transforms[:]
    monkeypatch.setattr(estimation, "_sj_end_sign", lambda *args: 0.0)
    assert sheather_jones_bandwidth(SampleBatch(x)) == h
    assert not direct and len(transforms) == bounded + 2


@pytest.mark.parametrize("kind", ["normal", "rounded", "lattice", "three-valued", "cauchy"])
def test_sj_psi4_sum_is_positive_and_at_most_3_n_squared(kind):
    # the premise of the bracket ends' bounds: S, the sum over all (i, j), the diagonal
    # included, of psi(e_ij) = (4 e^2 + 12 e + 3) exp(e), e_ij = -((x_j - x_i) / g)^2 / 2,
    # is n^2 int (f'')^2 of the mean Gaussian kernel at width g / sqrt 2, so 0 < S <= 3 n^2
    # for every sample and width.  Summed in numpy's longdouble (80-bit on x86)
    rng = np.random.default_rng(35)
    draw = {
        "normal": lambda n: rng.normal(size=n),
        "rounded": lambda n: np.round(rng.normal(size=n), 1),
        "lattice": lambda n: rng.integers(0, 8, n) * 0.25,
        "three-valued": lambda n: rng.choice([0.0, 1.0, 2.5], n),
        "cauchy": lambda n: rng.standard_cauchy(n),
    }[kind]
    for _ in range(200):
        n = int(rng.integers(2, 121))
        x = draw(n).astype(np.longdouble)
        g = np.longdouble(10.0 ** rng.uniform(-4.0, 3.0)) * (np.std(x) or 1.0)  # ties alone: sd 0
        d = (x[:, None] - x[None, :]) / g
        e = -0.5 * d * d
        total = ((4 * e * e + 12 * e + 3) * np.exp(e)).sum()
        assert 0 < total <= 3 * n * n, (n, g, total)


@pytest.mark.parametrize("n", [200, 300, 362])
@pytest.mark.parametrize("kind", ["rounded", "grid"])
def test_sj_tie_heavy_kept_bandwidths_match_a_long_double_solve(kind, n):
    # ties put many pairs where psi dips, and the moments S_k cancel there: each
    # moment reduced whole by np.einsum("i->") moved these bandwidths by up to
    # 1.2e-13, by pairwise sums over runs 4.7e-15
    rng = np.random.default_rng(n)
    x = np.round(rng.normal(size=n), 1) if kind == "rounded" else np.round(rng.normal(0.0, 3.0, n))
    got = sheather_jones_bandwidth(SampleBatch(x))
    assert got == pytest.approx(sheather_jones_longdouble(x), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [5, 50, 200, 300, 362])
@pytest.mark.parametrize("kind", ["exponential", "normal", "rounded", "lognormal", "grid"])
def test_sj_pair_sums_keep_the_bits_of_one_polynomial_passes(kind, n):
    # one pass forms S_0 .. S_3 and returns psi4, psi6 and the slope; each must be,
    # bit for bit, what a pass of psi4 alone (S_0 .. S_2), psi6 alone or psi4 with
    # the slope gave, on the one chunk of all pairs a solve keeps and on chunks of
    # whole rows of the pairs within 6 widths (of at most 1,000 terms, so one run or
    # less each), from 0.01 to 10 pilot widths
    rng = np.random.default_rng(n)
    x = {
        "exponential": lambda: rng.exponential(size=n),
        "normal": lambda: rng.normal(size=n),
        "rounded": lambda: np.round(rng.normal(size=n), 1),
        "lognormal": lambda: rng.lognormal(0.0, 3.0, n),
        "grid": lambda: np.round(rng.normal(0.0, 3.0, n)),
    }[kind]()
    z = np.sort(x) / x.std(ddof=1)
    kept = list(estimation._near_squares(z, np.full(n, n), n * (n - 1) // 2))
    work = np.empty((2, estimation._BLOCK_TERMS))
    for g in _sj_pilot_width(z) * np.geomspace(0.01, 10.0, 7):
        ends = np.searchsorted(z, z + 6.0 * g, side="right")
        near = list(estimation._near_squares(z, ends, 1000))
        for squares in (kept, near):
            psi4, psi6, slope = estimation._pair_sums(squares, g, work)
            alone = pair_sums_by_polynomial(squares, g, estimation._PSI4, False, work)[0]
            assert _bits(psi4) == _bits(alone), (g, squares is kept)
            alone = pair_sums_by_polynomial(squares, g, estimation._PSI6, False, work)[0]
            assert _bits(psi6) == _bits(alone), (g, squares is kept)
            with_slope = pair_sums_by_polynomial(squares, g, estimation._PSI4, True, work)
            assert _bits((psi4, slope)) == _bits(with_slope), (g, squares is kept)


@pytest.mark.parametrize("n", [400, 1000, 1600, 2000, 3200])
def test_sj_working_memory_is_bounded(n):
    # a solve keeps its pairs, and allocates their pass buffers, only while they fit
    # one block of _BLOCK_TERMS, so its traced peak is at most about 1.5 MB at every n
    # (0.2-1.2 MB measured at these n)
    batch = SampleBatch(np.random.default_rng(n).normal(size=n))
    tracemalloc.start()
    try:
        sheather_jones_bandwidth(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak


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


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_sj_quartiles_match_numpy_percentile():
    # the quartiles are read off the sorted sample with np.percentile's arithmetic
    rng = np.random.default_rng(5)
    for n in range(5, 3001):
        vals = np.sort(rng.normal(size=n) * 10.0 ** int(rng.integers(-6, 7)))
        quartiles = [estimation._sorted_quantile(vals, p) for p in (0.75, 0.25)]
        assert _bits(quartiles) == _bits(np.percentile(vals, [75.0, 25.0])), n


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),  # ties
        st.floats(-1e150, 1e150),
        st.floats(0.9e150, 1e150),  # a spread near 1e150 far from 0
    ),
    min_size=5, max_size=80,
))
# np.sort leaves this sample's zeros as 0, -0, -0, -0, -0, so the 0.75 quartile
# read off the sorted sample is -0.0, where np.percentile's partition gives 0.0
@example([-1.0] * 5 + [0.0, -0.0, -0.0, -0.0, -0.0, 1.0])
def test_sj_quartiles_sweep_match_numpy_percentile(values):
    # + 0.0 reads -0.0 as 0.0: the sign of a zero quartile follows how numpy's
    # partition orders -0.0 and 0.0, and the bandwidth only tests IQR > 0
    vals = np.sort(np.asarray(values))
    quartiles = [estimation._sorted_quantile(vals, p) + 0.0 for p in (0.75, 0.25)]
    assert _bits(quartiles) == _bits(np.percentile(vals, [75.0, 25.0]) + 0.0)


def test_overflowing_spread_raises_degenerate_sample():
    # the variance of a spread of 1e155 overflows; it used to reach a division by zero
    rng = np.random.default_rng(2)
    x, y = 1e155 * rng.exponential(size=200), 5e154 * rng.exponential(size=200)
    with pytest.raises(DegenerateSample, match="spread overflows"):
        estimate_relative_extropy(SampleBatch(x), SampleBatch(y))


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 0.0, 0.0, 0.0, 1e-300, 1.0],
        [0.0, 0.0, 0.0, 0.0, 1e-46, 1.0],  # b**7 is subnormal, not 0
        [0.0] * 5 + [1e-200] * 3 + [1.0] * 2,
        [0.0] * 300 + [1e-300] * 100 + [1.0],  # n = 401: by default every pass takes the transform
    ],
)
def test_sj_underflowing_robust_scale_raises_degenerate_sample(sj_blocks, values):
    # the IQR is some 1e-300, 1e-200 or 1e-46 of the sd, and so are the pilot widths,
    # whose powers round to 0 or to subnormals: this raised a bare ZeroDivisionError,
    # or at 1e-46 named a sample too sparse for the pilot curvature functional
    with pytest.raises(DegenerateSample, match="robust scale .* underflows"):
        sheather_jones_bandwidth(SampleBatch(np.array(values)))


def test_sj_without_sign_change_raises_no_bracket(sj_blocks):
    # the outlier sets the sd, and the tight cluster puts the root of the
    # bandwidth equation below the bracket's lower end, 1e-3 sd n^(-1/5)
    x = np.concatenate([np.random.default_rng(1).normal(0.0, 1e-6, 199), [1.0]])
    with pytest.raises(NoBracket, match="no sign change"):
        sheather_jones_bandwidth(SampleBatch(x))


_BRACKET_SIZES = (5, 50, 200, 362, 363, 800, 3200)
# the heavy-tailed samples of the next test whose bandwidth equation has no sign change
_BRACKET_NO_SIGN_CHANGE = {"cauchy": (3200,), "lognormal": (50, 200, 3200)}


@pytest.mark.parametrize("kind", ["exponential", "normal", "rounded", "cauchy", "pareto", "lognormal"])
def test_sj_bracket_bounds_match_the_exact_passes(sj_blocks, monkeypatch, kind):
    # only the signs of F at the bracket ends reach the solve, so where the bounds
    # decide a sign every bandwidth, and every error, is the exact passes' own
    def outcome(x):
        try:
            return sheather_jones_bandwidth(SampleBatch(x)).hex()
        except Exception as exc:
            return type(exc), str(exc)

    bound, signs = estimation._sj_end_sign, []
    no_sign_change = []
    for n in _BRACKET_SIZES:
        rng = np.random.default_rng(n)
        x = {
            "exponential": lambda: rng.exponential(size=n),
            "normal": lambda: rng.normal(size=n),
            "rounded": lambda: np.round(rng.exponential(size=n), 1),  # ties
            "cauchy": lambda: rng.standard_cauchy(size=n),
            "pareto": lambda: rng.pareto(1.0, size=n),
            "lognormal": lambda: rng.lognormal(0.0, 3.0, size=n),
        }[kind]()
        monkeypatch.setattr(estimation, "_sj_end_sign", lambda *args: signs.append(bound(*args)) or signs[-1])
        del signs[:]
        got = outcome(x)
        monkeypatch.setattr(estimation, "_sj_end_sign", lambda *args: 0.0)
        exact = outcome(x)
        assert got == exact, n
        if kind in ("exponential", "normal", "rounded"):
            assert signs == [1.0, -1.0], n  # the bounds decided both ends
        if exact[0] is NoBracket:
            no_sign_change.append(n)
            # the root lies below the bracket, where F < 0: no bound decides that at the
            # lower end, so its exact pass does
            assert signs[0] == 0.0, n
    assert tuple(no_sign_change) == _BRACKET_NO_SIGN_CHANGE.get(kind, ())


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
    delta, bx, by, c = 0.7, 0.3, 0.5, -0.2
    sx = SampleBatch(np.array([0.0, 0.0]))
    sy = SampleBatch(np.array([delta, delta]))
    tau = math.hypot(bx, by)
    cross = math.exp(-0.5 * (delta / tau) ** 2) / (math.sqrt(2.0 * math.pi) * tau)
    xx = 1.0 / (2.0 * math.sqrt(math.pi) * bx)
    yy = 1.0 / (2.0 * math.sqrt(math.pi) * by)
    exact = 0.5 * (xx + yy - 2.0 * cross)
    value = estimate_pairwise_relative_extropy((sx, sy), (bx, by))[0, 1]
    assert abs(value - exact) <= 1e-14

    # on [c, inf), c at or below the data: each product of two kernels is a Gaussian of mean mu and sd s,
    # so it keeps the share Phi((mu - c) / s) of its integral
    mu, s = delta * bx**2 / tau**2, bx * by / tau
    exact_c = 0.5 * (
        xx * _phi((0.0 - c) / (bx / math.sqrt(2.0)))
        + yy * _phi((delta - c) / (by / math.sqrt(2.0)))
        - 2.0 * cross * _phi((mu - c) / s)
    )
    value_c = estimate_pairwise_relative_extropy((sx, sy), (bx, by), support_lower=c)[0, 1]
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
    value = estimate_pairwise_relative_extropy(
        (sx, sy), (bx, by), support_lower=support_lower, boundary_reflect=boundary_reflect
    )[0, 1]
    reference = _quadrature_estimate(sx, sy, bx, by, support_lower, boundary_reflect)
    assert abs(value - reference) <= 1e-12


@pytest.mark.parametrize("boundary_reflect", [False, True])
def test_pairwise_matrix_reuses_self_terms_exactly(boundary_reflect):
    # each group's int fhat^2 is computed once for all its pairs; every cell must
    # still equal the two-sample estimate at the same bandwidths
    groups = [("a", exp_batch(1.0, 120, 31)), ("b", exp_batch(2.0, 90, 32)),
              ("c", exp_batch(0.5, 150, 33)), ("d", exp_batch(1.0, 60, 34))]
    ds = GroupedDataset(groups=tuple(groups), dropped_rows=0)
    matrix = pairwise_matrix(ds, boundary_reflect=boundary_reflect)
    for i, j in itertools.combinations(range(len(groups)), 2):
        pair = estimate_pairwise_relative_extropy(
            (groups[i][1], groups[j][1]),
            (matrix.bandwidths[i], matrix.bandwidths[j]),
            boundary_reflect=boundary_reflect,
        )[0, 1]
        assert abs(matrix.values[i, j] - pair) <= 1e-15


def _gram_sample(kind, n, rng):
    return np.sort({
        "normal": lambda: rng.normal(size=n),
        "lognormal": lambda: rng.lognormal(size=n),
        "cauchy": lambda: rng.standard_cauchy(size=n),
        "bimodal": lambda: np.concatenate([rng.normal(size=n // 2), rng.normal(40.0, 1.0, n - n // 2)]),
        "rounded": lambda: np.round(rng.normal(50.0, 11.0, n), 3),  # ties, like the CSV bands
        "offset": lambda: 1e6 + rng.normal(size=n),
    }[kind]())


@pytest.mark.parametrize("n", [100, 400, 1600, 3200])
@pytest.mark.parametrize("kind", ["normal", "lognormal", "cauchy", "bimodal", "rounded", "offset"])
def test_gram_transform_matches_the_direct_sums(monkeypatch, kind, n):
    # self, cross and reflected-image sums at Silverman's robust widths, each by the
    # Hermite transform and by the direct sum; the bar, 1e-14 of each sum, is under
    # the 64 ulps (1.42e-14) the zero rule allows it.  The self sum at n = 100 keeps
    # every pair by default (below the keep cap); with the cap at 0 the path rule
    # takes the direct sum there, and by default the transform at n >= 1600
    rng = np.random.default_rng(n)
    x, y = _gram_sample(kind, n, rng), _gram_sample(kind, n + n // 3, rng)
    bx, by = (
        0.9 * min(s.std(ddof=1), (estimation._sorted_quantile(s, 0.75) - estimation._sorted_quantile(s, 0.25)) / 1.349)
        * s.size ** -0.2
        for s in (x, y)
    )
    c = min(x[0], y[0])  # reflection at the data's left end
    sums = {"self": (x, x, bx, bx), "cross": (x, y, bx, by), "image": (x, (2.0 * c - y)[::-1], bx, by)}
    default = estimation._GRAM_PAIRS_PER_BOX

    def gram(per_box, window=estimation._KERNEL_WINDOW):
        monkeypatch.setattr(estimation, "_GRAM_PAIRS_PER_BOX", per_box)
        monkeypatch.setattr(estimation, "_KERNEL_WINDOW", window)
        monkeypatch.setattr(estimation, "_SJ_KEEP_TERMS", 0)
        return {name: estimation._gram_sum(*args, None) for name, args in sums.items()}

    calls = _count_gram_transforms(monkeypatch)
    fast, direct = gram(-math.inf), gram(math.inf)
    assert calls == [1, 2, 2]  # each forced sum took the transform, no direct one did
    for name in ("self", "cross"):
        assert fast[name] == pytest.approx(direct[name], rel=1e-14, abs=0.0), name
    # the direct sum drops pairs beyond 8 tau, which is up to 1.3e-13 of a sparse
    # image sum (all of it for Cauchy tails); at 12 tau it drops below exp(-72)
    assert fast["image"] == pytest.approx(gram(math.inf, 12.0)["image"], rel=1e-14, abs=0.0)
    # the reflected pair's inner product, plain plus image, as the estimator sums it
    reflected = [r["cross"] + r["image"] for r in (fast, direct)]
    assert reflected[0] == pytest.approx(reflected[1], rel=1e-14, abs=0.0)
    if n == 100 or n >= 1600:
        assert gram(default)["self"] == (fast if n >= 1600 else direct)["self"]


def _count_gram_transforms(monkeypatch) -> list:
    """Record each Gram sum that takes the Hermite transform (its table has p columns)."""
    calls = []
    transform = estimation._hermite_transform

    def spy(us, table):
        if table.shape[-1] == estimation._FGT_TERMS:
            calls.append(len(us))
        return transform(us, table)

    monkeypatch.setattr(estimation, "_hermite_transform", spy)
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_estimate_within_rounding_is_zero_above_the_transform_cutover(monkeypatch, seed):
    # n = 1,600: the three Gram sums of each pair take the Hermite transform, and
    # x against x (1 + 1e-12), or 1e6 + x against it plus 1e-9, still cancels
    # within the zero rule's 64 ulps; identical groups give an exact 0
    calls = _count_gram_transforms(monkeypatch)
    x, y = near_identical_pair(seed, n=1600)
    z = 1e6 + np.random.default_rng(seed).normal(size=1600)
    for xs, ys in ((x, y), (z, z + 1e-9), (z, z)):
        batches = (SampleBatch(np.array(xs)), SampleBatch(np.array(ys)))
        bandwidths = tuple(sheather_jones_bandwidth(b) for b in batches)
        calls.clear()
        assert estimate_pairwise_relative_extropy(batches, bandwidths)[0, 1] == 0.0
        assert calls == [1, 1, 1 if ys is xs else 2]  # two self sums, then the cross sum


def test_far_dense_clusters_keep_the_direct_gram_sums(monkeypatch):
    # two dense clusters 1e5 and 1e6 boxes apart, at tau = 0.42: the offsets'
    # rounding moved the transform's sums past the zero rule's 64 ulps (these draws
    # gave 4.7e-15 and InvalidModel), so the path rule keeps them direct
    calls = _count_gram_transforms(monkeypatch)
    for apart, seed in ((0.424e5, 2), (0.424e6, 0)):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.normal(size=800), rng.normal(apart, 1.0, 800)])
        batches = (SampleBatch(x), SampleBatch(x * (1.0 + 1e-12)))
        assert estimate_pairwise_relative_extropy(batches, (0.3, 0.3 * (1.0 + 1e-12)))[0, 1] == 0.0
    assert calls == []


def test_gram_offsets_that_overflow_keep_the_direct_sum():
    # (y - centre) / tau overflows for the last point of y: the transform would
    # give NaN, which the zero rule read as 0.0; the direct sum drops the pair
    rng = np.random.default_rng(0)
    x, y = np.sort(rng.normal(size=3000)), np.sort(np.append(rng.normal(size=3000), 1.7e308))
    with np.errstate(over="ignore"):
        got = estimation._gram_sum(x, y, 0.3, 0.3, None)
    want = estimation._gram_sum(x, y[:-1], 0.3, 0.3, None) * (y.size - 1) / y.size
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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


# --- one gather of each small sample's pairs -------------------------------------------


@pytest.mark.parametrize("n", [5, 50, 200, 362, 363])
@pytest.mark.parametrize(
    "options", [{}, {"support_lower": 0.0}, {"boundary_reflect": True}], ids=["line", "bounded", "reflected"]
)
def test_estimate_hands_its_pair_squares_on_with_the_bits_of_given_bandwidths(monkeypatch, n, options):
    # each solve hands the squares it kept to its sample's own int fhat^2, where the
    # route with given bandwidths gathers them anew: the two give the same bits, and
    # the estimator gathers each sample's pairs once (none above the keep cap)
    sx, sy = exp_batch(1.0, n, 3800 + n), exp_batch(2.0, n, 3900 + n)
    gathers, gather = [], estimation._pair_squares
    monkeypatch.setattr(estimation, "_pair_squares", lambda *args: gathers.append(args) or gather(*args))
    got = estimate_relative_extropy(sx, sy, **options)
    assert [args[0] for args in gathers] == ([sx.values, sy.values] if n <= 362 else [])
    bandwidths = (sheather_jones_bandwidth(sx), sheather_jones_bandwidth(sy))
    want = estimate_pairwise_relative_extropy((sx, sy), bandwidths, **options)[0, 1]
    assert got.hex() == float(want).hex()


@pytest.mark.parametrize("n", [5, 50, 200, 362])
@pytest.mark.parametrize("kind", ["normal", "exponential", "rounded", "lognormal"])
def test_small_self_sums_add_up_every_pair(kind, n):
    # below the keep cap a self sum takes every pair of the sample's squares, with no
    # window: within the zero rule's _SUM_ROUNDING of an all-pairs long-double sum, from
    # a tenth of Silverman's width to ten times it
    rng = np.random.default_rng(n)
    x = np.sort({
        "normal": lambda: rng.normal(size=n),
        "exponential": lambda: rng.exponential(size=n),
        "rounded": lambda: np.round(rng.normal(50.0, 11.0, n)),  # ties
        "lognormal": lambda: rng.lognormal(0.0, 3.0, n),
    }[kind]())
    for b in 0.9 * x.std(ddof=1) * n**-0.2 * np.array([0.1, 1.0, 10.0]):
        got = estimation._gram_sum(x, x, b, b, None)
        assert got == pytest.approx(self_gram_longdouble(x, b), rel=estimation._SUM_ROUNDING, abs=0.0), b


@pytest.mark.parametrize("n", [2, 5, 200])
def test_constant_sample_self_sum_is_exactly_n_squared_pairs(n):
    # sd = 0: the squares stay on the data's own scale, all exactly 0, so the pairs sum
    # to n^2 exactly; numpy raises here on any division by 0, and Python always does
    x, b = np.full(n, 3.7), 0.4
    tau = math.hypot(b, b)
    with np.errstate(all="raise"):
        assert estimation._gram_sum(x, x, b, b, None) == n * n / (n * n * estimation._SQRT_2PI * tau)
        if n >= 5:  # a constant sample has no bandwidth of its own, but takes a given one
            values = estimate_pairwise_relative_extropy((SampleBatch(x), SampleBatch(x + 1.0)), (b, b))
            assert values[0, 1] == values[1, 0] > 0.0


def test_small_self_sum_at_a_tiny_width_keeps_its_ties():
    # at a width 1e-170 of the sd, (sd / tau)^2 overflows: each of the 2 n^2 pairs of
    # ties still weighs 1, and every other pair 0 (-0.5 / tau^2 once divided by 0)
    n, b = 5, 1e-170
    ties = np.repeat([0.0, 1.0], n)
    want = (2 * n * n) / (4 * n * n * estimation._SQRT_2PI * math.hypot(b, b))
    with np.errstate(over="ignore"):  # the other pairs' exponents overflow to -inf
        got = estimation._gram_sum(ties, ties, b, b, None)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_pair_squares_match_an_outer_difference_oracle():
    # the one gather of a sample's pairs: the upper triangle of its standardized
    # differences, row by row, bit for bit, at every size up to the keep cap
    rng = np.random.default_rng(362)
    for n in range(5, 363):
        x = np.sort(rng.lognormal(size=n))
        sd = float(x.std(ddof=1))
        scale, block = estimation._pair_squares(x, sd)
        assert scale == sd and block.shape == (3, n * (n - 1) // 2)
        assert np.array_equal(block[0], upper_squares(x / sd)), n
    assert estimation._upper_pairs.cache_info().currsize <= 2


_FAULTS_SCRIPT = """
import resource
import numpy as np
from extropy import SampleBatch, estimate_relative_extropy
rng = np.random.default_rng(200)
draws = [(rng.exponential(size=200), rng.exponential(0.5, size=200)) for _ in range(60)]

def faults(pairs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for x, y in pairs:
        estimate_relative_extropy(SampleBatch(x), SampleBatch(y), support_lower=0.0)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(draws[:10])
print(faults(draws[10:]))
"""


def test_warm_estimates_take_few_page_faults():
    # each sample's pair squares and its solve's work rows are one array, freed after
    # the sample's own int fhat^2.  After a warm-up, 50 estimates at n = 200 took 0 to 2
    # minor page faults; with the squares held on each batch for its lifetime they took
    # 13,950-18,150.  The count runs in a fresh interpreter, as the CLI does: in the
    # heap of a test process that has imported scipy the held squares took 1
    env = dict(os.environ, PYTHONPATH=str(Path(estimation.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) <= 100, run.stdout


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


def fail_on(reps, error=DegenerateSample):
    """An estimator that raises ``error`` on the calls numbered in ``reps``, else 0.1."""
    counter = itertools.count()

    def estimate(*a, **k):
        rep = next(counter)
        if rep in reps:
            raise error(f"forced {rep}")
        return 0.1

    return estimate


def test_mc_study_records_failed_replications(monkeypatch):
    import extropy.estimation as est

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


def test_mc_study_propagates_a_programming_error(monkeypatch):
    # only a package error is a failed replication: a TypeError in 1 of 100
    # replications was once recorded as one, and above 1% reported as DegenerateSample
    import extropy.estimation as est

    monkeypatch.setattr(est, "estimate_relative_extropy", fail_on({42}, TypeError))
    with pytest.raises(TypeError, match="forced 42"):
        mc_bias_mse(_cfg(n=10, reps=100))


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
