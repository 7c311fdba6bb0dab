"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from statistics import NormalDist

import numpy as np

from extropy import (
    ExponentialParams,
    PerturbationQuery,
    QuadratureSpec,
    SeededSampler,
    TimeGrid,
    constancy_detector,
    decompose_relative,
    extropy,
    extropy_inaccuracy,
    global_decompositions,
    hazard_repr_inaccuracy,
    hazard_repr_relative,
    load_csv,
    make_model,
    mc_bias_mse,
    McStudyConfig,
    ode_check_divergence,
    ode_check_relative,
    pairwise_matrix,
    past_divergence,
    past_relative,
    perturbation_approx,
    relative_extropy,
    residual_divergence,
    residual_inaccuracy,
    residual_relative,
    sample_batch,
)
from extropy.distributions import closed_form_relative_exponential
from conftest import random_params
from oracles import (
    efficient_sd_relative_exponential,
    efficient_variances_relative_exponential,
    rel_extropy_trap,
)

Q = QuadratureSpec()
TOL10 = 10 * Q.abs_tol
DEFAULT_SEED = 20260810


def record(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_agreement(exp1, exp2):
    start = time.time()
    e2 = make_model(ExponentialParams(2.0))
    e5 = make_model(ExponentialParams(5.0))
    d12 = relative_extropy(exp1, exp2, Q).value
    d25 = relative_extropy(e2, e5, Q).value
    gap12 = abs(d12 - closed_form_relative_exponential(1.0, 2.0))
    gap25 = abs(d25 - closed_form_relative_exponential(2.0, 5.0))
    elapsed = time.time() - start
    ok = (
        abs(d12 - 0.0833) < 5e-5
        and abs(d25 - 0.32143) < 5e-6
        and gap12 <= 1e-6
        and gap25 <= 1e-6
        and elapsed < 1.0
    )
    record(1, ok, f"d12={d12:.6f} d25={d25:.6f} closed-form gaps {gap12:.2e}/{gap25:.2e}, {elapsed:.2f}s")


def test_criterion_2_weibull_table_target(weib_15_2, weib_2_3):
    def pdf(k, s):
        return lambda x: np.where(x > 0, (k / s) * (x / s) ** (k - 1) * np.exp(-((x / s) ** k)), 0.0)

    oracle = rel_extropy_trap(pdf(1.5, 2.0), pdf(2.0, 3.0), 1e-12, 40.0)
    value = relative_extropy(weib_15_2, weib_2_3, Q).value
    published_gap = abs(oracle - 0.03414)
    ok = abs(value - oracle) <= 1e-6
    record(
        2,
        ok,
        f"quadrature={value:.9f} oracle={oracle:.9f} (|oracle-0.03414|={published_gap:.2e}: "
        f"shape/scale parametrization {'matches' if published_gap < 0.05 * 0.03414 else 'differs'})",
    )


def _valid_t(mx, my):
    for t in (0.3, 0.5, 0.8, 1.2, 0.15):
        values = [float(f(t)) for f in (mx.cdf, my.cdf, mx.survival, my.survival)]
        if min(values) > 1e-3:
            return t
    return None


def test_criterion_3_identity_suite():
    start = time.time()
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    checked_dynamic = 0
    for _ in range(50):
        mx = make_model(random_params(rng))
        my = make_model(random_params(rng))
        fg, gf, d = decompose_relative(mx, my, Q)
        worst = max(worst, abs(fg + gf - d))
        xi = extropy_inaccuracy(mx, my, Q).value
        jx, jy = extropy(mx, Q).value, extropy(my, Q).value
        worst = max(worst, abs(d - (2 * xi - jx - jy)))
        t = _valid_t(mx, my)
        if t is not None:
            checked_dynamic += 1
            res_sum = (
                residual_divergence(mx, my, t, Q).value
                + residual_divergence(my, mx, t, Q).value
                - residual_relative(mx, my, t, Q).value
            )
            past_sum = (
                past_divergence(mx, my, t, Q).value
                + past_divergence(my, mx, t, Q).value
                - past_relative(mx, my, t, Q).value
            )
            worst = max(worst, abs(res_sum), abs(past_sum))
    elapsed = time.time() - start
    ok = worst <= TOL10 and elapsed < 30.0
    record(3, ok, f"50 pairs ({checked_dynamic} with dynamic sums), worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_ode_suite(exp1, exp2, weib21, weib_15_2, weib_2_3):
    grid = TimeGrid(points=tuple(np.linspace(0.1, 1.0, 10)))
    exp_rel = ode_check_relative(exp1, exp2, grid, Q)
    exp_div = ode_check_divergence(exp1, exp2, grid, Q)
    worst_mixed = 0.0
    for pair in ((exp1, weib21), (weib_15_2, weib_2_3)):
        worst_mixed = max(
            worst_mixed,
            ode_check_relative(*pair, grid, Q).max_abs_residual,
            ode_check_divergence(*pair, grid, Q).max_abs_residual,
        )
    ok = (
        exp_rel.max_abs_residual <= 1e-6
        and exp_div.max_abs_residual <= 1e-6
        and worst_mixed <= 1e-3
    )
    record(
        4,
        ok,
        f"exponential residuals {exp_rel.max_abs_residual:.2e}/{exp_div.max_abs_residual:.2e}, "
        f"mixed pairs worst {worst_mixed:.2e}",
    )


def test_criterion_5_decomposition_suite(exp1, exp2, weib21, weib_15_2):
    pairs = ((exp1, exp2), (exp1, weib21), (weib_15_2, exp2))
    ts = (0.2, 0.5, 0.8, 1.2, 1.6)
    worst = 0.0
    for mx, my in pairs:
        for t in ts:
            worst = max(worst, global_decompositions(mx, my, t, Q, tol=1e-6).max_abs_residual)
    ok = worst <= 1e-6
    record(5, ok, f"3 pairs x 5 times, worst residual {worst:.2e}")


def test_criterion_6_hazard_representation(exp1, exp2, weib21):
    gaps = []
    for t in (0.2, 0.6):
        recon = hazard_repr_inaccuracy(1.0, lambda x: 2.0, t, Q, cumulative_hazard_y=lambda x: 2.0 * x)
        gaps.append(abs(recon - residual_inaccuracy(exp1, exp2, t, Q).value))
        recon = hazard_repr_relative(1.0, lambda x: 2.0, t, Q, cumulative_hazard_y=lambda x: 2.0 * x)
        gaps.append(abs(recon - residual_relative(exp1, exp2, t, Q).value))
        recon = hazard_repr_inaccuracy(1.0, lambda x: 2.0 * x, t, Q, cumulative_hazard_y=lambda x: x * x)
        gaps.append(abs(recon - residual_inaccuracy(exp1, weib21, t, Q).value))
        recon = hazard_repr_relative(1.0, lambda x: 2.0 * x, t, Q, cumulative_hazard_y=lambda x: x * x)
        gaps.append(abs(recon - residual_relative(exp1, weib21, t, Q).value))
    worst = max(gaps)
    record(6, worst <= 1e-4, f"constant and increasing hazards, worst gap {worst:.2e}")


def test_criterion_7_perturbation_approximation():
    lam, delta = 2.0, 0.01
    pq = PerturbationQuery(family="exponential", theta=lam, delta_theta=delta)
    _, exact = perturbation_approx(pq, Q)
    ratio = exact / (delta**2 / (8.0 * lam))
    quoted_ratio = exact / (delta**2 / (4.0 * lam))
    ok = 0.95 <= ratio <= 1.05
    record(
        7,
        ok,
        f"exact/(delta^2/(8 lam))={ratio:.4f} in [0.95,1.05]; against the often-quoted "
        f"delta^2/(4 lam) the ratio is {quoted_ratio:.4f} (inconsistent with the closed form)",
    )


def test_criterion_8_simulation_reproduction():
    start = time.time()
    biases = []
    detail_rows = []
    for n in (50, 75, 100):
        cfg = McStudyConfig(
            family_x=ExponentialParams(1.0),
            family_y=ExponentialParams(2.0),
            n=n,
            reps=500,
            seed=DEFAULT_SEED,
            true_value=1.0 / 12.0,
        )
        row = mc_bias_mse(cfg)
        biases.append(row.bias)
        detail_rows.append(f"n={n}: bias={row.bias:+.5f} mse={row.mse:.6f}")
    elapsed = time.time() - start
    monotone = abs(biases[0]) > abs(biases[1]) > abs(biases[2])
    small_final = abs(biases[2]) < 0.02
    ok = monotone and small_final and elapsed < 300.0
    record(
        8,
        ok,
        f"{'; '.join(detail_rows)}; |bias| monotone={monotone}, |bias(100)|<0.02={small_final}, "
        f"{elapsed:.0f}s (reps=500, seed={DEFAULT_SEED}, lower limit 0 as in the estimator's "
        f"defining integral)",
    )


def test_criterion_9_characterization_falsification(exp1, exp2, weib21):
    ts = np.linspace(0.1, 1.0, 10)
    exp_values = [(t, residual_inaccuracy(exp1, exp2, t, Q).value) for t in ts]
    exp_constant = constancy_detector(exp_values, tol=1e-6)
    weib_values = [(t, residual_inaccuracy(exp1, weib21, t, Q).value) for t in ts]
    spread = max(v for _, v in weib_values) - min(v for _, v in weib_values)
    ok = exp_constant and not constancy_detector(weib_values, tol=1e-3) and spread > 1e-3
    record(
        9,
        ok,
        f"exponential pair constant to 1e-6: {exp_constant}; exp-vs-weibull spread {spread:.4f} > 1e-3",
    )


def test_criterion_10_pipeline_property(tmp_path):
    # (a) two groups from one seeded Exp(1) population
    sampler = SeededSampler(DEFAULT_SEED)
    a = sample_batch(ExponentialParams(1.0), 200, sampler, substream=0)
    b = sample_batch(ExponentialParams(1.0), 200, sampler, substream=1)
    rows = ["g,v"] + [f"a,{v:.17g}" for v in a.values] + [f"b,{v:.17g}" for v in b.values]
    same_csv = tmp_path / "same.csv"
    same_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    ds = load_csv(str(same_csv), "v", group_column="g")
    same_entry = float(pairwise_matrix(ds).values[0, 1])

    # (b) Exp(1) vs Exp(2) groups at n=200 across 100 seeds, full CSV pipeline
    truth, half_width = 1.0 / 12.0, 0.03
    entries = []
    for seed in range(100):
        s = SeededSampler(seed)
        gx = sample_batch(ExponentialParams(1.0), 200, s, substream=0)
        gy = sample_batch(ExponentialParams(2.0), 200, s, substream=1)
        rows = ["g,v"] + [f"x,{v:.17g}" for v in gx.values] + [f"y,{v:.17g}" for v in gy.values]
        csv_path = tmp_path / f"pair_{seed}.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        entries.append(float(pairwise_matrix(load_csv(str(csv_path), "v", group_column="g")).values[0, 1]))
    entries = np.array(entries)
    mean, sd = float(entries.mean()), float(entries.std(ddof=1))
    rmse = float(np.sqrt(np.mean((entries - truth) ** 2)))
    hits = int(np.sum(np.abs(entries - truth) <= half_width))

    # No regular estimator has sd below the information bound sigma_eff, so a
    # per-draw window of +/-0.03 holds 90% of draws only from n_90 per group on.
    # The bar is on the centre of the 100 draws (standard error sigma_eff/10)
    # and on their spread relative to sigma_eff.
    sigma = efficient_sd_relative_exponential(1.0, 2.0, 200, 200)
    var_x, var_y = efficient_variances_relative_exponential(1.0, 2.0)
    z90 = NormalDist().inv_cdf(0.95)
    n_90 = math.ceil((var_x + var_y) * (z90 / half_width) ** 2)
    centred = abs(mean - truth) <= half_width
    spread_ok = sd <= 1.2 * sigma
    ok = same_entry < 0.01 and centred and spread_ok
    record(
        10,
        ok,
        f"same-population entry {same_entry:.5f} (<0.01: {same_entry < 0.01}); "
        f"100 seeds at n=200: mean {mean:.4f} (|mean-1/12|<={half_width}: {centred}), "
        f"sd {sd:.4f} = {sd / sigma:.2f} sigma_eff (<=1.2: {spread_ok}), rmse {rmse:.4f}; "
        f"sigma_eff(200,200)={sigma:.5f}, so +/-{half_width} holds 90% of draws only from "
        f"n={n_90} per group; {hits}/100 seeds within +/-{half_width} (reported, not required)",
    )


def test_criterion_11_determinism(tmp_path):
    from extropy.cli import main

    sim_args = lambda sub: [
        "simulate", "--family-x", "exp:rate=1", "--family-y", "exp:rate=2",
        "--n", "30", "--reps", "5", "--seed", str(DEFAULT_SEED), "--out", str(tmp_path / sub),
    ]
    assert main(sim_args("s1")) == 0
    assert main(sim_args("s2")) == 0
    sim_ok = all(
        (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
        for name in ("report.json", "study.csv")
    )

    rng = np.random.default_rng(4)
    rows = ["arm,value"] + [
        f"{'a' if i % 2 else 'b'},{float(rng.gamma(2.0, 1.0)):.6f}" for i in range(80)
    ]
    csv_path = tmp_path / "groups.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    grp_args = lambda sub: [
        "groups", str(csv_path), "--value-col", "value", "--group-col", "arm",
        "--out", str(tmp_path / sub),
    ]
    assert main(grp_args("g1")) == 0
    assert main(grp_args("g2")) == 0
    grp_ok = all(
        (tmp_path / "g1" / name).read_bytes() == (tmp_path / "g2" / name).read_bytes()
        for name in ("report.json", "matrix.csv", "heatmap.svg")
    )
    record(11, sim_ok and grp_ok, f"simulate byte-identical: {sim_ok}; groups byte-identical: {grp_ok}")
