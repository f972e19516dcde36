"""Calibrations, profiles, solvers, and the failure frontier.

Reference values come from three independent sources: the misuse-table and
failure-frontier numbers reported for the construction (asserted at their
published precision), 50-digit mpmath re-evaluations of the closed forms
(frozen literals), and self-consistency oracles (defining-equation residuals
and profile inversion).
"""

import math
import random
import statistics
import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from gaussdp import calib
from gaussdp.calib import (
    DEFAULT_TOL,
    MECHANISM_ORDER,
    ConvergenceError,
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    achieves_dp,
    calibrate,
    compare_grid,
    dp_delta_profile,
    dp_opt_zero_eps,
    failure_threshold,
    pdp_delta_profile,
    sigma_dwork2006,
    sigma_dwork2014,
    sigma_mech1,
    sigma_mech2,
    sigma_mech3,
    sigma_mech4,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.mech import privacy_loss_sample
from gaussdp.relations import sigma_via_cdp_route
from gaussdp.specfun import erfcx, inverfc, inverfc_seed
from oracles import (
    oracle_dp_delta,
    oracle_dp_opt_sigma,
    oracle_erfinv,
    oracle_failure_threshold,
    rel_err,
)

UNIT = Sensitivity(1.0)

# 50-digit oracle evaluations of the closed forms (see oracles.py)
MECH1_SIGMA_1_1E5 = 4.1336112309822967848924646480470554455295211029441
MECH2_SIGMA_1_1E5 = 4.6088580830403442992549183086012291115382905129985
MECH3_SIGMA_2_01 = 1.0585900095595668642106812555365482302500021532893

GRID_EPS = (0.01, 0.05, 0.1, 0.5, 1.0)
GRID_DELTA = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def budget(eps, delta):
    return PrivacyBudget(eps, delta)


# --- domain types ----------------------------------------------------------


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 0.1)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1.0)
    with pytest.raises(ValueError):
        Sensitivity(-1.0)
    with pytest.raises(ValueError):
        NoiseScale(-0.5, Mechanism.DP_OPT)


# --- classical calibrations -------------------------------------------------


def test_dwork2006_misuse_row():
    got = sigma_dwork2006(budget(10, 0.1), UNIT).sigma
    assert abs(got - 0.2448) <= 1e-4


def test_dwork2006_zero_sensitivity():
    assert sigma_dwork2006(budget(1, 1e-5), Sensitivity(0.0)).sigma == 0.0


def test_dwork2006_linear_in_sensitivity():
    one = sigma_dwork2006(budget(1, 1e-5), UNIT).sigma
    two = sigma_dwork2006(budget(1, 1e-5), Sensitivity(2.0)).sigma
    assert two == 2.0 * one


@pytest.mark.parametrize(
    "eps,delta,expected",
    [(10, 0.01, 0.3108), (10, 1e-5, 0.4845), (10, 1e-3, 0.3776)],
)
def test_dwork2014_misuse_rows(eps, delta, expected):
    assert abs(sigma_dwork2014(budget(eps, delta), UNIT).sigma - expected) <= 1e-4


@pytest.mark.parametrize("delta", [0.3, 1e-5, 1e-300, 1e-310, 5e-324])
@pytest.mark.parametrize("kind", ["dwork2006", "dwork2014", "cdp-route"])
def test_log_delta_forms_at_subnormal_delta(kind, delta):
    # c / delta overflows for subnormal delta; ln c - ln delta stays finite
    eps = 0.5
    log_inv = -mp.log(mpf(delta))  # exact: repr(5e-324) is not the double
    if kind == "cdp-route":
        true = (mp.sqrt(log_inv) + mp.sqrt(log_inv + eps)) / (mp.sqrt(2) * eps)
    else:
        c = mpf(2) if kind == "dwork2006" else mpf("1.25")
        true = mp.sqrt(2 * (mp.log(c) + log_inv)) / eps
    assert rel_err(calibrate(kind, budget(eps, delta), UNIT).sigma, true) <= 1e-14


# --- profiles ---------------------------------------------------------------


def test_dp_profile_inverts_calibration():
    noise = solve_dp_opt(budget(10, 0.01), UNIT).noise
    assert abs(dp_delta_profile(noise, 10, UNIT) - 0.01) <= 1e-9


def test_dp_profile_flags_dwork2014_shortfall():
    # 0.3108 < 0.3501, so Dwork-2014's sigma under-delivers at (10, 0.01)
    assert dp_delta_profile(NoiseScale(0.3108, Mechanism.DWORK2014), 10, UNIT) > 0.01


def test_dp_profile_decreasing_in_sigma():
    deltas = [
        dp_delta_profile(NoiseScale(s, Mechanism.DP_OPT), 1, UNIT)
        for s in (1.0, 10.0, 100.0)
    ]
    assert deltas[0] > deltas[1] > deltas[2] >= 0.0


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-4])
def test_dp_profile_small_eps_against_oracle(eps):
    # erfcx(a) - erfcx(sqrt(a^2 + eps)) would lose a relative 2a^2/eps of
    # digits to cancellation if it were subtracted at small eps
    for a in (0.0, 0.01, 0.5, 2.0, 5.0, 10.0, 20.0):
        sigma = (a + math.sqrt(a * a + eps)) / (eps * math.sqrt(2.0))
        got = dp_delta_profile(NoiseScale(sigma, Mechanism.DP_OPT), eps, UNIT)
        assert rel_err(got, oracle_dp_delta(sigma, eps)) <= 1e-11, a


def test_oracle_dp_delta_keeps_its_digits_through_cancellation():
    # at eps 1e-100 erfc(a) and e^eps erfc(b) are both 1 to 50 digits; the
    # value is the profile at 200 digits
    assert rel_err(oracle_dp_delta(4e49, 1e-100), "9.97355701003581748218092495e-51") <= 1e-10


def test_pdp_profile_inverts_calibration():
    noise = solve_pdp_opt(budget(1, 1e-5), UNIT).noise
    assert abs(pdp_delta_profile(noise, 1, UNIT) - 1e-5) <= 1e-9


def test_pdp_profile_dominates_dp_profile():
    for i in range(20):
        eps = 10 ** (-2 + 4 * i / 19)  # 1e-2 .. 1e2
        for j in range(20):
            sigma = 10 ** (-1 + 2 * j / 19)  # 0.1 .. 10
            noise = NoiseScale(sigma, Mechanism.DP_OPT)
            assert pdp_delta_profile(noise, eps, UNIT) >= dp_delta_profile(
                noise, eps, UNIT
            )


def test_pdp_profile_monte_carlo_agreement():
    # empirical Pr[|L| > eps] over 1e6 privacy-loss samples at (1, sigma=2)
    eps, sigma, n = 1.0, 2.0, 1_000_000
    expected = pdp_delta_profile(NoiseScale(sigma, Mechanism.DP_OPT), eps, UNIT)
    got = privacy_loss_sample(1.0, sigma, eps, n, seed=2024)
    stderr = math.sqrt(expected * (1.0 - expected) / n)
    assert abs(got - expected) <= 3.0 * stderr


@pytest.mark.parametrize("sigma,expected", [(1e200, 0.0), (1e-200, 1.0)])
def test_profiles_total_at_extreme_sigma(sigma, expected):
    # a*a overflows here; both profiles are exactly 0 or 1 in double precision
    noise = NoiseScale(sigma, Mechanism.DP_OPT)
    for eps in (1e-8, 1.0, 1e8):
        assert dp_delta_profile(noise, eps, UNIT) == expected
        assert pdp_delta_profile(noise, eps, UNIT) == expected


@pytest.mark.parametrize("eps", [1e-8, 1.0, 1e8])
def test_profiles_saturate_where_sigma_over_sensitivity_underflows(eps):
    # sigma / Delta = 1e-300 / 1e300 underflows to 0, the a -> -inf limit
    noise, sens = NoiseScale(1e-300, Mechanism.DP_OPT), Sensitivity(1e300)
    assert dp_delta_profile(noise, eps, sens) == 1.0
    assert pdp_delta_profile(noise, eps, sens) == 1.0
    assert achieves_dp(noise, PrivacyBudget(eps, 0.5), sens) is False


def test_profile_domain_errors():
    with pytest.raises(ValueError):
        dp_delta_profile(NoiseScale(0.0, Mechanism.DP_OPT), 1, UNIT)
    with pytest.raises(ValueError):
        pdp_delta_profile(NoiseScale(1.0, Mechanism.DP_OPT), 1, Sensitivity(0.0))


# --- optimal DP solver ------------------------------------------------------


@pytest.mark.parametrize(
    "eps,delta,expected",
    [
        (10, 0.01, 0.3501),
        (10, 0.1, 0.2818),
        (10, 1e-3, 0.4061),
        (6, 0.1, 0.3813),
        (8, 0.1, 0.3215),
    ],
)
def test_dp_opt_least_noise_rows(eps, delta, expected):
    assert abs(solve_dp_opt(budget(eps, delta), UNIT).noise.sigma - expected) <= 5e-4


def test_dp_opt_zero_root_case():
    # delta chosen so 2*delta == 1 - e^eps erfc(sqrt(eps)) exactly: a == 0 and
    # sigma collapses to Delta/sqrt(2 eps), which misses its own DP profile by
    # 1.1e-16 in floating point; the certificate raises it by a few ulps
    eps = 1.0
    delta = (1.0 - erfcx(math.sqrt(eps))) / 2.0
    result = solve_dp_opt(budget(eps, delta), UNIT)
    assert result.root == 0.0
    assert result.iterations == 0
    closed_form = 1.0 / math.sqrt(2.0 * eps)
    assert dp_delta_profile(result.noise, eps, UNIT) <= delta
    assert closed_form <= result.noise.sigma <= closed_form + 4 * math.ulp(closed_form)


def test_dp_opt_telemetry_invariants():
    result = solve_dp_opt(budget(2.0, 1e-4), UNIT)
    assert result.bracket_low <= result.root <= result.bracket_high
    # the residual is the one the certified sigma achieves on its profile
    assert result.residual == 2 * (dp_delta_profile(result.noise, 2.0, UNIT) - 1e-4)
    assert -1e-9 <= result.residual <= 0.0
    assert result.iterations <= 200


def test_dp_opt_negative_root_branch():
    # 1 - e^eps erfc(sqrt(eps)) < 2 delta forces a < 0 (tiny eps, fat delta)
    result = solve_dp_opt(budget(0.01, 0.4), UNIT)
    assert result.bracket_low < result.root <= 0.0
    assert result.residual == 2 * (dp_delta_profile(result.noise, 0.01, UNIT) - 0.4)
    assert -1e-9 <= result.residual <= 0.0
    assert abs(dp_delta_profile(result.noise, 0.01, UNIT) - 0.4) <= 1e-9


def test_dp_opt_accepts_large_delta():
    # delta >= 0.5 stays in scope for the solver (negative-root branch)
    result = solve_dp_opt(budget(2.0, 0.7), UNIT)
    assert result.root < 0.0
    assert abs(dp_delta_profile(result.noise, 2.0, UNIT) - 0.7) <= 1e-9


def test_dp_opt_zero_sensitivity():
    assert solve_dp_opt(budget(1, 1e-4), Sensitivity(0.0)).noise.sigma == 0.0


@pytest.mark.parametrize("solve", (solve_dp_opt, solve_pdp_opt))
def test_solver_unreachable_tolerance(solve):
    with pytest.raises(ConvergenceError):
        solve(budget(1, 1e-4), UNIT, tol=1e-40)


# --- optimal pDP solver -----------------------------------------------------


def test_pdp_opt_bracket_lemma():
    result = solve_pdp_opt(budget(1, 1e-3), UNIT)
    assert inverfc(2e-3) < result.root < inverfc(1e-3)
    # the solver's bracket for delta < 0.5: [0, mechanism 4's constant]
    assert result.bracket_low == 0.0
    assert result.bracket_high == inverfc_seed(1e-3)


def test_pdp_opt_needs_more_noise_than_dp_opt():
    b = budget(1, 1e-4)
    assert solve_pdp_opt(b, UNIT).noise.sigma >= solve_dp_opt(b, UNIT).noise.sigma


def test_pdp_opt_large_eps_asymptote():
    sigma = solve_pdp_opt(budget(1e6, 0.01), UNIT).noise.sigma
    assert 0.99 <= sigma * math.sqrt(2e6) <= 1.01


def test_pdp_opt_residual():
    result = solve_pdp_opt(budget(0.5, 1e-5), UNIT)
    assert result.bracket_low <= result.root <= result.bracket_high
    assert result.residual == 2 * (pdp_delta_profile(result.noise, 0.5, UNIT) - 1e-5)
    assert -1e-9 <= result.residual <= 0.0


def test_pdp_opt_accepts_large_delta():
    # bracket lower end inverfc(2 delta) goes negative for delta > 0.5
    result = solve_pdp_opt(budget(0.5, 0.7), UNIT)
    assert result.bracket_low < 0.0 < result.bracket_high
    assert abs(pdp_delta_profile(result.noise, 0.5, UNIT) - 0.7) <= 1e-9


# --- solver guarantees ------------------------------------------------------

SOLVERS = (
    (solve_dp_opt, dp_delta_profile),
    (solve_pdp_opt, pdp_delta_profile),
)
SWEEP_EPS = tuple(10.0**k for k in range(-8, 9))
SWEEP_DELTA = (
    5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-12, 1e-6, 1e-3,
    0.1, 0.5, 0.7, 1 - 1e-9,
)


def test_solver_evaluations_on_request_ranges():
    # the ranges of single calibrate requests: eps, delta and sensitivity
    # log-uniform on [1e-2, 50], [1e-12, 1e-1] and [1e-3, 1e3]
    rng = random.Random(2024)
    for _ in range(2000):
        eps, delta, sens = (
            math.exp(rng.uniform(math.log(lo), math.log(hi)))
            for lo, hi in ((1e-2, 50.0), (1e-12, 1e-1), (1e-3, 1e3))
        )
        for solve, _ in SOLVERS:
            result = solve(budget(eps, delta), Sensitivity(sens))
            assert result.iterations <= 6, (solve.__name__, eps, delta)


def test_pdp_opt_evaluations_at_large_delta():
    # at delta >= 0.5 and large eps the root lies within ~1e-10 of the
    # bracket's low end inverfc(2 delta), so Newton must start from there
    rng = random.Random(5)
    evaluations = []
    for _ in range(5000):
        eps = math.exp(rng.uniform(math.log(1e-2), math.log(50.0)))
        delta = rng.uniform(0.5, 1 - 1e-9)
        result = solve_pdp_opt(budget(eps, delta), UNIT)
        assert pdp_delta_profile(result.noise, eps, UNIT) <= delta, (eps, delta)
        evaluations.append(result.iterations)
    assert statistics.median(evaluations) <= 5
    assert sum(n > 10 for n in evaluations) < 0.01 * len(evaluations)


def test_pdp_opt_root_at_the_low_end():
    # erfc(sqrt(lo^2 + eps)) is below an ulp of 2 delta: the equation
    # already meets its target at lo = inverfc(2 delta), unevaluated
    eps, delta = 37.60925678097688, 0.5936170793010103
    result = solve_pdp_opt(budget(eps, delta), UNIT)
    assert result.iterations == 0
    assert result.root == result.bracket_low + 0.4 * DEFAULT_TOL
    assert pdp_delta_profile(result.noise, eps, UNIT) <= delta


# the profile each non-classical calibration must pass
OWN_PROFILE = {
    Mechanism.DP_OPT: dp_delta_profile,
    Mechanism.MECH1: dp_delta_profile,
    Mechanism.MECH2: dp_delta_profile,
    Mechanism.PDP_OPT: pdp_delta_profile,
    Mechanism.MECH3: pdp_delta_profile,
    Mechanism.MECH4: pdp_delta_profile,
    Mechanism.CDP_ROUTE: dp_delta_profile,
}


def test_solvers_certified_on_domain_sweep():
    # every non-classical sigma passes its own profile, or the calibration
    # names the bound it broke (mech2 at delta >= 0.5); a classical sigma
    # that fails its DP profile is the paper's finding, returned, not raised
    for eps in SWEEP_EPS:
        for delta in SWEEP_DELTA:
            b = budget(eps, delta)
            for sens in (Sensitivity(1e-3), UNIT, Sensitivity(1e3)):
                for kind in MECHANISM_ORDER:
                    if kind is Mechanism.MECH2 and delta >= 0.5:
                        with pytest.raises(ValueError, match="requires delta < 0.5"):
                            calibrate(kind, b, sens)
                        continue
                    noise = calibrate(kind, b, sens)
                    if kind in OWN_PROFILE:
                        assert OWN_PROFILE[kind](noise, eps, sens) <= delta, (
                            kind, eps, delta, sens.l2,
                        )


def test_solvers_tight():
    # sigma 1e-9 lower must fail, down to eps = 1e-8, where the DP profile
    # integrates its short erfcx differences instead of subtracting them; at
    # subnormal delta or delta -> 1, delta's own resolution exceeds that change
    for solve, profile in SOLVERS:
        for eps in SWEEP_EPS:
            for delta in SWEEP_DELTA[2:-1]:
                noise = solve(budget(eps, delta), UNIT).noise
                lower = NoiseScale(noise.sigma * (1 - 1e-9), noise.kind)
                assert profile(lower, eps, UNIT) > delta, (solve.__name__, eps, delta)


def test_solvers_tight_at_subnormal_delta():
    # the profile is quantized at subnormal delta, equal to delta on a whole
    # plateau of sigma; the solver must bisect to the plateau's low end
    # rather than stop on it: sigma 1e-12 lower must fail
    for solve, profile in SOLVERS:
        for eps in SWEEP_EPS:
            for delta in SWEEP_DELTA[:2]:
                for sens in (Sensitivity(1e-3), UNIT, Sensitivity(1e3)):
                    noise = solve(budget(eps, delta), sens).noise
                    lower = NoiseScale(noise.sigma * (1 - 1e-12), noise.kind)
                    assert profile(lower, eps, sens) > delta, (
                        solve.__name__, eps, delta, sens.l2,
                    )


@pytest.mark.xfail(strict=True, reason=(
    "in (u + sqrt(u^2 + eps)) / (eps sqrt(2)), u is lost against sqrt(eps) once "
    "u / sqrt(eps) < 2^-53, and sigma an ulp short moves a by ~sqrt(eps) 1e-16: at "
    "eps = 1e32, delta = 0.1 the DP profile is 1.47 delta, from eps = 1e40 it is ~1"))
@pytest.mark.parametrize("kind", [Mechanism.MECH2, Mechanism.MECH4, Mechanism.CDP_ROUTE],
                         ids=str)
def test_uncertified_sigma_meets_the_exact_profile_at_huge_eps(kind):
    # beyond SWEEP_EPS; pDP implies DP, so mech4 is held to the DP profile too
    misses = [
        (eps, delta)
        for eps in (1e32, 1e40, 1e100)
        for delta in (1e-12, 1e-5, 0.1)
        if oracle_dp_delta(calibrate(kind, budget(eps, delta), UNIT).sigma, eps) > delta
    ]
    assert misses == []


@pytest.mark.parametrize(
    "eps,delta",
    [(1e-2, 1e-12), (0.1, 1e-6), (1.0, 1e-5), (10.0, 0.01), (50.0, 1e-100), (1e4, 0.3)],
)
def test_dp_opt_matches_oracle_root(eps, delta):
    sigma = solve_dp_opt(budget(eps, delta), UNIT).noise.sigma
    true = oracle_dp_opt_sigma(eps, delta, 0.5 * sigma, 2.0 * sigma)
    assert rel_err(sigma, true) <= 1e-10


# Solver results at Delta = 1, every field asserted with ==, so a change of
# rounding anywhere in a solve shows: (eps, delta, sigma, root, iterations,
# residual, bracket_low, bracket_high).  The points cover dp-opt's negative
# branch (u < 0, eps >= 10 at delta near 0.5), its exact root at 0 (delta =
# r(0) / 2), the integrated short erfcx steps (eps <= 1e-7), subnormal
# delta, and pdp-opt at delta >= 0.5, where its bracket starts at
# inverfc(2 delta) and small eps shows how its slope rounds.
PINNED_DP_OPT = [
    (1.0, 1e-05, 3.7306316348164876, 2.5431845436241196, 4, -4.8480777769047134e-17, 0.0, 3.182243092765),
    (0.1, 1e-06, 36.304690426195826, 2.5573907744377293, 5, -2.202285662861181e-20, 0.0, 3.525509920113739),
    (0.5, 1e-12, 12.844174489887305, 4.513575078738935, 4, -7.754010449117688e-24, 0.0, 5.122960741096174),
    (5.0, 0.001, 0.6898423270004509, 1.926447603367961, 4, -3.821595817576906e-15, 0.0, 2.3506248379911825),
    (50.0, 1e-10, 0.18029422294242234, 4.413383242309663, 4, -7.348724260709382e-22, 0.0, 4.651833678155374),
    (10000.0, 1e-08, 0.007356858458544494, 3.96318665688337, 4, -2.2452990547139383e-20, 0.0, 4.127273485345073),
    (100000000.0, 1e-300, 7.089615586856893e-05, 26.19620295111687, 3, -3.66516086443157e-310, 0.0, 26.256222758368992),
    (10.0, 0.45, 0.21926429864897826, -0.0620203414060261, 3, -4.586331314726522e-13, -3.03507625915508, 0.0),  # u<0
    (1000.0, 0.5, 0.02234950966953102, -0.015800862229933134, 2, -4.447553436648377e-13, -26.44441061584546, 0.0),  # u<0
    (1000000.0, 0.7, 0.0007068442761866254, -0.3713070655466415, 4, -3.3795188869589765e-13, -26.454067332703413, 0.0),  # u<0
    (100000000.0, 0.49999, 7.071067789043279e-05, -3.227546079999163e-05, 1, -1.4531709169318674e-12, -26.444410237697493, 0.0),  # u<0
    (1e-08, 1e-05, 39874.29431765705, 0.00027308713944243165, 5, -2.7504745443024392e-14, 0.0, 3.182243092765),
    (1e-07, 0.3, 1.2976210253104379, -0.27246265637890227, 5, -8.378853166846056e-13, -0.4926247001938086, 0.0),  # u<0
    (1e-08, 1e-300, 3634980269.013034, 25.703191976886906, 4, -2.47345134384e-313, 0.0, 26.256222758368992),
    (1.0, 5e-324, 38.28474137226368, 27.062165402140216, 44, 0.0, 0.0, 27.259012776699404),
    (0.01, 5e-324, 3815.1567803910743, 26.977139636306653, 46, 0.0, 0.0, 27.259012776699404),
    (1000.0, 5e-324, 0.048700905878260134, 27.177052619862792, 45, 0.0, 0.0, 27.259012776699404),
    (1.0, 0.5, 0.5070650314765235, -0.33870540851281583, 4, -5.31574784190525e-13, -0.973504015620623, 0.0),  # u<0
    (20.0, 0.7, 0.1422239634182635, -0.4745412637647854, 4, -3.9834802123550617e-13, -4.451705116889547, 0.0),  # u<0
    (0.001, 0.9, 0.30393363089475217, -1.1630436227234875, 6, -2.333688797762079e-13, -1.329503315067659, 0.0),  # u<0
    (1.0, 0.999999999, 0.08079850181862752, -4.318608740467856, 12, 0.0, -4.544252765054167, 0.0),  # u<0
    (2.0, 0.3318979987768294, 0.5, 0.0, 0, 0.0, 0.0, 0.0),  # root 0
    (0.001, 0.017352889997971854, 22.36067977499789, 0.0, 0, -1.1102230246251565e-16, 0.0, 0.0),  # root 0
    (0.3, 0.01, 4.557544373881826, 0.889225745926003, 5, -1.1379786002407855e-15, 0.0, 1.8046243539321962),
    (1e-08, 0.999, 0.15195135629840031, -2.3267537654333554, 9, -3.9968028886505635e-15, -2.493311478724573, 0.0),  # u<0
    (1e-08, 0.999999999, 0.08184096060062653, -4.320005385459827, 11, 0.0, -4.475502060290934, 0.0),  # u<0
    (0.0001, 0.9, 0.303973936395842, -1.163082799491495, 6, -2.362554596402333e-13, -1.329355573738811, 0.0),  # u<0
]
PINNED_PDP_OPT = [
    (1.0, 1e-05, 4.444123306206057, 3.0629144650107953, 4, -5.136407792150077e-17, 0.0, 3.289346178773269),
    (0.1, 1e-06, 48.918938873948676, 3.451864009066269, 4, -5.728060305807206e-18, 0.0, 3.6224805558344038),
    (0.5, 1e-12, 14.269681174397569, 5.020317617395022, 4, -9.30174292338683e-25, 0.0, 5.190170896547685),
    (5.0, 0.001, 0.7514185036173816, 2.1861509785447018, 4, -3.809019072376074e-15, 0.0, 2.4933114777238843),
    (50.0, 1e-10, 0.18213203965932062, 4.498147289529659, 4, -7.374573654851665e-22, 0.0, 4.725749014662174),
    (10000.0, 1e-08, 0.007357233187849205, 3.968284135783735, 4, -6.27565387131731e-20, 0.0, 4.210407769253759),
    (100000000.0, 1e-300, 7.089615622351236e-05, 26.196253016549754, 3, -7.696047703436e-311, 0.0, 26.26941911648702),
    (10.0, 0.45, 0.22997861953360665, 0.0888628511357382, 6, -4.4775294583132563e-13, 0.0, 0.7469613426866548),
    (1000.0, 0.5, 0.022360679774998178, 4e-13, 0, -4.4786396813378815e-13, 0.0, 0.6936943311427617),
    (1000000.0, 0.7, 0.0007068446295430581, -0.3708071585931578, 0, -3.552713678800501e-13, -0.37080715859355784, 0.4926246649425931),  # u<0
    (100000000.0, 0.49999, 7.071067824398617e-05, 1.7724538910926672e-05, 17, -4.733990977001667e-13, 0.0, 0.6937047623868318),
    (1e-08, 1e-05, 441717341.34695876, 3.1234132735408684, 4, -5.232291921779264e-17, 0.0, 3.289346178773269),
    (1e-07, 0.3, 10364333.894943563, 0.7328690438471128, 4, -5.274669589994119e-13, 0.0, 0.9289014583268665),
    (1e-08, 1e-300, 3706578788.07727, 26.209469960421142, 3, -4.2303643902104e-311, 0.0, 26.26941911648702),
    (1.0, 5e-324, 38.48835667216557, 27.206192016601666, 46, 0.0, 0.0, 27.27172390482166),
    (0.01, 5e-324, 3847.549568324708, 27.20619201660215, 46, 0.0, 0.0, 27.27172390482166),
    (1000.0, 5e-324, 0.048723660805337944, 27.196533203125412, 46, 0.0, 0.0, 27.27172390482166),
    (1.0, 0.5, 0.8104691189406471, 0.13685519090632065, 4, -4.649614027130156e-13, 0.0, 0.6936943311427617),
    (20.0, 0.7, 0.14554644761928584, -0.3708071583688244, 1, -3.9390712913700554e-13, -0.37080715859355784, 0.4926246649425931),  # u<0
    (0.001, 0.9, 125.66234158084093, 0.0860431748320338, 4, -8.699707620962727e-13, -0.9061938024368232, 0.2658124961772696),
    (1.0, 0.999999999, 0.08321488446436882, -4.189837893683522, 6, 0.0, -4.241090015808593, 2.5819887892952044e-05),  # u<0
    (2.0, 0.3318979987768294, 0.63721035932539, 0.3463058907379982, 5, -4.1322500976548326e-13, 0.0, 0.8862409747623137),
    (0.001, 0.017352889997971854, 2379.14417168618, 1.6821603719377325, 4, -5.322131624296844e-14, 0.0, 1.8422475063078056),
    (0.3, 0.01, 8.600565307698623, 1.78334725814326, 4, -3.202646481348381e-14, 0.0, 1.9827880239958324),
    (1e-08, 0.999, 125331.44659305824, 0.0008834062106406159, 4, -7.787104294720848e-13, -2.1851242191330043, 0.02582706527304922),
    (1e-08, 0.999999999, 0.3492464570516188, -1.0123320726444434, 9, -4.440892098500626e-16, -4.241090015808593, 2.5819887892952044e-05),  # u<0
    (0.0001, 0.9, 1256.6135680300738, 0.08857464341966569, 4, -8.928413564035509e-13, -0.9061938024368232, 0.2658124961772696),
]


@pytest.mark.parametrize(
    "solve, row",
    [(solve_dp_opt, row) for row in PINNED_DP_OPT]
    + [(solve_pdp_opt, row) for row in PINNED_PDP_OPT],
    ids=lambda value: value.__name__ if callable(value) else f"{value[0]!r}-{value[1]!r}",
)
def test_solver_results_pinned(solve, row):
    eps, delta, *want = row
    result = solve(budget(eps, delta), UNIT)
    got = [
        result.noise.sigma, result.root, result.iterations, result.residual,
        result.bracket_low, result.bracket_high,
    ]
    assert got == want


@pytest.mark.parametrize(
    "f, delta, want",
    [
        (4.844805262605389, 1e-05, 8.419771301536331),
        (6.88752468024622, 1e-10, 10.756740866745254),
        (1.6894474573896319, 0.3, 4.969847045378653),
        (37.18786563057293, 1e-300, 19.09168459591424),
    ],
)
def test_failure_threshold_pinned(f, delta, want):
    assert failure_threshold(f, delta) == want


# --- closed-form mechanisms -------------------------------------------------


def test_mech1_between_opt_and_dwork2014():
    b = budget(1, 1e-4)
    m1 = sigma_mech1(b, UNIT).sigma
    assert solve_dp_opt(b, UNIT).noise.sigma < m1 < sigma_dwork2014(b, UNIT).sigma


def test_mech1_against_oracle():
    got = sigma_mech1(budget(1, 1e-5), UNIT).sigma
    assert abs(got - MECH1_SIGMA_1_1E5) <= 1e-9


# (eps, delta) where mech1's 1 - e^eps erfc(sqrt(u^2 + eps)) / erfc(u)
# rounds to 0, so its root falls back to mechanism 2's inverfc_seed(2 delta)
MECH1_FALLBACK = [(1e-33, 1e-20), (1e-40, 1e-50), (1e-35, 5e-324)]


@pytest.mark.parametrize("eps, delta", MECH1_FALLBACK, ids=repr)
def test_mech1_fallback_is_reached_and_sound(monkeypatch, eps, delta):
    calls = []

    def recording(p):
        calls.append(p)
        return inverfc_seed(p)

    monkeypatch.setattr(calib, "inverfc_seed", recording)
    sigma = sigma_mech1(budget(eps, delta), UNIT).sigma
    assert calls == [2.0 * delta]
    assert oracle_dp_delta(sigma, eps) <= delta


@pytest.mark.parametrize(
    "delta", [0.5, 0.5 + 2**-52, 0.6, 0.9, 1 - 2**-20, 1 - 2**-53], ids=repr)
def test_mech1_at_delta_half_and_above_takes_its_closed_form(monkeypatch, delta):
    # for delta >= 0.5 the root never falls back to inverfc_seed (the proof
    # is in _mech1_root's comment); every eps = 10^k, k = -300..300 step 10,
    # gets a finite sigma within its DP profile
    monkeypatch.setattr(calib, "inverfc_seed", lambda p: pytest.fail(f"fallback at {p!r}"))
    for k in range(-300, 301, 10):
        eps = 10.0**k
        noise = sigma_mech1(budget(eps, delta), UNIT)
        assert math.isfinite(noise.sigma), eps
        assert dp_delta_profile(noise, eps, UNIT) <= delta, eps


def test_mech1_below_mech2():
    b = budget(0.5, 1e-4)
    assert sigma_mech1(b, UNIT).sigma < sigma_mech2(b, UNIT).sigma


def test_mech1_beats_dwork2014_inside_frontier():
    # Empirical comparison at eps = 5, inside (1, G(delta)) where dwork2014
    # happens to still achieve DP; checked at these grid points only (it is
    # not a theorem over the whole band).
    for delta in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        b = budget(5.0, delta)
        assert sigma_mech1(b, UNIT).sigma < sigma_dwork2014(b, UNIT).sigma, delta


def test_mech2_below_dwork2014_grid():
    for eps in (0.01, 0.1, 0.5, 1.0):
        for delta in (1e-6, 1e-4, 1e-2):
            b = budget(eps, delta)
            assert sigma_mech2(b, UNIT).sigma < sigma_dwork2014(b, UNIT).sigma


def test_mech2_against_oracle():
    got = sigma_mech2(budget(1, 1e-5), UNIT).sigma
    assert abs(got - MECH2_SIGMA_1_1E5) <= 1e-6
    assert abs(got - 4.609) <= 1e-3


def test_mech2_rejects_large_delta():
    with pytest.raises(ValueError):
        sigma_mech2(budget(1, 0.6), UNIT)


def test_mech3_bounds_pdp_opt():
    b = budget(1, 1e-4)
    assert solve_pdp_opt(b, UNIT).noise.sigma < sigma_mech3(b, UNIT).sigma


def test_mech3_zero_sensitivity():
    assert sigma_mech3(budget(1, 0.3), Sensitivity(0.0)).sigma == 0.0


def test_mech3_against_oracle():
    got = sigma_mech3(budget(2, 0.1), UNIT).sigma
    assert abs(got - MECH3_SIGMA_2_01) <= 1e-10


def test_mech4_above_mech3():
    b = budget(1, 1e-3)
    assert sigma_mech3(b, UNIT).sigma < sigma_mech4(b, UNIT).sigma


def test_mech4_below_cdp_route():
    from gaussdp.relations import sigma_via_cdp_route

    b = budget(1, 1e-3)
    assert sigma_mech4(b, UNIT).sigma < sigma_via_cdp_route(b, UNIT).sigma


def test_mech4_quarter_delta_closed_form():
    # g = sqrt(ln(2/(sqrt(3)-1))) at delta = 0.25
    g = math.sqrt(math.log(2.0 / (math.sqrt(3.0) - 1.0)))
    eps = 1.0
    expected = (g + math.sqrt(g * g + eps)) / (eps * math.sqrt(2.0))
    assert abs(sigma_mech4(budget(eps, 0.25), UNIT).sigma - expected) <= 1e-12


# --- eps-free upper bound ---------------------------------------------------


def test_zero_eps_bound_dominates_solver():
    bound = dp_opt_zero_eps(0.01, UNIT).sigma
    for eps in (1e-4, 0.01, 1.0, 10.0):
        assert solve_dp_opt(budget(eps, 0.01), UNIT).noise.sigma < bound


def test_zero_eps_limit():
    ratio = solve_dp_opt(budget(1e-6, 0.01), UNIT).noise.sigma / dp_opt_zero_eps(
        0.01, UNIT
    ).sigma
    assert 0.999 <= ratio <= 1.0


@pytest.mark.parametrize("delta", [1e-10, 1e-16, 1e-17, 1e-100, 1e-300])
def test_zero_eps_small_delta_against_oracle(delta):
    # inverf(delta) must not go through inverfc(1 - delta), where 1 - delta
    # keeps few or none of delta's digits
    true = 1 / (2 * math.sqrt(2) * oracle_erfinv(delta))
    assert rel_err(dp_opt_zero_eps(delta, UNIT).sigma, true) <= 1e-12


def test_zero_eps_degenerate():
    assert dp_opt_zero_eps(0.01, Sensitivity(0.0)).sigma == 0.0
    with pytest.raises(ValueError):
        dp_opt_zero_eps(1.0, UNIT)


@pytest.mark.parametrize("delta", [1e-310, 5e-324])
def test_zero_eps_subnormal_delta_names_delta(delta):
    # the exact sigma exceeds the double range; the error must say why
    with pytest.raises(ValueError, match=r"^delta=.* is too small"):
        dp_opt_zero_eps(delta, UNIT)


@pytest.mark.parametrize(
    "l2, delta",
    [(5e-324, 0.1), (5e-324, 1e-5), (1e-310, 0.1), (5e-324, 0.99), (1e-310, 0.99)],
)
def test_zero_eps_tiny_sensitivity_names_the_sensitivity(l2, delta):
    # the sigma is subnormal (or 0 near delta = 1) at a positive sensitivity
    with pytest.raises(ValueError, match=rf"^sensitivity {l2!r} is too small"):
        dp_opt_zero_eps(delta, Sensitivity(l2))


def test_zero_eps_tiny_sensitivity_normal_sigma_is_kept():
    # at delta 1e-5 the sigma for sensitivity 1e-310 is back in the normal range
    sigma = dp_opt_zero_eps(1e-5, Sensitivity(1e-310)).sigma
    assert sigma >= sys.float_info.min
    assert rel_err(sigma, 1e-310 * dp_opt_zero_eps(1e-5, UNIT).sigma) <= 1e-12


# --- failure frontier -------------------------------------------------------


def f_dwork2014(delta):
    return math.sqrt(2.0 * math.log(1.25 / delta))


def f_dwork2006(delta):
    return math.sqrt(2.0 * math.log(2.0 / delta))


@pytest.mark.parametrize(
    "f,delta,expected",
    [
        (f_dwork2014, 1e-3, 7.46),
        (f_dwork2014, 1e-6, 8.78),
        (f_dwork2006, 1e-3, 8.51),
        (f_dwork2006, 1e-4, 8.99),
    ],
)
def test_failure_threshold_values(f, delta, expected):
    assert abs(failure_threshold(f(delta), delta) - expected) <= 0.01


@pytest.mark.parametrize("f", [f_dwork2014, f_dwork2006])
@pytest.mark.parametrize(
    "delta",
    [1 - 2**-53, 1 - 2**-40, 0.999, 0.9, 0.5, 0.3, 1e-1, 1e-2, 1e-8, 1e-10, 1e-20, 1e-100, 1e-300],
)
def test_failure_threshold_matches_oracle(f, delta):
    got = failure_threshold(f(delta), delta)
    assert abs(got - float(oracle_failure_threshold(f(delta), delta))) <= 1e-12


@pytest.mark.parametrize(
    "f, delta",
    [(f, delta) for f in (1e-4, 1e-3, 1e-2, 0.1, 0.3) for delta in (1e-5, 0.3, 0.7)]
    + [(56.31, 1.6e-39), (100.0, 1e-10), (200.0, 1e-300), (1e4, 0.3), (1e8, 1e-5)],
)
def test_failure_threshold_any_f_matches_oracle(f, delta):
    # G from 2.5e-9 to 2e16: to 1e-12, or 4 ulp where G is in the thousands
    # or above, as the tolerance's 2 ulp floor lets G of any size narrow
    got = failure_threshold(f, delta)
    bound = max(1e-12, 4 * math.ulp(got))
    assert abs(got - float(oracle_failure_threshold(f, delta))) <= bound


@pytest.mark.parametrize("f", [f_dwork2014, f_dwork2006])
@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6, 1e-10, 1e-100, 0.3])
def test_failure_threshold_profile_evaluations(monkeypatch, f, delta):
    # Newton from eps = 2F^2 on dp-opt's bracket needs 4 to 10 profiles per
    # G at these deltas, the one at 2F^2 included
    calls = []
    value = calib._dp_value
    monkeypatch.setattr(calib, "_dp_value", lambda *args: calls.append(args) or value(*args))
    failure_threshold(f(delta), delta)
    assert len(calls) <= 10


@pytest.mark.xfail(strict=True, reason=(
    "where G is far below 2F^2, the Newton exit trusts a step shorter than "
    "0.1 sqrt(tol), but near eps -> 0 the curvature of ln(profile) is ~1/G^2: "
    "G 1.8853e-8 against the crossing's 3.0742e-8"))
def test_failure_threshold_matches_oracle_at_small_g():
    # an F far below the multiplier its delta calls for; classical F never are
    f, delta = 2.0316, 1.18e-10
    got = failure_threshold(f, delta)
    assert abs(got - float(oracle_failure_threshold(f, delta))) <= 1e-12


@pytest.mark.parametrize("f, delta", [(60.0, 1e-40), (70.0, 1e-100)])
def test_failure_threshold_where_g_is_in_the_thousands(f, delta):
    # G is bracketed on the 50-digit profile itself, within 1e-11
    g = failure_threshold(f, delta)
    assert 4096 < g < 8192
    below, above = g - 1e-11, g + 1e-11
    assert oracle_dp_delta(mpf(f) / below, below) < delta < oracle_dp_delta(mpf(f) / above, above)


def test_failure_threshold_domain_sweep():
    # every F(delta) = 10^k gets a finite G > 0, or a ValueError naming
    # F(delta) where 2 F^2 leaves the normal doubles (|k| > 150 here)
    answered = 0
    for k in range(-300, 301, 5):
        for delta in (1e-300, 1e-5, 0.3, 0.5, 0.7, 1 - 2**-53):
            try:
                g = failure_threshold(10.0**k, delta)
            except ValueError as exc:
                assert "F(delta)" in str(exc) and abs(k) > 150
                continue
            assert math.isfinite(g) and g > 0.0
            answered += 1
    assert answered == 61 * 6


def test_failure_threshold_consistency():
    delta = 1e-4
    g = failure_threshold(f_dwork2014(delta), delta)
    eps = g + 0.5
    noise = NoiseScale(f_dwork2014(delta) / eps, Mechanism.DWORK2014)
    assert dp_delta_profile(noise, eps, UNIT) > delta


def test_failure_threshold_domain():
    with pytest.raises(ValueError):
        failure_threshold(-1.0, 1e-3)
    with pytest.raises(ValueError):
        failure_threshold(1.0, 0.0)


# --- dispatch ---------------------------------------------------------------

PER_MECHANISM = {
    Mechanism.DWORK2006: sigma_dwork2006,
    Mechanism.DWORK2014: sigma_dwork2014,
    Mechanism.DP_OPT: lambda budget, sens: solve_dp_opt(budget, sens).noise,
    Mechanism.MECH1: sigma_mech1,
    Mechanism.MECH2: sigma_mech2,
    Mechanism.PDP_OPT: lambda budget, sens: solve_pdp_opt(budget, sens).noise,
    Mechanism.MECH3: sigma_mech3,
    Mechanism.MECH4: sigma_mech4,
    Mechanism.CDP_ROUTE: sigma_via_cdp_route,
}


@pytest.mark.parametrize("kind", MECHANISM_ORDER)
def test_calibrate_dispatches_enum_and_tag(kind):
    budget, sens = PrivacyBudget(2.0, 1e-5), Sensitivity(3.0)
    want = PER_MECHANISM[kind](budget, sens)
    assert want.kind is kind
    assert calibrate(kind, budget, sens) == want
    assert calibrate(str(kind), budget, sens) == want
    assert calibrate(str(kind), budget, sens).kind is kind


def test_calibrate_rejects_unknown_tag():
    # "DP_OPT", a member's name, hashes like the member but is no tag
    for kind in ("bogus", 3, "DP_OPT"):
        with pytest.raises(ValueError):
            calibrate(kind, PrivacyBudget(1.0, 1e-5), UNIT)


@pytest.mark.parametrize("kind", MECHANISM_ORDER)
def test_huge_sensitivity_names_the_sensitivity(kind):
    # sigma is linear in the sensitivity and leaves the normal double range
    # here: above it at 1e308, below it (subnormal or 0) at 5e-324
    cases = (
        (PrivacyBudget(0.5, 1e-5), Sensitivity(1e308), r"sensitivity 1e\+308 is too large"),
        (PrivacyBudget(0.5, 1e-5), Sensitivity(5e-324), r"sensitivity 5e-324 is too small"),
        (PrivacyBudget(1e8, 0.1), Sensitivity(5e-324), r"sensitivity 5e-324 is too small"),
    )
    for budget, sens, message in cases:
        for calibration in (PER_MECHANISM[kind], lambda b, s: calibrate(kind, b, s)):
            with pytest.raises(ValueError, match=message):
                calibration(budget, sens)


def test_tiny_sensitivity_gives_normal_sigma_or_names_it():
    # a positive sensitivity never yields a zero or subnormal sigma: each
    # call answers a normal sigma, which the solvers certify, or raises
    profiles = {Mechanism.DP_OPT: dp_delta_profile, Mechanism.PDP_OPT: pdp_delta_profile}
    for l2 in (5e-324, 1e-320, 1e-310, 3e-308):
        sens = Sensitivity(l2)
        for eps in SWEEP_EPS:
            for delta in (5e-324, 1e-300, 1e-12, 1e-5, 0.1, 0.49):
                b = budget(eps, delta)
                for kind in MECHANISM_ORDER:
                    try:
                        noise = calibrate(kind, b, sens)
                    except ValueError as exc:
                        assert f"sensitivity {l2!r} is too small" in str(exc)
                        continue
                    assert noise.sigma >= sys.float_info.min, (kind, l2, eps, delta)
                    if kind in profiles:
                        assert profiles[kind](noise, eps, sens) <= delta, (kind, l2, eps, delta)


def test_zero_sensitivity_gives_zero_sigma_that_achieves_dp():
    zero = Sensitivity(0.0)
    for eps, delta in ((1e-8, 1e-300), (0.5, 1e-5), (10.0, 0.3), (1e8, 0.49)):
        b = budget(eps, delta)
        for kind in MECHANISM_ORDER:
            noise = calibrate(kind, b, zero)
            assert noise == NoiseScale(0.0, kind)
            assert achieves_dp(noise, b, zero)
        # the solvers still solve: the root does not depend on the
        # sensitivity, and nothing is left to certify
        for solve in (solve_dp_opt, solve_pdp_opt):
            at_zero, at_one = solve(b, zero), solve(b, UNIT)
            assert at_zero.residual == 0.0
            assert replace(at_zero, noise=at_one.noise, residual=at_one.residual) == at_one


def test_compare_grid_equals_scalar_calibrations():
    eps_grid = SWEEP_EPS
    delta_grid = (1e-300, 1e-12, 1e-6, 0.1, 0.49)
    for sens in (Sensitivity(1e-3), UNIT, Sensitivity(1e3)):
        want = []
        for eps in eps_grid:
            for delta in delta_grid:
                b = budget(eps, delta)
                for kind in MECHANISM_ORDER:
                    noise = calibrate(kind, b, sens)
                    want.append((eps, delta, kind, noise.sigma, achieves_dp(noise, b, sens)))
        # every sigma is positive here, so == compares the bits
        assert compare_grid(eps_grid, delta_grid, sens) == want


# --- achieves_dp ------------------------------------------------------------


def test_achieves_dp_at_boundary():
    b = budget(10, 0.01)
    assert achieves_dp(solve_dp_opt(b, UNIT).noise, b, UNIT)


def test_achieves_dp_dwork2014_fails_large_eps():
    b = budget(10, 0.01)
    assert not achieves_dp(sigma_dwork2014(b, UNIT), b, UNIT)


def test_achieves_dp_dwork2014_small_eps():
    b = budget(1, 0.01)
    assert achieves_dp(sigma_dwork2014(b, UNIT), b, UNIT)


# --- grid invariants --------------------------------------------------------


def test_ordering_chains_on_grid():
    for eps in GRID_EPS:
        for delta in GRID_DELTA:
            b = budget(eps, delta)
            dp_opt = solve_dp_opt(b, UNIT).noise.sigma
            m1 = sigma_mech1(b, UNIT).sigma
            m2 = sigma_mech2(b, UNIT).sigma
            d14 = sigma_dwork2014(b, UNIT).sigma
            d06 = sigma_dwork2006(b, UNIT).sigma
            assert dp_opt < m1 < m2 < d14 < d06, (eps, delta)

            pdp_opt = solve_pdp_opt(b, UNIT).noise.sigma
            m3 = sigma_mech3(b, UNIT).sigma
            m4 = sigma_mech4(b, UNIT).sigma
            assert pdp_opt < m3 < m4, (eps, delta)
            assert dp_opt <= pdp_opt, (eps, delta)


def test_profile_inversion_on_grid():
    for eps in GRID_EPS:
        for delta in GRID_DELTA:
            b = budget(eps, delta)
            dp = solve_dp_opt(b, UNIT)
            assert abs(dp_delta_profile(dp.noise, eps, UNIT) - delta) <= 1e-9
            pdp = solve_pdp_opt(b, UNIT)
            assert abs(pdp_delta_profile(pdp.noise, eps, UNIT) - delta) <= 1e-9


def test_monotone_in_eps_and_delta():
    for delta in GRID_DELTA:
        sigmas = [solve_dp_opt(budget(e, delta), UNIT).noise.sigma for e in GRID_EPS]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:])), delta
    for eps in GRID_EPS:
        sigmas = [solve_dp_opt(budget(eps, d), UNIT).noise.sigma for d in GRID_DELTA]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:])), eps


def test_sandwich_bounds():
    # valid for eps >= 0.01 and delta <= 0.05
    for eps in (0.01, 0.1, 1.0, 10.0):
        for delta in (1e-6, 1e-3, 0.04):
            sigma = solve_dp_opt(budget(eps, delta), UNIT).noise.sigma
            lower = 1.0 / math.sqrt(2.0 * eps)
            upper = math.sqrt(2.0 * math.log(1.0 / (2.0 * delta))) / eps + lower
            assert lower < sigma < upper, (eps, delta)


# --- properties -------------------------------------------------------------


@given(
    st.floats(min_value=0.02, max_value=20.0),
    st.floats(min_value=-6.0, max_value=-1.0),
)
def test_profile_inversion_property(eps, log10_delta):
    delta = 10.0 ** log10_delta
    noise = solve_dp_opt(budget(eps, delta), UNIT).noise
    assert abs(dp_delta_profile(noise, eps, UNIT) - delta) <= 1e-9


@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=1.1, max_value=3.0),
    st.floats(min_value=-5.0, max_value=-2.0),
)
def test_dp_opt_strictly_decreasing_property(eps, factor, log10_delta):
    delta = 10.0 ** log10_delta
    small = solve_dp_opt(budget(eps, delta), UNIT).noise.sigma
    large = solve_dp_opt(budget(eps * factor, delta), UNIT).noise.sigma
    assert large < small
