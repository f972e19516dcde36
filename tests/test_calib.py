"""Calibrations, profiles, solvers, and the failure frontier.

Reference values come from three independent sources: the misuse-table and
failure-frontier numbers reported for the construction (asserted at their
published precision), 50-digit mpmath re-evaluations of the closed forms
(frozen literals), and self-consistency oracles (defining-equation residuals
and profile inversion).
"""

import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from gaussdp.calib import (
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


@pytest.mark.parametrize(
    "eps,delta",
    [(1e-2, 1e-12), (0.1, 1e-6), (1.0, 1e-5), (10.0, 0.01), (50.0, 1e-100), (1e4, 0.3)],
)
def test_dp_opt_matches_oracle_root(eps, delta):
    sigma = solve_dp_opt(budget(eps, delta), UNIT).noise.sigma
    true = oracle_dp_opt_sigma(eps, delta, 0.5 * sigma, 2.0 * sigma)
    assert rel_err(sigma, true) <= 1e-10


# --- closed-form mechanisms -------------------------------------------------


def test_mech1_between_opt_and_dwork2014():
    b = budget(1, 1e-4)
    m1 = sigma_mech1(b, UNIT).sigma
    assert solve_dp_opt(b, UNIT).noise.sigma < m1 < sigma_dwork2014(b, UNIT).sigma


def test_mech1_against_oracle():
    got = sigma_mech1(budget(1, 1e-5), UNIT).sigma
    assert abs(got - MECH1_SIGMA_1_1E5) <= 1e-9


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
    "delta", [0.9, 0.5, 0.3, 1e-1, 1e-2, 1e-8, 1e-10, 1e-20, 1e-100, 1e-300]
)
def test_failure_threshold_matches_oracle(f, delta):
    tol = 1e-6
    got = failure_threshold(f(delta), delta, tol)
    assert abs(got - float(oracle_failure_threshold(f(delta), delta))) <= tol


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


def test_calibrate_forwards_tol_to_solvers():
    budget, tol = PrivacyBudget(2.0, 1e-5), 1e-3
    for kind, solve in ((Mechanism.DP_OPT, solve_dp_opt), (Mechanism.PDP_OPT, solve_pdp_opt)):
        coarse = calibrate(kind, budget, UNIT, tol)
        assert coarse == solve(budget, UNIT, tol).noise
        assert coarse != calibrate(kind, budget, UNIT)


def test_calibrate_rejects_unknown_tag():
    with pytest.raises(ValueError):
        calibrate("bogus", PrivacyBudget(1.0, 1e-5), UNIT)


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
