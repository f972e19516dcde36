"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one `[criterion N] PASS|FAIL ...` line (use `pytest -s` to
see the lines for passing tests too).

Two reference values are checked against a 50-digit computation of the
exact DP profile (`oracles.oracle_dp_delta`):

  * criterion 3: every frontier literal is the 50-digit crossing rounded to
    two decimals (`oracles.oracle_failure_threshold`); the Dwork-2014 value
    at delta = 1e-5 is 8.4197713..., hence 8.42, not 8.43.
  * criterion 6, check (c): at (eps=1, delta=1e-12) the leading-order ratio
    eps sigma / sqrt(2 ln(1/delta)) is 0.8821576 and tends to 1 only
    logarithmically, so the check is against the next-order asymptote
    instead, whose 50-digit ratio there is 0.998534.
"""

import math
import time
from functools import lru_cache

import pytest

from gaussdp.calib import (
    Mechanism,
    PrivacyBudget,
    Sensitivity,
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
from gaussdp.compose import CompositionTerm, composed_dp_delta, effective_unit_sigma
from gaussdp.mech import mean_experiment, privacy_loss_sample, privacy_loss_tails
from gaussdp.relations import sigma_via_cdp_route
from gaussdp.specfun import erfc, erfcx, inverfc, inverfc_seed

from oracles import (
    oracle_erfc,
    oracle_erfcx,
    oracle_failure_threshold,
    oracle_inverfc,
    rel_err,
)

UNIT = Sensitivity(1.0)

GRID_EPS = (0.01, 0.05, 0.1, 0.5, 1.0)
GRID_DELTA = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def log_grid(lo: float, hi: float, n: int) -> list:
    la, lb = math.log10(lo), math.log10(hi)
    return [10.0 ** (la + (lb - la) * k / (n - 1)) for k in range(n)]


# --- criterion 1: closed-form calibration rows ------------------------------


def test_criterion_1_closed_form_rows():
    cases = [
        (sigma_dwork2014, 10, 0.01, 0.3108),
        (sigma_dwork2014, 10, 1e-5, 0.4845),
        (sigma_dwork2014, 10, 1e-3, 0.3776),
        (sigma_dwork2006, 10, 0.1, 0.2448),
    ]
    failures = []
    worst_time = 0.0
    sigma_dwork2014(PrivacyBudget(1, 1e-3), UNIT)  # warmup
    for fn, eps, delta, expected in cases:
        start = time.perf_counter()
        got = fn(PrivacyBudget(eps, delta), UNIT).sigma
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        if abs(got - expected) > 1e-4:
            failures.append(f"{fn.__name__}({eps},{delta})={got:.6f} != {expected}")
        if elapsed >= 1e-3:
            failures.append(f"{fn.__name__} took {elapsed * 1e3:.2f} ms")
    report(
        "1",
        not failures,
        failures or f"4 rows within 1e-4, worst call {worst_time * 1e6:.0f} us",
    )


# --- criterion 2: optimal-noise column ---------------------------------------


def test_criterion_2_least_noise_rows():
    cases = [
        (10, 0.01, 0.3501),
        (10, 0.1, 0.2818),
        (10, 1e-3, 0.4061),
        (6, 0.1, 0.3813),
        (8, 0.1, 0.3215),
    ]
    solve_dp_opt(PrivacyBudget(1, 1e-4), UNIT)  # warmup
    failures = []
    worst_time = 0.0
    for eps, delta, expected in cases:
        start = time.perf_counter()
        got = solve_dp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        if abs(got - expected) > 5e-4:
            failures.append(f"dp-opt({eps},{delta})={got:.6f} != {expected}")
        if elapsed >= 10e-3:
            failures.append(f"solve took {elapsed * 1e3:.2f} ms")
    report(
        "2",
        not failures,
        failures or f"5 rows within 5e-4, worst solve {worst_time * 1e3:.2f} ms",
    )


# --- criterion 3: failure frontier -------------------------------------------


def _f_of_delta(mech: str, delta: float) -> float:
    c = 1.25 if mech == "dwork2014" else 2.0
    return math.sqrt(2.0 * math.log(c / delta))


@lru_cache(maxsize=None)
def _frontier(mech: str, delta: float) -> float:
    return failure_threshold(_f_of_delta(mech, delta), delta)


# the 50-digit crossings rounded to two decimals; Dwork-2014 is 7.4635,
# 7.9910, 8.4198, 8.7821 and Dwork-2006 8.5124, 8.9927, 9.3913, 9.7328
FRONTIER_CASES = [
    ("dwork2014", 1e-3, 7.46),
    ("dwork2014", 1e-4, 7.99),
    ("dwork2014", 1e-5, 8.42),
    ("dwork2014", 1e-6, 8.78),
    ("dwork2006", 1e-3, 8.51),
    ("dwork2006", 1e-4, 8.99),
    ("dwork2006", 1e-5, 9.39),
    ("dwork2006", 1e-6, 9.73),
]


def test_criterion_3_frontier_runtime():
    start = time.perf_counter()
    for mech, delta, _ in FRONTIER_CASES:
        _frontier(mech, delta)
    elapsed = time.perf_counter() - start
    report("3 (runtime)", elapsed < 1.0, f"8 frontier values in {elapsed:.2f} s")


@pytest.mark.parametrize(
    "mech,delta,expected",
    FRONTIER_CASES,
    ids=[f"{m}-{d:g}" for m, d, _ in FRONTIER_CASES],
)
def test_criterion_3_frontier_values(mech, delta, expected):
    got = _frontier(mech, delta)
    true = float(oracle_failure_threshold(_f_of_delta(mech, delta), delta))
    report(
        f"3 [{mech} delta={delta:g}]",
        abs(got - expected) <= 0.01 and round(true, 2) == expected,
        f"G={got:.4f} vs {expected} +- 0.01 (50-digit G={true:.7f})",
    )


# --- criterion 4: strict ordering chains --------------------------------------


def test_criterion_4_ordering_chains():
    start = time.perf_counter()
    failures = []
    for eps in GRID_EPS:
        for delta in GRID_DELTA:
            b = PrivacyBudget(eps, delta)
            dp_chain = [
                solve_dp_opt(b, UNIT).noise.sigma,
                sigma_mech1(b, UNIT).sigma,
                sigma_mech2(b, UNIT).sigma,
                sigma_dwork2014(b, UNIT).sigma,
                sigma_dwork2006(b, UNIT).sigma,
            ]
            if not all(a < c for a, c in zip(dp_chain, dp_chain[1:])):
                failures.append(f"DP chain broken at ({eps},{delta}): {dp_chain}")
            pdp_chain = [
                solve_pdp_opt(b, UNIT).noise.sigma,
                sigma_mech3(b, UNIT).sigma,
                sigma_mech4(b, UNIT).sigma,
                sigma_via_cdp_route(b, UNIT).sigma,
            ]
            if not all(a < c for a, c in zip(pdp_chain, pdp_chain[1:])):
                failures.append(f"pDP chain broken at ({eps},{delta}): {pdp_chain}")
            if not dp_chain[0] <= pdp_chain[0]:
                failures.append(f"dp-opt > pdp-opt at ({eps},{delta})")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"grid took {elapsed:.2f} s")
    report(
        "4",
        not failures,
        failures or f"both chains strict on the 5x6 grid ({elapsed:.2f} s)",
    )


# --- criterion 5: residuals and profile inversion -----------------------------


def test_criterion_5_residual_and_inversion():
    start = time.perf_counter()
    failures = []
    for eps in GRID_EPS:
        for delta in GRID_DELTA:
            b = PrivacyBudget(eps, delta)
            dp = solve_dp_opt(b, UNIT)
            if abs(dp.residual) > 1e-9:
                failures.append(f"dp residual {dp.residual:.2e} at ({eps},{delta})")
            if abs(dp_delta_profile(dp.noise, eps, UNIT) - delta) > 1e-9:
                failures.append(f"dp inversion off at ({eps},{delta})")
            pdp = solve_pdp_opt(b, UNIT)
            if abs(pdp.residual) > 1e-9:
                failures.append(f"pdp residual {pdp.residual:.2e} at ({eps},{delta})")
            if abs(pdp_delta_profile(pdp.noise, eps, UNIT) - delta) > 1e-9:
                failures.append(f"pdp inversion off at ({eps},{delta})")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"grid took {elapsed:.2f} s")
    report(
        "5",
        not failures,
        failures or f"residuals and inversions <= 1e-9 on the grid ({elapsed:.2f} s)",
    )


# --- criterion 6: asymptotic limits -------------------------------------------


def _second_order_b(eps: float, delta: float) -> float:
    """Next-order delta -> 0 asymptote of b = eps sigma_dp_opt / Delta.

    Mills' ratio on both erfc terms of the profile gives
    delta ~ eps e^{eps/2} phi(b) / b^3, i.e. b solves
    b^2/2 + 3 ln b = ln(1/delta) - ln(2 pi)/2 + ln eps + eps/2; the fixed
    point iteration contracts by 3/b^2.
    """
    rhs = math.log(1.0 / delta) - 0.5 * math.log(2.0 * math.pi)
    rhs += math.log(eps) + 0.5 * eps
    b = math.sqrt(2.0 * rhs)
    for _ in range(30):
        b = math.sqrt(2.0 * (rhs - 3.0 * math.log(b)))
    return b


def _asymptotic_checks():
    ratio_a = (
        solve_dp_opt(PrivacyBudget(1e-6, 0.01), UNIT).noise.sigma
        / dp_opt_zero_eps(0.01, UNIT).sigma
    )
    ratio_b = solve_dp_opt(PrivacyBudget(1e6, 0.01), UNIT).noise.sigma * math.sqrt(
        2e6
    )
    # (c): eps sigma_dp_opt / b2 -> 1 as delta -> 0; the 50-digit ratio at
    # (1, 1e-12) is 0.998534 (0.99993 at 1e-50). The leading order
    # sqrt(2 ln(1/delta)) converges only logarithmically: 0.882 here.
    ratio_c = solve_dp_opt(PrivacyBudget(1.0, 1e-12), UNIT).noise.sigma / (
        _second_order_b(1.0, 1e-12)
    )
    # (d): sigma_pdp_opt ~ sqrt(2) * inverfc(delta) / eps as eps -> 0 (the
    # bracket root tends to inverfc(delta), and sigma = (d + sqrt(d^2+eps))
    # / (eps sqrt(2)) -> 2 d / (eps sqrt(2)))
    ratio_d = solve_pdp_opt(PrivacyBudget(1e-6, 0.01), UNIT).noise.sigma * 1e-6 / (
        math.sqrt(2.0) * inverfc(0.01)
    )
    return ratio_a, ratio_b, ratio_c, ratio_d


@lru_cache(maxsize=None)
def _asymptotics():
    return _asymptotic_checks()


ASYMPTOTIC_CASES = [
    ("a", 0, 0.999, 1.0),
    ("b", 1, 0.99, 1.01),
    ("c", 2, 0.99, 1.01),
    ("d", 3, 0.999, 1.001),
]


@pytest.mark.parametrize("label,idx,lo,hi", ASYMPTOTIC_CASES, ids="abcd")
def test_criterion_6_asymptotics(label, idx, lo, hi):
    start = time.perf_counter()
    ratio = _asymptotics()[idx]
    elapsed = time.perf_counter() - start
    ok = lo <= ratio <= hi and elapsed < 1.0
    report(f"6 ({label})", ok, f"ratio {ratio:.6f} vs [{lo}, {hi}]")


# --- criterion 7: Monte-Carlo privacy soundness -------------------------------


def test_criterion_7_monte_carlo_soundness():
    n = 1_000_000
    start = time.perf_counter()
    failures = []
    for i, (eps, delta) in enumerate([(1.0, 1e-2), (5.0, 1e-3)]):
        b = PrivacyBudget(eps, delta)
        sigma_pdp = solve_pdp_opt(b, UNIT).noise.sigma
        got = privacy_loss_sample(1.0, sigma_pdp, eps, n, seed=9000 + i)
        se = math.sqrt(delta * (1.0 - delta) / n)
        if abs(got - delta) > 3.0 * se:
            failures.append(f"pDP MC at ({eps},{delta}): {got:.3e} vs {delta}")

        sigma_dp = solve_dp_opt(b, UNIT).noise.sigma
        above, below = privacy_loss_tails(1.0, sigma_dp, eps, n, seed=9100 + i)
        dp_est = above - math.exp(eps) * below
        se = (
            math.sqrt(
                above * (1 - above)
                + math.exp(2 * eps) * below * (1 - below)
                + 2.0 * math.exp(eps) * above * below
            )
            / math.sqrt(n)
        )
        if abs(dp_est - delta) > 3.0 * se:
            failures.append(f"DP MC at ({eps},{delta}): {dp_est:.3e} vs {delta}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"MC took {elapsed:.2f} s")
    report(
        "7",
        not failures,
        failures or f"1e6-sample estimates within 3 SE ({elapsed:.2f} s)",
    )


# --- criterion 8: composition --------------------------------------------------


def test_criterion_8_composition():
    start = time.perf_counter()
    failures = []

    def term(d, s):
        return CompositionTerm(Sensitivity(d), s)

    got = effective_unit_sigma([term(1, 1), term(2, 2), term(3, 3)])
    if abs(got - 1.0 / math.sqrt(3.0)) > 1e-12:
        failures.append(f"sigma_star {got!r} != 1/sqrt(3)")

    if effective_unit_sigma([term(1.0, 2.0)] * 4) != 1.0:
        failures.append("4-copy scaling law not exact")

    eps, delta = 1.0, 1e-4
    sigma = solve_dp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
    single = composed_dp_delta([term(1.0, sigma)], eps)
    if abs(single - delta) > 1e-9:
        failures.append(f"single-term consistency off: {single!r}")

    elapsed = time.perf_counter() - start
    if elapsed >= 10e-3:
        failures.append(f"composition checks took {elapsed * 1e3:.1f} ms")
    report(
        "8",
        not failures,
        failures or f"sigma_star, scaling, consistency ({elapsed * 1e3:.2f} ms)",
    )


# --- criterion 9: mean-estimation experiment -----------------------------------


def test_criterion_9_mean_experiment():
    start = time.perf_counter()
    failures = []
    budget = PrivacyBudget(0.1, 1e-4)
    chain = (
        Mechanism.DP_OPT,
        Mechanism.MECH1,
        Mechanism.MECH2,
        Mechanism.DWORK2014,
        Mechanism.DWORK2006,
    )
    reports = dict(
        zip(chain, mean_experiment(1000, 10, budget, chain, trials=200, seed=6))
    )
    for first, second in zip(chain, chain[1:]):
        gap = reports[second].metric - reports[first].metric
        combined = math.hypot(
            reports[first].metric_stderr, reports[second].metric_stderr
        )
        if gap <= combined:
            failures.append(
                f"{first}->{second}: gap {gap:.4f} <= combined SE {combined:.4f}"
            )

    (long_run,) = mean_experiment(
        1000, 10, budget, (Mechanism.DP_OPT,), trials=1000, seed=6
    )
    from gaussdp.calib import calibrate

    sigma = calibrate(
        Mechanism.DP_OPT, budget, Sensitivity(math.sqrt(10) / 1000)
    ).sigma
    mean_sq = long_run.metric**2 + long_run.metric_stderr**2 * (long_run.trials - 1)
    expected = 10 * sigma * sigma
    if abs(mean_sq - expected) > 0.10 * expected:
        failures.append(f"mean squared error {mean_sq:.4e} vs d*sigma^2 {expected:.4e}")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"experiment took {elapsed:.1f} s")
    report(
        "9",
        not failures,
        failures or f"chain separated, chi-square magnitude within 10% ({elapsed:.1f} s)",
    )


# --- criterion 10: special-function accuracy ------------------------------------


def test_criterion_10_special_functions():
    start = time.perf_counter()
    failures = []

    # erfc: relative error <= 1e-13 wherever the value is a normal double
    worst = 0.0
    for x in log_grid(1e-6, 26.2, 500) + [-x for x in log_grid(1e-6, 6.0, 500)]:
        err = rel_err(erfc(x), oracle_erfc(x))
        worst = max(worst, err)
    if worst > 1e-13:
        failures.append(f"erfc worst rel err {worst:.2e}")

    # erfcx on both sides of zero
    worst = 0.0
    for x in log_grid(1e-6, 1e6, 500) + [-x for x in log_grid(1e-6, 26.5, 500)]:
        err = rel_err(erfcx(x), oracle_erfcx(x))
        worst = max(worst, err)
    if worst > 1e-13:
        failures.append(f"erfcx worst rel err {worst:.2e}")

    # inverfc: round trip and direct agreement, plus the seed upper bound
    worst_rt = 0.0
    worst_x = 0.0
    for p in log_grid(1e-15, 1.999, 1000):
        x = inverfc(p)
        worst_rt = max(worst_rt, abs(erfc(x) / p - 1.0))
        worst_x = max(worst_x, rel_err(x, oracle_inverfc(p)))
        if 0.0 < p < 1.0 and not x < inverfc_seed(p):
            failures.append(f"seed bound violated at p={p!r}")
    if worst_rt > 1e-12:
        failures.append(f"inverfc round-trip worst {worst_rt:.2e}")
    if worst_x > 1e-12:
        failures.append(f"inverfc vs oracle worst {worst_x:.2e}")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"oracle grids took {elapsed:.1f} s")
    report(
        "10",
        not failures,
        failures or f"all grids within module tolerances ({elapsed:.1f} s)",
    )
