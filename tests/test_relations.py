"""Privacy-definition conversions: DP <-> pDP maps, the mCDP tail bound,
and the concentrated-DP noise route."""

import math

import pytest

from gaussdp.calib import (
    NoiseScale,
    Mechanism,
    PrivacyBudget,
    Sensitivity,
    pdp_delta_profile,
    sigma_mech3,
    sigma_mech4,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.relations import (
    McdpParams,
    dp_to_pdp,
    mcdp_to_pdp_delta,
    sigma_via_cdp_route,
    zcdp_of_sigma,
)

UNIT = Sensitivity(1.0)


def test_dp_to_pdp_value():
    out = dp_to_pdp(PrivacyBudget(1, 1e-4), 2.0)
    expected = 1e-4 * (1.0 + math.exp(-2.0)) / (1.0 - math.exp(-1.0))
    assert out.epsilon == 2.0
    assert abs(out.delta - expected) <= 1e-18


def test_dp_to_pdp_decreases_to_delta():
    base = PrivacyBudget(1, 1e-4)
    deltas = [dp_to_pdp(base, es).delta for es in (2.0, 5.0, 10.0, 50.0)]
    # strictly decreasing until the correction factors saturate to 1.0 in
    # floating point (at eps* = 50 the output equals delta exactly)
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    assert deltas[0] > deltas[1] > deltas[2]
    assert all(d >= base.delta for d in deltas)
    assert deltas[-1] == base.delta


def test_dp_to_pdp_range_error():
    with pytest.raises(ValueError):
        dp_to_pdp(PrivacyBudget(1, 0.1), 1.0 + 1e-9)


def test_dp_to_pdp_domain_error():
    with pytest.raises(ValueError):
        dp_to_pdp(PrivacyBudget(1, 1e-4), 1.0)


def test_round_trip_inflates_delta():
    b = PrivacyBudget(1, 1e-4)
    assert dp_to_pdp(b, b.epsilon + 1.0).delta > b.delta


def test_mcdp_value():
    got = mcdp_to_pdp_delta(McdpParams(mu=0.5, tau=1.0), 2.0)
    assert abs(got - (math.exp(-1.125) + math.exp(-3.125))) <= 1e-16


def test_mcdp_vanishes_with_tau():
    assert mcdp_to_pdp_delta(McdpParams(mu=0.5, tau=1e-3), 2.0) < 1e-300


def test_mcdp_squares_outside_the_double_range():
    # tau^2 underflows to 0; tau^2 and (eps - mu)^2 overflow
    assert mcdp_to_pdp_delta(McdpParams(0.0, 1e-200), 1.0) == 0.0
    assert mcdp_to_pdp_delta(McdpParams(1e300, 1e300), 1e308) == 0.0
    # the squares leave the range, their ratios are 1
    for scale in (1e-160, 1e200):
        got = mcdp_to_pdp_delta(McdpParams(0.0, scale), scale)
        assert got == 2.0 * math.exp(-0.5)


def test_mcdp_domain():
    with pytest.raises(ValueError):
        mcdp_to_pdp_delta(McdpParams(mu=2.0, tau=1.0), 2.0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_mcdp_dominates_exact_pdp_tail(sigma, eps):
    # Gaussian instantiation mu = 1/(2 sigma^2), tau = 1/sigma at Delta = 1:
    # the subgaussian tail bound must dominate the exact tail probability.
    mu = 1.0 / (2.0 * sigma * sigma)
    if eps <= mu:
        pytest.skip("tail bound needs eps > mu")
    bound = mcdp_to_pdp_delta(McdpParams(mu=mu, tau=1.0 / sigma), eps)
    exact = pdp_delta_profile(NoiseScale(sigma, Mechanism.PDP_OPT), eps, UNIT)
    assert bound >= exact


def test_cdp_route_above_mech4():
    b = PrivacyBudget(1, 1e-4)
    assert sigma_via_cdp_route(b, UNIT).sigma > sigma_mech4(b, UNIT).sigma


def test_cdp_route_linear_in_sensitivity():
    b = PrivacyBudget(2, 1e-3)
    assert (
        sigma_via_cdp_route(b, Sensitivity(2.0)).sigma
        == 2.0 * sigma_via_cdp_route(b, UNIT).sigma
    )


def test_cdp_route_collapses_at_log_delta_one():
    # delta = e^{-1} makes ln(1/delta) = 1: sigma = (1 + sqrt(2))/sqrt(2)
    got = sigma_via_cdp_route(PrivacyBudget(1, math.exp(-1.0)), UNIT).sigma
    assert abs(got - (1.0 + math.sqrt(2.0)) / math.sqrt(2.0)) <= 1e-15


def test_zcdp_of_sigma():
    assert zcdp_of_sigma(NoiseScale(1.0, Mechanism.CDP_ROUTE), UNIT).rho == 0.5
    sigma = 1.0 / math.sqrt(2.0)
    got = zcdp_of_sigma(NoiseScale(sigma, Mechanism.CDP_ROUTE), UNIT).rho
    assert abs(got - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        zcdp_of_sigma(NoiseScale(0.0, Mechanism.CDP_ROUTE), UNIT)


def test_zcdp_squares_outside_the_double_range():
    with pytest.raises(ValueError, match="^rho must be finite and positive, got inf$"):
        zcdp_of_sigma(NoiseScale(1e-200, Mechanism.CDP_ROUTE), UNIT)
    # the squares underflow or overflow, the ratio is 1
    for scale in (1e-200, 1e200):
        assert zcdp_of_sigma(NoiseScale(scale, Mechanism.CDP_ROUTE), Sensitivity(scale)).rho == 0.5


def test_zcdp_round_trip():
    # rho = 1/(2 sigma^2) and eps = rho + 2 sqrt(rho ln(1/delta)) invert the
    # route formula exactly (algebraically); check to 1e-9 relative.
    sigma, delta = 2.0, 1e-5
    rho = zcdp_of_sigma(NoiseScale(sigma, Mechanism.CDP_ROUTE), UNIT).rho
    eps = rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
    back = sigma_via_cdp_route(PrivacyBudget(eps, delta), UNIT).sigma
    assert abs(back - sigma) <= 1e-9 * sigma


def test_route_dominance_grid():
    for eps in (0.1, 1.0):
        for delta in (1e-6, 1e-3):
            b = PrivacyBudget(eps, delta)
            route = sigma_via_cdp_route(b, UNIT).sigma
            m4 = sigma_mech4(b, UNIT).sigma
            m3 = sigma_mech3(b, UNIT).sigma
            pdp = solve_pdp_opt(b, UNIT).noise.sigma
            dp = solve_dp_opt(b, UNIT).noise.sigma
            assert route > m4 > m3 > pdp >= dp, (eps, delta)
