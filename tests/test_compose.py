"""Composition accounting: the effective unit-sensitivity noise scale and
the composed DP/pDP levels."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from gaussdp.calib import (
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    dp_delta_profile,
    pdp_delta_profile,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.compose import (
    CompositionTerm,
    composed_dp_delta,
    composed_pdp_delta,
    effective_unit_sigma,
)
from gaussdp.mech import privacy_loss_tails
from oracles import oracle_dp_delta, rel_err

UNIT = Sensitivity(1.0)


def term(delta_i, sigma_i):
    return CompositionTerm(Sensitivity(delta_i), sigma_i)


def test_identical_terms_collapse():
    terms = [term(1.0, 3.0)] * 4
    assert effective_unit_sigma(terms) == 3.0 / math.sqrt(4.0)
    terms = [term(0.5, 3.0)] * 5
    expected = 3.0 / (0.5 * math.sqrt(5.0))
    assert abs(effective_unit_sigma(terms) - expected) <= 1e-12 * expected


def test_single_term_identity():
    assert effective_unit_sigma([term(1.0, 2.0)]) == 2.0


def test_three_term_example():
    got = effective_unit_sigma([term(1, 1), term(2, 2), term(3, 3)])
    assert abs(got - 1.0 / math.sqrt(3.0)) <= 1e-12


def test_empty_and_degenerate():
    with pytest.raises(ValueError):
        effective_unit_sigma([])
    with pytest.raises(ValueError):
        effective_unit_sigma([term(0.0, 1.0), term(0.0, 2.0)])
    with pytest.raises(ValueError):
        term(1.0, 0.0)


def test_zero_sensitivity_terms_contribute_nothing():
    base = [term(1.0, 2.0)]
    padded = [term(0.0, 7.0)] + base + [term(0.0, 0.1)]
    assert effective_unit_sigma(padded) == effective_unit_sigma(base)


def test_squares_outside_the_double_range():
    # 1e300 ** 2 overflows; 1e-200 ** 2 and 2 (1e-200) ** 2 underflow
    assert effective_unit_sigma([term(1.0, 1e-300)]) == 1e-300
    assert composed_dp_delta([term(1.0, 1e-300)], 1.0) == 1.0
    assert composed_pdp_delta([term(1.0, 1e-300)], 1.0) == 1.0
    assert effective_unit_sigma([term(1e-200, 1e-200)]) == 1.0
    assert effective_unit_sigma([term(1.0, 2.0), term(1e-300, 1.0)]) == 2.0
    # each square is normal, their sum overflows
    got = effective_unit_sigma([term(2.0 ** 511, 1.0)] * 8)
    assert got == 2.0 ** -511 / math.sqrt(8.0)


@pytest.mark.parametrize(
    "delta_i, sigma_i, size",
    [(1e300, 1e-10, "small"), (1e-300, 1e300, "large"), (5e-324, 1.0, "large")],
)
def test_sigma_star_outside_the_normal_range_is_named(delta_i, sigma_i, size):
    message = f"^the composition's sigma_star is too {size}: it leaves the normal double range$"
    for account in (effective_unit_sigma, lambda terms: composed_dp_delta(terms, 1.0)):
        with pytest.raises(ValueError, match=message):
            account([term(delta_i, sigma_i)])


def test_sigma_star_over_the_whole_range():
    # inside the squares' range the bits are those of the plain sum;
    # outside it within 3e-16 of a 40-digit sum, or a ValueError exactly
    # where sigma_star is not a normal double
    rng = random.Random(11)
    for _ in range(2000):
        pairs = [(10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300))
                 for _ in range(rng.randint(1, 4))]
        ratios = [d / s for d, s in pairs]
        with mp.workdps(40):
            exact = 1 / mp.sqrt(mp.fsum((mpf(d) / mpf(s)) ** 2 for d, s in pairs))
            normal = mpf(2) ** -1022 <= exact < mpf(2) ** 1024
        terms = [term(d, s) for d, s in pairs]
        if not normal:
            with pytest.raises(ValueError):
                effective_unit_sigma(terms)
            continue
        got = effective_unit_sigma(terms)
        if all(2.0 ** -511 <= r <= 2.0 ** 511 for r in ratios):
            assert got == 1.0 / math.sqrt(math.fsum(r * r for r in ratios))
        assert rel_err(got, exact) <= 3e-16, pairs


def test_sigma_star_sums_correctly_rounded_squares():
    # glibc's pow(r, 2) rounds this r's square an ulp high (0.5458960082663522
    # against the correctly rounded 0.5458960082663521), which moves
    # sigma_star of two such terms by an ulp; twice a square adds exactly
    r = 0.7388477571640535
    expected = 1 / math.sqrt(float(2 * Fraction(r) ** 2))
    assert effective_unit_sigma([term(r, 1.0)] * 2) == expected == 0.9570398966908441


def test_composed_dp_single_term_consistency():
    eps, delta = 1.0, 1e-4
    sigma = solve_dp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
    assert abs(composed_dp_delta([term(1.0, sigma)], eps) - delta) <= 1e-9


def test_composing_degrades_privacy():
    eps, delta = 1.0, 1e-4
    sigma = solve_dp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
    two = composed_dp_delta([term(1.0, sigma)] * 2, eps)
    assert two > delta


def test_composed_dp_monte_carlo():
    # L* ~ Normal(A*, 2 A*) with A* = sum Delta_i^2/(2 sigma_i^2); the DP
    # level is Pr[L* > eps] - e^eps Pr[L* < -eps]
    terms = [term(1.0, 2.0), term(1.0, 2.0)]
    eps, n = 1.0, 1_000_000
    expected = composed_dp_delta(terms, eps)
    sigma_star = effective_unit_sigma(terms)
    above, below = privacy_loss_tails(1.0, sigma_star, eps, n, seed=77)
    got = above - math.exp(eps) * below
    stderr = (
        math.sqrt(
            above * (1 - above)
            + math.exp(2 * eps) * below * (1 - below)
            + 2.0 * math.exp(eps) * above * below
        )
        / math.sqrt(n)
    )
    assert abs(got - expected) <= 3.0 * stderr


# (terms, eps): multi-term compositions, one with a term that leaks nothing
GDP_COMPOSITIONS = (
    (((1.0, 2.0), (0.5, 1.3), (2.0, 7.0)), 0.5),
    (((1.0, 2.0), (0.5, 1.3), (2.0, 7.0)), 3.0),
    (((0.3, 1.1), (0.0, 0.2), (1.7, 9.5), (0.01, 0.004)), 1.0),
    (tuple((1.0 + 0.1 * i, 12.0 + i) for i in range(20)), 2.0),
    (((1e-3, 0.01), (2e-3, 0.05)), 0.1),
)


@pytest.mark.parametrize("pairs, eps", GDP_COMPOSITIONS)
def test_composed_dp_matches_gdp_composition(pairs, eps):
    # Dong, Roth & Su (Gaussian Differential Privacy, 2019): the terms
    # compose to mu-GDP with mu = sqrt(sum (Delta_i / sigma_i)^2), whose DP
    # profile is that of a unit-sensitivity Gaussian at sigma = 1 / mu;
    # mu is formed here at 50 digits, apart from effective_unit_sigma
    mu = mp.sqrt(mp.fsum((mpf(d) / mpf(s)) ** 2 for d, s in pairs))
    got = composed_dp_delta([term(d, s) for d, s in pairs], eps)
    assert rel_err(got, oracle_dp_delta(1 / mu, eps)) <= 1e-11


def test_composed_pdp_single_term_consistency():
    eps, delta = 1.0, 1e-4
    sigma = solve_pdp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
    assert abs(composed_pdp_delta([term(1.0, sigma)], eps) - delta) <= 1e-9


def test_composed_pdp_dominates_dp():
    terms = [term(1.0, 1.0), term(2.0, 1.0)]
    assert composed_pdp_delta(terms, 1.0) >= composed_dp_delta(terms, 1.0)


def test_sqrt_m_scaling():
    # m copies of (1, sigma) equal a single unit mechanism at sigma/sqrt(m);
    # with sigma = 2, m = 4 the collapse is exact in floating point
    terms = [term(1.0, 2.0)] * 4
    assert effective_unit_sigma(terms) == 1.0
    eps = 1.0
    exact = pdp_delta_profile(NoiseScale(1.0, Mechanism.PDP_OPT), eps, UNIT)
    assert composed_pdp_delta(terms, eps) == exact
    # generic m: identity holds through effective_unit_sigma by construction
    terms = [term(1.0, 2.0)] * 3
    star = effective_unit_sigma(terms)
    assert composed_pdp_delta(terms, eps) == pdp_delta_profile(
        NoiseScale(star, Mechanism.PDP_OPT), eps, UNIT
    )


def test_calibration_round_trip():
    # sigma_i = sqrt(m) * Delta_i * sigma_target composes back to the
    # single-mechanism delta at sigma_target
    eps, sigma_target = 1.0, 1.7
    want_dp = dp_delta_profile(NoiseScale(sigma_target, Mechanism.DP_OPT), eps, UNIT)
    for m, sens_list in ((2, [1.0, 3.0]), (5, [0.2, 0.4, 1.0, 2.0, 5.0])):
        terms = [
            term(d, math.sqrt(m) * d * sigma_target) for d in sens_list
        ]
        got = composed_dp_delta(terms, eps)
        assert abs(got - want_dp) <= 1e-9 * want_dp, m


@given(st.permutations(list(range(6))))
def test_permutation_invariance(order):
    base = [term(1, 1), term(2, 2), term(3, 3), term(0.5, 1.5), term(4, 9), term(0, 1)]
    shuffled = [base[i] for i in order]
    assert effective_unit_sigma(shuffled) == effective_unit_sigma(base)


# ratios Delta / sigma from 2^-1000 to 2^700, beyond the 2^+-511 whose
# squares are normal doubles, among ordinary ones; sigma_star stays normal
WIDE_TERMS = [(1e200, 1e-20), (1.0, 2.0), (1e-160, 1e150), (3.0, 1e-140), (0.5, 1.5), (7.0, 7.0)]


@given(st.permutations(range(len(WIDE_TERMS))))
def test_permutation_invariance_beyond_the_square_range(order):
    base = [term(*pair) for pair in WIDE_TERMS]
    star = effective_unit_sigma(base)
    assert star == 1e-220  # the 1e200 / 1e-20 term dominates every other
    assert effective_unit_sigma([base[i] for i in order]) == star
    # two ratios of 2^600 and 2^-600 beside 1: the first sets sigma_star alone
    pair = [term(2.0**600, 1.0), term(1.0, 1.0), term(1.0, 2.0**600)]
    for shuffled in (pair, pair[::-1], pair[1:] + pair[:1]):
        assert effective_unit_sigma(shuffled) == 2.0**-600
    # squares 1 and 64 of 2^-54: summed from the 1, each 2^-54 rounds away,
    # and the sum is exact only if every square counts, in either order
    for scale in (1.0, 2.0**600):
        many = [term(scale, 1.0)] + [term(scale, 2.0**27)] * 64
        want = 1.0 / scale / math.sqrt(1.0 + 2.0**-48)
        assert effective_unit_sigma(many) == effective_unit_sigma(many[::-1]) == want


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_adding_terms_degrades_privacy_property(extra_sens, extra_sigma):
    base = [term(1.0, 2.0), term(0.5, 1.0)]
    grown = base + [term(extra_sens, extra_sigma)]
    assert effective_unit_sigma(grown) < effective_unit_sigma(base)
    eps = 1.0
    assert composed_dp_delta(grown, eps) > composed_dp_delta(base, eps)
    assert composed_pdp_delta(grown, eps) > composed_pdp_delta(base, eps)
