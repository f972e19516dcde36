"""Error-function family: point values against the 50-digit oracle, the
reflection/scaling identities, and the inverse round trips."""

import math

import pytest
from hypothesis import given, strategies as st

from gaussdp.specfun import erf, erfc, erfcx, inverf, inverfc, inverfc_seed

from oracles import oracle_erf, oracle_erfc, oracle_erfcx, rel_err

# frozen 50-digit oracle values (see oracles.py)
ERF_1 = 0.8427007929497148693412206350826092592960669979663
ERFC_2 = 0.0046777349810472658379307436327470713891082029599399
ERFC_6 = 2.1519736712498913116593350399187384630477514061689e-17
ERFCX_30 = 0.018795888861416751497125329049406209149988649550176
INVERF_HALF = 0.47693627620446987338141835364313055980896974905947


def test_erf_zero():
    assert erf(0.0) == 0.0


def test_erf_one():
    assert rel_err(erf(1.0), ERF_1) <= 1e-14


def test_erf_six_saturates():
    # erfc(6) ~ 2.15e-17 is below half an ulp of 1, so erf(6) rounds to 1
    assert rel_err(erfc(6.0), ERFC_6) <= 1e-13
    assert erf(6.0) == 1.0


def test_erf_odd_symmetry():
    for x in (0.3, 1.7, 4.2):
        assert erf(-x) == -erf(x)


def test_erfc_zero():
    assert erfc(0.0) == 1.0


def test_erfc_reflection():
    lhs = erfc(-1.5)
    rhs = 2.0 - erfc(1.5)
    assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


def test_erfc_two():
    assert rel_err(erfc(2.0), ERFC_2) <= 1e-13


def test_erfcx_zero():
    assert erfcx(0.0) == 1.0


def test_erfcx_thirty():
    assert rel_err(erfcx(30.0), ERFCX_30) <= 1e-13
    # two-term asymptotic series 1/(x sqrt(pi)) (1 - 1/(2 x^2)) at x = 30
    asym = (1.0 - 1.0 / 1800.0) / (30.0 * math.sqrt(math.pi))
    assert abs(asym - erfcx(30.0)) <= 1e-4 * erfcx(30.0)


@pytest.mark.parametrize("x", [1e300, 1e308, 1.7e308])
def test_erfcx_huge_argument(x):
    # 1 + 2x overflows near 9e307; the answer is a tiny (at 1e308, subnormal)
    # positive number, not 0
    got = erfcx(x)
    assert got > 0.0
    assert rel_err(got, oracle_erfcx(x)) <= 1e-13


def test_erfcx_defining_identity():
    x = 3.0
    assert abs(erfcx(x) * math.exp(-x * x) - erfc(x)) <= 1e-13 * erfc(x)


def test_erfcx_monotone_decreasing_nonneg():
    lo, hi = -6.0, 6.0  # log10 grid from 1e-6 to 1e6
    xs = [0.0] + [10 ** (lo + (hi - lo) * k / 499) for k in range(500)]
    values = [erfcx(x) for x in xs]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_erfcx_negative_overflow():
    assert math.isfinite(erfcx(-26.5))
    with pytest.raises(OverflowError):
        erfcx(-26.7)


def test_non_finite_rejected():
    for fn in (erf, erfc, erfcx):
        with pytest.raises(ValueError):
            fn(math.nan)
        with pytest.raises(ValueError):
            fn(math.inf)


def test_inverfc_at_one():
    assert inverfc(1.0) == 0.0


def test_inverfc_roundtrip_1e4():
    # The double closest to the exact root already has erfc off by ~4.4e-16
    # relative, so that representability floor (not 1e-16) is the bound here.
    v = inverfc(1e-4)
    assert abs(erfc(v) - 1e-4) <= 5e-16 * 1e-4


def test_inverfc_sign():
    assert inverfc(0.3) > 0.0
    assert inverfc(1.7) < 0.0
    # 2 - 1.75 is exact in binary, so the reflection is exact here
    assert inverfc(1.75) == -inverfc(0.25)


@pytest.mark.parametrize("p", [0.001, 0.1, 0.4])
def test_seed_dominates_inverfc(p):
    assert inverfc(p) < inverfc_seed(p)


@pytest.mark.parametrize("p", [0.0, -0.5, 2.0, 2.5])
def test_inverfc_domain(p):
    with pytest.raises(ValueError):
        inverfc(p)


def test_inverfc_subnormal_argument():
    # erfc underflows near x ~ 27, so the best any double can certify is a
    # neighborhood; the root must stay inside the proven bracket
    for p in (1e-310, 5e-324):
        x = inverfc(p)
        assert 26.5 < x < inverfc_seed(p)


def test_inverf_zero():
    assert inverf(0.0) == 0.0


def test_inverf_half():
    assert rel_err(inverf(0.5), INVERF_HALF) <= 1e-12


def test_inverf_antisymmetry():
    assert inverf(-0.3) == -inverf(0.3)


def test_inverf_matches_inverfc():
    assert inverf(0.25) == inverfc(0.75)


@pytest.mark.parametrize("p", [-1.0, 1.0, 1.5])
def test_inverf_domain(p):
    with pytest.raises(ValueError):
        inverf(p)


def test_seed_value_half():
    # direct arithmetic: sqrt(ln(2/(sqrt(5)-1)))
    expected = math.sqrt(math.log(2.0 / (math.sqrt(5.0) - 1.0)))
    assert abs(inverfc_seed(0.5) - expected) <= 1e-15


def test_seed_monotone_decreasing():
    lo, hi = -12.0, math.log10(0.99)
    ys = [10 ** (lo + (hi - lo) * k / 99) for k in range(100)]
    seeds = [inverfc_seed(y) for y in ys]
    assert all(a > b for a, b in zip(seeds, seeds[1:]))


@pytest.mark.parametrize("y", [0.0, 1.0, -0.1, 1.5])
def test_seed_domain(y):
    with pytest.raises(ValueError):
        inverfc_seed(y)


# --- properties -----------------------------------------------------------


@given(st.floats(min_value=-34.5, max_value=0.3))
def test_roundtrip_property(log10_p):
    # p on a log grid in [1e-15, 1.999] per the module invariant; the upper
    # half (1, 2) is reached through the p > 1 reflection
    p = 10.0 ** log10_p
    if p >= 2.0:
        return
    v = inverfc(p)
    assert abs(erfc(v) / p - 1.0) <= 1e-12


@given(st.floats(min_value=0.0, max_value=6.0))
def test_reflection_property(x):
    assert abs(erfc(-x) + erfc(x) - 2.0) <= 1e-13


@given(st.floats(min_value=0.0, max_value=26.0))
def test_scaled_identity_property(x):
    lhs = erfcx(x) * math.exp(-x * x)
    assert abs(lhs - erfc(x)) <= 1e-13 * erfc(x)


@given(st.floats(min_value=-12.0, max_value=-0.0000044))
def test_seed_bound_property(log10_y):
    y = 10.0 ** log10_y  # (1e-12, 0.99...]
    assert inverfc(y) < inverfc_seed(y)


@given(st.floats(min_value=0.01, max_value=5.5))
def test_oracle_agreement_property(x):
    assert rel_err(erfc(x), oracle_erfc(x)) <= 1e-13


@given(st.floats(min_value=-5.9, max_value=5.9))
def test_erf_oracle_agreement_property(x):
    true = oracle_erf(x)
    if abs(true) <= 1e-300:
        return  # subnormal outputs cannot carry 1e-14 relative precision
    assert rel_err(erf(x), true) <= 1e-14


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, -0.7, 0.999])
def test_inverf_roundtrip(p):
    assert abs(erf(inverf(p)) - p) <= 1e-12 * abs(p)
