"""Arbitrary-precision oracles (mpmath, 50 significant digits).

These live only in the test suite; the shipped library is double precision.
Expected values in the tests are either frozen literals produced by these
functions or recomputed here at collection time.
Float inputs are read as the exact double, ``mpf(float(x))``: the decimal
``repr`` of a subnormal is up to 1.2% off it (``repr(5e-324)``).
"""

from mpmath import erfc as _erfc, erfinv as _erfinv, exp as _exp, mp, mpf

mp.dps = 50

# the library's pre-scan for failure_threshold: 1e-3 to 1e4, four steps a decade
_FRONTIER_GRID = [mpf(10) ** (mpf(k) / 4 - 3) for k in range(29)]


def oracle_erf(x):
    return mp.erf(mpf(float(x)))


def oracle_erfc(x):
    return _erfc(mpf(float(x)))


def oracle_erfcx(x):
    x = mpf(float(x))
    if x > 1e10:
        # exp(x^2) erfc(x) goes wrong in mpmath from about x = 1e50 (and
        # raises from 1e160); erfcx(x) = U(1/2, 1/2, x^2) / sqrt(pi) holds
        return mp.hyperu(0.5, 0.5, x * x) / mp.sqrt(mp.pi)
    return _exp(x * x) * _erfc(x)


def oracle_inverfc(p):
    """The root of ln erfc(x) = ln p.  Posed in logs it keeps its digits
    down to p = 5e-324, where erfinv(1 - p) is inf: 1 - p rounds to 1 at
    50 digits.  The start sqrt(-ln p) lies above the root, as erfc(x) <
    e^{-x^2} for x > 0."""
    p = mpf(float(p))
    if p > 1:
        return -oracle_inverfc(2 - p)
    return mp.findroot(lambda x: mp.log(_erfc(x) / p), mp.sqrt(-mp.log(p)))


def oracle_erfinv(p):
    return _erfinv(mpf(float(p)))


def oracle_dp_delta(sigma, eps):
    """Exact DP profile at sensitivity 1: (1/2) erfc(a) - (e^eps/2) erfc(b),
    a, b = (eps sigma -+ 1/(2 sigma)) / sqrt(2) (Balle & Wang 2018; the
    mu-GDP profile of Dong, Roth & Su with mu = 1/sigma)."""
    sigma, eps = mpf(sigma), mpf(eps)
    a = (eps * sigma - 1 / (2 * sigma)) / mp.sqrt(2)
    b = (eps * sigma + 1 / (2 * sigma)) / mp.sqrt(2)
    return (_erfc(a) - _exp(eps) * _erfc(b)) / 2


def oracle_failure_threshold(f_of_delta, delta):
    """The eps at which noise F(delta)/eps meets the optimal DP noise.

    The profile strictly decreases in sigma, so the crossing is the root of
    oracle_dp_delta(F/eps, eps) = delta; it is bracketed by the same
    geometric scan over [1e-3, 1e4] as the library, then refined by
    bracketed root finding on the relative excess at full precision.
    """
    f_of_delta, delta = mpf(float(f_of_delta)), mpf(float(delta))

    def excess(eps):
        return oracle_dp_delta(f_of_delta / eps, eps) / delta - 1

    grid = _FRONTIER_GRID
    if excess(grid[0]) >= 0:
        raise ValueError("profile already exceeds delta at eps = 1e-3")
    for lo, hi in zip(grid, grid[1:]):
        if excess(hi) >= 0:
            return mp.findroot(excess, (lo, hi), solver="anderson")
    raise ValueError("no crossing in [1e-3, 1e4]")


def oracle_dp_opt_sigma(eps, delta, lo, hi):
    """The optimal DP sigma at sensitivity 1: the root of
    oracle_dp_delta(sigma, eps) = delta, which strictly decreases in sigma,
    bisected at full precision on the sign-change bracket (lo, hi) to a
    relative width below 1e-20."""
    eps, delta = mpf(float(eps)), mpf(float(delta))
    lo, hi = mpf(lo), mpf(hi)
    if not oracle_dp_delta(lo, eps) > delta >= oracle_dp_delta(hi, eps):
        raise ValueError("no sign change of the profile on (lo, hi)")
    while hi - lo > hi * mpf("1e-20"):
        mid = (lo + hi) / 2
        if oracle_dp_delta(mid, eps) > delta:
            lo = mid
        else:
            hi = mid
    return hi


def rel_err(got, true) -> float:
    true = mpf(true)
    if true == 0:
        return abs(float(got))
    return float(abs((mpf(float(got)) - true) / true))
