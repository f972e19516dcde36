"""Arbitrary-precision oracles (mpmath, 50 significant digits).

These live only in the test suite; the shipped library is double precision.
Expected values in the tests are either frozen literals produced by these
functions or recomputed here at collection time.
Float inputs are read as the exact double, ``mpf(float(x))``: the decimal
``repr`` of a subnormal is up to 1.2% off it (``repr(5e-324)``).
"""

from mpmath import erfc as _erfc, erfinv as _erfinv, exp as _exp, mp, mpf

mp.dps = 50
# digits oracle_dp_delta keeps beyond those it loses to cancellation
_GUARD_DIGITS = 5

# the relative width to which the oracles bisect a root
_BISECT_WIDTH = mpf("1e-25")


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
    mu-GDP profile of Dong, Roth & Su with mu = 1/sigma).

    The two terms cancel where both are near 1 (tiny eps), so the difference
    is formed again with as many more digits as cancelled, plus a guard,
    and rounded to mp.dps."""
    extra = 0
    while True:
        with mp.workdps(mp.dps + extra):
            s, e = mpf(sigma), mpf(eps)
            a = (e * s - 1 / (2 * s)) / mp.sqrt(2)
            b = (e * s + 1 / (2 * s)) / mp.sqrt(2)
            head = _erfc(a)
            diff = head - _exp(e) * _erfc(b)
            # digits lost to cancellation: all of them where diff <= 0
            lost = int(mp.log10(head / diff)) if diff > 0 else mp.dps
        if lost <= extra:
            return +diff / 2
        extra = lost + _GUARD_DIGITS


def _bisect(excess, lo, hi):
    """The root of excess, which is > 0 at lo and <= 0 at hi, bisected at
    full precision to a relative width below _BISECT_WIDTH; the upper end."""
    while hi - lo > hi * _BISECT_WIDTH:
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def oracle_failure_threshold(f_of_delta, delta):
    """The eps at which noise F(delta)/eps meets the optimal DP noise.

    The profile strictly decreases in sigma, so the crossing is the root of
    oracle_dp_delta(F/eps, eps) = delta, which rises in eps.  The root lies
    in (0, 2F (F + sqrt(2) erfinv(delta))]: at eps = 2F^2 - 2 sqrt(2) F a the
    profile's a is that a, and the profile exceeds erf(-a) for a < 0, so the
    crossing's a is above -erfinv(delta).
    """
    f_of_delta, delta = mpf(float(f_of_delta)), mpf(float(delta))
    hi = 2 * f_of_delta * (f_of_delta + mp.sqrt(2) * _erfinv(delta))
    return _bisect(lambda eps: delta - oracle_dp_delta(f_of_delta / eps, eps), 0, hi)


def oracle_dp_opt_sigma(eps, delta, lo, hi):
    """The optimal DP sigma at sensitivity 1: the root of
    oracle_dp_delta(sigma, eps) = delta, which strictly decreases in sigma,
    bisected at full precision on the sign-change bracket (lo, hi)."""
    eps, delta = mpf(float(eps)), mpf(float(delta))
    lo, hi = mpf(lo), mpf(hi)
    if not oracle_dp_delta(lo, eps) > delta >= oracle_dp_delta(hi, eps):
        raise ValueError("no sign change of the profile on (lo, hi)")
    return _bisect(lambda sigma: oracle_dp_delta(sigma, eps) - delta, lo, hi)


def rel_err(got, true) -> float:
    true = mpf(true)
    if true == 0:
        return abs(float(got))
    return float(abs((mpf(float(got)) - true) / true))
