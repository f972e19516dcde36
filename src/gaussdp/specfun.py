"""Error-function family: erf, erfc, scaled erfcx, and inverses.

Everything downstream (calibration, profiles, solvers) is built on these
five scalar functions.  The primitive is ``erfcx(x) = exp(x**2) * erfc(x)``,
which lets products of the form ``exp(eps) * erfc(sqrt(u**2 + eps))`` be
evaluated as ``erfcx(sqrt(u**2 + eps)) * exp(-u**2)`` without overflow.

Implementation notes:
  * erf and erfc are the platform libm's (``math.erf``, ``math.erfc``);
    libm's erfc never forms 1 - erf, so large x loses nothing.
  * erfcx on (-26.6, 26.5]: exp(hi^2) * erfc(x) * exp((x - hi)(x + hi)),
    where hi is x with its low 27 bits cleared (Veltkamp split by 2^27 + 1).
    hi^2 is exact, so the rounding of x^2 (up to 6e-14 relative in exp(x^2)
    near |x| = 26) never reaches the result; negative x needs no reflection.
    Below -26.6 the result overflows: x^2 > ln(MAX/2) ~ 708.7.
  * erfcx above 26.5: the asymptotic series (1/sqrt(pi))/x sum_k (-1)^k
    (2k-1)!! / (2x^2)^k, eight terms, whose first omitted term is below
    2e-19 relative there; it stays finite (subnormal) up to the largest
    double.
  * inverfc: Newton iteration on ln erfc(x) = ln erfcx(x) - x^2, started
    from the proven strict upper bound sqrt(ln(2 / (sqrt(8p + 1) - 1))) (see
    ``inverfc_seed``).  erfc is log-concave, so from above the root every
    Newton step stays between the root and the last iterate: no fallback is
    needed, and the erfcx form holds down to subnormal p.
  * inverf: inverfc(1 - p) for p >= 0.25; for smaller p, Newton on erf
    from p sqrt(pi)/2, free of the cancellation in 1 - p.
  * erf, erfc and erfcx reject NaN and +-inf with a ValueError, by a check
    written inline: the solvers call erfc and erfcx a dozen times a solve,
    and a helper call for the check was 8% of a dp-opt solve.

Accuracy is validated in the test suite against a 50-digit mpmath oracle:
erfc within 1e-15 relative on [-6, 26.5], erfcx within 1e-15 on [-26.5,
1.7e308] and erf within 1e-14 on [-6, 6] (a weaker platform libm fails these
checks), and inverfc within 1e-12 round-trip and within 1e-15 of the
root at subnormal p.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_ONE_OVER_SQRT_PI = 1.0 / _SQRT_PI

# Above this erfcx is the asymptotic series; below it libm's erfc(x) is still
# a normal double (~2e-307 at 26.5), so the scaled product keeps full precision.
_ERFCX_ASYMPTOTIC = 26.5
# 2*exp(x^2) overflows IEEE doubles once x^2 > ln(MAX/2) ~ 708.69.
_NEG_OVERFLOW_X2 = 708.69
# Veltkamp's constant 2^27 + 1: splits a double into a 26-bit high part.
_SPLIT = 134217729.0


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x**2) * erfc(x).

    Raises OverflowError for x below about -26.6, where the result exceeds
    the double range; finite everywhere else.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x > _ERFCX_ASYMPTOTIC:
        # the asymptotic series in Horner form; 0.5/(x*x) is 0, not an
        # error, where x*x overflows
        t = 0.5 / (x * x)
        total = 1.0
        for odd in (13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0):
            total = 1.0 - odd * t * total
        return _ONE_OVER_SQRT_PI / x * total
    if x * x > _NEG_OVERFLOW_X2:
        raise OverflowError(f"erfcx({x}) overflows double precision")
    # exp(x^2) = exp(hi^2) exp((x - hi)(x + hi)) with hi the top 26 bits of
    # x: hi^2 is exact, so no rounding of x^2 reaches the exponential.
    c = _SPLIT * x
    hi = c - (c - x)
    return math.exp(hi * hi) * math.erfc(x) * math.exp((x - hi) * (x + hi))


def erfc(x: float) -> float:
    """Complementary error function (the platform libm's)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return math.erfc(x)


def erf(x: float) -> float:
    """Error function (the platform libm's)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return math.erf(x)


def inverfc_seed(y: float) -> float:
    """Proven strict upper bound sqrt(ln(2/(sqrt(8y+1)-1))) on inverfc(y).

    Valid for 0 < y < 1; used as the Newton starting point here and as the
    closed-form constant of the elementary-function mechanisms.
    """
    y = float(y)
    if not 0.0 < y < 1.0:
        raise ValueError(f"inverfc_seed requires 0 < y < 1, got {y!r}")
    # sqrt(8y+1)-1 is evaluated as 8y/(sqrt(8y+1)+1) to avoid cancellation
    # for tiny y, and the quotient 2/(...) in log space so subnormal y
    # (where it would overflow) still works.
    denom = 8.0 * y / (math.sqrt(8.0 * y + 1.0) + 1.0)
    return math.sqrt(math.log(2.0) - math.log(denom))


def inverfc(p: float) -> float:
    """Inverse of erfc on (0, 2): erfc(inverfc(p)) == p to ~1e-12 relative.

    Positive for p < 1, zero at p == 1, negative for p > 1.  Newton runs on
    g(x) = ln erfc(x) - ln p = ln erfcx(x) - x^2 - ln p from the strict upper
    bound ``inverfc_seed(p)``.  erfc is log-concave, so g is concave and
    decreasing, and each tangent from above the root lands between the root
    and the last iterate: the iterates fall monotonely and never leave the
    bracket.  erfcx neither overflows nor goes subnormal, down to p = 5e-324.
    """
    p = float(p)
    if not 0.0 < p < 2.0:
        raise ValueError(f"inverfc requires 0 < p < 2, got {p!r}")
    if p == 1.0:
        return 0.0
    if p > 1.0:
        return -inverfc(2.0 - p)
    log_p = math.log(p)
    x = inverfc_seed(p)
    for _ in range(60):
        # g'(x) = -(2/sqrt(pi)) / erfcx(x)
        scaled = erfcx(x)
        dx = (math.log(scaled) - x * x - log_p) * _SQRT_PI * 0.5 * scaled
        x += dx
        # convergence is quadratic: a step this short leaves under an ulp
        if abs(dx) <= 1e-8 * x:
            break
    return x


def inverf(p: float) -> float:
    """Inverse error function on (-1, 1).

    For p >= 0.25 this is inverfc(1 - p), which loses at most a few ulps to
    the rounding of 1 - p; below, erf is inverted directly, since 1 - p would
    lose the digits of a small p (all of them below 1.1e-16).
    """
    p = float(p)
    if not -1.0 < p < 1.0:
        raise ValueError(f"inverf requires -1 < p < 1, got {p!r}")
    if p == 0.0:
        return 0.0
    if p < 0.0:
        return -inverf(-p)
    if p >= 0.25:
        return inverfc(1.0 - p)
    # Newton on erf from x = p sqrt(pi)/2: erf is concave on x > 0 and
    # erf(x) < 2x/sqrt(pi), so the iterates start below the root (< 0.23)
    # and rise monotonely.
    x = p * _SQRT_PI * 0.5
    for _ in range(60):
        dx = (p - erf(x)) * _SQRT_PI * 0.5 * math.exp(x * x)
        x += dx
        # erf's own rounding keeps the final steps at an ulp or two, so stop
        # once the step is this small: the quadratic error left is far below.
        if abs(dx) <= 5e-15 * x:
            break
    return x
