"""Error-function family: erf, erfc, scaled erfcx, and inverses.

Everything downstream (calibration, profiles, solvers) is built on these
five scalar functions.  The primitive is ``erfcx(x) = exp(x**2) * erfc(x)``,
which lets products of the form ``exp(eps) * erfc(sqrt(u**2 + eps))`` be
evaluated as ``erfcx(sqrt(u**2 + eps)) * exp(-u**2)`` without overflow.

Implementation notes:
  * erfcx on x >= 0: Chebyshev expansion of (1 + 2x) * erfcx(x) in the
    variable s = (x - 3.75)/(x + 3.75), which maps [0, inf) onto [-1, 1).
    The 27 coefficients below were computed by Chebyshev-node interpolation
    of the 60-digit function values; the float evaluation has measured
    relative error < 6e-16 over the whole half line.
  * erfcx on (-26.6, 0): reflection erfcx(-x) = 2 exp(x^2) - erfcx(x),
    which overflows the double range once x^2 > ln(MAX/2) ~ 708.7.
  * erfc(x) = erfcx(x) * exp(-x*x) for x >= 0 (never via 1 - erf, so no
    cancellation for large x), and the reflection 2 - erfc(-x) for x < 0.
  * erf on |x| < 1: the positive-term Maclaurin form
    erf(x) = (2x/sqrt(pi)) e^{-x^2} sum_k (2x^2)^k / (2k+1)!!,
    elsewhere 1 - erfc(x); odd symmetry is applied up front.
  * inverfc: Newton iteration on erfc started from the proven strict upper
    bound sqrt(ln(2 / (sqrt(8p + 1) - 1))) (see ``inverfc_seed``), with a
    bisection fallback should an iterate ever leave the bracket [0, seed].
  * inverf: inverfc(1 - p) for p >= 0.25; for smaller p, Newton on the erf
    series from p sqrt(pi)/2, free of the cancellation in 1 - p.

Accuracy is validated in the test suite against a 50-digit mpmath oracle;
targets are 1e-14 (erf), 1e-13 (erfc, erfcx) and 1e-12 round-trip (inverfc).
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI

# Chebyshev coefficients of (1 + 2x) * erfcx(x) in s = (x - 3.75)/(x + 3.75);
# a[0] enters Clenshaw with weight 1/2.
_ERFCX_CHEB = (
    2.3551578691348035082,
    -0.0045900545806464773309,
    -0.084249133366517915584,
    0.059209939998191890498,
    -0.026658668435305752277,
    0.0090749976707052650939,
    -0.0024131635404176081909,
    0.00049077583652580863229,
    -6.9169733025012063671e-05,
    4.1390279860730101675e-06,
    7.7403830661984906686e-07,
    -2.1886401049234395661e-07,
    1.0764999465670910377e-08,
    4.5219598112182868979e-09,
    -7.7544002088313511065e-10,
    -6.3180883408866844944e-11,
    2.8687950109306698981e-11,
    1.945586854577734723e-13,
    -9.6546967484334389059e-13,
    3.2525481481487398415e-14,
    3.3478119482868053878e-14,
    -1.8645628804193131015e-15,
    -1.2507950530688647085e-15,
    7.418235256624043463e-17,
    5.0681489047961113168e-17,
    -2.2370566594359995974e-18,
    -2.187342944303017665e-18,
)

# 2*exp(x^2) overflows IEEE doubles once x^2 > ln(MAX/2) ~ 708.69.
_NEG_OVERFLOW_X2 = 708.69


def _check_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _erfcx_nonneg(x: float) -> float:
    if x == 0.0:
        return 1.0
    s = (x - 3.75) / (x + 3.75)
    b1 = 0.0
    b2 = 0.0
    s2 = 2.0 * s
    for a in _ERFCX_CHEB[:0:-1]:
        b1, b2 = s2 * b1 - b2 + a, b1
    return (s * b1 - b2 + 0.5 * _ERFCX_CHEB[0]) / (1.0 + 2.0 * x)


def _erf_series(x: float) -> float:
    # erf(x) = (2x/sqrt(pi)) e^{-x^2} sum_{k>=0} (2x^2)^k / (1*3*...*(2k+1)).
    # All terms are positive, so no cancellation; ~17 terms suffice for |x| < 1.
    t = 2.0 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while term > total * 1e-18 and k < 60:
        k += 1
        term *= t / (2 * k + 1)
        total += term
    return _TWO_OVER_SQRT_PI * x * math.exp(-x * x) * total


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x**2) * erfc(x).

    Raises OverflowError for x below about -26.6, where the result exceeds
    the double range; finite everywhere else.
    """
    x = _check_finite(x)
    if x < 0.0:
        x2 = x * x
        if x2 > _NEG_OVERFLOW_X2:
            raise OverflowError(f"erfcx({x}) overflows double precision")
        return 2.0 * math.exp(x2) - _erfcx_nonneg(-x)
    return _erfcx_nonneg(x)


def erfc(x: float) -> float:
    """Complementary error function, computed via erfcx so large positive
    arguments suffer no 1 - erf cancellation."""
    x = _check_finite(x)
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x > 27.5:
        return 0.0  # below the smallest subnormal double
    return _erfcx_nonneg(x) * math.exp(-x * x)


def erf(x: float) -> float:
    """Error function; odd by construction (erf(-x) == -erf(x) exactly)."""
    x = _check_finite(x)
    if x < 0.0:
        return -erf(-x)
    if x < 1.0:
        return _erf_series(x)
    if x >= 6.0:
        # erfc(6) ~ 2.15e-17 is below half an ulp of 1.0
        return 1.0
    return 1.0 - erfc(x)


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

    Positive for p < 1, zero at p == 1, negative for p > 1.
    """
    p = float(p)
    if not 0.0 < p < 2.0:
        raise ValueError(f"inverfc requires 0 < p < 2, got {p!r}")
    if p == 1.0:
        return 0.0
    if p > 1.0:
        return -inverfc(2.0 - p)

    seed = inverfc_seed(p)  # strict upper bound on the root
    if seed * seed > 705.0:
        # subnormal p (< ~6e-309): exp(x^2) in the Newton step would
        # overflow, so bisect on the guaranteed bracket instead
        return _inverfc_bisect(p, seed)
    x = seed
    for _ in range(60):
        # Newton on f(x) = erfc(x) - p; f' = -2/sqrt(pi) * e^{-x^2}.
        # erfc is convex and decreasing on x > 0, so starting above the root
        # the first step may overshoot left once, then converges monotonely.
        f = erfc(x) - p
        if f == 0.0:
            return x
        dx = f * _SQRT_PI * 0.5 * math.exp(x * x)
        x_new = x + dx
        if not 0.0 <= x_new <= seed:
            # Defensive only: plain bisection on the guaranteed bracket.
            return _inverfc_bisect(p, seed)
        # Near the root the step size is dominated by erfc's own rounding
        # noise (a few ulp), so a sub-ulp threshold would never trigger.
        if abs(dx) <= 5e-15 * x_new + 1e-17:
            return x_new
        x = x_new
    return x


def _inverfc_bisect(p: float, hi: float) -> float:
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if erfc(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    # Newton on the positive-term series from x = p sqrt(pi)/2: erf is
    # concave on x > 0 and erf(x) < 2x/sqrt(pi), so the iterates start below
    # the root (< 0.23, inside the series' range) and rise monotonely.
    x = p * _SQRT_PI * 0.5
    for _ in range(60):
        dx = (p - _erf_series(x)) * _SQRT_PI * 0.5 * math.exp(x * x)
        x += dx
        # erf's own rounding keeps the final steps at an ulp or two, so stop
        # once the step is this small: the quadratic error left is far below.
        if abs(dx) <= 5e-15 * x:
            break
    return x
