"""Gaussian noise calibrations for (eps, delta)-DP and (eps, delta)-pDP.

Covers the two classical calibrations (Dwork-2006/2014), the optimal DP and
pDP noise amounts (safeguarded-Newton solvers on proven brackets, with a
profile certificate on every answer), four closed-form upper-bound
mechanisms (the two built on inverfc certified too), the exact DP/pDP
privacy profiles delta(sigma), and the failure frontier G(delta) above which
any F(delta)*Delta/eps calibration stops achieving DP.

Conventions used throughout:

  * Every noise amount has the shape sigma = (u + sqrt(u^2 + eps)) * Delta /
    (eps * sqrt(2)) for some auxiliary root u; for u < 0 this is evaluated in
    the equivalent cancellation-free form Delta / (sqrt(2) * (sqrt(u^2+eps) - u)).
    Each calibration is thus linear in Delta, and one tail (``_noise``)
    decides every sigma at its edges: 0 at Delta = 0, and at Delta > 0 a
    ValueError naming the sensitivity wherever sigma leaves the normal
    double range.
  * Every difference of error functions is taken from one method.  The DP
    residual and profile erfc(u) - exp(eps) erfc(s), s = sqrt(u^2 + eps),
    are e^{-u^2} (erfcx(u) - erfcx(s)) for u >= 0 and 2 - e^{-u^2}
    (erfcx(-u) + erfcx(s)) for u < 0: exp(eps) cancels exactly, so no eps
    overflows, and where s - u is short the erfcx difference is integrated
    instead of subtracted (``_dp_erfcx_drop``).  The pDP residual erfc(u) +
    erfc(s) is a sum, free of cancellation.
  * Each residual has one formula (``_dp_value``, ``_pdp_value``).  A
    Newton step calls it once, through ``_dp_value_slope`` or
    ``_pdp_value_slope``, which form the slope from the same e^{-u^2} and
    s and return both.  The profiles, and so the certificate and
    composition, call the formula alone and pay for no slope; the failure
    frontier adds its own closed-form eps-slope to the DP profile.
  * One routine (``_solve_decreasing``) finds every root, the frontier's
    too: it shrinks a sign-change bracket of a strictly decreasing function
    by Newton steps on its logarithm or else by bisection, and stops about
    DEFAULT_TOL/2 above the root, so a solver's sigma errs on the noisy
    (safe) side.  The exact profile (DP for dp-opt, pDP for pdp-opt) is the
    only proof: one shared tail certifies every answer on it, raising sigma
    by a few ulps wherever rounding left the profile above delta, and
    reports the residual 2 (profile - delta) <= 0 it achieved.  It also closes
    mechanisms 1 (DP) and 3 (pDP), whose inverfc-based roots lie close
    enough to the exact ones for rounding to matter.  Mechanisms 2, 4 and
    the cdp route sit far above theirs and never miss on the tests' domain
    sweep; a profile would double their cost, so they skip it.
  * ``calibrate`` and ``compare_grid`` share one table of nine entries.
    Each entry looks its public function up by module attribute when
    called, so a rebound name reroutes ``calibrate``; the five closed forms
    whose root depends on delta alone also name that root, which
    ``compare_grid`` takes once per delta column, and their root-to-sigma
    step.  ``relations`` (the cdp route) imports from this module, so it is
    imported once, at the end of this module, after every name it takes.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .specfun import erfc, erfcx, inverf, inverfc, inverfc_seed

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# the root tolerance of every solve; only the two optimal solvers take another
DEFAULT_TOL = 1e-12
# cap on inverfc_seed's argument in dp-opt's negative branch, whose exact
# value is below 1 but rounds to 1.0 at tiny eps and delta
_BELOW_ONE = math.nextafter(1.0, 0.0)
_MAX_ITERS = 200
# cap on the doubling ulp nudges of the certificate: 2^64 ulp is over 4000
# times sigma, far beyond any rounding shortfall
_MAX_CERT_STEPS = 64
# below the least normal double a value has lost precision: a target
# (2 delta) is so coarse that fn equals it on a whole plateau of u, and a
# sigma is no longer returned
_FLOAT_MIN = sys.float_info.min


class Mechanism(str, Enum):
    """Tags for the nine calibrations, in the fixed table/report order."""

    DWORK2006 = "dwork2006"
    DWORK2014 = "dwork2014"
    DP_OPT = "dp-opt"
    MECH1 = "mech1"
    MECH2 = "mech2"
    PDP_OPT = "pdp-opt"
    MECH3 = "mech3"
    MECH4 = "mech4"
    CDP_ROUTE = "cdp-route"

    def __str__(self) -> str:  # so f-strings print the tag, not the repr
        return self.value


MECHANISM_ORDER: tuple[Mechanism, ...] = tuple(Mechanism)


class ConvergenceError(RuntimeError):
    """A solve failed to shrink its bracket below tol within the cap, or a
    certificate failed to pass within its cap."""


class BracketError(RuntimeError):
    """No sign change of the function between the ends of a root bracket."""


def _shown(value) -> str:
    """repr(value) for an error message; an int too long for repr (over
    sys.get_int_max_str_digits() digits) is named by its size instead."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {int(value).bit_length()} bits"


def _check_range(name: str, value: float, upper: float = math.inf, zero: bool = False) -> float:
    """Return value if it is finite and in (0, upper), or in [0, inf) with
    ``zero``, else raise a ValueError that names the bound.  Every range and
    count (through ``_check_count``) of the library is checked here, before
    any float() of the value: an int past the double range is refused as
    given."""
    try:
        if math.isfinite(value) and (0.0 < value or zero and value == 0.0) and value < upper:
            return value
    except OverflowError:  # math.isfinite of an int too large for a double
        pass
    if upper < math.inf:
        bound = f"in (0, {upper:g})"
    else:
        bound = "finite and >= 0" if zero else "finite and positive"
    raise ValueError(f"{name} must be {bound}, got {_shown(value)}")


def _check_count(name: str, value: float, zero: bool = False) -> int:
    """int(value), a count >= 1 (>= 0 with ``zero``); one with a fractional
    part, which int() would truncate, is refused as given."""
    count = int(_check_range(name, value, zero=zero))
    if count != value:
        raise ValueError(f"{name} must be an integer >= {0 if zero else 1}, got {_shown(value)}")
    return count


@dataclass(frozen=True, init=False)
class PrivacyBudget:
    """An (epsilon, delta) pair; epsilon > 0 and 0 < delta < 1."""

    epsilon: float
    delta: float

    def __init__(self, epsilon: float, delta: float) -> None:
        self.__dict__["epsilon"] = _check_range("epsilon", epsilon)
        self.__dict__["delta"] = _check_range("delta", delta, 1.0)


@dataclass(frozen=True, init=False)
class Sensitivity:
    """The query's l2-sensitivity (max l2 distance of true outputs on
    neighboring datasets)."""

    l2: float

    def __init__(self, l2: float) -> None:
        self.__dict__["l2"] = _check_range("l2 sensitivity", l2, zero=True)


@dataclass(frozen=True, init=False)
class NoiseScale:
    """A Gaussian standard deviation together with the mechanism that
    produced it."""

    sigma: float
    kind: Mechanism

    def __init__(self, sigma: float, kind: Mechanism) -> None:
        self.__dict__["sigma"] = _check_range("sigma", sigma, zero=True)
        self.__dict__["kind"] = kind


@dataclass(frozen=True, init=False)
class CalibrationResult:
    """Solver output: the noise scale plus root-finding telemetry.

    ``bracket_low``/``bracket_high`` record the initial proven bracket,
    whose sign change the solver's own evaluations confirm; ``iterations``
    counts every evaluation of the defining equation; ``residual`` is the
    defining-equation residual at the certified sigma, 2 (profile(sigma) -
    delta) on the solver's own profile, so never positive.  ``noise.sigma``
    passes that profile, so it may sit a few ulps above
    ``_sigma_from_root(root)``.

    Built like the value types: its own __init__ stores each field straight
    into the instance dict, where the frozen dataclass's generated one
    would pay an object.__setattr__ per field.  The solvers fill every
    field, so nothing is checked.
    """

    noise: NoiseScale
    root: float
    bracket_low: float
    bracket_high: float
    iterations: int
    residual: float

    def __init__(
        self,
        noise: NoiseScale,
        root: float,
        bracket_low: float,
        bracket_high: float,
        iterations: int,
        residual: float,
    ) -> None:
        fields = self.__dict__
        fields["noise"] = noise
        fields["root"] = root
        fields["bracket_low"] = bracket_low
        fields["bracket_high"] = bracket_high
        fields["iterations"] = iterations
        fields["residual"] = residual


# ---------------------------------------------------------------------------
# shared numerics


def _sigma_from_root(u: float, eps: float, l2: float) -> float:
    # sigma = (u + sqrt(u^2 + eps)) * l2 / (eps * sqrt(2)); for u < 0 use the
    # algebraically identical form without cancellation.
    s = math.sqrt(u * u + eps)
    if u >= 0.0:
        return (u + s) * l2 / (eps * _SQRT2)
    return l2 / (_SQRT2 * (s - u))


def _half_square_ratio(x: float, y: float) -> float:
    """x^2 / (2 y^2), as such where both squares are normal doubles, else
    as (x / y)^2 / 2, which leaves the double range only with the answer."""
    num, den = x * x, 2.0 * y * y
    if _FLOAT_MIN <= min(num, den) and max(num, den) < math.inf:
        return num / den
    ratio = x / y
    return 0.5 * ratio * ratio


# Below this width b - a, erfcx(a) - erfcx(b) is integrated rather than
# subtracted; a dp-opt request with eps >= 1e-2 and delta >= 1e-12 never
# comes this close (b - a >= 9.8e-4 there).
_SHORT_STEP = 1e-4
# the 2-point Gauss-Legendre nodes on [0, 1] lie this far from the middle
_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)


def _dp_erfcx_drop(a: float, b: float, eps: float) -> float:
    """erfcx(a) - erfcx(b) for a >= 0 and b = sqrt(a^2 + eps); positive.

    Subtracting the two erfcx values magnifies their rounding by
    erfcx(a) / drop, about 2a^2 / eps for large a, as b - a = eps / (a + b)
    shrinks; below _SHORT_STEP the drop is
    -int_a^b erfcx'(t) dt, erfcx'(t) = 2t erfcx(t) - 2/sqrt(pi), by 2-point
    Gauss-Legendre, whose relative error, of order (b - a)^4 / 4320, is far
    below an ulp.
    """
    width = eps / (a + b)
    if width >= _SHORT_STEP:
        return erfcx(a) - erfcx(b)
    mid = a + 0.5 * width
    left, right = mid - _GAUSS_OFFSET * width, mid + _GAUSS_OFFSET * width
    return width * (_TWO_OVER_SQRT_PI - left * erfcx(left) - right * erfcx(right))


def _dp_value(u: float, eps: float, s: float, decay: float) -> float:
    # r(u) = erfc(u) - exp(eps)*erfc(s), s = sqrt(u^2+eps), given decay =
    # e^{-u^2}; strictly decreasing in u.  Both terms share the factor
    # e^{-u^2}, so r is formed from erfcx alone: e^{-u^2} (erfcx(u) -
    # erfcx(s)) for u >= 0, where the drop is positive by construction, and
    # 2 - e^{-u^2} (erfcx(-u) + erfcx(s)) for u < 0.
    if u >= 0.0:
        return decay * _dp_erfcx_drop(u, s, eps)
    return 2.0 - decay * (erfcx(-u) + erfcx(s))


def _dp_value_slope(u: float, eps: float) -> tuple[float, float]:
    # (r(u), r'(u)) from one e^{-u^2} and one s: r'(u) = -(2/sqrt(pi))
    # e^{-u^2} (1 - u/s), with 1 - u/s = eps / (s (s + u)) free of
    # cancellation for u >= 0.
    decay = math.exp(-u * u)
    s = math.sqrt(u * u + eps)
    ratio = eps / (s * (s + u)) if u >= 0.0 else 1.0 - u / s
    return _dp_value(u, eps, s, decay), -_TWO_OVER_SQRT_PI * decay * ratio


def _pdp_value(u: float, s: float) -> float:
    # erfc(u) + erfc(s), s = sqrt(u^2+eps); strictly decreasing in u.
    return erfc(u) + erfc(s)


def _pdp_value_slope(u: float, eps: float) -> tuple[float, float]:
    # d/du [erfc(u) + erfc(s)] = -(2/sqrt(pi)) e^{-u^2} (1 + e^{-eps} u/s)
    s = math.sqrt(u * u + eps)
    slope = -_TWO_OVER_SQRT_PI * math.exp(-u * u) * (1.0 + math.exp(-eps) * u / s)
    return _pdp_value(u, s), slope


def _solve_decreasing(fn, lo, hi, target, tol, fn_lo=None, fn_hi=None):
    """Solve fn(u) == target on a sign-change bracket fn(lo) > target >=
    fn(hi); fn has the sign of target and need not be monotone elsewhere.

    One call fn(u) returns the pair (fn(u), fn'(u)), so each evaluation
    gives the value and the slope, and each end of the bracket keeps its
    pair.  Each step is a Newton step on ln(fn / target) = 0 from the last
    evaluated point, or else from the other end where fn is known (this
    catches roots where ln fn bends so that the near end overshoots), taken
    if it lands inside the bracket and is under half the previous step;
    otherwise the step bisects.  A Newton step shorter than sqrt(tol)/10
    that lands in the bracket, at c, from a base where fn is within a factor
    e of target is within a small fraction of tol of the root (farther out,
    ln fn can be so steep that a short step says nothing of the distance):
    the solve returns min(c + 0.4 tol, hi) unevaluated, which keeps about
    tol/2 of slack above the root, as bisection does, and leaves the proof
    to the caller (a solver's profile certificate).  Two exceptions: where
    c + 0.4 tol rounds to c (an ulp of c is over 0.8 tol), c is only an
    ordinary step and the bracket must narrow below tol; and at a subnormal
    target fn is quantized and equals target on a whole plateau, so a zero
    step (fn(base) == target) is skipped rather than returned.
    ``fn_lo``/``fn_hi`` give the pair at the ends where known; fn(hi) is
    evaluated otherwise, which confirms the bracket.  A known fn_lo <=
    target means the root sits at lo to within fn's rounding, and min(lo +
    0.4 tol, hi) is returned unevaluated, with the same slack.

    Every evaluation shrinks the bracket.  Returns (root, evaluations):
    root is that Newton end point or else the upper end of a final bracket
    narrower than tol (so fn(root) <= target), and evaluations counts every
    call of fn.
    """
    if fn_lo is not None and fn_lo[0] <= target:
        return min(lo + 0.4 * tol, hi), 0
    evaluations = 0
    if fn_hi is None:
        fn_hi = fn(hi)
        evaluations = 1
    if not fn_hi[0] <= target:
        raise BracketError(f"no sign change: {fn_hi[0]!r} > {target!r} at {hi!r}")
    close = 0.1 * math.sqrt(tol)
    x = hi  # the last evaluated point, Newton's first base
    last_step = hi - lo
    while hi - lo >= tol:
        if evaluations >= _MAX_ITERS:
            raise ConvergenceError(
                f"bracket width {hi - lo:.3e} not below tol {tol:.3e} "
                f"after {evaluations} evaluations"
            )
        u = 0.5 * (lo + hi)
        ends = ((hi, fn_hi), (lo, fn_lo))
        for base, known in ends if x == hi else ends[::-1]:
            # Newton on ln(fn / target); skipped where fn is unknown, not of
            # target's sign, flat, or too far from target for a finite ratio
            if known is None:
                continue
            value, d = known
            ratio = value / target
            if not 0.0 < ratio < math.inf or d >= 0.0:
                continue
            c = base + math.log(ratio) * value / -d
            if abs(c - base) < close and abs(math.log(ratio)) < 1.0:
                if not lo <= c <= hi or (c == base and abs(target) < _FLOAT_MIN):
                    continue
                if c - 0.4 * tol < c + 0.4 * tol:
                    return min(c + 0.4 * tol, hi), evaluations
                # c + 0.4 tol rounds to c: the bracket must narrow below tol
            if lo < c < hi and abs(c - base) < 0.5 * last_step:
                u = c
                break
        last_step = abs(u - x)
        if not lo < u < hi:
            # bracket exhausted at float resolution with width still >= tol
            raise ConvergenceError(
                f"tol {tol:.3e} is below float resolution at root {hi!r}"
            )
        value = fn(u)
        evaluations += 1
        if value[0] > target:
            lo, fn_lo = u, value
        else:
            hi, fn_hi = u, value
        x = u
    return hi, evaluations


def _noise(
    sigma: float, kind: Mechanism, budget: PrivacyBudget, sens: Sensitivity
) -> NoiseScale:
    """NoiseScale(sigma, kind) for a sigma computed at sensitivity sens.

    The one place that decides sigma at the edges of the sensitivity.
    Every calibration is linear in it, so Delta = 0 gives sigma 0; at
    Delta > 0 a sigma outside [_FLOAT_MIN, inf), which gives no privacy (0)
    or has lost its precision (subnormal) or its range (inf), raises a
    ValueError naming the sensitivity as too small or too large.
    """
    if sens.l2 == 0.0:
        sigma = 0.0
    elif sigma < _FLOAT_MIN or sigma == math.inf:
        size = "small" if sigma < _FLOAT_MIN else "large"
        raise ValueError(
            f"sensitivity {sens.l2!r} is too {size} for {kind} at "
            f"epsilon={budget.epsilon!r}, delta={budget.delta!r}: sigma "
            "leaves the normal double range"
        )
    return NoiseScale(sigma, kind)


def _certified(root, kind, budget, sens, unit_profile) -> tuple[NoiseScale, float]:
    """(_noise(sigma), achieved): sigma = _sigma_from_root(root) raised by 1,
    2, 4, ... ulp until its profile achieved = unit_profile(sigma / Delta,
    eps) <= delta.  Roots err on the safe side, but an unevaluated Newton end
    point, or rounding in inverfc or the profile, can leave sigma a few ulps
    short.  A sigma below _FLOAT_MIN (Delta = 0, or too small) is left to
    ``_noise``, achieving delta."""
    eps, delta = budget.epsilon, budget.delta
    sigma, achieved = _sigma_from_root(root, eps, sens.l2), delta
    if sigma >= _FLOAT_MIN:
        step = math.ulp(sigma)
        for _ in range(_MAX_CERT_STEPS):
            achieved = unit_profile(sigma / sens.l2, eps)
            if achieved <= delta:
                break
            sigma += step
            step += step
        else:
            raise ConvergenceError(
                f"sigma {sigma!r} still misses its profile at eps={eps!r}, delta={delta!r}"
            )
    return _noise(sigma, kind, budget, sens), achieved


# ---------------------------------------------------------------------------
# classical calibrations


def _log_ratio(c: float, delta: float) -> float:
    """ln(c / delta), also where c / delta overflows (subnormal delta); the
    difference ln c - ln delta is used only there, as it rounds differently."""
    ratio = c / delta
    if ratio < math.inf:
        return math.log(ratio)
    return math.log(c) - math.log(delta)


def _dwork2006_root(delta: float) -> float:
    return math.sqrt(2.0 * _log_ratio(2.0, delta))


def _dwork2014_root(delta: float) -> float:
    return math.sqrt(2.0 * _log_ratio(1.25, delta))


def _classical_noise(kind, root, budget, sens) -> NoiseScale:
    return _noise(root * sens.l2 / budget.epsilon, kind, budget, sens)


def sigma_dwork2006(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """sqrt(2 ln(2/delta)) * Delta / eps.

    No DP guarantee is implied for eps > 1; see ``failure_threshold`` for
    the eps beyond which this noise provably fails.
    """
    return _classical_noise(Mechanism.DWORK2006, _dwork2006_root(budget.delta), budget, sens)


def sigma_dwork2014(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """sqrt(2 ln(1.25/delta)) * Delta / eps; same eps <= 1 caveat as above."""
    return _classical_noise(Mechanism.DWORK2014, _dwork2014_root(budget.delta), budget, sens)


# ---------------------------------------------------------------------------
# privacy profiles


# Beyond |a| = 27.5 both profiles round to exactly 0.0 (a > 0) or 1.0
# (a < 0), and for extreme sigma a*a (or a itself) overflows.
_PROFILE_SATURATES = 27.5


def _dp_delta_unit(sigma_over_l2: float, eps: float) -> float:
    if sigma_over_l2 == 0.0:  # sigma / Delta underflowed: the a -> -inf limit
        return 1.0
    a = (eps * sigma_over_l2 - 0.5 / sigma_over_l2) / _SQRT2
    if not -_PROFILE_SATURATES <= a <= _PROFILE_SATURATES:
        return 0.0 if a > 0.0 else 1.0
    return 0.5 * _dp_value(a, eps, math.sqrt(a * a + eps), math.exp(-a * a))


def _pdp_delta_unit(sigma_over_l2: float, eps: float) -> float:
    if sigma_over_l2 == 0.0:  # sigma / Delta underflowed: the lam -> -inf limit
        return 1.0
    lam = (eps * sigma_over_l2 - 0.5 / sigma_over_l2) / _SQRT2
    if not -_PROFILE_SATURATES <= lam <= _PROFILE_SATURATES:
        return 0.0 if lam > 0.0 else 1.0
    return 0.5 * _pdp_value(lam, math.sqrt(lam * lam + eps))


def _check_profile_args(sigma: NoiseScale, epsilon: float, sens: Sensitivity) -> float:
    epsilon = float(_check_range("epsilon", epsilon))
    if sigma.sigma <= 0.0 or sens.l2 <= 0.0:
        _check_range("sigma", sigma.sigma)
        _check_range("l2 sensitivity", sens.l2)
    return epsilon


def dp_delta_profile(sigma: NoiseScale, epsilon: float, sens: Sensitivity) -> float:
    """Smallest delta for which this sigma achieves (epsilon, delta)-DP.

    Equals (1/2) erfc(a) - (e^eps / 2) erfc(sqrt(a^2 + eps)) with
    a = (eps sigma / Delta - Delta / (2 sigma)) / sqrt(2); strictly
    decreasing in sigma.
    """
    epsilon = _check_profile_args(sigma, epsilon, sens)
    return _dp_delta_unit(sigma.sigma / sens.l2, epsilon)


def pdp_delta_profile(sigma: NoiseScale, epsilon: float, sens: Sensitivity) -> float:
    """Smallest delta for which this sigma achieves (epsilon, delta)-pDP:
    (1/2)[erfc(lam) + erfc(sqrt(lam^2 + eps))]; always >= the DP profile."""
    epsilon = _check_profile_args(sigma, epsilon, sens)
    return _pdp_delta_unit(sigma.sigma / sens.l2, epsilon)


def achieves_dp(sigma: NoiseScale, budget: PrivacyBudget, sens: Sensitivity) -> bool:
    """True iff the DP profile of sigma at budget.epsilon is <= budget.delta
    (non-strict: noise calibrated exactly to the boundary counts).

    At sensitivity 0 the query answers alike on neighbouring datasets, so
    any sigma, 0 included, gives (eps, 0)-DP: True without a profile.
    """
    if sens.l2 == 0.0:
        return True
    return dp_delta_profile(sigma, budget.epsilon, sens) <= budget.delta


# ---------------------------------------------------------------------------
# closed-form mechanisms


def _mech1_root(eps: float, delta: float) -> float:
    s = erfcx(math.sqrt(eps))  # = exp(eps) * erfc(sqrt(eps))
    t = 2.0 * delta + s
    if t >= 2.0:
        return 0.0
    u = inverfc(t)
    # ratio exp(eps)*erfc(sqrt(u^2+eps)) / t, with t = erfc(u); the product
    # is formed as erfcx(sqrt(u^2+eps)) e^{-u^2}, which overflows for no eps
    ratio = erfcx(math.sqrt(u * u + eps)) * math.exp(-u * u) / t
    denom = 1.0 - ratio
    if denom > 0.0:
        arg = 2.0 * delta / denom
        if 0.0 < arg < 2.0:
            return inverfc(arg)
    # ratio tends to 1 as eps -> 0, and 1 - ratio rounds to 0 (or arg out
    # of inverfc's domain) once it is below ratio's rounding error: at every
    # delta <= 1e-20 tried, for eps below about 3e-32; never at delta >=
    # 1e-12.  Fall back to mechanism 2's elementary bound, a strict upper
    # bound on this root, though a loose one there.  No delta >= 0.5 gets
    # here: with E = e^eps erfc(sqrt(eps)) and t = 2 delta + E < 2,
    # e^eps erfc(sqrt(u^2 + eps)) <= E, so ratio <= E/t and 1 - ratio - delta
    # >= delta (2 - t) / t > 0, i.e. 0 < 2 delta / (1 - ratio) < 2.  Where
    # 2 - t is only a few ulps, u = inverfc(t) is large and negative, so
    # ratio is far below E/t.
    return inverfc_seed(2.0 * delta)


def sigma_mech1(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """Closed-form upper bound on the optimal DP noise (erfc/inverfc based).

    b = inverfc(2 delta / (1 - e^eps erfc(sqrt(u^2+eps)) / (2 delta +
    e^eps erfc(sqrt(eps))))) with u = inverfc(2 delta + e^eps erfc(sqrt(eps)))
    when 2 - e^eps erfc(sqrt(eps)) > 2 delta, else b = 0; then
    sigma = (b + sqrt(b^2 + eps)) Delta / (eps sqrt(2)), certified on the
    DP profile.
    """
    b = _mech1_root(budget.epsilon, budget.delta)
    return _certified(b, Mechanism.MECH1, budget, sens, _dp_delta_unit)[0]


def _mech2_root(delta: float) -> float:
    if delta >= 0.5:
        raise ValueError(f"mechanism 2 requires delta < 0.5, got delta={delta!r}")
    return inverfc_seed(2.0 * delta)


def _root_noise(kind, root, budget, sens) -> NoiseScale:
    return _noise(_sigma_from_root(root, budget.epsilon, sens.l2), kind, budget, sens)


def _pdp_root_noise(kind, root, budget, sens) -> NoiseScale:
    return _certified(root, kind, budget, sens, _pdp_delta_unit)[0]


def sigma_mech2(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """Elementary-function upper bound, valid for delta < 0.5:
    c = sqrt(ln(2/(sqrt(16 delta + 1) - 1)))."""
    return _root_noise(Mechanism.MECH2, _mech2_root(budget.delta), budget, sens)


def sigma_mech3(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """Closed-form upper bound on the optimal pDP noise: f = inverfc(delta),
    certified on the pDP profile."""
    return _pdp_root_noise(Mechanism.MECH3, inverfc(budget.delta), budget, sens)


def sigma_mech4(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """Elementary-function upper bound on the optimal pDP noise:
    g = sqrt(ln(2/(sqrt(8 delta + 1) - 1))); valid for all delta in (0, 1)."""
    return _root_noise(Mechanism.MECH4, inverfc_seed(budget.delta), budget, sens)


def dp_opt_zero_eps(delta: float, sens: Sensitivity) -> NoiseScale:
    """Optimal Gaussian noise for (0, delta)-DP: Delta / (2 sqrt(2) inverf(delta)).

    A strict, eps-independent upper bound on the optimal (eps, delta)-DP noise
    for every eps > 0, attained in the limit eps -> 0.  The edges of the
    sensitivity follow ``_noise``: Delta = 0 gives sigma 0, and a sigma
    below the normal double range at Delta > 0 names the sensitivity.
    """
    delta = float(_check_range("delta", delta, 1.0))
    sigma = sens.l2 / (2.0 * _SQRT2 * inverf(delta))
    if sens.l2 > 0.0 and sigma < _FLOAT_MIN:
        raise ValueError(
            f"sensitivity {sens.l2!r} is too small for the (0, delta)-DP sigma "
            f"at delta={delta!r}: sigma leaves the normal double range"
        )
    if sigma == math.inf:
        raise ValueError(
            f"delta={delta!r} is too small: the (0, delta)-DP sigma at "
            f"sensitivity {sens.l2!r} exceeds the double range"
        )
    return NoiseScale(sigma, Mechanism.DP_OPT)


# ---------------------------------------------------------------------------
# optimal-noise solvers


def _solver_result(kind, budget, sens, unit_profile, root, lo, hi, iterations):
    """The solvers' shared tail: certify the sigma of root on unit_profile
    and report it with the solve's telemetry."""
    noise, achieved = _certified(root, kind, budget, sens, unit_profile)
    return CalibrationResult(
        noise=noise,
        root=root,
        bracket_low=lo,
        bracket_high=hi,
        iterations=iterations,
        residual=2.0 * (achieved - budget.delta),
    )


def solve_dp_opt(
    budget: PrivacyBudget, sens: Sensitivity, tol: float = DEFAULT_TOL
) -> CalibrationResult:
    """Optimal (least) Gaussian noise for (eps, delta)-DP.

    Solves erfc(a) - e^eps erfc(sqrt(a^2 + eps)) = 2 delta by safeguarded
    Newton (see ``_solve_decreasing``) and returns sigma = (a + sqrt(a^2 +
    eps)) Delta / (eps sqrt(2)), certified on the DP profile.  The bracket
    follows the sign of diff = 1 - e^eps erfc(sqrt(eps)) - 2 delta:
    a = 0 when diff == 0; (0, c] with mechanism 2's constant
    c = inverfc_seed(2 delta) > inverfc(2 delta) when diff > 0; and
    [-inverfc_seed((2 - 2 delta)/(e^eps + 1)), 0) when diff < 0, a bound
    on |a| looser than inverfc of the same argument; capping that argument
    at _BELOW_ONE, as its rounding needs, only loosens the bound.
    """
    tol = float(_check_range("tol", tol))
    eps, delta = budget.epsilon, budget.delta
    target = 2.0 * delta
    at_zero = _dp_value_slope(0.0, eps)

    def fn(u: float) -> tuple[float, float]:
        return _dp_value_slope(u, eps)

    if at_zero[0] == target:
        root, lo, hi, iterations = 0.0, 0.0, 0.0, 0
    elif at_zero[0] > target:
        lo, hi = 0.0, inverfc_seed(target)
        root, iterations = _solve_decreasing(fn, lo, hi, target, tol, fn_lo=at_zero)
    else:
        # Beyond eps = 700, e^eps overflows; the bound at eps = 700 (about
        # 26.4) still holds, as r(-26.4) > 2 - 1e-300 > 2 delta.
        y = (2.0 - 2.0 * delta) / (math.exp(min(eps, 700.0)) + 1.0)
        lo, hi = -inverfc_seed(min(y, _BELOW_ONE)), 0.0
        root, iterations = _solve_decreasing(fn, lo, hi, target, tol, fn_hi=at_zero)
    return _solver_result(
        Mechanism.DP_OPT, budget, sens, _dp_delta_unit, root, lo, hi, iterations
    )


def solve_pdp_opt(
    budget: PrivacyBudget, sens: Sensitivity, tol: float = DEFAULT_TOL
) -> CalibrationResult:
    """Optimal (least) Gaussian noise for (eps, delta)-pDP.

    Solves erfc(d) + erfc(sqrt(d^2 + eps)) = 2 delta by safeguarded Newton
    (see ``_solve_decreasing``), certified on the pDP profile.  The root
    lies in (inverfc(2 delta), inverfc(delta)); the solver's bracket is
    [0, inverfc_seed(delta)] for delta < 0.5 (mechanism 4's constant, above
    inverfc(delta)) and [inverfc(2 delta), inverfc_seed(delta)] otherwise,
    where the root may be negative.
    """
    tol = float(_check_range("tol", tol))
    eps, delta = budget.epsilon, budget.delta
    target = 2.0 * delta
    hi = inverfc_seed(delta)
    if delta < 0.5:
        lo, fn_lo = 0.0, None
    else:
        # at large eps the root lies within ~1e-10 of this end, where
        # Newton must start: from hi alone every step would bisect
        lo = inverfc(target)
        fn_lo = _pdp_value_slope(lo, eps)
    root, iterations = _solve_decreasing(
        lambda u: _pdp_value_slope(u, eps), lo, hi, target, tol, fn_lo=fn_lo
    )
    return _solver_result(
        Mechanism.PDP_OPT, budget, sens, _pdp_delta_unit, root, lo, hi, iterations
    )


# ---------------------------------------------------------------------------
# failure frontier of F(delta) * Delta / eps calibrations


def failure_threshold(f_of_delta: float, delta: float) -> float:
    """The eps at which noise F(delta) * Delta / eps crosses the optimal DP
    noise from above; beyond it the calibration cannot achieve (eps, delta)-DP.

    ``f_of_delta`` is the multiplier F(delta) itself, e.g.
    sqrt(2 ln(1.25/delta)) for Dwork-2014.  Both noises are linear in Delta
    and the DP profile strictly decreases in sigma, so G is the root of
    delta(F/eps, eps) = delta at Delta = 1: dp-opt's r(a; eps) = 2 delta with
    a = (F - eps/(2F)) / sqrt(2), i.e. eps = 2F^2 - 2 sqrt(2) F a.  Newton
    (``_solve_decreasing``) starts at eps0 = 2F^2 (a = 0) with the slope
    d delta/d eps = e^{-a^2} (1/(sqrt(2 pi) F) - erfcx(b)/2), b = sqrt(a^2 +
    eps), on dp-opt's bracket read along that line.  r <= erfc(a), so a* <
    inverfc_seed(2 delta); r rises with eps, r_eps = e^{-a^2} (1/(sqrt(pi) b)
    - erfcx(b)) > 0, so for a < 0 it exceeds its eps -> 0 limit 2 erf(-a),
    and -a* < erfinv(delta) < inverfc_seed(min(1 - delta, _BELOW_ONE)).  For
    delta >= 0.5, a* < 0 (r(0; eps) < 1 <= 2 delta), and the solve runs on
    the complement e^{-a^2} (erfcx(-a) + erfcx(b)) / 2 = 1 - delta, exact.
    The tolerance is DEFAULT_TOL * min(upper end, 1), at least 2 ulp of it;
    where G is below ~0.005 (F far below delta's multiplier) the Newton exit
    can miss by more, about tol / (200 G).  Where 2 F^2 is not a normal
    double a ValueError names F(delta).
    """
    f = float(_check_range("F(delta)", f_of_delta))
    delta = float(_check_range("delta", delta, 1.0))
    eps0, scale = 2.0 * f * f, 2.0 * _SQRT2 * f  # eps = eps0 - scale * a
    if not _FLOAT_MIN <= eps0 < math.inf:
        raise ValueError(f"F(delta) must have 2 F(delta)^2 a normal double, got {f!r}")
    near_one = delta >= 0.5
    target = 1.0 - delta if near_one else -delta

    def fn(eps: float) -> tuple[float, float]:
        # (-delta(F/eps, eps), or its complement, and -d delta/d eps); the
        # slope is 0 where e^{-a^2} underflows, as the profile is flat there
        a, b = (eps0 - eps) / scale, (f + 0.5 * eps / f) / _SQRT2
        decay = math.exp(-a * a)
        slope = decay and decay * (_TWO_OVER_SQRT_PI / _SQRT2 / f - erfcx(b)) / 2.0
        if near_one:
            return 0.5 * decay * (erfcx(-a) + erfcx(b)), -slope
        return -0.5 * _dp_value(a, eps, b, decay), -slope

    at_eps0 = fn(eps0)
    if at_eps0[0] >= target:  # a* <= 0; hi rounded up keeps a(hi) below the bound
        hi = eps0 + scale * inverfc_seed(min(1.0 - delta, _BELOW_ONE))
        lo, hi, fn_lo, fn_hi = eps0, math.nextafter(hi, math.inf), at_eps0, None
    else:
        lo, hi = max(0.0, eps0 - scale * inverfc_seed(2.0 * delta)), eps0
        fn_lo, fn_hi = None, at_eps0
    tol = max(DEFAULT_TOL * min(hi, 1.0), 2.0 * math.ulp(hi))
    return _solve_decreasing(fn, lo, hi, target, tol, fn_lo, fn_hi)[0]


# ---------------------------------------------------------------------------
# dispatcher


# kind: (calibration, delta_root, finish).  Calibrations and specfun roots look
# their function up by module attribute when called, so that rebinding it (as
# a call tracer does) reroutes them.  A closed form with a root of delta alone
# names it, and the finish(kind, root, budget, sens) its public function ends in.
_CALIBRATIONS = {
    Mechanism.DWORK2006: (lambda b, s: sigma_dwork2006(b, s), _dwork2006_root, _classical_noise),
    Mechanism.DWORK2014: (lambda b, s: sigma_dwork2014(b, s), _dwork2014_root, _classical_noise),
    Mechanism.DP_OPT: (lambda b, s: solve_dp_opt(b, s).noise, None, None),
    Mechanism.MECH1: (lambda b, s: sigma_mech1(b, s), None, None),
    Mechanism.MECH2: (lambda b, s: sigma_mech2(b, s), _mech2_root, _root_noise),
    Mechanism.PDP_OPT: (lambda b, s: solve_pdp_opt(b, s).noise, None, None),
    Mechanism.MECH3: (lambda b, s: sigma_mech3(b, s), lambda d: inverfc(d), _pdp_root_noise),
    Mechanism.MECH4: (lambda b, s: sigma_mech4(b, s), lambda d: inverfc_seed(d), _root_noise),
    Mechanism.CDP_ROUTE: (lambda b, s: relations.sigma_via_cdp_route(b, s), None, None),
}


def calibrate(kind: Mechanism, budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """Calibrated noise scale for any mechanism tag (solvers at DEFAULT_TOL)."""
    if not isinstance(kind, Mechanism):
        kind = Mechanism(kind)  # a string tag, or a ValueError
    return _CALIBRATIONS[kind][0](budget, sens)


def compare_grid(
    eps_grid: Iterable[float], delta_grid: Iterable[float], sens: Sensitivity
) -> list[tuple[float, float, Mechanism, float, bool]]:
    """Rows (eps, delta, kind, sigma, achieves_dp) for every mechanism at
    every (eps, delta) of the grid: eps outer, delta inner, MECHANISM_ORDER
    innermost.

    Each sigma is ``calibrate``'s and each flag ``achieves_dp``'s, bit for
    bit, and the first error is the scalar loop's.  dp-opt, mech1, pdp-opt
    and the cdp route go through their public functions; the other five
    take their delta-root from the table once per delta column, at its first
    cell in the scalar loop's order, and finish each cell by their public
    function's step.  A flag is ``achieves_dp`` past the checks the cell's
    budget and ``_noise`` have passed; dp-opt's and mech1's are True, since
    their certificate checked the same DP profile on the same floats (a pDP
    certificate rounds along another path, so it proves no DP flag).
    """
    calibrations = [(kind, _CALIBRATIONS[kind]) for kind in MECHANISM_ORDER]
    certain = MECHANISM_ORDER if sens.l2 == 0.0 else (Mechanism.DP_OPT, Mechanism.MECH1)
    columns = [(delta, {}) for delta in delta_grid]  # each with its kind -> delta-root
    rows = []
    for eps in eps_grid:
        for delta, roots in columns:
            budget = PrivacyBudget(eps, delta)
            for kind, (calibration, delta_root, finish) in calibrations:
                if delta_root is None:
                    sigma = calibration(budget, sens).sigma
                else:
                    if kind not in roots:
                        roots[kind] = delta_root(delta)
                    sigma = finish(kind, roots[kind], budget, sens).sigma
                achieves = kind in certain or _dp_delta_unit(sigma / sens.l2, float(eps)) <= delta
                rows.append((eps, delta, kind, sigma, achieves))
    return rows


# relations imports its names from this module, so it is imported once, here,
# after every one of them is defined; the cdp-route entry above reads it only
# when called.
from . import relations  # noqa: E402
