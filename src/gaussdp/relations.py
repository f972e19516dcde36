"""Conversions between privacy definitions.

DP <-> pDP parameter maps, the mean-concentrated (mCDP) tail bound, and the
single noise formula that the zCDP, RDP, and tCDP routes to (eps, delta)-DP
all reduce to.  The truncated variant (tCDP) gets no operation of its own:
both of its branches coincide with the zCDP/RDP reduction below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calib import (
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    _check_range,
    _half_square_ratio,
    _log_ratio,
    _noise,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class McdpParams:
    """Mean-concentrated DP parameters: privacy-loss mean bound mu and
    subgaussian scale tau."""

    mu: float
    tau: float

    def __post_init__(self) -> None:
        self.__dict__["mu"] = _check_range("mu", self.mu, zero=True)
        self.__dict__["tau"] = _check_range("tau", self.tau)


@dataclass(frozen=True)
class ZcdpParams:
    """Zero-concentrated DP parameter rho."""

    rho: float

    def __post_init__(self) -> None:
        self.__dict__["rho"] = _check_range("rho", self.rho)


def dp_to_pdp(budget: PrivacyBudget, eps_star: float) -> PrivacyBudget:
    """(eps, delta)-DP implies (eps*, delta(1+e^{-eps*})/(1-e^{eps-eps*}))-pDP
    for any eps* > eps.

    No clamping: if the converted delta reaches 1 the budget is vacuous and a
    ValueError is raised instead.
    """
    eps_star = float(_check_range("eps_star", eps_star))
    if not eps_star > budget.epsilon:
        raise ValueError(
            f"eps_star must exceed epsilon={budget.epsilon!r}, got {eps_star!r}"
        )
    factor = (1.0 + math.exp(-eps_star)) / -math.expm1(budget.epsilon - eps_star)
    delta_star = budget.delta * factor
    if delta_star >= 1.0:
        raise ValueError(
            f"converted delta {delta_star!r} is >= 1 (vacuous); "
            f"choose eps_star further above epsilon"
        )
    return PrivacyBudget(eps_star, delta_star)


def mcdp_to_pdp_delta(params: McdpParams, epsilon: float) -> float:
    """delta of the (epsilon, delta)-pDP guarantee implied by (mu, tau)-mCDP
    for epsilon > mu: exp(-(eps-mu)^2/(2 tau^2)) + exp(-(eps+mu)^2/(2 tau^2)).

    With the Gaussian instantiation mu = 1/(2 sigma^2), tau = 1/sigma (unit
    sensitivity) this is the subgaussian tail-bound counterpart of the exact
    pDP profile, and always dominates it.
    """
    epsilon = float(_check_range("epsilon", epsilon))
    if not epsilon > params.mu:
        raise ValueError(f"epsilon must exceed mu={params.mu!r}, got {epsilon!r}")
    lo = _half_square_ratio(epsilon - params.mu, params.tau)
    hi = _half_square_ratio(epsilon + params.mu, params.tau)
    return math.exp(-lo) + math.exp(-hi)


def sigma_via_cdp_route(budget: PrivacyBudget, sens: Sensitivity) -> NoiseScale:
    """Gaussian noise for (eps, delta)-DP obtained through concentrated-DP
    accounting: Delta (sqrt(ln(1/delta)) + sqrt(ln(1/delta) + eps)) / (sqrt(2) eps).

    The zCDP, RDP, and tCDP derivations all reduce to this same expression;
    it exceeds even the weakest direct mechanism (sqrt(8 delta + 1) - 1 > 2 delta).
    """
    log_inv_delta = _log_ratio(1.0, budget.delta)
    sigma = (
        sens.l2
        * (math.sqrt(log_inv_delta) + math.sqrt(log_inv_delta + budget.epsilon))
        / (_SQRT2 * budget.epsilon)
    )
    return _noise(sigma, Mechanism.CDP_ROUTE, budget, sens)


def zcdp_of_sigma(sigma: NoiseScale, sens: Sensitivity) -> ZcdpParams:
    """rho-zCDP achieved by Gaussian noise sigma: rho = Delta^2 / (2 sigma^2)."""
    _check_range("sigma", sigma.sigma)
    _check_range("l2 sensitivity", sens.l2)
    return ZcdpParams(_half_square_ratio(sens.l2, sigma.sigma))
