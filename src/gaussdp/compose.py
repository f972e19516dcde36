"""Privacy accounting for compositions of independent Gaussian mechanisms.

The composed privacy loss of m independent Gaussian answers with
sensitivities Delta_i and noise scales sigma_i is itself Gaussian, and its
DP/pDP level equals that of a single unit-sensitivity mechanism with

    sigma_star = (sum_i Delta_i^2 / sigma_i^2) ** (-1/2).

Only non-adaptive compositions of independent Gaussian mechanisms are
covered; terms with Delta_i = 0 leak nothing and contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .calib import Sensitivity, _check_range, _dp_delta_unit, _pdp_delta_unit


@dataclass(frozen=True)
class CompositionTerm:
    """One mechanism in the composition: its sensitivity and noise scale."""

    sensitivity: Sensitivity
    sigma: float

    def __post_init__(self) -> None:
        self.__dict__["sigma"] = _check_range("sigma", self.sigma)


def effective_unit_sigma(terms: Iterable[CompositionTerm]) -> float:
    """sigma_star = (sum Delta_i^2 / sigma_i^2)^(-1/2): the unit-sensitivity
    noise whose single-mechanism privacy equals the composition's.

    The ratios Delta_i / sigma_i are scaled by one power of 2 and their
    squares summed exactly, so the terms' order never matters.  A
    sigma_star outside the normal double range raises a ValueError.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("composition requires at least one term")
    live = [term for term in terms if term.sensitivity.l2 > 0.0]
    if not live:
        raise ValueError("composition requires at least one positive-sensitivity term")
    # Each ratio, q 2^k with q in (1/2, 2), is scaled exactly by 2^-top, the
    # largest 2^k (one scaled below the normals squares to 0 anyway), so no
    # square overflows and sigma_star = 2^-top / norm.  r * r is correctly
    # rounded (libm's pow may miss by an ulp), and fsum sums exactly, hence
    # in any order.
    parts = [(math.frexp(term.sensitivity.l2), math.frexp(term.sigma)) for term in live]
    top = max(e_l2 - e_sigma for (_, e_l2), (_, e_sigma) in parts)
    scaled = [math.ldexp(m_l2 / m_sigma, e_l2 - e_sigma - top)
              for (m_l2, e_l2), (m_sigma, e_sigma) in parts]
    mantissa, exponent = math.frexp(1.0 / math.sqrt(math.fsum(r * r for r in scaled)))
    exponent -= top
    if not -1021 <= exponent <= 1024:  # frexp's exponents of the normal doubles
        size = "small" if exponent < -1021 else "large"
        raise ValueError(
            f"the composition's sigma_star is too {size}: it leaves the normal double range"
        )
    return math.ldexp(mantissa, exponent)


def composed_dp_delta(terms: Sequence[CompositionTerm], epsilon: float) -> float:
    """Smallest delta for which the composition is (epsilon, delta)-DP."""
    epsilon = _check_range("epsilon", epsilon)
    return _dp_delta_unit(effective_unit_sigma(terms), epsilon)


def composed_pdp_delta(terms: Sequence[CompositionTerm], epsilon: float) -> float:
    """Smallest delta for which the composition is (epsilon, delta)-pDP."""
    epsilon = _check_range("epsilon", epsilon)
    return _pdp_delta_unit(effective_unit_sigma(terms), epsilon)
