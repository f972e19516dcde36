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
        _check_range("sigma", self.sigma)


def effective_unit_sigma(terms: Iterable[CompositionTerm]) -> float:
    """sigma_star = (sum Delta_i^2 / sigma_i^2)^(-1/2): the unit-sensitivity
    noise whose single-mechanism privacy equals the composition's."""
    terms = list(terms)
    if not terms:
        raise ValueError("composition requires at least one term")
    # fsum makes the sum exact, hence invariant under term reordering
    total = math.fsum(
        (term.sensitivity.l2 / term.sigma) ** 2 for term in terms
    )
    if total == 0.0:
        raise ValueError("composition requires at least one positive-sensitivity term")
    return 1.0 / math.sqrt(total)


def composed_dp_delta(terms: Sequence[CompositionTerm], epsilon: float) -> float:
    """Smallest delta for which the composition is (epsilon, delta)-DP."""
    epsilon = _check_range("epsilon", float(epsilon))
    return _dp_delta_unit(effective_unit_sigma(terms), epsilon)


def composed_pdp_delta(terms: Sequence[CompositionTerm], epsilon: float) -> float:
    """Smallest delta for which the composition is (epsilon, delta)-pDP."""
    epsilon = _check_range("epsilon", float(epsilon))
    return _pdp_delta_unit(effective_unit_sigma(terms), epsilon)
