"""Closed-form helpers that no learner calls, kept as the references that
the tests check the learners' own forms against.

`mixed_softmax_prob` and `mixed_poisson_rate` are the multinomial and
Poisson mixed-parent predictions from intercepts and slope lists;
`HybridModel.predict` computes the same scores from its coefficient
functions, with `relboost.hybrid.mixed_gaussian_mean`.  The exponential
clock helpers and the probability forms of the segment gradients are the
textbook forms of what `relboost.rctbn` computes from the rate q*T.
"""

import math
import operator

from relboost.hybrid import mixed_gaussian_mean, multinomial_prob
from relboost.util import _clamped_exp, ordered_sum


def mixed_softmax_prob(intercepts: list, coeffs: list, x_values: list,
                       k: int) -> float:
    """Softmax probability of class k with scores linear in the parents.

    ``coeffs[k][j]`` multiplies ``x_values[j]`` in class k's score.
    """
    if any(len(c) != len(x_values) for c in coeffs):
        raise ValueError("coefficient lists do not align with x_values")
    scores = [mixed_gaussian_mean(b, row, x_values) for b, row in zip(intercepts, coeffs)]
    return multinomial_prob(scores)[k]


def mixed_poisson_rate(intercept: float, coeffs: list, x_values: list) -> float:
    """e^(psi0 + sum_j x_j psi_j) with the exponent clamped."""
    if len(coeffs) != len(x_values):
        raise ValueError("coefficient list does not align with x_values")
    return _clamped_exp(intercept + ordered_sum(map(operator.mul, x_values, coeffs)))


def exp_pdf(q: float, t: float) -> float:
    """Density q e^(-q t) of the transition time, t >= 0."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return q * math.exp(-q * t)


def exp_cdf(q: float, t: float) -> float:
    """1 - e^(-q t)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return -math.expm1(-q * t)


def expected_transition_time(q: float) -> float:
    """Mean residence time 1/q of an exponential clock with rate q."""
    return 1.0 / q


def pos_gradient(p: float) -> float:
    """-(1-p) ln(1-p) / p: the positive segment's log-likelihood gradient.

    Non-negative on (0, 1]; tends to 1 as p -> 0 and to 0 as p -> 1.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if p == 1.0:
        return 0.0
    return -(1.0 - p) * math.log1p(-p) / p


def neg_gradient(p: float) -> float:
    """ln(1-p): the negative segment's gradient, 0 at p = 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    return math.log1p(-p)
