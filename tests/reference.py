"""Reference values the tests compare the package against.

No entry point of the package needs these, so they live beside the tests.
"""

import math


def poisson_log_pmf(mean: float, k: int) -> float:
    """log P(Pois(mean) = k) for mean > 0."""
    return k * math.log(mean) - mean - math.lgamma(k + 1.0)


def poisson_tail(mean: float, k: int) -> float:
    """P(Pois(mean) >= k) for mean > 0: the pmf summed upward from k in log
    space, until past the mode the terms fall 40 e-folds below the largest."""
    log_terms = [poisson_log_pmf(mean, k)]
    top, j = log_terms[0], k
    while j <= mean or log_terms[-1] > top - 40.0:
        j += 1
        log_terms.append(log_terms[-1] + math.log(mean / j))
        top = max(top, log_terms[-1])
    return math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms)


def efficiency_ratios(estimate, N_grid) -> list[float]:
    """log E[w^2] over 2 log estimate for ``estimate(N)`` at each N.

    The second moment of an asymptotically efficient estimator decays at
    twice the rate of the probability, so the ratio approaches 1 from below;
    a crude indicator estimator stays at 1/2.
    """
    return [math.log(r.second_moment) / (2.0 * math.log(r.estimate)) for r in map(estimate, N_grid)]


def relative_ci(result) -> float:
    """95% confidence half-width over the estimate, infinite without hits."""
    return result.ci_halfwidth_95 / result.estimate if result.estimate > 0.0 else math.inf
