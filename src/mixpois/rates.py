"""Arrival-rate distributions and their large-deviations machinery.

Each distribution knows the supremum of its MGF domain and the bounds of its
support, its cumulant generating function (CGF) through one method, ``cgf``,
which returns the CGF and its first two derivatives at a scalar tilt or at an
array of damped tilts, and its rate function in closed form.
The gamma laws sample slot rates for the occupancy simulation; the overflow
estimators draw slot sums pooled.
Exponential rates are the gamma law of shape 1, built by ``Exponential(lam)``.
Constructors reject non-finite parameters.

Laws are written ``<kind>:<p1>,...,<pn>``, read by ``parse_spec`` against a
family's ``{kind: (constructor, arity)}`` table and written by ``spec_label``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleTargetError, LatticeError, ParseError

__all__ = [
    "RateDistribution",
    "Exponential",
    "GammaRate",
    "PoissonRate",
    "TwoPoint",
    "DeterministicRate",
    "RateFunctionPoint",
    "rate_function",
    "bahadur_rao_constant",
    "parse_spec",
    "spec_label",
    "parse_rate",
]


class RateDistribution:
    """Base class; concrete kinds are the frozen dataclasses below."""

    lattice: bool = False

    def _check_finite(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise DomainError(
                    f"{field.name} of {type(self).__name__} must be finite, got {value}"
                )

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        raise NotImplementedError

    @property
    def mgf_domain_sup(self) -> float:
        """Supremum of theta with finite MGF."""
        return math.inf

    @property
    def support_inf(self) -> float:
        """Infimum of the support."""
        return 0.0

    @property
    def support_sup(self) -> float:
        """Supremum of the support (b+)."""
        return math.inf

    def cgf(self, tau, sf=1.0, sf_complement=None):
        """CGF and its first two derivatives (k, k', k'') at the tilts tau * sf.

        ``tau`` and ``sf`` are scalars or numpy arrays; a scalar call gives
        scalars (take them with ``float``).  ``sf_complement`` is 1 - sf, by
        default computed as such; callers with sf near 1 pass it computed
        without cancellation.  It lets finite-MGF kinds compute the distance to
        their wall as lam - tau*sf = (lam - tau) + tau*(1 - sf), a sum of
        nonnegative terms when 0 <= tau < lam; other kinds ignore it.
        """
        raise NotImplementedError

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        """The rate function at a reachable a in closed form."""
        raise NotImplementedError

    def label(self) -> str:
        """The specification text of the law (see ``spec_label``)."""
        return spec_label(self)


@dataclass(frozen=True)
class GammaRate(RateDistribution):
    """Gamma with shape beta and rate lam (mean beta/lam)."""

    beta: float
    lam: float
    kind = "gamma"

    def __post_init__(self) -> None:
        self._check_finite()
        if not (self.beta > 0.0 and self.lam > 0.0):
            raise DomainError(f"gamma parameters must be positive, got beta={self.beta}, lam={self.lam}")

    @property
    def mean(self) -> float:
        return self.beta / self.lam

    @property
    def variance(self) -> float:
        return self.beta / (self.lam * self.lam)

    @property
    def mgf_domain_sup(self) -> float:
        return self.lam

    def cgf(self, tau, sf=1.0, sf_complement=None):
        if sf_complement is None:
            sf_complement = 1.0 - sf
        gap = (self.lam - tau) + tau * sf_complement
        if not np.all(gap > 0.0):
            raise DomainError(f"tilt {tau} reaches the MGF wall of {self}")
        # log1p keeps full relative accuracy as the tilt goes to zero; np.square
        # makes an underflowing scalar gap^2 give inf rather than raise
        return self.beta * np.log1p(tau * sf / gap), self.beta / gap, self.beta / np.square(gap)

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        return stream.gamma(self.beta, 1.0 / self.lam, size=n)

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        theta = self.lam - self.beta / a
        return RateFunctionPoint(
            a=a,
            value=self.lam * a - self.beta - self.beta * math.log(self.lam * a / self.beta),
            theta_star=theta,
            second_deriv=a * a / self.beta,
        )


def Exponential(lam: float) -> GammaRate:
    """Exponential with rate lam (mean 1/lam): the gamma law of shape 1."""
    return GammaRate(1.0, lam)


@dataclass(frozen=True)
class PoissonRate(RateDistribution):
    """Poisson-distributed arrival rate with mean lam."""

    lam: float
    kind = "pois"
    lattice = True

    def __post_init__(self) -> None:
        self._check_finite()
        if not self.lam > 0.0:
            raise DomainError(f"poisson mean must be positive, got {self.lam}")

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def variance(self) -> float:
        return self.lam

    def cgf(self, tau, sf=1.0, sf_complement=None):
        u = tau * sf
        d1 = self.lam * np.exp(u)
        return self.lam * np.expm1(u), d1, d1

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        theta = math.log(a / self.lam)
        return RateFunctionPoint(
            a=a,
            value=a * math.log(a / self.lam) - a + self.lam,
            theta_star=theta,
            second_deriv=a,
        )


@dataclass(frozen=True)
class TwoPoint(RateDistribution):
    """Two-point rate: lam1 with probability p, lam2 with probability 1-p."""

    p: float
    lam1: float
    lam2: float
    kind = "twopoint"
    lattice = True

    def __post_init__(self) -> None:
        self._check_finite()
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"two-point weight must satisfy 0 < p < 1, got {self.p}")
        if not (0.0 < self.lam1 < self.lam2):
            raise DomainError(
                f"two-point levels must satisfy 0 < lam1 < lam2, got {self.lam1}, {self.lam2}"
            )

    @property
    def mean(self) -> float:
        return self.p * self.lam1 + (1.0 - self.p) * self.lam2

    @property
    def variance(self) -> float:
        spread = self.lam2 - self.lam1
        return self.p * (1.0 - self.p) * (spread * spread)

    @property
    def support_inf(self) -> float:
        return self.lam1

    @property
    def support_sup(self) -> float:
        return self.lam2

    def _log_weights(self, theta):
        """Shifted log weights (w1, w2, shift) with max(w1, w2) = 0."""
        a1 = math.log(self.p) + theta * self.lam1
        a2 = math.log1p(-self.p) + theta * self.lam2
        m = np.maximum(a1, a2)
        return a1 - m, a2 - m, m

    def cgf(self, tau, sf=1.0, sf_complement=None):
        b1, b2, m = self._log_weights(tau * sf)
        w1, w2 = np.exp(b1), np.exp(b2)
        total = w1 + w2
        return (
            m + np.log(total),
            (self.lam1 * w1 + self.lam2 * w2) / total,
            w1 * w2 * ((self.lam2 - self.lam1) * (self.lam2 - self.lam1)) / (total * total),
        )

    def _twisted_q(self, theta: float) -> float:
        """Probability of lam2 under the tilt theta, formed without 1 - p."""
        b1, b2, _ = self._log_weights(theta)
        w1, w2 = math.exp(b1), math.exp(b2)
        return w2 / (w1 + w2)

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        # the endpoints are atoms, reached by an infinite tilt
        if a == self.lam1:
            return RateFunctionPoint(a=a, value=-math.log(self.p), theta_star=-math.inf,
                                     second_deriv=0.0)
        if a == self.lam2:
            return RateFunctionPoint(a=a, value=-math.log1p(-self.p), theta_star=math.inf,
                                     second_deriv=0.0)
        # inside, the relative entropy of the tilted weight q of lam2 to 1 - p
        spread = self.lam2 - self.lam1
        q, q_complement = (a - self.lam1) / spread, (self.lam2 - a) / spread
        log_p, log_complement_p = math.log(self.p), math.log1p(-self.p)
        return RateFunctionPoint(
            a=a,
            value=q * (math.log(q) - log_complement_p)
            + q_complement * (math.log(q_complement) - log_p),
            theta_star=(math.log(q / q_complement) + log_p - log_complement_p) / spread,
            second_deriv=q * q_complement * (spread * spread),
        )


@dataclass(frozen=True)
class DeterministicRate(RateDistribution):
    """Point mass at lam."""

    lam: float
    kind = "det"
    lattice = True

    def __post_init__(self) -> None:
        self._check_finite()
        if not self.lam > 0.0:
            raise DomainError(f"deterministic rate must be positive, got {self.lam}")

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def support_inf(self) -> float:
        return self.lam

    @property
    def support_sup(self) -> float:
        return self.lam

    def cgf(self, tau, sf=1.0, sf_complement=None):
        u = tau * sf
        return self.lam * u, np.full_like(u, self.lam), np.zeros_like(u)

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        return RateFunctionPoint(a=a, value=0.0, theta_star=0.0, second_deriv=0.0)


@dataclass(frozen=True)
class RateFunctionPoint:
    """Legendre transform of the CGF evaluated at target mean ``a``; its
    derivative there is ``theta_star``."""

    a: float
    value: float
    theta_star: float
    second_deriv: float


def rate_function(dist: RateDistribution, a: float) -> RateFunctionPoint:
    """Rate function I_X(a) = sup_theta {theta*a - CGF(theta)} with optimizer.

    The reachable means are those strictly inside the support, plus a
    positive finite support bound, which is an atom of every law here.
    """
    lo, hi = dist.support_inf, dist.support_sup
    if not (lo < a < hi or (a in (lo, hi) and 0.0 < a < math.inf)):
        raise InfeasibleTargetError(
            f"target mean {a} is outside the reachable range ({lo}, {hi}) of {dist}"
        )
    return dist._closed_rate_function(a)


def bahadur_rao_constant(dist: RateDistribution, a: float) -> float:
    """Sharp-asymptotics prefactor 1/(theta* sqrt(2 pi CGF''(theta*))).

    Defined here for non-lattice rate laws with a above the mean, so that
    theta* is positive.
    """
    if dist.lattice:
        raise LatticeError(f"{dist} is lattice; its tail prefactor is not of this form")
    if not a > dist.mean:
        raise DomainError(f"prefactor requires a > mean, got a={a}, mean={dist.mean}")
    point = rate_function(dist, a)
    scale = point.theta_star * math.sqrt(2.0 * math.pi * point.second_deriv)
    if not 0.0 < scale < math.inf:  # theta* or CGF'' underflowed, or CGF'' overflowed
        raise ConvergenceError(f"the prefactor of {dist} at a={a} divides by {scale}")
    return 1.0 / scale


def parse_spec(text: str, kinds: dict, what: str):
    """Parse ``<kind>:<p1>,...,<pn>`` against a ``{kind: (constructor, arity)}``
    table; ``what`` names the law family in error messages."""
    if any(ch.isspace() for ch in text):
        raise ParseError(f"{what} specification must not contain whitespace: {text!r}")
    kind, sep, args = text.partition(":")
    if not sep:
        raise ParseError(f"missing ':' in {what} specification {text!r}")
    if kind not in kinds:
        raise ParseError(f"unknown {what} kind {kind!r} (expected {', '.join(kinds)})")
    constructor, arity = kinds[kind]
    parts = args.split(",")
    if len(parts) != arity:
        raise ParseError(f"{kind} expects {arity} comma-separated numbers, got {args!r}")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ParseError(f"malformed number in {what} specification {text!r}") from None
    try:
        return constructor(*values)
    except DomainError as exc:
        raise ParseError(f"invalid parameters in {text!r}: {exc}") from None


def spec_label(law) -> str:
    """The text ``parse_spec`` reads back as ``law``: its kind and its fields,
    each printed with 6 significant digits.  A gamma law of shape 1 prints as
    ``exp:<lam>``."""
    kind, values = law.kind, [getattr(law, field.name) for field in fields(law)]
    if kind == "gamma" and values[0] == 1.0:
        kind, values = "exp", values[1:]
    return f"{kind}:" + ",".join(f"{value:g}" for value in values)


_RATE_KINDS = {
    "exp": (Exponential, 1),
    "gamma": (GammaRate, 2),
    "pois": (PoissonRate, 1),
    "twopoint": (TwoPoint, 3),
    "det": (DeterministicRate, 1),
}


def parse_rate(text: str) -> RateDistribution:
    """Parse a rate-distribution specification.

    Grammar: ``exp:<lam>``, ``gamma:<beta>,<lam>``, ``pois:<lam>``,
    ``twopoint:<p>,<lam1>,<lam2>``, ``det:<lam>``.
    """
    return parse_spec(text, _RATE_KINDS, "rate")
