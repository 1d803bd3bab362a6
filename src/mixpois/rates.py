"""Arrival-rate distributions and their large-deviations machinery.

Each distribution knows the supremum of its MGF domain and of its support,
how to sample itself and its exponentially twisted version, and its
cumulant generating function (CGF) through one method, ``cgf``: it returns
the CGF and its first two derivatives at a scalar tilt or at an array of
damped tilts.  Exponential rates are the gamma law of shape 1, built by
``Exponential(lam)``.  Constructors reject non-finite parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InfeasibleTargetError, LatticeError, ParseError
from .numerics import Interval, find_root_increasing

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

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def sample_twisted(self, theta: float, stream: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    # range of means reachable by exponential tilting (open interval)
    def _tilt_range(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint | None":
        return None

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GammaRate(RateDistribution):
    """Gamma with shape beta and rate lam (mean beta/lam)."""

    beta: float
    lam: float

    def __post_init__(self) -> None:
        self._check_finite()
        if not (self.beta > 0.0 and self.lam > 0.0):
            raise DomainError(f"gamma parameters must be positive, got beta={self.beta}, lam={self.lam}")

    @property
    def mean(self) -> float:
        return self.beta / self.lam

    @property
    def variance(self) -> float:
        return self.beta / self.lam**2

    @property
    def mgf_domain_sup(self) -> float:
        return self.lam

    def cgf(self, tau, sf=1.0, sf_complement=None):
        if sf_complement is None:
            sf_complement = 1.0 - sf
        gap = (self.lam - tau) + tau * sf_complement
        if not np.all(gap > 0.0):
            raise DomainError(f"tilt {tau} reaches the MGF wall of {self}")
        # log1p keeps full relative accuracy as the tilt goes to zero
        return self.beta * np.log1p(tau * sf / gap), self.beta / gap, self.beta / gap**2

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        return stream.gamma(self.beta, 1.0 / self.lam, size=n)

    def sample_twisted(self, theta: float, stream: np.random.Generator, n: int) -> np.ndarray:
        if not theta < self.lam:
            raise DomainError(f"theta={theta} is outside the MGF domain (sup {self.lam}) of {self}")
        return stream.gamma(self.beta, 1.0 / (self.lam - theta), size=n)

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        theta = self.lam - self.beta / a
        return RateFunctionPoint(
            a=a,
            value=self.lam * a - self.beta - self.beta * math.log(self.lam * a / self.beta),
            theta_star=theta,
            second_deriv=a * a / self.beta,
            first_deriv_of_I=theta,
        )

    def label(self) -> str:
        if self.beta == 1.0:
            return f"exp:{self.lam:g}"
        return f"gamma:{self.beta:g},{self.lam:g}"


def Exponential(lam: float) -> GammaRate:
    """Exponential with rate lam (mean 1/lam): the gamma law of shape 1."""
    return GammaRate(1.0, lam)


@dataclass(frozen=True)
class PoissonRate(RateDistribution):
    """Poisson-distributed arrival rate with mean lam."""

    lam: float
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

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        return stream.poisson(self.lam, size=n).astype(np.float64)

    def sample_twisted(self, theta: float, stream: np.random.Generator, n: int) -> np.ndarray:
        return stream.poisson(self.lam * math.exp(theta), size=n).astype(np.float64)

    def _closed_rate_function(self, a: float) -> "RateFunctionPoint":
        theta = math.log(a / self.lam)
        return RateFunctionPoint(
            a=a,
            value=a * math.log(a / self.lam) - a + self.lam,
            theta_star=theta,
            second_deriv=a,
            first_deriv_of_I=theta,
        )

    def label(self) -> str:
        return f"pois:{self.lam:g}"


@dataclass(frozen=True)
class TwoPoint(RateDistribution):
    """Two-point rate: lam1 with probability p, lam2 with probability 1-p."""

    p: float
    lam1: float
    lam2: float
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
        return self.p * (1.0 - self.p) * (self.lam2 - self.lam1) ** 2

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
            w1 * w2 * (self.lam2 - self.lam1) ** 2 / total**2,
        )

    def _twisted_p(self, theta: float) -> float:
        b1, b2, _ = self._log_weights(theta)
        w1, w2 = math.exp(b1), math.exp(b2)
        return w1 / (w1 + w2)

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        u = stream.random(n)
        return np.where(u < self.p, self.lam1, self.lam2)

    def sample_twisted(self, theta: float, stream: np.random.Generator, n: int) -> np.ndarray:
        u = stream.random(n)
        return np.where(u < self._twisted_p(theta), self.lam1, self.lam2)

    def _tilt_range(self) -> tuple[float, float]:
        return (self.lam1, self.lam2)

    def label(self) -> str:
        return f"twopoint:{self.p:g},{self.lam1:g},{self.lam2:g}"


@dataclass(frozen=True)
class DeterministicRate(RateDistribution):
    """Point mass at lam."""

    lam: float
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
    def support_sup(self) -> float:
        return self.lam

    def cgf(self, tau, sf=1.0, sf_complement=None):
        u = tau * sf
        return self.lam * u, np.full_like(u, self.lam), np.zeros_like(u)

    def sample(self, stream: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.lam, dtype=np.float64)

    def sample_twisted(self, theta: float, stream: np.random.Generator, n: int) -> np.ndarray:
        return self.sample(stream, n)

    def _tilt_range(self) -> tuple[float, float]:
        return (self.lam, self.lam)

    def label(self) -> str:
        return f"det:{self.lam:g}"


@dataclass(frozen=True)
class RateFunctionPoint:
    """Legendre transform of the CGF evaluated at target mean ``a``."""

    a: float
    value: float
    theta_star: float
    second_deriv: float
    first_deriv_of_I: float


def rate_function(dist: RateDistribution, a: float, method: str = "auto") -> RateFunctionPoint:
    """Rate function I_X(a) = sup_theta {theta*a - CGF(theta)} with optimizer.

    ``method`` selects between the closed form (where one exists) and the
    numeric solve of CGF'(theta) = a; "auto" prefers the closed form.
    """
    if method not in ("auto", "closed", "numeric"):
        raise DomainError(f"unknown rate_function method {method!r}")
    if isinstance(dist, DeterministicRate):
        if a != dist.lam:
            raise InfeasibleTargetError(
                f"deterministic rate {dist.lam} cannot reach target mean {a}"
            )
        return RateFunctionPoint(a=a, value=0.0, theta_star=0.0, second_deriv=0.0, first_deriv_of_I=0.0)

    lo, hi = dist._tilt_range()
    if isinstance(dist, TwoPoint):
        if a == dist.lam1:
            t = -math.inf
            return RateFunctionPoint(a=a, value=-math.log(dist.p), theta_star=t,
                                     second_deriv=0.0, first_deriv_of_I=t)
        if a == dist.lam2:
            t = math.inf
            return RateFunctionPoint(a=a, value=-math.log1p(-dist.p), theta_star=t,
                                     second_deriv=0.0, first_deriv_of_I=t)
    if not (lo < a < hi):
        raise InfeasibleTargetError(
            f"target mean {a} is outside the reachable range ({lo}, {hi}) of {dist}"
        )

    if method in ("auto", "closed"):
        closed = dist._closed_rate_function(a)
        if closed is not None:
            return closed
        if method == "closed":
            raise DomainError(f"{dist} has no closed-form rate function")

    sup = dist.mgf_domain_sup
    hi_limit = math.inf if math.isinf(sup) else sup - 1e-12 * max(1.0, abs(sup))
    theta = find_root_increasing(
        lambda t: float(dist.cgf(t)[1]) - a,
        Interval(-1.0, min(1.0, hi_limit)),
        tol=1e-13,
        hi_limit=hi_limit,
    )
    k0, _, k2 = dist.cgf(theta)
    return RateFunctionPoint(
        a=a,
        value=theta * a - float(k0),
        theta_star=theta,
        second_deriv=float(k2),
        first_deriv_of_I=theta,
    )


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
    return 1.0 / (point.theta_star * math.sqrt(2.0 * math.pi * point.second_deriv))


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(f"{what} expects {n} comma-separated numbers, got {text!r}")
    out = []
    for part in parts:
        if part != part.strip() or not part:
            raise ParseError(f"malformed number {part!r} in {what} specification")
        try:
            out.append(float(part))
        except ValueError:
            raise ParseError(f"malformed number {part!r} in {what} specification") from None
    return out


def parse_rate(text: str) -> RateDistribution:
    """Parse a rate-distribution specification.

    Grammar: ``exp:<lam>``, ``gamma:<beta>,<lam>``, ``pois:<lam>``,
    ``twopoint:<p>,<lam1>,<lam2>``, ``det:<lam>``.
    """
    if any(ch.isspace() for ch in text):
        raise ParseError(f"rate specification must not contain whitespace: {text!r}")
    kind, sep, args = text.partition(":")
    if not sep:
        raise ParseError(f"missing ':' in rate specification {text!r}")
    try:
        if kind == "exp":
            return Exponential(*_parse_floats(args, 1, "exp"))
        if kind == "gamma":
            return GammaRate(*_parse_floats(args, 2, "gamma"))
        if kind == "pois":
            return PoissonRate(*_parse_floats(args, 1, "pois"))
        if kind == "twopoint":
            return TwoPoint(*_parse_floats(args, 3, "twopoint"))
        if kind == "det":
            return DeterministicRate(*_parse_floats(args, 1, "det"))
    except DomainError as exc:
        raise ParseError(f"invalid parameters in {text!r}: {exc}") from None
    raise ParseError(f"unknown rate kind {kind!r} (expected exp, gamma, pois, twopoint or det)")
