"""Rare-event evaluation for mixed Poisson counts driven by periodically
resampled arrival rates, with an infinite-server staffing layer on top.

The package provides exact formulas (gamma special case), regime-dependent
sharp asymptotics, asymptotically efficient importance sampling, and a
dimensioning routine, all behind one CLI (``mixpois``).
"""

from . import errors, gamma_exact, numerics, queue, rates, sampling, staffing, tail_asymptotics
from .rates import (
    DeterministicRate,
    Exponential,
    GammaRate,
    PoissonRate,
    TwoPoint,
    parse_rate,
)
from .queue import DetService, ExpService, Pareto2Service, parse_service

__version__ = "0.1.0"

__all__ = [
    "errors",
    "numerics",
    "rates",
    "tail_asymptotics",
    "gamma_exact",
    "sampling",
    "queue",
    "staffing",
    "Exponential",
    "GammaRate",
    "PoissonRate",
    "TwoPoint",
    "DeterministicRate",
    "parse_rate",
    "ExpService",
    "DetService",
    "Pareto2Service",
    "parse_service",
    "__version__",
]
