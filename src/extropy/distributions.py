"""Parametric families with exact evaluators, closed forms, and seeded sampling.

Each family is a frozen dataclass of its parameters that subclasses
:class:`~extropy.models.DistributionModel`: the parameter set is the model.

Four families cover all analyses: exponential, Weibull (shape/scale
convention, pdf ``(k/s)(x/s)^(k-1) exp(-(x/s)^k)``), uniform, and the
constant-reversed-hazard law ``F(x) = exp(a (x - b))`` on [0, b].  The last
carries mass ``exp(-a b)`` at 0; whether that mass participates in past
measures is a per-use convention, so the parameter set records it explicitly.

Sampling is inverse-cdf on PCG64 streams.  Substream ``i`` of seed ``s`` is
the generator seeded with ``SeedSequence((s, i))``, so replications are
reproducible independently of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .models import DistributionModel

__all__ = [
    "ExponentialParams",
    "WeibullParams",
    "UniformParams",
    "ConstantReversedHazardParams",
    "SeededSampler",
    "sample",
    "parse_family",
    "exponential_extropy",
    "exponential_inaccuracy",
    "closed_form_relative_exponential",
    "weibull_extropy",
    "exponential_past_extropy",
    "crh_past_measures",
]


def _as_float_array(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ExponentialParams(DistributionModel):
    rate: float
    support = (0.0, math.inf)

    def __post_init__(self):
        super().__post_init__()
        if not self.rate > 0:
            raise InvalidParameter(f"exponential rate must be positive, got {self.rate}")

    @property
    def label(self) -> str:
        return f"exponential(rate={self.rate:g})"

    def pdf(self, x):
        x = _as_float_array(x)
        return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)

    def cdf(self, x):
        x = _as_float_array(x)
        return np.where(x >= 0, -np.expm1(-self.rate * x), 0.0)

    def survival(self, x):
        x = _as_float_array(x)
        return np.where(x >= 0, np.exp(-self.rate * x), 1.0)

    def quantile(self, u):
        return -np.log1p(-_as_float_array(u)) / self.rate


@dataclass(frozen=True)
class WeibullParams(DistributionModel):
    shape: float
    scale: float
    support = (0.0, math.inf)

    def __post_init__(self):
        super().__post_init__()
        if not (self.shape > 0 and self.scale > 0):
            raise InvalidParameter(
                f"weibull shape and scale must be positive, got ({self.shape}, {self.scale})"
            )

    @property
    def label(self) -> str:
        return f"weibull(shape={self.shape:g}, scale={self.scale:g})"

    @property
    def lo_exponent(self) -> float:
        return self.shape - 1.0

    def pdf(self, x):
        k, s = self.shape, self.scale
        x = _as_float_array(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = np.where(x > 0, x / s, 1.0)
            val = (k / s) * z ** (k - 1) * np.exp(-(z**k))
        if k == 1.0:
            return np.where(x >= 0, (1 / s) * np.exp(-np.maximum(x, 0.0) / s), 0.0)
        return np.where(x > 0, val, np.where((x == 0) & (k < 1), np.inf, 0.0))

    def cdf(self, x):
        x = _as_float_array(x)
        return np.where(x > 0, -np.expm1(-((np.maximum(x, 0.0) / self.scale) ** self.shape)), 0.0)

    def survival(self, x):
        x = _as_float_array(x)
        return np.where(x > 0, np.exp(-((np.maximum(x, 0.0) / self.scale) ** self.shape)), 1.0)

    def quantile(self, u):
        return self.scale * (-np.log1p(-_as_float_array(u))) ** (1.0 / self.shape)


@dataclass(frozen=True)
class UniformParams(DistributionModel):
    lo: float
    hi: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.lo < self.hi):
            raise InvalidParameter(f"uniform needs lo < hi, got ({self.lo}, {self.hi})")

    @property
    def label(self) -> str:
        return f"uniform({self.lo:g}, {self.hi:g})"

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, x):
        x = _as_float_array(x)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def cdf(self, x):
        x = _as_float_array(x)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def survival(self, x):
        x = _as_float_array(x)
        return np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, u):
        return self.lo + _as_float_array(u) * (self.hi - self.lo)


@dataclass(frozen=True)
class ConstantReversedHazardParams(DistributionModel):
    """F(x) = exp(a (x - b)) on [0, b]: reversed hazard is the constant a.

    The law places mass ``exp(-a b)`` at 0.  With ``include_atom`` the model
    reports that mass in ``atom_at_lo`` (total mass 1); without it the model
    is knowingly sub-normalized (density integrates to ``1 - exp(-a b)``) and
    density-based measures see only the absolutely continuous part.
    """

    a: float
    b: float
    include_atom: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not (self.a > 0 and self.b > 0):
            raise InvalidParameter(f"crh needs a > 0 and b > 0, got ({self.a}, {self.b})")

    @property
    def atom_mass(self) -> float:
        return math.exp(-self.a * self.b)

    @property
    def atom_at_lo(self) -> float:
        return self.atom_mass if self.include_atom else 0.0

    @property
    def label(self) -> str:
        return f"crh(a={self.a:g}, b={self.b:g}{', atom' if self.include_atom else ''})"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.b)

    def pdf(self, x):
        a, b = self.a, self.b
        x = _as_float_array(x)
        return np.where((x > 0) & (x <= b), a * np.exp(a * (np.minimum(x, b) - b)), 0.0)

    def cdf(self, x):
        x = _as_float_array(x)
        return np.where(x < 0, 0.0, np.where(x >= self.b, 1.0, np.exp(self.a * (x - self.b))))

    def survival(self, x):
        x = _as_float_array(x)
        tail = -np.expm1(self.a * (np.minimum(x, self.b) - self.b))
        return np.where(x < 0, 1.0, np.where(x >= self.b, 0.0, tail))

    def quantile(self, u):
        u = _as_float_array(u)
        with np.errstate(divide="ignore"):
            x = self.b + np.log(u) / self.a
        return np.maximum(x, 0.0)


@dataclass(frozen=True)
class SeededSampler:
    """Reproducible uniform stream: PCG64 seeded via SeedSequence.

    ``substream(i)`` derives the generator for replication ``i`` from
    ``SeedSequence((seed, i))``; identical (seed, i) always gives identical
    draws, regardless of how many other substreams were consumed.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def substream(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, index))))


def sample(params: DistributionModel, n: int, sampler: SeededSampler, *, substream: int | None = None) -> np.ndarray:
    """Draw n i.i.d. values by inverse cdf; deterministic given (seed, substream)."""
    if n < 1:
        raise InvalidParameter(f"sample size must be >= 1, got {n}")
    gen = sampler.generator() if substream is None else sampler.substream(substream)
    return np.asarray(params.quantile(gen.random(n)), dtype=float)


# ---------------------------------------------------------------------------
# Closed forms used as oracles and fast paths
# ---------------------------------------------------------------------------


def exponential_extropy(rate: float) -> float:
    """-rate/4; also the residual extropy at every t (memorylessness)."""
    if rate <= 0:
        raise InvalidParameter("rate must be positive")
    return -rate / 4.0


def exponential_inaccuracy(rate_x: float, rate_y: float) -> float:
    """-r1 r2 / (2 (r1 + r2)), invariant under residual conditioning."""
    if rate_x <= 0 or rate_y <= 0:
        raise InvalidParameter("rates must be positive")
    return -rate_x * rate_y / (2.0 * (rate_x + rate_y))


def closed_form_relative_exponential(rate_x: float, rate_y: float) -> float:
    """(1/4)(r1 + r2 - 4 r1 r2 / (r1 + r2)); equals (r1-r2)^2/(4(r1+r2))."""
    if rate_x <= 0 or rate_y <= 0:
        raise InvalidParameter("rates must be positive")
    return 0.25 * (rate_x + rate_y - 4.0 * rate_x * rate_y / (rate_x + rate_y))


def weibull_extropy(shape: float, scale: float) -> float:
    """-(k/(2s)) Gamma(2 - 1/k) / 2^(2 - 1/k); finite only for shape > 1/2."""
    if shape <= 0.5:
        raise InvalidParameter("weibull extropy requires shape > 1/2")
    return -(shape / (2.0 * scale)) * math.gamma(2.0 - 1.0 / shape) / 2.0 ** (2.0 - 1.0 / shape)


def exponential_past_extropy(rate: float, t: float) -> float:
    """-(r/4)(1 - e^{-2rt}) / (1 - e^{-rt})^2 for t > 0."""
    if rate <= 0 or t <= 0:
        raise InvalidParameter("rate and t must be positive")
    num = -np.expm1(-2.0 * rate * t)
    den = (-np.expm1(-rate * t)) ** 2
    return float(-(rate / 4.0) * num / den)


def crh_past_measures(
    p_x: ConstantReversedHazardParams,
    p_y: ConstantReversedHazardParams,
    t: float,
    include_atom: bool = False,
) -> tuple[float, float, float, float]:
    """Past measures of two constant-reversed-hazard laws at time t.

    Returns (past extropy of X, past inaccuracy, past divergence f|g,
    past relative).  The absolutely continuous convention integrates only the
    densities; ``include_atom`` additionally folds the point masses at 0 into
    the quadratic forms as squared conditional masses, which is what produces
    the "1 +" bracket of the worked closed forms.
    """
    if not (0.0 < t <= min(p_x.b, p_y.b)):
        raise InvalidParameter(f"t must lie in (0, min(b)] = (0, {min(p_x.b, p_y.b):g}]")
    a, c = p_x.a, p_y.a

    j_x = -(1.0 / (2.0 * math.exp(2.0 * a * t))) * (a / 2.0) * (math.exp(2.0 * a * t) - 1.0)
    j_y = -(1.0 / (2.0 * math.exp(2.0 * c * t))) * (c / 2.0) * (math.exp(2.0 * c * t) - 1.0)
    s = a + c
    xi = -(1.0 / (2.0 * math.exp(s * t))) * (a * c / s) * (math.exp(s * t) - 1.0)
    if include_atom:
        j_x -= 0.5 * math.exp(-2.0 * a * t)
        j_y -= 0.5 * math.exp(-2.0 * c * t)
        xi -= 0.5 * math.exp(-s * t)
    divergence = xi - j_x
    relative = 2.0 * xi - j_x - j_y
    return j_x, xi, divergence, relative


_FAMILY_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "weib": "weibull",
    "weibull": "weibull",
    "unif": "uniform",
    "uniform": "uniform",
    "crh": "crh",
}

_FAMILY_FIELDS = {
    "exponential": ("rate",),
    "weibull": ("shape", "scale"),
    "uniform": ("lo", "hi"),
    "crh": ("a", "b"),
}


def parse_family(text: str) -> DistributionModel:
    """Parse 'name:key=value,...' or 'name:v1,v2' into a parameter set.

    Accepted names: exp/exponential, weib/weibull, unif/uniform, crh.
    crh takes an optional third flag ``atom=true``.
    """
    name, _, rest = text.partition(":")
    family = _FAMILY_ALIASES.get(name.strip().lower())
    if family is None:
        raise InvalidParameter(f"unknown family {name!r} in {text!r}")
    fields = _FAMILY_FIELDS[family]
    kwargs: dict[str, float] = {}
    include_atom = False
    parts = [p for p in rest.split(",") if p.strip()]
    if not parts:
        raise InvalidParameter(f"no parameters given in {text!r}")
    positional = all("=" not in p for p in parts)
    try:
        if positional:
            if len(parts) > len(fields):
                raise InvalidParameter(f"too many parameters for {family} in {text!r}")
            for key, part in zip(fields, parts):
                kwargs[key] = float(part)
        else:
            for part in parts:
                key, _, value = part.partition("=")
                key = key.strip().lower()
                if family == "crh" and key == "atom":
                    include_atom = value.strip().lower() in ("1", "true", "yes", "on")
                    continue
                if key not in fields:
                    raise InvalidParameter(f"unknown parameter {key!r} for {family}")
                kwargs[key] = float(value)
    except ValueError as exc:
        raise InvalidParameter(f"bad numeric value in {text!r}: {exc}") from exc
    missing = [f for f in fields if f not in kwargs]
    if missing:
        raise InvalidParameter(f"missing parameters {missing} for {family} in {text!r}")
    if family == "exponential":
        return ExponentialParams(**kwargs)
    if family == "weibull":
        return WeibullParams(**kwargs)
    if family == "uniform":
        return UniformParams(**kwargs)
    return ConstantReversedHazardParams(include_atom=include_atom, **kwargs)
