"""Parametric families with exact evaluators and seeded sampling.

Each family is a frozen dataclass of its parameters that subclasses
:class:`~extropy.models.DistributionModel`: the parameter set is the model,
and :func:`parse_family` reads a spec's parameters off its float fields.

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
from dataclasses import dataclass, fields

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


_FAMILIES = {
    "exp": ExponentialParams,
    "exponential": ExponentialParams,
    "weib": WeibullParams,
    "weibull": WeibullParams,
    "unif": UniformParams,
    "uniform": UniformParams,
    "crh": ConstantReversedHazardParams,
}
_FLAGS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


def parse_family(text: str) -> DistributionModel:
    """Parse 'name:key=value,...' or 'name:v1,v2' into a parameter set.

    Accepted names: exp/exponential, weib/weibull, unif/uniform, crh.  A
    family's parameters are the float fields of its class, in order; crh also
    takes ``atom=`` true/false, yes/no, on/off or 1/0 for ``include_atom``.
    """
    name, _, rest = text.partition(":")
    cls = _FAMILIES.get(name.strip().lower())
    if cls is None:
        raise InvalidParameter(f"unknown family {name!r} in {text!r}")
    floats = [f.name for f in fields(cls) if f.type == "float"]
    parts = [p for p in rest.split(",") if p.strip()]
    keyed = sum("=" in p for p in parts)
    if 0 < keyed < len(parts):
        raise InvalidParameter(f"positional and key=value parameters mixed in {text!r}")
    if not keyed and len(parts) > len(floats):
        raise InvalidParameter(f"too many parameters in {text!r}")
    kwargs: dict[str, float | bool] = {}
    for key, value in (p.partition("=")[::2] for p in parts) if keyed else zip(floats, parts):
        key, value = key.strip().lower(), value.strip().lower()
        if key == "atom" and cls is ConstantReversedHazardParams:
            if value not in _FLAGS:
                raise InvalidParameter(f"atom takes true/false, yes/no, on/off or 1/0, got {value!r} in {text!r}")
            kwargs["include_atom"] = _FLAGS[value]
        elif key not in floats:
            raise InvalidParameter(f"unknown parameter {key!r} in {text!r}")
        else:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise InvalidParameter(f"bad numeric value {value!r} for {key} in {text!r}") from None
    missing = [f for f in floats if f not in kwargs]
    if missing:
        raise InvalidParameter(f"missing parameters {missing} in {text!r}")
    return cls(**kwargs)
