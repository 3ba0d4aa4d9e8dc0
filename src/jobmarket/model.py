"""Core model: parameters, state, vector fields and closed-form thresholds.

The system tracks two nonnegative quantities, free jobs u and unemployed
labour force v:

    du = [r*u*(1 - u/K) - m*u*v] dt - sigma*u*v dB
    dv = [m*u*v - d*v] dt        + sigma*u*v dB

Free jobs grow logistically toward the capacity K and are consumed by
job matching at rate m*u*v; the labour force is fed by the same matching
term and leaves at rate d. A single Brownian motion B perturbs the
matching flux, so whatever noise leaves u enters v and the total u + v
is noise-free.

Closed-form diagnostics implemented here:

  extinction_index     m^2/(2*sigma^2) - d; negative means v -> 0
                       almost surely.
  r0s                  r/d - sigma^2*K^2/(2*d); together with m > r/K,
                       a value above 1 guarantees persistence in mean.
  persistence_floor    d*(r0s - 1)/(m + d), a lower bound on the long-run
                       time average of v when the persistence conditions
                       hold.
  ultimate_bound       r*K/min(r, d), an asymptotic almost-sure cap on
                       each compartment.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ._rules import _as_finite_float
from .errors import ParameterError, ZeroNoiseError

__all__ = [
    "ModelParams",
    "State",
    "Regime",
    "RegimeReport",
    "drift",
    "extinction_index",
    "r0s",
    "persistence_floor",
    "ultimate_bound",
    "classify_regime",
]


class State(NamedTuple):
    """A point (u, v) in the nonnegative quadrant."""

    u: float
    v: float


class ModelParams:
    """The five model constants.

    r      per-capita growth rate of free jobs, > 0
    K      carrying capacity of free jobs, > 0
    m      job-filling rate, > 0
    d      labour-force disappearance rate, > 0
    sigma  noise intensity on the matching flux, >= 0

    mu = min(r, d) and half_sigma_sq are derived on demand and never stored.
    An immutable value: equality, hash and repr go by the five floats. Its
    fields are slots, which the step reads faster than a tuple's fields.
    """

    __slots__ = ("r", "K", "m", "d", "sigma")

    def __init__(self, r: float, K: float, m: float, d: float, sigma: float) -> None:
        for name, value in zip(self.__slots__, (r, K, m, d, sigma)):
            value = _as_finite_float(name, value)
            if name == "sigma":
                if value < 0.0:
                    raise ParameterError(f"sigma must be >= 0, got {value}")
            elif value <= 0.0:
                raise ParameterError(f"{name} must be > 0, got {value}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple[float, ...]:
        return self.r, self.K, self.m, self.d, self.sigma

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(r={self.r!r}, K={self.K!r}, "
                f"m={self.m!r}, d={self.d!r}, sigma={self.sigma!r})")

    def __reduce__(self):
        # pickle and copy rebuild through __init__ and its checks
        return self.__class__, self._values()

    @property
    def half_sigma_sq(self) -> float:
        """0.5 * sigma * sigma, in that order: the Milstein correction's factor."""
        return 0.5 * self.sigma * self.sigma

    def mu(self) -> float:
        """min(r, d), the decay rate in the ultimate bound."""
        return min(self.r, self.d)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        if not isinstance(data, dict):
            raise ParameterError(f"params must be an object, got {data!r}")
        unknown = set(data) - {"r", "K", "m", "d", "sigma"}
        if unknown:
            raise ParameterError(
                f"unknown params keys: {sorted(unknown)}; "
                "expected exactly r, K, m, d, sigma"
            )
        missing = {"r", "K", "m", "d", "sigma"} - set(data)
        if missing:
            raise ParameterError(f"missing params keys: {sorted(missing)}")
        return cls(**data)


class Regime(Enum):
    """Long-run fate of the labour force predicted by the thresholds."""

    EXTINCTION = "extinction"
    PERSISTENCE = "persistence"
    INDETERMINATE = "indeterminate"


class RegimeReport(NamedTuple):
    """All threshold values for one parameter set, plus the verdict.

    threshold_conflict is set when the extinction criterion and both
    persistence conditions hold simultaneously (algebraically this region
    is empty, but the classifier reports rather than assumes that); the
    classification then stays EXTINCTION as the stronger statement.
    """

    extinction_index: float
    r0s: float
    m_minus_r_over_K: float
    persistence_floor: float | None
    ultimate_bound: float
    classification: Regime
    threshold_conflict: bool = False

    def to_dict(self) -> dict:
        return {
            "extinction_index": self.extinction_index,
            "r0s": self.r0s,
            "m_minus_r_over_K": self.m_minus_r_over_K,
            "persistence_floor": self.persistence_floor,
            "ultimate_bound": self.ultimate_bound,
            "classification": self.classification.value,
            "threshold_conflict": self.threshold_conflict,
        }


def drift(s: State, p: ModelParams) -> tuple[float, float]:
    """Deterministic vector field at s.

    Returns (r*u*(1 - u/K) - m*u*v, m*u*v - d*v). The matching flux
    m*u*v is computed once and reused so that the two components cancel
    it exactly in floating point when summed.

    u and v are floats or arrays that broadcast together. On arrays, each
    component is a fresh array of their broadcast shape, which a caller
    may write into; neither is u or v.
    """
    u, v = s
    # the operations that first meet v write new arrays, of the broadcast
    # shape, so a u narrower than v broadcasts as in the plain expression
    coupling = p.m * u * v
    du = p.r * u
    du *= 1.0 - u / p.K
    du = du - coupling
    coupling -= p.d * v  # dv, in the flux's own array once du has read it
    return du, coupling


def extinction_index(p: ModelParams) -> float:
    """m^2/(2*sigma^2) - d; v dies out almost surely when this is < 0."""
    if p.sigma == 0.0:
        raise ZeroNoiseError(
            "extinction_index is undefined for sigma = 0; the criterion "
            "only exists for the stochastic model"
        )
    return p.m * p.m / (2.0 * p.sigma * p.sigma) - p.d


def r0s(p: ModelParams) -> float:
    """Stochastic persistence threshold r/d - sigma^2*K^2/(2*d)."""
    return p.r / p.d - p.sigma * p.sigma * p.K * p.K / (2.0 * p.d)


def persistence_floor(p: ModelParams) -> float | None:
    """Lower bound d*(r0s - 1)/(m + d) on the long-run time average of v.

    Defined only when r0s > 1 and m > r/K; returns None otherwise
    (absence is the signal that the persistence conditions fail).
    """
    threshold = r0s(p)
    if threshold > 1.0 and p.m > p.r / p.K:
        return p.d * (threshold - 1.0) / (p.m + p.d)
    return None


def ultimate_bound(p: ModelParams) -> float:
    """r*K/min(r, d), the asymptotic almost-sure cap on u and on v."""
    return p.r * p.K / p.mu()


def classify_regime(p: ModelParams) -> RegimeReport:
    """Evaluate every threshold and classify the long-run regime.

    EXTINCTION   iff extinction_index < 0.
    PERSISTENCE  iff r0s > 1, m > r/K and extinction_index >= 0.
    INDETERMINATE otherwise (neither criterion applies).

    Raises ZeroNoiseError for sigma = 0.
    """
    index = extinction_index(p)
    threshold = r0s(p)
    margin = p.m - p.r / p.K
    floor = persistence_floor(p)
    persistence_holds = threshold > 1.0 and margin > 0.0

    if index < 0.0:
        classification = Regime.EXTINCTION
        conflict = persistence_holds
    elif persistence_holds:
        classification = Regime.PERSISTENCE
        conflict = False
    else:
        classification = Regime.INDETERMINATE
        conflict = False

    return RegimeReport(
        extinction_index=index,
        r0s=threshold,
        m_minus_r_over_K=margin,
        persistence_floor=floor,
        ultimate_bound=ultimate_bound(p),
        classification=classification,
        threshold_conflict=conflict,
    )
