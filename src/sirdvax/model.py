"""Normalized SIRD dynamics under a rate- and supply-limited vaccination policy.

All quantities are population fractions (the model is invariant under the
population size), and time is measured in units of the mean infectious period,
so the recovery and death probabilities per unit time sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: Allowed complementarity gap between the recovery and death rates.
ALPHA_BETA_TOL = 1e-12

#: Allowed excursion of a compartment outside [0, 1] (floating-point drift).
SIMPLEX_TOL = 1e-9

#: Allowed deviation of the compartment sum from 1.
SIMPLEX_SUM_TOL = 1e-6


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


@dataclass(frozen=True)
class EpidemicParams:
    """Biological and contact constants of the SIRD dynamics.

    ``alpha`` and ``beta`` are the per-unit-time probabilities of recovery and
    of death (or severe illness) for an infected individual and must be
    complementary.  After validation ``beta`` is stored as ``1 - alpha`` so the
    identity holds exactly in floating point; the admitted input gap is
    ``ALPHA_BETA_TOL``.

    ``r`` is the contact intensity (contacts per unit time) and ``eps`` the
    probability of infection on contact with an infected individual.
    """

    alpha: float
    beta: float
    r: float
    eps: float

    def __post_init__(self) -> None:
        _require(self.alpha >= 0.0, f"alpha must be nonnegative, got {self.alpha}")
        _require(self.beta >= 0.0, f"beta must be nonnegative, got {self.beta}")
        _require(
            abs(self.alpha + self.beta - 1.0) <= ALPHA_BETA_TOL,
            f"alpha + beta must equal 1 within {ALPHA_BETA_TOL}, "
            f"got {self.alpha + self.beta}",
        )
        _require(self.r > 0.0, f"r must be positive, got {self.r}")
        _require(0.0 < self.eps < 1.0, f"eps must lie in (0, 1), got {self.eps}")
        object.__setattr__(self, "beta", 1.0 - self.alpha)

    @property
    def transmission_rate(self) -> float:
        """Slope of the infection intensity in the infected fraction.

        Equals -r*ln(1 - eps).  With the removal rate normalized to one this
        is also the basic reproduction number of the unvaccinated model.
        """
        return -self.r * math.log1p(-self.eps)


@dataclass(frozen=True)
class CostParams:
    """Unit costs: one vaccine dose (a), one mild case (b), one severe case (c)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            _require(value >= 0.0, f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class VaccinationPolicy:
    """Resource parameters and duration of the vaccination program.

    k    maximum absolute vaccination rate of the medical system
         (population fraction per unit time);
    l    probability that a healthy person agrees to be vaccinated;
    m    available vaccine stock (population fraction); ``math.inf`` means
         no supply constraint;
    tau  program duration (time units).
    """

    k: float
    l: float
    m: float
    tau: float

    def __post_init__(self) -> None:
        _require(self.k >= 0.0, f"k must be nonnegative, got {self.k}")
        _require(0.0 <= self.l <= 1.0, f"l must lie in [0, 1], got {self.l}")
        _require(self.m >= 0.0, f"m must be nonnegative, got {self.m}")
        _require(self.tau >= 0.0, f"tau must be nonnegative, got {self.tau}")


@dataclass(frozen=True)
class SirdState:
    """Compartment fractions: susceptible, infected, immune, dead."""

    s: float
    i: float
    rho: float
    d: float

    def __post_init__(self) -> None:
        for name in ("s", "i", "rho", "d"):
            value = getattr(self, name)
            _require(
                -SIMPLEX_TOL <= value <= 1.0 + SIMPLEX_TOL,
                f"{name} must lie in [0, 1] (tolerance {SIMPLEX_TOL}), got {value}",
            )
        total = self.s + self.i + self.rho + self.d
        _require(
            abs(total - 1.0) <= SIMPLEX_SUM_TOL,
            f"compartments must sum to 1 within {SIMPLEX_SUM_TOL}, got {total}",
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s, self.i, self.rho, self.d)


@dataclass(frozen=True)
class AugmentedState:
    """A SIRD state plus accumulated cost J and accumulated vaccine usage V."""

    state: SirdState
    J: float
    V: float

    def __post_init__(self) -> None:
        _require(self.J >= 0.0, f"accumulated cost J must be nonnegative, got {self.J}")
        _require(self.V >= 0.0, f"accumulated usage V must be nonnegative, got {self.V}")

    def as_vector(self) -> tuple[float, float, float, float, float, float]:
        s, i, rho, d = self.state.as_tuple()
        return (s, i, rho, d, self.J, self.V)


@dataclass(frozen=True)
class Scenario:
    """Epidemic constants, unit costs, initial state, and planning horizon."""

    epidemic: EpidemicParams
    cost: CostParams
    initial: SirdState
    T: float

    def __post_init__(self) -> None:
        _require(
            0.0 < self.T < math.inf,
            f"planning horizon T must be positive and finite, got {self.T}",
        )
        _require(self.initial.i >= 0.0, "initial infected fraction must be nonnegative")

    def in_horizon(self, name: str, t: float) -> float:
        """``t`` if it lies in [0, T]; otherwise a ValidationError naming ``name``.

        The one check of a time against the horizon, for a program duration
        as for a time a trajectory is read at.
        """
        # NaN fails every comparison, so the range test is written to fail on it
        _require(0.0 <= t <= self.T, f"{name} must lie in [0, {self.T}], got {t}")
        return t


def infection_intensity(i: float, params: EpidemicParams) -> float:
    """Probability per unit time for one susceptible to become infected.

    Linear in the infected fraction: ``transmission_rate * i``.

    Raises ValidationError for an i outside [0, 1] or NaN; a caller handing
    in such a fraction has a corrupted state, not a modeling choice.
    """
    # NaN fails every comparison, so the range test is written to fail on it
    _require(0.0 <= i <= 1.0, f"infected fraction must lie in [0, 1], got {i}")
    return params.transmission_rate * i


def exact_infection_probability(i: float, dt: float, params: EpidemicParams) -> float:
    """Exact contact-model probability of infection over a finite interval.

    Returns ``1 - (1 - eps)^(r*dt*i)``.  This is the quantity the linear
    intensity approximates; it is used to validate that approximation and
    never inside the dynamics.  Raises ValidationError for a negative or NaN
    dt and for an i outside [0, 1] or NaN.
    """
    _require(dt >= 0.0, f"interval length must be nonnegative, got {dt}")
    _require(0.0 <= i <= 1.0, f"infected fraction must lie in [0, 1], got {i}")
    # 1 - e^x with x = r*dt*i*ln(1-eps) <= 0, computed without cancellation
    return -math.expm1(params.r * dt * i * math.log1p(-params.eps))


def treatment_cost_rate(epidemic: EpidemicParams, cost: CostParams) -> float:
    """Expected treatment cost per infected person per unit time.

    Mild and severe outcomes are weighted by their rates: alpha*b + beta*c.
    """
    return epidemic.alpha * cost.b + epidemic.beta * cost.c


def _rhs_values(
    s: float, i: float, v: float, beta_e: float
) -> tuple[float, float, float, float]:
    """Time derivative of the stored state (s, i, q, V) at vaccination rate v.

    ``beta_e`` is the epidemic's ``transmission_rate``, read once per solve
    by the caller.  q is the integral of i over time and V the vaccine used;
    the recovered and dead fractions and the cost are linear in them and are
    read off by ``solver._read_out``, so no unit cost enters here.  s and i
    must already lie in [0, 1]; scalars and arrays of one shape are both
    accepted.  The four derivatives sum to zero by construction.
    """
    infections = s * (beta_e * i)
    return (-infections - v, infections - i, i, v)
