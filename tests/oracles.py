"""Independent reference computations used to pin expected test values.

Nothing here shares stepping, event, or interpolation code with the package:
the reference integrator is a classical fixed-step RK4 written on plain
floats, and the randomized-case generator draws parameters directly.
"""

from __future__ import annotations

import math

import numpy as np

from sirdvax import (
    CostParams,
    EpidemicParams,
    Scenario,
    SirdState,
    VaccinationPolicy,
)


def rk4_reference(scenario, policy, h, sample_times):
    """Fixed-step classical RK4 solution sampled at the given times.

    The scheduled program end splits the step grid exactly and supply
    exhaustion is located by in-step bisection, so both non-smooth points are
    resolved.  The policy-rate kink is continuous; at the step sizes used here
    its smearing sits orders of magnitude below the comparison tolerances.
    Returns an array of shape (len(sample_times), 6).
    """
    epidemic, cost = scenario.epidemic, scenario.cost
    beta_e = -epidemic.r * math.log1p(-epidemic.eps)
    alpha, beta = epidemic.alpha, epidemic.beta
    a = cost.a
    coeff = alpha * cost.b + beta * cost.c
    if policy is None:
        k = l = m = tau = 0.0
    else:
        k, l, m, tau = policy.k, policy.l, policy.m, policy.tau

    def rhs(y, vacc):
        s, i, rho, d, J, V = y
        s = min(max(s, 0.0), 1.0)
        i = min(max(i, 0.0), 1.0)
        v = min(k, l * s) if vacc else 0.0
        infections = s * beta_e * i
        return (
            -infections - v,
            infections - i,
            alpha * i + v,
            beta * i,
            a * v + coeff * i,
            v,
        )

    def step(y, dt, vacc):
        k1 = rhs(y, vacc)
        k2 = rhs(tuple(yj + 0.5 * dt * kj for yj, kj in zip(y, k1)), vacc)
        k3 = rhs(tuple(yj + 0.5 * dt * kj for yj, kj in zip(y, k2)), vacc)
        k4 = rhs(tuple(yj + dt * kj for yj, kj in zip(y, k3)), vacc)
        return tuple(
            yj + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            for yj, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
        )

    sample_times = [float(t) for t in sample_times]
    boundaries = sorted(set(sample_times) | ({tau} if 0.0 < tau < scenario.T else set()))
    vaccinating = policy is not None and tau > 0.0 and k > 0.0 and l > 0.0 and m > 0.0

    y = (
        scenario.initial.s,
        scenario.initial.i,
        scenario.initial.rho,
        scenario.initial.d,
        0.0,
        0.0,
    )
    out = {}
    if boundaries[0] == 0.0:
        out[0.0] = y
    t = 0.0
    for t_next in boundaries:
        if t_next <= t:
            continue
        n = max(1, round((t_next - t) / h))
        dt = (t_next - t) / n
        for _ in range(n):
            vacc_here = vaccinating and t < tau
            trial = step(y, dt, vacc_here)
            if vacc_here and math.isfinite(m) and trial[5] >= m and y[5] < m:
                # locate the exhaustion fraction of this step by bisection
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if step(y, mid * dt, True)[5] >= m:
                        hi = mid
                    else:
                        lo = mid
                y = step(y, hi * dt, True)
                vaccinating = False
                y = step(y, (1.0 - hi) * dt, False)
            else:
                y = trial
            t += dt
        t = t_next
        if t in out or t in sample_times:
            out[t] = y
    return np.array([out[t] for t in sample_times])


def exact_infection_probability(i, dt, epidemic):
    """Exact contact-model probability of infection over an interval: 1 - (1 - eps)^(r*dt*i).

    This is the quantity the package's linear intensity beta_e*i approximates.
    """
    # 1 - e^x with x = r*dt*i*ln(1-eps) <= 0, computed without cancellation
    return -math.expm1(epidemic.r * dt * i * math.log1p(-epidemic.eps))


def random_cases(n, seed=20260810):
    """Reproducible valid (scenario, policy) pairs spanning the model's ranges."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        alpha = float(rng.uniform(0.5, 0.99))
        epidemic = EpidemicParams(
            alpha=alpha,
            beta=1.0 - alpha,
            r=float(rng.uniform(0.5, 15.0)),
            eps=float(rng.uniform(0.02, 0.5)),
        )
        cost = CostParams(
            a=float(rng.uniform(0.0, 10.0)),
            b=float(rng.uniform(0.0, 100.0)),
            c=float(rng.uniform(0.0, 1000.0)),
        )
        i0 = float(rng.uniform(1e-4, 0.05))
        rho0 = float(rng.uniform(0.0, 0.2))
        initial = SirdState(s=1.0 - i0 - rho0, i=i0, rho=rho0, d=0.0)
        horizon = float(rng.uniform(5.0, 25.0))
        scenario = Scenario(epidemic=epidemic, cost=cost, initial=initial, T=horizon)
        supply = math.inf if rng.random() < 1.0 / 3.0 else float(rng.uniform(0.05, 0.6))
        policy = VaccinationPolicy(
            k=float(rng.uniform(0.0, 0.25)),
            l=float(rng.uniform(0.0, 1.0)),
            m=supply,
            tau=float(rng.uniform(0.0, horizon)),
        )
        cases.append((scenario, policy))
    return cases
