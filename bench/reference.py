"""Independent fixed-step RK4 solution of the controlled SIRD system.

Nothing here imports the package: the model is read from the plain config
dictionary that ``sirdvax.dump_config`` writes, the right-hand side is written
out on floats, the scheduled program end splits the step grid exactly and
supply exhaustion is located by bisection inside the step that crosses the
stock.  The rate kink min{k, l*s} is continuous, so stepping through it
smears it by O(h^2) in one step only, far below the check tolerances.
"""

from __future__ import annotations

import math

#: Step used for every output check.  Against a run at 2e-4 it differs by at
#: most 2.9e-8 in any compartment, V(T) or relative J(T) (mostly the smeared
#: rate kink), far below the 1e-5 tolerance of the checks.
CHECK_STEP = 4e-3


class Model:
    """Constants of one scenario, read from a config dictionary."""

    def __init__(self, cfg: dict):
        ep, cost, res, init = cfg["epidemic"], cfg["cost"], cfg["resources"], cfg["initial"]
        self.beta_e = -ep["r"] * math.log1p(-ep["eps"])
        self.alpha = ep["alpha"]
        self.beta = 1.0 - ep["alpha"]
        self.a = cost["a"]
        self.coeff = self.alpha * cost["b"] + self.beta * cost["c"]
        self.k = res["k"]
        self.l = res["l"]
        self.m = math.inf if res["m"] is None else res["m"]
        self.y0 = (init["s"], init["i"], init["rho"], init["d"], 0.0, 0.0)
        self.T = cfg["T"]

    def rhs(self, y, vacc):
        s = min(max(y[0], 0.0), 1.0)
        i = min(max(y[1], 0.0), 1.0)
        v = min(self.k, self.l * s) if vacc else 0.0
        inf = self.beta_e * s * i
        return (-inf - v, inf - i, self.alpha * i + v, self.beta * i, self.a * v + self.coeff * i, v)

    def step(self, y, dt, vacc):
        f = self.rhs
        k1 = f(y, vacc)
        h2 = 0.5 * dt
        k2 = f(tuple(a + h2 * b for a, b in zip(y, k1)), vacc)
        k3 = f(tuple(a + h2 * b for a, b in zip(y, k2)), vacc)
        k4 = f(tuple(a + dt * b for a, b in zip(y, k3)), vacc)
        w = dt / 6.0
        return tuple(
            a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )


def solve(cfg: dict, tau: float, sample_times=(), h: float = CHECK_STEP, m: float | None = None):
    """Integrate over [0, T] with the program running for ``tau``.

    ``m`` overrides the config's stock (``math.inf`` for none).  Returns
    ``(final, samples)``: the state (s, i, rho, d, J, V) at T and the states
    at ``sample_times``, each rounded onto the step grid.
    """
    model = Model(cfg)
    if m is not None:
        model.m = m
    T = model.T
    vaccinating = tau > 0.0 and model.k > 0.0 and model.l > 0.0 and model.m > 0.0
    wanted = sorted(set(float(t) for t in sample_times))
    samples = {}
    y = model.y0
    t = 0.0
    for t0, t1, on in ((0.0, min(tau, T), True), (min(tau, T), T, False)):
        if t1 <= t0:
            continue
        n = max(1, round((t1 - t0) / h))
        dt = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * dt
            while wanted and wanted[0] < t + 0.5 * dt:
                samples[wanted.pop(0)] = y
            vacc = on and vaccinating
            trial = model.step(y, dt, vacc)
            if vacc and trial[5] >= model.m:
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if model.step(y, mid * dt, True)[5] >= model.m:
                        hi = mid
                    else:
                        lo = mid
                vaccinating = False
                trial = model.step(model.step(y, hi * dt, True), (1.0 - hi) * dt, False)
            y = trial
    for t_left in wanted:
        samples[t_left] = y
    return y, [samples[float(t)] for t in sample_times]

