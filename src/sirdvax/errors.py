"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter, state, or configuration violates its documented invariants."""


class IntegrationError(RuntimeError):
    """The ODE solver failed (step-size underflow or an unrepairable state excursion)."""
