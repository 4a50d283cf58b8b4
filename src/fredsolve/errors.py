"""Exception types shared across the package.

CLI exit-code mapping: ConfigError -> 1, NumericalParameterError -> 2.
"""

import math

__all__ = [
    "FredsolveError", "ConfigError", "ExprParseError", "NumericalParameterError",
    "ParameterExclusionError", "OnSpectrumError", "NoValidMuError", "NonFiniteValueError",
    "DegenerateProblemError", "InvalidRadiusError", "UndefinedDeltaError",
]


class FredsolveError(Exception):
    """Base class for all package errors."""


class ConfigError(FredsolveError):
    """Bad user input: unknown names, malformed files, invalid arguments."""


class ExprParseError(ConfigError):
    """Expression syntax error; carries a 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} at column {column}")
        self.column = column


class NumericalParameterError(FredsolveError):
    """A numerical parameter puts the method outside its validity region."""


class ParameterExclusionError(NumericalParameterError):
    """lambda hits (or is too close to) one of the excluded families."""

    def __init__(self, lam, family, n, value, rel_dist):
        self.lam = lam
        self.family = family
        self.n = n
        self.value = value
        self.rel_dist = rel_dist
        super().__init__(
            f"lambda={lam:.6g} excluded: too close to family {family} at n={n} "
            f"(value {value:.6g}, relative distance {rel_dist:.3g})"
        )


class OnSpectrumError(NumericalParameterError):
    """The second-kind system is singular: mu sits on (or near) the spectrum."""

    def __init__(self, mu, smallest_singular_value):
        self.mu = mu
        self.smallest_singular_value = smallest_singular_value
        super().__init__(
            f"mu={mu:.6g} is on or near the spectrum "
            f"(smallest singular value {smallest_singular_value:.3g})"
        )


class NoValidMuError(NumericalParameterError):
    """Every probed mu candidate produced a (near-)singular system."""

    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(f"no valid mu among probed candidates {self.candidates}")


class NonFiniteValueError(NumericalParameterError):
    """A free term, kernel or solution holds infinite or NaN values."""


class DegenerateProblemError(NumericalParameterError):
    """A reduction produced a vanishing denominator for a constant of integration."""


class InvalidRadiusError(NumericalParameterError):
    """Quasisolution radius cannot be bracketed."""


class UndefinedDeltaError(NumericalParameterError):
    """Closure error delta is undefined because both fields vanish."""


def require_finite(**values) -> None:
    """Raise NonFiniteValueError naming every value that is not finite; None passes."""
    bad = ", ".join(f"{name}={value}" for name, value in values.items()
                    if value is not None and not math.isfinite(value))
    if bad:
        raise NonFiniteValueError(f"{bad} must be finite")


def require_order(**orders) -> None:
    """Raise ConfigError naming every quadrature order or grid size below 1."""
    bad = ", ".join(f"{name}={value}" for name, value in orders.items() if value < 1)
    if bad:
        raise ConfigError(f"{bad} must be >= 1")
