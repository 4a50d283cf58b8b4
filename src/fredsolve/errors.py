"""Exception types shared across the package.

CLI exit-code mapping: ConfigError -> 1, NumericalParameterError -> 2.
"""


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


class ContractionError(NumericalParameterError):
    """Neumann iteration refused: |mu| * ||K||_L2 >= 1."""

    def __init__(self, mu, c1):
        self.mu = mu
        self.c1 = c1
        super().__init__(f"simple iteration diverges: |mu|*c1 = {abs(mu) * c1:.6g} >= 1")


class NonFiniteValueError(NumericalParameterError):
    """A free term, kernel or solution holds infinite or NaN values."""


class DegenerateProblemError(NumericalParameterError):
    """A reduction produced a vanishing denominator for a constant of integration."""


class InvalidRadiusError(NumericalParameterError):
    """Quasisolution radius cannot be bracketed."""


class UndefinedDeltaError(NumericalParameterError):
    """Closure error delta is undefined because both fields vanish."""
