"""Exception types shared across the library and the CLI exit-code map,
the lower-bound check that counts share, the range check that tolerances
share, the normalized-gauge check that the centred and three-dimensional
alphas share, and the recipe view that turns a missing key of a file's
document into bad input."""

import numpy as np


class ValidationError(ValueError):
    """Bad input: dimension mismatch, out-of-range parameter, malformed config.

    Maps to CLI exit code 2.
    """


class ImportedRecipe(dict):
    """A recipe read back from a file, named ``what`` in messages: a key it
    lacks is bad input."""

    def __init__(self, doc: dict, what: str):
        super().__init__(doc)
        self.what = what

    def __missing__(self, key):
        raise ValidationError(f"{self.what} lacks the key {key!r}")


class ConstructionError(ValidationError):
    """A geometric construction could not be carried out (empty level set,
    degenerate quadric, zero vector field)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or exceeded its guard.

    Maps to CLI exit code 3.
    """


def _check_count(value: int, name: str, least: int = 1) -> None:
    """A count ``name`` (an option or a parameter) must be at least
    ``least``."""
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")


def _check_tolerance(value: float, name: str) -> None:
    """A tolerance ``name`` must be finite and non-negative (not NaN)."""
    if not 0.0 <= value < np.inf:
        raise ValidationError(f"{name} must be finite and non-negative, "
                              f"got {value!r}")


def _check_gauge(al: np.ndarray, a: int) -> None:
    """Finite positive alphas in the normalized gauge: sum_{j<=a} 1/alpha_j
    and sum_{j>a} 1/alpha_j agree to 1e-9 of the largest 1/alpha_j."""
    if not np.all((al > 0) & (al < np.inf)):
        raise ValidationError("alphas must be finite and positive")
    inv = 1.0 / al
    if abs(np.sum(inv[:a]) - np.sum(inv[a:])) > 1e-9 * np.max(inv):
        raise ValidationError(
            "alphas are not in the normalized gauge sum_{j<=a} 1/alpha_j = "
            "sum_{j>a} 1/alpha_j; run normalize_lambda")
