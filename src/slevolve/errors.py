"""Exception types shared across the library and the CLI exit-code map,
and the lower-bound check that counts share."""


class ValidationError(ValueError):
    """Bad input: dimension mismatch, out-of-range parameter, malformed config.

    Maps to CLI exit code 2.
    """


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
