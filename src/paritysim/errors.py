"""Exception types shared across the package, and the argument checks
that raise them. Outside the config and pulse parsers, every count,
seed and index argument is checked by require_int and every rate by
require_positive; both parsers raise through checked."""

import math
import numbers


class ConfigError(ValueError):
    """A configuration is malformed or physically inadmissible."""


class ResonanceError(ValueError):
    """A resolvent (s*1 - A_j)^{-1} is evaluated where s*1 - A_j is
    singular; at s = 0, a zero pulled detuning on an undamped mode or on
    two or more modes at once."""


class GridMismatchError(ValueError):
    """Filter and record are sampled on grids of different lengths."""


class DegenerateFilterError(ValueError):
    """The nominal record integrates to (numerically) zero, so the matched
    filter normalization is undefined."""


def require_int(name: str, value, low: int):
    """value, if it is an integer of at least low; ConfigError otherwise.

    A Python or numpy integer is accepted; a bool, a float (even a whole
    one) or anything else is not, so it cannot stand for a count by
    accident.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}")
    return value


def require_positive(name: str, value):
    """value, if it is finite and positive (NaN is neither); ConfigError
    otherwise."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    return value


def checked(parse, data) -> dict:
    """parse(data)'s values; ConfigError naming every problem it lists.

    parse returns (values, problems), as the config and pulse parsers do.
    """
    values, problems = parse(data)
    if problems:
        raise ConfigError("; ".join(problems))
    return values
