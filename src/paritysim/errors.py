"""Exception types shared across the package."""


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
