"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration is malformed or physically inadmissible."""


class ResonanceError(ValueError):
    """A steady-state expression hit a pole (zero effective detuning or
    vanishing response denominator)."""


class TruncationError(RuntimeError):
    """Population reached the top of the Fock ladder; the truncated space
    is too small for the requested drive."""


class DegenerateBasisError(ValueError):
    """The Gram-Schmidt construction collapsed: a basis operator has
    (numerically) zero norm, so the coefficient matrix is undefined."""


class GridMismatchError(ValueError):
    """Filter and record are sampled on grids of different lengths."""


class DegenerateFilterError(ValueError):
    """The nominal record integrates to (numerically) zero, so the matched
    filter normalization is undefined."""
