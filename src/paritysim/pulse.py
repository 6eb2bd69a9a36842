"""Piecewise-quadratic drive envelope.

The drive amplitude rises from 0 to its plateau value eps_ss through a C^1
smoothstep of width sigma centred on t_on, holds the plateau, and falls
back to 0 through the mirrored smoothstep centred on t_off. The envelope
passes through exactly eps_ss/2 at t_on and t_off.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import checked

_KEYS = ("t_on", "t_off", "sigma", "eps_ss", "tau")


@dataclass(frozen=True)
class PulseSpec:
    """Envelope parameters.

    The rise window is [t_on - sigma/2, t_on + sigma/2], the fall window
    [t_off - sigma/2, t_off + sigma/2]; both must fit inside [0, tau]
    without overlapping.
    """

    t_on: float
    t_off: float
    sigma: float
    eps_ss: float
    tau: float

    def __post_init__(self):
        for name, value in checked(_parse, self.to_dict()).items():
            object.__setattr__(self, name, value)

    def replace(self, **changes) -> "PulseSpec":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "PulseSpec":
        """Build a pulse from JSON-style data; raises naming every problem."""
        return cls(**checked(_parse, data))

    def evaluate(self, t):
        """Drive amplitude at time(s) t (scalar in, scalar out)."""
        t_arr = np.asarray(t, dtype=float)
        u_rise = (t_arr - (self.t_on - self.sigma / 2)) / self.sigma
        u_fall = (t_arr - (self.t_off - self.sigma / 2)) / self.sigma
        value = _smoothstep(u_rise) - _smoothstep(u_fall)
        value = self.eps_ss * value
        if np.ndim(t) == 0:
            return float(value)
        return value


def _parse(data):
    """Coerce a pulse block; returns (values, problems).

    problems lists every violation: unknown keys, each missing key, each
    value that is not a finite number, and each window that does not fit.
    A window is checked when the values it depends on are valid.
    """
    if not isinstance(data, dict):
        return {}, ["pulse must be an object"]
    problems = []
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        problems.append(f"unknown pulse keys: {unknown}")
    values = {}
    for name in _KEYS:
        if name not in data:
            problems.append(f"missing pulse key {name!r}")
            continue
        try:
            value = float(data[name])
        except (TypeError, ValueError):
            value = None
        if value is None or isinstance(data[name], bool):
            problems.append(f"pulse parameter {name} must be a number")
            continue
        if not np.isfinite(value):
            problems.append(f"pulse parameter {name} must be finite")
        else:
            values[name] = value

    def known(*names):
        return all(name in values for name in names)

    if known("sigma") and values["sigma"] <= 0:
        problems.append("sigma must be positive")
    elif known("sigma"):
        half = values["sigma"] / 2
        if known("t_on") and values["t_on"] - half < 0:
            problems.append("rise window starts before t = 0")
        if known("t_on", "t_off") and \
                values["t_on"] + half > values["t_off"] - half:
            problems.append("rise and fall windows overlap")
        if known("t_off", "tau") and values["t_off"] + half > values["tau"]:
            problems.append("fall window ends after tau")
    return values, problems


def validate(data) -> list:
    """Every problem of a JSON-style pulse block; empty when it is valid."""
    return _parse(data)[1]


def _smoothstep(u):
    """C^1 ramp: 0 for u<=0, 2u^2 then 1-2(1-u)^2 on [0,1], 1 for u>=1."""
    u = np.clip(u, 0.0, 1.0)
    return np.where(u <= 0.5, 2.0 * u * u, 1.0 - 2.0 * (1.0 - u) ** 2)


def pieces(pulse: PulseSpec):
    """(starts, curvature) of the seven quadratic pieces: eps'' is
    curvature[i] from starts[i] to the next start (the last piece has no
    end), and integrating it twice from eps = eps' = 0 gives evaluate."""
    on, off, hw = pulse.t_on, pulse.t_off, pulse.sigma / 2
    starts = np.array([0.0, on - hw, on, on + hw, off - hw, off, off + hw])
    c = 4.0 * pulse.eps_ss / pulse.sigma ** 2
    return starts, c * np.array([0.0, 1.0, -1.0, 0.0, -1.0, 1.0, 0.0])


def default_pulse() -> PulseSpec:
    """Plateau 0.4811 between smoothsteps at t_on=1.5, t_off=8.5, sigma=3."""
    return PulseSpec(t_on=1.5, t_off=8.5, sigma=3.0, eps_ss=0.4811, tau=13.5)
