"""Register/resonator model for multi-mode dispersive parity readout.

Conventions used throughout the package:

* Computational basis states of an ``n``-qubit register are indexed by the
  integer whose binary expansion (MSB = qubit 0) is the ket label, so
  ``|011>`` of a 3-qubit register is index 3.
* Bit value 0 corresponds to the sigma_z eigenvalue +1.
* The dispersive shift chi of the first mode on the first qubit sets the
  unit system (chi = 1, time in units of 1/chi).
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import ConfigError, checked, require_positive

_EVEN = "even"
_ODD = "odd"

#: largest register a config may describe. simulate_deterministic returns
#: a (steps + 1, 2**n, 2**n) complex evolution: 0.26 GB at 6 qubits and
#: its default 4000 steps, 1 GB at 7.
MAX_QUBITS = 6
#: most internal modes a config may describe. The amplitude table holds a
#: (steps + 1, n_modes, 2**n) complex array, 0.6 GB at this cap, 6 qubits
#: and 10^5 steps; its exact build peaks at 1.3 such arrays (traced).
MAX_MODES = 6


@dataclass(frozen=True)
class ReadoutConfig:
    """Static parameters of a register measured through internal modes.

    Attributes
    ----------
    n_qubits : int
        Register size.
    n_modes : int
        Number of internal resonator modes sharing the output line.
    chi : ndarray, shape (n_modes, n_qubits)
        Dispersive shift of mode k due to qubit l.
    kappa : ndarray, shape (n_modes,)
        Decay rate of each mode into the common output line.
    delta : ndarray, shape (n_modes,)
        Drive-frame detuning of each mode.
    gamma_z : ndarray, shape (n_qubits,)
        Intrinsic dephasing rate of each qubit.
    eta : float
        Homodyne detection efficiency, in [0, 1].
    phi : float
        Homodyne phase (radians). phi = 0 measures the Re quadrature of
        the output field.
    """

    n_qubits: int
    n_modes: int
    chi: np.ndarray
    kappa: np.ndarray
    delta: np.ndarray
    gamma_z: np.ndarray
    eta: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        for name, value in checked(
                _parse,
                {name: getattr(self, name) for name in _CONFIG_KEYS}).items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        """Register Hilbert-space dimension 2**n_qubits."""
        return 1 << self.n_qubits

    def replace(self, **changes) -> "ReadoutConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "n_modes": self.n_modes,
            "chi": self.chi.tolist(),
            "kappa": self.kappa.tolist(),
            "delta": self.delta.tolist(),
            "gamma_z": self.gamma_z.tolist(),
            "eta": self.eta,
            "phi": self.phi,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReadoutConfig":
        """Build a config from plain JSON-style data.

        Scalars are broadcast: a scalar ``chi`` fills the whole coupling
        matrix, scalar ``kappa``/``delta``/``gamma_z`` fill their vectors.
        ``gamma_z`` and ``phi`` default to 0 and ``eta`` to 1 when absent.
        A ``pulse`` key is tolerated and ignored.
        """
        return cls(**checked(_parse, data))


_CONFIG_KEYS = ("n_qubits", "n_modes", "chi", "kappa", "delta", "gamma_z",
                "eta", "phi")
_MAX_SIZE = {"n_qubits": MAX_QUBITS, "n_modes": MAX_MODES}
#: values of the optional keys when they are absent
_DEFAULTS = {"gamma_z": 0.0, "eta": 1.0, "phi": 0.0}


def _parse(data):
    """Coerce JSON-style config data; returns (fields, problems).

    problems lists every violation, each naming its field. When it is
    empty, fields holds every ReadoutConfig field: integer sizes,
    read-only float arrays (a scalar fills the whole shape) and float
    eta and phi.
    """
    if not isinstance(data, dict):
        return {}, ["config: must be an object"]
    problems = []
    unknown = sorted(set(data) - set(_CONFIG_KEYS) - {"pulse"})
    if unknown:
        problems.append(f"unknown keys: {unknown}")

    fields = {}
    for name in ("n_qubits", "n_modes"):
        if name not in data:
            problems.append(f"{name}: missing")
            continue
        try:
            size = int(data[name])
        except (TypeError, ValueError, OverflowError):
            size = 0
        if size < 1 or size != data[name] or isinstance(data[name], bool):
            problems.append(f"{name}: must be a positive integer")
        elif size > _MAX_SIZE[name]:
            problems.append(f"{name}: must be at most {_MAX_SIZE[name]}")
        else:
            fields[name] = size

    shapes = {}
    if len(fields) == 2:
        m, n = fields["n_modes"], fields["n_qubits"]
        shapes = {"chi": (m, n), "kappa": (m,), "delta": (m,),
                  "gamma_z": (n,)}
    shapes.update(eta=(), phi=())
    for name, shape in shapes.items():
        value = data.get(name, _DEFAULTS.get(name))
        if value is None:
            problems.append(f"{name}: not numeric" if name in data
                            else f"{name}: missing")
            continue
        try:
            arr = None if _has_bool(value) else np.array(value, dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is None:
            problems.append(f"{name}: not numeric")
            continue
        if arr.ndim == 0:
            arr = np.full(shape, float(arr))
        if arr.shape != shape:
            problems.append(f"{name}: shape {arr.shape} != {shape}")
        elif not np.all(np.isfinite(arr)):
            problems.append(f"{name}: must be finite")
        elif name in ("kappa", "gamma_z") and np.any(arr < 0):
            problems.append(f"{name}: must be non-negative")
        elif name == "eta" and not 0.0 <= arr <= 1.0:
            problems.append("eta: must lie in [0, 1]")
        elif shape:
            arr.setflags(write=False)
            fields[name] = arr
        else:
            fields[name] = float(arr)
    return fields, problems


def _has_bool(value) -> bool:
    """Whether JSON-style value is a boolean or a list holding one."""
    if isinstance(value, (list, tuple)):
        return any(_has_bool(item) for item in value)
    return isinstance(value, bool)


def validate(data) -> list:
    """Collect every config-invariant violation in JSON-style data.

    Each entry names the offending field; an empty list means the data
    describes a valid config. Violations are returned as data rather than
    raised, so callers can report all of them at once.
    """
    return _parse(data)[1]


# -- basis bookkeeping -------------------------------------------------------

def bit_table(n_qubits: int) -> np.ndarray:
    """(2**n, n) array of bits; row j spells the ket label of index j."""
    index = np.arange(1 << n_qubits)
    shifts = np.arange(n_qubits - 1, -1, -1)
    return (index[:, None] >> shifts[None, :]) & 1


def sigma_z_signs(n_qubits: int) -> np.ndarray:
    """(n, 2**n) array: signs[l, j] = sigma_z eigenvalue of qubit l in |j>."""
    return (1 - 2 * bit_table(n_qubits)).T


def popcounts(n_qubits: int) -> np.ndarray:
    """Number of 1-bits of every basis index."""
    return bit_table(n_qubits).sum(axis=1)


def require_parity(parity: str) -> str:
    """parity, if it is 'even' or 'odd'; ConfigError otherwise."""
    if parity not in (_EVEN, _ODD):
        raise ConfigError(f"parity must be 'even' or 'odd', got {parity!r}")
    return parity


def parity_indices(n_qubits: int, parity: str) -> np.ndarray:
    """Basis indices of the requested parity class ('even' or 'odd')."""
    want = 0 if require_parity(parity) == _EVEN else 1
    return np.nonzero(popcounts(n_qubits) % 2 == want)[0]


def bitstring(index: int, n_qubits: int) -> str:
    """Ket label of a basis index, e.g. bitstring(3, 3) == '011'."""
    return format(index, f"0{n_qubits}b")


def signed_chi_sums(config: ReadoutConfig) -> np.ndarray:
    """(n_modes, 2**n) matrix of sum_l chi[k, l] * (-1)^{bit l of j}.

    Row k gives the dispersive frequency pull of mode k for every register
    basis state.
    """
    return config.chi @ sigma_z_signs(config.n_qubits).astype(float)


def distinct_rows(rows):
    """(first, group): rows[first] are the distinct rows (equal bytes), in
    order, and rows[b] equals rows[first[group[b]]].

    The one grouping of the package: the basis states of one coupling
    class (equal columns of signed_chi_sums), the stepper's rows of one
    coupling class and one initial population, or the batch rows of one
    initial state.
    """
    seen = {}
    return np.unique([seen.setdefault(row.tobytes(), b)
                      for b, row in enumerate(rows)], return_inverse=True)


# -- design relations --------------------------------------------------------

def parity_detunings(kappa0: float, kappa1: float, chi: float = 1.0):
    """Detunings that collapse the steady output to two parity points.

    For two modes with decay rates kappa0 and kappa1, uniform dispersive
    shift chi, returns (delta0, delta1) = (chi*sqrt(3*kappa0/kappa1),
    -chi*sqrt(3*kappa1/kappa0)). With these detunings every even-popcount
    basis state produces the same steady output amplitude, and likewise
    every odd one. ConfigError if a rate is not finite and positive, or
    if the rates are so far apart that a detuning overflows or underflows.
    """
    for name, rate in (("kappa0", kappa0), ("kappa1", kappa1), ("chi", chi)):
        require_positive(name, rate)
    d0 = chi * math.sqrt(3.0 * kappa0 / kappa1)
    d1 = chi * math.sqrt(3.0 * kappa1 / kappa0)
    return require_positive("delta_0", d0), -require_positive("|delta_1|", d1)


def kappa_star(chi: float = 1.0) -> float:
    """Decay rate maximizing the steady-state output separation: 2*chi."""
    return require_positive("kappa_star", 2.0 * require_positive("chi", chi))


# -- reference states --------------------------------------------------------

def psi_parity(n_qubits: int, parity: str) -> np.ndarray:
    """Uniform superposition of all basis states of one parity class."""
    idx = parity_indices(n_qubits, parity)
    vec = np.zeros(1 << n_qubits, dtype=complex)
    vec[idx] = 1.0 / math.sqrt(len(idx))
    return vec


def psi_plus(n_qubits: int) -> np.ndarray:
    """Even-parity reference state, (1/2)(|000> + |011> + |101> + |110>)
    for three qubits."""
    return psi_parity(n_qubits, _EVEN)


def psi_minus(n_qubits: int) -> np.ndarray:
    """Odd-parity reference state, (1/2)(|111> + |100> + |010> + |001>)
    for three qubits."""
    return psi_parity(n_qubits, _ODD)


def plus_density(n_qubits: int) -> np.ndarray:
    """Density matrix of |+>^n, every entry 1/2**n."""
    d = 1 << n_qubits
    return np.full((d, d), 1.0 / d, dtype=complex)


def default_config() -> ReadoutConfig:
    """Three qubits, two modes at the optimal working point.

    kappa = 2*chi for both modes, detunings from parity_detunings, uniform
    chi = 1, gamma_z = 1/300, perfect detection at phi = 0.
    """
    d0, d1 = parity_detunings(2.0, 2.0, 1.0)
    return ReadoutConfig(
        n_qubits=3,
        n_modes=2,
        chi=np.ones((2, 3)),
        kappa=np.array([2.0, 2.0]),
        delta=np.array([d0, d1]),
        gamma_z=np.full(3, 1.0 / 300.0),
        eta=1.0,
        phi=0.0,
    )
