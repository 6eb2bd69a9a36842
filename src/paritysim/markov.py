"""Markovianity analysis of the reduced register equation.

Two tools:

* Canonical rates: the drift rho -> K o rho (sme.DriftOperator) is a
  Schur multiplier, so with the Walsh matrix W_ai = (-1)^popcount(a & i)
  and C = W K W / d^2 it is exactly sum_ab C_ab Z^a rho Z^b, Z^a the
  diagonal Pauli strings. Its canonical (Gorini-Kossakowski-Sudarshan)
  rates are the eigenvalues of d C on the traceless strings a, b >= 1
  (Hall, Cresser, Li & Andersson, Phys. Rev. A 89, 042120 (2014)); a
  negative rate means the evolution is not CP-divisible (Rivas, Huelga &
  Plenio, Phys. Rev. Lett. 105, 050403 (2010)). The coupling term of one
  mode alone always has exactly one negative rate; under steady drive
  the whole drift has none.
* A dynamical witness: the trace distance between the two states that
  differ only in the relative phase between the parity sectors,
  (psi_+ +- psi_-)/sqrt(2) (the uniform |+...+> and |-...-> product
  states). The measurement dephases exactly that cross-parity coherence,
  so their distinguishability decays while the record accumulates;
  any regrowth flags information backflow (Breuer-Laine-Piilo witness,
  Phys. Rev. Lett. 103, 210401 (2009)). States supported on a single
  parity sector are useless here: the generator is elementwise, so their
  disjoint-support trace distance is constant at 1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import ConfigError
from .pulse import PulseSpec, default_pulse
from .sme import simulate_deterministic

#: rate of growth above which the trace distance counts as increasing
_RISE_TOL = 1e-9


def canonical_rates(k) -> np.ndarray:
    """Ascending canonical rates of the drift rho -> K o rho.

    K has shape (..., d, d) with d = 2**n >= 2 and is Hermitian, as
    sme.DriftOperator.coefficient gives it; leading axes (a block of time
    nodes) carry over, so the result has shape (..., d - 1).
    """
    k = np.asarray(k)
    dim = k.shape[-1] if k.ndim >= 2 else 0
    n_qubits = dim.bit_length() - 1
    if dim < 2 or k.shape[-2] != dim or 1 << n_qubits != dim:
        raise ConfigError(f"K has shape {k.shape}; need (..., d, d) with d "
                          "a power of two of at least 2")
    bits = model.bit_table(n_qubits)
    walsh = 1 - 2 * ((bits @ bits.T) & 1)
    # d C = W K W / d; row and column 0 belong to the identity string
    return np.linalg.eigvalsh((walsh @ k @ walsh)[..., 1:, 1:] / dim)


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray):
    """Trace distance (1/2) sum of singular values of rho_a - rho_b.

    Broadcasts over leading axes, so stacked trajectories work directly.
    """
    diff = np.asarray(rho_a) - np.asarray(rho_b)
    sv = np.linalg.svd(diff, compute_uv=False)
    return 0.5 * sv.sum(axis=-1)


@dataclass
class Interval:
    """Maximal run of grid steps on which the trace distance increases."""

    t_start: float
    t_end: float
    rise: float

    def overlaps(self, lo: float, hi: float) -> bool:
        return self.t_start < hi and self.t_end > lo


@dataclass
class WitnessResult:
    """Trace-distance record between the parity reference states."""

    times: np.ndarray
    distance: np.ndarray
    intervals: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)

    def overlapping(self) -> list:
        """Increasing intervals intersecting the window."""
        return [iv for iv in self.intervals if iv.overlaps(*self.window)]

    def max_rise(self) -> float:
        """Largest rise among intervals intersecting the window."""
        return max((iv.rise for iv in self.overlapping()), default=0.0)


def increasing_intervals(times, values) -> list:
    """Maximal intervals where the discrete derivative exceeds _RISE_TOL.

    The derivative is (values[i+1] - values[i]) / dt, so the floor is a
    rate; the test is grid-spacing aware.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = np.diff(times)
    rising = np.diff(values) / dt > _RISE_TOL
    # a run of rising steps starts and ends at a flip of the padded flags
    edges = np.flatnonzero(np.diff(rising, prepend=False, append=False))
    return [Interval(times[a], times[b], values[b] - values[a])
            for a, b in zip(edges[::2], edges[1::2])]


def witness_scan(config: model.ReadoutConfig, pulse: PulseSpec = None,
                 n_steps: int = 4000) -> WitnessResult:
    """Trace-distance witness between the cross-parity superposition pair.

    The initial states are (psi_+ + psi_-)/sqrt(2) and
    (psi_+ - psi_-)/sqrt(2); they are orthogonal (D(0) = 1) and differ
    only in the coherence between the parity sectors, which is exactly
    what the measurement dephases. Both are evolved deterministically with
    intrinsic dephasing switched off (gamma_z = 0), so any trace-distance
    growth is due to the measurement-induced coupling alone. The evolution
    rho0 o exp(int K) is linear in rho0, so their difference is evolved
    once and the distance is half its trace norm. The difference is zero
    on every same-parity entry, so its singular values are those of its
    (even, odd) block, each twice, and the distance is that block's trace
    norm. The reporting
    window is [t_off - sigma/2, tau]: the pulse turn-off, where amplitude
    information stored in the modes flows back into the register.
    """
    if pulse is None:
        pulse = default_pulse()
    clean = config.replace(gamma_z=np.zeros(config.n_qubits))
    psi_p = model.psi_plus(config.n_qubits)
    psi_m = model.psi_minus(config.n_qubits)
    psi_a = (psi_p + psi_m) / np.sqrt(2.0)
    psi_b = (psi_p - psi_m) / np.sqrt(2.0)
    diff = np.outer(psi_a, psi_a.conj()) - np.outer(psi_b, psi_b.conj())
    ev = simulate_deterministic(clean, pulse, n_steps, diff)
    # [[0, B], [B^H, 0]] in parity order has the singular values of B
    # twice, so D is twice trace_distance(B, 0), an SVD of a quarter of the
    # entries; B goes through trace_distance, the function perfbench times
    even = model.parity_indices(config.n_qubits, "even")
    odd = model.parity_indices(config.n_qubits, "odd")
    dist = 2.0 * trace_distance(ev.rhos[:, even[:, None], odd], 0.0)
    intervals = increasing_intervals(ev.times, dist)
    window = (pulse.t_off - pulse.sigma / 2.0, pulse.tau)
    return WitnessResult(times=ev.times, distance=dist,
                         intervals=intervals, window=window)
