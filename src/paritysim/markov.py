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
  disjoint-support trace distance is constant at 1. The distance is the
  trace norm of the (even, odd) block of the evolved difference, and
  without intrinsic dephasing that block is fixed by the exponent on the
  coupling classes (equal signed chi sums), which the scan integrates,
  reads the block off, weights by the class sizes and reduces to
  distances a bounded chunk of nodes at a time.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import ConfigError, require_int
from .pulse import PulseSpec, default_pulse
from .sme import _PASS_ENTRIES, _deterministic_exponents, build_table
# witness_scan no longer evolves the whole state, but perfbench's tracer
# test patches this lookup site by name, so the name stays importable from
# here (ROADMAP, item 1)
from .sme import simulate_deterministic  # noqa: F401

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


@functools.cache
def _row_pairs(n_rows: int):
    """(i, j) of every pair of rows i < j, built once per row count."""
    return np.triu_indices(n_rows, 1)


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray):
    """Trace distance (1/2) sum of singular values of rho_a - rho_b.

    Broadcasts over leading axes, so stacked trajectories work directly.
    A difference B of at most two rows or columns, transposed to q <= 2
    columns, takes its trace norm in closed form: ||B||_F for q = 1, and
    sqrt(||B||_F^2 + 2 s1 s2) for q = 2, where s1 s2 = sqrt(det B^H B) is
    the root of the sum of the squared 2 x 2 minors (Cauchy-Binet). The
    minors lose no more than the products they are made of, where the
    determinant of B^H B would cancel and lose half the digits of a
    near-rank-one B. Larger blocks take an SVD.
    """
    diff = np.asarray(rho_a) - np.asarray(rho_b)
    if diff.ndim < 2 or min(diff.shape[-2:]) > 2:
        sv = np.linalg.svd(diff, compute_uv=False)
        return 0.5 * sv.sum(axis=-1)
    if diff.shape[-1] > diff.shape[-2]:
        diff = diff.swapaxes(-1, -2)
    norm = (np.abs(diff) ** 2).sum(axis=(-2, -1))
    if diff.shape[-1] == 2:
        i, j = _row_pairs(diff.shape[-2])
        minors = (diff[..., i, 0] * diff[..., j, 1]
                  - diff[..., i, 1] * diff[..., j, 0])
        norm += 2.0 * np.sqrt((np.abs(minors) ** 2).sum(axis=-1))
    return 0.5 * np.sqrt(norm)


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


def _chunk_distances(chunk, weight) -> np.ndarray:
    """The witness at the nodes of a chunk of F's (even, odd) blocks.

    D is the trace norm, twice trace_distance(B, 0): B goes through
    trace_distance, the function perfbench times. Every step acts on each
    node alone, so a node's distance does not depend on its chunk.
    """
    b = np.concatenate(chunk)
    np.exp(b, out=b)
    b *= weight
    return 2.0 * trace_distance(b, 0.0)


def witness_scan(config: model.ReadoutConfig, pulse: PulseSpec = None,
                 n_steps: int = 4000) -> WitnessResult:
    """Trace-distance witness between the cross-parity superposition pair.

    The initial states are (psi_+ + psi_-)/sqrt(2) and
    (psi_+ - psi_-)/sqrt(2); they are orthogonal (D(0) = 1) and differ
    only in the coherence between the parity sectors, which is exactly
    what the measurement dephases. Both are evolved deterministically with
    intrinsic dephasing switched off (gamma_z = 0), so any trace-distance
    growth is due to the measurement-induced coupling alone. The evolution
    rho0 o exp(E), E = int K, is linear in rho0, so the distance is half
    the trace norm of the evolved difference, which is 2/d on every
    cross-parity entry at t = 0 and zero on every same-parity entry. Its
    singular values are those of its (even, odd) block B, each twice, so
    D is the trace norm of B.

    With gamma_z = 0, K_ij depends on states i and j only through their
    signed chi sums (model.signed_chi_sums), so E_ij = F[class(i),
    class(j)] depends only on the pair of coupling classes, which the
    amplitude table carries (AmplitudeTable.classes) and which may hold
    states of both parities. With P_e and P_o the class indicators of the
    even and odd states and X = exp(F), B = (2/d) P_e X P_o^T, whose
    singular values are those of (2/d) N_e^(1/2) X N_o^(1/2), N holding
    the class sizes within each parity. F is the coupling part of E and
    leaves the gamma part out (sme._deterministic_exponents), so it is E
    at gamma_z = 0 whatever the config's gamma_z. The scan takes the (even,
    odd) block of F on each block of nodes, gathers consecutive blocks into
    chunks of at most sme._PASS_ENTRIES numbers (at least one block each)
    and reduces each chunk to its distances through trace_distance at
    once; a node's distance is the same bits whatever its chunk, and no
    (steps, d, d) array is formed. On the default design that is a 2 x 2
    matrix per node instead of 8 x 8. The reporting window is [t_off -
    sigma/2, tau]: the pulse turn-off, where amplitude information stored
    in the modes flows back into the register.
    """
    n_steps = require_int("n_steps", n_steps, 1)
    if pulse is None:
        pulse = default_pulse()
    table = build_table(config, pulse, 2 * n_steps)
    # the classes with an even and with an odd state, and the size of each
    # within each parity; a class may hold both
    odd = model.popcounts(config.n_qubits) % 2
    sizes = [np.bincount(table.classes, weights) for weights in (1 - odd, odd)]
    (rows, n_even), (cols, n_odd) = [(np.flatnonzero(n), n[n > 0])
                                     for n in sizes]
    weight = (2.0 / config.dim) * np.sqrt(np.multiply.outer(n_even, n_odd))
    times, blocks = _deterministic_exponents(config, table)
    # the blocks of F's (even, odd) block, gathered into chunks of at most
    # _PASS_ENTRIES numbers (at least one block each)
    chunks, chunk, held = [], [], 0
    for f in blocks:
        block = f[:, rows[:, None], cols]
        if chunk and held + block.size > _PASS_ENTRIES:
            chunks.append(_chunk_distances(chunk, weight))
            chunk, held = [], 0
        chunk.append(block)
        held += block.size
    dist = np.concatenate(chunks + [_chunk_distances(chunk, weight)])
    intervals = increasing_intervals(times, dist)
    window = (pulse.t_off - pulse.sigma / 2.0, pulse.tau)
    return WitnessResult(times=times, distance=dist,
                         intervals=intervals, window=window)
