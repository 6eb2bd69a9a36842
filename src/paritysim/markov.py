"""Markovianity analysis of the reduced register equation.

Two tools:

* An algebraic witness: the measurement-induced coupling term for one mode,
  -i (A S rho A^dag - A rho S A^dag) with A = diag(alpha_j) and
  S = sigma_bar_z = sum_l chi_l sigma_z,l, is brought to canonical
  (Gorini-Kossakowski-Sudarshan) form on the traceless operator basis
  {F_1, F_2} obtained by Gram-Schmidt from {A, A S}. The normalized
  coefficient matrix is exactly [[2x, i], [-i, 0]] with
  x = Im tr(A S F_1^dag) / ||F_1||^2; its eigenvalues x +- sqrt(x^2 + 1)
  always contain exactly one negative value, so the generator is never of
  Lindblad form with positive rates (an intrinsically non-Markovian,
  time-local generator).
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
from .errors import ConfigError, DegenerateBasisError
from .pulse import PulseSpec, default_pulse
from .sme import simulate_deterministic

#: relative floor under which an operator norm counts as zero
_NORM_TOL = 1e-12
#: rate of growth above which the trace distance counts as increasing
_RISE_TOL = 1e-9


@dataclass
class CoefficientMatrix:
    """Canonical-form data of the one-mode coupling generator.

    All operators are diagonal and stored as their diagonal vectors.
    `matrix` is the coefficient matrix on the normalized basis
    (F_1/||F_1||, F_2/||F_2||); `apply(rho)` rebuilds the generator from
    the decomposition pieces (identity component included).
    """

    matrix: np.ndarray          # (2, 2) complex, [[2x, i], [-i, 0]]
    x: float
    f1: np.ndarray              # diag of F_1 (traceless part of A)
    f2: np.ndarray              # diag of F_2 (residual of A S)
    norm_f1: float
    norm_f2: float
    alpha: np.ndarray           # diag of A
    sigma_bar: np.ndarray       # diag of S (real)
    c0: complex                 # tr(A)/N
    d0: complex                 # tr(A S)/N
    gamma: complex              # projection of A S onto F_1

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the coefficient matrix."""
        return np.linalg.eigvalsh(self.matrix)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Generator reconstructed from the split pieces.

        Expands -i(A S rho A^dag - A rho S A^dag) with A = c0 1 + F_1 and
        A S = d0 1 + gamma F_1 + F_2, so any error in the decomposition
        shows up as a mismatch with the direct evaluation.
        """
        left = self.d0 + self.gamma * self.f1 + self.f2     # diag of A S
        right = self.c0 + self.f1                           # diag of A
        return (-1j * left[:, None] * rho * right.conj()[None, :]
                + 1j * right[:, None] * rho * left.conj()[None, :])


def coefficient_matrix(alpha, chi_weights) -> CoefficientMatrix:
    """Canonical coefficient matrix of the coupling term for one mode.

    Parameters
    ----------
    alpha : array_like, shape (2**n,)
        Pointer amplitudes of the mode, one per register basis state
        (diagonal of A).
    chi_weights : array_like, shape (n,)
        Dispersive shifts chi_l of this mode, weighting sigma_bar_z.

    Raises
    ------
    ConfigError
        For a single qubit: {1, F_1, F_2} cannot be linearly independent
        in the 2-dimensional diagonal operator space.
    DegenerateBasisError
        If F_1 (or the F_2 residual) has numerically zero norm.
    """
    alpha = np.asarray(alpha, dtype=complex)
    weights = np.asarray(chi_weights, dtype=float)
    n_qubits = int(round(np.log2(len(alpha))))
    if 1 << n_qubits != len(alpha):
        raise ConfigError("alpha length must be a power of two")
    if len(weights) != n_qubits:
        raise ConfigError("chi_weights length must equal the qubit count")
    if n_qubits < 2:
        raise ConfigError(
            "coefficient matrix needs at least 2 qubits: with one qubit the "
            "diagonal operator space is too small for {1, F_1, F_2}")
    dim = len(alpha)

    sigma_bar = weights @ model.sigma_z_signs(n_qubits).astype(float)
    a_s = alpha * sigma_bar

    scale = max(np.linalg.norm(alpha), 1.0)
    c0 = alpha.sum() / dim
    f1 = alpha - c0
    norm_f1 = np.linalg.norm(f1)
    if norm_f1 < _NORM_TOL * scale:
        raise DegenerateBasisError(
            "A is proportional to the identity; F_1 = 0")

    d0 = a_s.sum() / dim
    gamma = (a_s @ f1.conj()) / norm_f1 ** 2
    f2 = a_s - d0 - gamma * f1
    norm_f2 = np.linalg.norm(f2)
    if norm_f2 < _NORM_TOL * scale:
        raise DegenerateBasisError(
            "A S lies in span{1, F_1}; F_2 = 0")

    x = float(gamma.imag)
    matrix = np.array([[2.0 * x, 1j], [-1j, 0.0]], dtype=complex)
    return CoefficientMatrix(matrix=matrix, x=x, f1=f1, f2=f2,
                             norm_f1=float(norm_f1), norm_f2=float(norm_f2),
                             alpha=alpha, sigma_bar=sigma_bar,
                             c0=complex(c0), d0=complex(d0),
                             gamma=complex(gamma))


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

    def overlapping(self, lo: float = None, hi: float = None) -> list:
        """Increasing intervals intersecting [lo, hi] (default: window)."""
        if lo is None:
            lo, hi = self.window
        return [iv for iv in self.intervals if iv.overlaps(lo, hi)]

    def max_rise(self, lo: float = None, hi: float = None) -> float:
        """Largest rise among intervals intersecting the window."""
        hits = self.overlapping(lo, hi)
        return max((iv.rise for iv in hits), default=0.0)


def increasing_intervals(times, values) -> list:
    """Maximal intervals where the discrete derivative exceeds _RISE_TOL.

    The derivative is (values[i+1] - values[i]) / dt, so the floor is a
    rate; the test is grid-spacing aware.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = np.diff(times)
    rising = np.diff(values) / dt > _RISE_TOL
    intervals = []
    start = None
    for i, flag in enumerate(rising):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            intervals.append(Interval(times[start], times[i],
                                      values[i] - values[start]))
            start = None
    if start is not None:
        intervals.append(Interval(times[start], times[-1],
                                  values[-1] - values[start]))
    return intervals


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
    once and the distance is half its trace norm. The reporting
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
    dist = trace_distance(ev.rhos, 0.0)
    intervals = increasing_intervals(ev.times, dist)
    window = (pulse.t_off - pulse.sigma / 2.0, pulse.tau)
    return WitnessResult(times=ev.times, distance=dist,
                         intervals=intervals, window=window)
