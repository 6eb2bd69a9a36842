"""Record filtering, parity classification, and fidelity figures of merit.

The integrated signal is s = sum_n f(t_n) j(t_n) dt with a filter
normalized so that its time integral is 1. Classification compares s
against zero after orienting it with the sign of the noiseless
even-parity signal, so "positive means even" holds independent of the
homodyne quadrature sign convention.

The gate-based comparison model assigns a failure probability p to every
circuit operation of an ancilla-mediated ZZZ measurement (preparation,
memory, CNOT, ancilla readout) and propagates the resulting Pauli errors
through the circuit exactly; the output fidelity is the square root of a
degree-10 polynomial in p.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .cavity import AmplitudeTable
from .errors import (ConfigError, DegenerateFilterError, GridMismatchError,
                     require_int)
from .pulse import PulseSpec
from .sme import (Diagnostics, build_table, measurement_diag, mixture_noise,
                  sample_batch)
# ensemble_run no longer steps S, but perfbench's tracer test patches this
# lookup site by name, so the name stays importable from here
from .sme import simulate_batch  # noqa: F401

FILTER_KINDS = ("matched", "matched-mean", "uniform")

#: trajectories integrated together by ensemble_run
_CHUNK_SIZE = 100

#: relative floor under which a filter normalization counts as zero
_FILTER_TOL = 1e-12


def nominal_record(config: model.ReadoutConfig, table: AmplitudeTable,
                   parity: str = "even") -> np.ndarray:
    """Noiseless photocurrent of a parity reference bitstring.

    Uses the lowest-index register basis state of the requested parity and
    samples on the step grid (left nodes), matching the convention of the
    stochastic record.
    """
    idx = model.parity_indices(config.n_qubits, parity)[0]
    c = measurement_diag(config, table.output[:-1, idx])
    return math.sqrt(config.eta) * 2.0 * c.real


@dataclass
class FilterFunction:
    """A filter sampled on the record grid, with integral 1.

    nominal_even is the integrated signal the filter produces on the
    noiseless even-parity record; its sign orients classification.
    """

    kind: str
    times: np.ndarray
    values: np.ndarray
    dt: float
    nominal_even: float

    @property
    def orientation(self) -> float:
        """+1 or -1 so that orientation * s > 0 on even-parity records."""
        if self.nominal_even == 0.0:
            raise DegenerateFilterError(
                "filter produces zero signal on the reference record; "
                "parity cannot be oriented")
        return 1.0 if self.nominal_even > 0.0 else -1.0

    def integrate(self, record) -> np.ndarray:
        """Integrated signal(s); record may be (n,) or batched (..., n)."""
        record = np.asarray(record, dtype=float)
        if record.shape[-1] != len(self.values):
            raise GridMismatchError(
                f"record has {record.shape[-1]} samples, filter has "
                f"{len(self.values)}")
        # elementwise product + axis reduction keeps the rounding of each
        # row independent of the batch shape (a BLAS matvec does not)
        return (record * self.values).sum(axis=-1) * self.dt


def build_filter(config: model.ReadoutConfig, table: AmplitudeTable,
                 kind: str = "matched") -> FilterFunction:
    """Construct a classification filter on the table's record grid.

    kinds:
      matched       proportional to the noiseless even-parity record
      matched-mean  proportional to the difference of the two noiseless
                    parity records (symmetric variant)
      uniform       constant boxcar
    """
    if kind not in FILTER_KINDS:
        raise ConfigError(f"unknown filter kind {kind!r}; "
                          f"choose from {FILTER_KINDS}")
    times = table.times[:-1]
    dt = table.dt
    span = table.times[-1] - table.times[0]
    j_even = nominal_record(config, table, "even")

    if kind == "uniform":
        values = np.full(len(times), 1.0 / span)
    else:
        shape = j_even if kind == "matched" \
            else j_even - nominal_record(config, table, "odd")
        norm = shape.sum() * dt
        floor = _FILTER_TOL * max(1.0, float(np.abs(shape).max()) * span)
        if abs(norm) < floor:
            raise DegenerateFilterError(
                f"{kind} filter normalization integral is numerically zero")
        values = shape / norm
    nominal_even = float(values @ j_even * dt)
    return FilterFunction(kind=kind, times=times, values=values, dt=dt,
                          nominal_even=nominal_even)


def assign_parity(signal):
    """Sign rule on oriented integrated signal(s): positive means even.

    A scalar gives one label, an array an array of labels. A signal that
    is exactly zero is assigned even, with one warning per call.
    """
    signal = np.asarray(signal, dtype=float)
    if np.any(signal == 0.0):
        warnings.warn("integrated signal is exactly zero; assigning even")
    labels = np.where(signal < 0.0, "odd", "even")
    return str(labels) if labels.ndim == 0 else labels


def classify(filt: FilterFunction, record) -> tuple:
    """(assigned parity, raw integrated signal) for one record."""
    s = float(filt.integrate(record))
    return assign_parity(s * filt.orientation), s


def state_fidelity(rho, psi):
    """sqrt(<psi| rho |psi>), broadcast over leading axes of rho."""
    psi = np.asarray(psi, dtype=complex)
    val = np.einsum("i,...ij,j->...", psi.conj(), np.asarray(rho), psi).real
    return np.sqrt(np.clip(val, 0.0, None))


@dataclass
class EnsembleSummary:
    """Aggregated trajectories: signals, assignments, final fidelities.

    signals and assignments are keyed by filter kind; every filter is
    applied to the same records, so kinds are directly comparable.
    basis_index[b] is the basis state j of the mixture component that
    drew the record of trajectory b (ensemble_run).
    """

    n_traj: int
    n_steps: int
    base_seed: int
    filters: dict
    signals: dict
    assignments: dict
    fidelity_even: np.ndarray
    fidelity_odd: np.ndarray
    diagnostics: Diagnostics
    basis_index: np.ndarray

    @property
    def diagnostics_worst(self) -> dict:
        """Extremes of the health numbers over every trajectory."""
        return self.diagnostics.worst()

    def odd_fraction(self, kind: str = "matched") -> float:
        return float((self.assignments[kind] == "odd").mean())

    def assigned_fidelity(self, kind: str = "matched") -> np.ndarray:
        """Fidelity of each final state against its assigned class state."""
        return np.where(self.assignments[kind] == "even",
                        self.fidelity_even, self.fidelity_odd)

    def rms_fidelity(self, kind: str = "matched",
                     parity: str = None) -> float:
        """Root-mean-square assigned fidelity, optionally within a class."""
        fid = self.assigned_fidelity(kind)
        if parity is not None:
            mask = self.assignments[kind] == parity
            if not mask.any():
                return float("nan")
            fid = fid[mask]
        return float(np.sqrt(np.mean(fid ** 2)))

    def class_means(self, kind: str = "matched") -> tuple:
        s = self.signals[kind]
        mask = self.assignments[kind] == "even"
        return float(s[mask].mean()), float(s[~mask].mean())

    def separation(self, kind: str = "matched") -> float:
        """Distance of class means in units of the pooled deviation."""
        s = self.signals[kind]
        mask = self.assignments[kind] == "even"
        se, so = s[mask], s[~mask]
        if len(se) < 2 or len(so) < 2:
            raise ConfigError("separation needs two trajectories per class")
        pooled = ((len(se) - 1) * se.var(ddof=1)
                  + (len(so) - 1) * so.var(ddof=1)) / (len(se) + len(so) - 2)
        return abs(se.mean() - so.mean()) / math.sqrt(pooled)

    def histogram(self, kind: str = "matched") -> tuple:
        """(counts, bin_edges) of the signal distribution, "fd" bins."""
        return np.histogram(self.signals[kind], bins="fd")


def ensemble_run(config: model.ReadoutConfig, pulse: PulseSpec = None,
                 n_traj: int = 500, n_steps: int = 10_000,
                 base_seed: int = 0,
                 filter_kinds=("matched",)) -> EnsembleSummary:
    """Run a trajectory ensemble from |+>^n and classify every record.

    Without qubit decay the law of the record is a mixture over basis
    states (sme module docstring), so each record is drawn exactly in law:
    the stream keyed by (base_seed, index) first draws the basis state j
    with probability rho0_jj = 2**-n and then the noise dW' of
    dY = 2 sqrt(eta) Re c_j dt + dW' (sme.mixture_noise), and
    sme.sample_batch sums S = int c dY and builds the conditioned states.
    Valid only without qubit decay. Trajectories run in vectorized chunks
    of _CHUNK_SIZE and every row is reduced on its own, so results are
    independent of the chunk size, and (base_seed, index, n_steps) replays
    a trajectory. All requested filters are evaluated on the same records.
    """
    require_int("n_traj", n_traj, 1)
    rho0 = model.plus_density(config.n_qubits)
    psi_even = model.psi_plus(config.n_qubits)
    psi_odd = model.psi_minus(config.n_qubits)

    signals = {kind: np.empty(n_traj) for kind in filter_kinds}
    fidelity_even = np.empty(n_traj)
    fidelity_odd = np.empty(n_traj)
    basis_index = np.empty(n_traj, dtype=int)
    diagnostics = []
    table = build_table(config, pulse, n_steps)
    filters = {kind: build_filter(config, table, kind)
               for kind in filter_kinds}
    # a filter that cannot be oriented fails here, before any sampling
    orientations = {kind: filt.orientation for kind, filt in filters.items()}

    for start in range(0, n_traj, _CHUNK_SIZE):
        stop = min(start + _CHUNK_SIZE, n_traj)
        js, dws, dzs = mixture_noise(table, rho0, base_seed,
                                     range(start, stop))
        rho_final, records, diags = sample_batch(config, table, rho0, js,
                                                 dws, dzs)
        # a chunk's noise and records are freed once used, so the filters
        # and the next chunk's draw do not add to them
        del dws, dzs
        basis_index[start:stop] = js
        for kind, filt in filters.items():
            signals[kind][start:stop] = filt.integrate(records)
        fidelity_even[start:stop] = state_fidelity(rho_final, psi_even)
        fidelity_odd[start:stop] = state_fidelity(rho_final, psi_odd)
        diagnostics.append(diags)
        del records

    assignments = {kind: assign_parity(signals[kind] * orientations[kind])
                   for kind in filters}
    return EnsembleSummary(n_traj=n_traj, n_steps=n_steps,
                           base_seed=base_seed, filters=filters,
                           signals=signals, assignments=assignments,
                           fidelity_even=fidelity_even,
                           fidelity_odd=fidelity_odd,
                           diagnostics=Diagnostics.join(diagnostics),
                           basis_index=basis_index)


# Exact expansion of the squared output fidelity of the circuit-based
# ZZZ measurement with per-operation failure probability p; integer true
# division rounds each exact quotient correctly.
_GATE_POLY = (1.0, -128 / 15, 8834 / 225, -74884 / 675, 2130272 / 10125,
              -8409088 / 30375, 23153152 / 91125, -43695104 / 273375,
              53886976 / 820125, -39059456 / 2460375, 4194304 / 2460375)
GATE_P_MAX = 0.1


def gate_fidelity(p):
    """Output fidelity of the circuit-based parity measurement model.

    Valid for per-operation error rates p in [0, GATE_P_MAX]. Accepts
    scalars or arrays. The small-p series is 1 - (64/15) p + O(p^2).
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > GATE_P_MAX):
        raise ValueError(f"p must lie in [0, {GATE_P_MAX}]")
    acc = np.zeros_like(arr)
    for coeff in reversed(_GATE_POLY):
        acc = acc * arr + coeff
    out = np.sqrt(acc)
    if arr.ndim == 0:
        return float(out)
    return out


def solve_error_rate(fidelity: float) -> float:
    """Per-operation error rate p with gate_fidelity(p) = fidelity.

    gate_fidelity decreases on [0, GATE_P_MAX], so bisection brackets p
    down to two adjacent floats and returns the lower one.
    """
    floor = gate_fidelity(GATE_P_MAX)
    if not floor <= fidelity <= 1.0:
        raise ValueError(
            f"target fidelity must lie in [{floor:.6f}, 1]")
    if fidelity == 1.0:
        return 0.0
    lo, hi = 0.0, GATE_P_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if gate_fidelity(mid) > fidelity else (lo, mid)
    return lo
