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
from .sme import Diagnostics, IntervalLaw, build_table, nominal_record
# ensemble_run no longer steps S, but perfbench's tracer test patches this
# lookup site by name, so the name stays importable from here
from .sme import simulate_batch  # noqa: F401

FILTER_KINDS = ("matched", "matched-mean", "uniform")

#: numbers drawn and held together by ensemble_run: each trajectory of a
#: chunk counts its normals and its d x d final state (at least one
#: trajectory per chunk)
_CHUNK_NUMBERS = 2_000_000

#: relative floor under which a filter normalization counts as zero
_FILTER_TOL = 1e-12


@dataclass
class FilterFunction:
    """A filter sampled on the record grid, with integral 1.

    nominal_even is the integrated signal the filter produces on the
    noiseless even-parity record; its sign orients classification.
    record_weights (a, b, u) write the values as a j_even + b j_odd + u on
    the nominal records of the parity references (nominal_record), so
    the signal of a record is a linear combination of its three sums
    sum g_n dY_n, g = (j_even, j_odd, 1) (ensemble_run).
    """

    kind: str
    times: np.ndarray
    values: np.ndarray
    dt: float
    nominal_even: float
    record_weights: np.ndarray

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
        weights = (0.0, 0.0, 1.0 / span)
    else:
        shape = j_even if kind == "matched" \
            else j_even - nominal_record(config, table, "odd")
        norm = shape.sum() * dt
        floor = _FILTER_TOL * max(1.0, float(np.abs(shape).max()) * span)
        if abs(norm) < floor:
            raise DegenerateFilterError(
                f"{kind} filter normalization integral is numerically zero")
        values = shape / norm
        weights = (1.0 / norm, 0.0 if kind == "matched" else -1.0 / norm,
                   0.0)
    nominal_even = float(values @ j_even * dt)
    return FilterFunction(kind=kind, times=times, values=values, dt=dt,
                          nominal_even=nominal_even,
                          record_weights=np.array(weights))


def assign_parity(signal):
    """Sign rule on oriented integrated signal(s): positive means even.

    A scalar gives one label, an array an array of labels. A non-finite
    signal raises ConfigError; a zero one is even, warned once per call.
    """
    signal = np.asarray(signal, dtype=float)
    if not np.isfinite(signal).all():
        raise ConfigError("integrated signal is not finite")
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
    drew the record of trajectory b (ensemble_run). A class statistic is
    None, with no warning, where its class is too small to define it.
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
                     parity: str = None) -> float | None:
        """RMS assigned fidelity, within a class if given; None if empty."""
        fid = self.assigned_fidelity(kind)
        if parity is not None:
            fid = fid[self.assignments[kind] == model.require_parity(parity)]
            if not fid.size:
                return None
        return float(np.sqrt(np.mean(fid ** 2)))

    def _classes(self, kind: str) -> tuple:
        """Raw signals of the records assigned even, and of those odd."""
        even = self.assignments[kind] == "even"
        return self.signals[kind][even], self.signals[kind][~even]

    def class_means(self, kind: str = "matched") -> tuple | None:
        """(even, odd) mean raw signals; None if either class is empty."""
        se, so = self._classes(kind)
        if not (se.size and so.size):
            return None
        return float(se.mean()), float(so.mean())

    def separation(self, kind: str = "matched") -> float | None:
        """Distance of class means in units of the pooled deviation; None
        unless both classes have two members."""
        se, so = self._classes(kind)
        if min(se.size, so.size) < 2:
            return None
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
    states (sme module docstring), so each trajectory is drawn exactly in
    law, from per-interval sufficient statistics rather than per-step
    noise (sme.IntervalLaw, built once per ensemble): the stream keyed by
    (base_seed, index) first draws the basis state j with probability
    rho0_jj = 2**-n and then one Gaussian vector per checkpoint interval,
    which holds the increments of S = int c dY and the record sums
    sum g_n dY_n for g = (j_even, j_odd, 1). The conditioned states are
    built from S at the checkpoints, and each filter's signal is the
    combination of the record sums its record_weights give, so no record
    is built and no filter is integrated. Valid only without qubit decay.
    Trajectories run in vectorized chunks of at most _CHUNK_NUMBERS
    normals and final-state entries, and every row is reduced on its own,
    so results are independent of the chunk size, and (base_seed, index,
    n_steps) replays a trajectory: sme.mixture_noise gives its per-step
    noise, and sme.sample_batch on that reproduces it to rounding. All
    requested filters are evaluated on the same records.
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
    law = IntervalLaw(config, table)
    chunk = max(1, _CHUNK_NUMBERS // (law.n_normals + config.dim ** 2))

    for start in range(0, n_traj, chunk):
        stop = min(start + chunk, n_traj)
        js, rho_final, record_sums, diags = law.sample(
            rho0, base_seed, range(start, stop))
        basis_index[start:stop] = js
        for kind, filt in filters.items():
            signals[kind][start:stop] = (
                record_sums * filt.record_weights).sum(axis=-1)
        fidelity_even[start:stop] = state_fidelity(rho_final, psi_even)
        fidelity_odd[start:stop] = state_fidelity(rho_final, psi_odd)
        diagnostics.append(diags)

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
        raise ConfigError(f"p must lie in [0, {GATE_P_MAX}]")
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
        raise ConfigError(
            f"target fidelity must lie in [{floor:.6f}, 1]")
    if fidelity == 1.0:
        return 0.0
    lo, hi = 0.0, GATE_P_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if gate_fidelity(mid) > fidelity else (lo, mid)
    return lo
