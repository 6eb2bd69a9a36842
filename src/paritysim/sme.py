"""Reduced stochastic master equation for the conditioned register state.

The register density matrix rho (2**n x 2**n) evolves under

    d rho = [ (1/2) sum_l gamma_z,l D[sigma_z,l] rho
              - i sum_{k,l} chi_{k,l} P_k(t) o [sigma_z,l, rho] ] dt
            + sqrt(eta) M[c(t)] rho dW,

where P_k(t) has entries conj(alpha_{k,j}) alpha_{k,i}, "o" is the
elementwise (Hadamard) product, c(t) = exp(-i phi) sum_k sqrt(kappa_k)
alpha_{k,i} |i><i| is the diagonal measurement operator, and
M[c] rho = c rho + rho c^dag - tr(c rho + rho c^dag) rho is the standard
homodyne measurement superoperator (Wiseman & Milburn, "Quantum
Measurement and Control", ch. 4). The homodyne record is

    dY = sqrt(eta) m dt + dW,    m = tr((c + c^dag) rho).

Every operator in the generator is diagonal in the computational basis:
the drift is rho -> K(t) o rho with K_ii = 0 (DriftOperator), and c is
diagonal. The linear (unnormalized) equation
d rho~ = K o rho~ dt + sqrt(eta) (c rho~ + rho~ c^dag) dY therefore solves
elementwise (Ito, (dY)^2 = dt; Jacobs & Steck, Contemp. Phys. 47, 279
(2006)):

    rho~_ij(t) = rho0_ij exp(E_ij(t) + sqrt(eta) (S_i(t) + conj S_j(t))),
    E_ij(t) = int_0^t [K_ij - (eta/2) (c_i + conj c_j)^2] ds,
    S_i(t) = int_0^t c_i dY,

and rho = rho~ / tr rho~. Only the populations feed the record,

    m = 2 sum_i p_i Re c_i,
    p = softmax(log p0 + 2 sqrt(eta) Re S - 2 eta R(t)),
    R_i(t) = int_0^t (Re c_i)^2 ds,

so simulate_batch steps the d complex exponents S of each trajectory,

    dS = sqrt(eta) c(t) m(S, t) dt + c(t) dW,

and builds the d x d state only at checkpoints. This holds only in the
paper's regime, where qubit decay is neglected: a T1 term would couple
the populations and break the elementwise solution.

In the same regime the law of the record is a mixture over basis states
(the linear-trajectory picture of Jacobs & Knight, PRA 57, 2301 (1998);
Wiseman & Milburn, ch. 4). Under the measure on which Y is a Wiener
process, tr rho~(T) = sum_j rho0_jj L_j(Y), where L_j is the Girsanov
likelihood of a Wiener process with drift 2 sqrt(eta) Re c_j, because
K_jj = 0 and E_jj = -2 eta int (Re c_j)^2. So a record is drawn exactly
in law by drawing the basis state j with probability rho0_jj and setting

    dY = r dt + dW',    r = 2 sqrt(eta) Re c_j,

and every S_i = int c_i dY is then a sum with no time loop: with c and r
linear over a step, a step adds c0_i w0 + c1_i w1 with the node weights

    w0 = dZ/dt + dt (r0/3 + r1/6),    w1 = dW - dZ/dt + dt (r1/3 + r0/6).

sample_batch builds the states from such records; mixture_noise draws
them, on the stream of trajectory_rng(seed, index), j first and then the
increments of wiener_increments, so (seed, index, n_steps) replays a
trajectory.
analysis.ensemble_run samples this way. simulate_trajectory, and the
`paritysim trajectory` command with it, still steps S, so trajectory
index I of an ensemble is not simulate_trajectory(trajectory_index=I).
Both solvers are valid only without qubit decay.

Because rho is assembled from this formula, three diagnostics are
rounding-level by construction: trace_dev (the state is divided by its
trace), herm_dev (E is Hermitian and S_i + conj S_j is the transpose-
conjugate of S_j + conj S_i) and diag_drift (K_ii = 0). The state is a
congruence D rho_det D^dag of the noise-free factor rho0 o exp(E) with
D = diag(exp(sqrt(eta) S)), so it is positive as far as that factor is;
only the quadrature of E limits min_eig.

S is stepped with the explicit strong order-1.5 scheme for a single
scalar Wiener process from Kloeden & Platen, "Numerical Solution of
Stochastic Differential Equations" (1992), sec. 11.2, made non-autonomous
by augmenting the state with time (all supporting values are evaluated at
t + dt). The noise of S is additive, so with c linear over a step the
scheme's noise terms reduce exactly to c1 dW - (c1 - c0) dZ / dt.
simulate_batch writes the step in that reduced form (no diffusion calls)
and adds the remaining terms in step_sde's order, so its results equal
step_sde's bit for bit. The two supporting values of a step share one
softmax evaluation, side by side in one buffer, and the steps up to each
checkpoint run in chunks of at most _BLOCK_STEPS steps.

Both solvers check their input in _batch_inputs and hand S at each
checkpoint to one function, _solve, which integrates E, keeps S at the
checkpoints of one block only and builds the block's states and
diagnostics together, at most _BLOCK_MATRICES states at a time, so memory
stays bounded. Every sum over the entries of a state adds in an order
fixed by the state alone, not by its memory layout, so the blocks change
no bit, and neither does the batch a trajectory runs in. The required
pair of correlated Gaussians per step is

    dW = z1 sqrt(dt),   dZ = (dt^{3/2}/2) (z1 + z2/sqrt(3)),

with E[dZ^2] = dt^3/3 and E[dW dZ] = dt^2/2.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .cavity import AmplitudeTable, integrate_amplitudes, time_grid
from .errors import ConfigError, require_int
from .pulse import PulseSpec, default_pulse

#: diagnostic ceilings for a healthy trajectory at desk resolution
#: (10^4 steps); used by the CLI to decide exit status.
DIAGNOSTIC_THRESHOLDS = {
    "trace_dev": 1e-10,
    "herm_dev": 1e-12,
    "min_eig": -1e-8,
    "purity_excess": 1e-8,
    "diag_drift": 1e-10,
}

#: steps per block of exponent increments in _running_sum, and at most
#: per chunk of tabulated node values and noise factors in the stepper
_BLOCK_STEPS = 256

#: checkpoint states (trajectories x checkpoints) built per stacked call
#: in _solve; bounds the memory of one block
_BLOCK_MATRICES = 256


class DriftOperator:
    """Precomputed elementwise form of the deterministic generator.

    For diagonal sigma_z,l and diagonal P_k the whole drift acts as
    rho -> K(t) o rho with

        K_ij(t) = -sum_l gamma_z,l [bit_l(i) != bit_l(j)]
                  - i sum_k W_k,ij conj(alpha_k,j(t)) alpha_k,i(t),

    where W_k,ij = s_{k,i} - s_{k,j} is the difference of signed chi sums.
    K is taken in the frame rotating with the register part of the
    dispersive Hamiltonian; K_ii = 0, so the drift leaves the populations
    alone. Setting chi = 0 switches the measurement coupling off.
    """

    def __init__(self, config: model.ReadoutConfig):
        bits = model.bit_table(config.n_qubits)          # (d, n)
        differ = bits[:, None, :] != bits[None, :, :]     # (d, d, n)
        self.gamma_mat = -(differ * config.gamma_z).sum(axis=2)
        s = model.signed_chi_sums(config)                 # (m, d)
        self.w = s[:, :, None] - s[:, None, :]            # (m, d, d)

    def coefficient(self, alpha_t: np.ndarray) -> np.ndarray:
        """K(t) for mode amplitudes alpha_t of shape (..., n_modes, 2**n).

        Leading axes of alpha_t (a block of time nodes) carry over to the
        result, which has shape (..., 2**n, 2**n).
        """
        p = alpha_t[..., :, :, None] * alpha_t.conj()[..., :, None, :]
        return self.gamma_mat - 1j * (self.w * p).sum(axis=-3)


def measurement_diag(config: model.ReadoutConfig, output_t: np.ndarray) -> np.ndarray:
    """Diagonal of c(t) from the output-line amplitudes of every basis state."""
    return np.exp(-1j * config.phi) * output_t


def diffusion(rho: np.ndarray, c: np.ndarray, sqrt_eta: float) -> np.ndarray:
    """Measurement superoperator sqrt(eta) M[c] rho for diagonal c.

    Broadcasts over a leading batch axis of rho. The dense d x d form:
    simulate_batch steps the exponents S instead, and the dense stepper
    built from this function is its test reference.
    """
    cmat = c[:, None] + c.conj()[None, :]
    diag = np.einsum("...ii->...i", rho).real
    m = (diag * (2.0 * c.real)).sum(axis=-1)
    return sqrt_eta * (cmat * rho - np.asarray(m)[..., None, None] * rho)


def expected_photocurrent(rho: np.ndarray, c: np.ndarray, eta: float):
    """Mean homodyne record sqrt(eta) tr((c + c^dag) rho); batch-aware.

    The dense form of the mean that simulate_batch computes from S.
    """
    diag = np.einsum("...ii->...i", rho).real
    m = (diag * (2.0 * c.real)).sum(axis=-1)
    return math.sqrt(eta) * m


def wiener_increments(rng: np.random.Generator, n_steps: int, dt: float):
    """Correlated pair (dW, dZ) for every step of one trajectory."""
    z = rng.standard_normal((2, n_steps))
    dw = z[0] * math.sqrt(dt)
    dz = 0.5 * dt ** 1.5 * (z[0] + z[1] / math.sqrt(3.0))
    return dw, dz


def trajectory_rng(base_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for trajectory `index`.

    Streams are spawned from the base seed, so any subset of trajectory
    indices can be regenerated without drawing the others.
    """
    return np.random.default_rng(np.random.SeedSequence(
        entropy=require_int("seed", base_seed, 0),
        spawn_key=(require_int("index", index, 0),)))


def trajectory_noise(table: AmplitudeTable, base_seed: int, indices):
    """(dws, dzs) on the table's grid for the trajectories `indices`.

    Row r of dws and dzs holds the increments of trajectory indices[r],
    drawn from its own stream of base_seed, so a row does not depend on
    which other indices are drawn with it.
    """
    n_steps = len(table.times) - 1
    dws = np.empty((len(indices), n_steps))
    dzs = np.empty((len(indices), n_steps))
    for row, index in enumerate(indices):
        dws[row], dzs[row] = wiener_increments(
            trajectory_rng(base_seed, index), n_steps, table.dt)
    return dws, dzs


def mixture_noise(table: AmplitudeTable, rho0, base_seed: int, indices):
    """(js, dws, dzs) of the mixture records `indices`, for sample_batch.

    For each index, the stream trajectory_rng(base_seed, index) first
    draws the basis state j with probability rho0_jj (one uniform draw,
    inverted through the cumulative populations) and then the increments
    of wiener_increments. Row r belongs to indices[r] alone, so
    (base_seed, index, n_steps) replays a trajectory. rho0 is one
    (d, d) state shared by every index; ConfigError if it is not.
    """
    rho0 = np.asarray(rho0)
    dim = table.output.shape[-1]
    if rho0.shape != (dim, dim):
        raise ConfigError(f"rho0 has shape {rho0.shape}; need ({dim}, {dim})")
    cdf = np.cumsum(_populations(rho0))
    cdf /= cdf[-1]
    n_steps = len(table.times) - 1
    js = np.empty(len(indices), dtype=int)
    dws = np.empty((len(indices), n_steps))
    dzs = np.empty((len(indices), n_steps))
    for row, index in enumerate(indices):
        rng = trajectory_rng(base_seed, index)
        # side="right" never lands on a state of zero population
        js[row] = np.searchsorted(cdf, rng.random(), side="right")
        dws[row], dzs[row] = wiener_increments(rng, n_steps, table.dt)
    return js, dws, dzs


def step_sde(y, t, dt, drift_fn, diffusion_fn, dw, dz):
    """One explicit strong order-1.5 step for scalar-noise SDEs.

    The general form of the scheme simulate_batch writes out for additive
    noise. Its users are the strong-order acceptance check on geometric
    Brownian motion (criterion 4), the dense d x d test reference and the
    S-loop reference in tests/test_sme.py, and the benchmark tracer, which
    wraps it by name.

    Parameters
    ----------
    y : ndarray
        Current state (any shape; complex allowed). May carry a leading
        batch axis if dw/dz broadcast against it.
    t, dt : float
        Step start and size. drift_fn/diffusion_fn are called at t and
        t + dt only.
    drift_fn, diffusion_fn : callable(y, t) -> ndarray
    dw, dz : float or ndarray
        Wiener increment and the correlated double integral
        int_t^{t+dt} (W(s) - W(t)) ds for this step.

    Notes
    -----
    The scheme is Kloeden & Platen eq. (11.2.1) with supporting values

        Y_pm  = y + a dt +- b sqrt(dt),
        Phi_pm = Y_+ +- b(Y_+) sqrt(dt),

    which attains strong order 1.5 for smooth scalar-noise systems.
    """
    sq = math.sqrt(dt)
    t1 = t + dt
    a0 = drift_fn(y, t)
    b0 = diffusion_fn(y, t)
    base = y + a0 * dt
    yp = base + b0 * sq
    ym = base - b0 * sq
    ap = drift_fn(yp, t1)
    am = drift_fn(ym, t1)
    bp = diffusion_fn(yp, t1)
    bm = diffusion_fn(ym, t1)
    bpp = diffusion_fn(yp + bp * sq, t1)
    bpm = diffusion_fn(yp - bp * sq, t1)
    return (y + 0.25 * (ap + 2.0 * a0 + am) * dt + b0 * dw
            + (ap - am) * (dz / (2.0 * sq))
            + (bp - bm) * ((dw * dw - dt) / (4.0 * sq))
            + (bp - 2.0 * b0 + bm) * ((dw * dt - dz) / (2.0 * dt))
            + (bpp - bpm - bp + bm) * ((dw * dw / 3.0 - dt) * dw / (4.0 * dt)))


@dataclass
class Diagnostics:
    """Per-checkpoint health numbers for a batch of trajectories.

    All arrays have shape (n_batch, n_checkpoints).
    """

    times: np.ndarray
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    purity: np.ndarray
    diag_drift: np.ndarray

    @classmethod
    def join(cls, parts) -> "Diagnostics":
        """Stack batches checkpointed at the same times along the batch axis."""
        return cls(times=parts[0].times, **{
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls) if f.name != "times"})

    def worst(self) -> dict:
        """Aggregate extremes over the whole batch and all checkpoints."""
        return {
            "trace_dev": float(self.trace_dev.max()),
            "herm_dev": float(self.herm_dev.max()),
            "min_eig": float(self.min_eig.min()),
            "purity_excess": float(self.purity.max() - 1.0),
            "diag_drift": float(self.diag_drift.max()),
        }

    def violations(self) -> list:
        """Names of diagnostics that breached DIAGNOSTIC_THRESHOLDS."""
        limits = DIAGNOSTIC_THRESHOLDS
        w = self.worst()
        bad = [name for name in ("trace_dev", "herm_dev", "purity_excess",
                                 "diag_drift") if w[name] > limits[name]]
        if w["min_eig"] < limits["min_eig"]:
            bad.append("min_eig")
        return bad


@dataclass
class TrajectoryResult:
    """One conditioned trajectory and the amplitude table it ran on.

    photocurrent[n] is the record sample for the step starting at
    table.times[n]; it has length len(table.times) - 1.
    """

    table: AmplitudeTable
    photocurrent: np.ndarray
    rho_final: np.ndarray
    diagnostics: Diagnostics
    base_seed: int
    trajectory_index: int


@dataclass
class DeterministicResult:
    """Unconditional (ensemble-average) evolution on a uniform grid."""

    times: np.ndarray
    rhos: np.ndarray            # (n_t, d, d)


def _purity(rho) -> np.ndarray:
    """sum_ij |rho_ij|^2, the terms added one after another in row order.

    The running sum is taken in place, so it needs no buffer of its own,
    and only its last row outlives the call.
    """
    squares = np.moveaxis(
        (np.abs(rho) ** 2).reshape(rho.shape[:-2] + (-1,)), -1, 0)
    return np.add.accumulate(squares, axis=0, out=squares)[-1].copy()


def _checkpoint(rho, k0, t) -> dict:
    """Health values of one checkpoint, keyed by Diagnostics field.

    The trace and the purity add their terms one after another, in row
    order, so a state rounds the same way whatever its memory layout and
    whatever batch it is in.
    """
    rho_dag = rho.conj().swapaxes(-1, -2)
    return {
        "times": t,
        "trace_dev": np.abs(_column_sum(np.moveaxis(
            np.einsum("...ii->...i", rho), -1, 0)) - 1.0),
        "herm_dev": np.abs(rho - rho_dag).max(axis=(-1, -2)),
        "min_eig": np.linalg.eigvalsh(0.5 * (rho + rho_dag))[..., 0],
        "purity": _purity(rho),
        "diag_drift": np.abs(np.einsum("...ii->...i", k0)
                             * np.einsum("...ii->...i", rho)).max(-1),
    }


def _running_sum(increments, n_steps: int, nodes, shape) -> np.ndarray:
    """E_n = sum_{m < n} increments of a d x d exponent, at the given nodes.

    increments(start, stop) returns the terms of steps start..stop-1, with
    shape (stop - start,) + shape. They are requested _BLOCK_STEPS steps at
    a time to bound the temporaries, and the running sum is carried across
    blocks in order, so the result does not depend on the block size. Only
    the values at the sorted node indices `nodes` are kept.
    """
    nodes = np.asarray(nodes)
    out = np.zeros((len(nodes),) + shape, dtype=complex)
    carry = np.zeros(shape, dtype=complex)
    for start in range(0, n_steps, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n_steps)
        step = increments(start, stop)
        step[0] += carry
        step = np.cumsum(step, axis=0)
        lo, hi = np.searchsorted(nodes, (start, stop), side="right")
        out[lo:hi] = step[nodes[lo:hi] - start - 1]
        carry = step[-1]
    return out


def _column_sum(x) -> np.ndarray:
    """Sum over axis 0, added row by row for any number of columns.

    x.sum(axis=0) switches to pairwise summation when x has one column,
    which would make a lone trajectory round differently from the same
    trajectory in a batch. Any trailing shape is allowed: simulate_batch
    sums p and p w of every column at once from a (d, 2, columns) array.
    The result is a view into the running sum of every row.
    """
    return np.add.accumulate(x, axis=0)[-1]


def _conditioned_state(rho0, e, s, sqrt_eta: float) -> np.ndarray:
    """rho0 o exp(E + sqrt(eta) (S_i + conj S_j)), normalized to unit trace.

    The largest diagonal exponent is subtracted first, so the populations
    are at most 1 before the normalization.
    """
    x = e + sqrt_eta * (s[..., :, None] + s.conj()[..., None, :])
    x -= np.einsum("...ii->...i", x).real.max(axis=-1)[..., None, None]
    rho = rho0 * np.exp(x)
    # a contiguous copy, so each row is summed the same way in any batch
    trace = np.einsum("...ii->...i", rho).real.copy().sum(axis=-1)
    return rho / trace[..., None, None]


def _populations(rho0) -> np.ndarray:
    """Diagonal of rho0 (any leading axes), if it can be a state's.

    Raises ConfigError if a population is negative or undefined, or the
    trace is off 1 by more than DIAGNOSTIC_THRESHOLDS["trace_dev"].
    """
    populations = np.einsum("...ii->...i", rho0).real
    if not np.all(populations >= 0.0):
        raise ConfigError("rho0 has a negative or undefined population")
    if not np.all(np.abs(populations.sum(axis=-1) - 1.0)
                  <= DIAGNOSTIC_THRESHOLDS["trace_dev"]):
        raise ConfigError("rho0 must have unit trace")
    return populations


def _batch_inputs(config, table, rho0, dws, dzs, checkpoint_every):
    """(rho0, dws, dzs, nodes) of a batch solver, checked as simulate_batch
    documents.

    rho0 is broadcast to (n_batch, d, d); nodes are the sorted checkpoint
    step indices, 0 and n_steps included.
    """
    n_steps = len(table.times) - 1
    dim = config.dim
    if table.alpha.shape[1:] != (config.n_modes, dim):
        raise ConfigError(
            f"amplitude table holds {table.alpha.shape[1:]} (modes, basis "
            f"states) per node; the config needs ({config.n_modes}, {dim})")
    dws, dzs, rho0 = np.asarray(dws), np.asarray(dzs), np.asarray(rho0)
    if dws.ndim != 2 or dzs.shape != dws.shape:
        raise ConfigError(
            f"noise arrays dws {dws.shape} and dzs {dzs.shape} must both "
            "have shape (n_batch, n_steps)")
    if dws.shape[1] != n_steps:
        raise ConfigError(f"noise arrays have {dws.shape[1]} steps; the "
                          f"amplitude grid has {n_steps}")
    for name, noise in (("dws", dws), ("dzs", dzs)):
        # min and max propagate NaN and need no temporary of the array's size
        if noise.size and not (np.isfinite(noise.min())
                               and np.isfinite(noise.max())):
            raise ConfigError(f"noise array {name} holds a value that is not "
                              "finite")
    n_batch = len(dws)
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (dim, dim):
        raise ConfigError(f"rho0 has shape {rho0.shape}; need ({dim}, {dim}) "
                          f"or (n_batch, {dim}, {dim})")
    if rho0.ndim == 3 and len(rho0) != n_batch:
        raise ConfigError(f"rho0 holds {len(rho0)} states for {n_batch} "
                          "noise rows")
    _populations(rho0)
    checkpoint_every = require_int("checkpoint_every", checkpoint_every, 0) \
        or max(1, n_steps // 100)
    nodes = np.unique(np.append(
        np.arange(0, n_steps + 1, checkpoint_every), n_steps))
    return np.broadcast_to(rho0, (n_batch, dim, dim)), dws, dzs, nodes


def _solve(config, table, c_all, rho0, nodes, s_at_nodes):
    """(rho_final, diagnostics) from S = int c dY at every checkpoint node.

    s_at_nodes yields S of the batch as (d, n_batch) at nodes[0],
    nodes[1], ... in turn. E is integrated by the trapezoid rule on the
    table's nodes first; it does not depend on S. The checkpoints are
    taken in blocks of up to _BLOCK_MATRICES states (trajectories x
    checkpoints): S is kept at the checkpoints of one block only, and the
    block's states and diagnostics are built at once, so the memory used
    stays bounded however long the grid. The states and diagnostics sum
    their entries in an order that does not depend on the layout, so the
    blocks change no bit.
    """
    n_steps = len(table.times) - 1
    dim, n_batch = config.dim, len(rho0)
    dt, eta = table.dt, config.eta
    sqrt_eta = math.sqrt(eta)
    c_col = c_all[:, :, None]
    drift_op = DriftOperator(config)

    def exponent_steps(start, stop):
        c = c_col[start:stop + 1]
        f = (drift_op.coefficient(table.alpha[start:stop + 1])
             - (0.5 * eta) * (c + c.conj().swapaxes(-1, -2)) ** 2)
        return (0.5 * dt) * (f[:-1] + f[1:])

    exponents = _running_sum(exponent_steps, n_steps, nodes, (dim, dim))
    # S at the nodes of one block, as (node, d, n_batch)
    per_block = max(1, _BLOCK_MATRICES // max(1, n_batch))
    s_block = np.empty((per_block, dim, n_batch), dtype=complex)
    checks = []
    for first in range(0, len(nodes), per_block):
        block = nodes[first:first + per_block]
        for k in range(len(block)):
            s_block[k] = s = next(s_at_nodes)
        # the block's states are dropped once their diagnostics are taken,
        # so they do not stay allocated while the next block is solved
        checks.append(_checkpoint(
            _conditioned_state(
                rho0, exponents[first:first + len(block), None],
                s_block[:len(block)].swapaxes(1, 2), sqrt_eta),
            drift_op.coefficient(table.alpha[block])[:, None],
            table.times[block]))

    diagnostics = Diagnostics(**{
        f.name: np.concatenate([check[f.name].T for check in checks], axis=-1)
        for f in fields(Diagnostics)})
    # the final state alone, the last checkpoint's state bit for bit.
    # Keeping the last block's states instead would hold each block across
    # the next; that made the high mode of a 150 x 10^4 ensemble's bimodal
    # peak RSS (about 100 MB against 94, by glibc heap layout) the usual one
    rho = _conditioned_state(rho0, exponents[-1], s.T, sqrt_eta)
    return rho, diagnostics


def _stepped_exponents(config, table, c_all, rho0, dws, dzs, nodes,
                       records):
    """S at each node in turn, stepped by the reduced order-1.5 scheme.

    Writes records[:, n] for every step it takes. The steps up to each
    node are taken in chunks of at most _BLOCK_STEPS, whose node values
    and noise factors are tabulated per chunk, so the tables stay bounded
    however sparse the nodes.
    """
    dim, n_batch = config.dim, len(dws)
    dt, eta = table.dt, config.eta
    sqrt_dt, sqrt_eta = math.sqrt(dt), math.sqrt(eta)
    # S is held as (d, n_batch), so each reduction over the basis runs
    # across the batch at once and each column on its own
    c_col = c_all[:, :, None]
    with np.errstate(divide="ignore"):
        log_p0 = np.log(np.einsum("...ii->i...", rho0).real)

    def scaled_mean(re_s, log_p, w, r, x, pw, out=None):
        """sqrt(eta) m = sum_i p_i w_i for exponents with real part re_s.

        w = 2 sqrt(eta) Re c and r = 2 eta R, both at the same node; x and
        pw are scratch of shapes (d, columns) and (d, 2, columns), so one
        _column_sum gives both sums of every column.
        """
        np.multiply(re_s, 2.0 * sqrt_eta, out=x)
        x += log_p
        x -= r
        x -= np.maximum.reduce(x, axis=0)
        p = np.exp(x, out=pw[:, 0])
        np.multiply(p, w, out=pw[:, 1])
        sums = _column_sum(pw)
        return np.divide(sums[1], sums[0], out=out)

    s = np.zeros((dim, n_batch), dtype=complex)
    x1, pw1 = np.empty((dim, n_batch)), np.empty((dim, 2, n_batch))
    # the supporting values base +- c0 sqrt(dt) side by side in columns b
    # and n_batch + b, evaluated in one softmax
    pair = np.empty((dim, 2 * n_batch), dtype=complex)
    x2, pw2 = np.empty((dim, 2 * n_batch)), np.empty((dim, 2, 2 * n_batch))
    log_p0_pair = np.tile(log_p0, 2)
    r_carry = np.zeros((dim, 1))
    start = 0
    for node in nodes:
        for lo in range(start, node, _BLOCK_STEPS):
            hi = min(lo + _BLOCK_STEPS, node)
            # node values of w = 2 sqrt(eta) Re c and r = 2 eta R
            # (trapezoid rule, summed step by step from the carry) and the
            # step factors
            c = c_col[lo:hi + 1]
            re_c = c.real
            w = (2.0 * sqrt_eta) * re_c
            sq = re_c ** 2
            r = np.cumsum(np.concatenate(
                [r_carry[None], (eta * dt) * (sq[:-1] + sq[1:])]), axis=0)
            r_carry = r[-1]
            c_sqrt_dt = c[:-1] * sqrt_dt
            curvature = c[1:] - 2.0 * c[:-1] + c[1:]
            dw, dz = dws[:, lo:hi].T, dzs[:, lo:hi].T
            dz_factor = np.divide(dz, 2.0 * sqrt_dt, order="C")
            dwz_factor = np.divide(dw * dt - dz, 2.0 * dt, order="C")
            dw = np.ascontiguousarray(dw)
            means = np.empty((hi - lo, n_batch))
            for j in range(hi - lo):
                m0 = scaled_mean(s.real, log_p0, w[j], r[j], x1, pw1,
                                 means[j])
                # step_sde with the diffusion c0 at t and c1 at t + dt, its
                # terms that vanish for noise independent of S left out, in
                # its order
                c0, c1 = c[j], c[j + 1]
                a0 = m0 * c0
                base = s + a0 * dt
                np.add(base, c_sqrt_dt[j], out=pair[:, :n_batch])
                np.subtract(base, c_sqrt_dt[j], out=pair[:, n_batch:])
                a_pair = scaled_mean(pair.real, log_p0_pair, w[j + 1],
                                     r[j + 1], x2, pw2) * c1
                ap, am = a_pair[:, :n_batch], a_pair[:, n_batch:]
                s = (s + 0.25 * (ap + 2.0 * a0 + am) * dt + c0 * dw[j]
                     + (ap - am) * dz_factor[j]
                     + curvature[j] * dwz_factor[j])
            records[:, lo:hi] = means.T + dws[:, lo:hi] / dt
        start = node
        yield s


def simulate_batch(config: model.ReadoutConfig, table: AmplitudeTable,
                   rho0: np.ndarray, dws: np.ndarray, dzs: np.ndarray,
                   checkpoint_every: int = 0):
    """Advance a batch of register states through the full record grid.

    Steps the exponents S = int c dY of every trajectory (reduced step_sde)
    and builds the state from the elementwise solution (module docstring)
    at every checkpoint, with E integrated by the trapezoid rule on the
    table's nodes; checkpoints are built in blocks of up to
    _BLOCK_MATRICES states and S is stepped in chunks of at most
    _BLOCK_STEPS steps, so the memory used stays bounded however long the
    grid. The two supporting values of a step share one softmax
    evaluation. Valid only without qubit decay, which would couple the
    populations. Every row is reduced on its own, so a trajectory's results
    do not depend on the batch it runs in, nor on the block sizes.

    Parameters
    ----------
    rho0 : ndarray, shape (n_batch, d, d), or (d, d) shared by the batch
    dws, dzs : ndarray, shape (n_batch, n_steps)
        Per-trajectory noise increments; n_steps must equal
        len(table.times) - 1.

    Returns
    -------
    (rho_final, records, diagnostics)
        records has shape (n_batch, n_steps); records[:, n] is the
        left-point sample sqrt(eta) m(t_n) + dW_n / dt.

    Raises
    ------
    ConfigError
        If the table is not one of (n_modes, d) amplitudes per node (a
        table of that shape built from other physics goes undetected), the
        noise arrays or rho0 do not have the shapes above, a noise value
        is not finite, rho0 has a negative population or a trace off 1
        by more than DIAGNOSTIC_THRESHOLDS["trace_dev"], or
        checkpoint_every is not an integer or is negative (0 means the
        default cadence, max(1, n_steps // 100) steps).
    """
    rho0, dws, dzs, nodes = _batch_inputs(config, table, rho0, dws, dzs,
                                          checkpoint_every)
    c_all = measurement_diag(config, table.output)
    records = np.empty(dws.shape, dtype=float)
    rho, diagnostics = _solve(
        config, table, c_all, rho0, nodes,
        _stepped_exponents(config, table, c_all, rho0, dws, dzs, nodes,
                           records))
    return rho, records, diagnostics


def _sampled_exponents(config, table, c_all, js, dws, dzs, nodes, records):
    """S at each node in turn, summed exactly from the mixture record.

    With dY = r dt + dW', r = 2 sqrt(eta) Re c_j, and c and r linear over a
    step from node 0 to node 1,

        int c_i dY = c0_i w0 + c1_i w1,
        w0 = dZ/dt + dt (r0/3 + r1/6),
        w1 = dW - dZ/dt + dt (r1/3 + r0/6),

    so S is one real weight per grid node times c at that node, summed
    over each checkpoint interval as two real products, on Re c and on
    Im c. Writes records[:, n] = r(t_n) + dW_n / dt for every step.
    """
    dt = table.dt
    sqrt_eta = math.sqrt(config.eta)
    re_c, im_c = c_all.real, c_all.imag
    s_re, s_im = np.zeros((2, len(dws), config.dim))
    lo = 0
    for hi in nodes:
        r = (2.0 * sqrt_eta) * re_c[lo:hi + 1, js].T
        dw = dws[:, lo:hi]
        dz = dzs[:, lo:hi] / dt
        weights = np.zeros(r.shape)
        weights[:, :-1] = dz + dt * (r[:, :-1] / 3.0 + r[:, 1:] / 6.0)
        weights[:, 1:] += dw - dz + dt * (r[:, 1:] / 3.0 + r[:, :-1] / 6.0)
        # einsum without optimize reduces each row on its own (a BLAS
        # product rounds a lone row differently from a batched one)
        s_re += np.einsum("bl,li->bi", weights, re_c[lo:hi + 1])
        s_im += np.einsum("bl,li->bi", weights, im_c[lo:hi + 1])
        records[:, lo:hi] = r[:, :-1] + dw / dt
        lo = hi
        yield (s_re + 1j * s_im).T


def sample_batch(config: model.ReadoutConfig, table: AmplitudeTable,
                 rho0: np.ndarray, js, dws: np.ndarray, dzs: np.ndarray):
    """Conditioned states of records drawn exactly in law from the mixture.

    Without qubit decay the law of the record is a mixture over basis
    states (module docstring): row b is the record of basis state js[b],
    dY = 2 sqrt(eta) Re c_j dt + dW', with dW' given by (dws[b], dzs[b]).
    S = int c dY is then a sum with no time loop, one real weight per grid
    node times c at that node (exact for c linear over a step), and the
    states, E and the diagnostics are built as in simulate_batch, by the
    same code. Draw js, dws and dzs with mixture_noise. Checkpoints fall
    at simulate_batch's default cadence, and S is summed over each
    checkpoint interval at once. Every row is reduced on its own, so a
    trajectory's results do not depend on the batch it runs in, nor on
    _BLOCK_MATRICES or _BLOCK_STEPS.

    Parameters
    ----------
    rho0 : ndarray, shape (n_batch, d, d), or (d, d) shared by the batch
    js : integer array, shape (n_batch,)
        Basis state of each record; rho0 must populate it.
    dws, dzs : ndarray, shape (n_batch, n_steps)
        As for simulate_batch.

    Returns
    -------
    (rho_final, records, diagnostics)
        As simulate_batch; records[:, n] = 2 sqrt(eta) Re c_j(t_n)
        + dW_n / dt.

    Raises
    ------
    ConfigError
        Where simulate_batch raises on the table, the noise arrays or
        rho0, and if js is not one integer per noise row, indexes no basis
        state, or indexes one that rho0 does not populate.
    """
    rho0, dws, dzs, nodes = _batch_inputs(config, table, rho0, dws, dzs, 0)
    js = np.asarray(js)
    if js.shape != (len(dws),) or js.dtype.kind not in "iu":
        raise ConfigError(f"js has shape {js.shape} and dtype {js.dtype}; "
                          "need one integer per noise row")
    if js.size and not (js.min() >= 0 and js.max() < config.dim):
        raise ConfigError(f"js holds a basis index outside 0..{config.dim - 1}")
    if not np.all(rho0[np.arange(len(js)), js, js].real > 0.0):
        raise ConfigError("js holds a basis state that rho0 does not "
                          "populate")
    c_all = measurement_diag(config, table.output)
    records = np.empty(dws.shape, dtype=float)
    rho, diagnostics = _solve(
        config, table, c_all, rho0, nodes,
        _sampled_exponents(config, table, c_all, js, dws, dzs, nodes,
                           records))
    return rho, records, diagnostics


def build_table(config: model.ReadoutConfig, pulse,
                n_steps: int) -> AmplitudeTable:
    """Amplitude table on n_steps uniform steps over the pulse window."""
    if pulse is None:
        pulse = default_pulse()
    return integrate_amplitudes(config, pulse, time_grid(pulse.tau, n_steps))


def simulate_trajectory(config: model.ReadoutConfig, pulse: PulseSpec = None,
                        n_steps: int = 10_000, base_seed: int = 0,
                        trajectory_index: int = 0) -> TrajectoryResult:
    """Integrate one conditioned trajectory from |+>^n.

    The Wiener stream is derived from (base_seed, trajectory_index), so a
    trajectory is reproduced exactly regardless of which other indices are
    simulated around it.
    """
    table = build_table(config, pulse, n_steps)
    dws, dzs = trajectory_noise(table, base_seed, [trajectory_index])
    rho0 = model.plus_density(config.n_qubits)
    rho, records, diagnostics = simulate_batch(config, table, rho0[None],
                                               dws, dzs)
    return TrajectoryResult(table=table, photocurrent=records[0],
                            rho_final=rho[0], diagnostics=diagnostics,
                            base_seed=base_seed,
                            trajectory_index=trajectory_index)


def simulate_deterministic(config: model.ReadoutConfig, pulse=None,
                           n_steps: int = 4000,
                           rho0: np.ndarray = None) -> DeterministicResult:
    """Unconditional master equation, solved elementwise.

    The drift is rho -> K(t) o rho with every K entry a scalar function of
    time, so the exact solution is rho(t) = rho0 o exp(int_0^t K), in the
    rotating frame of DriftOperator. The exponent is integrated by
    composite Simpson over each step,

        E_{n+1} = E_n + (h/6) (K(t_n) + 4 K(t_n + h/2) + K(t_n + h)),

    so the amplitude table carries the step midpoints: it is built on
    2 n_steps steps. The running sum is _running_sum's, so the result does
    not depend on the block size. For intrinsic dephasing alone, pass a
    config with chi = 0.
    """
    table = build_table(config, pulse, 2 * require_int("n_steps", n_steps, 1))
    if rho0 is None:
        rho0 = model.plus_density(config.n_qubits)

    drift_op = DriftOperator(config)
    h = 2.0 * table.dt

    def simpson_steps(start, stop):
        k = drift_op.coefficient(table.alpha[2 * start:2 * stop + 1])
        return (h / 6.0) * (k[:-1:2] + 4.0 * k[1::2] + k[2::2])

    # rhos holds the exponents E_n until the final in-place exp
    rhos = _running_sum(simpson_steps, n_steps, np.arange(n_steps + 1),
                        rho0.shape)
    np.exp(rhos, out=rhos)
    rhos *= rho0
    return DeterministicResult(times=table.times[::2], rhos=rhos)
