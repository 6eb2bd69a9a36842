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

so simulate_batch steps the complex exponents S of each trajectory,

    dS = sqrt(eta) c(t) m(S, t) dt + c(t) dW,

one per class of identical states (below), and builds the d x d state
only at the end. This holds only in the paper's regime, where qubit
decay is neglected: a T1 term would couple the populations and break the
elementwise solution.

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

sample_batch builds the states from such records, given their per-step
noise. Nothing past S and a few record sums is read between checkpoints,
so an ensemble needs no per-step noise at all: over a checkpoint
interval, the increments of Re S and Im S and the record sums
sum g_n dY_n (g the noiseless records of the two parity references, and
1) form one Gaussian vector v_k = mean_kj + A_k z of the interval's 2 L
step normals z, whose covariance A_k A_k^T does not depend on j
(IntervalLaw). IntervalLaw.sample draws j and then v_k = mean_kj
+ R_k^T xi_k, with A_k^T = Q_k R_k and xi_k standard normal of
min(D, 2 L) entries (D <= 2 d + 3), on the stream of
trajectory_rng(seed, index), so (seed, index, n_steps) replays a
trajectory from O(checkpoints) normals instead of O(steps).
analysis.ensemble_run samples this way.
mixture_noise gives the per-step noise of the same trajectories, exactly
standard normal with A_k z_k = R_k^T xi_k, so sample_batch on it
reproduces an ensemble trajectory to rounding. simulate_trajectory, and
the `paritysim trajectory` command with it, still steps S, so trajectory
index I of an ensemble is not simulate_trajectory(trajectory_index=I).
Both solvers are valid only without qubit decay.

E has one integrator, _node_exponents, and no solver builds a d x d K
per node. E_ij(t) = t gamma_ij + F(t)[class(i), class(j)]: gamma is
constant, and F, u x u for u coupling classes (AmplitudeTable.classes),
integrates rank-one products of the class vectors (alpha_0, ...,
alpha_{m-1}, c), all whole sub-blocks of a block of steps in one product.
F at a node is the running sum of those integrals from step 0, plus one
partial integral from the node's sub-anchor. It depends on the node
alone, so neither the checkpoint cadence nor the batch changes a bit of
it, and it is exactly Hermitian (each integral is G + G^H). The
conditioned solvers take it at their checkpoints by the trapezoid rule;
simulate_deterministic, whose integrand is K alone, at every step by
Simpson's rule on a table that carries the step midpoints. Both expand
it to E (_class_exponents); markov.witness_scan reads its (even, odd)
block off F, so it forms no d x d array.

Because rho is assembled from this formula, three diagnostics are
rounding-level at every checkpoint by construction: trace_dev (the state
is divided by its trace), herm_dev (E is Hermitian and S_i + conj S_j is
the transpose-conjugate of S_j + conj S_i) and diag_drift (K_ii = 0); so
are they and the purity measured on the final state alone. The state is a
congruence D A D^dag / tr of the noise-free factor A = rho0 o exp(E) with
D = diag(exp(sqrt(eta) S)), so it is positive as far as A is, and only
the quadrature of E limits min_eig. By Sylvester's law of inertia and
Ostrowski's theorem one eigvalsh per checkpoint, of a unit-diagonal
rescaling of A shared by every trajectory from the same rho0, bounds the
smallest eigenvalue of every trajectory's state from below, with its
exact sign, in O(d) work per trajectory (_solve): min_eig certifies
positivity at every checkpoint without building the states.

S is stepped with the explicit strong order-1.5 scheme for a single
scalar Wiener process from Kloeden & Platen, "Numerical Solution of
Stochastic Differential Equations" (1992), sec. 11.2, made non-autonomous
by augmenting the state with time (all supporting values are evaluated at
t + dt). The noise of S is additive, so with c linear over a step the
scheme's noise terms reduce exactly to c1 dW - (c1 - c0) dZ / dt.
simulate_batch writes the step in that reduced form (no diffusion calls)
and adds the remaining terms in step_sde's order.

It does not take the steps one at a time. The recurrence is solved a
window of steps at a time, so that a window holds at most _WINDOW_ENTRIES
numbers per buffer (stepped rows x trajectories x steps, at least one
step), by an exact fixed-point sweep, a waveform relaxation (Lelarasmee,
Ruehli & Sangiovanni-Vincentelli, IEEE Trans. CAD 1, 131 (1982)). The
sweep's count of calls is fixed, so the window is as long as the bound
allows: on the default design from |+> (4 rows) 1024 steps for one
trajectory and 102 for a batch of 10. Only Re S feeds the means, and
every product in the step has one real factor, so the sweep runs on
real arrays: from the current iterate of Re S it evaluates the means of
every step of the window at once and rebuilds Re S from the window's
first node, which is exact. The sweep is causal: a step is exact when
the node it starts from is. So where the sweep reproduces the iterate on
the first k nodes, the first k + 1 steps are exact by induction, bit for
bit the values of the one-step-at-a-time loop; they are committed, at
least one per sweep, and the window slides on. S itself is built once
per commit from the committed means, in step_sde's term order, so
simulate_batch's results equal step_sde's bit for bit at any batch and
any checkpoint cadence.

Each row of the sweep is a class of states: those of one coupling
class of the amplitude table (AmplitudeTable.classes, which share one
column of c) whose log p0 is the same in every trajectory of the batch.
The same operations on the same operands give the states of a class the
same S and the same softmax terms at every node, and the maximum over
the states is exact under any grouping; the two sums over the basis add
the class values state by state, in the order of the states. So a class
row stands for its states bit for bit, and the solver does at most the
work of one row per state. From |+>, the 8 states of the default design
fall into 4 classes and the 64 states of six qubits coupled alike to two
modes into 7; distinct couplings or populations give every state a
class of its own.

Both solvers check their input in _batch_inputs and hand S at each
checkpoint to one function, _solve, which splits the work in two. The
noise-free half (_Certificate) is built first, once per design, grid and
set of distinct rho0: from E at the checkpoints (_node_exponents) it
keeps diag E at every node, the positivity certificate per node and
state, and E and diag K at the last node, d numbers per node and state
and no d x d array per node. The per-row half reads S in passes of
checkpoints, zipped strictly with the nodes, bounds min_eig from the
populations a whole pass at once, and builds the final states alone, so
memory stays bounded. IntervalLaw keeps its certificate for every chunk
of an ensemble. Every sum over the basis or over the entries of a state
adds in an order fixed by the trajectory alone, not by the memory
layout, so the blocks and passes change no bit, and neither does the
batch a trajectory runs in. The required pair of correlated Gaussians
per step is

    dW = z1 sqrt(dt),   dZ = (dt^{3/2}/2) (z1 + z2/sqrt(3)),

with E[dZ^2] = dt^3/3 and E[dW dZ] = dt^2/2.
"""

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .cavity import AmplitudeTable, integrate_amplitudes, time_grid
from .errors import ConfigError, require_int
from .model import distinct_rows
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

#: steps per block of _node_exponents (rounded down to whole sub-blocks,
#: at least one)
_BLOCK_STEPS = 256

#: stepped rows x trajectories x steps of one window of the fixed-point
#: solve of S in _stepped_exponents (at least one step); bounds the memory
#: of a sweep, and each sweep costs about 40 numpy calls whatever it
#: holds, so the window is as long as this allows
_WINDOW_ENTRIES = 4096

#: steps per sub-block of the conditioned solvers' E (_TRAPEZOID)
_SUB_STEPS = 16

#: quadrature tables of _node_exponents: row o holds the node weights, in
#: units of dt, of an integral over o steps, and a sub-block spans
#: len(table) - 1 steps. The trapezoid rule for the conditioned solvers,
#: and Simpson's rule over one two-step panel for simulate_deterministic,
#: whose nodes are all panel ends (row 1 is never read)
_TRAPEZOID = (np.tri(_SUB_STEPS + 1)
              - 0.5 * (np.eye(_SUB_STEPS + 1) + np.eye(1, _SUB_STEPS + 1)))
_SIMPSON = np.array([[0.0, 0.0, 0.0], [np.nan] * 3, [1.0, 4.0, 1.0]]) / 3.0

#: numbers in the stacked A^T of one run of IntervalLaw (at least one
#: interval's); bounds the memory of building the law
_BLOCK_ENTRIES = 1 << 20

#: coherence matrices per stacked eigvalsh call of _Certificate (distinct
#: states x checkpoints, at least one checkpoint); bounds the E it holds
_BLOCK_MATRICES = 256

#: d x checkpoints x rows of the populations one pass of _solve holds (at
#: least one checkpoint); bounds the memory of a pass
_PASS_ENTRIES = 1 << 15


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
        result, which has shape (..., 2**n, 2**n). No solver calls it: they
        integrate E from rank-one products (_node_exponents). It gives K
        itself, for markov.canonical_rates, for the step-by-step quadrature
        references in the tests and for the benchmark tracer.
        """
        p = alpha_t[..., :, :, None] * alpha_t.conj()[..., :, None, :]
        return self.gamma_mat - 1j * (self.w * p).sum(axis=-3)

    def diagonal(self, alpha_t: np.ndarray) -> np.ndarray:
        """The diagonal of coefficient(alpha_t), shape (..., 2**n), alone.

        The same terms in the same order, so it equals the diagonal of the
        full K bit for bit: 0 wherever alpha_t is finite, NaN where an
        amplitude is not.
        """
        p = alpha_t * alpha_t.conj()
        return (np.einsum("ii->i", self.gamma_mat)
                - 1j * (np.einsum("kii->ki", self.w) * p).sum(axis=-2))


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
    return _increments(rng.standard_normal((2, n_steps)), dt)


def _increments(z, dt: float):
    """(dW, dZ) from the standard normals z = (z1, z2), shape (2, ...)."""
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


def mixture_noise(config: model.ReadoutConfig, table: AmplitudeTable, rho0,
                  base_seed: int, indices):
    """(js, dws, dzs): the per-step noise of ensemble trajectories `indices`.

    Row r replays trajectory indices[r] of IntervalLaw(config, table,
    rho0).sample (analysis.ensemble_run) step by step: the same basis
    state j and normals xi_k from trajectory_rng(base_seed, index), and
    on each checkpoint interval k the 2 L step normals

        z_k = Q_k xi_k + zeta_k - Q_k (Q_k^T zeta_k),

    with zeta_k standard normal from a second stream spawned from the
    trajectory's own and Q_k from the reduced QR factorization of the
    same A_k^T. Q_k has orthonormal columns, so z is exactly i.i.d.
    standard normal, and A_k z_k = R_k^T xi_k; dws and dzs are taken from
    z as in wiener_increments. sample_batch on (js, dws, dzs) therefore
    reproduces the ensemble trajectory to rounding. Row r belongs to
    indices[r] alone, so (base_seed, index, n_steps) replays a trajectory.

    Raises ConfigError where IntervalLaw raises, on the table or on rho0,
    which is one (d, d) state shared by every index.
    """
    law = IntervalLaw(config, table, rho0, replay=True)
    js, xi = law.normals(base_seed, indices)
    n_batch, n_steps = len(js), len(table.times) - 1
    zeta = np.empty((n_batch, 2 * n_steps))
    for row, index in enumerate(indices):
        trajectory_rng(base_seed, index).spawn(1)[0].standard_normal(
            out=zeta[row])
    z = np.empty((2, n_batch, n_steps))
    used = 0
    for k0, k1, factor, q in law.runs:
        (n_k, m), lo, hi = factor.shape[:2], law.nodes[k0], law.nodes[k1]
        xi_k = xi[:, used:used + n_k * m].reshape(n_batch, n_k, m)
        used += n_k * m
        zeta_k = zeta[:, 2 * lo:2 * hi].reshape(n_batch, n_k, -1)
        z_k = zeta_k + np.einsum("kij,bkj->bki", q, xi_k - np.einsum(
            "kij,bki->bkj", q, zeta_k))
        # each interval holds its z1 and then its z2
        z[:, :, lo:hi] = z_k.reshape(n_batch, n_k, 2, -1).transpose(
            2, 0, 1, 3).reshape(2, n_batch, -1)
    dws, dzs = _increments(z, table.dt)
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
    """Health numbers of a batch of trajectories.

    times has shape (n_checkpoints,). min_eig, shape (n_batch,
    n_checkpoints), is a lower bound on the smallest eigenvalue of each
    trajectory's state at each checkpoint, with that eigenvalue's sign
    (sme._solve). trace_dev, herm_dev, purity and diag_drift, shape
    (n_batch,), are measured on the final states; the module docstring
    gives why they are rounding-level at every checkpoint.
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


def _final_checks(rho, k_diag) -> dict:
    """Health values of final states, keyed by Diagnostics field.

    k_diag is the diagonal of the drift coefficient K at the final node
    (DriftOperator.diagonal). The trace and the purity add their terms
    one after another, in row order (_column_sum), so a state rounds the
    same way whatever its memory layout and whatever batch it is in.
    """
    return {
        "trace_dev": np.abs(_column_sum(np.moveaxis(
            np.einsum("...ii->...i", rho), -1, 0)) - 1.0),
        "herm_dev": np.abs(rho - rho.conj().swapaxes(-1, -2)).max(
            axis=(-1, -2)),
        "purity": _column_sum(np.moveaxis(
            np.abs(rho.reshape(rho.shape[:-2] + (-1,))) ** 2, -1, 0)),
        "diag_drift": np.abs(k_diag * np.einsum("...ii->...i", rho)).max(-1),
    }


def _node_exponents(config, table, c_all, nodes, weights):
    """F, the coupling part of E, on the coupling classes at sorted nodes.

    E = int_0^t [K - (eta/2) (c_i + conj c_j)^2] is t gamma_mat + F, and F
    depends on states i and j only through their coupling classes
    (AmplitudeTable.classes), so it is u x u for the table's u columns
    (_class_exponents expands it). With W_k,ij = s_k,i - s_k,j
    (DriftOperator), F's integrand is P + P^H with

        P = -i sum_k (s_k o alpha_k) alpha_k^H - (eta/2) (c c^H + c^2 1^T),

    so the quadrature of the table `weights` (_TRAPEZOID or _SIMPSON) over
    nodes a..b is G + G^H, exactly Hermitian, G = sum_n w_n sum_r a_{r,n}
    b_{r,n}^H with the pairs (a_r, b_r) (-i s_k o alpha_k, alpha_k) for
    each mode, (-(eta/2) c, c) and (-(eta/2) c^2, 1); c_all None drops the
    last two, leaving K alone. F at node n is the in-order running sum of
    the integrals over the whole sub-blocks of len(weights) - 1 steps
    from step 0, plus the integral from its sub-anchor a to n, row n - a
    of `weights` over len(weights) gathered nodes, those past n repeating
    n with weight 0. A block of at most _BLOCK_STEPS steps (whole
    sub-blocks, at least one) takes its whole sub-blocks in one product
    over windows of its pairs. So F at a node depends on the node alone,
    not on the other nodes asked for nor on the block size. Yields F at
    the nodes a block at a time, as (nodes in the block, u, u), in the
    table's column order; a block of no node yields nothing.
    """
    n_steps = len(table.times) - 1
    half_eta = 0.5 * config.eta
    u = table.alpha.shape[-1]
    # each column's signed chi sums: the states of a class share theirs
    minus_i_s = np.empty((config.n_modes, u), dtype=complex)
    minus_i_s[:, table.classes] = -1j * model.signed_chi_sums(config)
    sub = len(weights) - 1
    weights = table.dt * weights
    block = max(1, _BLOCK_STEPS // sub) * sub
    nodes = np.asarray(nodes)
    carry = np.zeros((u, u), dtype=complex)
    # whole sub-blocks' node weights (symmetric: a shared node has one)
    node_weights = weights[sub, np.arange(block + 1) % sub, None, None]
    first = 0
    for lo in range(0, n_steps, block):
        hi = min(lo + block, n_steps)
        last = np.searchsorted(nodes, hi, side="right")
        ends = nodes[first:last]
        first = last
        anchor = (ends - lo) // sub
        rise = ends - lo - anchor * sub
        partial = rise > 0
        # the pairs (a_r, conj b_r) at nodes lo..hi, as (node, r, u)
        alpha = table.alpha[lo:hi + 1]
        pair_a, pair_b = [minus_i_s * alpha], [alpha.conj()]
        if c_all is not None:
            c = c_all[lo:hi + 1, None]
            pair_a += [-half_eta * c, -half_eta * c ** 2]
            pair_b += [c.conj(), np.ones(c.shape)]
        a = np.concatenate(pair_a, axis=1)
        b = np.concatenate(pair_b, axis=1)
        n_whole, n_pairs, u = (hi - lo) // sub, *a.shape[1:]
        # whole sub-blocks: one product over views of sub + 1 nodes each,
        # sharing end nodes (np.ndarray costs a sixth of as_strided)
        view = dict(shape=(n_whole, (sub + 1) * n_pairs, u), dtype=complex,
                    offset=0, strides=(sub * a.strides[0],) + a.strides[1:])
        e = (np.ndarray(buffer=a, **view).swapaxes(-1, -2)
             @ np.ndarray(buffer=b * node_weights[:hi - lo + 1], **view))
        if partial.any():
            rise = rise[partial]
            gather = (sub * anchor[partial, None]
                      + np.minimum(np.arange(sub + 1), rise[:, None]))
            flat = (len(rise), (sub + 1) * n_pairs, u)
            e = np.concatenate([e, a[gather].reshape(flat).swapaxes(-1, -2)
                                @ (b[gather] * weights[rise, :, None, None])
                                .reshape(flat)])
        e += e.conj().swapaxes(-1, -2)
        # F at the sub-anchors lo, lo + sub, ..., summed in order
        at_anchor = np.concatenate([carry[None], e[:n_whole]])
        np.cumsum(at_anchor, axis=0, out=at_anchor)
        carry = at_anchor[-1]
        out = at_anchor[anchor]
        out[partial] += e[n_whole:]
        if len(out):
            yield out


def _class_exponents(config, table, times, f) -> np.ndarray:
    """E = t gamma_mat + F[class(i), class(j)], (len(f), d, d), from F at
    nodes of those times (_node_exponents): exactly Hermitian, and at a
    node a function of its F and its time alone."""
    cols = table.classes
    e = f.reshape(len(f), -1)[:, f.shape[-1] * cols[:, None] + cols]
    e.real += np.multiply.outer(times, DriftOperator(config).gamma_mat)
    return e


def _column_sum(x, rows=None) -> np.ndarray:
    """Sum over axis 0, the rows added one after another.

    x.sum(axis=0) switches to pairwise summation when x has one column,
    which would make a lone trajectory round differently from the same
    trajectory in a batch. Any trailing shape is allowed. One add per row
    over every column at once: _final_checks sums each state's trace and
    purity with it, the S solve and _solve the softmax over the basis;
    an add.accumulate along the rows costs two to eight times as much.
    rows, a sequence of row indices that may repeat, adds x[rows[0]],
    x[rows[1]], ... in that order instead: the sum of x[rows] without
    forming it. The S solve holds one row per class of states and adds
    them in the order of the basis states.
    """
    if rows is None:
        rows = range(len(x))
    total = x[rows[0]].copy()
    for row in rows[1:]:
        total += x[row]
    return total


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


def _square(rho0, dim: int) -> np.ndarray:
    """rho0 as an array, if it is one (dim, dim) matrix; ConfigError
    otherwise."""
    rho0 = np.asarray(rho0)
    if rho0.shape != (dim, dim):
        raise ConfigError(f"rho0 has shape {rho0.shape}; need ({dim}, {dim})")
    return rho0


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


def nominal_record(config: model.ReadoutConfig, table: AmplitudeTable,
                   parity: str = "even") -> np.ndarray:
    """Noiseless photocurrent of a parity reference bitstring.

    Uses the lowest-index register basis state of the requested parity and
    samples on the step grid (left nodes), matching the convention of the
    stochastic record.
    """
    idx = model.parity_indices(config.n_qubits, parity)[0]
    c = measurement_diag(config, table.output[:-1, table.classes[idx]])
    return math.sqrt(config.eta) * 2.0 * c.real


def _check_table(config, table):
    """ConfigError unless the table holds the amplitudes of n_modes modes
    and the outputs on the same u columns at each of its times, and
    classes names one of them for each of the d basis states, every
    column at least once, with the states of one column sharing their
    signed chi sums: the solvers take the step count from times and read
    alpha and c of a state in its class's column."""
    n_t, n_columns = len(table.times), np.shape(table.alpha)[-1]
    if (np.shape(table.alpha) != (n_t, config.n_modes, n_columns)
            or np.shape(table.output) != (n_t, n_columns)):
        raise ConfigError(
            f"amplitude table holds alpha {np.shape(table.alpha)} and output "
            f"{np.shape(table.output)} on {n_t} times; need a node per time "
            f"of {config.n_modes} modes and an output per column")
    classes = np.asarray(table.classes)
    if (classes.shape != (config.dim,) or classes.dtype.kind not in "iu"
            or classes.min() < 0 or classes.max() >= n_columns
            or len(np.unique(classes)) != n_columns):
        raise ConfigError(
            f"amplitude table classes have shape {classes.shape} and dtype "
            f"{classes.dtype}; need one integer per basis state naming each "
            f"of the {n_columns} columns")
    chi_sums = model.signed_chi_sums(config)
    by_column = np.empty((config.n_modes, n_columns))
    by_column[:, classes] = chi_sums
    if not np.array_equal(by_column[:, classes], chi_sums):
        raise ConfigError("amplitude table classes merge basis states whose "
                          "signed chi sums differ")


def _checkpoints(n_steps: int, checkpoint_every=0) -> np.ndarray:
    """Sorted checkpoint step indices, 0 and n_steps included.

    checkpoint_every 0 means the default cadence, max(1, n_steps // 100).
    """
    checkpoint_every = require_int("checkpoint_every", checkpoint_every, 0) \
        or max(1, n_steps // 100)
    return np.unique(np.append(
        np.arange(0, n_steps + 1, checkpoint_every), n_steps))


def _batch_inputs(config, table, rho0, dws, dzs, checkpoint_every):
    """(rho0, dws, dzs, nodes) of a batch solver, checked as simulate_batch
    documents.

    rho0 is broadcast to (n_batch, d, d); nodes are the sorted checkpoint
    step indices, 0 and n_steps included.
    """
    n_steps = len(table.times) - 1
    dim = config.dim
    _check_table(config, table)
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
    if not n_batch:
        raise ConfigError("noise arrays hold no rows; need at least one "
                          "trajectory")
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (dim, dim):
        raise ConfigError(f"rho0 has shape {rho0.shape}; need ({dim}, {dim}) "
                          f"or (n_batch, {dim}, {dim})")
    if rho0.ndim == 3 and len(rho0) != n_batch:
        raise ConfigError(f"rho0 holds {len(rho0)} states for {n_batch} "
                          "noise rows")
    _populations(rho0)
    return (np.broadcast_to(rho0, (n_batch, dim, dim)), dws, dzs,
            _checkpoints(n_steps, checkpoint_every))


class _Certificate:
    """The noise-free half of _solve: one design, grid and set of states.

    Built once from (config, table, c_all, nodes, states), it streams F
    at the checkpoint nodes (_node_exponents) once, expands it to E
    (_class_exponents) one eigvalsh call at a time and keeps no d x d
    array per node:

        diag_e   (nodes, d)  the real diagonal E_n,ii at each node,
        lam      (g, nodes)  lambda_n of each of the g states at each node,
        e_final  (d, d)      E at the last node,
        k_diag   (d,)        DriftOperator.diagonal at the last node,

    with each state's log p0 and the mask of its nonzero populations
    (p0 = diag rho0, with 1 in place of a zero population). lambda_n is
    the smallest eigenvalue of the unit-diagonal coherence matrix

        C_n = (rho0 / sqrt(p0 p0^T)) o exp(E_n - (E_n,ii + E_n,jj) / 2),

    from stacked eigvalsh calls of up to _BLOCK_MATRICES matrices (g times
    the nodes of one call, at least one node); eigvalsh takes each matrix
    on its own, so the stacking changes no bit. C_n needs the whole E, as
    exp(t gamma) does not factor through the classes. Nothing here depends
    on the noise, so one certificate serves every batch that starts from
    these states on this grid: IntervalLaw keeps one per law.
    """

    def __init__(self, config, table, c_all, nodes, states):
        self.sqrt_eta = math.sqrt(config.eta)
        self.times = table.times[nodes]
        p0 = np.einsum("gii->gi", states).real
        self.shown = p0 > 0.0
        p0 = np.where(self.shown, p0, 1.0)
        coherence = states / np.sqrt(p0[:, :, None] * p0[:, None, :])
        self.log_p0 = np.log(p0)
        self.diag_e = np.empty((len(nodes), config.dim))
        self.lam = np.empty((len(states), len(nodes)))
        per_call = max(1, _BLOCK_MATRICES // len(states))
        exponents = itertools.chain.from_iterable(_node_exponents(
            config, table, c_all, nodes, _TRAPEZOID))
        for lo in range(0, len(nodes), per_call):
            f = np.stack(tuple(itertools.islice(exponents, per_call)))
            e = _class_exponents(config, table, self.times[lo:lo + len(f)], f)
            self.e_final = e[-1].copy()
            diag_e = self.diag_e[lo:lo + len(e)]
            diag_e[:] = np.einsum("kii->ki", e).real
            # in place: at 6 qubits a block of E takes 16 MB
            e -= 0.5 * (diag_e[:, :, None] + diag_e[:, None, :])
            self.lam[:, lo:lo + len(e)] = np.linalg.eigvalsh(
                coherence[:, None] * np.exp(e, out=e))[..., 0]
        self.k_diag = DriftOperator(config).diagonal(
            table.alpha[nodes[-1]][:, table.classes])

    def solve(self, rho0, group, s_at_nodes):
        """(rho_final, diagnostics) of the rows rho0 from S at the nodes.

        Row b starts from rho0[b], the certificate's state group[b]. The
        per-row pass of _solve: s_at_nodes yields S of the batch as (d,
        n_batch) at the certificate's nodes in turn, each an array of its
        own that it leaves as yielded. It is zipped strictly with the
        nodes, so an S too many or too few raises ValueError, and read in
        passes of up to _PASS_ENTRIES d x nodes x n_batch numbers (at
        least one node), each reduced at once.
        """
        n_batch = len(rho0)
        n_nodes, dim = self.diag_e.shape
        # basis-major, (d, 1, n_batch): a state of zero population is left
        # out of each row's shift and trace
        in_trace = self.shown.T[:, None, group]
        per_pass = min(n_nodes, max(1, _PASS_ENTRIES // (dim * n_batch)))
        # log p0 + diag E + 2 sqrt(eta) Re S of one pass, (d, nodes,
        # n_batch); each S is dropped once its real part is copied here
        x_pass = np.empty((dim, per_pass, n_batch))
        bounds = []
        for node, s in zip(range(n_nodes), s_at_nodes, strict=True):
            lo = node - node % per_pass
            np.multiply(s.real, 2.0 * self.sqrt_eta, out=x_pass[:, node - lo])
            if node - lo < per_pass - 1 and node < n_nodes - 1:
                continue
            at = slice(lo, node + 1)
            x = x_pass[:, :node + 1 - lo]
            x += (self.log_p0[:, None] + self.diag_e[at]).T[:, :, group]
            theta = np.exp(
                x - np.maximum.reduce(np.where(in_trace, x, -np.inf), axis=0))
            theta /= _column_sum(np.where(in_trace, theta, 0.0))
            lam = self.lam[:, at].T[:, group]
            bounds.append(lam * np.where(lam < 0.0,
                                         np.maximum.reduce(theta, axis=0),
                                         np.minimum.reduce(theta, axis=0)))
        rho = _conditioned_state(rho0, self.e_final, s.T, self.sqrt_eta)
        return rho, Diagnostics(times=self.times,
                                min_eig=np.concatenate(bounds).T,
                                **_final_checks(rho, self.k_diag))


def _solve(config, table, c_all, rho0, nodes, s_at_nodes):
    """(rho_final, diagnostics) from S = int c dY at every checkpoint node.

    s_at_nodes yields S of the batch as (d, n_batch) at nodes[0],
    nodes[1], ... in turn. The work is split in two. The noise-free half,
    a _Certificate of the distinct rho0 (rows grouped by their bytes),
    takes E at every node first (_node_exponents, which does not depend on
    S, nor its value at a node on the other nodes, so the cadence changes
    no bit of it) and reduces it to the smallest eigenvalue lambda_n of
    one unit-diagonal coherence matrix C_n per node and distinct rho0,
    shared by the rows that start from it. The per-row half
    (_Certificate.solve) then reads S in passes of checkpoints, zipped
    strictly with the nodes. No checkpoint state is built. The state is
    rho = Q C_n Q^dag / tr with Q diagonal and
    theta_i = |Q_i|^2 / tr = exp(log p0_i + E_n,ii + 2 sqrt(eta) Re S_i)
    / tr, which is the population p_i where p0_i > 0. Ostrowski's theorem
    (Horn & Johnson, Matrix Analysis, Thm 4.5.9) puts lambda_min(rho) at
    theta lambda_n with theta in [min theta_i, max theta_i], so

        min_eig = lambda_n max theta   if lambda_n < 0,
                  lambda_n min theta   otherwise,

    is a lower bound with the sign of lambda_min(rho) (Sylvester's law of
    inertia), from O(d) work per row and node, for a whole pass at once.
    The certificate holds d numbers per node and state, and only the
    final S outlives its pass, so the memory used stays bounded however
    long the grid. The final state alone is built, and trace_dev,
    herm_dev, purity and diag_drift are taken on it. Every reduction over
    the basis adds or compares in an order fixed by the row alone, so
    neither the blocks, the passes nor the batch change a bit.
    """
    first, group = distinct_rows(rho0)
    return _Certificate(config, table, c_all, nodes, rho0[first]).solve(
        rho0, group, s_at_nodes)


def _step_nodes(first, a0, a_pair, c0, curvature, dw, dz_factor,
                dwz_factor, dt):
    """Exponents at the nodes of consecutive reduced steps, from first.

    Basis-major: first is (d, columns), and every step array broadcasts
    to (d, steps, columns), a_pair to twice the columns. Step j adds
    (((T0 + T1) + T2) + T3) in step_sde's order, with T0 from
    a0 = sqrt(eta) m c0 and the supporting drifts a_pair = [ap, am] side
    by side; one add.accumulate over the interleaved terms [first, T0, T1,
    T2, T3, T0, ...] adds every term in that order. Real or complex alike.
    Returns (d, steps + 1, columns), node 0 being first.
    """
    n_batch = first.shape[-1]
    ap, am = a_pair[..., :n_batch], a_pair[..., n_batch:]
    terms = np.empty((len(first), 4 * a0.shape[1] + 1, n_batch),
                     dtype=np.result_type(first, a0))
    terms[:, 0] = first
    np.multiply(0.25 * (ap + 2.0 * a0 + am), dt, out=terms[:, 1::4])
    np.multiply(c0, dw, out=terms[:, 2::4])
    np.multiply(ap - am, dz_factor, out=terms[:, 3::4])
    np.multiply(curvature, dwz_factor, out=terms[:, 4::4])
    return np.add.accumulate(terms, axis=1, out=terms)[:, ::4]


def _stepped_exponents(config, table, c_all, rho0, dws, dzs, nodes,
                       records):
    """S at each node in turn, stepped by the reduced order-1.5 scheme.

    Writes records[:, n] for every step. The stepped rows are classes of
    basis states, not the states: states of one coupling class of the
    table (table.classes, which share one column of c) whose log p0 is
    the same in every batch row. Their S, softmax arguments and weights
    are then the same bits at every node, so one row per class stands for
    all of them, and S is yielded as S[classes], (d, n_batch), a new array
    each time. The two sums over the basis add the class values state by
    state, in the order of the states (_column_sum with rows), and the
    maximum is exact under any grouping, so the means are those of d rows
    bit for bit. Two coupling classes whose outputs happen to be equal
    bit for bit are stepped as two rows, which is still exact.

    The recurrence is solved a window of steps at a time by a fixed-point
    (Picard) sweep over the whole window. Only Re S feeds the means, so
    the sweep runs on real arrays: from the current iterate of Re S at
    every node of the window it evaluates every step's mean and supporting
    means at once, and rebuilds Re S from the window's exact first node in
    the loop's term order (_step_nodes). The sweep is causal, so where its
    values equal the iterate's on the first k nodes (NaN counted equal to
    the same NaN), the steps up to node k + 1 started from exact values
    and are exact; they are committed, at least one per sweep. The window
    then slides to the first uncommitted step: steps already in it keep
    their last iterate, and new ones are guessed with the last committed
    mean held fixed. Complex S of the committed steps is built once from
    their means, in the same term order, so every output is the one-step-
    at-a-time loop's bit for bit. The arrays are class-major, (classes,
    steps, columns), so each softmax reduces over whole contiguous blocks;
    node values of c, read in each row's column of the table, and noise
    factors are tabulated two windows at a time.
    """
    n_steps = len(table.times) - 1
    n_batch = len(dws)
    dt, eta = table.dt, config.eta
    sqrt_dt, sqrt_eta = math.sqrt(dt), math.sqrt(eta)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(np.einsum("...ii->i...", rho0).real)
    # one row per class: states of one coupling class and one log p0 in
    # every batch row; state i's row is classes[i]
    first, classes = distinct_rows(np.column_stack([table.classes, log_p0]))
    n_class = len(first)
    log_p0 = log_p0[first, None]
    columns = table.classes[first]
    log_p0_pair = np.tile(log_p0, 2)

    def scaled_means(re_s, log_p, w, r):
        """sqrt(eta) m = sum_i p_i w_i at every step of a window.

        re_s has shape (classes, steps, columns); w = 2 sqrt(eta) Re c and
        r = 2 eta R are each step's node values, shape (classes, steps,
        1). Returns (steps, columns).
        """
        x = np.multiply(re_s, 2.0 * sqrt_eta)
        x += log_p
        x -= r
        x -= np.maximum.reduce(x, axis=0)
        # p w and p side by side: one pass over the states sums both
        terms = np.empty((len(x), 2) + x.shape[1:])
        p = np.exp(x, out=terms[:, 1])
        np.multiply(p, w, out=terms[:, 0])
        total = _column_sum(terms, classes)
        return total[0] / total[1]

    # a window holds n_class x window x n_batch numbers of every buffer
    window = max(1, _WINDOW_ENTRIES // (n_class * n_batch))
    # Re S at the window's first node, exact, then the iterate at the rest
    re_s = np.zeros((n_class, window + 1, n_batch))
    n_iterate = 0
    s = np.zeros((n_class, n_batch), dtype=complex)
    m_last = np.zeros(n_batch)
    r = np.zeros((n_class, 1, 1))
    tab_lo = tab_hi = 0
    yield s.take(classes, axis=0)
    k = 1
    a = 0
    while a < n_steps:
        n_win = min(window, n_steps - a)
        if a + n_win > tab_hi:
            # node values of c, w = 2 sqrt(eta) Re c and r = 2 eta R
            # (trapezoid rule, summed step by step from r at node a) and
            # the step factors, for up to two windows from step a on
            r_lo = r[:, a - tab_lo, None]
            tab_lo, tab_hi = a, min(a + 2 * window, n_steps)
            c = c_all[tab_lo:tab_hi + 1, columns].T[:, :, None]
            re_c = c.real
            w = (2.0 * sqrt_eta) * re_c
            sq = re_c ** 2
            r = np.cumsum(np.concatenate(
                [r_lo, (eta * dt) * (sq[:, :-1] + sq[:, 1:])], axis=1),
                axis=1)
            c_sqrt_dt = (c[:, :-1] * sqrt_dt).real
            curvature = c[:, 1:] - 2.0 * c[:, :-1] + c[:, 1:]
            dw = dws[:, tab_lo:tab_hi].T[None]
            dz = dzs[:, tab_lo:tab_hi].T[None]
            dz_factor = dz / (2.0 * sqrt_dt)
            dwz_factor = (dw * dt - dz) / (2.0 * dt)
        o = a - tab_lo
        if n_iterate < n_win:
            # guess the new steps with the last committed mean held fixed
            new = slice(o + n_iterate, o + n_win)
            guess = re_s[:, n_iterate + 1:n_win + 1]
            np.multiply(re_c[:, new], m_last * dt + dw[:, new], out=guess)
            guess[:, 0] += re_s[:, n_iterate]
            np.cumsum(guess, axis=1, out=guess)

        # one sweep: the reduced step_sde update of every step at once
        win, ends = slice(o, o + n_win), slice(o + 1, o + n_win + 1)
        start, iterate = re_s[:, :n_win], re_s[:, 1:n_win + 1]
        m0 = scaled_means(start, log_p0, w[:, win], r[:, win])
        a0 = m0 * re_c[:, win]
        base = start + a0 * dt
        m_pair = scaled_means(
            np.concatenate([base + c_sqrt_dt[:, win],
                            base - c_sqrt_dt[:, win]], axis=-1),
            log_p0_pair, w[:, ends], r[:, ends])
        swept = _step_nodes(start[:, 0], a0, m_pair * re_c[:, ends],
                            re_c[:, win], curvature[:, win].real, dw[:, win],
                            dz_factor[:, win], dwz_factor[:, win], dt)[:, 1:]
        # equal bits: NaN counts as equal to the same NaN
        agree = (swept.view(np.int64) == iterate.view(np.int64)).all(
            axis=(0, 2))
        n_exact = n_win if agree.all() else int(agree.argmin()) + 1

        # commit the exact steps: records, and complex S from their means
        done = slice(o, o + n_exact)
        records[:, a:a + n_exact] = m0[:n_exact].T + dws[:, a:a + n_exact] / dt
        s_nodes = _step_nodes(
            s, m0[:n_exact] * c[:, done],
            m_pair[:n_exact] * c[:, o + 1:o + n_exact + 1], c[:, done],
            curvature[:, done], dw[:, done], dz_factor[:, done],
            dwz_factor[:, done], dt)
        while k < len(nodes) and nodes[k] <= a + n_exact:
            # a new array, so an S that _solve holds keeps no window alive
            yield s_nodes[:, nodes[k] - a].take(classes, axis=0)
            k += 1
        s = s_nodes[:, -1]
        m_last = m0[n_exact - 1]

        # slide the window to the first uncommitted step
        n_iterate = n_win - n_exact
        re_s[:, :n_iterate + 1] = swept[:, n_exact - 1:]
        a += n_exact


def simulate_batch(config: model.ReadoutConfig, table: AmplitudeTable,
                   rho0: np.ndarray, dws: np.ndarray, dzs: np.ndarray,
                   checkpoint_every: int = 0):
    """Advance a batch of register states through the full record grid.

    Steps the exponents S = int c dY of every trajectory (reduced
    step_sde), one per class of identical states, and builds the final
    state from the elementwise solution (module docstring), with E
    integrated by the trapezoid rule on the table's nodes
    (_node_exponents). S is solved a window of steps at a time by an
    exact fixed-point sweep: every step of the window is evaluated at once,
    and the steps that started from exact values are committed.
    The sweep is causal, so those are bit for bit the values of step_sde
    taken one step at a time. At every checkpoint, min_eig bounds the
    smallest eigenvalue of the state from below, with its sign, from one
    eigvalsh per distinct rho0 and the state's populations (_solve); the
    other diagnostics are measured on the final state. Memory stays
    bounded however long the grid. Valid only without qubit decay, which
    would couple the populations. Every row is reduced on its own, so a
    trajectory's results do not depend on the batch it runs in, nor on
    the block sizes.

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
        left-point sample sqrt(eta) m(t_n) + dW_n / dt. diagnostics holds
        min_eig at every checkpoint and the other fields of the final
        states (Diagnostics).

    Raises
    ------
    ConfigError
        If the table does not hold n_modes amplitudes and an output on
        each of its columns per node (a table built from other physics
        goes undetected), its classes do not name one column per basis
        state and each column at least once, or they merge states whose
        signed chi sums differ; if the noise arrays or rho0 do not have
        the shapes above, the noise arrays hold no rows, a noise value is
        not finite, rho0 has a negative population or a trace off 1 by
        more than DIAGNOSTIC_THRESHOLDS["trace_dev"], or checkpoint_every
        is not an integer or is negative (0 means the default cadence,
        max(1, n_steps // 100) steps).
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
    over each checkpoint interval as one real product on the table's
    columns of c read as (Re c, Im c) pairs; each S yielded is a new array
    of the states' rows, read through table.classes. Writes records[:, n]
    = r(t_n) + dW_n / dt for every step.
    """
    dt = table.dt
    sqrt_eta = math.sqrt(config.eta)
    re_c, c_pairs = c_all.real, c_all.view(float)
    s = np.zeros((len(dws), c_pairs.shape[1]))
    lo = 0
    for hi in nodes:
        r = (2.0 * sqrt_eta) * re_c[lo:hi + 1, table.classes[js]].T
        dw = dws[:, lo:hi]
        dz = dzs[:, lo:hi] / dt
        weights = np.zeros(r.shape)
        weights[:, :-1] = dz + dt * (r[:, :-1] / 3.0 + r[:, 1:] / 6.0)
        weights[:, 1:] += dw - dz + dt * (r[:, 1:] / 3.0 + r[:, :-1] / 6.0)
        # einsum without optimize reduces each row on its own (a BLAS
        # product rounds a lone row differently from a batched one)
        s = s + np.einsum("bl,li->bi", weights, c_pairs[lo:hi + 1])
        records[:, lo:hi] = r[:, :-1] + dw / dt
        lo = hi
        yield s.view(complex).T[table.classes]


def sample_batch(config: model.ReadoutConfig, table: AmplitudeTable,
                 rho0: np.ndarray, js, dws: np.ndarray, dzs: np.ndarray):
    """Conditioned states of records drawn exactly in law from the mixture.

    Without qubit decay the law of the record is a mixture over basis
    states (module docstring): row b is the record of basis state js[b],
    dY = 2 sqrt(eta) Re c_j dt + dW', with dW' given by (dws[b], dzs[b]).
    S = int c dY is then a sum with no time loop, one real weight per grid
    node times c at that node (exact for c linear over a step), and E,
    the final states and the diagnostics are built as in simulate_batch,
    by the same code: min_eig certifies positivity at every checkpoint,
    from one eigvalsh per checkpoint for the whole batch when rho0 is
    shared, and the other diagnostics describe the final states. Draw js,
    dws and dzs with mixture_noise: it gives the per-step noise of the
    trajectories IntervalLaw.sample (and so analysis.ensemble_run) draws
    from per-interval statistics, so this replays them step by step to
    rounding, and is their test reference. Checkpoints fall at
    simulate_batch's default cadence, and S is summed over each
    checkpoint interval at once. Every row is reduced on its own, so a
    trajectory's results do not depend on the batch it runs in, nor on
    _BLOCK_MATRICES, _PASS_ENTRIES or _BLOCK_STEPS.

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


class IntervalLaw:
    """Exact law of S and three record sums over each checkpoint interval,
    for one design, one grid and one initial state rho0.

    The checkpoints are simulate_batch's default ones; interval k spans L
    steps (the last may be shorter). Step n has the normals (z1, z2) of
    wiener_increments, dW = sqrt(dt) z1 and dZ/dt = (sqrt(dt)/2) (z1
    + z2/sqrt(3)). For the record of basis state j, dY = r dt + dW' with
    r = 2 sqrt(eta) Re c_j (module docstring), the interval's vector v_k,

        the increments of (Re S_i, Im S_i) for each coupling class i,
        sum g_n dY_n over its left nodes, g = (j_even, j_odd, 1),

    with j_even and j_odd the nominal records of the parity references
    (nominal_record), is v_k = mean[k, j] + A_k z. S_i depends on c_i
    alone, and the states of one coupling class of the table share c, so
    they share its column: columns is AmplitudeTable.classes (columns[i]
    is state i's), and D = 2 u + 3 entries for the table's u columns, at
    most 2 d + 3. Two classes whose outputs happen to be equal bit for bit
    keep a column each: the law draws more normals but is still exact.
    Per step n, A_k's column for z1 is (sqrt(dt)/2) (c_n + c_n+1) in the
    S part and sqrt(dt) g_n in the record part, and for z2 (sqrt(dt)/(2
    sqrt(3))) (c_n - c_n+1) and 0.
    mean[k, columns[j]] holds sum dt [c_n (r_n/3 + r_n+1/6) + c_n+1
    (r_n+1/3 + r_n/6)] in the S part, the node weights of
    _sampled_exponents, and sum g_n r_n dt in the record part. The
    covariance A_k A_k^T does not depend on j, and with the QR
    factorization A_k^T = Q_k R_k, R_k^T R_k = A_k A_k^T exactly, with no
    rank tolerance. runs holds (k0, k1, R, Q) for consecutive intervals
    k0..k1-1 of one length, R stacked as (k1 - k0, min(D, 2 L), D) and Q,
    with replay=True only, as (k1 - k0, 2 L, min(D, 2 L)); a run's A^T
    takes at most _BLOCK_ENTRIES numbers (at least one interval), so
    building the law holds a bounded amount. n_normals is the sum of
    min(D, 2 L) over the intervals, the normals one trajectory draws.
    The noise-free half of _solve (_Certificate) of rho0 is built on the
    first call of sample and kept, so an ensemble's chunks share one E
    and one certificate, and mixture_noise never builds it.

    Raises ConfigError where simulate_batch raises on the table, or if
    rho0 is not one (d, d) array with non-negative populations of unit
    trace.
    """

    def __init__(self, config: model.ReadoutConfig, table: AmplitudeTable,
                 rho0, replay: bool = False):
        _check_table(config, table)
        self.rho0 = _square(rho0, config.dim)
        self.cdf = np.cumsum(_populations(self.rho0))
        self.cdf /= self.cdf[-1]
        n_steps, dt = len(table.times) - 1, table.dt
        self.config, self.table = config, table
        self.c_all = measurement_diag(config, table.output)
        self.nodes = _checkpoints(n_steps)
        # S_i depends on c_i alone: one column per coupling class
        self.columns = table.classes
        c_pairs = self.c_all.view(float)
        n_s = c_pairs.shape[1]
        width = n_s + 3
        r_all = (2.0 * math.sqrt(config.eta)) * self.c_all.real
        g_all = np.stack([nominal_record(config, table, "even"),
                          nominal_record(config, table, "odd"),
                          np.ones(n_steps)], axis=-1)
        lengths = np.diff(self.nodes)
        block = max(1, _BLOCK_ENTRIES // (2 * int(lengths.max()) * width))
        starts = np.union1d(np.arange(0, len(lengths), block),
                            np.flatnonzero(np.diff(lengths)) + 1)
        self.mean = np.empty((len(lengths), self.c_all.shape[1], width))
        self.runs = []
        for k0, k1 in zip(starts, np.append(starts[1:], len(lengths))):
            length = lengths[k0]
            at = self.nodes[k0:k1, None] + np.arange(length + 1)
            c, g, r = c_pairs[at], g_all[at[:, :-1]], r_all[at]
            a_t = np.zeros((k1 - k0, 2 * length, width))
            a_t[:, :length, :n_s] = (0.5 * math.sqrt(dt)) * (
                c[:, :-1] + c[:, 1:])
            a_t[:, :length, n_s:] = math.sqrt(dt) * g
            a_t[:, length:, :n_s] = (0.5 * math.sqrt(dt / 3.0)) * (
                c[:, :-1] - c[:, 1:])
            weights = np.zeros(r.shape)
            weights[:, :-1] = dt * (r[:, :-1] / 3.0 + r[:, 1:] / 6.0)
            weights[:, 1:] += dt * (r[:, 1:] / 3.0 + r[:, :-1] / 6.0)
            self.mean[k0:k1, :, :n_s] = weights.swapaxes(1, 2) @ c
            self.mean[k0:k1, :, n_s:] = dt * (
                r[:, :-1].swapaxes(1, 2) @ g)
            if replay:
                q, factor = np.linalg.qr(a_t)
            else:
                q, factor = None, np.linalg.qr(a_t, mode="r")
            self.runs.append((k0, k1, factor, q))
        self.n_normals = sum(f.shape[0] * f.shape[1]
                             for _, _, f, _ in self.runs)
        self._certificate = None

    def normals(self, base_seed: int, indices):
        """(js, xi): the draws of the trajectories `indices`.

        The stream trajectory_rng(base_seed, index) draws the basis state
        j with probability rho0_jj (one uniform, inverted through the
        cumulative populations) and then the n_normals entries of row xi,
        xi_k for each interval in turn.
        """
        js = np.empty(len(indices), dtype=int)
        xi = np.empty((len(indices), self.n_normals))
        for row, index in enumerate(indices):
            rng = trajectory_rng(base_seed, index)
            # side="right" never lands on a state of zero population
            js[row] = np.searchsorted(self.cdf, rng.random(), side="right")
            rng.standard_normal(out=xi[row])
        return js, xi

    def sample(self, base_seed: int, indices):
        """(js, rho_final, record_sums, diagnostics) of trajectories
        `indices`, drawn exactly in law.

        v_k = mean[k, j] + R_k^T xi_k from the draws of normals(), held
        basis-major as (intervals, D, n_batch); S at the checkpoints is
        the running sum of the S parts, written straight into the (nodes,
        d, n_batch) layout _solve reads. The final states and the
        diagnostics come from the per-row pass of _solve, as in
        sample_batch, on the certificate of rho0 that the law builds on
        its first sample and keeps. record_sums, shape (n_batch, 3), holds
        sum g_n dY_n over the whole record for g = (j_even, j_odd, 1).
        Every row is reduced on its own, so a trajectory's results do not
        depend on the other indices drawn with it; mixture_noise gives its
        per-step noise. ConfigError if indices is empty.
        """
        if not len(indices):
            raise ConfigError("no trajectory indices; need at least one")
        js, xi = self.normals(base_seed, indices)
        n_batch, dim = len(js), self.config.dim
        # basis-major, (intervals, D, n_batch)
        v = np.ascontiguousarray(
            self.mean[:, self.columns[js]].transpose(0, 2, 1))
        used = 0
        for k0, k1, factor, _ in self.runs:
            n_k, m = factor.shape[:2]
            # einsum without optimize reduces each row on its own (a BLAS
            # product rounds a lone row differently from a batched one)
            v[k0:k1] += np.einsum(
                "kmi,kmb->kib", factor,
                xi[:, used:used + n_k * m].reshape(n_batch, n_k, m).transpose(
                    1, 2, 0))
            used += n_k * m
        np.cumsum(v, axis=0, out=v)
        # the S parts are (Re, Im) pairs per distinct column
        n_s = v.shape[1] - 3
        s = np.zeros((len(self.nodes), dim, n_batch), dtype=complex)
        s.real[1:] = v[:, 0:n_s:2][:, self.columns]
        s.imag[1:] = v[:, 1:n_s:2][:, self.columns]
        if self._certificate is None:
            self._certificate = _Certificate(
                self.config, self.table, self.c_all, self.nodes,
                self.rho0[None])
        rho, diagnostics = self._certificate.solve(
            np.broadcast_to(self.rho0, (n_batch, dim, dim)),
            np.zeros(n_batch, dtype=int), iter(s))
        return js, rho, v[-1, n_s:].T.copy(), diagnostics


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
    2 n_steps steps (_deterministic_exponents). Each step's integral of F
    is taken from rank-one products (_SIMPSON) and summed in order, and
    each block is expanded to E (_class_exponents) into the result, so the
    result does not depend on the block size. For intrinsic dephasing
    alone, pass a config with chi = 0. rho0 (default |+>^n) is any (d, d)
    array, not necessarily a state; ConfigError if it has another shape.
    """
    n_steps = require_int("n_steps", n_steps, 1)
    rho0 = (model.plus_density(config.n_qubits) if rho0 is None
            else _square(rho0, config.dim))
    table = build_table(config, pulse, 2 * n_steps)
    times, blocks = _deterministic_exponents(config, table)
    # rhos holds the exponents E_n until the final in-place exp
    rhos = np.empty((n_steps + 1, config.dim, config.dim), dtype=complex)
    row = 0
    for f in blocks:
        rhos[row:row + len(f)] = _class_exponents(
            config, table, times[row:row + len(f)], f)
        row += len(f)
    np.exp(rhos, out=rhos)
    rhos *= rho0
    return DeterministicResult(times=times, rhos=rhos)


def _deterministic_exponents(config, table):
    """(times, blocks): F of the unconditional E_n = int_0^t_n K at every
    step end, by composite Simpson.

    table is built on twice the steps (build_table(config, pulse,
    2 * n_steps)), so it carries the step midpoints, and blocks yields F
    (E at gamma_z = 0) at the step ends, its even nodes, as
    _node_exponents does. simulate_deterministic expands each block into
    its result (_class_exponents); markov.witness_scan reduces each one.
    """
    return table.times[::2], _node_exponents(
        config, table, None, np.arange(0, len(table.times), 2), _SIMPSON)
