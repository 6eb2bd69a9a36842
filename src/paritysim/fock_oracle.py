"""Truncated-Fock-space reference integrator (test scale only).

Evolves the complete register + resonator density matrix under the full
dispersive Lindbladian: the dispersive Hamiltonian with its drive term,
photon loss through the collective output line, and intrinsic dephasing.
Everything is built dense and stepped with classical RK4, so dimensions
are capped hard. The module exists to validate the pointer-state
reduction used everywhere else: starting from rho_Q (x) vacuum, tracing
out the modes must reproduce the reduced register evolution times the
Lamb-shift phases exp(-i (h_i - h_j) t), and each conditioned mode
amplitude must follow the classical cavity ODEs.

Basis ordering is register (x) mode_0 (x) ... (x) mode_{m-1} with the
register index most significant.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .cavity import steady_state_amplitudes
from .errors import ConfigError, TruncationError
from .pulse import PulseSpec

MAX_QUBITS = 2
MAX_MODES = 2
MAX_NMAX = 15

#: ceiling on the total population of any mode's top Fock level
TOP_LEVEL_TOL = 1e-6


@dataclass
class FullState:
    """Register + resonator density matrix with its space bookkeeping."""

    rho: np.ndarray
    n_qubits: int
    n_modes: int
    n_max: int

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def _destroy(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), k=1).astype(complex)


def _kron_all(ops) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated coherent-state vector exp(-|a|^2/2) a^n / sqrt(n!).

    Coefficients are exact; the vector is not renormalized, so the missing
    tail weight is visible to truncation checks.
    """
    n = np.arange(n_max)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amp = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha))
                 - 0.5 * log_fact) if alpha != 0 else None
    if amp is None:
        amp = np.zeros(n_max, dtype=complex)
        amp[0] = 1.0
    return np.asarray(amp, dtype=complex)


def coherent_overlap(beta: complex, alpha: complex) -> complex:
    """<beta|alpha> = exp(-|a|^2/2 - |b|^2/2 + conj(b) a), untruncated."""
    return complex(np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2
                          + np.conj(beta) * alpha))


def pointer_state(rho_q: np.ndarray, alpha: np.ndarray,
                  n_max: int) -> FullState:
    """Assemble the pointer ansatz sum_ij rho_ij |i><j| (x) prod_k
    |alpha_ki><alpha_kj| as a dense full-space matrix.

    alpha has shape (n_modes, 2**n): the coherent amplitude of each mode
    for each register basis state.
    """
    rho_q = np.asarray(rho_q, dtype=complex)
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    n_modes, dq = alpha.shape
    n_qubits = int(round(np.log2(dq)))
    if 1 << n_qubits != dq or rho_q.shape != (dq, dq):
        raise ConfigError("alpha and rho_q dimensions are inconsistent")
    vecs = np.empty((dq, dq * n_max ** n_modes), dtype=complex)
    for i in range(dq):
        e_i = np.zeros(dq, dtype=complex)
        e_i[i] = 1.0
        parts = [e_i] + [coherent_state(alpha[k, i], n_max)
                         for k in range(n_modes)]
        vecs[i] = _kron_all(parts)
    full = vecs.T @ rho_q @ vecs.conj()
    return FullState(rho=full, n_qubits=n_qubits, n_modes=n_modes,
                     n_max=n_max)


def reduce(full: FullState) -> np.ndarray:
    """Register state tr_C(rho): partial trace over all mode factors."""
    dq = 1 << full.n_qubits
    f = full.n_max ** full.n_modes
    r = full.rho.reshape(dq, f, dq, f)
    return np.einsum("iaja->ij", r)


def conditioned_amplitudes(full: FullState) -> np.ndarray:
    """<a_k> conditioned on each register basis state, (n_modes, 2**n).

    Entries where the register population is below 1e-12 are nan.
    """
    dq = 1 << full.n_qubits
    f = full.n_max ** full.n_modes
    r = full.rho.reshape(dq, f, dq, f)
    a = _destroy(full.n_max)
    eye = np.eye(full.n_max, dtype=complex)
    out = np.empty((full.n_modes, dq), dtype=complex)
    for k in range(full.n_modes):
        ops = [eye] * full.n_modes
        ops[k] = a
        a_modes = _kron_all(ops)
        for j in range(dq):
            block = r[j, :, j, :]
            weight = block.diagonal().real.sum()
            if weight < 1e-12:
                out[k, j] = np.nan
            else:
                out[k, j] = np.einsum("ab,ba->", a_modes, block) / weight
    return out


class _Operators:
    """Dense full-space operators for one (config, n_max) pair."""

    def __init__(self, config: model.ReadoutConfig, n_max: int):
        n, m = config.n_qubits, config.n_modes
        dq = config.dim
        eye_q = np.eye(dq, dtype=complex)
        eye_f = np.eye(n_max, dtype=complex)
        a = _destroy(n_max)
        number = a.conj().T @ a

        self.a_full = []
        for k in range(m):
            ops = [eye_q] + [eye_f] * m
            ops[1 + k] = a
            self.a_full.append(_kron_all(ops))
        number_full = []
        for k in range(m):
            ops = [eye_q] + [eye_f] * m
            ops[1 + k] = number
            number_full.append(_kron_all(ops))
        signs = model.sigma_z_signs(n).astype(complex)
        self.sz_full = []
        for l in range(n):
            ops = [np.diag(signs[l])] + [eye_f] * m
            self.sz_full.append(_kron_all(ops))

        # Lamb-shifted register term with bare frequencies set to zero;
        # the rotating frame of the reduced equation removes it.
        h0 = np.zeros_like(self.a_full[0])
        for k in range(m):
            h0 += config.delta[k] * number_full[k]
        lamb = config.chi.sum(axis=0)
        for l in range(n):
            h0 += lamb[l] * self.sz_full[l]
        for k in range(m):
            for l in range(n):
                h0 += config.chi[k, l] * (self.sz_full[l] @ number_full[k])
        self.h0 = h0
        root_k = np.sqrt(config.kappa)
        self.h_drive = sum(root_k[k] * (self.a_full[k] + self.a_full[k].conj().T)
                           for k in range(m))
        self.loss = sum(root_k[k] * self.a_full[k] for k in range(m))
        self.loss_dag = self.loss.conj().T
        self.loss_nn = self.loss_dag @ self.loss
        self.gamma_z = config.gamma_z

        # basis states where any mode sits at its top Fock level
        idx = np.arange(dq * n_max ** m)
        rem = idx % (n_max ** m)
        mask = np.zeros(len(idx), dtype=bool)
        for k in range(m):
            mask |= (rem // n_max ** (m - 1 - k)) % n_max == n_max - 1
        self.top_mask = mask

    def liouvillian(self, rho: np.ndarray, eps: float) -> np.ndarray:
        h = self.h0 if eps == 0.0 else self.h0 + eps * self.h_drive
        out = -1j * (h @ rho - rho @ h)
        out += (self.loss @ rho) @ self.loss_dag \
            - 0.5 * (self.loss_nn @ rho + rho @ self.loss_nn)
        for rate, sz in zip(self.gamma_z, self.sz_full):
            if rate:
                out += 0.5 * rate * (sz @ rho @ sz - rho)
        return out


def _amplitude_bound(config: model.ReadoutConfig, eps_ss: float,
                     n_max: int) -> None:
    worst = 0.0
    for j in range(config.dim):
        amps = steady_state_amplitudes(config, j, eps_ss)
        worst = max(worst, float(np.abs(amps).max()))
    if worst ** 2 + 5.0 * worst >= n_max:
        raise TruncationError(
            f"predicted steady amplitude {worst:.3f} needs more than "
            f"{n_max} Fock levels (|a|^2 + 5|a| >= N_max)")


def integrate_full(config: model.ReadoutConfig, pulse, n_max: int = 12,
                   n_steps: int = 2000, initial: np.ndarray = None,
                   t_final: float = None, store_every: int = 1) -> list:
    """RK4 integration of the full Lindbladian; list of (t, FullState).

    `initial` is a register density matrix (tensored with vacuum) or a
    full-space matrix; the register plus state over vacuum is the default.
    Snapshots are stored every `store_every` steps (the final state
    always). Raises TruncationError when the top Fock level of any mode
    accumulates population above TOP_LEVEL_TOL, or when the steady-state
    amplitude bound predicts it will.
    """
    if config.n_qubits > MAX_QUBITS or config.n_modes > MAX_MODES:
        raise ConfigError(
            f"full-space oracle is capped at {MAX_QUBITS} qubits and "
            f"{MAX_MODES} modes")
    if not 2 <= n_max <= MAX_NMAX:
        raise ConfigError(f"n_max must lie in [2, {MAX_NMAX}]")
    if t_final is None:
        if not isinstance(pulse, PulseSpec):
            raise ConfigError("t_final is required for a callable drive")
        t_final = pulse.tau
    if isinstance(pulse, PulseSpec):
        _amplitude_bound(config, pulse.eps_ss, n_max)
        eps_fn = pulse.evaluate
    else:
        eps_fn = pulse

    dq = config.dim
    fdim = n_max ** config.n_modes
    ops = _Operators(config, n_max)
    if initial is None:
        initial = model.plus_density(config.n_qubits)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape == (dq, dq):
        vac = np.zeros((fdim, fdim), dtype=complex)
        vac[0, 0] = 1.0
        rho = np.kron(initial, vac)
    elif initial.shape == (dq * fdim, dq * fdim):
        rho = initial.copy()
    else:
        raise ConfigError("initial state has neither register nor full shape")

    times = np.linspace(0.0, t_final, n_steps + 1)
    h = times[1] - times[0]
    def snap(t, r):
        return (float(t), FullState(rho=r.copy(), n_qubits=config.n_qubits,
                                    n_modes=config.n_modes, n_max=n_max))
    snapshots = [snap(times[0], rho)]
    for n in range(n_steps):
        t0, t1 = times[n], times[n + 1]
        tm = 0.5 * (t0 + t1)
        e0, em, e1 = eps_fn(t0), eps_fn(tm), eps_fn(t1)
        k1 = ops.liouvillian(rho, e0)
        k2 = ops.liouvillian(rho + 0.5 * h * k1, em)
        k3 = ops.liouvillian(rho + 0.5 * h * k2, em)
        k4 = ops.liouvillian(rho + h * k3, e1)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        top = rho.diagonal().real[ops.top_mask].sum()
        if top > TOP_LEVEL_TOL:
            raise TruncationError(
                f"top Fock level population {top:.2e} at t = {t1:.3f} "
                f"exceeds {TOP_LEVEL_TOL:.0e}; raise n_max or weaken the drive")
        if (n + 1) % store_every == 0 or n + 1 == n_steps:
            snapshots.append(snap(t1, rho))
    return snapshots
