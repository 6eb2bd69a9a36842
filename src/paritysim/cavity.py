"""Pointer-amplitude dynamics of the internal resonator modes.

Conditioned on register basis state j, the mode amplitudes alpha_j(t) obey
a linear time-invariant system driven by the pulse envelope eps(t):

    d alpha_j / dt = A_j alpha_j + B eps(t),      a_out = C alpha_j,

with

    A_j = -i diag(delta_k + s_{k,j}) - (1/2) sqrt(kappa) sqrt(kappa)^T,
    B   = -i sqrt(kappa),   C = sqrt(kappa)^T,   D = 0,

where s_{k,j} is the signed dispersive pull of mode k in basis state j and
the rank-one kappa term is the mode-mode coupling induced by decay into
the shared output line (input-output theory, see Gardiner & Collett,
Phys. Rev. A 31, 3761 (1985)).

Because A_j differs from an invertible diagonal matrix by a rank-one
update, its inverse has a closed form via the Sherman-Morrison identity;
steady states therefore never require a dense solve.
"""

import numpy as np
from scipy.integrate import solve_ivp

from . import model
from .errors import ConfigError, ResonanceError, StiffnessError
from .pulse import PulseSpec

#: defaults for the adaptive integrator; chosen so the resampled table is
#: accurate to ~1e-9 absolute, far below the SDE discretization error.
RTOL = 1e-9
ATOL = 1e-12


def time_grid(tau: float, n_steps: int) -> np.ndarray:
    """Uniform grid of n_steps+1 nodes covering [0, tau]."""
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if tau <= 0:
        raise ConfigError("tau must be positive")
    return np.linspace(0.0, float(tau), int(n_steps) + 1)


def effective_detunings(config: model.ReadoutConfig) -> np.ndarray:
    """(n_modes, 2**n) array delta_k + s_{k,j} of pulled detunings."""
    return config.delta[:, None] + model.signed_chi_sums(config)


def state_space(config: model.ReadoutConfig, j: int):
    """State-space matrices (A, B, C, D) for register basis state j."""
    d = config.dim
    if not 0 <= j < d:
        raise ConfigError(f"basis index {j} out of range for {config.n_qubits} qubits")
    u = np.sqrt(config.kappa)
    dtil = effective_detunings(config)[:, j]
    A = -1j * np.diag(dtil) - 0.5 * np.outer(u, u)
    B = -1j * u
    C = u.astype(complex)
    D = 0.0 + 0.0j
    return A, B, C, D


def transfer_matrix(config: model.ReadoutConfig, j: int, s):
    """Transfer function G(s) = C (s*1 - A)^{-1} B + D from eps to a_out.

    Accepts a scalar or array of Laplace variables s; returns matching
    shape. Evaluate at s = i*omega for the frequency response.
    """
    A, B, C, D = state_space(config, j)
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    eye = np.eye(A.shape[0])
    out = np.empty(s_arr.shape, dtype=complex)
    for idx, sv in np.ndenumerate(s_arr):
        out[idx] = C @ np.linalg.solve(sv * eye - A, B) + D
    if np.ndim(s) == 0:
        return complex(out[0])
    return out


def _sherman_morrison(config: model.ReadoutConfig, j: int):
    """Pieces of the closed-form inverse of A_j = -i diag(dtil) - u u^T / 2.

    With u = sqrt(kappa) and r = u / dtil, the Sherman-Morrison identity
    gives

        (A_j)^{-1} = i diag(1/dtil) - r r^T / (2 denom),
        denom = 1 - (i/2) sum_k kappa_k / dtil_k.

    denom has real part exactly 1, so it never vanishes; the only poles
    are zero pulled detunings. Returns (dtil, r, denom).

    Raises
    ------
    ResonanceError
        If any pulled detuning vanishes.
    """
    dtil = effective_detunings(config)[:, j]
    if np.any(np.abs(dtil) < 1e-12):
        raise ResonanceError(
            "a pulled detuning delta_k + s_{k,j} is zero; the steady state "
            "has a pole there")
    r = np.sqrt(config.kappa) / dtil
    return dtil, r, 1.0 - 0.5j * np.sum(config.kappa / dtil)


def steady_state_amplitudes(config: model.ReadoutConfig, j: int,
                            eps: float) -> np.ndarray:
    """Steady mode amplitudes alpha = -A^{-1} B eps for constant drive eps.

    Uses the rank-one closed form: alpha_k =
    -eps (sqrt(kappa_k)/dtil_k) / (1 - (i/2) sum kappa/dtil).
    """
    _, r, denom = _sherman_morrison(config, j)
    return -eps * r / denom


def steady_state_output(config: model.ReadoutConfig, j: int,
                        eps: float) -> complex:
    """Steady output amplitude a_out = sum_k sqrt(kappa_k) alpha_k.

    Equals (-i S) / (i + S/2) * eps with S = sum_k kappa_k / dtil_k.
    """
    return complex(np.sqrt(config.kappa)
                   @ steady_state_amplitudes(config, j, eps))


def parity_outputs(config: model.ReadoutConfig, eps: float):
    """Steady outputs grouped by parity: (even array, odd array)."""
    even = model.parity_indices(config.n_qubits, "even")
    odd = model.parity_indices(config.n_qubits, "odd")
    out_even = np.array([steady_state_output(config, j, eps) for j in even])
    out_odd = np.array([steady_state_output(config, j, eps) for j in odd])
    return out_even, out_odd


def kappa_separation_scan(kappas, chi: float = 1.0, n_qubits: int = 3,
                          eps: float = 1.0):
    """Re-quadrature separation of the two parity outputs versus kappa.

    For each kappa in kappas builds the two-mode configuration with
    kappa_0 = kappa_1 = kappa at the matched detunings and evaluates
    |Re a_out(even) - Re a_out(odd)| for drive eps. Returns (kappas,
    separations) as float arrays.
    """
    kappas = np.asarray(kappas, dtype=float)
    seps = np.empty_like(kappas)
    for i, kap in enumerate(kappas):
        d0, d1 = model.parity_detunings(kap, kap, chi)
        config = model.ReadoutConfig(
            n_qubits=n_qubits, n_modes=2,
            chi=np.full((2, n_qubits), chi),
            kappa=np.array([kap, kap]), delta=np.array([d0, d1]),
            gamma_z=np.zeros(n_qubits))
        even, odd = parity_outputs(config, eps)
        seps[i] = abs(even[0].real - odd[0].real)
    return kappas, seps


class AmplitudeTable:
    """Mode amplitudes for every basis state, sampled on a uniform grid.

    Attributes
    ----------
    times : ndarray, shape (n_t,)
        Uniform sample times.
    alpha : ndarray, shape (n_t, n_modes, 2**n)
        alpha[i, k, j] is the amplitude of mode k conditioned on register
        basis state j at times[i].
    output : ndarray, shape (n_t, 2**n)
        Output-line amplitude sum_k sqrt(kappa_k) alpha[i, k, j].
    """

    def __init__(self, times, alpha, output):
        self.times = times
        self.alpha = alpha
        self.output = output
        self.dt = float(times[1] - times[0]) if len(times) > 1 else 0.0


def integrate_amplitudes(config: model.ReadoutConfig, drive,
                         times) -> AmplitudeTable:
    """Integrate the 2**n pointer systems from vacuum over a time grid.

    Parameters
    ----------
    config : ReadoutConfig
    drive : PulseSpec or callable
        Drive envelope; a callable must map a scalar time to a float.
    times : ndarray
        Uniform, increasing sample grid starting at 0. The systems are
        integrated adaptively (embedded 4(5) Runge-Kutta pair with dense
        output) and resampled onto this grid.

    Returns
    -------
    AmplitudeTable

    Raises
    ------
    StiffnessError
        If the adaptive integrator gives up before reaching times[-1].
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ConfigError("times must be a 1-d grid with at least 2 nodes")
    if isinstance(drive, PulseSpec):
        eps = drive.evaluate
    elif callable(drive):
        eps = drive
    else:
        raise ConfigError("drive must be a PulseSpec or a callable")

    n_j = config.dim
    n_m = config.n_modes
    u = np.sqrt(config.kappa)
    dtil = effective_detunings(config).T.copy()  # (n_j, n_modes)

    def rhs(t, y):
        a = y.reshape(n_j, n_m)
        leak = (a * u).sum(axis=1)
        da = -1j * dtil * a - 0.5 * np.outer(leak, u) - 1j * u * eps(t)
        return da.ravel()

    y0 = np.zeros(n_j * n_m, dtype=complex)
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, method="RK45",
                    dense_output=True, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise StiffnessError(f"amplitude integration failed: {sol.message}")

    samples = sol.sol(times)              # (n_j*n_m, n_t)
    alpha = samples.T.reshape(len(times), n_j, n_m).transpose(0, 2, 1)
    output = np.einsum("tkj,k->tj", alpha, u)
    return AmplitudeTable(times=times, alpha=np.ascontiguousarray(alpha),
                          output=output)
