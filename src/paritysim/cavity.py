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

Because s*1 - A_j is a diagonal matrix plus a rank-one update, Cramer's
rule gives its resolvent in closed form (_resolvent), with no dense solve
and no division by a pulled detuning; the piecewise-quadratic drive makes
the time evolution exact as well (integrate_amplitudes).
"""

import numbers

import numpy as np

from . import model
from .errors import (ConfigError, ResonanceError, require_int,
                     require_positive)
from .pulse import PulseSpec, pieces as pulse_pieces

#: grid nodes filled per batched product in integrate_amplitudes
_BLOCK_NODES = 256

#: largest |alpha| whose square is a finite float; the drift coefficient
#: and the record's mean square every amplitude
_MAX_AMPLITUDE = float(np.sqrt(np.finfo(float).max))

#: coefficients b_0 .. b_13 of the [13/13] Pade approximant to exp, over
#: b_0 so that exp(0) = I exactly, and the largest 1-norm theta_13 at which
#: its backward error stays below the unit roundoff (Higham 2005, table 2.3)
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0,
                    7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                    10559470521600.0, 670442572800.0, 33522128640.0,
                    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0,
                    1.0]) / 64764752532480000.0
_THETA13 = 5.371920351148152


def _expm(a):
    """Matrix exponential of each matrix of the stack a, shape (..., n, n).

    [13/13] Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)). Matrix j is scaled by its own
    2**-s_j, s_j = max(0, ceil(log2(|a_j|_1 / theta_13))), and squared s_j
    times, so its result does not depend on the rest of the stack.
    """
    b = _PADE13
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0)))
    a = a / (2.0 ** s)[..., None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0.0))):
        squared = s > k
        r[squared] = r[squared] @ r[squared]
    return r


def time_grid(tau: float, n_steps: int) -> np.ndarray:
    """Uniform grid of n_steps+1 nodes covering [0, tau]."""
    require_int("n_steps", n_steps, 1)
    return np.linspace(0.0, float(require_positive("tau", tau)), n_steps + 1)


def effective_detunings(config: model.ReadoutConfig) -> np.ndarray:
    """(n_modes, 2**n) array delta_k + s_{k,j} of pulled detunings."""
    return config.delta[:, None] + model.signed_chi_sums(config)


def _basis_index(config: model.ReadoutConfig, j: int) -> int:
    """j, if it indexes a basis state; ConfigError otherwise."""
    if require_int("basis index", j, 0) >= config.dim:
        raise ConfigError(f"basis index {j} out of range for {config.n_qubits} qubits")
    return j


def state_space(config: model.ReadoutConfig, j: int):
    """State-space matrices (A, B, C, D) for register basis state j."""
    u = np.sqrt(config.kappa)
    dtil = effective_detunings(config)[:, _basis_index(config, j)]
    A = -1j * np.diag(dtil) - 0.5 * np.outer(u, u)
    B = -1j * u
    C = u.astype(complex)
    D = 0.0 + 0.0j
    return A, B, C, D


def _resolvent(config: model.ReadoutConfig, s=0.0) -> np.ndarray:
    """(s*1 - A_j)^{-1} B for every basis state j, shape s.shape + (m, 2**n).

    With Q = diag(s + i dtil_j) and u = sqrt(kappa), Cramer's rule on
    s*1 - A_j = Q + u u^T / 2 gives component k as -2i u_k P_k / (2 prod(Q)
    + sum_l kappa_l P_l), with P_k the product of Q over the other modes,
    formed from cumulative products from both ends: nothing divides by Q.
    The denominator is 2 det(s*1 - A_j), so entries are not finite exactly
    where s*1 - A_j is singular; at s = 0, where a zero pulled detuning
    falls on an undamped mode or on two or more modes.
    """
    q = np.asarray(s, dtype=complex)[..., None, None] \
        + 1j * effective_detunings(config)
    ones = np.ones_like(q[..., :1, :])
    before = np.cumprod(np.concatenate([ones, q[..., :-1, :]], -2), -2)
    after = np.cumprod(np.concatenate([ones, q[..., :0:-1, :]], -2), -2)
    others = before * after[..., ::-1, :]
    det2 = 2.0 * others[..., :1, :] * q[..., :1, :] \
        + (config.kappa[:, None] * others).sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -2j * np.sqrt(config.kappa)[:, None] * others / det2


def require_bounded(alpha):
    """alpha, if every |alpha|^2 is finite; ConfigError otherwise."""
    largest = float(np.abs(alpha).max()) if np.size(alpha) else 0.0
    if not largest <= _MAX_AMPLITUDE:
        raise ConfigError(f"the drive takes a mode amplitude to |alpha| = "
                          f"{largest:.3g}, whose square is not finite")
    return alpha


def _finite(values):
    """values, unless an entry is not finite (s*1 - A_j is singular)."""
    if np.all(np.isfinite(values)):
        return values
    raise ResonanceError("s*1 - A_j is singular: a zero pulled detuning "
                         "falls on an undamped mode or on several modes")


def transfer_matrix(config: model.ReadoutConfig, j: int, s):
    """Transfer function G(s) = C (s*1 - A)^{-1} B + D from eps to a_out.

    Accepts a scalar or array of Laplace variables s; returns matching
    shape. Evaluate at s = i*omega for the frequency response.
    """
    resolvent = _resolvent(config, s)[..., _basis_index(config, j)]
    g = _finite((np.sqrt(config.kappa) * resolvent).sum(axis=-1))
    return complex(g) if np.ndim(s) == 0 else g


def steady_state_amplitudes(config: model.ReadoutConfig, j: int,
                            eps: float) -> np.ndarray:
    """Steady mode amplitudes alpha = -A^{-1} B eps for constant drive eps.

    Finite at a zero pulled detuning on a damped mode: one mode alone
    gives -2i eps / sqrt(kappa).
    """
    return eps * _finite(_resolvent(config)[:, _basis_index(config, j)])


def steady_state_output(config: model.ReadoutConfig, j: int,
                        eps: float) -> complex:
    """Steady output amplitude a_out = sum_k sqrt(kappa_k) alpha_k = G(0) eps.

    Raises ResonanceError only where A_j is singular.
    """
    return complex(np.sqrt(config.kappa)
                   @ steady_state_amplitudes(config, j, eps))


def parity_outputs(config: model.ReadoutConfig, eps: float):
    """Steady outputs grouped by parity: (even array, odd array)."""
    out = eps * _finite(np.sqrt(config.kappa) @ _resolvent(config))
    return (out[model.parity_indices(config.n_qubits, "even")],
            out[model.parity_indices(config.n_qubits, "odd")])


def kappa_separation_scan(kappas, chi: float = 1.0, eps: float = 1.0):
    """Re-quadrature separation of the two parity outputs versus kappa.

    For each kappa in kappas builds the three-qubit, two-mode design with
    kappa_0 = kappa_1 = kappa at the matched detunings and evaluates
    |Re a_out(even) - Re a_out(odd)| for drive eps. Returns (kappas,
    separations) as float arrays.
    """
    kappas = np.asarray(kappas, dtype=float)
    seps = np.empty_like(kappas)
    for i, kap in enumerate(kappas):
        d0, d1 = model.parity_detunings(kap, kap, chi)
        config = model.ReadoutConfig(
            n_qubits=3, n_modes=2, chi=np.full((2, 3), chi),
            kappa=np.array([kap, kap]), delta=np.array([d0, d1]),
            gamma_z=np.zeros(3))
        even, odd = parity_outputs(config, eps)
        seps[i] = abs(even[0].real - odd[0].real)
    return kappas, seps


class AmplitudeTable:
    """Mode amplitudes of every coupling class, sampled on a uniform grid.

    The states of a coupling class (equal signed chi sums, so equal A_j)
    share their amplitudes and output, so the table holds one column per
    class, C-contiguous as the solvers read it.

    Attributes
    ----------
    times : ndarray, shape (n_t,)
        Uniform sample times.
    alpha : ndarray, shape (n_t, n_modes, u)
        alpha[i, k, c] is the amplitude of mode k conditioned on a basis
        state of class c at times[i].
    output : ndarray, shape (n_t, u)
        Output-line amplitude sum_k sqrt(kappa_k) alpha[i, k, c].
    classes : ndarray of int, shape (2**n,)
        classes[j] is the column of basis state j, so a per-state value is
        read through it: alpha[..., classes] and output[:, classes] have
        one column per basis state. integrate_amplitudes numbers the
        classes in order of their first state, as model.distinct_rows
        does. None, for a table built by hand, makes every state a class
        of its own, so per-state arrays are a valid table. Such a table
        solves to the same physics as the class table, but the normals
        that sme.IntervalLaw and sme.mixture_noise draw depend on the
        column count, so (seed, index) replays another trajectory on it.
    """

    def __init__(self, times, alpha, output, classes=None):
        self.times = times
        self.alpha = np.ascontiguousarray(alpha)
        self.output = np.ascontiguousarray(output)
        self.classes = (np.arange(np.shape(alpha)[-1]) if classes is None
                        else np.asarray(classes))
        self.dt = float(times[1] - times[0]) if len(times) > 1 else 0.0


def integrate_amplitudes(config: model.ReadoutConfig, drive,
                         times) -> AmplitudeTable:
    """Exact pointer amplitudes of every coupling class, from vacuum at t = 0.

    drive is a PulseSpec or a real constant switched on at t = 0; times is
    a uniform grid from 0, as time_grid makes. On each envelope piece z_j =
    [alpha_j; eps; eps'; eps''] obeys dz/dt = M_j z with the constant M_j =
    [[A_j, B, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], 0]; only eps'' jumps at a
    piece start (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)). Node
    k of a piece from a is expm(M_j (t_lo - a)) expm(M_j h)^k z(a), with the
    powers formed once; nothing is diagonalized, so a defective A_j is exact.
    Every propagator comes from one batched [13/13] Pade call (_expm;
    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)). One state per
    coupling class is integrated, and the table holds its column for the
    class (AmplitudeTable.classes). Raises ConfigError if an amplitude's
    |alpha|^2 is not finite.
    """
    times = np.asarray(times, dtype=float)
    n_t = len(times) if times.ndim == 1 else 0
    h = times[-1] / (n_t - 1) if n_t > 1 else 0.0
    if not (h > 0 and times[0] == 0.0 and
            np.abs(times - h * np.arange(n_t)).max() <= 1e-12 * times[-1]):
        raise ConfigError("times must be a uniform, increasing 1-d grid "
                          "of at least 2 nodes starting at 0")
    if isinstance(drive, PulseSpec):
        (starts, curvature), eps0 = pulse_pieces(drive), 0.0
    elif isinstance(drive, numbers.Real) \
            and not isinstance(drive, (bool, np.bool_)) and np.isfinite(drive):
        starts, curvature, eps0 = [0.0], [0.0], float(drive)
    else:
        raise ConfigError("drive must be a PulseSpec or a finite real number")

    m = config.n_modes
    # A_j depends on j only through its coupling class (equal signed chi
    # sums), so one representative per class is integrated
    reps, classes = model.distinct_rows(model.signed_chi_sums(config).T)
    n_classes = len(reps)
    gen = np.zeros((n_classes, m + 3, m + 3), dtype=complex)
    for c, j in enumerate(reps):
        gen[c, :m, :m], gen[c, :m, m], _, _ = state_space(config, j)
    gen[:, m, m + 1] = gen[:, m + 1, m + 2] = 1.0

    # z is carried start to start, so node rounding never crosses a piece;
    # pieces from the first that starts past the grid are not needed
    first = np.append(np.ceil(np.divide(starts, h)), n_t).clip(0, n_t)
    n_pieces = int(np.count_nonzero(first[:-1] < n_t))
    stops = np.append(starts[1:], times[-1])[:n_pieces]
    starts = starts[:n_pieces]
    # every propagator from one call: the step, a block of steps, and for
    # each piece the offset to its first node and its full length
    n_block = min(_BLOCK_NODES, n_t)
    spans = np.concatenate([[h, n_block * h], first[:n_pieces] * h - starts,
                            stops - starts])
    props = _expm(gen * spans[:, None, None, None])
    power, advance = props[0], props[1]
    to_node, across = props[2:2 + n_pieces], props[2 + n_pieces:]

    # rows[b, k, a, j] = (expm(M_j h)^k)[a, b] for alpha rows a < m and
    # class j, filled by doubling; a block of nodes contracts straight into
    # the table
    rows = np.empty((m + 3, n_block, m, n_classes), dtype=complex)
    rows[:, 0] = np.eye(m + 3, m)[:, :, None]
    n = 1                                 # power = expm(M h)^n
    while n < n_block:
        k = min(n, n_block - n)
        rows[:, n:n + k] = np.einsum("bkaj,jbc->ckaj", rows[:, :k], power)
        power, n = power @ power, n + k

    alpha = np.empty((n_t, m, n_classes), dtype=complex)
    z = np.zeros((n_classes, m + 3), dtype=complex)
    z[:, m] = eps0
    for i in range(n_pieces):
        z[:, m + 2] = curvature[i]
        node = np.einsum("jab,jb->ja", to_node[i], z)
        for lo in range(int(first[i]), int(first[i + 1]), n_block):
            hi = min(lo + n_block, int(first[i + 1]))
            np.einsum("bkaj,jb->kaj", rows[:, :hi - lo], node,
                      out=alpha[lo:hi])
            node = np.einsum("jab,jb->ja", advance, node)
        z = np.einsum("jab,jb->ja", across[i], z)

    require_bounded(alpha)
    output = np.einsum("tkj,k->tj", alpha, np.sqrt(config.kappa))
    return AmplitudeTable(times, alpha, output, classes)
