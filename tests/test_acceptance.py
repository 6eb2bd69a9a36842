"""Acceptance suite: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion. Each test states its tolerance inline; shared expensive
fixtures (the desk-resolution amplitude table and the 500-trajectory
ensemble) are module-scoped so the suite stays within tens of minutes.

Criterion 5 is split in three: the invariant clauses and the positivity
floor at the desk resolution, and the same floor at ten times the step
count.
"""

import numpy as np
import pytest

from paritysim import analysis, cavity, markov, model, sme
from paritysim.pulse import PulseSpec, default_pulse

import fock_oracle
from test_markov import coupling_term, gram_schmidt_rates

EPS_SS = default_pulse().eps_ss


@pytest.fixture(scope="module")
def desk_ensemble(config):
    """500 trajectories at desk resolution, both filters, fixed seed."""
    return analysis.ensemble_run(config, n_traj=500, n_steps=10_000,
                                 base_seed=0,
                                 filter_kinds=("matched", "uniform"))


@pytest.fixture(scope="module")
def desk_diagnostics(config, desk_table):
    """Health numbers along 50 seeded trajectories at 10^4 steps."""
    n_steps = len(desk_table.times) - 1
    dws, dzs = [], []
    for index in range(50):
        rng = sme.trajectory_rng(2026, index)
        dw, dz = sme.wiener_increments(rng, n_steps, desk_table.dt)
        dws.append(dw)
        dzs.append(dz)
    rho0 = np.broadcast_to(model.plus_density(config.n_qubits),
                           (50, config.dim, config.dim))
    _, _, diagnostics = sme.simulate_batch(
        config, desk_table, rho0, np.array(dws), np.array(dzs),
        checkpoint_every=100)
    return diagnostics


def test_criterion_01_steady_state_parity_degeneracy(config):
    # oracle: dense solve of A x = -B eps for every bitstring
    outputs = np.empty(config.dim, dtype=complex)
    for j in range(config.dim):
        a_mat, b_vec, c_vec, _ = cavity.state_space(config, j)
        alpha = np.linalg.solve(a_mat, -b_vec * EPS_SS)
        outputs[j] = c_vec @ alpha
        packaged = cavity.steady_state_output(config, j, EPS_SS)
        assert abs(packaged - outputs[j]) < 1e-12
    even = model.parity_indices(config.n_qubits, "even")
    odd = model.parity_indices(config.n_qubits, "odd")
    for idx in (even, odd):
        spread = np.abs(outputs[idx] - outputs[idx[0]]).max()
        assert spread < 1e-10 * EPS_SS
    assert abs(outputs[even[0]] - (-1.0 - 1.0j) * EPS_SS) < 1e-10
    assert abs(outputs[odd[0]] - (1.0 - 1.0j) * EPS_SS) < 1e-10


def test_criterion_02_kappa_optimization():
    kappas = np.arange(0.1, 4.0 + 1e-12, 0.01)
    kappas, seps = cavity.kappa_separation_scan(kappas, chi=1.0, eps=EPS_SS)
    best = int(np.argmax(seps))
    assert kappas[best] == pytest.approx(2.0, abs=1e-9)
    assert seps[best] == pytest.approx(2.0 * EPS_SS, abs=1e-9)


def test_criterion_03_cavity_integrator_accuracy():
    config = model.ReadoutConfig(n_qubits=1, n_modes=1, chi=[[1.0]],
                                 delta=[0.7], kappa=[2.0], gamma_z=[0.0],
                                 eta=1.0)
    eps = 0.3
    times = cavity.time_grid(13.5, 2000)
    table = cavity.integrate_amplitudes(config, eps, times)
    worst = 0.0
    for j in range(config.dim):
        a_mat, _, _, _ = cavity.state_space(config, j)
        lam = a_mat[0, 0]
        alpha_ss = cavity.steady_state_amplitudes(config, j, eps)[0]
        exact = alpha_ss * (1.0 - np.exp(lam * times))
        worst = max(worst, np.abs(table.alpha[:, 0, j] - exact).max())
    assert worst < 1e-8


def test_criterion_04_sde_stepper_strong_order():
    mu, sigma, t_final, n_paths = 1.0, 1.0, 1.0, 1000
    drift_fn = lambda y, t: mu * y
    diffusion_fn = lambda y, t: sigma * y
    rng = np.random.default_rng(2024)
    dts = 2.0 ** -np.arange(6, 13)
    errs = np.empty_like(dts)
    for i, dt in enumerate(dts):
        n_steps = int(round(t_final / dt))
        z = rng.standard_normal((2, n_paths, n_steps))
        dw = z[0] * np.sqrt(dt)
        dz = 0.5 * dt ** 1.5 * (z[0] + z[1] / np.sqrt(3.0))
        y = np.ones(n_paths)
        for n in range(n_steps):
            y = sme.step_sde(y, n * dt, dt, drift_fn, diffusion_fn,
                             dw[:, n], dz[:, n])
        w_final = dw.sum(axis=1)
        exact = np.exp((mu - 0.5 * sigma ** 2) * t_final + sigma * w_final)
        errs[i] = np.abs(y - exact).mean()
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.35 <= slope <= 1.65, f"strong-order slope {slope:.3f}"


def test_criterion_05_sanity_invariants(desk_diagnostics):
    worst = desk_diagnostics.worst()
    assert worst["trace_dev"] < 1e-10
    assert worst["herm_dev"] < 1e-12
    assert worst["purity_excess"] <= 1e-8
    assert worst["diag_drift"] < 1e-10


def test_criterion_05_positivity_floor(desk_diagnostics):
    # The state is built from the elementwise solution, a congruence of
    # the noise-free factor, so only the quadrature of its exponent can
    # push an eigenvalue below zero; the companion test below repeats the
    # check at 10^5 steps.
    floor = desk_diagnostics.worst()["min_eig"]
    assert floor > -1e-8, f"min eigenvalue {floor:.3e} at 10^4 steps"


def test_criterion_05_positivity_floor_fine_steps(config, pulse):
    table = sme.build_table(config, pulse, 100_000)
    n_steps = len(table.times) - 1
    dws, dzs = [], []
    for index in range(50):
        rng = sme.trajectory_rng(2026, index)
        dw, dz = sme.wiener_increments(rng, n_steps, table.dt)
        dws.append(dw)
        dzs.append(dz)
    rho0 = np.broadcast_to(model.plus_density(config.n_qubits),
                           (50, config.dim, config.dim))
    _, _, diagnostics = sme.simulate_batch(
        config, table, rho0, np.array(dws), np.array(dzs),
        checkpoint_every=1000)
    assert diagnostics.worst()["min_eig"] > -1e-8


def test_criterion_06_non_markovianity_witness():
    config = model.ReadoutConfig(n_qubits=3, n_modes=2,
                                 chi=np.ones((2, 3)), delta=[3.0, -3.0],
                                 kappa=[2.0, 2.0], gamma_z=np.zeros(3),
                                 eta=1.0)
    result = markov.witness_scan(config, n_steps=4000)
    assert result.distance[0] == pytest.approx(1.0, abs=1e-12)
    assert result.window == (7.0, 13.5)
    hits = result.overlapping()
    assert len(hits) >= 1
    assert result.max_rise() > 1e-3


def test_criterion_07_coefficient_matrix_negativity():
    # the coupling term of one mode has exactly one negative canonical
    # rate; its two nonzero rates have a Gram-Schmidt closed form
    rng = np.random.default_rng(7)
    for n_qubits in (2, 3):
        for _ in range(100):
            d = 2 ** n_qubits
            alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
            weights = rng.uniform(0.3, 1.5, size=n_qubits)
            k = coupling_term(alpha, weights)
            rates = markov.canonical_rates(k)
            tol = 1e-12 * np.abs(k).max()
            expected = gram_schmidt_rates(alpha, weights)
            assert np.sum(rates < -tol) == 1
            assert abs(rates[0] - expected[0]) < tol
            assert abs(rates[-1] - expected[1]) < tol
            assert np.all(np.abs(rates[1:-1]) < tol)
            assert rates[0] < 0.0 < rates[-1]


def test_criterion_08_ensemble_fidelity_desk_scale(desk_ensemble):
    fid_even = desk_ensemble.rms_fidelity("matched", "even")
    fid_odd = desk_ensemble.rms_fidelity("matched", "odd")
    assert 0.90 <= fid_even <= 0.97, f"even-class rms {fid_even:.4f}"
    assert 0.90 <= fid_odd <= 0.97, f"odd-class rms {fid_odd:.4f}"
    frac = desk_ensemble.odd_fraction("matched")
    assert 0.45 <= frac <= 0.55, f"odd fraction {frac:.3f}"


def test_criterion_09_matched_filter_beats_uniform(desk_ensemble):
    matched = desk_ensemble.separation("matched")
    uniform = desk_ensemble.separation("uniform")
    assert matched > uniform, (matched, uniform)


def test_criterion_10_gate_model():
    assert abs(analysis.gate_fidelity(0.010101) - 0.957966) < 1e-5
    assert abs(analysis.gate_fidelity(0.1) - 0.668476) < 1e-5
    p = analysis.solve_error_rate(0.94)
    assert 0.014 <= p <= 0.015


def test_criterion_11_pointer_ansatz_oracle():
    cases = [
        model.ReadoutConfig(n_qubits=1, n_modes=1, chi=[[1.0]], delta=[0.7],
                            kappa=[2.0], gamma_z=[0.0], eta=1.0),
        model.ReadoutConfig(n_qubits=2, n_modes=1, chi=[[1.0, 1.0]],
                            delta=[0.5], kappa=[2.0], gamma_z=[0.0, 0.0],
                            eta=1.0),
    ]
    # rise over [0, 1], plateau, fall over [3.5, 4.5], ring-down to 5
    pulse = PulseSpec(t_on=0.5, t_off=4.0, sigma=1.0, eps_ss=0.15, tau=5.0)
    n_steps = 1000

    for config in cases:
        snaps = fock_oracle.integrate_full(config, pulse, n_max=12,
                                           n_steps=n_steps, store_every=50)
        det = sme.simulate_deterministic(config, pulse, n_steps=n_steps)
        # the oracle runs in the drive frame: add the register phases
        # exp(-i (h_i - h_j) t) of the dispersive Hamiltonian
        h = config.chi.sum(axis=0) @ model.sigma_z_signs(config.n_qubits)
        h_diff = h[:, None] - h[None, :]
        table = sme.build_table(config, pulse, n_steps)
        dt = pulse.tau / n_steps
        for t, state in snaps:
            i = int(round(t / dt))
            reduced = fock_oracle.reduce(state)
            in_drive_frame = det.rhos[i] * np.exp(-1j * h_diff * det.times[i])
            assert markov.trace_distance(reduced, in_drive_frame) < 1e-3
            amps = fock_oracle.conditioned_amplitudes(state)
            assert np.max(np.abs(amps - table.alpha[i])) < 1e-4


def test_criterion_12_fidelity_decay_fixture(config, pulse):
    n_steps = 2000
    psi_w = np.zeros(8, dtype=complex)
    psi_w[[4, 2, 1]] = 1.0 / np.sqrt(3.0)
    rho_w = np.outer(psi_w, psi_w.conj())
    # coupling off is chi = 0
    configs = {True: config, False: config.replace(chi=0 * config.chi)}
    runs = {}
    for coupled in (True, False):
        res = sme.simulate_deterministic(configs[coupled], pulse,
                                         n_steps=n_steps, rho0=rho_w)
        runs[coupled] = analysis.state_fidelity(res.rhos, psi_w)
    assert np.max(np.abs(runs[True] - runs[False])) < 1e-8

    psi_m = np.zeros(8, dtype=complex)
    psi_m[[4, 2, 1, 7]] = 0.5
    rho_m = np.outer(psi_m, psi_m.conj())
    curves = {}
    for coupled in (True, False):
        res = sme.simulate_deterministic(configs[coupled], pulse,
                                         n_steps=n_steps, rho0=rho_m)
        curves[coupled] = analysis.state_fidelity(res.rhos, psi_m)
        times = res.times
    after_on = times >= pulse.t_on + pulse.sigma / 2.0
    assert np.all(curves[True][after_on] < curves[False][after_on])
