"""Reduced conditioned-state integrator.

Covers: elementwise drift coefficients in the rotating frame, the pure-
dephasing closed form (also under drive with the coupling off, chi = 0),
measurement superoperator identities, the strong order-1.5 step on cases
with exact solutions, noise-increment statistics, seeded reproducibility,
batch/single-trajectory equivalence (diagnostics included), the batch
loop against its S loop written through step_sde with every checkpoint
state built densely (records, final states and their diagnostics bit for
bit, and min_eig a lower bound with the exact eigenvalue's sign, also
around the solver's window edges, where its classes of identical states
are neither the columns of c nor the states, and, NaN for NaN, on a
table with a NaN node), one stepped row per class, the count of sweeps
of one long trajectory, the stepper's memory on a long grid, the class
table against its per-state expansion in every solver, and every solver
rejecting a table whose classes skip or invent a column or merge
signed chi sums, min_eig inside Ostrowski's bracket on random
states with and without a negative eigenvalue or a zero population, one
eigvalsh matrix per checkpoint whatever the batch, results independent of block sizes,
pass sizes and checkpoint cadence, the checkpoint routine bit for bit
against the one-block-at-a-time loop it replaced (also through the
interval law and from distinct rho0), the exponent E at the checkpoints
against a step-by-step trapezoid sum of the full d x d integrand (bit
for bit the same at a node whatever the cadence, in memory that does
not grow with the grid, and not held at every checkpoint by the solve),
E expanded from its coupling-class part F against the per-state
trapezoid and Simpson sums over fixed and random designs (bit for bit
the same whatever the cadence and block size), the memory of E and the
certificate at six qubits, the unconditional evolution against a
step-by-step Simpson sum of the full K (in at most 1.6 times the memory
of its result at the register cap), no solver building K per node,
typed errors on malformed batch input and on a deterministic rho0 of the
wrong shape, the elementwise conditioned solver against the dense d x d
stepper at fine steps, and property tests of its state over register
size, mode count, eta and phi.
"""

import itertools
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paritysim import markov, model, sme
from paritysim.cavity import AmplitudeTable
from paritysim.errors import ConfigError
from paritysim.pulse import PulseSpec, default_pulse


def staggered_gamma_config():
    return model.default_config().replace(gamma_z=np.array([0.03, 0.05, 0.07]))


def zero_drive(t_final):
    """A pulse of zero amplitude over [0, t_final]."""
    return PulseSpec(t_on=0.25, t_off=0.75, sigma=0.5, eps_ss=0.0,
                     tau=t_final)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestDriftOperator:
    def test_diagonal_identically_zero(self, config, rng):
        alpha = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        k = sme.DriftOperator(config).coefficient(alpha)
        assert np.all(np.diagonal(k) == 0.0)

    def test_diagonal_alone_is_the_full_diagonal(self, rng):
        # bit for bit, NaN where an amplitude is not finite
        drift_op = sme.DriftOperator(staggered_gamma_config())
        alpha = rng.normal(size=(6, 2, 8)) + 1j * rng.normal(size=(6, 2, 8))
        alpha[1, 0, 3] = np.nan
        alpha[2, 1, 5] = np.inf
        alpha[3] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.einsum("...ii->...i", drift_op.coefficient(alpha))
            alone = drift_op.diagonal(alpha)
        assert alone.tobytes() == full.tobytes()
        assert np.isnan(alone[1:4]).any(axis=-1).all()
        assert np.all(alone[[0, 4, 5]] == 0.0)

    def test_dephasing_entries(self):
        cfg = staggered_gamma_config()
        op = sme.DriftOperator(cfg)
        k = op.coefficient(np.zeros((2, 8), dtype=complex))
        assert np.all(k.imag == 0.0)
        assert k[0, 7] == pytest.approx(-0.15)   # all three bits differ
        assert k[1, 3] == pytest.approx(-0.05)   # only qubit 1 differs
        assert k[0, 4] == pytest.approx(-0.03)   # only qubit 0 differs
        assert k[2, 6] == pytest.approx(-0.03)

    def test_elementwise_hermiticity_structure(self, config, rng):
        # K_ij = conj(K_ji) makes K o rho hermiticity-preserving
        alpha = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        k = sme.DriftOperator(config).coefficient(alpha)
        assert np.allclose(k, k.conj().T, atol=1e-15)

    def test_single_qubit_coupling_term(self):
        cfg = model.ReadoutConfig(
            n_qubits=1, n_modes=1, chi=np.array([[1.0]]),
            kappa=np.array([2.0]), delta=np.array([0.0]),
            gamma_z=np.zeros(1))
        op = sme.DriftOperator(cfg)
        alpha = np.array([[0.3 + 0.1j, 0.2 - 0.4j]])
        k = op.coefficient(alpha)
        # signed sums are (+1, -1), so W_01 = 2
        expected = -1j * 2.0 * np.conj(alpha[0, 1]) * alpha[0, 0]
        assert k[0, 1] == pytest.approx(expected)
        assert k[1, 0] == pytest.approx(np.conj(expected))


class TestDephasingClosedForm:
    def test_nonuniform_rates_exponential_decay(self):
        # no drive: every coherence decays at the sum of the rates of the
        # qubits whose bits differ, rho_ij(t) = rho_ij(0) e^{-r_ij t}
        cfg = staggered_gamma_config()
        out = sme.simulate_deterministic(cfg, zero_drive(3.0), n_steps=300)
        bits = model.bit_table(3)
        differ = bits[:, None, :] != bits[None, :, :]
        rates = (differ * cfg.gamma_z).sum(axis=2)
        expected = 0.125 * np.exp(-rates * 3.0)
        assert np.max(np.abs(out.rhos[-1] - expected)) < 1e-12

    def test_populations_exactly_frozen(self):
        cfg = staggered_gamma_config()
        out = sme.simulate_deterministic(cfg, zero_drive(2.0), n_steps=100)
        diags = np.einsum("tii->ti", out.rhos)
        assert np.all(diags == 0.125)

    def test_no_rates_no_drive_is_frozen(self, config):
        cfg = config.replace(gamma_z=np.zeros(3))
        out = sme.simulate_deterministic(cfg, zero_drive(1.0), n_steps=50)
        assert np.array_equal(out.rhos[-1], out.rhos[0])

    def test_coupling_off_is_pure_dephasing_under_drive(self):
        # chi = 0 removes the measurement term: under the default pulse
        # the state is rho0 o exp(Gamma t) at every node
        cfg = staggered_gamma_config()
        cfg = cfg.replace(chi=0 * cfg.chi)
        out = sme.simulate_deterministic(cfg, default_pulse(), n_steps=300)
        gamma = sme.DriftOperator(cfg).gamma_mat
        expected = model.plus_density(3) * np.exp(
            gamma * out.times[:, None, None])
        assert np.abs(out.rhos - expected).max() < 1e-12


def test_whole_float_step_count_rejected(config):
    with pytest.raises(ConfigError, match="n_steps"):
        sme.build_table(config, default_pulse(), 1e3)


@pytest.mark.parametrize("n_steps", [2.5, True])
def test_deterministic_step_count_must_be_integer(config, n_steps):
    # checked before doubling, so the error names the value passed
    with pytest.raises(ConfigError,
                       match=f"n_steps must be an integer, got {n_steps}"):
        sme.simulate_deterministic(config, n_steps=n_steps)


@pytest.mark.parametrize("coupled", [True, False])
def test_deterministic_independent_of_block_size(config, monkeypatch,
                                                 coupled):
    # coupling off is chi = 0
    cfg = config.replace(chi=(1 if coupled else 0) * config.chi)
    runs = []
    for block in (sme._BLOCK_STEPS, 7):
        monkeypatch.setattr(sme, "_BLOCK_STEPS", block)
        runs.append(sme.simulate_deterministic(cfg, n_steps=600).rhos)
    assert np.array_equal(runs[0], runs[1])


def test_deterministic_matches_rk4_reference(config):
    # classical RK4 on the same midpoint table; both are fourth order, and
    # at this step size they agree to round-off level
    n_steps = 1000
    table = sme.build_table(config, default_pulse(), 2 * n_steps)
    ks = [sme.DriftOperator(config).coefficient(a)
          for a in table.alpha[..., table.classes]]
    h = 2.0 * table.dt
    rho = model.plus_density(3)
    ref = [rho]
    for n in range(n_steps):
        k0, km, k1 = ks[2 * n], ks[2 * n + 1], ks[2 * n + 2]
        f1 = k0 * rho
        f2 = km * (rho + 0.5 * h * f1)
        f3 = km * (rho + 0.5 * h * f2)
        f4 = k1 * (rho + h * f3)
        rho = rho + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        ref.append(rho)
    out = sme.simulate_deterministic(config, n_steps=n_steps)
    assert np.abs(out.rhos - np.array(ref)).max() < 1e-12


def dense_reference(config, table, rho0, dws, dzs):
    """Final states of the full SME stepped as a d x d state.

    The order-1.5 step_sde loop on rho itself with the dense measurement
    superoperator: a solution of the same SME that shares nothing with
    the elementwise one but the stepper.
    """
    drift_op = sme.DriftOperator(config)
    alpha = table.alpha[..., table.classes]
    c_all = sme.measurement_diag(config, table.output[:, table.classes])
    sqrt_eta = np.sqrt(config.eta)
    rho = np.array(rho0, dtype=complex)
    k0, c0 = drift_op.coefficient(alpha[0]), c_all[0]
    for n in range(len(table.times) - 1):
        t = table.times[n]
        k1, c1 = drift_op.coefficient(alpha[n + 1]), c_all[n + 1]
        rho = sme.step_sde(
            rho, t, table.dt,
            lambda y, tt: (k0 if tt == t else k1) * y,
            lambda y, tt: sme.diffusion(y, c0 if tt == t else c1, sqrt_eta),
            dws[:, n, None, None], dzs[:, n, None, None])
        k0, c0 = k1, c1
    return rho


def step_sde_exponents(config, table, rho0, dws, dzs):
    """S at every node of simulate_batch's loop, each step by step_sde.

    The drift closure returns the mean already computed for the record at
    t and sqrt(eta) m(y) c1 at t + dt; the diffusion closure returns c at t
    or at t + dt. Returns (S as (n_steps + 1, d, n_batch), records).
    """
    times, dt, eta = table.times, table.dt, config.eta
    sqrt_eta = math.sqrt(eta)
    n_steps = len(times) - 1
    rho0 = np.broadcast_to(rho0, (len(dws), config.dim, config.dim))
    c_col = sme.measurement_diag(
        config, table.output[:, table.classes])[:, :, None]
    re_c = c_col.real
    with np.errstate(divide="ignore"):
        log_p0 = np.log(np.einsum("...ii->i...", rho0).real)

    def scaled_mean(s, w, r):
        x = log_p0 + (2.0 * sqrt_eta) * s.real
        x -= r
        x -= x.max(axis=0)
        p = np.exp(x, out=x)
        return sme._column_sum(p * w) / sme._column_sum(p)

    s_nodes = np.zeros((n_steps + 1, config.dim, len(dws)), dtype=complex)
    s = s_nodes[0]
    records = np.empty(dws.shape)
    w1 = (2.0 * sqrt_eta) * re_c[0]
    sq1 = re_c[0] ** 2
    r1 = np.zeros_like(sq1)
    for n in range(n_steps):
        t = times[n]
        w0, sq0, r0 = w1, sq1, r1
        w1 = (2.0 * sqrt_eta) * re_c[n + 1]
        sq1 = re_c[n + 1] ** 2
        r1 = r0 + (eta * dt) * (sq0 + sq1)
        m0 = scaled_mean(s, w0, r0)
        records[:, n] = m0 + dws[:, n] / dt
        a0 = m0 * c_col[n]

        def drift_fn(y, tt, _a0=a0, _t=t, _n=n, _w1=w1, _r1=r1):
            if tt == _t:
                return _a0
            return scaled_mean(y, _w1, _r1) * c_col[_n + 1]

        def diffusion_fn(y, tt, _n=n, _t=t):
            return c_col[_n] if tt == _t else c_col[_n + 1]

        s = s_nodes[n + 1] = sme.step_sde(s, t, dt, drift_fn, diffusion_fn,
                                          dws[:, n], dzs[:, n])
    return s_nodes, records


def cadence_nodes(n_steps, every):
    """Checkpoint nodes of simulate_batch at cadence `every`."""
    return np.unique(np.append(np.arange(0, n_steps + 1, every), n_steps))


def node_exponents(config, table, nodes):
    """E of the conditioned solvers at the nodes, as (len(nodes), d, d):
    F on the coupling classes, expanded by the solvers' own helper."""
    return sme._class_exponents(
        config, table, table.times[nodes], np.concatenate(list(
            sme._node_exponents(
                config, table, sme.measurement_diag(config, table.output),
                nodes, sme._TRAPEZOID))))


def step_sde_reference(config, table, rho0, dws, dzs, checkpoint_every):
    """simulate_batch with S stepped by step_sde_exponents, and the dense
    diagnostics: every checkpoint state built, each with its own eigvalsh.

    E and the states use the module's own helpers, one checkpoint at a
    time, with K's diagonal read off the full coefficient, so a difference
    in a state can only come from the stepping. Returns (rho_final,
    records, diagnostics), the last a dict keyed by Diagnostics field with
    every checkpoint's value, (n_batch, n_checkpoints) but for times.
    """
    times, eta = table.times, config.eta
    n_steps = len(times) - 1
    rho0 = np.broadcast_to(rho0, (len(dws), config.dim, config.dim))
    nodes = cadence_nodes(n_steps, checkpoint_every)
    drift_op = sme.DriftOperator(config)
    s_nodes, records = step_sde_exponents(config, table, rho0, dws, dzs)
    checks = []
    for e, node in zip(node_exponents(config, table, nodes), nodes):
        rho = sme._conditioned_state(rho0, e, s_nodes[node].T,
                                     math.sqrt(eta))
        checks.append({**sme._final_checks(
            rho, np.einsum("ii->i", drift_op.coefficient(
                table.alpha[node][:, table.classes]))),
            "min_eig": np.linalg.eigvalsh(
                0.5 * (rho + rho.conj().swapaxes(-1, -2)))[..., 0]})
    diagnostics = {name: np.stack([check[name] for check in checks], axis=-1)
                   for name in checks[0]}
    diagnostics["times"] = times[nodes]
    return rho, records, diagnostics


def assert_certified(diagnostics, dense):
    """Diagnostics against step_sde_reference's dense ones.

    times, and the fields of the final state, bit for bit; min_eig at
    every checkpoint a lower bound on the state's smallest eigenvalue,
    with its sign wherever that is clear of rounding.
    """
    assert np.array_equal(diagnostics.times, dense["times"])
    for name in ("trace_dev", "herm_dev", "purity", "diag_drift"):
        assert np.array_equal(getattr(diagnostics, name),
                              dense[name][:, -1]), name
    exact = dense["min_eig"]
    assert diagnostics.min_eig.shape == exact.shape
    assert np.all(diagnostics.min_eig <= exact + 1e-15)
    clear = np.abs(exact) > 1e-12
    assert np.array_equal(np.sign(diagnostics.min_eig[clear]),
                          np.sign(exact[clear]))


def reference_designs():
    """The default design, a detuned-quadrature one and two other sizes."""
    rng = np.random.default_rng(11)

    def random_design(n_qubits, n_modes):
        return model.ReadoutConfig(
            n_qubits=n_qubits, n_modes=n_modes,
            chi=rng.uniform(0.5, 1.5, (n_modes, n_qubits)),
            kappa=rng.uniform(0.5, 4.0, n_modes),
            delta=rng.uniform(-3.0, 3.0, n_modes),
            gamma_z=rng.uniform(0.0, 0.01, n_qubits), eta=0.8, phi=0.3)

    default = model.default_config()
    return {"default": default,
            "eta_phi": default.replace(eta=0.37, phi=0.9),
            "1q_1m": random_design(1, 1),
            "4q_3m": random_design(4, 3)}


def running_sum(steps, nodes) -> np.ndarray:
    """E_n = sum_{m < n} steps[m] at the nodes, the terms added in order."""
    return np.cumsum(np.concatenate([np.zeros_like(steps[:1]), steps]),
                     axis=0)[nodes]


def trapezoid_exponents(config, table, nodes):
    """E at the nodes as a running sum of per-step trapezoid terms.

    Each step adds (dt/2) (f(t_n) + f(t_n+1)) with the full d x d
    integrand f = K - (eta/2) (c_i + conj c_j)^2 built by
    DriftOperator.coefficient at every node: the quadrature that
    _node_exponents forms from rank-one products, summed step by step.
    """
    c = sme.measurement_diag(config, table.output[:, table.classes])[
        :, :, None]
    f = (sme.DriftOperator(config).coefficient(table.alpha[..., table.classes])
         - (0.5 * config.eta) * (c + c.conj().swapaxes(-1, -2)) ** 2)
    return running_sum((0.5 * table.dt) * (f[:-1] + f[1:]), nodes)


def simpson_exponents(config, table):
    """E at every step end of a midpoint table, summed step by step.

    The table carries the step midpoints, so step n of size h = 2 dt adds
    (h/6) (K(t_2n) + 4 K(t_2n+1) + K(t_2n+2)) with the full d x d K built
    by DriftOperator.coefficient at every node: the composite Simpson rule
    that simulate_deterministic forms from rank-one products.
    """
    k = sme.DriftOperator(config).coefficient(table.alpha[..., table.classes])
    steps = (2.0 * table.dt / 6.0) * (k[:-1:2] + 4.0 * k[1::2] + k[2::2])
    return running_sum(steps, np.arange(len(steps) + 1))


@pytest.mark.parametrize("name", sorted(reference_designs()))
@pytest.mark.parametrize("n_steps", [1, 1500, 2 * sme._SUB_STEPS + 3])
def test_node_exponents_are_the_trapezoid_rule(name, pulse, n_steps):
    # the same quadrature in another summation order; and E at a node may
    # not depend on which other nodes are asked for, so the cadence is
    # invisible bit for bit (n_steps is not a multiple of _SUB_STEPS)
    config = reference_designs()[name]
    table = sme.build_table(config, pulse, n_steps)
    by_node = {}
    for every in (1, 7, max(1, n_steps // 100), n_steps):
        nodes = cadence_nodes(n_steps, every)
        got = node_exponents(config, table, nodes)
        want = trapezoid_exponents(config, table, nodes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got, got.conj().swapaxes(-1, -2))
        for node, e in zip(nodes, got):
            want_bits = by_node.setdefault(node, e)
            assert np.array_equal(e, want_bits), (every, node)


def uniform_register(n_qubits):
    """The default design widened to n_qubits with chi all ones: the
    outputs depend on the popcount alone, n_qubits + 1 distinct columns."""
    default = model.default_config()
    return default.replace(n_qubits=n_qubits,
                           chi=np.ones((default.n_modes, n_qubits)),
                           gamma_z=np.full(n_qubits, default.gamma_z[0]))


def class_exponent_designs():
    """reference_designs() and designs whose coupling classes hold several
    states: chi all ones at 4 and 6 qubits, and a qubit with no coupling."""
    default = model.default_config()
    return {**reference_designs(), "4q_ones": uniform_register(4),
            "zero_chi_column": default.replace(
                chi=default.chi * np.array([1.0, 0.0, 1.0])),
            "6q_ones": uniform_register(model.MAX_QUBITS)}


def assert_class_exponents(config, pulse, n_steps):
    """E from F on the coupling classes against the per-state references.

    For both quadratures: the trapezoid E of the conditioned solvers at
    cadences 1, 7 and the default, and the Simpson E of
    simulate_deterministic at every step end of a midpoint table, each
    expanded by _class_exponents, within 1e-12 of the step-by-step sums of
    the full d x d integrand, exactly Hermitian, and bit for bit the same
    at a node whatever the cadence and whatever _BLOCK_STEPS.
    """
    table = sme.build_table(config, pulse, n_steps)
    trapezoid = trapezoid_exponents(config, table, np.arange(n_steps + 1))
    midpoints = sme.build_table(config, pulse, 2 * n_steps)
    simpson = simpson_exponents(config, midpoints)
    by_node, simpson_bits = {}, []
    for block_steps in (sme._BLOCK_STEPS, 1, 5, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sme, "_BLOCK_STEPS", block_steps)
            for every in (1, 7, max(1, n_steps // 100)):
                nodes = cadence_nodes(n_steps, every)
                got = node_exponents(config, table, nodes)
                want = trapezoid[nodes]
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                assert np.array_equal(got, got.conj().swapaxes(-1, -2))
                for node, e in zip(nodes, got):
                    assert np.array_equal(e, by_node.setdefault(node, e)), (
                        block_steps, every, node)
            times, blocks = sme._deterministic_exponents(config, midpoints)
            got = sme._class_exponents(config, midpoints, times,
                                       np.concatenate(list(blocks)))
        assert np.abs(got - simpson).max() <= 1e-12 * np.abs(simpson).max()
        assert np.array_equal(got, got.conj().swapaxes(-1, -2))
        simpson_bits.append(got)
        assert np.array_equal(got, simpson_bits[0]), block_steps


@pytest.mark.parametrize("name", sorted(class_exponent_designs()))
def test_class_exponents_are_the_per_state_rules(name, pulse):
    # E_ij = t gamma_ij + F[class(i), class(j)], F integrated on one state
    # per coupling class; grids ending off a sub-block, past two blocks of
    # 256 steps (150 steps at 6 qubits, where the references are large)
    config = class_exponent_designs()[name]
    assert_class_exponents(
        config, pulse, 150 if config.n_qubits == model.MAX_QUBITS
        else 2 * sme._BLOCK_STEPS + 2 * sme._SUB_STEPS + 3)


def test_node_exponents_memory_does_not_grow_with_grid(config, pulse):
    # one block of nodes and the carry are held, whatever the grid length
    peaks = []
    for n_steps in (10 ** 4, 10 ** 5):
        table = sme.build_table(config, pulse, n_steps)
        c_all = sme.measurement_diag(config, table.output)
        nodes = cadence_nodes(n_steps, n_steps // 100)
        tracemalloc.start()
        try:
            for _ in sme._node_exponents(config, table, c_all, nodes,
                                         sme._TRAPEZOID):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_class_exponents_memory_at_six_qubits(pulse):
    # E is integrated on the 7 coupling classes, not on the 64 states, and
    # the certificate holds the d x d E of one eigvalsh call and its
    # exponential. Measured before this test first ran: 0.77 MiB and 12.9
    # MiB (E on every state took 10.7 MiB, and its certificate 16.5)
    config = uniform_register(model.MAX_QUBITS)
    table = sme.build_table(config, pulse, 10 ** 4)
    c_all = sme.measurement_diag(config, table.output)
    nodes = sme._checkpoints(10 ** 4)
    peaks = []
    for build in (lambda: list(sme._node_exponents(config, table, c_all,
                                                   nodes, sme._TRAPEZOID)),
                  lambda: sme._Certificate(
                      config, table, c_all, nodes,
                      model.plus_density(config.n_qubits)[None])):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1 * 2 ** 20
    assert peaks[1] < 14 * 2 ** 20


@pytest.mark.parametrize("name", sorted(reference_designs()))
@pytest.mark.parametrize("n_steps", [1, 7, 600])
def test_deterministic_is_the_simpson_running_sum(name, pulse, n_steps):
    # the same quadrature as the step-by-step sum of the full d x d K, in
    # another summation order
    config = reference_designs()[name]
    got = sme.simulate_deterministic(config, pulse, n_steps=n_steps)
    table = sme.build_table(config, pulse, 2 * n_steps)
    want = model.plus_density(config.n_qubits) * np.exp(
        simpson_exponents(config, table))
    assert np.array_equal(got.times, table.times[::2])
    assert np.abs(got.rhos - want).max() <= 1e-13


@pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 8, 8), (4, 4)])
def test_deterministic_rho0_must_be_one_matrix(config, shape):
    with pytest.raises(ConfigError,
                       match=re.escape(f"rho0 has shape {shape}; need (8, 8)")):
        sme.simulate_deterministic(config, n_steps=3, rho0=np.zeros(shape))


def test_no_solver_builds_a_drift_coefficient_per_node(config, pulse,
                                                       monkeypatch):
    # every solver takes E from rank-one products of the node vectors
    def refuse(self, alpha_t):
        raise AssertionError("a solver built the d x d drift coefficient")

    monkeypatch.setattr(sme.DriftOperator, "coefficient", refuse)
    sme.simulate_deterministic(config, pulse, n_steps=40)
    markov.witness_scan(config, pulse, n_steps=40)
    table = sme.build_table(config, pulse, 60)
    rho0 = model.plus_density(config.n_qubits)
    dws, dzs = sme.trajectory_noise(table, 0, [0, 1])
    sme.simulate_batch(config, table, rho0, dws, dzs, checkpoint_every=7)
    js, dws, dzs = sme.mixture_noise(config, table, rho0, 0, [0, 1])
    sme.sample_batch(config, table, rho0, js, dws, dzs)


def test_positivity_is_certified_once_per_checkpoint(config, pulse,
                                                    monkeypatch):
    # the eigenvalue certificate is shared by the rows that share rho0:
    # one matrix per checkpoint, however wide the batch
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a)[:-2])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    table = sme.build_table(config, pulse, 600)
    rho0 = model.plus_density(config.n_qubits)
    counts = []
    for n_batch in (1, 50):
        shapes.clear()
        js, dws, dzs = sme.mixture_noise(config, table, rho0, 0,
                                         range(n_batch))
        diagnostics = sme.sample_batch(config, table, rho0, js, dws, dzs)[2]
        counts.append(sum(math.prod(shape) for shape in shapes))
    assert counts == [len(diagnostics.times)] * 2


def test_solve_holds_no_exponent_per_checkpoint(config, pulse):
    # E is reduced to the certificate a block of nodes at a time and kept
    # at the final node alone; at one checkpoint per step, E at every node
    # would take (n_steps + 1) d^2 complex numbers
    n_steps = 4 * 10 ** 4
    table = sme.build_table(config, pulse, n_steps)
    dws, dzs = sme.trajectory_noise(table, 0, [0])
    rho0 = model.plus_density(config.n_qubits)
    tracemalloc.start()
    try:
        sme.simulate_batch(config, table, rho0, dws, dzs, checkpoint_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * (n_steps + 1) * config.dim ** 2 * 16


def test_deterministic_memory_at_the_register_cap(config, pulse):
    # E is summed straight into the returned array, one block of step
    # integrals at a time, with no d x d K per node
    n = model.MAX_QUBITS
    wide = config.replace(n_qubits=n, chi=np.ones((config.n_modes, n)),
                          gamma_z=np.full(n, config.gamma_z[0]))
    tracemalloc.start()
    try:
        rhos = sme.simulate_deterministic(wide, pulse, n_steps=2000).rhos
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rhos.shape == (2001, 2 ** n, 2 ** n)
    assert peak <= 1.6 * rhos.nbytes


@pytest.mark.parametrize("name", sorted(reference_designs()))
def test_batch_loop_is_step_sde_on_additive_noise(name, pulse):
    # the loop's reduced update is step_sde with its zero terms left out,
    # in the same term order, so the two agree bit for bit; checkpoints
    # built in blocks must also reduce in the order of lone ones, at every
    # cadence down to one checkpoint per step
    config = reference_designs()[name]
    table = sme.build_table(config, pulse, 1500)
    dws, dzs = sme.trajectory_noise(table, 5, range(5))
    rho0 = model.plus_density(config.n_qubits)
    for checkpoint_every in (7, 1, 1501):
        rho, records, diagnostics = sme.simulate_batch(
            config, table, rho0, dws, dzs, checkpoint_every=checkpoint_every)
        ref_rho, ref_records, ref_diagnostics = step_sde_reference(
            config, table, rho0, dws, dzs, checkpoint_every=checkpoint_every)
        assert np.array_equal(records, ref_records)
        assert np.array_equal(rho, ref_rho)
        assert_certified(diagnostics, ref_diagnostics)


#: steps per window of the S solve for one trajectory on the default
#: design from |+>, whose 8 states are stepped as 4 rows
ONE_TRAJECTORY_WINDOW = sme._WINDOW_ENTRIES // 4

#: grids around that window and around the _BLOCK_STEPS blocks of E: one
#: step, a window or block less one, one window or block, one and a step,
#: and past the two windows tabulated at a time (or two blocks); a batch
#: of 13 gets a window of 78 steps, so its grids end windows elsewhere
WINDOW_EDGES = [1] + [n for edge in (sme._BLOCK_STEPS, ONE_TRAJECTORY_WINDOW)
                      for n in (edge - 1, edge, edge + 1, 2 * edge + 1)]


@pytest.mark.parametrize("checkpoint_every", [1, 0])
@pytest.mark.parametrize("n_batch", [1, 13])
@pytest.mark.parametrize("n_steps", WINDOW_EDGES)
def test_window_edges_are_step_sde(config, pulse, n_steps, n_batch,
                                   checkpoint_every):
    # the windowed fixed-point solve ends windows and commits where the
    # step loop has no boundary; none of that may show in a bit
    table = sme.build_table(config, pulse, n_steps)
    dws, dzs = sme.trajectory_noise(table, 9, range(n_batch))
    rho0 = model.plus_density(config.n_qubits)
    rho, records, diagnostics = sme.simulate_batch(
        config, table, rho0, dws, dzs, checkpoint_every=checkpoint_every)
    ref_rho, ref_records, ref_diagnostics = step_sde_reference(
        config, table, rho0, dws, dzs,
        checkpoint_every=checkpoint_every or max(1, n_steps // 100))
    assert np.array_equal(records, ref_records)
    assert np.array_equal(rho, ref_rho)
    assert_certified(diagnostics, ref_diagnostics)


def test_nan_output_node_is_step_sde(config, pulse):
    # a NaN in c turns every later mean NaN; the solve must still end, on
    # the loop's values (NaN where it has NaN)
    built = sme.build_table(config, pulse, 600)
    output = built.output[:, built.classes]
    output[300, 5] = np.nan
    table = AmplitudeTable(built.times, built.alpha[..., built.classes],
                           output)
    dws, dzs = sme.trajectory_noise(table, 4, range(3))
    rho0, dws, dzs, nodes = sme._batch_inputs(
        config, table, model.plus_density(3), dws, dzs, 1)
    records = np.empty(dws.shape)
    s_nodes = np.array(list(sme._stepped_exponents(
        config, table, sme.measurement_diag(config, output), rho0, dws, dzs,
        nodes, records)))
    ref_s, ref_records = step_sde_exponents(config, table, rho0, dws, dzs)
    assert np.isnan(ref_records[:, 300:]).all()
    assert np.isfinite(ref_records[:, :300]).all()
    assert np.array_equal(records, ref_records, equal_nan=True)
    assert np.array_equal(s_nodes, ref_s, equal_nan=True)


def pure_density(amplitudes):
    psi = np.asarray(amplitudes, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def class_cases():
    """(config, states, n_steps) where the stepper's classes of identical
    states are not the columns of c, nor the states: popcount columns,
    a qubit with no coupling, populations that differ inside a column of
    the default design (its states 1, 2 and 4 share one), one of them
    zero, and the 6-qubit register. A batch cycles through the states."""
    default = model.default_config()
    uneven = np.ones(8)
    uneven[1] = 1.5
    hollow = np.ones(8)
    hollow[2] = 0.0
    hollow[1] = 0.5
    return {
        "4q_ones": (uniform_register(4), [model.plus_density(4)], 600),
        "zero_chi_column": (
            default.replace(chi=default.chi * np.array([1.0, 0.0, 1.0])),
            [model.plus_density(3)], 600),
        "populations": (default, [pure_density(hollow),
                                  model.plus_density(3),
                                  pure_density(uneven)], 600),
        "6q_ones": (uniform_register(model.MAX_QUBITS),
                    [model.plus_density(model.MAX_QUBITS)], 300),
    }


@pytest.mark.parametrize("n_batch", [1, 13])
@pytest.mark.parametrize("name", sorted(class_cases()))
def test_class_rows_are_step_sde(name, n_batch, pulse):
    # one stepped row per class of states stands for every state of the
    # class, and the sums over the basis still add state by state, so the
    # results are the d-row loop's bit for bit
    config, states, n_steps = class_cases()[name]
    table = sme.build_table(config, pulse, n_steps)
    dws, dzs = sme.trajectory_noise(table, 6, range(n_batch))
    rho0 = np.stack([states[b % len(states)] for b in range(n_batch)])
    for checkpoint_every in (7, 0):
        rho, records, diagnostics = sme.simulate_batch(
            config, table, rho0, dws, dzs, checkpoint_every=checkpoint_every)
        ref_rho, ref_records, ref_diagnostics = step_sde_reference(
            config, table, rho0, dws, dzs,
            checkpoint_every=checkpoint_every or max(1, n_steps // 100))
        assert np.array_equal(records, ref_records)
        assert np.array_equal(rho, ref_rho)
        assert_certified(diagnostics, ref_diagnostics)


def test_stepper_holds_one_row_per_class(config, pulse, monkeypatch):
    # 4 classes of 8 states on the default design from |+>, 7 of 64 at 6
    # qubits with chi all ones, and every state alone when the
    # populations differ inside every column, or when a table built by
    # hand carries no coupling classes
    step_nodes, rows = sme._step_nodes, set()

    def counting(first, *args):
        rows.add(len(first))
        return step_nodes(first, *args)

    monkeypatch.setattr(sme, "_step_nodes", counting)
    random_pure = pure_density(np.random.default_rng(3).uniform(0.5, 1.5, 8))
    for design, rho0, want in (
            (config, model.plus_density(3), 4),
            (uniform_register(model.MAX_QUBITS),
             model.plus_density(model.MAX_QUBITS), 7),
            (config, random_pure, 8)):
        table = sme.build_table(design, pulse, 300)
        dws, dzs = sme.trajectory_noise(table, 0, range(3))
        rows.clear()
        sme.simulate_batch(design, table, rho0, dws, dzs)
        assert rows == {want}
    built = sme.build_table(config, pulse, 300)
    table = AmplitudeTable(built.times, built.alpha[..., built.classes],
                           built.output[:, built.classes])
    dws, dzs = sme.trajectory_noise(table, 0, range(3))
    rows.clear()
    sme.simulate_batch(config, table, model.plus_density(3), dws, dzs)
    assert rows == {config.dim}


def test_one_trajectory_sweeps_a_long_window(config, pulse, monkeypatch):
    # a sweep costs about 40 numpy calls whatever its window holds, so one
    # trajectory's 4 rows get a window of 1024 steps, not the 256 of a
    # bound on steps alone (1038 calls here); each sweep steps its window
    # once and its committed steps once
    step_nodes, calls = sme._step_nodes, []

    def counting(*args):
        calls.append(len(args[0]))
        return step_nodes(*args)

    monkeypatch.setattr(sme, "_step_nodes", counting)
    table = sme.build_table(config, pulse, 30000)
    dws, dzs = sme.trajectory_noise(table, 0, [0])
    sme.simulate_batch(config, table, model.plus_density(3), dws, dzs)
    assert set(calls) == {4}
    assert len(calls) <= 400


def test_stepper_memory_does_not_grow_with_grid(config, pulse):
    # the classes come from the table, and c is gathered a table window
    # at a time, so no copy of every column of the grid is held (at 10^5
    # steps one would take 12.8 MB)
    n_steps = 10 ** 5
    table = sme.build_table(config, pulse, n_steps)
    c_all = sme.measurement_diag(config, table.output)
    rho0, dws, dzs, nodes = sme._batch_inputs(
        config, table, model.plus_density(3),
        *sme.trajectory_noise(table, 0, [0]), 0)
    records = np.empty(dws.shape)
    tracemalloc.start()
    try:
        for _ in sme._stepped_exponents(config, table, c_all, rho0, dws, dzs,
                                        nodes, records):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def coarsen(dws, dzs, ratio, h):
    """Sum blocks of `ratio` fine increments of step h into coarse ones.

    dW = sum_k dW_k and dZ = sum_k (dZ_k + W_k h), where W_k is the
    Brownian increment from the start of the coarse step to fine step k.
    """
    w = dws.reshape(len(dws), -1, ratio)
    z = dzs.reshape(len(dzs), -1, ratio)
    w_before = np.cumsum(w, axis=-1) - w
    return w.sum(axis=-1), (z + w_before * h).sum(axis=-1)


class TestAgainstDenseReference:
    def test_matches_dense_stepper_at_fine_steps(self, config, pulse):
        # same Brownian paths at 10^3 and 10^4 steps; the dense stepper is
        # itself about 7e-4 off at 10^3 steps, so 1e-4 tells them apart
        ratio, coarse = 10, 1000
        fine_table = sme.build_table(config, pulse, coarse * ratio)
        dws, dzs = sme.trajectory_noise(fine_table, 7, range(4))
        rho0 = np.broadcast_to(model.plus_density(3), (4, 8, 8))
        ref = dense_reference(config, fine_table, rho0, dws, dzs)
        table = sme.build_table(config, pulse, coarse)
        rho, _, _ = sme.simulate_batch(config, table, rho0,
                                       *coarsen(dws, dzs, ratio,
                                                fine_table.dt))
        assert np.abs(rho - ref).max() < 1e-4

    def test_no_detection_is_unconditional_evolution(self, config, pulse):
        # at eta = 0 the record carries no information: the conditioned
        # state is the deterministic one (trapezoid against Simpson E)
        cfg = config.replace(eta=0.0)
        n_steps = 1000
        table = sme.build_table(cfg, pulse, n_steps)
        dws, dzs = sme.trajectory_noise(table, 3, range(2))
        rho0 = np.broadcast_to(model.plus_density(3), (2, 8, 8))
        rho, _, _ = sme.simulate_batch(cfg, table, rho0, dws, dzs)
        det = sme.simulate_deterministic(cfg, pulse, n_steps=n_steps)
        assert np.abs(rho - det.rhos[-1]).max() < 1e-9


def register_configs():
    """Random designs: 1-4 qubits, 1-3 modes, any eta and phi."""
    def build(n_qubits, n_modes, values, eta, phi):
        rng = np.random.default_rng(values)
        return model.ReadoutConfig(
            n_qubits=n_qubits, n_modes=n_modes,
            chi=rng.uniform(0.5, 1.5, (n_modes, n_qubits)),
            kappa=rng.uniform(0.5, 4.0, n_modes),
            delta=rng.uniform(-3.0, 3.0, n_modes),
            gamma_z=rng.uniform(0.0, 0.01, n_qubits), eta=eta, phi=phi)
    return st.builds(build, st.integers(1, 4), st.integers(1, 3),
                     st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0),
                     st.floats(-np.pi, np.pi))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(cfg=register_configs(), seed=st.integers(0, 2 ** 16))
def test_conditioned_state_properties(cfg, seed):
    n_steps, batch = 150, 3
    table = sme.build_table(cfg, default_pulse(), n_steps)
    dws, dzs = sme.trajectory_noise(table, seed, range(batch))
    rho0 = np.broadcast_to(model.plus_density(cfg.n_qubits),
                           (batch, cfg.dim, cfg.dim))
    rho, rec, diag = sme.simulate_batch(cfg, table, rho0, dws, dzs)
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() < 1e-12
    assert np.abs(rho - rho.conj().swapaxes(1, 2)).max() < 1e-14
    assert diag.worst()["min_eig"] >= -1e-12
    for b in range(batch):
        rho_b, rec_b, _ = sme.simulate_batch(
            cfg, table, rho0[b:b + 1], dws[b:b + 1], dzs[b:b + 1])
        assert np.array_equal(rho[b], rho_b[0])
        assert np.array_equal(rec[b], rec_b[0])


def with_chi(cfg, chi):
    """cfg with chi random, all ones or without its first qubit's coupling:
    the last two put several states in a coupling class."""
    if chi == "ones":
        return cfg.replace(chi=np.ones_like(cfg.chi))
    if chi == "zero_column":
        return cfg.replace(chi=cfg.chi * (np.arange(cfg.n_qubits) > 0))
    return cfg


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cfg=register_configs(),
       chi=st.sampled_from(["random", "ones", "zero_column"]),
       n_steps=st.sampled_from([1, 2 * sme._SUB_STEPS + 3, 300]))
def test_class_exponents_over_random_designs(cfg, chi, n_steps):
    # chi all ones and a qubit with no coupling put several states in a
    # class; random chi leaves every state alone
    assert_class_exponents(with_chi(cfg, chi), default_pulse(), n_steps)


def assert_per_state_expansion_agrees(config, n_steps):
    """The class table against its per-state expansion, built by hand
    without classes.

    Where every class holds one state the two are the same arrays, and
    every result is the same bit for bit. Otherwise E is a u x u product
    on the class table and d x d on the expansion, and the law has 2 u + 3
    entries instead of 2 d + 3, so a result may differ in rounding: the
    records and the drawn states, which read c state by state, are still
    equal bit for bit, the states and diagnostics within 1e-13, and the
    law's mean and covariance within 1e-13 of their largest entry.
    """
    table = sme.build_table(config, default_pulse(), n_steps)
    per_state = AmplitudeTable(table.times, table.alpha[..., table.classes],
                               table.output[:, table.classes])
    exact = table.alpha.shape[-1] == config.dim
    rho0 = model.plus_density(config.n_qubits)
    dws, dzs = sme.trajectory_noise(table, 2, range(3))
    js, mws, mzs = sme.mixture_noise(config, table, rho0, 2, range(3))

    def assert_agree(got, want):
        assert np.array_equal(got[-2], want[-2])
        assert np.array_equal(got[-1].times, want[-1].times)
        for x, y in ((got[-3], want[-3]), *(
                (getattr(got[-1], f.name), getattr(want[-1], f.name))
                for f in fields(sme.Diagnostics)[1:])):
            if exact:
                assert np.array_equal(x, y)
            else:
                assert np.abs(x - y).max() <= 1e-13

    for every in (1, 0):
        assert_agree(
            *(sme.simulate_batch(config, t, rho0, dws, dzs, every)
              for t in (table, per_state)))
    assert_agree(*(sme.sample_batch(config, t, rho0, js, mws, mzs)
                   for t in (table, per_state)))

    laws = [sme.IntervalLaw(config, t, rho0) for t in (table, per_state)]
    samples = [law.sample(2, range(3)) for law in laws]
    assert np.array_equal(samples[0][0], samples[1][0])
    if exact:
        assert_agree(*samples)
    columns = table.classes
    expand = np.concatenate([np.stack([2 * columns, 2 * columns + 1],
                                      axis=-1).ravel(),
                             2 * table.alpha.shape[-1] + np.arange(3)])
    covariance = [np.concatenate([f.swapaxes(-1, -2) @ f
                                  for _, _, f, _ in law.runs])
                  for law in laws]
    for got, want in ((laws[0].mean[:, columns][..., expand], laws[1].mean),
                      (covariance[0][:, expand[:, None], expand],
                       covariance[1])):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cfg=register_configs(),
       chi=st.sampled_from(["random", "ones", "zero_column"]),
       n_steps=st.sampled_from([1, 150]))
def test_class_table_solves_as_its_per_state_expansion(cfg, chi, n_steps):
    assert_per_state_expansion_agrees(with_chi(cfg, chi), n_steps)


@pytest.mark.parametrize("name", ["6q_ones", "zero_chi_column"])
def test_class_table_solves_as_its_per_state_expansion_fixed(name):
    assert_per_state_expansion_agrees(class_exponent_designs()[name], 150)


def hermitian_with_positive_diagonal(rng, d, zero_population, negative):
    """A unit-trace Hermitian matrix whose populations pass _populations.

    M M^dag, with row 0 of M zeroed for a zero population; for a negative
    eigenvalue, plus t H with H Hermitian of zero diagonal, which keeps
    the populations. By Weyl, lambda_min(A + t H) <= lambda_max(A)
    + t lambda_min(H), and lambda_min(H) < 0 as tr H = 0, so
    t = 2 lambda_max(A) / |lambda_min(H)| makes it at most -lambda_max(A).
    """
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if zero_population:
        m[0] = 0.0
    a = m @ m.conj().T
    if negative:
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h += h.conj().T
        np.fill_diagonal(h, 0.0)
        a += (2.0 * np.linalg.eigvalsh(a)[-1]
              / -np.linalg.eigvalsh(h)[0]) * h
    np.fill_diagonal(a, np.diagonal(a).real)
    return a / np.trace(a).real


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_qubits=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       zero_population=st.booleans(), negative=st.booleans())
def test_positivity_bound_is_ostrowskis_bracket(n_qubits, seed,
                                                zero_population, negative):
    # at node 0, E = 0 and the state is D A D^dag / tr with A = rho0 and a
    # random nonsingular D = diag(exp(sqrt(eta) S)): its exact smallest
    # eigenvalue lies in [min theta, max theta] lambda_min(C) and has the
    # sign of lambda_min(A), and min_eig is the lower end; at node 1 it is
    # a lower bound with that sign too
    rng = np.random.default_rng(seed)
    config = model.ReadoutConfig(
        n_qubits=n_qubits, n_modes=1, chi=np.ones((1, n_qubits)),
        kappa=[2.0], delta=[0.5], gamma_z=np.full(n_qubits, 0.01), eta=0.7)
    d, n_batch, sqrt_eta = config.dim, 4, math.sqrt(0.7)
    a = hermitian_with_positive_diagonal(rng, d, zero_population, negative)
    table = sme.build_table(config, default_pulse(), 1)
    nodes = np.array([0, 1])
    s_nodes = (rng.uniform(-1.5, 1.5, (2, d, n_batch))
               + 1j * rng.uniform(-np.pi, np.pi, (2, d, n_batch)))
    rho0 = np.broadcast_to(a, (n_batch, d, d))
    _, diagnostics = sme._solve(
        config, table, sme.measurement_diag(config, table.output), rho0,
        nodes, iter(s_nodes))
    exact = np.array([np.linalg.eigvalsh(sme._conditioned_state(
        rho0, e, s.T, sqrt_eta))[:, 0] for e, s in zip(
            node_exponents(config, table, nodes), s_nodes)]).T
    sign = np.sign(np.linalg.eigvalsh(a)[0])
    assert np.all(diagnostics.min_eig <= exact + 1e-12)
    clear = np.abs(exact) > 1e-12
    assert np.all(np.sign(exact[clear]) == sign)
    assert np.all(np.sign(diagnostics.min_eig[clear]) == sign)
    if negative:
        assert np.all(diagnostics.min_eig < 0.0)

    p0 = np.diagonal(a).real
    scale = np.where(p0 > 0.0, p0, 1.0)
    lam = np.linalg.eigvalsh(a / np.sqrt(np.outer(scale, scale)))[0]
    weight = np.exp(2.0 * sqrt_eta * s_nodes[0].real.T) * scale
    theta = weight / (weight * (p0 > 0.0)).sum(axis=1, keepdims=True)
    ends = np.sort(lam * np.stack([theta.min(axis=1), theta.max(axis=1)]),
                   axis=0)
    assert np.all(ends[0] - 1e-12 <= exact[:, 0])
    assert np.all(exact[:, 0] <= ends[1] + 1e-12)
    assert np.allclose(diagnostics.min_eig[:, 0], ends[0], rtol=1e-9,
                       atol=1e-15)


@pytest.mark.parametrize("per_pass", [1, 128])
@pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_long"])
def test_solve_refuses_an_s_stream_of_the_wrong_length(config, monkeypatch,
                                                       per_pass, extra):
    # the nodes and S are zipped strictly: a missing S must not leak a bare
    # StopIteration, and an extra one must not be dropped, whether or not
    # the stream ends on a pass boundary (d x n_batch = 16 entries a node)
    monkeypatch.setattr(sme, "_PASS_ENTRIES", 16 * per_pass)
    table = sme.build_table(config, default_pulse(), 100)
    rho0, _, _, nodes = sme._batch_inputs(
        config, table, model.plus_density(3), np.zeros((2, 100)),
        np.zeros((2, 100)), 7)
    s_nodes = np.zeros((len(nodes) + extra, 8, 2), dtype=complex)
    with pytest.raises(ValueError, match="zip"):
        sme._solve(config, table, sme.measurement_diag(config, table.output),
                   rho0, nodes, iter(s_nodes))


def perturbed_states():
    """rho0 that pass _populations: not PSD, and a zero population with
    and without a negative eigenvalue (3 qubits)."""
    rng = np.random.default_rng(17)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h += h.conj().T
    np.fill_diagonal(h, 0.0)
    psi = np.full(8, 1.0 / math.sqrt(7.0))
    psi[0] = 0.0
    hollow = np.outer(psi, psi).astype(complex)
    leak = np.zeros((8, 8), dtype=complex)
    leak[0, 1] = leak[1, 0] = 0.05
    return {"not_psd": model.plus_density(3) + 0.01 * h,
            "zero_population": hollow,
            "zero_population_not_psd": hollow + leak}


def test_positivity_bound_on_states_that_are_not_psd(config, pulse):
    # rows from distinct rho0 each get their own certificate: a lower
    # bound on the dense state's eigenvalue at every checkpoint, negative
    # wherever rho0 is not PSD, and the row's value in a lone run
    states = perturbed_states()
    rho0 = np.stack(list(states.values()))
    table = sme.build_table(config, pulse, 300)
    dws, dzs = sme.trajectory_noise(table, 6, range(len(rho0)))
    got = sme.simulate_batch(config, table, rho0, dws, dzs)
    dense = step_sde_reference(config, table, rho0, dws, dzs, 3)
    assert np.array_equal(got[0], dense[0])
    assert np.array_equal(got[1], dense[1])
    assert_certified(got[2], dense[2])
    negative = [np.linalg.eigvalsh(state)[0] < -1e-3
                for state in states.values()]
    assert negative == [True, False, True]
    assert np.all(got[2].min_eig[negative] < 0.0)
    assert np.all(dense[2]["min_eig"][negative] < 0.0)
    for b in range(len(rho0)):
        lone = sme.simulate_batch(config, table, rho0[b], dws[b:b + 1],
                                  dzs[b:b + 1])
        assert_rows_equal(lone, got, slice(b, b + 1))


def per_node_solve(config, table, rho0, nodes, s_at_nodes):
    """_solve as it was before its noise-free half became a table: E and
    the certificate in blocks of 256 // n_batch checkpoints (at least
    one), zipped node by node with S, so the desk ensemble's 150 rows take
    it one checkpoint at a time. The reference the two-pass _solve must
    equal bit for bit.
    """
    n_batch = len(rho0)
    sqrt_eta = math.sqrt(config.eta)
    first, group = model.distinct_rows(rho0)
    states = rho0[first]
    p0 = np.einsum("gii->gi", states).real
    shown = p0 > 0.0
    p0 = np.where(shown, p0, 1.0)
    coherence = states / np.sqrt(p0[:, :, None] * p0[:, None, :])
    log_p0 = np.log(p0)
    in_trace = shown.T[:, None, group]
    per_block = max(1, 256 // n_batch)
    pairs = zip(node_exponents(config, table, nodes), s_at_nodes,
                strict=True)
    bounds = []
    for block in iter(lambda: tuple(itertools.islice(pairs, per_block)), ()):
        e = np.stack([e_n for e_n, _ in block])
        diag_e = np.einsum("kii->ki", e).real
        lam = np.linalg.eigvalsh(coherence[:, None] * np.exp(
            e - 0.5 * (diag_e[:, :, None] + diag_e[:, None, :])))[..., 0]
        x = np.multiply(np.stack([s_n.real for _, s_n in block], axis=1),
                        2.0 * sqrt_eta)
        x += (log_p0[:, None] + diag_e).T[:, :, group]
        theta = np.exp(
            x - np.maximum.reduce(np.where(in_trace, x, -np.inf), axis=0))
        theta /= sme._column_sum(np.where(in_trace, theta, 0.0))
        lam = lam.T[:, group]
        bounds.append(lam * np.where(lam < 0.0,
                                     np.maximum.reduce(theta, axis=0),
                                     np.minimum.reduce(theta, axis=0)))
    rho = sme._conditioned_state(rho0, e[-1], block[-1][1].T, sqrt_eta)
    checks = sme._final_checks(
        rho, sme.DriftOperator(config).diagonal(
            table.alpha[nodes[-1]][:, table.classes]))
    return rho, sme.Diagnostics(times=table.times[nodes],
                                min_eig=np.concatenate(bounds).T, **checks)


def assert_solved_equal(got, want):
    """(rho_final, diagnostics) pairs equal bit for bit."""
    assert np.array_equal(got[0], want[0])
    for field in fields(sme.Diagnostics):
        assert np.array_equal(getattr(got[1], field.name),
                              getattr(want[1], field.name)), field.name


def distinct_states(n_qubits):
    """|+><+| and rho0 that pass _populations but are not all states: not
    PSD, a zero population, both (and perturbed_states() at 3 qubits)."""
    rng = np.random.default_rng(23)
    d = 2 ** n_qubits
    states = [model.plus_density(n_qubits)] + [
        hermitian_with_positive_diagonal(rng, d, zero_population, negative)
        for zero_population, negative in ((False, True), (True, False),
                                          (True, True))]
    if n_qubits == 3:
        states += list(perturbed_states().values())
    return states


@pytest.mark.parametrize("name", sorted(reference_designs()))
def test_solve_equals_the_per_node_loop(name, pulse, monkeypatch):
    # the noise-free table and the passes over S change no bit: at every
    # cadence, at batches of 1, 13 and 150, from one shared rho0 and from
    # distinct ones, and through the interval law, which keeps its table
    config = reference_designs()[name]
    n_steps = 300
    table = sme.build_table(config, pulse, n_steps)
    c_all = sme.measurement_diag(config, table.output)
    states = distinct_states(config.n_qubits)
    every_node = np.arange(n_steps + 1)
    for n_batch in (1, 13, 150):
        dws, dzs = sme.trajectory_noise(table, 8, range(n_batch))
        for rho0 in (np.broadcast_to(states[0], (n_batch,) + states[0].shape),
                     np.stack([states[b % len(states)]
                               for b in range(n_batch)])):
            # S at every node; a node's S does not depend on the cadence
            s_all = list(sme._stepped_exponents(
                config, table, c_all, rho0, dws, dzs, every_node,
                np.empty(dws.shape)))
            for every in (1, 7, 0):
                nodes = sme._checkpoints(n_steps, every)
                assert_solved_equal(
                    sme._solve(config, table, c_all, rho0, nodes,
                               (s_all[n] for n in nodes)),
                    per_node_solve(config, table, rho0, nodes,
                                   (s_all[n] for n in nodes)))

    solve, calls = sme._Certificate.solve, []

    def spying(self, rho0, group, s_at_nodes):
        s_nodes = list(s_at_nodes)
        out = solve(self, rho0, group, iter(s_nodes))
        calls.append((rho0, s_nodes, out))
        return out

    monkeypatch.setattr(sme._Certificate, "solve", spying)
    law = sme.IntervalLaw(config, table, states[0])
    for indices in (range(150), range(150, 163)):
        law.sample(4, indices)
    for rho0, s_nodes, out in calls:
        assert_solved_equal(out, per_node_solve(config, table, rho0,
                                                law.nodes, iter(s_nodes)))


class TestDiffusion:
    def test_traceless(self, rng):
        rho = random_density(rng, 8)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = sme.diffusion(rho, c, 1.0)
        assert abs(np.trace(out)) < 1e-14

    def test_vanishes_on_basis_state(self, rng):
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        rho = np.zeros((8, 8), dtype=complex)
        rho[5, 5] = 1.0
        out = sme.diffusion(rho, c, 1.0)
        assert np.max(np.abs(out)) < 1e-15

    def test_zero_measurement_operator(self, rng):
        rho = random_density(rng, 8)
        out = sme.diffusion(rho, np.zeros(8, dtype=complex), 1.0)
        assert np.all(out == 0.0)

    def test_preserves_hermiticity(self, rng):
        rho = random_density(rng, 8)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = sme.diffusion(rho, c, 0.7)
        assert np.allclose(out, out.conj().T, atol=1e-14)

    def test_scales_with_sqrt_eta(self, rng):
        rho = random_density(rng, 8)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        full = sme.diffusion(rho, c, 1.0)
        half = sme.diffusion(rho, c, 0.5)
        assert np.allclose(half, 0.5 * full)

    def test_batch_axis(self, rng):
        rhos = np.stack([random_density(rng, 4) for _ in range(3)])
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        batched = sme.diffusion(rhos, c, 1.0)
        assert batched.shape == (3, 4, 4)
        for b in range(3):
            assert np.allclose(batched[b], sme.diffusion(rhos[b], c, 1.0))


class TestPhotocurrent:
    def test_mean_formula(self, rng):
        rho = random_density(rng, 8)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        expected = np.sum(2.0 * c.real * np.diag(rho).real)
        assert sme.expected_photocurrent(rho, c, 1.0) == pytest.approx(expected)
        assert sme.expected_photocurrent(rho, c, 0.25) == pytest.approx(
            0.5 * expected)

    def test_batch_shape(self, rng):
        rhos = np.stack([random_density(rng, 4) for _ in range(5)])
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = sme.expected_photocurrent(rhos, c, 1.0)
        assert out.shape == (5,)


class TestStepSde:
    def test_nonautonomous_drift_uses_endpoint(self):
        # dy = t dt with no noise: the two-sided supporting values give the
        # trapezoid rule, which integrates a linear-in-t drift exactly
        y0 = np.zeros(1)
        dt = 0.1
        out = sme.step_sde(y0, 0.0, dt,
                           lambda y, t: np.full_like(y, t),
                           lambda y, t: np.zeros_like(y),
                           0.0, 0.0)
        assert out[0] == pytest.approx(0.5 * dt * dt, abs=1e-18)

    def test_additive_noise_is_exact(self):
        # constant diffusion, zero drift: y1 = y0 + sigma dW with every
        # correction term cancelling identically
        y0 = np.array([0.4])
        out = sme.step_sde(y0, 0.0, 0.05,
                           lambda y, t: np.zeros_like(y),
                           lambda y, t: np.full_like(y, 0.3),
                           0.123, 0.0045)
        assert out[0] == pytest.approx(0.4 + 0.3 * 0.123, abs=1e-16)

    def test_deterministic_step_is_pure_function(self, rng):
        y0 = rng.normal(size=4)
        args = (0.2, 0.01, lambda y, t: -y, lambda y, t: 0.1 * y, 0.03, 0.001)
        a = sme.step_sde(y0, *args)
        b = sme.step_sde(y0, *args)
        assert np.array_equal(a, b)


class TestWienerIncrements:
    def test_moments(self):
        rng = np.random.default_rng(99)
        dt = 0.01
        n = 400_000
        dw, dz = sme.wiener_increments(rng, n, dt)
        assert dw.shape == (n,)
        assert dz.shape == (n,)
        assert abs(np.mean(dw)) < 5.0 * np.sqrt(dt / n)
        assert np.mean(dw ** 2) == pytest.approx(dt, rel=0.02)
        assert np.mean(dz ** 2) == pytest.approx(dt ** 3 / 3.0, rel=0.02)
        assert np.mean(dw * dz) == pytest.approx(0.5 * dt ** 2, rel=0.02)

    def test_trajectory_rng_reproducible(self):
        a = sme.trajectory_rng(7, 3).standard_normal(16)
        b = sme.trajectory_rng(7, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_trajectory_rng_streams_distinct(self):
        a = sme.trajectory_rng(7, 0).standard_normal(16)
        b = sme.trajectory_rng(7, 1).standard_normal(16)
        c = sme.trajectory_rng(8, 0).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, index, match", [
        (1.5, 0, "seed"), (0, 1.5, "index"), (True, 0, "seed"),
        (0, False, "index")])
    def test_trajectory_rng_needs_integer_seed_and_index(self, seed, index,
                                                          match):
        with pytest.raises(ConfigError, match=f"{match} must be an integer"):
            sme.trajectory_rng(seed, index)


class TestSimulateTrajectory:
    def test_reproducible(self, config):
        a = sme.simulate_trajectory(config, n_steps=400, base_seed=11,
                                    trajectory_index=2)
        b = sme.simulate_trajectory(config, n_steps=400, base_seed=11,
                                    trajectory_index=2)
        assert np.array_equal(a.photocurrent, b.photocurrent)
        assert np.array_equal(a.rho_final, b.rho_final)

    def test_different_index_different_noise(self, config):
        a = sme.simulate_trajectory(config, n_steps=400, base_seed=11,
                                    trajectory_index=0)
        b = sme.simulate_trajectory(config, n_steps=400, base_seed=11,
                                    trajectory_index=1)
        assert not np.array_equal(a.photocurrent, b.photocurrent)

    def test_result_shapes(self, config):
        out = sme.simulate_trajectory(config, n_steps=300)
        assert out.photocurrent.shape == (300,)
        assert out.table.times.shape == (301,)
        assert out.rho_final.shape == (8, 8)
        # default cadence: every n_steps // 100 steps, plus t = 0; the
        # positivity bound at each, the other fields on the final state
        assert out.diagnostics.times.shape == (101,)
        assert out.diagnostics.min_eig.shape == (1, 101)
        for name in ("trace_dev", "herm_dev", "purity", "diag_drift"):
            assert getattr(out.diagnostics, name).shape == (1,), name

    def test_zero_drive_zero_rates_state_frozen(self, config):
        cfg = config.replace(gamma_z=np.zeros(3))
        out = sme.simulate_trajectory(cfg, default_pulse().replace(eps_ss=0.0),
                                      n_steps=200)
        assert np.array_equal(out.rho_final, model.plus_density(3))
        # the record is then pure detector noise dW/dt
        scale = 1.0 / np.sqrt(out.table.dt)
        assert abs(np.mean(out.photocurrent)) < 5.0 * scale / np.sqrt(200)


def spiked_noise(position, value):
    """One row of 100 zero increments with value at position."""
    noise = np.zeros((1, 100))
    noise[0, position] = value
    return noise


def assert_rows_equal(got, want, rows):
    """(rho, records, diagnostics) of got equal rows of want bit for bit."""
    assert np.array_equal(got[0], want[0][rows])
    assert np.array_equal(got[1], want[1][rows])
    assert np.array_equal(got[2].times, want[2].times)
    for field in fields(sme.Diagnostics)[1:]:
        assert np.array_equal(getattr(got[2], field.name),
                              getattr(want[2], field.name)[rows]), field.name


#: malformed batch inputs with the ConfigError message each must raise, on
#: a 100-step grid of the default design
DEGENERATE_BATCHES = [
    (model.plus_density(3), np.zeros(100), np.zeros(100), "shape"),
    (np.eye(4) / 4, np.zeros((1, 100)), np.zeros((1, 100)), "rho0 has shape"),
    (np.stack([model.plus_density(3)] * 3), np.zeros((1, 100)),
     np.zeros((1, 100)), "3 states for 1"),
    (model.plus_density(3), spiked_noise(37, np.nan), np.zeros((1, 100)),
     "dws"),
    (model.plus_density(3), np.zeros((1, 100)), spiked_noise(99, -np.inf),
     "dzs"),
    (-model.plus_density(3), np.zeros((1, 100)), np.zeros((1, 100)),
     "negative"),
    (2 * model.plus_density(3), np.zeros((1, 100)), np.zeros((1, 100)),
     "unit trace"),
    (model.plus_density(3), np.zeros((0, 100)), np.zeros((0, 100)),
     "no rows"),
]
DEGENERATE_IDS = ["1d_noise", "rho0_of_other_register",
                  "rho0_rows_not_noise_rows", "nan_in_dws", "inf_in_dzs",
                  "negative_rho0", "rho0_trace_two", "no_noise_rows"]


def assert_table_rejected(config, table, match):
    """Each solver that takes a table refuses this one with ConfigError."""
    rho0 = model.plus_density(config.n_qubits)
    dws, dzs = sme.trajectory_noise(table, 0, range(2))
    with pytest.raises(ConfigError, match=match):
        sme.simulate_batch(config, table, rho0, dws, dzs)
    with pytest.raises(ConfigError, match=match):
        sme.sample_batch(config, table, rho0, [0, 5], dws, dzs)
    with pytest.raises(ConfigError, match=match):
        sme.IntervalLaw(config, table, rho0)


class TestSimulateBatch:
    def test_rows_match_single_runs(self, config):
        table = sme.build_table(config, default_pulse(), 250)
        rng = np.random.default_rng(5)
        dws = np.empty((2, 250))
        dzs = np.empty((2, 250))
        for b in range(2):
            dws[b], dzs[b] = sme.wiener_increments(rng, 250, table.dt)
        rho0 = np.broadcast_to(model.plus_density(3), (2, 8, 8)).copy()
        rho, rec, _ = sme.simulate_batch(config, table, rho0, dws, dzs)
        for b in range(2):
            rho_b, rec_b, _ = sme.simulate_batch(
                config, table, rho0[b:b + 1], dws[b:b + 1], dzs[b:b + 1])
            assert np.array_equal(rho[b], rho_b[0])
            assert np.array_equal(rec[b], rec_b[0])

    def test_lone_rows_match_batch_diagnostics(self, config):
        # the diagnostics too: a lone row's state must have the layout of
        # the same row in a batch, or trace_dev and purity round apart
        table = sme.build_table(config, default_pulse(), 300)
        dws, dzs = sme.trajectory_noise(table, 4, range(13))
        rho0 = model.plus_density(3)
        want = sme.simulate_batch(config, table, rho0, dws, dzs)
        for b in range(13):
            got = sme.simulate_batch(config, table, rho0, dws[b:b + 1],
                                     dzs[b:b + 1])
            assert_rows_equal(got, want, slice(b, b + 1))

    def test_shared_initial_state(self, config):
        table = sme.build_table(config, default_pulse(), 200)
        dws, dzs = sme.trajectory_noise(table, 4, range(3))
        rho0 = model.plus_density(3)
        shared = sme.simulate_batch(config, table, rho0, dws, dzs)
        stacked = sme.simulate_batch(config, table,
                                     np.stack([rho0] * 3), dws, dzs)
        assert np.array_equal(shared[0], stacked[0])
        assert np.array_equal(shared[1], stacked[1])

    def test_wrapper_equivalence(self, config):
        traj = sme.simulate_trajectory(config, n_steps=250, base_seed=7,
                                       trajectory_index=3)
        table = traj.table
        dw, dz = sme.wiener_increments(sme.trajectory_rng(7, 3), 250, table.dt)
        rho, rec, _ = sme.simulate_batch(
            config, table, model.plus_density(3)[None], dw[None], dz[None])
        assert np.array_equal(traj.photocurrent, rec[0])
        assert np.array_equal(traj.rho_final, rho[0])

    def test_checkpoint_cadence(self, config):
        table = sme.build_table(config, default_pulse(), 200)
        rho0 = model.plus_density(3)[None]
        dw, dz = sme.wiener_increments(np.random.default_rng(0), 200, table.dt)
        _, _, diag = sme.simulate_batch(config, table, rho0, dw[None],
                                        dz[None], checkpoint_every=50)
        assert diag.times.shape == (5,)
        assert diag.times[0] == 0.0
        assert diag.times[-1] == pytest.approx(13.5)

    def test_noise_shape_mismatch_rejected(self, config):
        table = sme.build_table(config, default_pulse(), 100)
        rho0 = model.plus_density(3)[None]
        with pytest.raises(ConfigError):
            sme.simulate_batch(config, table, rho0, np.zeros((1, 99)),
                               np.zeros((1, 99)))

    @pytest.mark.parametrize("rho0, dws, dzs, match", DEGENERATE_BATCHES,
                             ids=DEGENERATE_IDS)
    def test_degenerate_input_rejected(self, config, rho0, dws, dzs, match):
        table = sme.build_table(config, default_pulse(), 100)
        with pytest.raises(ConfigError, match=match):
            sme.simulate_batch(config, table, rho0, dws, dzs)

    def test_table_of_other_register_rejected(self, config):
        table = sme.build_table(config, default_pulse(), 100)
        small = model.ReadoutConfig(n_qubits=2, n_modes=1, chi=[[1.0, 1.0]],
                                    delta=[0.5], kappa=[2.0],
                                    gamma_z=[0.0, 0.0])
        dws, dzs = sme.trajectory_noise(table, 0, range(2))
        with pytest.raises(ConfigError, match="amplitude table"):
            sme.simulate_batch(small, table, model.plus_density(2), dws, dzs)

    @pytest.mark.parametrize("classes, match", [
        (np.zeros(7, dtype=int), r"shape \(7,\)"),
        (np.zeros(8), "dtype float64"),
        (np.array([0, 1, 1, 2, 1, 2, 2, 4]), "each of the 4 columns"),
        (np.array([0, 1, 1, 2, 1, 2, 2, -1]), "each of the 4 columns"),
    ], ids=["too_short", "float", "above_register", "negative"])
    def test_bad_table_classes_rejected(self, config, classes, match):
        built = sme.build_table(config, default_pulse(), 100)
        assert_table_rejected(config, AmplitudeTable(
            built.times, built.alpha, built.output, classes), match)

    @pytest.mark.parametrize("labels", [[0] * 8, [0, 1, 1, 3, 1, 3, 3, 3]],
                             ids=["one_of_four", "skips_column_2"])
    def test_table_classes_name_every_column(self, config, labels):
        # uncoupled, every state has the same signed chi sums, so only the
        # columns no state is named to can fail the table
        config = config.replace(chi=np.zeros_like(config.chi))
        built = sme.build_table(config, default_pulse(), 100)
        four_columns = AmplitudeTable(built.times, built.alpha[..., [0] * 4],
                                      built.output[:, [0] * 4], labels)
        assert_table_rejected(config, four_columns, "each of the 4 columns")
        sme._check_table(config, AmplitudeTable(
            built.times, built.alpha[..., :1], built.output[:, :1],
            np.zeros(8, dtype=int)))

    def test_table_column_counts_must_agree(self, config):
        # class amplitudes with per-state outputs, and per-state amplitudes
        # with class outputs
        built = sme.build_table(config, default_pulse(), 100)
        classes = built.classes
        for alpha, output in ((built.alpha, built.output[:, classes]),
                              (built.alpha[..., classes], built.output)):
            assert_table_rejected(
                config, AmplitudeTable(built.times, alpha, output, classes),
                "an output per column")

    def test_table_nodes_must_match_times(self, config):
        # the solvers take the step count from times, so a 200-step table
        # with the times of its first 100 steps would be solved as 100
        # steps over the first half of the pulse
        built = sme.build_table(config, default_pulse(), 200)
        for times, alpha, output in (
                (built.times[:101], built.alpha, built.output),
                (built.times, built.alpha[:101], built.output),
                (built.times, built.alpha, built.output[:101])):
            assert_table_rejected(
                config,
                AmplitudeTable(times, alpha, output, built.classes),
                "need a node per time")

    def test_classes_across_coupling_classes_rejected(self, config):
        # state 3 of the default design is named to the column of states 1,
        # 2 and 4, whose signed chi sums differ from its own, so the
        # solvers would read the amplitudes of another A_j for it
        built = sme.build_table(config, default_pulse(), 100)
        merged = built.classes.copy()
        merged[3] = merged[1]
        assert merged[3] != built.classes[3]
        table = AmplitudeTable(built.times, built.alpha, built.output, merged)
        assert_table_rejected(config, table, "signed chi sums differ")

    @pytest.mark.parametrize("every", [2.5, float("nan"), True, -5])
    def test_non_integer_cadence_rejected(self, config, every):
        table = sme.build_table(config, default_pulse(), 100)
        dws, dzs = sme.trajectory_noise(table, 0, range(2))
        with pytest.raises(ConfigError, match="checkpoint_every"):
            sme.simulate_batch(config, table, model.plus_density(3), dws, dzs,
                               checkpoint_every=every)

    @pytest.mark.parametrize("n_batch", [1, 13])
    @pytest.mark.parametrize("name, value", [
        ("_BLOCK_MATRICES", 1), ("_BLOCK_MATRICES", 7),
        ("_BLOCK_MATRICES", 10 ** 6), ("_BLOCK_STEPS", 5),
        # one step per window; and 65 (batch 1) or 5 (batch 13) steps
        ("_WINDOW_ENTRIES", 1), ("_WINDOW_ENTRIES", 4 * 13 * 5),
        # one checkpoint per pass; and 39 (batch 1) or 3 (batch 13) of the
        # 44 or 101 checkpoints
        ("_PASS_ENTRIES", 1), ("_PASS_ENTRIES", 8 * 39)])
    def test_block_sizes_invisible(self, config, monkeypatch, n_batch, name,
                                   value):
        table = sme.build_table(config, default_pulse(), 300)
        dws, dzs = sme.trajectory_noise(table, 2, range(n_batch))
        rho0 = model.plus_density(3)
        for every in (7, 0):
            want = sme.simulate_batch(config, table, rho0, dws, dzs,
                                      checkpoint_every=every)
            with monkeypatch.context() as patch:
                patch.setattr(sme, name, value)
                got = sme.simulate_batch(config, table, rho0, dws, dzs,
                                         checkpoint_every=every)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            for field in fields(sme.Diagnostics):
                assert np.array_equal(getattr(got[2], field.name),
                                      getattr(want[2], field.name)), (
                    field.name)

    @pytest.mark.parametrize("n_batch", [1, 13])
    def test_checkpoint_cadence_invisible_in_results(self, config, n_batch):
        # checkpoints also end the chunks the loop tabulates per step
        table = sme.build_table(config, default_pulse(), 300)
        dws, dzs = sme.trajectory_noise(table, 2, range(n_batch))
        rho0 = model.plus_density(3)
        rho, records, _ = sme.simulate_batch(config, table, rho0, dws, dzs,
                                             checkpoint_every=1)
        for every in (7, 0, 305):
            got = sme.simulate_batch(config, table, rho0, dws, dzs,
                                     checkpoint_every=every)
            assert np.array_equal(got[0], rho)
            assert np.array_equal(got[1], records)


class TestDiagnostics:
    def test_threshold_table(self):
        t = sme.DIAGNOSTIC_THRESHOLDS
        assert t["trace_dev"] == 1e-10
        assert t["herm_dev"] == 1e-12
        assert t["min_eig"] == -1e-8
        assert t["purity_excess"] == 1e-8
        assert t["diag_drift"] == 1e-10

    def test_violations_flag_breaches(self):
        zero = np.zeros(1)
        diag = sme.Diagnostics(times=np.array([0.0, 1.0]),
                               trace_dev=zero, herm_dev=zero,
                               min_eig=np.array([[0.1, -1e-7]]),
                               purity=1.0 + np.array([2e-8]),
                               diag_drift=zero)
        assert set(diag.violations()) == {"min_eig", "purity_excess"}

    def test_worst_aggregates(self):
        diag = sme.Diagnostics(times=np.array([0.0]),
                               trace_dev=np.array([3e-11]),
                               herm_dev=np.array([1e-13]),
                               min_eig=np.array([[1e-3]]),
                               purity=np.array([0.5]),
                               diag_drift=np.array([0.0]))
        w = diag.worst()
        assert w["trace_dev"] == pytest.approx(3e-11)
        assert w["purity_excess"] == pytest.approx(-0.5)
        assert diag.violations() == []
