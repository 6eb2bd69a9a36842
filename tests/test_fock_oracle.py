"""Tests for the truncated full-space oracle.

The oracle keeps the cavity modes as explicit Fock-space factors, so
every reduced-model quantity (pointer amplitudes, register coherences,
dephasing rates) can be checked against an independent dense Lindblad
integration here.
"""

import math

import numpy as np
import pytest

from paritysim import cavity, model
from paritysim.errors import ConfigError
from paritysim.pulse import default_pulse

import fock_oracle
from fock_oracle import TruncationError


def two_qubit_config(**overrides):
    base = dict(n_qubits=2, n_modes=1, chi=[[1.0, 1.0]], delta=[0.5],
                kappa=[2.0], gamma_z=[0.0, 0.0], eta=1.0)
    base.update(overrides)
    return model.ReadoutConfig(**base)


def single_qubit_config(**overrides):
    base = dict(n_qubits=1, n_modes=1, chi=[[1.0]], delta=[0.7],
                kappa=[2.0], gamma_z=[0.0], eta=1.0)
    base.update(overrides)
    return model.ReadoutConfig(**base)


class TestCoherentState:

    def test_entries_match_series(self):
        alpha = 0.3 - 0.4j
        vec = fock_oracle.coherent_state(alpha, 12)
        for n in range(12):
            want = math.exp(-abs(alpha) ** 2 / 2.0) * alpha ** n \
                / math.sqrt(math.factorial(n))
            assert abs(vec[n] - want) < 1e-14

    def test_norm_close_to_one_for_small_amplitude(self):
        vec = fock_oracle.coherent_state(0.6, 15)
        assert abs(np.vdot(vec, vec).real - 1.0) < 1e-10

    def test_mean_occupation(self):
        alpha = 0.5 + 0.2j
        vec = fock_oracle.coherent_state(alpha, 15)
        nbar = float(np.sum(np.arange(15) * np.abs(vec) ** 2))
        assert abs(nbar - abs(alpha) ** 2) < 1e-9

    def test_destruction_eigenvector_below_truncation(self):
        n_max = 10
        alpha = 0.5 - 0.1j
        vec = fock_oracle.coherent_state(alpha, n_max)
        a = np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(complex)
        lowered = a @ vec
        # exact except for the top component lost to truncation
        assert np.max(np.abs(lowered[:-1] - alpha * vec[:-1])) < 1e-13

    def test_vacuum_is_first_basis_vector(self):
        vec = fock_oracle.coherent_state(0.0, 6)
        want = np.zeros(6, dtype=complex)
        want[0] = 1.0
        assert np.array_equal(vec, want)


class TestCoherentOverlap:

    def test_matches_truncated_inner_product(self):
        pairs = [(0.4, 0.3 + 0.2j), (-0.5j, 0.6), (0.2 + 0.2j, -0.3 + 0.1j)]
        for beta, alpha in pairs:
            direct = np.vdot(fock_oracle.coherent_state(beta, 15),
                             fock_oracle.coherent_state(alpha, 15))
            closed = fock_oracle.coherent_overlap(beta, alpha)
            assert abs(direct - closed) < 1e-10

    def test_modulus_squared_is_gaussian_in_separation(self):
        beta, alpha = 0.7 - 0.3j, -0.2 + 0.5j
        got = abs(fock_oracle.coherent_overlap(beta, alpha)) ** 2
        assert abs(got - math.exp(-abs(alpha - beta) ** 2)) < 1e-12

    def test_self_overlap_is_unity(self):
        assert fock_oracle.coherent_overlap(0.8j, 0.8j) == pytest.approx(1.0, abs=1e-15)


class TestPointerState:

    def test_reduce_applies_overlap_gram_matrix(self, rng):
        n_max = 15
        n_qubits, n_modes = 2, 2
        dim = 2 ** n_qubits
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho_q = raw @ raw.conj().T
        rho_q /= np.trace(rho_q).real
        alpha = 0.4 * (rng.normal(size=(n_modes, dim))
                       + 1j * rng.normal(size=(n_modes, dim)))
        full = fock_oracle.pointer_state(rho_q, alpha, n_max)
        reduced = fock_oracle.reduce(full)
        gram = np.ones((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                for k in range(n_modes):
                    gram[i, j] *= fock_oracle.coherent_overlap(
                        alpha[k, j], alpha[k, i])
        assert np.max(np.abs(reduced - rho_q * gram)) < 1e-10

    def test_vacuum_pointer_reduces_exactly(self):
        rho_q = model.plus_density(2)
        alpha = np.zeros((1, 4), dtype=complex)
        full = fock_oracle.pointer_state(rho_q, alpha, 4)
        assert np.array_equal(fock_oracle.reduce(full), rho_q)

    def test_trace_preserved_at_small_amplitude(self, rng):
        rho_q = model.plus_density(2)
        alpha = 0.3 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        full = fock_oracle.pointer_state(rho_q, alpha, 15)
        assert abs(np.trace(full.rho).real - 1.0) < 1e-10

    def test_inconsistent_register_dimension_rejected(self):
        rho_q = model.plus_density(2)
        alpha = np.zeros((1, 8), dtype=complex)
        with pytest.raises(ConfigError):
            fock_oracle.pointer_state(rho_q, alpha, 4)

    def test_conditioned_amplitudes_recover_pointer(self, rng):
        dim = 4
        alpha = 0.3 * (rng.normal(size=(1, dim)) + 1j * rng.normal(size=(1, dim)))
        full = fock_oracle.pointer_state(model.plus_density(2), alpha, 15)
        got = fock_oracle.conditioned_amplitudes(full)
        assert got.shape == (1, dim)
        assert np.max(np.abs(got - alpha)) < 1e-9

    def test_conditioned_amplitudes_nan_on_empty_register(self):
        rho_q = np.zeros((4, 4), dtype=complex)
        rho_q[2, 2] = 1.0
        alpha = np.full((1, 4), 0.25 + 0.1j)
        full = fock_oracle.pointer_state(rho_q, alpha, 12)
        got = fock_oracle.conditioned_amplitudes(full)
        assert abs(got[0, 2] - (0.25 + 0.1j)) < 1e-9
        for j in (0, 1, 3):
            assert np.isnan(got[0, j].real)


class TestIntegrateFullGuards:

    def test_three_qubits_rejected(self):
        config = model.ReadoutConfig(n_qubits=3, n_modes=1,
                                     chi=[[1.0, 1.0, 1.0]], delta=[0.5],
                                     kappa=[2.0], gamma_z=[0.0] * 3, eta=1.0)
        with pytest.raises(ConfigError):
            fock_oracle.integrate_full(config, lambda t: 0.0, n_max=3,
                                       n_steps=2, t_final=0.1)

    def test_three_modes_rejected(self):
        config = model.ReadoutConfig(n_qubits=2, n_modes=3,
                                     chi=[[1.0, 1.0]] * 3,
                                     delta=[0.5, 0.5, 0.5],
                                     kappa=[2.0, 2.0, 2.0],
                                     gamma_z=[0.0, 0.0], eta=1.0)
        with pytest.raises(ConfigError):
            fock_oracle.integrate_full(config, lambda t: 0.0, n_max=3,
                                       n_steps=2, t_final=0.1)

    def test_fock_cutoff_bounds(self):
        config = two_qubit_config()
        for bad in (1, 16):
            with pytest.raises(ConfigError):
                fock_oracle.integrate_full(config, lambda t: 0.0, n_max=bad,
                                           n_steps=2, t_final=0.1)

    def test_callable_drive_needs_t_final(self):
        with pytest.raises(ConfigError):
            fock_oracle.integrate_full(two_qubit_config(), lambda t: 0.0,
                                       n_max=3, n_steps=2)

    def test_initial_shape_rejected(self):
        with pytest.raises(ConfigError):
            fock_oracle.integrate_full(two_qubit_config(), lambda t: 0.0,
                                       n_max=3, n_steps=2, t_final=0.1,
                                       initial=np.eye(5, dtype=complex) / 5.0)

    def test_strong_pulse_fails_amplitude_precheck(self):
        pulse = default_pulse().replace(eps_ss=3.0)
        with pytest.raises(TruncationError):
            fock_oracle.integrate_full(single_qubit_config(), pulse, n_max=8,
                                       n_steps=10)

    def test_top_level_population_aborts_run(self):
        config = single_qubit_config(delta=[0.0])
        with pytest.raises(TruncationError):
            fock_oracle.integrate_full(config, lambda t: 2.5, n_max=4,
                                       n_steps=300, t_final=4.0)


class TestIntegrateFull:

    def test_diagonal_initial_state_is_frozen_without_drive(self):
        config = two_qubit_config(gamma_z=[0.2, 0.3])
        rho_q = np.zeros((4, 4), dtype=complex)
        rho_q[0, 0] = 1.0
        snaps = fock_oracle.integrate_full(config, lambda t: 0.0, n_max=3,
                                           n_steps=40, t_final=1.0,
                                           initial=rho_q)
        t0, first = snaps[0]
        t1, last = snaps[-1]
        assert t0 == 0.0 and t1 == 1.0
        assert np.array_equal(last.rho, first.rho)

    def test_undriven_dephasing_matches_closed_form(self):
        gamma = np.array([0.2, 0.35])
        config = two_qubit_config(gamma_z=list(gamma))
        snaps = fock_oracle.integrate_full(config, lambda t: 0.0, n_max=3,
                                           n_steps=800, t_final=2.0,
                                           store_every=800)
        t, final = snaps[-1]
        reduced = fock_oracle.reduce(final)
        bits = model.bit_table(2)
        lamb = config.chi.sum(axis=0)
        h = model.sigma_z_signs(2).T @ lamb
        expected = np.empty((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                rate = float(gamma[bits[i] != bits[j]].sum())
                expected[i, j] = 0.25 * np.exp(
                    (-rate - 1j * (h[i] - h[j])) * t)
        assert np.max(np.abs(reduced - expected)) < 1e-7
        # diagonal entries never couple to anything and stay exact
        assert np.all(reduced.diagonal() == 0.25)

    def test_register_populations_survive_the_drive(self):
        config = two_qubit_config(gamma_z=[0.02, 0.02])
        pulse = default_pulse().replace(eps_ss=0.2)
        snaps = fock_oracle.integrate_full(config, pulse, n_max=8,
                                           n_steps=600, store_every=150)
        pops = np.array([fock_oracle.reduce(s).diagonal().real
                         for _, s in snaps])
        assert np.max(np.abs(pops - 0.25)) < 1e-9

    def test_snapshot_cadence_and_final_always_stored(self):
        snaps = fock_oracle.integrate_full(two_qubit_config(), lambda t: 0.0,
                                           n_max=2, n_steps=10, t_final=1.0,
                                           store_every=4)
        times = [t for t, _ in snaps]
        assert times == pytest.approx([0.0, 0.4, 0.8, 1.0])

    def test_full_shape_initial_state_accepted(self):
        # two back-to-back runs, the second seeded with the first run's
        # full-space state, must reproduce one continuous run
        config = two_qubit_config()
        first = fock_oracle.integrate_full(config, lambda t: 0.0, n_max=2,
                                           n_steps=4, t_final=0.2)
        second = fock_oracle.integrate_full(config, lambda t: 0.0, n_max=2,
                                            n_steps=4, t_final=0.2,
                                            initial=first[-1][1].rho)
        whole = fock_oracle.integrate_full(config, lambda t: 0.0, n_max=2,
                                           n_steps=8, t_final=0.4)
        assert np.allclose(second[-1][1].rho, whole[-1][1].rho, atol=1e-12)

    def test_conditioned_amplitudes_track_pointer_equations(self):
        config = single_qubit_config()
        eps = 0.2
        drive = lambda t: eps
        n_steps, t_final = 800, 2.0
        snaps = fock_oracle.integrate_full(config, drive, n_max=8,
                                           n_steps=n_steps, t_final=t_final,
                                           store_every=n_steps)
        table = cavity.integrate_amplitudes(
            config, eps, cavity.time_grid(t_final, n_steps))
        got = fock_oracle.conditioned_amplitudes(snaps[-1][1])
        want = table.alpha[-1][:, table.classes]
        assert np.max(np.abs(got - want)) < 1e-5
