"""Non-Markovianity diagnostics.

Covers: the canonical coefficient matrix of the one-mode coupling
generator (closed-form eigenvalues, decomposition identities, degenerate
inputs), trace distance, increasing-interval extraction, and the
trace-distance witness between the parity reference states.
"""

import numpy as np
import pytest

from paritysim import markov, model, sme
from paritysim.errors import ConfigError, DegenerateBasisError
from paritysim.pulse import PulseSpec


def random_instance(rng, n_qubits):
    d = 2 ** n_qubits
    alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
    weights = rng.uniform(0.3, 1.5, size=n_qubits)
    return alpha, weights


class TestCoefficientMatrix:
    def test_eigenvalue_closed_form(self):
        rng = np.random.default_rng(31)
        for n_qubits in (2, 3):
            for _ in range(100):
                alpha, weights = random_instance(rng, n_qubits)
                cm = markov.coefficient_matrix(alpha, weights)
                eig = cm.eigenvalues()
                root = np.sqrt(cm.x ** 2 + 1.0)
                assert abs(eig[0] - (cm.x - root)) < 1e-12
                assert abs(eig[1] - (cm.x + root)) < 1e-12

    def test_exactly_one_negative_eigenvalue(self):
        rng = np.random.default_rng(32)
        for n_qubits in (2, 3):
            for _ in range(100):
                alpha, weights = random_instance(rng, n_qubits)
                eig = markov.coefficient_matrix(alpha, weights).eigenvalues()
                assert eig[0] < 0.0
                assert eig[1] > 0.0

    def test_matrix_form(self):
        rng = np.random.default_rng(33)
        alpha, weights = random_instance(rng, 3)
        cm = markov.coefficient_matrix(alpha, weights)
        assert cm.matrix[0, 0] == pytest.approx(2.0 * cm.x)
        assert cm.matrix[0, 1] == 1j
        assert cm.matrix[1, 0] == -1j
        assert cm.matrix[1, 1] == 0.0

    def test_basis_orthogonality(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            alpha, weights = random_instance(rng, 3)
            cm = markov.coefficient_matrix(alpha, weights)
            scale = np.linalg.norm(alpha)
            assert abs(cm.f1.sum()) < 1e-12 * scale
            assert abs(cm.f2.sum()) < 1e-12 * scale
            assert abs(cm.f2 @ cm.f1.conj()) < 1e-12 * scale ** 2

    def test_apply_matches_direct_generator(self):
        rng = np.random.default_rng(35)
        for n_qubits in (2, 3):
            d = 2 ** n_qubits
            alpha, weights = random_instance(rng, n_qubits)
            cm = markov.coefficient_matrix(alpha, weights)
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            sbar = weights @ model.sigma_z_signs(n_qubits).astype(float)
            direct = (-1j * (alpha * sbar)[:, None] * rho * alpha.conj()
                      + 1j * alpha[:, None] * rho * (alpha * sbar).conj())
            assert np.max(np.abs(cm.apply(rho) - direct)) < 1e-12

    def test_real_amplitudes_give_unit_eigenvalues(self):
        # real alpha makes the F_1 projection real, so x = 0 and the
        # eigenvalues are exactly -1 and +1
        alpha = np.array([0.3, -0.7, 1.1, 0.2])
        cm = markov.coefficient_matrix(alpha, [0.8, 1.2])
        assert cm.x == 0.0
        assert np.allclose(cm.eigenvalues(), [-1.0, 1.0])

    def test_single_qubit_rejected(self):
        with pytest.raises(ConfigError):
            markov.coefficient_matrix([0.1, 0.5j], [1.0])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            markov.coefficient_matrix([0.1, 0.5, 0.3], [1.0, 1.0])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            markov.coefficient_matrix(np.ones(4) * 1j, [1.0])

    def test_uniform_amplitudes_degenerate(self):
        with pytest.raises(DegenerateBasisError):
            markov.coefficient_matrix(np.full(4, 0.3 + 0.1j), [1.0, 1.0])

    def test_zero_weights_degenerate(self):
        rng = np.random.default_rng(36)
        alpha, _ = random_instance(rng, 2)
        with pytest.raises(DegenerateBasisError):
            markov.coefficient_matrix(alpha, [0.0, 0.0])


class TestTraceDistance:
    def test_identical_states(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert markov.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_pure_states(self):
        d = 8
        rho_a = np.zeros((d, d), dtype=complex)
        rho_b = np.zeros((d, d), dtype=complex)
        rho_a[0, 0] = 1.0
        rho_b[5, 5] = 1.0
        assert markov.trace_distance(rho_a, rho_b) == pytest.approx(1.0)

    def test_pure_vs_maximally_mixed(self):
        psi = model.psi_plus(3)
        rho = np.outer(psi, psi.conj())
        mixed = np.eye(8) / 8.0
        assert markov.trace_distance(rho, mixed) == pytest.approx(7.0 / 8.0)

    def test_symmetry_and_triangle(self, rng):
        def rand_rho():
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            r = a @ a.conj().T
            return r / np.trace(r).real
        for _ in range(10):
            x, y, z = rand_rho(), rand_rho(), rand_rho()
            assert markov.trace_distance(x, y) == pytest.approx(
                markov.trace_distance(y, x))
            assert markov.trace_distance(x, z) <= (
                markov.trace_distance(x, y) + markov.trace_distance(y, z)
                + 1e-12)

    def test_unitary_invariance(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        sig = np.eye(4) / 4.0
        q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        before = markov.trace_distance(rho, sig)
        after = markov.trace_distance(q @ rho @ q.conj().T,
                                      q @ sig @ q.conj().T)
        assert after == pytest.approx(before, abs=1e-12)

    def test_batched(self, rng):
        rhos = np.stack([np.eye(4) / 4.0] * 3)
        sigs = np.zeros((3, 4, 4), dtype=complex)
        for b in range(3):
            sigs[b, b, b] = 1.0
        out = markov.trace_distance(rhos, sigs)
        assert out.shape == (3,)
        assert np.allclose(out, 0.75)


class TestIncreasingIntervals:
    def test_two_runs(self):
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([0.0, 1.0, 0.5, 2.0, 3.0])
        ivs = markov.increasing_intervals(times, values)
        assert len(ivs) == 2
        assert (ivs[0].t_start, ivs[0].t_end) == (0.0, 1.0)
        assert ivs[0].rise == pytest.approx(1.0)
        assert (ivs[1].t_start, ivs[1].t_end) == (2.0, 4.0)
        assert ivs[1].rise == pytest.approx(2.5)

    def test_monotone_decreasing(self):
        times = np.linspace(0.0, 1.0, 20)
        ivs = markov.increasing_intervals(times, -times)
        assert ivs == []

    def test_flat_signal(self):
        times = np.linspace(0.0, 1.0, 20)
        ivs = markov.increasing_intervals(times, np.ones(20))
        assert ivs == []

    def test_tolerance_is_a_rate(self):
        times = np.array([0.0, 1.0])
        # rate 1e-8 exceeds the default 1e-9 rate floor
        assert len(markov.increasing_intervals(times, [0.0, 1e-8])) == 1
        assert len(markov.increasing_intervals(times, [0.0, 1e-10])) == 0
        # same increment over a shorter step is a higher rate
        assert len(markov.increasing_intervals([0.0, 1e-3],
                                               [0.0, 1e-10])) == 1

    def test_interval_overlap_predicate(self):
        iv = markov.Interval(1.0, 2.0, 0.1)
        assert iv.overlaps(0.5, 1.5)
        assert iv.overlaps(1.9, 3.0)
        assert not iv.overlaps(2.0, 3.0)   # touching is not overlap
        assert not iv.overlaps(0.0, 1.0)


class TestWitnessResult:
    def test_window_filtering_and_max_rise(self):
        ivs = [markov.Interval(0.0, 1.0, 0.5),
               markov.Interval(7.5, 8.0, 0.02),
               markov.Interval(9.0, 10.0, 0.01)]
        res = markov.WitnessResult(times=np.linspace(0, 13.5, 5),
                                   distance=np.ones(5), intervals=ivs,
                                   window=(7.0, 13.5))
        hits = res.overlapping()
        assert len(hits) == 2
        assert res.max_rise() == pytest.approx(0.02)
        assert res.max_rise(0.0, 13.5) == pytest.approx(0.5)
        assert res.max_rise(11.0, 12.0) == 0.0


class TestWitnessScan:
    def test_zero_drive_distance_stays_one(self, config):
        quiet = PulseSpec(t_on=1.5, t_off=8.5, sigma=3.0, eps_ss=0.0,
                          tau=13.5)
        res = markov.witness_scan(config, pulse=quiet, n_steps=300)
        assert np.allclose(res.distance, 1.0, atol=1e-12)
        assert res.overlapping() == []
        assert res.max_rise() == 0.0

    def test_default_scan_shows_backflow(self, config):
        res = markov.witness_scan(config, n_steps=1000)
        assert res.distance[0] == pytest.approx(1.0, abs=1e-12)
        assert res.window == (7.0, 13.5)
        assert np.all(res.distance <= 1.0 + 1e-9)
        # the matched design radiates nearly all cross-parity information,
        # so the revival is small but clearly above integrator jitter
        assert np.min(res.distance) < 0.5
        hits = res.overlapping()
        assert len(hits) >= 1
        assert res.max_rise() > 1e-5

    def test_detuned_design_shows_large_backflow(self, config):
        # wider detunings radiate less of the stored information, so more
        # of it returns to the register at turn-off
        cfg = config.replace(delta=np.array([3.0, -3.0]))
        res = markov.witness_scan(cfg, n_steps=1000)
        hits = res.overlapping()
        assert len(hits) >= 1
        assert hits[0].t_start > 7.0    # revival begins during turn-off
        assert res.max_rise() > 1e-3

    @pytest.mark.parametrize("delta", [None, (3.0, -3.0)])
    def test_single_evolution_matches_two_runs(self, config, delta):
        # reference: evolve both states and take the distance of the pair
        cfg = config if delta is None else config.replace(delta=delta)
        res = markov.witness_scan(cfg, n_steps=1000)
        clean = cfg.replace(gamma_z=np.zeros(3))
        psi_p, psi_m = model.psi_plus(3), model.psi_minus(3)
        evolved = []
        for psi in ((psi_p + psi_m) / np.sqrt(2.0),
                    (psi_p - psi_m) / np.sqrt(2.0)):
            rho0 = np.outer(psi, psi.conj())
            evolved.append(sme.simulate_deterministic(clean, n_steps=1000,
                                                      rho0=rho0).rhos)
        reference = markov.trace_distance(*evolved)
        assert np.max(np.abs(res.distance - reference)) < 1e-14

    def test_dephasing_excluded_from_witness(self, config):
        # the scan zeroes gamma_z internally; a lossy config gives the
        # same curve as the clean one
        lossy = config.replace(gamma_z=np.full(3, 0.1))
        a = markov.witness_scan(lossy, n_steps=500)
        b = markov.witness_scan(config.replace(gamma_z=np.zeros(3)),
                                n_steps=500)
        assert np.allclose(a.distance, b.distance, atol=1e-14)
