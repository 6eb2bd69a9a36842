"""Non-Markovianity diagnostics.

Covers: the canonical rates of the drift (one-mode coupling term against
a Gram-Schmidt closed form, single qubit, degenerate inputs, the sign of
the rates at the steady state and in the transient), trace distance
(its closed form on blocks of at most two rows or columns against the
SVD),
increasing-interval extraction, and the trace-distance witness between
the parity reference states (its (even, odd) block against the full
trace distance on 1-3 qubits; its class-weighted block against two
dense evolutions over 1-4 qubits, 1-3 modes and coupling classes that
span both parities, and at the register cap; its memory there).
"""

import tracemalloc

import numpy as np
import pytest

from paritysim import cavity, markov, model, sme
from paritysim.errors import ConfigError
from paritysim.pulse import PulseSpec


def random_instance(rng, n_qubits):
    d = 2 ** n_qubits
    alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
    weights = rng.uniform(0.3, 1.5, size=n_qubits)
    return alpha, weights


def coupling_term(alpha, weights):
    """K of the one-mode coupling -i(A S rho A^dag - A rho S A^dag):
    K_ij = -i (s_i - s_j) a_i conj(a_j), s = sum_l w_l sigma_z,l."""
    alpha = np.asarray(alpha, dtype=complex)
    n_qubits = len(alpha).bit_length() - 1
    s = np.asarray(weights, dtype=float) @ model.sigma_z_signs(n_qubits)
    return -1j * (s[:, None] - s[None, :]) * np.outer(alpha, alpha.conj())


def gram_schmidt_rates(alpha, weights):
    """The two nonzero canonical rates of the coupling term, in closed form.

    With F_1 the traceless part of A and F_2 the residual of A S after
    projecting out 1 and F_1 (A S = d0 + gamma F_1 + F_2), the coupling
    term's coefficient matrix on {F_1/n_1, F_2/n_2} is
    [[2 x n_1^2, i n_1 n_2], [-i n_1 n_2, 0]] with x = Im gamma, whose
    eigenvalues are n_1^2 x -+ n_1 sqrt(n_1^2 x^2 + n_2^2).
    """
    alpha = np.asarray(alpha, dtype=complex)
    n_qubits = len(alpha).bit_length() - 1
    s = np.asarray(weights, dtype=float) @ model.sigma_z_signs(n_qubits)
    f1 = alpha - alpha.mean()
    a_s = alpha * s
    gamma = (a_s @ f1.conj()) / np.vdot(f1, f1).real
    f2 = a_s - a_s.mean() - gamma * f1
    n1, n2 = np.linalg.norm(f1), np.linalg.norm(f2)
    root = n1 * np.hypot(n1 * gamma.imag, n2)
    return np.array([n1 ** 2 * gamma.imag - root, n1 ** 2 * gamma.imag + root])


def random_design(rng):
    n_qubits = int(rng.integers(1, 5))
    n_modes = int(rng.integers(1, 4))
    return model.ReadoutConfig(
        n_qubits=n_qubits, n_modes=n_modes,
        chi=rng.uniform(0.2, 0.8, size=(n_modes, n_qubits)),
        kappa=rng.uniform(0.5, 3.0, size=n_modes),
        delta=rng.uniform(-6.0, 6.0, size=n_modes),
        gamma_z=np.zeros(n_qubits))


class TestCoefficientMatrix:
    def test_eigenvalue_closed_form(self):
        rng = np.random.default_rng(31)
        for n_qubits in (2, 3):
            for _ in range(100):
                alpha, weights = random_instance(rng, n_qubits)
                k = coupling_term(alpha, weights)
                rates = markov.canonical_rates(k)
                tol = 1e-12 * np.abs(k).max()
                expected = gram_schmidt_rates(alpha, weights)
                assert abs(rates[0] - expected[0]) < tol
                assert abs(rates[-1] - expected[1]) < tol
                assert np.all(np.abs(rates[1:-1]) < tol)

    def test_exactly_one_negative_eigenvalue(self):
        rng = np.random.default_rng(32)
        for n_qubits in (2, 3):
            for _ in range(100):
                k = coupling_term(*random_instance(rng, n_qubits))
                rates = markov.canonical_rates(k)
                tol = 1e-12 * np.abs(k).max()
                assert np.sum(rates < -tol) == 1
                assert rates[-1] > tol

    def test_rates_are_the_traceless_compression_of_k(self):
        # C = W K W / d^2 makes d C the matrix of K in the orthonormal
        # Walsh basis, so the rates are K's eigenvalues on the vectors
        # orthogonal to the all-ones vector: (P K P) has those and a zero
        rng = np.random.default_rng(37)
        for n_qubits in (1, 2, 3, 4):
            d = 2 ** n_qubits
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            k = a + a.conj().T
            proj = np.eye(d) - np.full((d, d), 1.0 / d)
            compressed = np.linalg.eigvalsh(proj @ k @ proj)
            rates = markov.canonical_rates(k)
            zero = np.argmin(np.abs(compressed))
            assert np.allclose(rates, np.delete(compressed, zero),
                               atol=1e-12 * np.abs(k).max())

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(38)
        ks = np.stack([coupling_term(*random_instance(rng, 2))
                       for _ in range(6)]).reshape(2, 3, 4, 4)
        rates = markov.canonical_rates(ks)
        assert rates.shape == (2, 3, 3)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(rates[idx], markov.canonical_rates(ks[idx]))

    def test_real_amplitudes_give_unit_eigenvalues(self):
        # real alpha makes the F_1 projection real, so x = 0 and the two
        # nonzero rates are -n_1 n_2 and +n_1 n_2
        alpha = np.array([0.3, -0.7, 1.1, 0.2])
        k = coupling_term(alpha, [0.8, 1.2])
        rates = markov.canonical_rates(k)
        expected = gram_schmidt_rates(alpha, [0.8, 1.2])
        assert expected[0] == pytest.approx(-expected[1])
        assert np.allclose(rates, [expected[0], 0.0, expected[1]],
                           atol=1e-14)

    def test_single_qubit_rate(self):
        # one qubit has one traceless string, sigma_z, with rate -Re K_01
        k = coupling_term([0.1, 0.5j], [1.0])
        rates = markov.canonical_rates(k)
        assert rates.shape == (1,)
        assert rates[0] == pytest.approx(-k[0, 1].real, abs=1e-15)
        rng = np.random.default_rng(39)
        for _ in range(20):
            k01 = complex(rng.normal(), rng.normal())
            gamma = rng.uniform(0.0, 1.0)
            k = np.array([[0.0, k01 - gamma], [np.conj(k01) - gamma, 0.0]])
            assert markov.canonical_rates(k)[0] == pytest.approx(
                gamma - k01.real, abs=1e-14)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            markov.canonical_rates(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            markov.canonical_rates(np.zeros((4, 2)))

    @pytest.mark.parametrize("shape", [(), (4,), (1, 1), (2, 1, 1)])
    def test_too_few_dimensions_rejected(self, shape):
        with pytest.raises(ConfigError):
            markov.canonical_rates(np.zeros(shape))

    def test_uniform_amplitudes_degenerate(self):
        # A proportional to 1 makes the coupling a commutator with
        # |a|^2 S, a Hamiltonian term: every rate vanishes
        k = coupling_term(np.full(4, 0.3 + 0.1j), [1.0, 1.0])
        assert np.abs(k).max() > 0.1
        assert np.allclose(markov.canonical_rates(k), 0.0, atol=1e-15)

    def test_zero_weights_degenerate(self):
        rng = np.random.default_rng(36)
        alpha, _ = random_instance(rng, 2)
        rates = markov.canonical_rates(coupling_term(alpha, [0.0, 0.0]))
        assert np.array_equal(rates, np.zeros(3))


class TestRateSigns:
    @pytest.mark.parametrize("dephased", [False, True],
                             ids=["gamma_z_off", "gamma_z_on"])
    def test_steady_state_is_markovian(self, dephased):
        # under a constant drive every mode amplitude settles, and the
        # drift built from them has no negative rate for any register size
        rng = np.random.default_rng(40)
        sizes = set()
        for _ in range(60):
            cfg = random_design(rng)
            if dephased:
                cfg = cfg.replace(
                    gamma_z=rng.uniform(0.0, 0.2, size=cfg.n_qubits))
            eps = rng.uniform(-2.0, 2.0)
            alpha = np.stack([cavity.steady_state_amplitudes(cfg, j, eps)
                              for j in range(cfg.dim)], axis=1)
            k = sme.DriftOperator(cfg).coefficient(alpha)
            assert markov.canonical_rates(k).min() >= -1e-12 * np.abs(k).max()
            sizes.add((cfg.n_qubits, cfg.n_modes))
        assert {n for n, _ in sizes} == {1, 2, 3, 4}
        assert {m for _, m in sizes} == {1, 2, 3}

    def test_one_mode_steady_state_rate(self):
        # one steady mode gives A S in span{1, A}: the single nonzero rate
        # is kappa ||F_1||^2, F_1 the traceless part of A
        rng = np.random.default_rng(41)
        for _ in range(20):
            cfg = random_design(rng)
            cfg = cfg.replace(n_modes=1, chi=cfg.chi[:1], kappa=cfg.kappa[:1],
                              delta=cfg.delta[:1])
            alpha = np.array([cavity.steady_state_amplitudes(cfg, j, 1.0)[0]
                              for j in range(cfg.dim)])
            k = sme.DriftOperator(cfg).coefficient(alpha[None])
            rates = markov.canonical_rates(k)
            tol = 1e-12 * np.abs(k).max()
            f1 = alpha - alpha.mean()
            assert rates[-1] == pytest.approx(
                cfg.kappa[0] * np.vdot(f1, f1).real, rel=1e-12)
            assert np.all(np.abs(rates[:-1]) < tol)

    def test_default_design_transient_is_not_cp_divisible(self, config):
        # with the drive switching, the default register's drift has a
        # negative rate, deepest during the turn-off
        clean = config.replace(gamma_z=np.zeros(config.n_qubits))
        table = sme.build_table(clean, None, 4000)
        rates = markov.canonical_rates(
            sme.DriftOperator(clean).coefficient(
                table.alpha[..., table.classes]))
        assert rates.shape == (4001, 7)
        lowest = rates.min(axis=1)
        assert lowest.min() < -0.5
        assert 8.5 < table.times[np.argmin(lowest)] < 9.5


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

    @pytest.mark.parametrize("kind", ["random", "rank_one", "zero"])
    @pytest.mark.parametrize("shape", [(2, 2), (1, 5), (5, 1), (2, 5),
                                       (5, 2)])
    def test_narrow_blocks_match_svd(self, rng, shape, kind):
        # at most two rows or columns: the closed form, to rounding of the
        # norm; rank one is where the determinant of B^H B would cancel
        def normal(size):
            return rng.normal(size=size) + 1j * rng.normal(size=size)
        n = 200
        if kind == "random":
            b = normal((n,) + shape) * 10.0 ** rng.uniform(-6, 6, (n, 1, 1))
        elif kind == "rank_one":
            b = normal((n, shape[0], 1)) * normal((n, 1, shape[1]))
        else:
            b = np.zeros((n,) + shape, dtype=complex)
        want = 0.5 * np.linalg.svd(b, compute_uv=False).sum(axis=-1)
        got = markov.trace_distance(b, 0.0)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want)
                      <= 1e-14 * np.linalg.norm(b, axis=(-2, -1)))
        assert markov.trace_distance(b[0].real, 0.0) == pytest.approx(
            0.5 * np.linalg.svd(b[0].real, compute_uv=False).sum(),
            rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_wider_blocks_take_the_svd(self, rng, dim):
        b = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim,
                                                                   dim))
        want = 0.5 * np.linalg.svd(b, compute_uv=False).sum(axis=-1)
        assert np.array_equal(markov.trace_distance(b, 0.0), want)


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

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_parity_block_gives_full_trace_distance(self, n_qubits):
        # the evolved difference vanishes on same-parity entries, so the
        # (even, odd) block alone carries the distance
        rng = np.random.default_rng(n_qubits)
        cfg = model.ReadoutConfig(
            n_qubits=n_qubits, n_modes=2,
            chi=rng.uniform(0.5, 1.5, (2, n_qubits)),
            kappa=rng.uniform(1.0, 3.0, 2), delta=rng.uniform(-3.0, 3.0, 2),
            gamma_z=np.zeros(n_qubits))
        res = markov.witness_scan(cfg, n_steps=400)
        psi_p, psi_m = model.psi_plus(n_qubits), model.psi_minus(n_qubits)
        diff = np.outer(psi_p, psi_m.conj()) + np.outer(psi_m, psi_p.conj())
        full = markov.trace_distance(
            sme.simulate_deterministic(cfg, n_steps=400, rho0=diff).rhos, 0.0)
        assert np.abs(res.distance - full).max() < 1e-13
        assert res.distance[0] == pytest.approx(1.0, abs=1e-12)

    def test_dephasing_excluded_from_witness(self, config):
        # the scan zeroes gamma_z internally; a lossy config gives the
        # same curve as the clean one
        lossy = config.replace(gamma_z=np.full(3, 0.1))
        a = markov.witness_scan(lossy, n_steps=500)
        b = markov.witness_scan(config.replace(gamma_z=np.zeros(3)),
                                n_steps=500)
        assert np.allclose(a.distance, b.distance, atol=1e-14)


def two_run_distance(config, n_steps):
    """The witness by its definition: both states evolved densely with
    gamma_z off, then the trace distance of the pair at every step."""
    n = config.n_qubits
    clean = config.replace(gamma_z=np.zeros(n))
    psi_p, psi_m = model.psi_plus(n), model.psi_minus(n)
    evolved = [sme.simulate_deterministic(
        clean, n_steps=n_steps, rho0=np.outer(psi, psi.conj())).rhos
        for psi in ((psi_p + psi_m) / np.sqrt(2.0),
                    (psi_p - psi_m) / np.sqrt(2.0))]
    return markov.trace_distance(*evolved)


def witness_designs():
    """1-4 qubits x 1-3 modes, each with random chi, chi all ones and
    random chi with a zero column (a qubit the modes do not see, so every
    coupling class holds states of both parities), plus the 6-qubit
    chi-all-ones register."""
    rng = np.random.default_rng(71)
    designs = {}
    for n_qubits in range(1, 5):
        for n_modes in range(1, 4):
            kappa = rng.uniform(0.5, 3.0, n_modes)
            delta = rng.uniform(-3.0, 3.0, n_modes)
            zero_column = rng.uniform(0.5, 1.5, (n_modes, n_qubits))
            zero_column[:, rng.integers(n_qubits)] = 0.0
            for kind, chi in (
                    ("random", rng.uniform(0.5, 1.5, (n_modes, n_qubits))),
                    ("ones", np.ones((n_modes, n_qubits))),
                    ("zero_column", zero_column)):
                designs[f"{n_qubits}q_{n_modes}m_{kind}"] = \
                    model.ReadoutConfig(
                        n_qubits=n_qubits, n_modes=n_modes, chi=chi,
                        kappa=kappa, delta=delta,
                        gamma_z=rng.uniform(0.0, 0.05, n_qubits))
    n = model.MAX_QUBITS
    designs["6q_2m_ones"] = model.default_config().replace(
        n_qubits=n, chi=np.ones((2, n)), gamma_z=np.zeros(n))
    return designs


@pytest.mark.parametrize("name", sorted(witness_designs()))
def test_class_block_witness_matches_two_runs(name):
    # F's (even, odd) block of coupling classes, weighted by the
    # class sizes, against the distance of the two dense evolutions
    config = witness_designs()[name]
    if name.endswith("zero_column"):
        _, group = model.distinct_rows(model.signed_chi_sums(config).T)
        odd = model.popcounts(config.n_qubits) % 2
        assert np.array_equal(np.bincount(group, odd),
                              np.bincount(group, 1 - odd))
    res = markov.witness_scan(config, n_steps=300)
    reference = two_run_distance(config, 300)
    assert res.distance.shape == reference.shape == (301,)
    assert np.abs(res.distance - reference).max() < 1e-13
    assert res.distance[0] == pytest.approx(1.0, abs=1e-12)


def test_witness_holds_no_evolution_at_the_register_cap(config, pulse):
    # the whole (steps + 1, d, d) evolution would take 0.26 GB here, and
    # the scan used to peak at 376 MB; it holds a block of nodes of the
    # 4 x 3 class block and the amplitude table of the 7 classes. A table
    # of all 64 states took the peak to 24.6 MB; it is 3.4 MB
    n = model.MAX_QUBITS
    wide = config.replace(n_qubits=n, chi=np.ones((config.n_modes, n)),
                          gamma_z=np.full(n, config.gamma_z[0]))
    tracemalloc.start()
    try:
        res = markov.witness_scan(wide, pulse, n_steps=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.distance.shape == (4001,)
    assert peak < 8 * 2 ** 20
