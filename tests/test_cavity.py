"""Pointer-mode dynamics: state space, transfer functions, steady states,
the kappa design scan, transient integration against closed forms, the
table of one column per coupling class against the per-state one, the
batched block products against the einsum contraction they replaced, and
the batched matrix exponential against scipy's."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from paritysim import cavity, model
from paritysim.errors import ConfigError, ResonanceError
from paritysim.pulse import PulseSpec, default_pulse, pieces as pulse_pieces

from test_sme import reference_designs


def single_mode_config(delta=0.0, kappa=2.0, chi=1.0):
    return model.ReadoutConfig(
        n_qubits=1, n_modes=1, chi=np.array([[chi]]),
        kappa=np.array([kappa]), delta=np.array([delta]),
        gamma_z=np.zeros(1))


def random_config(rng, max_qubits=3):
    n_qubits = int(rng.integers(1, max_qubits + 1))
    n_modes = int(rng.integers(1, 4))
    chi = rng.uniform(0.2, 0.8, size=(n_modes, n_qubits))
    kappa = rng.uniform(0.5, 3.0, size=n_modes)
    # |delta| >= 3 keeps every pulled detuning away from zero; the resolvent
    # tests add designs nearer to it
    delta = rng.uniform(3.0, 6.0, size=n_modes) * rng.choice([-1, 1], n_modes)
    return model.ReadoutConfig(n_qubits=n_qubits, n_modes=n_modes, chi=chi,
                               kappa=kappa, delta=delta,
                               gamma_z=np.zeros(n_qubits))


def random_pulse(rng):
    sigma = rng.uniform(0.5, 3.0)
    t_on = sigma / 2 + rng.uniform(0.0, 2.0)
    t_off = t_on + sigma + rng.uniform(0.0, 5.0)
    return PulseSpec(t_on=t_on, t_off=t_off, sigma=sigma,
                     eps_ss=rng.uniform(-1.0, 1.0),
                     tau=t_off + sigma / 2 + rng.uniform(0.0, 3.0))


def adaptive_reference(config, drive, times):
    """The pointer equations' right-hand side integrated by adaptive
    DOP853 at tight tolerances: an independent reference for the exact
    table, which uses no step-size control."""
    eps = drive.evaluate if isinstance(drive, PulseSpec) else lambda t: drive
    u = np.sqrt(config.kappa)
    dtil = cavity.effective_detunings(config).T     # (2**n, n_modes)

    def rhs(t, y):
        a = y.reshape(dtil.shape)
        leak = (a * u).sum(axis=1)
        da = -1j * dtil * a - 0.5 * np.outer(leak, u) - 1j * u * eps(t)
        return da.ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), np.zeros(dtil.size, complex),
                    method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T.reshape((len(times),) + dtil.shape).transpose(0, 2, 1)


class TestStateSpace:
    def test_single_mode_matrices(self):
        cfg = single_mode_config(delta=0.0)
        A, B, C, D = cavity.state_space(cfg, 0)
        assert np.allclose(A, [[-1.0 - 1.0j]])
        assert np.allclose(B, [-1.0j * np.sqrt(2.0)])
        assert np.allclose(C, [np.sqrt(2.0)])
        assert D == 0.0

    def test_flipped_qubit_flips_pull(self):
        cfg = single_mode_config(delta=0.0)
        A, _, _, _ = cavity.state_space(cfg, 1)
        assert np.allclose(A, [[1.0j - 1.0]])

    def test_two_mode_cross_damping(self):
        cfg = model.default_config()
        A, B, C, _ = cavity.state_space(cfg, 0)
        assert A.shape == (2, 2)
        # shared output line couples the modes at rate sqrt(k0 k1)/2
        assert A[0, 1] == pytest.approx(-1.0)
        assert A[1, 0] == pytest.approx(-1.0)
        assert np.allclose(B, -1.0j * np.sqrt(2.0))
        assert np.allclose(C, np.sqrt(2.0))

    def test_dynamics_stable(self):
        cfg = model.default_config()
        for j in range(cfg.dim):
            A, _, _, _ = cavity.state_space(cfg, j)
            assert np.max(np.linalg.eigvals(A).real) < 0.0

    def test_index_out_of_range(self):
        cfg = model.default_config()
        with pytest.raises(ConfigError):
            cavity.state_space(cfg, 8)
        with pytest.raises(ConfigError):
            cavity.state_space(cfg, -1)


class TestTransferFunction:
    def test_dc_gain_even_and_odd(self):
        cfg = model.default_config()
        even = cavity.transfer_matrix(cfg, 0, 0.0)
        odd = cavity.transfer_matrix(cfg, 4, 0.0)
        assert even == pytest.approx(-1.0 - 1.0j, abs=1e-12)
        assert odd == pytest.approx(1.0 - 1.0j, abs=1e-12)

    def test_dc_gain_matches_steady_output(self):
        cfg = model.default_config()
        for j in range(cfg.dim):
            g0 = cavity.transfer_matrix(cfg, j, 0.0)
            ss = cavity.steady_state_output(cfg, j, 1.0)
            assert abs(g0 - ss) < 1e-10

    def test_rolls_off_at_high_frequency(self):
        cfg = model.default_config()
        g = cavity.transfer_matrix(cfg, 0, 1e6j)
        assert abs(g) < 1e-5

    def test_array_input(self):
        cfg = model.default_config()
        s = 1j * np.array([0.1, 1.0, 10.0])
        g = cavity.transfer_matrix(cfg, 0, s)
        assert g.shape == (3,)
        for i, sv in enumerate(s):
            assert g[i] == cavity.transfer_matrix(cfg, 0, complex(sv))

    def test_parities_distinguishable_off_dc(self):
        # the outputs are engineered to collide at s = 0 only; at finite
        # frequency every weight-0 vs weight-2 pair separates
        cfg = model.default_config()
        for omega in (0.1, 1.0, 10.0):
            g0 = cavity.transfer_matrix(cfg, 0, 1j * omega)
            g3 = cavity.transfer_matrix(cfg, 3, 1j * omega)
            assert abs(g0 - g3) > 1e-3


class TestInverseDynamics:
    def test_matches_dense_inverse(self):
        # the closed-form resolvent against a dense solve of
        # (s*1 - A_j) x = B for every basis state of 100 random designs,
        # half of them with |delta| < 3, where pulled detunings can vanish
        rng = np.random.default_rng(77)
        s = np.array([0.0, 0.3j, -1.1j, 0.5 + 0.2j])
        for i in range(100):
            cfg = random_config(rng)
            if i % 2:
                cfg = cfg.replace(delta=rng.uniform(-3.0, 3.0, cfg.n_modes))
            closed = cavity._resolvent(cfg, s)
            assert closed.shape == (len(s), cfg.n_modes, cfg.dim)
            for j in range(cfg.dim):
                A, B, _, _ = cavity.state_space(cfg, j)
                for k, sv in enumerate(s):
                    dense = np.linalg.solve(sv * np.eye(cfg.n_modes) - A, B)
                    err = np.max(np.abs(closed[k, :, j] - dense))
                    assert err < 1e-12 * np.max(np.abs(dense))

    def test_resonant_configuration_raises(self):
        # s*1 - A_j is singular at s = 0 for basis state j: an undamped
        # mode at zero pulled detuning, and two damped modes sharing one
        for kappa, delta, j in [([2.0, 0.0], [0.3, 1.0], 1),
                                ([2.0, 1.0], [-1.0, -1.0], 0)]:
            cfg = model.ReadoutConfig.from_dict(
                {"n_qubits": 1, "n_modes": 2, "chi": 1.0, "kappa": kappa,
                 "delta": delta})
            A, _, _, _ = cavity.state_space(cfg, j)
            assert np.linalg.matrix_rank(A) < cfg.n_modes
            with pytest.raises(ResonanceError):
                cavity.steady_state_amplitudes(cfg, j, 1.0)
            with pytest.raises(ResonanceError):
                cavity.steady_state_output(cfg, j, 1.0)
            with pytest.raises(ResonanceError):
                cavity.transfer_matrix(cfg, j, 0.0)
            with pytest.raises(ResonanceError):
                cavity.parity_outputs(cfg, 1.0)
            # the other basis state is regular and stays finite
            A, B, _, _ = cavity.state_space(cfg, 1 - j)
            alpha = cavity.steady_state_amplitudes(cfg, 1 - j, 0.3)
            assert np.max(np.abs(alpha + 0.3 * np.linalg.solve(A, B))) < 1e-12

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 3.0])
    def test_damped_zero_detuning_is_finite(self, kappa):
        # one mode at dtil = 0: a_out = -2i eps, alpha = -2i eps / sqrt(kappa)
        cfg, eps = single_mode_config(delta=1.0, kappa=kappa), 0.3
        assert cavity.effective_detunings(cfg)[0, 1] == 0.0
        A, B, _, _ = cavity.state_space(cfg, 1)
        alpha = cavity.steady_state_amplitudes(cfg, 1, eps)
        assert abs(alpha[0] - (-2j * eps / np.sqrt(kappa))) < 1e-14
        assert abs(alpha[0] + eps * np.linalg.solve(A, B)[0]) < 1e-14
        assert abs(cavity.steady_state_output(cfg, 1, eps) + 2j * eps) < 1e-14
        assert abs(cavity.transfer_matrix(cfg, 1, 0.0) + 2j) < 1e-14

    @pytest.mark.parametrize("cfg", [
        model.default_config(),
        single_mode_config(delta=1.0),           # dtil = 0 for j = 1
        model.default_config().replace(delta=[1.0, -np.sqrt(3.0)]),
    ], ids=["default", "one-mode", "two-mode"])
    def test_exact_table_settles_on_steady_state(self, cfg):
        # constant drive from vacuum for t = 60: every A_j here decays at
        # rate 1 or faster, so the transient is below e^-60; the two-mode
        # design has dtil_0 = 0 for three basis states
        table = cavity.integrate_amplitudes(cfg, 0.3,
                                            cavity.time_grid(60.0, 6000))
        for j in range(cfg.dim):
            steady = cavity.steady_state_amplitudes(cfg, j, 0.3)
            assert np.max(np.abs(
                table.alpha[-1, :, table.classes[j]] - steady)) < 1e-12


class TestSteadyStates:
    def test_amplitudes_solve_linear_system(self):
        # the closed-form resolvent against a dense solve, for every basis
        # state of 100 random designs
        rng = np.random.default_rng(77)
        for _ in range(100):
            cfg = random_config(rng)
            eps = float(rng.uniform(0.1, 1.0))
            for j in range(cfg.dim):
                alpha = cavity.steady_state_amplitudes(cfg, j, eps)
                A, B, _, _ = cavity.state_space(cfg, j)
                dense = -np.linalg.solve(A, B) * eps
                err = np.max(np.abs(alpha - dense))
                assert err < 1e-12 * max(1.0, np.max(np.abs(dense)))

    def test_single_mode_lorentzian(self):
        # one mode: a_out = -i kappa eps / (i dtil + kappa/2)
        for delta, kappa, j in [(0.0, 2.0, 0), (0.7, 1.3, 1), (-2.0, 3.0, 0)]:
            cfg = single_mode_config(delta=delta, kappa=kappa)
            dtil = delta + (1 if j == 0 else -1)
            expected = -1j * kappa / (1j * dtil + kappa / 2)
            got = cavity.steady_state_output(cfg, j, 1.0)
            assert abs(got - expected) < 1e-12

    def test_parity_outputs_degenerate_within_parity(self):
        cfg = model.default_config()
        even, odd = cavity.parity_outputs(cfg, 0.4811)
        assert even.shape == (4,)
        assert odd.shape == (4,)
        assert np.max(np.abs(even - even[0])) < 1e-10 * abs(even[0])
        assert np.max(np.abs(odd - odd[0])) < 1e-10 * abs(odd[0])

    def test_parity_outputs_designed_values(self):
        cfg = model.default_config()
        even, odd = cavity.parity_outputs(cfg, 1.0)
        assert even[0] == pytest.approx(-1.0 - 1.0j, abs=1e-12)
        assert odd[0] == pytest.approx(1.0 - 1.0j, abs=1e-12)

    def test_far_detuned_output_vanishes(self):
        cfg = single_mode_config(delta=1e6)
        assert abs(cavity.steady_state_output(cfg, 0, 1.0)) < 1e-5

    @pytest.mark.parametrize("evaluate", [
        lambda cfg, j: cavity.steady_state_amplitudes(cfg, j, 1.0),
        lambda cfg, j: cavity.steady_state_output(cfg, j, 1.0),
        lambda cfg, j: cavity.transfer_matrix(cfg, j, 0.5j),
    ], ids=["amplitudes", "output", "transfer"])
    @pytest.mark.parametrize("j", [-1, 8])
    def test_index_out_of_range(self, evaluate, j):
        with pytest.raises(ConfigError):
            evaluate(model.default_config(), j)


BASIS_STATE_FUNCTIONS = {
    "state_space": lambda cfg, j: cavity.state_space(cfg, j),
    "transfer": lambda cfg, j: cavity.transfer_matrix(cfg, j, 0.5j),
    "amplitudes": lambda cfg, j: cavity.steady_state_amplitudes(cfg, j, 1.0),
    "output": lambda cfg, j: cavity.steady_state_output(cfg, j, 1.0),
}


@pytest.mark.parametrize("name", sorted(BASIS_STATE_FUNCTIONS))
@pytest.mark.parametrize("j", [1.5, 2.0, True], ids=["float", "whole", "bool"])
def test_basis_index_must_be_integer(name, j):
    with pytest.raises(ConfigError, match="integer"):
        BASIS_STATE_FUNCTIONS[name](model.default_config(), j)


@pytest.mark.parametrize("name", sorted(BASIS_STATE_FUNCTIONS))
def test_numpy_integer_basis_index_accepted(name):
    evaluate = BASIS_STATE_FUNCTIONS[name]
    cfg = model.default_config()
    got, want = evaluate(cfg, np.int64(3)), evaluate(cfg, 3)
    if name != "state_space":       # the others return a single value
        got, want = [got], [want]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


class TestKappaScan:
    def test_peak_at_twice_chi(self):
        kappas = np.arange(0.1, 4.0 + 1e-12, 0.01)
        grid, seps = cavity.kappa_separation_scan(kappas)
        best = grid[np.argmax(seps)]
        assert best == pytest.approx(2.0, abs=1e-9)
        assert np.max(seps) == pytest.approx(2.0, abs=1e-9)

    def test_separation_scales_with_drive(self):
        kappas = np.array([1.0, 2.0, 3.0])
        _, unit = cavity.kappa_separation_scan(kappas, eps=1.0)
        _, scaled = cavity.kappa_separation_scan(kappas, eps=0.25)
        assert np.allclose(scaled, 0.25 * unit)

    def test_peak_value_scales_with_chi(self):
        kappas = np.arange(0.5, 2.1, 0.05)
        _, seps = cavity.kappa_separation_scan(2.0 * kappas, chi=2.0)
        assert np.max(seps) == pytest.approx(2.0, abs=1e-9)


class TestTimeGrid:
    def test_grid_shape_and_spacing(self):
        t = cavity.time_grid(13.5, 100)
        assert len(t) == 101
        assert t[0] == 0.0
        assert t[-1] == 13.5
        assert np.allclose(np.diff(t), 0.135)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigError):
            cavity.time_grid(13.5, 0)
        with pytest.raises(ConfigError):
            cavity.time_grid(0.0, 10)

    @pytest.mark.parametrize("tau, n_steps", [
        (13.5, 2.5), (13.5, True), (13.5, 1e3), (np.nan, 10), (np.inf, 10)],
        ids=["fractional-count", "bool-count", "whole-float-count",
             "nan-span", "infinite-span"])
    def test_count_not_integer_or_span_not_finite_rejected(self, tau,
                                                          n_steps):
        with pytest.raises(ConfigError):
            cavity.time_grid(tau, n_steps)


class TestIntegrateAmplitudes:
    def test_zero_drive_stays_in_vacuum(self):
        cfg = model.default_config()
        times = cavity.time_grid(5.0, 50)
        table = cavity.integrate_amplitudes(cfg, 0.0, times)
        assert np.max(np.abs(table.alpha)) == 0.0
        assert np.max(np.abs(table.output)) == 0.0

    def test_single_mode_step_response(self):
        # constant drive from vacuum: alpha(t) = alpha_ss (1 - e^{lam t})
        cfg = single_mode_config(delta=0.7, kappa=2.0)
        eps = 0.3
        times = cavity.time_grid(5.0, 200)
        table = cavity.integrate_amplitudes(cfg, eps, times)
        for j in (0, 1):
            dtil = 0.7 + (1 if j == 0 else -1)
            lam = -1j * dtil - 1.0
            a_ss = -1j * np.sqrt(2.0) * eps / (1j * dtil + 1.0)
            expected = a_ss * (1.0 - np.exp(lam * times))
            err = np.max(np.abs(table.alpha[:, 0, table.classes[j]]
                                - expected))
            assert err < 1e-8

    def test_two_mode_plateau_propagation(self):
        # on the plateau the system is LTI; propagate the t=4 sample to
        # t=7 with the matrix exponential and compare
        cfg = model.default_config()
        pulse = default_pulse()
        times = cavity.time_grid(pulse.tau, 2700)
        table = cavity.integrate_amplitudes(cfg, pulse, times)
        i1 = round(4.0 / table.dt)
        i2 = round(7.0 / table.dt)
        for j in range(cfg.dim):
            A, B, _, _ = cavity.state_space(cfg, j)
            a_ss = -np.linalg.solve(A, B) * pulse.eps_ss
            prop = scipy.linalg.expm(A * 3.0)
            column = table.classes[j]
            expected = prop @ (table.alpha[i1, :, column] - a_ss) + a_ss
            err = np.max(np.abs(table.alpha[i2, :, column] - expected))
            assert err < 1e-7

    def test_output_is_weighted_amplitude_sum(self):
        # the stored alpha's modes added in order, bit for bit
        rng = np.random.default_rng(3)
        for n_modes in (1, 2, 3):
            cfg = model.ReadoutConfig(
                n_qubits=3, n_modes=n_modes,
                chi=rng.uniform(0.2, 0.8, (n_modes, 3)),
                kappa=rng.uniform(0.5, 3.0, n_modes),
                delta=rng.uniform(-3.0, 3.0, n_modes), gamma_z=np.zeros(3))
            times = cavity.time_grid(3.0, 600)
            table = cavity.integrate_amplitudes(cfg, default_pulse(), times)
            u = np.sqrt(cfg.kappa)
            manual = table.alpha[:, 0] * u[0]
            for k in range(1, n_modes):
                manual += table.alpha[:, k] * u[k]
            assert np.array_equal(table.output, manual)

    def test_ring_down_after_pulse(self):
        # every system eigenvalue has damping rate kappa/2 = 1, so the 3.5
        # units after drive-off shrink the residual by e^{-3.5} ~ 0.03
        cfg = model.default_config()
        pulse = default_pulse()
        times = cavity.time_grid(pulse.tau, 540)
        table = cavity.integrate_amplitudes(cfg, pulse, times)
        i_off = round(10.0 / table.dt)
        final = np.max(np.abs(table.alpha[-1]))
        at_off = np.max(np.abs(table.alpha[i_off]))
        assert final < 1e-2
        assert final < 0.05 * at_off

    def test_plateau_approaches_steady_state(self):
        # end of the flat top (t = 7.0); the rise transient has decayed by
        # about e^{-4} of its initial size by then
        cfg = model.default_config()
        pulse = default_pulse()
        times = cavity.time_grid(pulse.tau, 540)
        table = cavity.integrate_amplitudes(cfg, pulse, times)
        i = round(7.0 / table.dt)
        for j in range(cfg.dim):
            ss = cavity.steady_state_output(cfg, j, pulse.eps_ss)
            assert abs(table.output[i, table.classes[j]] - ss) < 1e-2

    def test_bad_grid_rejected(self):
        cfg = single_mode_config()
        with pytest.raises(ConfigError):
            cavity.integrate_amplitudes(cfg, 0.0, np.array([0.0]))

    @pytest.mark.parametrize("times", [
        np.zeros((3, 2)),
        np.array([0.5, 1.0, 1.5]),
        np.array([0.0, 0.1, 0.3, 0.4]),
        cavity.time_grid(1.0, 10) + np.eye(11)[5] * 1e-9,
        -cavity.time_grid(1.0, 10),
    ], ids=["two-d", "late-start", "uneven", "uneven-by-1e-9", "decreasing"])
    def test_grid_the_exact_build_needs(self, times):
        with pytest.raises(ConfigError):
            cavity.integrate_amplitudes(single_mode_config(), 0.3, times)

    def test_bad_drive_rejected(self):
        cfg = single_mode_config()
        times = cavity.time_grid(1.0, 10)
        with pytest.raises(ConfigError):
            cavity.integrate_amplitudes(cfg, lambda t: 0.3, times)

    def test_bool_drive_rejected(self):
        times = cavity.time_grid(1.0, 10)
        with pytest.raises(ConfigError, match="drive"):
            cavity.integrate_amplitudes(single_mode_config(), True, times)

    @pytest.mark.parametrize("drive", [
        1e160, default_pulse().replace(eps_ss=1e160)], ids=["step", "pulse"])
    def test_overflowing_amplitudes_rejected(self, config, drive):
        # |alpha|^2 would not be finite in the drift coefficient
        times = cavity.time_grid(13.5, 50)
        with pytest.raises(ConfigError, match="square is not finite"):
            cavity.integrate_amplitudes(config, drive, times)
        cavity.integrate_amplitudes(config, 1e150, times)

    @pytest.mark.parametrize("scale", [0.5, 1 / 1.45, 1 / 1.4, 1 / 1.2,
                                       1.0, 1.0 + 1e-15, np.inf, np.nan])
    def test_bound_is_the_largest_modulus(self, scale):
        # the parts' shortcut and the exact |alpha| give one verdict: the
        # largest |alpha| against sqrt(float max), on each axis and the
        # diagonal of the complex plane
        big = cavity._MAX_AMPLITUDE * scale
        for value in (big, -1j * big, big * (1 + 1j) / np.sqrt(2.0),
                      big * (1 - 1j)):
            alpha = np.array([[0.3, value], [1j, 0.0]])
            if np.abs(alpha).max() <= cavity._MAX_AMPLITUDE:
                assert cavity.require_bounded(alpha) is alpha
            else:
                with pytest.raises(ConfigError, match="not finite"):
                    cavity.require_bounded(alpha)

    def test_numpy_integer_drive_accepted(self):
        # a numpy integer is a real number; numpy's bool is not
        cfg, times = single_mode_config(), cavity.time_grid(1.0, 10)
        table = cavity.integrate_amplitudes(cfg, np.int64(1), times)
        assert np.array_equal(
            table.alpha, cavity.integrate_amplitudes(cfg, 1, times).alpha)
        for drive in (True, np.bool_(True)):
            with pytest.raises(ConfigError, match="drive"):
                cavity.integrate_amplitudes(cfg, drive, times)


def every_state_alone(rows):
    """model.distinct_rows with each row a class of its own."""
    index = np.arange(len(rows))
    return index, index


def class_table_designs():
    """reference_designs() and a 6-qubit chi-all-ones register."""
    designs = reference_designs()
    n = model.MAX_QUBITS
    designs["6q_ones"] = designs["default"].replace(
        n_qubits=n, chi=np.ones((2, n)), gamma_z=np.zeros(n))
    return designs


@pytest.mark.parametrize("name", sorted(class_table_designs()))
@pytest.mark.parametrize("n_steps", [1, 1234, 10 ** 4])
def test_class_table_is_the_per_state_table(name, n_steps, monkeypatch):
    # states of one coupling class share A_j, so the column integrated for
    # the class, read through classes, is the per-state table bit for bit;
    # the class arrays are C-contiguous
    config, pulse = class_table_designs()[name], default_pulse()
    times = cavity.time_grid(pulse.tau, n_steps)
    for drive in (pulse, 0.37):
        table = cavity.integrate_amplitudes(config, drive, times)
        with monkeypatch.context() as patch:
            patch.setattr(model, "distinct_rows", every_state_alone)
            alone = cavity.integrate_amplitudes(config, drive, times)
        for got, want in ((table.alpha, alone.alpha),
                          (table.output, alone.output)):
            assert np.array_equal(got[..., table.classes], want)
            assert got.flags.c_contiguous
        # one column per class: the table's classes are the grouping of
        # the signed chi sums and of its per-state outputs, and a table
        # built per state carries each state alone
        n_classes = table.classes.max() + 1
        assert table.alpha.shape == (len(times), config.n_modes, n_classes)
        assert table.output.shape == (len(times), n_classes)
        assert np.array_equal(
            table.classes,
            model.distinct_rows(model.signed_chi_sums(config).T)[1])
        assert np.array_equal(
            table.classes,
            model.distinct_rows(table.output[:, table.classes].T)[1])
        assert np.array_equal(alone.classes, np.arange(config.dim))


def einsum_table(config, drive, times):
    """(alpha, output) filled as integrate_amplitudes once filled them: the
    same propagators, the powers held as rows[b, k, a, j] = (expm(M_j
    h)^k)[a, b], each block of nodes contracted into the table by einsum and
    the output by one einsum over the whole table."""
    n_t, h = len(times), times[1]
    m, block = config.n_modes, cavity._BLOCK_NODES
    if isinstance(drive, PulseSpec):
        (starts, curvature), eps0 = pulse_pieces(drive), 0.0
    else:
        starts, curvature, eps0 = [0.0], [0.0], float(drive)
    reps, _ = model.distinct_rows(model.signed_chi_sums(config).T)
    gen = np.zeros((len(reps), m + 3, m + 3), dtype=complex)
    for c, j in enumerate(reps):
        gen[c, :m, :m], gen[c, :m, m], _, _ = cavity.state_space(config, j)
    gen[:, m, m + 1] = gen[:, m + 1, m + 2] = 1.0
    first = np.append(np.ceil(np.divide(starts, h)), n_t).clip(0, n_t)
    n_pieces = int(np.count_nonzero(first[:-1] < n_t))
    stops = np.append(starts[1:], times[-1])[:n_pieces]
    starts = starts[:n_pieces]
    n_block = min(block, n_t)
    props = cavity._expm(gen * np.concatenate(
        [[h, n_block * h], first[:n_pieces] * h - starts,
         stops - starts])[:, None, None, None])
    power, advance = props[0], props[1]
    rows = np.empty((m + 3, n_block, m, len(reps)), dtype=complex)
    rows[:, 0] = np.eye(m + 3, m)[:, :, None]
    n = 1
    while n < n_block:
        k = min(n, n_block - n)
        rows[:, n:n + k] = np.einsum("bkaj,jbc->ckaj", rows[:, :k], power)
        power, n = power @ power, n + k
    alpha = np.empty((n_t, m, len(reps)), dtype=complex)
    z = np.zeros((len(reps), m + 3), dtype=complex)
    z[:, m] = eps0
    for i in range(n_pieces):
        z[:, m + 2] = curvature[i]
        node = np.einsum("jab,jb->ja", props[2 + i], z)
        for lo in range(int(first[i]), int(first[i + 1]), n_block):
            hi = min(lo + n_block, int(first[i + 1]))
            np.einsum("bkaj,jb->kaj", rows[:, :hi - lo], node,
                      out=alpha[lo:hi])
            node = np.einsum("jab,jb->ja", advance, node)
        z = np.einsum("jab,jb->ja", props[2 + n_pieces + i], z)
    return alpha, np.einsum("tkj,k->tj", alpha, np.sqrt(config.kappa))


#: the table's rows are summed in another order than einsum's, so each
#: entry may move by a few roundings of the largest one
TABLE_RTOL = 2e-15


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_qubits=st.integers(1, 6),
       n_modes=st.integers(1, 3), chi_ones=st.booleans(),
       constant=st.booleans(),
       # node counts on both sides of _BLOCK_NODES and its multiples;
       # 13.5 / 27 k puts every piece start of the default pulse on a node
       n_steps=st.sampled_from([1, 2, 254, 255, 256, 257, 270, 511, 512,
                                513, 1234, 2700]))
@example(seed=1, n_qubits=6, n_modes=2, chi_ones=True, constant=False,
         n_steps=2700)
@example(seed=2, n_qubits=6, n_modes=3, chi_ones=False, constant=False,
         n_steps=513)
@example(seed=3, n_qubits=6, n_modes=1, chi_ones=False, constant=True,
         n_steps=256)
def test_block_products_match_the_einsum_contraction(
        seed, n_qubits, n_modes, chi_ones, constant, n_steps):
    # one batched product per block of nodes against the einsum it
    # replaced, on the same propagators; chi all ones puts several states
    # in a class, and distinct chi at 6 qubits makes 64 classes
    rng = np.random.default_rng(seed)
    config = model.ReadoutConfig(
        n_qubits=n_qubits, n_modes=n_modes,
        chi=(np.ones((n_modes, n_qubits)) if chi_ones
             else rng.uniform(0.5, 1.5, (n_modes, n_qubits))),
        kappa=rng.uniform(0.5, 4.0, n_modes),
        delta=rng.uniform(-3.0, 3.0, n_modes), gamma_z=np.zeros(n_qubits))
    pulse = default_pulse()
    drive = rng.uniform(-1.0, 1.0) if constant else pulse
    times = cavity.time_grid(pulse.tau, n_steps)
    table = cavity.integrate_amplitudes(config, drive, times)
    alpha, output = einsum_table(config, drive, times)
    assert table.alpha.shape == alpha.shape
    assert np.abs(table.alpha - alpha).max() <= \
        TABLE_RTOL * np.abs(alpha).max()
    assert np.abs(table.output - output).max() <= \
        TABLE_RTOL * np.abs(output).max()


class TestAgainstAdaptiveReference:
    """The exact table against adaptive DOP853 at rtol 1e-12."""

    def test_default_design(self):
        cfg, pulse = model.default_config(), default_pulse()
        times = cavity.time_grid(pulse.tau, 3000)
        table = cavity.integrate_amplitudes(cfg, pulse, times)
        ref = adaptive_reference(cfg, pulse, times)
        assert np.abs(table.alpha[..., table.classes] - ref).max() < 1e-10

    @pytest.mark.parametrize("seed", range(16))
    def test_random_designs(self, seed):
        # seeds 0-15 draw 1-4 qubits and 1-3 modes
        rng = np.random.default_rng(seed)
        cfg, pulse = random_config(rng, max_qubits=4), random_pulse(rng)
        times = cavity.time_grid(pulse.tau, int(rng.integers(100, 2000)))
        table = cavity.integrate_amplitudes(cfg, pulse, times)
        ref = adaptive_reference(cfg, pulse, times)
        assert np.abs(table.alpha[..., table.classes] - ref).max() < 1e-10

    def test_exceptional_point(self):
        # both A_j have a double eigenvalue; their eigenvector matrices
        # have condition numbers near 1e8, so no eig-based build is exact
        cfg = model.ReadoutConfig(n_qubits=1, n_modes=2, chi=[[0.3], [0.3]],
                                  kappa=[2.0, 2.0], delta=[1.3, -0.7],
                                  gamma_z=[0.0])
        for j in range(cfg.dim):
            lam = np.linalg.eigvals(cavity.state_space(cfg, j)[0])
            assert abs(lam[0] - lam[1]) < 1e-6
        pulse = default_pulse()
        times = cavity.time_grid(pulse.tau, 2000)
        table = cavity.integrate_amplitudes(cfg, pulse, times)
        ref = adaptive_reference(cfg, pulse, times)
        assert np.abs(table.alpha[..., table.classes] - ref).max() < 1e-10

    def test_constant_drive(self):
        cfg = model.default_config()
        times = cavity.time_grid(6.0, 1000)
        table = cavity.integrate_amplitudes(cfg, 0.37, times)
        ref = adaptive_reference(cfg, 0.37, times)
        assert np.abs(table.alpha[..., table.classes] - ref).max() < 1e-10


#: largest relative max-abs difference allowed between _expm and
#: scipy.linalg.expm: both are backward stable to about the unit roundoff
#: u, so they differ by about cond(exp, a) u, which is near |a|_1 u = 1e-13
#: at the largest 1-norm drawn, 1e3; the bound leaves a factor of 10
EXPM_RTOL = 1e-12


def expm_difference(got, want):
    """Largest |got - want| of each matrix over its largest |want|."""
    return (np.abs(got - want).max(axis=(-2, -1))
            / np.abs(want).max(axis=(-2, -1)))


@pytest.mark.parametrize("name", sorted(class_table_designs()))
@pytest.mark.parametrize("n_steps", [1, 1234])
def test_expm_matches_scipy_on_the_table_generators(name, n_steps,
                                                    monkeypatch):
    # every propagator of a table comes from one _expm call; on its own
    # generators at its own spans it agrees with scipy, and so does the
    # table built from scipy's propagators
    config, pulse = class_table_designs()[name], default_pulse()
    times = cavity.time_grid(pulse.tau, n_steps)
    for drive in (pulse, 0.37):
        calls, expm = [], cavity._expm

        def recorded(a):
            calls.append(a)
            return expm(a)

        with monkeypatch.context() as patch:
            patch.setattr(cavity, "_expm", recorded)
            table = cavity.integrate_amplitudes(config, drive, times)
        assert len(calls) == 1
        stack = calls[0]
        assert expm_difference(cavity._expm(stack),
                               scipy.linalg.expm(stack)).max() <= EXPM_RTOL
        with monkeypatch.context() as patch:
            patch.setattr(cavity, "_expm", scipy.linalg.expm)
            want = cavity.integrate_amplitudes(config, drive, times)
        for got, ref in ((table.alpha, want.alpha),
                         (table.output, want.output)):
            assert np.abs(got - ref).max() <= EXPM_RTOL * np.abs(ref).max()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       log_norms=st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=4))
def test_expm_matches_scipy_on_random_stacks(seed, n, log_norms):
    # complex Gaussian matrices, shifted so the rightmost eigenvalue lies on
    # the imaginary axis (exp neither overflows nor vanishes) and scaled to
    # 1-norms from 1e-8 to 1e3; the matrices of one stack take different
    # powers of two, and each one's result is the same bits alone
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(log_norms), n, n)) \
        + 1j * rng.normal(size=(len(log_norms), n, n))
    a -= np.linalg.eigvals(a).real.max(axis=-1)[:, None, None] * np.eye(n)
    a *= (10.0 ** np.array(log_norms)
          / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
    got = cavity._expm(a)
    assert expm_difference(got, scipy.linalg.expm(a)).max() <= EXPM_RTOL
    for i in range(len(a)):
        assert np.array_equal(cavity._expm(a[i:i + 1])[0], got[i])


def test_expm_of_a_jordan_block_is_its_series():
    # a nilpotent block's exponential is the finite series I + N + N^2/2,
    # which the [13/13] approximant reproduces to about the last bit
    for jordan in (np.diag([1.0, 1.0], 1), np.diag([1j, 1j], 1)):
        want = np.eye(3) + jordan + jordan @ jordan / 2
        got = cavity._expm(jordan[None])[0]
        assert np.abs(got - want).max() <= np.finfo(float).eps


def test_expm_of_zero_is_the_identity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cavity._expm(np.zeros((2, 3, 4, 4), dtype=complex))
    assert np.array_equal(got, np.broadcast_to(np.eye(4), got.shape))
