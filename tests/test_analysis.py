"""Record filtering, parity classification, ensemble bookkeeping, and the
circuit-based gate fidelity model."""

import warnings

import numpy as np
import pytest

from paritysim import analysis, model, sme
from paritysim.errors import (ConfigError, DegenerateFilterError,
                              GridMismatchError)
from paritysim.pulse import PulseSpec, default_pulse


@pytest.fixture(scope="module")
def small_table(config):
    return sme.build_table(config, default_pulse(), 1000)


@pytest.fixture(scope="module")
def quiet_table(config):
    quiet = PulseSpec(t_on=1.5, t_off=8.5, sigma=3.0, eps_ss=0.0, tau=13.5)
    return sme.build_table(config, quiet, 200)


class TestNominalRecord:
    def test_even_plateau_level(self, config, small_table):
        rec = analysis.nominal_record(config, small_table, "even")
        assert rec.shape == (1000,)
        i = round(6.75 / small_table.dt)
        # steady even output is (-1 - i) eps, so the record sits near
        # 2 Re = -2 eps
        assert rec[i] == pytest.approx(-2.0 * 0.4811, abs=2e-2)

    def test_odd_plateau_level(self, config, small_table):
        rec = analysis.nominal_record(config, small_table, "odd")
        i = round(6.75 / small_table.dt)
        assert rec[i] == pytest.approx(2.0 * 0.4811, abs=2e-2)

    def test_efficiency_scaling(self, config, small_table):
        full = analysis.nominal_record(config, small_table, "even")
        quarter = analysis.nominal_record(config.replace(eta=0.25),
                                          small_table, "even")
        assert np.allclose(quarter, 0.5 * full)

    def test_phase_pi_flips_sign(self, config, small_table):
        rec0 = analysis.nominal_record(config, small_table, "even")
        rec_pi = analysis.nominal_record(config.replace(phi=np.pi),
                                         small_table, "even")
        assert np.allclose(rec_pi, -rec0, atol=1e-12)


class TestBuildFilter:
    def test_kinds_normalized_to_unit_integral(self, config, small_table):
        for kind in analysis.FILTER_KINDS:
            filt = analysis.build_filter(config, small_table, kind)
            assert filt.kind == kind
            assert filt.values.shape == (1000,)
            assert np.sum(filt.values) * filt.dt == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_uniform_is_constant(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "uniform")
        assert np.allclose(filt.values, 1.0 / 13.5)

    def test_matched_follows_reference_record(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "matched")
        rec = analysis.nominal_record(config, small_table, "even")
        norm = rec.sum() * filt.dt
        assert np.allclose(filt.values, rec / norm)

    def test_orientation_negative_for_this_design(self, config, small_table):
        # the even-parity record is negative, so the oriented sign rule
        # must flip raw signals
        for kind in analysis.FILTER_KINDS:
            filt = analysis.build_filter(config, small_table, kind)
            assert filt.nominal_even < 0.0
            assert filt.orientation == -1.0

    def test_record_weights_write_the_values(self, config, small_table):
        # the ensemble takes every signal from three record sums, so the
        # values must be that combination of the parity references and 1
        basis = np.stack([analysis.nominal_record(config, small_table, "even"),
                          analysis.nominal_record(config, small_table, "odd"),
                          np.ones(1000)])
        for kind in analysis.FILTER_KINDS:
            filt = analysis.build_filter(config, small_table, kind)
            assert filt.record_weights.shape == (3,)
            assert np.allclose(filt.record_weights @ basis, filt.values,
                               rtol=1e-13, atol=0.0)

    def test_unknown_kind_rejected(self, config, small_table):
        with pytest.raises(ConfigError):
            analysis.build_filter(config, small_table, "boxcar")

    def test_zero_drive_matched_filter_degenerate(self, config, quiet_table):
        with pytest.raises(DegenerateFilterError):
            analysis.build_filter(config, quiet_table, "matched")

    def test_zero_drive_uniform_orientation_degenerate(self, config,
                                                       quiet_table):
        filt = analysis.build_filter(config, quiet_table, "uniform")
        assert filt.nominal_even == 0.0
        with pytest.raises(DegenerateFilterError):
            filt.orientation


class TestClassification:
    def test_noiseless_records_classified(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "matched")
        even_rec = analysis.nominal_record(config, small_table, "even")
        odd_rec = analysis.nominal_record(config, small_table, "odd")
        label_e, s_e = analysis.classify(filt, even_rec)
        label_o, s_o = analysis.classify(filt, odd_rec)
        assert label_e == "even"
        assert label_o == "odd"
        assert s_e == pytest.approx(filt.nominal_even)
        assert s_e < 0.0 < s_o

    def test_integrated_signal_matches_quadrature(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "uniform")
        rec = analysis.nominal_record(config, small_table, "even")
        s = float(filt.integrate(rec))
        assert s == pytest.approx(np.sum(rec) * filt.dt / 13.5)

    def test_batched_integration(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "matched")
        rec = analysis.nominal_record(config, small_table, "even")
        batch = np.stack([rec, -rec, 2.0 * rec])
        out = filt.integrate(batch)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(-out[0])
        assert out[2] == pytest.approx(2.0 * out[0])

    def test_grid_mismatch_rejected(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "matched")
        with pytest.raises(GridMismatchError):
            filt.integrate(np.zeros(999))

    def test_sign_rule(self):
        assert analysis.assign_parity(0.3) == "even"
        assert analysis.assign_parity(-1e-12) == "odd"
        with pytest.warns(UserWarning):
            assert analysis.assign_parity(0.0) == "even"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labels = analysis.assign_parity(np.array([0.3, 0.0, -2.0, 0.0]))
        assert labels.tolist() == ["even", "even", "odd", "even"]
        assert len(caught) == 1
        assert "exactly zero" in str(caught[0].message)

    def test_non_finite_signal_rejected(self, config, small_table):
        filt = analysis.build_filter(config, small_table, "matched")
        record = analysis.nominal_record(config, small_table, "even")
        record[500] = np.nan
        with pytest.raises(ConfigError, match="not finite"):
            analysis.classify(filt, record)
        for signal in ([np.nan], [0.3, -np.inf]):
            with pytest.raises(ConfigError, match="not finite"):
                analysis.assign_parity(signal)


class TestStateFidelity:
    def test_pure_match(self):
        psi = model.psi_plus(3)
        rho = np.outer(psi, psi.conj())
        assert analysis.state_fidelity(rho, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        psi = model.psi_plus(3)
        phi = model.psi_minus(3)
        rho = np.outer(psi, psi.conj())
        assert analysis.state_fidelity(rho, phi) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_uniform_superposition_overlap(self):
        rho = model.plus_density(3)
        fid = analysis.state_fidelity(rho, model.psi_plus(3))
        assert fid == pytest.approx(np.sqrt(0.5))

    def test_batched(self):
        psi = model.psi_plus(3)
        rhos = np.stack([np.outer(psi, psi.conj()), np.eye(8) / 8.0])
        out = analysis.state_fidelity(rhos, psi)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(np.sqrt(1.0 / 8.0))


@pytest.fixture(scope="module")
def summary(config):
    return analysis.ensemble_run(
        config, n_traj=24, n_steps=2000, base_seed=123,
        filter_kinds=("matched", "uniform"))


class TestEnsembleRun:
    def test_bookkeeping(self, summary):
        assert summary.n_traj == 24
        assert summary.n_steps == 2000
        assert set(summary.signals) == {"matched", "uniform"}
        assert summary.signals["matched"].shape == (24,)
        assert summary.assignments["matched"].shape == (24,)
        assert summary.fidelity_even.shape == (24,)
        assert set(summary.diagnostics_worst) == {
            "trace_dev", "herm_dev", "min_eig", "purity_excess",
            "diag_drift"}

    def test_chunk_size_invariance(self, config, summary, monkeypatch):
        # chunks of 7 trajectories: each counts its normals and its state.
        # E and the certificate are built on the first chunk and reused by
        # the others, and no chunk groups its broadcast rho0 rows: the one
        # _distinct call groups the law's output columns
        law = sme.IntervalLaw(config, sme.build_table(config, None, 2000))
        monkeypatch.setattr(analysis, "_CHUNK_NUMBERS",
                            7 * (law.n_normals + config.dim ** 2))
        sample, chunks = sme.IntervalLaw.sample, []
        calls = {"_node_exponents": 0, "_distinct": 0}

        def counting(self, rho0, base_seed, indices):
            chunks.append(len(indices))
            return sample(self, rho0, base_seed, indices)

        def counted(name):
            original = getattr(sme, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sme.IntervalLaw, "sample", counting)
        for name in calls:
            monkeypatch.setattr(sme, name, counted(name))
        again = analysis.ensemble_run(
            config, n_traj=24, n_steps=2000, base_seed=123,
            filter_kinds=("matched", "uniform"))
        assert chunks == [7, 7, 7, 3]
        assert calls == {"_node_exponents": 1, "_distinct": 1}
        assert np.array_equal(again.signals["matched"],
                              summary.signals["matched"])
        assert np.array_equal(again.signals["uniform"],
                              summary.signals["uniform"])
        assert np.array_equal(again.fidelity_even, summary.fidelity_even)
        assert again.diagnostics_worst == summary.diagnostics_worst

    def test_classes_present_and_fidelities_sane(self, summary):
        frac = summary.odd_fraction("matched")
        assert 0.0 < frac < 1.0
        fid = summary.assigned_fidelity("matched")
        assert np.all(fid >= 0.0)
        assert np.all(fid <= 1.0 + 1e-9)
        assert summary.rms_fidelity("matched") > 0.5

    def test_class_means_straddle_zero(self, summary):
        mean_even, mean_odd = summary.class_means("matched")
        # raw signals: even-parity records integrate negative here
        assert mean_even < 0.0 < mean_odd

    def test_separation_positive(self, summary):
        assert summary.separation("matched") > 1.0

    def test_register_cap(self, config):
        # 6 qubits: the positivity certificate is one 64 x 64 eigvalsh per
        # checkpoint, and only the final states are built
        n = model.MAX_QUBITS
        wide = config.replace(n_qubits=n, chi=np.ones((config.n_modes, n)),
                              gamma_z=np.full(n, config.gamma_z[0]))
        summary = analysis.ensemble_run(wide, n_traj=50, n_steps=2000,
                                        base_seed=5)
        worst = summary.diagnostics_worst
        assert worst["min_eig"] > -1e-8
        assert worst["trace_dev"] < 1e-10
        assert worst["herm_dev"] < 1e-12
        assert worst["purity_excess"] <= 1e-8
        assert worst["diag_drift"] < 1e-10
        for fid in (summary.fidelity_even, summary.fidelity_odd):
            assert np.all((0.0 <= fid) & (fid <= 1.0))

    def test_histogram_counts(self, summary):
        counts, edges = summary.histogram("matched")
        assert counts.sum() == 24
        assert len(edges) == len(counts) + 1

    def test_rms_fidelity_class_filter(self, summary):
        full = summary.rms_fidelity("matched")
        even = summary.rms_fidelity("matched", "even")
        odd = summary.rms_fidelity("matched", "odd")
        lo, hi = min(even, odd), max(even, odd)
        assert lo - 1e-12 <= full <= hi + 1e-12

    def test_invalid_sizes_rejected(self, config):
        with pytest.raises(ConfigError):
            analysis.ensemble_run(config, n_traj=0, n_steps=100)

    def test_non_integer_trajectory_count_rejected(self, config):
        with pytest.raises(ConfigError, match="n_traj must be an integer"):
            analysis.ensemble_run(config, n_traj=2.5, n_steps=100)

    def test_draws_no_per_step_noise(self, config, monkeypatch):
        # the ensemble draws per-interval statistics: no per-step noise,
        # no per-step sampler and no filter integral over a record
        def refuse(*args, **kwargs):
            raise AssertionError("a per-step path was called")

        monkeypatch.setattr(sme, "wiener_increments", refuse)
        monkeypatch.setattr(sme, "sample_batch", refuse)
        monkeypatch.setattr(analysis.FilterFunction, "integrate", refuse)
        summary = analysis.ensemble_run(
            config, n_traj=12, n_steps=500, base_seed=3,
            filter_kinds=analysis.FILTER_KINDS)
        for kind in analysis.FILTER_KINDS:
            assert np.isfinite(summary.signals[kind]).all()
        assert np.all(summary.fidelity_even + summary.fidelity_odd > 0.0)

    def test_unorientable_filter_fails_before_sampling(self, config,
                                                       monkeypatch):
        # with eta = 0 the uniform filter sees no signal, so its
        # orientation is undefined; that must surface before any normal
        # is drawn, and every normal comes from a trajectory's stream
        def no_sampling(*args, **kwargs):
            raise AssertionError("a trajectory stream was opened")

        monkeypatch.setattr(sme, "trajectory_rng", no_sampling)
        with pytest.raises(DegenerateFilterError, match="oriented"):
            analysis.ensemble_run(config.replace(eta=0.0), n_traj=300,
                                  n_steps=200, filter_kinds=("uniform",))

    def test_undefined_class_statistics_are_none(self):
        # three records all assigned even: no statistic of the odd class,
        # nor the separation, is defined; the test settings turn any
        # RuntimeWarning into an error
        tiny = analysis.EnsembleSummary(
            n_traj=3, n_steps=100, base_seed=0, filters={},
            signals={"matched": np.array([-0.5, -1.0, -2.0])},
            assignments={"matched": np.array(["even"] * 3)},
            fidelity_even=np.array([0.9, 0.95, 0.8]),
            fidelity_odd=np.array([0.1, 0.2, 0.3]), diagnostics=None,
            basis_index=np.zeros(3, dtype=int))
        assert tiny.odd_fraction("matched") == 0.0
        assert tiny.class_means("matched") is None
        assert tiny.separation("matched") is None
        assert tiny.rms_fidelity("matched", "odd") is None
        assert tiny.rms_fidelity("matched", "even") == \
            tiny.rms_fidelity("matched")

    def test_zero_signal_assigned_even(self, config, monkeypatch):
        # every signal is a combination of the record sums: zero them
        sample = sme.IntervalLaw.sample

        def zero_sums(self, *args):
            js, rho, record_sums, diagnostics = sample(self, *args)
            return js, rho, np.zeros_like(record_sums), diagnostics

        monkeypatch.setattr(sme.IntervalLaw, "sample", zero_sums)
        with pytest.warns(UserWarning, match="exactly zero"):
            zero = analysis.ensemble_run(config, n_traj=3, n_steps=100)
        assert zero.assignments["matched"].tolist() == ["even"] * 3


class TestGateModel:
    def test_perfect_operations(self):
        assert analysis.gate_fidelity(0.0) == pytest.approx(1.0)

    def test_anchor_values(self):
        assert analysis.gate_fidelity(1.0 / 99.0) == pytest.approx(
            0.957966, abs=1e-5)
        assert analysis.gate_fidelity(0.1) == pytest.approx(
            0.668476, abs=1e-5)

    def test_small_p_slope(self):
        h = 1e-4
        slope = (analysis.gate_fidelity(h) - 1.0) / h
        assert slope == pytest.approx(-64.0 / 15.0, rel=1e-3)

    def test_monotone_decreasing(self):
        p = np.linspace(0.0, 0.1, 201)
        f = analysis.gate_fidelity(p)
        assert f.shape == (201,)
        assert np.all(np.diff(f) < 0.0)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            analysis.gate_fidelity(-0.01)
        with pytest.raises(ValueError):
            analysis.gate_fidelity(0.11)

    def test_solve_round_trip(self):
        for p in (0.001, 0.0123, 0.05, 0.0999):
            f = analysis.gate_fidelity(p)
            assert analysis.solve_error_rate(f) == pytest.approx(p,
                                                                 abs=1e-10)

    def test_solve_edge_cases(self):
        assert analysis.solve_error_rate(1.0) == 0.0
        with pytest.raises(ValueError):
            analysis.solve_error_rate(0.5)
        with pytest.raises(ValueError):
            analysis.solve_error_rate(1.01)

    def test_target_error_rate_band(self):
        p = analysis.solve_error_rate(0.94)
        assert 0.014 <= p <= 0.015


@pytest.mark.parametrize("call", [
    lambda summary: model.parity_indices(3, "Even"),
    lambda summary: analysis.gate_fidelity(0.2),
    lambda summary: analysis.solve_error_rate(0.5),
    lambda summary: summary.rms_fidelity("matched", "Odd"),
], ids=["parity_indices", "gate_fidelity", "solve_error_rate",
        "rms_fidelity"])
def test_bad_argument_raises_config_error(summary, call):
    with pytest.raises(ConfigError):
        call(summary)
