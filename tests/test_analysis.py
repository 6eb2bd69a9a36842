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
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", 7)
        again = analysis.ensemble_run(
            config, n_traj=24, n_steps=2000, base_seed=123,
            filter_kinds=("matched", "uniform"))
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

    def test_unorientable_filter_fails_before_sampling(self, config,
                                                       monkeypatch):
        # with eta = 0 the uniform filter sees no signal, so its
        # orientation is undefined; that must surface before any record
        # is sampled
        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_batch was called")

        monkeypatch.setattr(analysis, "sample_batch", no_sampling)
        with pytest.raises(DegenerateFilterError, match="oriented"):
            analysis.ensemble_run(config.replace(eta=0.0), n_traj=300,
                                  n_steps=200, filter_kinds=("uniform",))

    def test_zero_signal_assigned_even(self, config, monkeypatch):
        monkeypatch.setattr(analysis.FilterFunction, "integrate",
                            lambda self, records: np.zeros(len(records)))
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
