"""The exact-in-law mixture sampler (sme.mixture_noise, sme.sample_batch).

Covers: the basis-state draw against diag(rho0) and its place in the
stream, the sampler against the order-1.5 stepper in law (KS on the
matched-filter signals, mean F^2), its pathwise order on coarsened noise,
rows independent of the batch, of the block of states and of the block
of steps, the one node-weight sum of S against the noise and drift parts
summed apart, typed errors on malformed input, and the eta = 0 limit. No
seed here was chosen to pass.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from paritysim import analysis, model, sme
from paritysim.errors import ConfigError
from paritysim.pulse import default_pulse

from test_sme import (DEGENERATE_BATCHES, DEGENERATE_IDS, assert_rows_equal,
                      coarsen, reference_designs, running_sum)


@pytest.fixture(scope="module")
def rho0():
    return model.plus_density(3)


class TestMixtureNoise:
    def test_basis_frequencies_follow_populations(self):
        # a register state with unequal populations, one of them zero
        populations = np.array([0.3, 0.0, 0.05, 0.15, 0.1, 0.2, 0.12, 0.08])
        state = np.diag(populations).astype(complex)
        table = sme.build_table(model.default_config(), default_pulse(), 4)
        js, _, _ = sme.mixture_noise(table, state, 3, range(4000))
        counts = np.bincount(js, minlength=8)
        assert counts[1] == 0
        keep = populations > 0
        _, p = stats.chisquare(counts[keep], 4000 * populations[keep])
        assert p > 1e-3, counts

    def test_draw_order_replays_from_seed_and_index(self, rho0):
        # one uniform for j, then wiener_increments, on the index's stream;
        # a row does not depend on the other indices drawn with it
        table = sme.build_table(model.default_config(), default_pulse(), 50)
        js, dws, dzs = sme.mixture_noise(table, rho0, 8, range(6))
        for index in range(6):
            rng = sme.trajectory_rng(8, index)
            assert js[index] == math.floor(8 * rng.random())
            dw, dz = sme.wiener_increments(rng, 50, table.dt)
            assert np.array_equal(dws[index], dw)
            assert np.array_equal(dzs[index], dz)
        alone = sme.mixture_noise(table, rho0, 8, [4])
        assert alone[0][0] == js[4]
        assert np.array_equal(alone[1][0], dws[4])

    @pytest.mark.parametrize("state, match", [
        (model.plus_density(2), "shape"),
        (-model.plus_density(3), "negative"),
        (2 * model.plus_density(3), "unit trace"),
    ], ids=["other_register", "negative", "trace_two"])
    def test_bad_state_rejected(self, state, match):
        table = sme.build_table(model.default_config(), default_pulse(), 10)
        with pytest.raises(ConfigError, match=match):
            sme.mixture_noise(table, state, 0, range(2))


def test_ensemble_basis_index_follows_populations(config):
    summary = analysis.ensemble_run(config, n_traj=4000, n_steps=20,
                                    base_seed=5)
    counts = np.bincount(summary.basis_index, minlength=config.dim)
    _, p = stats.chisquare(counts)
    assert p > 1e-3, counts


def matched_statistics(config, table, rho0, records, rho_final):
    """(matched-filter signals, squared assigned fidelities)."""
    filt = analysis.build_filter(config, table, "matched")
    signals = filt.integrate(records)
    even = analysis.assign_parity(signals * filt.orientation) == "even"
    fid = np.where(even,
                   analysis.state_fidelity(rho_final, model.psi_plus(3)),
                   analysis.state_fidelity(rho_final, model.psi_minus(3)))
    return signals, fid ** 2


def test_agrees_in_law_with_stepper(config, pulse, rho0):
    n_traj, n_steps = 1000, 2000
    table = sme.build_table(config, pulse, n_steps)
    js, dws, dzs = sme.mixture_noise(table, rho0, 0, range(n_traj))
    rho, records, _ = sme.sample_batch(config, table, rho0, js, dws, dzs)
    signals, f2 = matched_statistics(config, table, rho0, records, rho)
    dws, dzs = sme.trajectory_noise(table, 1, range(n_traj))
    rho, records, _ = sme.simulate_batch(config, table, rho0, dws, dzs)
    ref_signals, ref_f2 = matched_statistics(config, table, rho0, records,
                                             rho)
    assert stats.ks_2samp(signals, ref_signals).pvalue > 1e-3
    se = math.sqrt(f2.var(ddof=1) / n_traj + ref_f2.var(ddof=1) / n_traj)
    assert abs(f2.mean() - ref_f2.mean()) < 4.0 * se


def test_pathwise_error_second_order(config, pulse, rho0):
    # coarsened 4x10^4-step noise, the same basis states; the error at
    # 1250, 2500 and 5000 steps falls about 4x per halving of dt
    fine = 40_000
    fine_table = sme.build_table(config, pulse, fine)
    js, dws, dzs = sme.mixture_noise(fine_table, rho0, 2, range(10))
    ref, _, _ = sme.sample_batch(config, fine_table, rho0, js, dws, dzs)
    errors = []
    for n_steps in (1250, 2500, 5000):
        table = sme.build_table(config, pulse, n_steps)
        rho, _, _ = sme.sample_batch(
            config, table, rho0, js,
            *coarsen(dws, dzs, fine // n_steps, fine_table.dt))
        errors.append(np.abs(rho - ref).max())
    assert errors[0] > 3.0 * errors[1] > 9.0 * errors[2], errors


class TestRowsIndependent:
    @pytest.fixture(scope="class")
    def batch(self, config, pulse, rho0):
        table = sme.build_table(config, pulse, 500)
        js, dws, dzs = sme.mixture_noise(table, rho0, 6, range(100))
        out = sme.sample_batch(config, table, rho0, js, dws, dzs)
        return table, js, dws, dzs, out

    @pytest.mark.parametrize("size", [1, 7])
    def test_rows_alone_and_in_chunks_match_batch(self, config, rho0, batch,
                                                  size):
        table, js, dws, dzs, want = batch
        for lo in range(0, 100, size):
            rows = slice(lo, lo + size)
            got = sme.sample_batch(config, table, rho0, js[rows], dws[rows],
                                   dzs[rows])
            assert_rows_equal(got, want, rows)

    @pytest.mark.parametrize("value", [1, 7, 10 ** 6])
    def test_block_of_states_invisible(self, config, rho0, batch,
                                       monkeypatch, value):
        table, js, dws, dzs, want = batch
        monkeypatch.setattr(sme, "_BLOCK_MATRICES", value)
        got = sme.sample_batch(config, table, rho0, js[:13], dws[:13],
                               dzs[:13])
        assert_rows_equal(got, want, slice(0, 13))

    @pytest.mark.parametrize("block_steps", [1, 2, 3, 7])
    def test_step_block_invisible(self, config, rho0, batch, monkeypatch,
                                  block_steps):
        # S is summed over each checkpoint interval (5 steps here) at once,
        # and E at a node sums sub-blocks counted from step 0, so no output
        # depends on _BLOCK_STEPS
        table, js, dws, dzs, want = batch
        monkeypatch.setattr(sme, "_BLOCK_STEPS", block_steps)
        got = sme.sample_batch(config, table, rho0, js, dws, dzs)
        assert_rows_equal(got, want, slice(None))


def two_part_exponents(config, table, c_all, js, dws, dzs, nodes, records):
    """S at each node as a noise part plus a drift part, summed apart.

    The noise part int c_i dW' = c0_i dZ/dt + c1_i (dW - dZ/dt) is a node
    weight times c; the drift part 2 sqrt(eta) int c_i Re c_j ds depends
    on (i, j) only and is summed into a (d, d) table at the nodes, indexed
    by j.
    """
    dt = table.dt
    sqrt_eta = math.sqrt(config.eta)

    c = c_all[:, :, None]
    re_c = c.real.swapaxes(-1, -2)
    drift_steps = (2.0 * sqrt_eta * dt) * (
        (c[:-1] * re_c[:-1] + c[1:] * re_c[1:]) / 3.0
        + (c[:-1] * re_c[1:] + c[1:] * re_c[:-1]) / 6.0)
    drift = running_sum(drift_steps, nodes)
    noise = np.zeros((len(dws), config.dim), dtype=complex)
    lo = 0
    for k, hi in enumerate(nodes):
        dw, dz = dws[:, lo:hi], dzs[:, lo:hi] / dt
        weights = np.zeros((len(dws), hi - lo + 1))
        weights[:, :-1] = dz
        weights[:, 1:] += dw - dz
        noise += weights @ c_all[lo:hi + 1]
        records[:, lo:hi] = ((2.0 * sqrt_eta) * c_all[lo:hi, js].real.T
                             + dw / dt)
        lo = hi
        yield noise.T + drift[k][:, js]


@pytest.mark.parametrize("name", ["default", "4q_3m"])
def test_one_node_weight_equals_two_part_sum(name, pulse):
    # the same E, states and diagnostics from S summed in two parts: the
    # records are the same numbers, S differs by rounding
    config = reference_designs()[name]
    table = sme.build_table(config, pulse, 1500)
    rho0 = model.plus_density(config.n_qubits)
    js, dws, dzs = sme.mixture_noise(table, rho0, 4, range(13))
    got = sme.sample_batch(config, table, rho0, js, dws, dzs)
    rho0s, dws, dzs, nodes = sme._batch_inputs(config, table, rho0, dws,
                                               dzs, 0)
    c_all = sme.measurement_diag(config, table.output)
    records = np.empty(dws.shape)
    rho, diagnostics = sme._solve(
        config, table, c_all, rho0s, nodes,
        two_part_exponents(config, table, c_all, js, dws, dzs, nodes,
                           records))
    assert np.array_equal(got[1], records)
    assert np.abs(got[0] - rho).max() < 1e-13
    for field in fields(sme.Diagnostics):
        assert np.abs(getattr(got[2], field.name)
                      - getattr(diagnostics, field.name)).max() < 1e-13


class TestRejected:
    @pytest.mark.parametrize("state, dws, dzs, match", DEGENERATE_BATCHES,
                             ids=DEGENERATE_IDS)
    def test_same_errors_as_stepper(self, config, state, dws, dzs, match):
        table = sme.build_table(config, default_pulse(), 100)
        with pytest.raises(ConfigError, match=match):
            sme.sample_batch(config, table, state, np.zeros(1, dtype=int),
                             dws, dzs)

    def test_table_of_other_register_rejected(self, config):
        table = sme.build_table(config, default_pulse(), 100)
        small = model.ReadoutConfig(n_qubits=2, n_modes=1, chi=[[1.0, 1.0]],
                                    delta=[0.5], kappa=[2.0],
                                    gamma_z=[0.0, 0.0])
        with pytest.raises(ConfigError, match="amplitude table"):
            sme.sample_batch(small, table, model.plus_density(2),
                             np.arange(2), np.zeros((2, 100)),
                             np.zeros((2, 100)))

    @pytest.mark.parametrize("js, match", [
        (np.zeros(3, dtype=int), "one integer per noise row"),
        (np.zeros(2), "one integer per noise row"),
        (np.array([0, 8]), "outside"),
        (np.array([-1, 0]), "outside"),
        (np.array([0, 3]), "does not populate"),
    ], ids=["too_many", "float", "above_register", "negative",
            "unpopulated"])
    def test_bad_basis_index_rejected(self, config, js, match):
        table = sme.build_table(config, default_pulse(), 100)
        state = np.zeros((8, 8), dtype=complex)
        state[0, 0] = 1.0
        dws, dzs = np.zeros((2, 100)), np.zeros((2, 100))
        with pytest.raises(ConfigError, match=match):
            sme.sample_batch(config, table, state, js, dws, dzs)


def test_no_detection_is_unconditional_evolution(config, pulse, rho0):
    # at eta = 0 the record carries no information: the conditioned state
    # is the deterministic one (trapezoid against Simpson E)
    cfg = config.replace(eta=0.0)
    table = sme.build_table(cfg, pulse, 1000)
    js, dws, dzs = sme.mixture_noise(table, rho0, 3, range(2))
    rho, _, _ = sme.sample_batch(cfg, table, rho0, js, dws, dzs)
    det = sme.simulate_deterministic(cfg, pulse, n_steps=1000)
    assert np.abs(rho - det.rhos[-1]).max() < 1e-9
