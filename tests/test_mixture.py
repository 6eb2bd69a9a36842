"""The exact-in-law mixture sampler (sme.IntervalLaw, sme.mixture_noise,
sme.sample_batch).

Covers: the basis-state draw against diag(rho0) and its place in the
stream, the sampler against the order-1.5 stepper in law (KS on the
matched-filter signals, mean F^2), the interval law's factor against its
definition and its rows against sample_batch on their per-step noise,
its pathwise order on coarsened noise,
rows independent of the batch, of the block of states, of the pass of
checkpoints and of the block of steps, the one node-weight sum of S
against the noise and drift parts summed apart, typed errors on
malformed input, and the eta = 0 limit. No seed here was chosen to
pass.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from paritysim import analysis, model, sme
from paritysim.errors import ConfigError
from paritysim.pulse import default_pulse

from test_sme import (DEGENERATE_BATCHES, DEGENERATE_IDS, assert_rows_equal,
                      coarsen, reference_designs, register_configs,
                      running_sum)


@pytest.fixture(scope="module")
def rho0():
    return model.plus_density(3)


class TestMixtureNoise:
    def test_basis_frequencies_follow_populations(self, config):
        # a register state with unequal populations, one of them zero
        populations = np.array([0.3, 0.0, 0.05, 0.15, 0.1, 0.2, 0.12, 0.08])
        state = np.diag(populations).astype(complex)
        table = sme.build_table(config, default_pulse(), 4)
        js, _, _ = sme.mixture_noise(config, table, state, 3, range(4000))
        counts = np.bincount(js, minlength=8)
        assert counts[1] == 0
        keep = populations > 0
        _, p = stats.chisquare(counts[keep], 4000 * populations[keep])
        assert p > 1e-3, counts

    def test_draw_order_replays_from_seed_and_index(self, config, rho0):
        # one uniform for j, then the interval law's normals, on the
        # index's stream; a row does not depend on the other indices drawn
        # with it
        table = sme.build_table(config, default_pulse(), 250)
        law = sme.IntervalLaw(config, table, rho0)
        js, dws, dzs = sme.mixture_noise(config, table, rho0, 8, range(6))
        law_js, xi = law.normals(8, range(6))
        assert np.array_equal(js, law_js)
        for index in range(6):
            rng = sme.trajectory_rng(8, index)
            assert js[index] == math.floor(8 * rng.random())
            assert np.array_equal(xi[index],
                                  rng.standard_normal(law.n_normals))
        alone = sme.mixture_noise(config, table, rho0, 8, [4])
        assert alone[0][0] == js[4]
        assert np.array_equal(alone[1][0], dws[4])
        assert np.array_equal(alone[2][0], dzs[4])

    @pytest.mark.parametrize("state, match", [
        (model.plus_density(2), "shape"),
        (-model.plus_density(3), "negative"),
        (2 * model.plus_density(3), "unit trace"),
    ], ids=["other_register", "negative", "trace_two"])
    def test_bad_state_rejected(self, config, state, match):
        # the law of one state checks it when it is built
        table = sme.build_table(config, default_pulse(), 10)
        with pytest.raises(ConfigError, match=match):
            sme.mixture_noise(config, table, state, 0, range(2))
        with pytest.raises(ConfigError, match=match):
            sme.IntervalLaw(config, table, state)


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
    js, dws, dzs = sme.mixture_noise(config, table, rho0, 0, range(n_traj))
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
    js, dws, dzs = sme.mixture_noise(config, fine_table, rho0, 2, range(10))
    ref, _, _ = sme.sample_batch(config, fine_table, rho0, js, dws, dzs)
    errors = []
    for n_steps in (1250, 2500, 5000):
        table = sme.build_table(config, pulse, n_steps)
        rho, _, _ = sme.sample_batch(
            config, table, rho0, js,
            *coarsen(dws, dzs, fine // n_steps, fine_table.dt))
        errors.append(np.abs(rho - ref).max())
    assert errors[0] > 3.0 * errors[1] > 9.0 * errors[2], errors


def reference_basis(config, table):
    """(3, n_steps): g = (j_even, j_odd, 1) on the record's left nodes."""
    return np.stack([analysis.nominal_record(config, table, "even"),
                     analysis.nominal_record(config, table, "odd"),
                     np.ones(len(table.times) - 1)])


def interval_matrix(c_pairs, basis, lo, hi, dt):
    """A_k of steps lo..hi - 1 from its definition, (2 d + 3, 2 L).

    One S column pair per basis state, as (Re S_i, Im S_i), then the
    three record sums; the columns of the steps' z1, then of their z2.
    """
    c = c_pairs[lo:hi + 1]
    half = 0.5 * math.sqrt(dt)
    return np.block([
        [half * (c[:-1] + c[1:]).T, half / math.sqrt(3.0) * (c[:-1]
                                                           - c[1:]).T],
        [math.sqrt(dt) * basis[:, lo:hi], np.zeros((3, hi - lo))]])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cfg=register_configs().filter(lambda cfg: cfg.eta > 0.0),
       n_steps=st.sampled_from([57, 250, 1234]),
       seed=st.integers(0, 2 ** 16))
def test_interval_law_is_exact(cfg, n_steps, seed):
    # R_k^T R_k = A_k A_k^T on every interval, with A_k built from its
    # definition (one S column per basis state; the law shares a column
    # between states of the same c), and ensemble rows replay through
    # sample_batch on mixture_noise. 1234 steps end on a short interval
    # (12 steps per interval, then 10); 57 take one step per interval, so
    # 2 L < D there
    table = sme.build_table(cfg, default_pulse(), n_steps)
    rho0 = model.plus_density(cfg.n_qubits)
    law = sme.IntervalLaw(cfg, table, rho0)
    columns = law.columns
    width = 2 * columns.max() + 5
    expand = np.concatenate([np.stack([2 * columns, 2 * columns + 1],
                                      axis=-1).ravel(),
                             width - 3 + np.arange(3)])
    c_pairs = sme.measurement_diag(
        cfg, table.output.take(table.classes, axis=1)).view(float)
    basis = reference_basis(cfg, table)
    normals = 0
    for k0, k1, factor, _ in law.runs:
        for k in range(k0, k1):
            lo, hi = law.nodes[k], law.nodes[k + 1]
            assert factor.shape[1:] == (min(2 * (hi - lo), width), width)
            a = interval_matrix(c_pairs, basis, lo, hi, table.dt)
            want = a @ a.T
            got = (factor[k - k0].T @ factor[k - k0])[np.ix_(expand, expand)]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            normals += factor.shape[1]
    assert law.n_normals == normals
    lengths = set(np.diff(law.nodes))
    assert lengths == {57: {1}, 250: {2}, 1234: {12, 10}}[n_steps]

    indices = [seed, seed + 1, seed + 7]
    js, rho, sums, diagnostics = law.sample(seed, indices)
    replay_js, dws, dzs = sme.mixture_noise(cfg, table, rho0, seed, indices)
    assert np.array_equal(js, replay_js)
    want_rho, records, want_diag = sme.sample_batch(cfg, table, rho0, js,
                                                    dws, dzs)
    assert np.abs(rho - want_rho).max() <= 1e-10
    want_sums = (records[:, None, :] * basis).sum(axis=-1) * table.dt
    assert np.abs(sums - want_sums).max() <= 1e-10 * max(
        1.0, np.abs(want_sums).max())
    assert np.array_equal(diagnostics.times, want_diag.times)


class TestRowsIndependent:
    @pytest.fixture(scope="class")
    def batch(self, config, pulse, rho0):
        table = sme.build_table(config, pulse, 500)
        js, dws, dzs = sme.mixture_noise(config, table, rho0, 6, range(100))
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

    @pytest.mark.parametrize("name, value", [
        pytest.param("_BLOCK_MATRICES", value, id=str(value))
        for value in (1, 7, 10 ** 6)] + [
        # one checkpoint per pass; and 40 (13 rows) or 3 (150 rows) of the
        # 101 checkpoints
        pytest.param("_PASS_ENTRIES", value, id=f"pass-{value}")
        for value in (1, 8 * 13 * 40)])
    def test_block_of_states_invisible(self, config, rho0, batch,
                                       monkeypatch, name, value):
        table, js, dws, dzs, want = batch
        want_law = sme.IntervalLaw(config, table, rho0).sample(6, range(150))
        monkeypatch.setattr(sme, name, value)
        got = sme.sample_batch(config, table, rho0, js[:13], dws[:13],
                               dzs[:13])
        assert_rows_equal(got, want, slice(0, 13))
        # the law builds its certificate under the patched value
        got_law = sme.IntervalLaw(config, table, rho0).sample(6, range(150))
        for got_part, want_part in zip(got_law[:3], want_law[:3]):
            assert np.array_equal(got_part, want_part)
        for field in fields(sme.Diagnostics):
            assert np.array_equal(getattr(got_law[3], field.name),
                                  getattr(want_law[3], field.name)), field.name

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
    js, dws, dzs = sme.mixture_noise(config, table, rho0, 4, range(13))
    got = sme.sample_batch(config, table, rho0, js, dws, dzs)
    rho0s, dws, dzs, nodes = sme._batch_inputs(config, table, rho0, dws,
                                               dzs, 0)
    c_all = sme.measurement_diag(config, table.output)
    records = np.empty(dws.shape)
    rho, diagnostics = sme._solve(
        config, table, c_all, rho0s, nodes,
        two_part_exponents(config, table, c_all[:, table.classes], js, dws,
                           dzs, nodes, records))
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

    @pytest.mark.parametrize("build", [
        lambda config, table: sme.mixture_noise(
            config, table, model.plus_density(config.n_qubits), 0, range(2)),
        lambda config, table: sme.IntervalLaw(
            config, table, model.plus_density(config.n_qubits)),
    ], ids=["mixture_noise", "interval_law"])
    @pytest.mark.parametrize("other", [
        dict(n_qubits=2, chi=np.ones((2, 2)), gamma_z=np.zeros(2)),
        dict(n_modes=1, chi=np.ones((1, 3)), kappa=[2.0], delta=[0.5]),
    ], ids=["other_register", "other_modes"])
    def test_noise_for_a_table_of_other_physics_rejected(self, config,
                                                         build, other):
        # the per-step noise and the interval law check the table as the
        # solvers do (one helper), before any normal is drawn
        table = sme.build_table(config, default_pulse(), 100)
        with pytest.raises(ConfigError, match="amplitude table"):
            build(config.replace(**other), table)

    def test_interval_law_needs_a_trajectory(self, config, rho0):
        law = sme.IntervalLaw(config, sme.build_table(config, None, 100),
                              rho0)
        with pytest.raises(ConfigError, match="no trajectory indices"):
            law.sample(0, [])

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
    js, dws, dzs = sme.mixture_noise(cfg, table, rho0, 3, range(2))
    rho, _, _ = sme.sample_batch(cfg, table, rho0, js, dws, dzs)
    det = sme.simulate_deterministic(cfg, pulse, n_steps=1000)
    assert np.abs(rho - det.rhos[-1]).max() < 1e-9
