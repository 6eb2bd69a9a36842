"""Register conventions, config round trips, and design helpers.

Covers: bit/parity tables under the MSB-first labeling, sigma_z sign
conventions, signed dispersive sums, the two-mode detuning design rule,
config construction and validation, and the parity pointer states.
"""

import math

import numpy as np
import pytest

from paritysim import model
from paritysim.errors import ConfigError


def make_config(**overrides):
    base = dict(
        n_qubits=3,
        n_modes=2,
        chi=np.ones((2, 3)),
        kappa=np.array([2.0, 2.0]),
        delta=np.array([np.sqrt(3.0), -np.sqrt(3.0)]),
        gamma_z=np.full(3, 1.0 / 300.0),
    )
    base.update(overrides)
    return model.ReadoutConfig(**base)


class TestBitConventions:
    def test_bit_table_msb_first(self):
        table = model.bit_table(3)
        assert table.shape == (8, 3)
        # |100> is index 4, |001> is index 1
        assert list(table[4]) == [1, 0, 0]
        assert list(table[1]) == [0, 0, 1]
        assert list(table[7]) == [1, 1, 1]

    def test_sigma_z_sign_of_bit_zero_is_plus_one(self):
        signs = model.sigma_z_signs(3)
        assert signs.shape == (3, 8)
        assert signs[0, 0] == 1
        assert signs[0, 4] == -1  # qubit 0 excited in |100>
        assert signs[2, 1] == -1  # qubit 2 excited in |001>

    def test_popcounts_and_parity_labels(self):
        counts = model.popcounts(3)
        assert list(counts) == [0, 1, 1, 2, 1, 2, 2, 3]

    def test_parity_indices_partition_basis(self):
        for n in range(1, 5):
            even = model.parity_indices(n, "even")
            odd = model.parity_indices(n, "odd")
            merged = sorted(list(even) + list(odd))
            assert merged == list(range(2 ** n))

    def test_bitstring_round_trip(self):
        for n in range(1, 5):
            for j in range(2 ** n):
                s = model.bitstring(j, n)
                assert len(s) == n
                assert int(s, 2) == j

    def test_single_bit_flip_toggles_parity(self):
        # parity is a popcount invariant: flipping any one bit flips it
        for n in range(1, 5):
            parity = model.popcounts(n) % 2
            for j in range(2 ** n):
                for l in range(n):
                    k = j ^ (1 << (n - 1 - l))
                    assert parity[j] != parity[k]


class TestSignedChiSums:
    def test_uniform_chi_depends_only_on_popcount(self):
        cfg = make_config()
        sums = model.signed_chi_sums(cfg)
        assert sums.shape == (2, 8)
        counts = model.popcounts(3)
        for k in range(2):
            expected = 3.0 - 2.0 * counts
            assert np.allclose(sums[k], expected)

    def test_nonuniform_chi(self):
        chi = np.array([[1.0, 2.0, 4.0]])
        cfg = make_config(n_modes=1, chi=chi, kappa=np.array([2.0]),
                          delta=np.array([0.0]))
        sums = model.signed_chi_sums(cfg)
        # |011> = index 3: signs (+1, -1, -1)
        assert sums[0, 3] == pytest.approx(1.0 - 2.0 - 4.0)
        assert sums[0, 0] == pytest.approx(7.0)


class TestDesignRules:
    def test_symmetric_kappa_gives_sqrt3_detunings(self):
        d0, d1 = model.parity_detunings(2.0, 2.0, 1.0)
        assert d0 == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert d1 == pytest.approx(-np.sqrt(3.0), abs=1e-12)

    def test_asymmetric_kappa(self):
        d0, d1 = model.parity_detunings(6.0, 2.0, 1.0)
        assert d0 == pytest.approx(3.0, abs=1e-12)
        assert d1 == pytest.approx(-1.0, abs=1e-12)

    def test_swapping_kappas_negates_and_swaps(self):
        a = model.parity_detunings(3.0, 1.5, 1.0)
        b = model.parity_detunings(1.5, 3.0, 1.0)
        assert a[0] == pytest.approx(-b[1])
        assert a[1] == pytest.approx(-b[0])

    def test_detunings_scale_with_chi(self):
        d0, d1 = model.parity_detunings(2.0, 2.0, 0.5)
        assert d0 == pytest.approx(0.5 * np.sqrt(3.0))
        assert d1 == pytest.approx(-0.5 * np.sqrt(3.0))

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ConfigError):
            model.parity_detunings(0.0, 2.0, 1.0)
        with pytest.raises(ConfigError):
            model.parity_detunings(2.0, -1.0, 1.0)
        # NaN and infinite rates are not finite and positive either
        for bad in (math.nan, math.inf, -math.inf):
            for args in ((bad, 2.0, 1.0), (2.0, bad, 1.0), (2.0, 2.0, bad)):
                with pytest.raises(ConfigError):
                    model.parity_detunings(*args)
            with pytest.raises(ConfigError):
                model.kappa_star(bad)

    def test_kappa_star_is_twice_chi(self):
        assert model.kappa_star(1.0) == pytest.approx(2.0)
        assert model.kappa_star(0.25) == pytest.approx(0.5)


class TestReadoutConfig:
    def test_default_config_values(self):
        cfg = model.default_config()
        assert cfg.n_qubits == 3
        assert cfg.n_modes == 2
        assert cfg.dim == 8
        assert np.allclose(cfg.chi, 1.0)
        assert np.allclose(cfg.kappa, 2.0)
        assert cfg.delta[0] == pytest.approx(np.sqrt(3.0))
        assert cfg.delta[1] == pytest.approx(-np.sqrt(3.0))
        assert np.allclose(cfg.gamma_z, 1.0 / 300.0)
        assert cfg.eta == 1.0
        assert cfg.phi == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            make_config(chi=np.ones((3, 2)))
        with pytest.raises(ConfigError):
            make_config(kappa=np.array([2.0]))

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            make_config(kappa=np.array([2.0, -0.5]))
        with pytest.raises(ConfigError):
            make_config(gamma_z=np.full(3, -1.0))

    def test_zero_kappa_allowed(self):
        cfg = make_config(kappa=np.array([0.0, 2.0]))
        assert cfg.kappa[0] == 0.0

    def test_eta_bounds(self):
        with pytest.raises(ConfigError):
            make_config(eta=1.5)
        with pytest.raises(ConfigError):
            make_config(eta=-0.1)
        cfg = make_config(eta=0.0)
        assert cfg.eta == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            make_config(delta=np.array([np.nan, 0.0]))
        with pytest.raises(ConfigError):
            make_config(phi=np.inf)

    def test_replace_returns_new_config(self):
        cfg = make_config()
        other = cfg.replace(eta=0.5)
        assert other.eta == 0.5
        assert cfg.eta == 1.0

    def test_dict_round_trip(self):
        cfg = model.default_config()
        data = cfg.to_dict()
        back = model.ReadoutConfig.from_dict(data)
        assert back.n_qubits == cfg.n_qubits
        assert np.allclose(back.chi, cfg.chi)
        assert np.allclose(back.delta, cfg.delta)
        assert back.eta == cfg.eta

    def test_from_dict_broadcasts_scalars(self):
        data = dict(n_qubits=3, n_modes=2, chi=1.0, kappa=2.0,
                    delta=[1.7, -1.7], gamma_z=0.0)
        cfg = model.ReadoutConfig.from_dict(data)
        assert cfg.chi.shape == (2, 3)
        assert np.allclose(cfg.chi, 1.0)
        assert np.allclose(cfg.kappa, 2.0)

    def test_constructor_broadcasts_scalars(self):
        cfg = make_config(chi=1.0, gamma_z=0.0)
        assert cfg.chi.shape == (2, 3)
        assert np.array_equal(cfg.gamma_z, np.zeros(3))

    def test_from_dict_rejects_unknown_keys(self):
        data = model.default_config().to_dict()
        data["typo"] = 1
        with pytest.raises(ConfigError):
            model.ReadoutConfig.from_dict(data)

    def test_from_dict_tolerates_pulse_key(self):
        data = model.default_config().to_dict()
        data["pulse"] = {"eps_ss": 0.4811}
        cfg = model.ReadoutConfig.from_dict(data)
        assert cfg.n_qubits == 3


class TestValidate:
    def test_valid_data_has_no_violations(self):
        assert model.validate(model.default_config().to_dict()) == []

    def test_eta_out_of_range(self):
        data = model.default_config().to_dict()
        data["eta"] = 1.5
        assert model.validate(data) == ["eta: must lie in [0, 1]"]

    def test_negative_kappa(self):
        data = model.default_config().to_dict()
        data["kappa"] = [2.0, -2.0]
        assert model.validate(data) == ["kappa: must be non-negative"]

    def test_multiple_violations_all_reported(self):
        data = model.default_config().to_dict()
        data["eta"] = -3.0
        data["gamma_z"] = [-1.0, 0.0, 0.0]
        problems = model.validate(data)
        assert len(problems) == 2
        assert any(p.startswith("eta") for p in problems)
        assert any(p.startswith("gamma_z") for p in problems)

    def test_unknown_key_reported(self):
        data = model.default_config().to_dict()
        data["xi"] = 1.0
        problems = model.validate(data)
        assert len(problems) == 1
        assert "unknown" in problems[0] and "xi" in problems[0]

    def test_shape_violation(self):
        data = model.default_config().to_dict()
        data["chi"] = [[1.0, 1.0], [1.0, 1.0]]
        problems = model.validate(data)
        assert len(problems) == 1
        assert problems[0].startswith("chi: shape")

    def test_missing_sizes(self):
        problems = model.validate({})
        assert "n_qubits: missing" in problems
        assert "n_modes: missing" in problems


class TestParityStates:
    def test_psi_plus_supported_on_even_indices(self):
        psi = model.psi_plus(3)
        assert psi.shape == (8,)
        even = model.parity_indices(3, "even")
        odd = model.parity_indices(3, "odd")
        assert np.allclose(psi[odd], 0.0)
        assert np.allclose(psi[even], 0.5)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_psi_minus_supported_on_odd_indices(self):
        psi = model.psi_minus(3)
        odd = model.parity_indices(3, "odd")
        even = model.parity_indices(3, "even")
        assert np.allclose(psi[even], 0.0)
        assert np.allclose(psi[odd], 0.5)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_parity_states_orthogonal(self):
        for n in range(1, 5):
            plus = model.psi_parity(n, "even")
            minus = model.psi_parity(n, "odd")
            assert abs(np.vdot(plus, minus)) < 1e-15

    def test_plus_density_is_uniform_projector(self):
        rho = model.plus_density(3)
        assert rho.shape == (8, 8)
        assert np.allclose(rho, 1.0 / 8.0)
        assert np.trace(rho) == pytest.approx(1.0)
        # pure state: rho^2 = rho
        assert np.allclose(rho @ rho, rho, atol=1e-15)
