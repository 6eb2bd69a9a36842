"""Drive envelope: anchor values, smoothness, symmetry, validation, and
the piece description the exact amplitude build integrates."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from paritysim import pulse as pulse_module
from paritysim.errors import ConfigError
from paritysim.pulse import PulseSpec, default_pulse


class TestAnchorValues:
    def test_default_parameters(self):
        p = default_pulse()
        assert p.t_on == 1.5
        assert p.t_off == 8.5
        assert p.sigma == 3.0
        assert p.eps_ss == 0.4811
        assert p.tau == 13.5

    def test_value_on_lower_half_of_rise(self):
        p = default_pulse()
        assert p.evaluate(1.35) == pytest.approx(0.1948455, abs=1e-10)

    def test_value_on_upper_half_of_rise(self):
        p = default_pulse()
        assert p.evaluate(2.025) == pytest.approx(0.379467625, abs=1e-10)

    def test_half_plateau_at_switch_times(self):
        p = default_pulse()
        assert p.evaluate(p.t_on) == pytest.approx(p.eps_ss / 2, abs=1e-12)
        assert p.evaluate(p.t_off) == pytest.approx(p.eps_ss / 2, abs=1e-12)

    def test_plateau_value(self):
        p = default_pulse()
        for t in (3.5, 5.0, 6.9):
            assert p.evaluate(t) == pytest.approx(p.eps_ss, abs=1e-12)

    def test_zero_outside_pulse(self):
        p = default_pulse()
        assert p.evaluate(0.0) == 0.0
        assert p.evaluate(10.1) == 0.0
        assert p.evaluate(13.5) == 0.0


class TestShape:
    def test_scalar_in_scalar_out(self):
        p = default_pulse()
        out = p.evaluate(5.0)
        assert isinstance(out, float)

    def test_array_in_array_out(self):
        p = default_pulse()
        t = np.linspace(0.0, 13.5, 7)
        out = p.evaluate(t)
        assert out.shape == t.shape

    def test_envelope_bounded_by_plateau(self):
        p = default_pulse()
        t = np.linspace(0.0, p.tau, 5001)
        v = p.evaluate(t)
        assert np.all(v >= 0.0)
        assert np.all(v <= p.eps_ss + 1e-12)

    def test_continuously_differentiable(self):
        # centered differences across the breakpoints stay bounded by the
        # interior slope, so the derivative has no jumps
        p = default_pulse()
        h = 1e-6
        breakpoints = [0.0, 0.75, 1.5, 2.25, 3.0, 7.0, 8.5, 10.0]
        slope_cap = 2.0 * p.eps_ss / p.sigma
        for t in breakpoints:
            left = (p.evaluate(t) - p.evaluate(t - h)) / h
            right = (p.evaluate(t + h) - p.evaluate(t)) / h
            assert abs(right - left) < 1e-4 * slope_cap
            assert abs(right) <= slope_cap + 1e-9

    def test_rise_is_antisymmetric_about_switch(self):
        p = default_pulse()
        for s in (0.1, 0.5, 1.0, 1.4):
            total = p.evaluate(p.t_on - s) + p.evaluate(p.t_on + s)
            assert total == pytest.approx(p.eps_ss, abs=1e-12)

    def test_fall_mirrors_rise(self):
        p = default_pulse()
        for s in (0.1, 0.5, 1.0, 1.4):
            assert p.evaluate(p.t_on + s) == pytest.approx(
                p.evaluate(p.t_off - s), abs=1e-12)


class TestValidation:
    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            PulseSpec(t_on=1.5, t_off=8.5, sigma=0.0, eps_ss=0.5, tau=13.5)

    def test_rise_window_before_zero_rejected(self):
        with pytest.raises(ConfigError):
            PulseSpec(t_on=1.0, t_off=8.5, sigma=3.0, eps_ss=0.5, tau=13.5)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigError):
            PulseSpec(t_on=4.0, t_off=5.0, sigma=3.0, eps_ss=0.5, tau=13.5)

    def test_fall_window_after_tau_rejected(self):
        with pytest.raises(ConfigError):
            PulseSpec(t_on=1.5, t_off=12.5, sigma=3.0, eps_ss=0.5, tau=13.5)

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(ConfigError):
            PulseSpec(t_on=1.5, t_off=8.5, sigma=3.0, eps_ss=np.nan, tau=13.5)

    def test_dict_round_trip(self):
        p = default_pulse()
        back = PulseSpec.from_dict(p.to_dict())
        assert back == p

    def test_from_dict_rejects_unknown_keys(self):
        data = default_pulse().to_dict()
        data["width"] = 1.0
        with pytest.raises(ConfigError):
            PulseSpec.from_dict(data)

    def test_from_dict_reports_missing_keys(self):
        data = default_pulse().to_dict()
        del data["eps_ss"]
        with pytest.raises(ConfigError):
            PulseSpec.from_dict(data)

    def test_from_dict_reports_every_problem(self):
        data = {**default_pulse().to_dict(), "width": 1.0, "sigma": -1.0}
        del data["tau"]
        with pytest.raises(ConfigError) as info:
            PulseSpec.from_dict(data)
        message = str(info.value)
        for part in ("width", "'tau'", "sigma must be positive"):
            assert part in message

    def test_constructor_reports_every_problem(self):
        with pytest.raises(ConfigError) as info:
            PulseSpec(t_on=0.5, t_off=13.0, sigma=3.0, eps_ss="high",
                      tau=13.5)
        message = str(info.value)
        for part in ("eps_ss must be a number", "before t = 0",
                     "after tau"):
            assert part in message

    def test_replace(self):
        p = default_pulse().replace(eps_ss=0.1)
        assert p.eps_ss == 0.1
        assert p.t_on == 1.5


def integrated_pieces(pulse, t):
    """eps(t) from pulse_module.pieces: eps'' integrated twice from 0."""
    starts, curvature = pulse_module.pieces(pulse)
    ends = np.append(starts[1:], np.inf)
    value = np.empty_like(t)
    eps = slope = 0.0
    for a, b, c in zip(starts, ends, curvature):
        on = (t >= a) & (t < b)
        s = t[on] - a
        value[on] = eps + slope * s + 0.5 * c * s * s
        if np.isfinite(b):
            eps, slope = eps + slope * (b - a) + 0.5 * c * (b - a) ** 2, \
                slope + c * (b - a)
    return value


@st.composite
def valid_pulses(draw):
    sigma = draw(st.floats(0.05, 4.0))
    t_on = sigma / 2 + draw(st.floats(0.0, 5.0))
    t_off = t_on + sigma + draw(st.floats(0.0, 20.0))
    data = {"t_on": t_on, "t_off": t_off, "sigma": sigma,
            "eps_ss": draw(st.floats(-2.0, 2.0)),
            "tau": t_off + sigma / 2 + draw(st.floats(0.0, 10.0))}
    assume(not pulse_module.validate(data))
    return PulseSpec.from_dict(data)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pulse=valid_pulses())
def test_pieces_reproduce_evaluate(pulse):
    # the breakpoints are rounded, so the slope left after a window is
    # |eps''| ulp(t) rather than 0, and it drifts the integral until tau
    starts, curvature = pulse_module.pieces(pulse)
    drift = np.finfo(float).eps * np.abs(curvature).max() * pulse.tau ** 2
    t = np.sort(np.concatenate([np.linspace(0.0, pulse.tau, 4001), starts]))
    err = np.abs(integrated_pieces(pulse, t) - pulse.evaluate(t)).max()
    assert err < 1e-14 + drift
