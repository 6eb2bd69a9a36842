"""Multi-mode dispersive parity readout: design tools and a reduced
stochastic master equation integrator for the register state under
continuous homodyne detection."""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateFilterError, GridMismatchError,
                     ResonanceError)
from .model import (ReadoutConfig, default_config, kappa_star,
                    parity_detunings, plus_density, psi_minus, psi_parity,
                    psi_plus, validate)
from .pulse import PulseSpec, default_pulse
from .cavity import (AmplitudeTable, integrate_amplitudes, parity_outputs,
                     kappa_separation_scan, steady_state_amplitudes,
                     steady_state_output, transfer_matrix)
from .sme import (DIAGNOSTIC_THRESHOLDS, DeterministicResult, Diagnostics,
                  TrajectoryResult, build_table, simulate_batch,
                  simulate_deterministic, simulate_trajectory, step_sde)
from .markov import (WitnessResult, canonical_rates, trace_distance,
                     witness_scan)
from .analysis import (EnsembleSummary, FilterFunction, assign_parity,
                       build_filter, classify, ensemble_run, gate_fidelity,
                       solve_error_rate, state_fidelity)

__all__ = [
    "__version__",
    "ConfigError", "DegenerateFilterError", "GridMismatchError",
    "ResonanceError",
    "ReadoutConfig", "default_config", "kappa_star", "parity_detunings",
    "plus_density", "psi_minus", "psi_parity", "psi_plus", "validate",
    "PulseSpec", "default_pulse",
    "AmplitudeTable", "integrate_amplitudes", "parity_outputs",
    "kappa_separation_scan", "steady_state_amplitudes",
    "steady_state_output", "transfer_matrix",
    "DIAGNOSTIC_THRESHOLDS", "DeterministicResult", "Diagnostics",
    "TrajectoryResult", "build_table", "simulate_batch",
    "simulate_deterministic", "simulate_trajectory", "step_sde",
    "WitnessResult", "canonical_rates", "trace_distance", "witness_scan",
    "EnsembleSummary", "FilterFunction", "assign_parity", "build_filter",
    "classify", "ensemble_run", "gate_fidelity", "solve_error_rate",
    "state_fidelity",
]
