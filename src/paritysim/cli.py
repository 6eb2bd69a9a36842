"""Command-line entry point.

Every subcommand resolves its inputs to a manifest (config snapshot,
seed, parameters, package version), stamps the manifest hash into every
output file, and writes files atomically (temp file + rename). Identical
(config, seed, subcommand) inputs produce byte-identical outputs,
manifest.json included: nothing in them depends on the run's timing.

Exit codes: 0 success, 1 validation failure, 2 numerical-quality failure
(diagnostics breach or a numerical error), 64 usage errors.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, cavity, markov, model, sme
from .errors import ConfigError, ResonanceError, require_int
from .pulse import PulseSpec, default_pulse, validate as pulse_problems

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

DEFAULT_STEPS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_inputs(data):
    """(config, pulse) from loaded --config JSON; no pulse means nominal."""
    return (model.ReadoutConfig.from_dict(data),
            PulseSpec.from_dict(data["pulse"]) if "pulse" in data
            else default_pulse())


def _load_inputs(args):
    """(config, pulse) from --config JSON, or the nominal defaults."""
    if args.config is None:
        return model.default_config(), default_pulse()
    with open(args.config) as fh:
        return _parse_inputs(json.load(fh))


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class Manifest:
    """Reproducibility record emitted alongside every output."""

    def __init__(self, subcommand: str, config, pulse, seed, params: dict):
        self.data = {
            "subcommand": subcommand,
            "seed": seed,
            "config": config.to_dict() if config is not None else None,
            "pulse": pulse.to_dict() if pulse is not None else None,
            "params": params,
            "version": __version__,
            "outputs": [],
        }

    @property
    def hash(self) -> str:
        # inputs only: the stamp must be stable while output files are
        # still being appended, so every file carries the same hash
        hashed = {k: v for k, v in self.data.items() if k != "outputs"}
        blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def write_csv(self, out_dir: Path, name: str, header, columns):
        """Write equal-length columns (else ValueError) below the hash and
        header. A cell is the repr of the Python float or int its column's
        buffer yields, one at a time: shortest round-trip form, or plain."""
        cells = [map(repr, memoryview(np.array(col))) for col in columns]
        lines = [f"# manifest: {self.hash}", ",".join(header)]
        lines.extend(map(",".join, zip(*cells, strict=True)))
        _write_atomic(out_dir / name, "\n".join(lines) + "\n")
        self.data["outputs"].append(name)

    def write_json(self, out_dir: Path, name: str, payload: dict):
        payload = {"manifest_hash": self.hash, **payload}
        _write_atomic(out_dir / name,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self.data["outputs"].append(name)

    def finalize(self, out_dir: Path):
        body = {**self.data, "hash": self.hash}
        _write_atomic(out_dir / "manifest.json",
                      json.dumps(body, indent=2, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(diagnostics, message: str) -> int:
    """EXIT_NUMERICAL, naming each breached health bound on stderr, or
    EXIT_OK once message is printed."""
    if breaches := diagnostics.violations():
        print(f"diagnostics breached: {', '.join(breaches)}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(message)
    return EXIT_OK


# -- subcommands ---------------------------------------------------------


def _cmd_design(args) -> int:
    # all three first, so a rejected value prints nothing
    d0, d1 = model.parity_detunings(args.kappa0, args.kappa1, args.chi)
    k_star = model.kappa_star(args.chi)
    print(f"delta_0 = {d0:.7f}")
    print(f"delta_1 = {d1:.7f}")
    print(f"kappa_star = {k_star:.7f}")
    return EXIT_OK


def _cmd_pulse_preview(args) -> int:
    _, pulse = _load_inputs(args)
    manifest = Manifest("pulse-preview", None, pulse, None,
                        {"steps": args.steps})
    times = cavity.time_grid(pulse.tau, args.steps)
    out = _out_dir(args)
    manifest.write_csv(out, "pulse.csv", ("t", "eps"),
                       (times, pulse.evaluate(times)))
    manifest.finalize(out)
    print(f"wrote pulse.csv ({args.steps + 1} samples)")
    return EXIT_OK


def _cmd_respond(args) -> int:
    config, pulse = _load_inputs(args)
    manifest = Manifest("respond", config, pulse, None,
                        {"steps": args.steps})
    # before any file is written, so a singular design leaves none behind
    even, odd = cavity.parity_outputs(config, pulse.eps_ss)
    table = sme.build_table(config, pulse, args.steps)
    # a complex row viewed as floats is (re, im) per basis state; take, as
    # a fancy index is not C-contiguous and cannot be viewed so
    header = ["t"] + [f"{part}_out_{model.bitstring(j, config.n_qubits)}"
                      for j in range(config.dim) for part in ("re", "im")]
    out = _out_dir(args)
    per_state = table.output.take(table.classes, axis=1)
    manifest.write_csv(out, "response.csv", header,
                       (table.times, *per_state.view(float).T))
    manifest.write_json(out, "response_summary.json", {
        "steady_even": [even[0].real, even[0].imag],
        "steady_odd": [odd[0].real, odd[0].imag],
        "parity_degeneracy": float(max(np.abs(even - even[0]).max(),
                                       np.abs(odd - odd[0]).max())),
    })
    manifest.finalize(out)
    print("wrote response.csv, response_summary.json")
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    config, pulse = _load_inputs(args)
    manifest = Manifest("trajectory", config, pulse, args.seed,
                        {"steps": args.steps, "index": args.index})
    result = sme.simulate_trajectory(config, pulse, n_steps=args.steps,
                                     base_seed=args.seed,
                                     trajectory_index=args.index)
    filt = analysis.build_filter(config, result.table, args.filter)
    parity, signal = analysis.classify(filt, result.photocurrent)
    out = _out_dir(args)
    manifest.write_csv(out, "trajectory.csv", ("t", "photocurrent"),
                       (result.table.times[:-1], result.photocurrent))
    manifest.write_json(out, "trajectory_summary.json", {
        "assigned_parity": parity,
        "integrated_signal": signal,
        "fidelity_even": float(analysis.state_fidelity(
            result.rho_final, model.psi_plus(config.n_qubits))),
        "fidelity_odd": float(analysis.state_fidelity(
            result.rho_final, model.psi_minus(config.n_qubits))),
        "diagnostics": result.diagnostics.worst(),
    })
    manifest.finalize(out)
    return _finish(result.diagnostics, f"assigned {parity} (s = {signal:.4f})")


def _cmd_ensemble(args) -> int:
    config, pulse = _load_inputs(args)
    manifest = Manifest("ensemble", config, pulse, args.seed,
                        {"trajectories": args.trajectories,
                         "steps": args.steps, "filter": args.filter})
    summary = analysis.ensemble_run(
        config, pulse, n_traj=args.trajectories, n_steps=args.steps,
        base_seed=args.seed, filter_kinds=(args.filter,))
    kind = args.filter
    out = _out_dir(args)

    counts, edges = summary.histogram(kind)
    manifest.write_csv(out, "signal_histogram.csv",
                       ("bin_left", "bin_right", "count"),
                       (edges[:-1], edges[1:], counts))
    fid = summary.assigned_fidelity(kind)
    odd_mask = summary.assignments[kind] == "odd"
    f_edges = np.histogram_bin_edges(fid, bins="fd")
    f_even = np.histogram(fid[~odd_mask], bins=f_edges)[0]
    f_odd = np.histogram(fid[odd_mask], bins=f_edges)[0]
    manifest.write_csv(out, "fidelity_histogram.csv",
                       ("bin_left", "bin_right", "count_even", "count_odd"),
                       (f_edges[:-1], f_edges[1:], f_even, f_odd))
    payload = {
        "trajectories": summary.n_traj,
        "steps": summary.n_steps,
        "seed": summary.base_seed,
        "filter": kind,
        "odd_fraction": summary.odd_fraction(kind),
        "rms_fidelity_even": summary.rms_fidelity(kind, "even"),
        "rms_fidelity_odd": summary.rms_fidelity(kind, "odd"),
        "rms_fidelity": summary.rms_fidelity(kind),
        "class_means": summary.class_means(kind),
        "separation": summary.separation(kind),
        "diagnostics": summary.diagnostics_worst,
    }
    manifest.write_json(out, "ensemble_summary.json", payload)
    manifest.finalize(out)

    rms_odd = payload["rms_fidelity_odd"]
    return _finish(summary.diagnostics,
                   f"odd fraction {payload['odd_fraction']:.3f}, "
                   "rms fidelity (odd) "
                   + ("n/a" if rms_odd is None else f"{rms_odd:.4f}"))


def _cmd_witness(args) -> int:
    config, pulse = _load_inputs(args)
    manifest = Manifest("witness", config, pulse, None,
                        {"steps": args.steps})
    result = markov.witness_scan(config, pulse, n_steps=args.steps)
    out = _out_dir(args)
    manifest.write_csv(out, "witness.csv", ("t", "trace_distance"),
                       (result.times, result.distance))
    manifest.write_json(out, "witness_summary.json", {
        "window": list(result.window),
        "intervals": [{"t_start": iv.t_start, "t_end": iv.t_end,
                       "rise": iv.rise} for iv in result.intervals],
        "max_rise_in_window": result.max_rise(),
    })
    manifest.finalize(out)
    print(f"max trace-distance rise in window: {result.max_rise():.3e}")
    return EXIT_OK


def _cmd_gate_model(args) -> int:
    require_int("points", args.points, 1)
    # solved first, so an unattainable fidelity prints and writes nothing
    if args.fidelity is not None:
        p_star = analysis.solve_error_rate(args.fidelity)
    ps = np.linspace(0.0, analysis.GATE_P_MAX, args.points)
    fs = analysis.gate_fidelity(ps)
    for p, f in zip(ps, fs):
        print(f"{p:.10f}  {f:.9f}")
    if args.fidelity is not None:
        print(f"error rate for fidelity {args.fidelity}: p = {p_star:.6f}")
    if args.out is not None:
        manifest = Manifest("gate-model", None, None, None,
                            {"points": args.points,
                             "fidelity": args.fidelity})
        out = _out_dir(args)
        manifest.write_csv(out, "gate_model.csv", ("p", "fidelity"), (ps, fs))
        manifest.finalize(out)
    return EXIT_OK


def _drive_problems(config, pulse) -> list:
    """The overflow integrate_amplitudes raises on, found from the steady
    amplitudes of every basis state at the plateau drive eps_ss; a basis
    state without a steady state (ResonanceError) is skipped."""
    for j in range(config.dim):
        try:
            cavity.require_bounded(
                cavity.steady_state_amplitudes(config, j, pulse.eps_ss))
        except ResonanceError:
            continue
        except ConfigError as exc:
            return [f"pulse: {exc}"]
    return []


def _cmd_validate(args) -> int:
    with open(args.config) as fh:
        data = json.load(fh)
    problems = model.validate(data)
    if isinstance(data, dict) and "pulse" in data:
        problems += [f"pulse: {problem}"
                     for problem in pulse_problems(data["pulse"])]
    if not problems:
        config, pulse = _parse_inputs(data)
        problems = _drive_problems(config, pulse)
    if problems:
        for problem in problems:
            print(f"violation: {problem}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: {config.n_qubits} qubits, {config.n_modes} modes")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="paritysim",
                     description="Multi-qubit parity readout simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("design", help="matched detunings for given rates")
    p.add_argument("--kappa0", type=float, default=2.0)
    p.add_argument("--kappa1", type=float, default=2.0)
    p.add_argument("--chi", type=float, default=1.0)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("pulse-preview", help="sample the drive envelope")
    common(p)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=_cmd_pulse_preview)

    p = sub.add_parser("respond", help="per-bitstring output amplitudes")
    common(p)
    p.add_argument("--steps", type=int, default=2000)
    p.set_defaults(func=_cmd_respond)

    p = sub.add_parser("trajectory", help="one conditioned trajectory")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--filter", choices=analysis.FILTER_KINDS,
                   default="matched")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("ensemble", help="trajectory ensemble statistics")
    common(p)
    p.add_argument("--trajectories", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--filter", choices=analysis.FILTER_KINDS,
                   default="matched")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("witness", help="trace-distance witness scan")
    common(p)
    p.add_argument("--steps", type=int, default=4000)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("gate-model", help="circuit-model fidelity table")
    p.add_argument("--fidelity", type=float)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out", default=None, help="also write gate_model.csv")
    p.set_defaults(func=_cmd_gate_model)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    # numpy's LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
