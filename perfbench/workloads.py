"""The four benchmark workloads.

Each workload is one repeated user call (closed loop, one client). The
factory functions in WORKLOADS do the preparation that is not the user's
wait: building the config and pulse, and for strong_ref the table and the
shared noise. One operation is the package call followed by the check of
its output; check() returns the problems found, an empty list for a
correct output.

    desk_ensemble   analysis.ensemble_run, 150 trajectories x 10^4 steps in
                    the default chunks (100 + 50), matched and uniform
                    filters.
                    Batched sme stepping dominates; the table build and the
                    analysis layer barely register.
    cli_trajectory  paritysim trajectory at CLI_STEPS into a scratch
                    directory. sme at batch 1, where Python overhead per step
                    dominates, plus the CLI's two table builds and its
                    CSV/manifest write.
    strong_ref      sme.simulate_batch at 10^4 steps on shared noise summed
                    from 10x finer draws, checkpointing every 10 steps, so
                    the checkpoint diagnostics are a real share of the time.
    witness         markov.witness_scan: two unconditional RK4 runs on a
                    midpoint table; the only user path through markov.
"""

import hashlib
import io
import json
import math
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from paritysim import analysis, cli, markov, model, sme
from paritysim.pulse import default_pulse

# two chunks of the default chunk size, so a change of chunking shows in
# peak memory; the full 500-trajectory desk ensemble takes 40 s or more
DESK_TRAJ = 150
DESK_STEPS = 10_000
# Criterion 8 asks 0.45 <= odd fraction <= 0.55 of one fixed 500-trajectory
# ensemble, a +-2.2 sigma binomial band that 3 % of seeds miss. The
# benchmark draws a new ensemble per seed, so it keeps the 0.05 band but
# widens it to 5 binomial sigma at DESK_TRAJ.
ODD_FRACTION_BAND = max(0.05, 5 * 0.5 / math.sqrt(DESK_TRAJ))
FIDELITY_BAND = (0.90, 0.97)

# How far a solver change may move the CLI's integrated signal. The signal
# is s = sum_n f_n j_n dt; a state error of e moves the mean record
# sqrt(eta) tr((c + c^dag) rho) by at most d max|2 Re c| e, so s moves by
# at most sum|f| dt * d * max|2 Re c| * e = 1.02 * 8 * 1.02 * e = 8.3 e
# for the default design. 1e-3 admits e = 1.2e-4, four times strong_err
# of the order-1.5 stepper at 10^4 steps (3e-5), and CLI_STEPS is finer.
SIGNAL_TOL = 1e-3

WITNESS_STEPS = 4000
# criterion 6 asks a rise above 1e-3 of a design detuned to +-3 chi; the
# default design radiates more of the stored information and rises by
# about 2.4e-4, so the benchmark uses the bound the default design's own
# test sets
WITNESS_RISE = 1e-5


@dataclass
class Workload:
    name: str
    op: Callable[[], object]
    check: Callable[[object], list]
    traj_steps: int
    #: trajectories stepped together; selects the calibration kernel
    batch: int


def _inputs():
    return model.default_config(), default_pulse()


def desk_ensemble(seed: int) -> Workload:
    config, pulse = _inputs()

    def op():
        return analysis.ensemble_run(
            config, pulse, n_traj=DESK_TRAJ, n_steps=DESK_STEPS,
            base_seed=seed, filter_kinds=("matched", "uniform"))

    def check(summary):
        problems = []
        frac = summary.odd_fraction("matched")
        if abs(frac - 0.5) > ODD_FRACTION_BAND:
            problems.append(f"odd fraction {frac:.3f}")
        for parity in ("even", "odd"):
            fid = summary.rms_fidelity("matched", parity)
            if not FIDELITY_BAND[0] <= fid <= FIDELITY_BAND[1]:
                problems.append(f"{parity}-class rms fidelity {fid:.4f}")
        matched, uniform = (summary.separation("matched"),
                            summary.separation("uniform"))
        if not matched > uniform:
            problems.append(f"matched separation {matched:.3f} <= "
                            f"uniform {uniform:.3f}")
        if not all(map(math.isfinite, summary.diagnostics_worst.values())):
            problems.append("non-finite diagnostics")
        return problems

    return Workload("desk_ensemble", op, check, DESK_TRAJ * DESK_STEPS, 100)


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_trajectory(seed: int) -> Workload:
    expected_runs = reference.load_cli_expected()
    cli_seed = reference.CLI_SEEDS[seed % len(reference.CLI_SEEDS)]
    expected = expected_runs[cli_seed]
    outputs = ("trajectory.csv", "trajectory_summary.json", "manifest.json")
    first = {}

    def op():
        reference.SCRATCH.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=reference.SCRATCH))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.run(reference.cli_trajectory_args(cli_seed, out))
        return code, out

    def check(result):
        code, out = result
        try:
            return _check_cli(code, out)
        finally:
            shutil.rmtree(out)

    def _check_cli(code, out):
        if code != 0:
            return [f"exit code {code}"]
        missing = [name for name in outputs if not (out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        summary = json.loads((out / "trajectory_summary.json").read_text())
        with open(out / "trajectory.csv") as fh:
            stamp = fh.readline().strip()
        if stamp != f"# manifest: {manifest['hash']}" \
                or summary["manifest_hash"] != manifest["hash"]:
            problems.append("output files carry different manifest hashes")
        # identical inputs must give byte-identical outputs on every call
        digests = {name: _file_digest(out / name) for name in outputs[:2]}
        digests["hash"] = manifest["hash"]
        first.setdefault("digests", digests)
        if digests != first["digests"]:
            problems.append("outputs differ from the first call")
        signal = summary["integrated_signal"]
        if abs(signal - expected["signal"]) > SIGNAL_TOL:
            problems.append(f"signal {signal} vs stored {expected['signal']}")
        if summary["assigned_parity"] != expected["parity"] \
                and abs(expected["signal"]) > SIGNAL_TOL:
            problems.append(f"parity {summary['assigned_parity']} vs stored "
                            f"{expected['parity']}")
        return problems

    return Workload("cli_trajectory", op, check, reference.CLI_STEPS, 1)


def strong_ref(seed: int) -> Workload:
    config, pulse = _inputs()
    table, rho0, dws, dzs = reference.batch_inputs(config, pulse, (seed,))

    def op():
        return sme.simulate_batch(config, table, rho0, dws, dzs,
                                  checkpoint_every=reference.CHECKPOINT_EVERY)

    def check(result):
        rho = result[0]
        if not np.isfinite(rho).all():
            return ["non-finite final state"]
        trace_dev = float(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max())
        if trace_dev > 1e-10:
            return [f"trace deviation {trace_dev:.2e}"]
        return []

    return Workload("strong_ref", op, check, dws.size, reference.PATHS)


def witness(seed: int) -> Workload:
    # deterministic: the seed selects nothing
    config, pulse = _inputs()

    def op():
        return markov.witness_scan(config, pulse, n_steps=WITNESS_STEPS)

    def check(result):
        problems = []
        if not np.isfinite(result.distance).all():
            problems.append("non-finite trace distance")
        if abs(result.distance[0] - 1.0) > 1e-12:
            problems.append(f"D(0) = {result.distance[0]!r}")
        rise = result.max_rise()
        if not rise > WITNESS_RISE:
            problems.append(f"rise {rise:.2e} in the turn-off window")
        return problems

    # deterministic steps times the two evolved states
    return Workload("witness", op, check, 2 * WITNESS_STEPS, 1)


WORKLOADS = {
    "desk_ensemble": desk_ensemble,
    "cli_trajectory": cli_trajectory,
    "strong_ref": strong_ref,
    "witness": witness,
}


def accuracy() -> dict:
    """Strong error and positivity of the stepper on the stored references.

    Integrates every stored seed at the coarse step on the shared noise and
    compares the final states with the stored fine-step run. The stored
    seeds are fixed, so these numbers depend on the program alone.
    """
    config, pulse = _inputs()
    seeds = reference.REFERENCE_SEEDS
    rho, _, diagnostics = reference.run_paths(config, pulse, seeds)
    out = {"min_eig": float(diagnostics.min_eig.min())}
    errs = []
    for i, seed in enumerate(seeds):
        ref = np.load(reference.strong_ref_path(seed), allow_pickle=False)
        rows = slice(i * reference.PATHS, (i + 1) * reference.PATHS)
        err = float(np.abs(rho[rows] - ref).max())
        out[f"strong_err_{seed}"] = err
        errs.append(err)
    out["strong_err"] = max(errs)
    out["trace_dev"] = float(diagnostics.trace_dev.max())
    return out
