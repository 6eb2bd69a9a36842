"""Stored references the benchmark checks outputs against.

Two kinds of reference live in perfbench/data:

* strong_ref_<seed>.npy - final register states of PATHS trajectories
  integrated at FINE_STEPS. The coarse runs of the strong_ref workload and
  of the accuracy probe use the same Brownian paths: each coarse step sums
  RATIO fine draws,

      dW = sum_k dW_k,    dZ = sum_k (dZ_k + W_k h),

  where h is the fine step and W_k the Brownian increment from the start
  of the coarse step to the start of fine step k. The fine run takes about
  30 s per seed, so it is stored rather than recomputed on every run.
  REFERENCE_SEEDS holds a primary seed and a second one, so that a claim
  made while looking at one can be checked on the other.
* cli_trajectory.json - assigned parity and integrated signal of
  `paritysim trajectory --seed S --steps CLI_STEPS` for CLI_SEEDS.

Regenerate both from the repository root with

    python3 perfbench/reference.py
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from paritysim import cli, model, sme  # noqa: E402
from paritysim.pulse import default_pulse  # noqa: E402

DATA = ROOT / "perfbench" / "data"
#: run outputs (CLI output directories, traces, count ledger); git-ignored
SCRATCH = ROOT / ".perfbench"

FINE_STEPS = 100_000
RATIO = 10
PATHS = 10
CHECKPOINT_EVERY = 10
REFERENCE_SEEDS = (2026, 1510)

CLI_STEPS = 30_000
CLI_SEEDS = tuple(range(16))


def strong_ref_path(seed: int) -> Path:
    return DATA / f"strong_ref_{seed}.npy"


def coarsen(dws, dzs, ratio: int, h: float):
    """Sum blocks of `ratio` fine increments into coarse (dW, dZ)."""
    w = dws.reshape(*dws.shape[:-1], -1, ratio)
    z = dzs.reshape(*dzs.shape[:-1], -1, ratio)
    w_before = np.zeros_like(w)
    np.cumsum(w[..., :-1], axis=-1, out=w_before[..., 1:])
    return w.sum(axis=-1), (z + w_before * h).sum(axis=-1)


def shared_noise(seeds, paths: int, fine_steps: int, ratio: int,
                 tau: float):
    """Coarse (dW, dZ) for every path of every seed, on one batch axis.

    Path i of a seed draws its fine increments from the stream keyed by
    (seed, i); one path's fine draws are held at a time.
    """
    h = tau / fine_steps
    shape = (len(seeds) * paths, fine_steps // ratio)
    dws, dzs = np.empty(shape), np.empty(shape)
    for row, (seed, i) in enumerate((s, i) for s in seeds
                                    for i in range(paths)):
        fine = sme.wiener_increments(sme.trajectory_rng(seed, i),
                                     fine_steps, h)
        dws[row], dzs[row] = coarsen(*fine, ratio, h)
    return dws, dzs


def batch_inputs(config, pulse, seeds, fine_steps: int = FINE_STEPS,
                 ratio: int = RATIO, paths: int = PATHS):
    """(table, rho0, dW, dZ) for simulate_batch at fine_steps // ratio
    steps on the shared noise of len(seeds) * paths trajectories from |+>^n.
    """
    table = sme.build_table(config, pulse, fine_steps // ratio)
    dws, dzs = shared_noise(seeds, paths, fine_steps, ratio, pulse.tau)
    rho0 = np.broadcast_to(model.plus_density(config.n_qubits),
                           (len(dws), config.dim, config.dim))
    return table, rho0, dws, dzs


def run_paths(config, pulse, seeds, fine_steps: int = FINE_STEPS,
              ratio: int = RATIO, paths: int = PATHS):
    """(rho_final, records, diagnostics) of simulate_batch on batch_inputs."""
    table, rho0, dws, dzs = batch_inputs(config, pulse, seeds, fine_steps,
                                         ratio, paths)
    return sme.simulate_batch(config, table, rho0, dws, dzs,
                              checkpoint_every=CHECKPOINT_EVERY)


def strong_reference(config, pulse, seed: int,
                     fine_steps: int = FINE_STEPS, paths: int = PATHS):
    """Final states of the fine-step run for one seed (ratio 1)."""
    rho, _, _ = run_paths(config, pulse, (seed,), fine_steps,
                          ratio=1, paths=paths)
    return rho


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array), allow_pickle=False)
    return buf.getvalue()


def cli_trajectory_args(seed: int, out_dir) -> list:
    return ["trajectory", "--seed", str(seed), "--steps", str(CLI_STEPS),
            "--out", str(out_dir)]


def cli_expected(seed: int) -> dict:
    """Parity and signal the CLI reports for one seed."""
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.run(cli_trajectory_args(seed, out))
        summary = json.loads((Path(out) / "trajectory_summary.json").read_text())
    if code != 0:
        raise RuntimeError(f"paritysim trajectory --seed {seed} exited {code}")
    return {"seed": seed, "parity": summary["assigned_parity"],
            "signal": summary["integrated_signal"]}


def load_cli_expected() -> dict:
    rows = json.loads((DATA / "cli_trajectory.json").read_text())["runs"]
    return {row["seed"]: row for row in rows}


def main():
    config, pulse = model.default_config(), default_pulse()
    DATA.mkdir(exist_ok=True)
    for seed in REFERENCE_SEEDS:
        rho = strong_reference(config, pulse, seed)
        strong_ref_path(seed).write_bytes(npy_bytes(rho))
        print(f"wrote {strong_ref_path(seed).name}")
    runs = [cli_expected(seed) for seed in CLI_SEEDS]
    (DATA / "cli_trajectory.json").write_text(json.dumps(
        {"steps": CLI_STEPS, "runs": runs}, indent=1) + "\n")
    print("wrote cli_trajectory.json")


if __name__ == "__main__":
    main()
