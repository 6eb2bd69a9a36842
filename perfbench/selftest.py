"""Tests of the benchmark itself (not part of the package test suite).

From the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's test_*.py pattern on purpose, so
the package suite does not collect it; it takes about three minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import tracing
import workloads
from paritysim import analysis, markov, model, sme
from paritysim.pulse import default_pulse

ROOT = Path(__file__).resolve().parent.parent


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_every_span_is_counted_on_some_workload():
    calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
    for name, make in workloads.WORKLOADS.items():
        workload = make(0)
        with tracing.Tracer() as tracer:
            output = workload.op()
        assert workload.check(output) == [], name
        arrays = tracer.take()[2]
        for i, span in enumerate(tracing.SPAN_NAMES):
            calls[span] += int((arrays["name"] == i).sum())
    assert [span for span, n in calls.items() if n == 0] == []


def test_tracer_patches_every_lookup_site_and_restores_it():
    originals = (sme.simulate_batch, analysis.simulate_batch,
                 markov.simulate_deterministic, sme.step_sde)
    with tracing.Tracer():
        assert analysis.simulate_batch is sme.simulate_batch
        assert markov.simulate_deterministic is sme.simulate_deterministic
        assert sme.step_sde.__wrapped__ is originals[3]
    assert (sme.simulate_batch, analysis.simulate_batch,
            markov.simulate_deterministic, sme.step_sde) == originals


def test_exact_counts_repeat_in_fresh_processes():
    runs = [_run_bench("--workload", "cli_trajectory", "--seed", "3",
                       "--seconds", "1", "--trace", "1") for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    counts = [json.loads(run.stdout.splitlines()[-2])["counts"]
              for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sme.traj_steps"] == reference.CLI_STEPS
    assert counts[0]["cli.bytes_written"] > 0


def test_coarse_noise_at_ratio_one_is_the_fine_noise():
    rng = np.random.default_rng(5)
    dws, dzs = rng.standard_normal((2, 3, 40))
    coarse_w, coarse_z = reference.coarsen(dws, dzs, 1, 0.1)
    assert np.array_equal(coarse_w, dws) and np.array_equal(coarse_z, dzs)


def test_coarse_noise_sums_the_fine_path():
    rng = np.random.default_rng(6)
    h, ratio = 0.01, 4
    dws, dzs = rng.standard_normal((2, 2, 12))
    coarse_w, coarse_z = reference.coarsen(dws, dzs, ratio, h)
    for b in range(2):
        for n in range(3):
            block = slice(n * ratio, (n + 1) * ratio)
            w_k = np.concatenate([[0.0], np.cumsum(dws[b, block])[:-1]])
            assert coarse_w[b, n] == pytest.approx(dws[b, block].sum())
            assert coarse_z[b, n] == pytest.approx(
                (dzs[b, block] + w_k * h).sum())


def test_strong_error_is_exactly_zero_at_ratio_one():
    config, pulse = model.default_config(), default_pulse()
    fine = reference.strong_reference(config, pulse, 7, fine_steps=200,
                                      paths=3)
    coarse, _, _ = reference.run_paths(config, pulse, (7,), fine_steps=200,
                                       ratio=1, paths=3)
    assert np.abs(coarse - fine).max() == 0.0


@pytest.mark.parametrize("seed", reference.REFERENCE_SEEDS)
def test_stored_reference_regenerates_bit_for_bit(seed):
    config, pulse = model.default_config(), default_pulse()
    rho = reference.strong_reference(config, pulse, seed)
    stored = reference.strong_ref_path(seed).read_bytes()
    assert reference.npy_bytes(rho) == stored


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _run_bench("--workload", "witness", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
