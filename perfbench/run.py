"""Run one workload of the paritysim benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload desk_ensemble --seed 1 \\
        --seconds 15 --trace 0

The workload's operation runs in a closed loop, one client in this
process, until --seconds have passed. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the metric
names and units are those of BENCHMARK.json, its end_to_end metrics with
--trace 0 and its per_layer metrics with --trace 1. The line before it
records the machine, the per-operation times and the accuracy numbers.

With --trace 1 operations alternate between untraced and traced, so the
tracing overhead is measured in the same run; the spans are written to
.perfbench/traces/ when the run ends. The exact work counts of a traced
run must repeat between runs of the same code: the run exits with status
3 if they differ from an earlier run of the same source, workload and seed.
"""

import os

# one BLAS thread: the state matrices are 8x8, and a second thread only
# adds noise; the setting is recorded with every result
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"

#: fresh interpreters timed for setup_s
SETUP_RUNS = 3
SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import paritysim
from paritysim import model
from paritysim.pulse import default_pulse
config, pulse = model.default_config(), default_pulse()
print(time.perf_counter() - t0)
"""

#: Machine speed. The benchmark shares its cores with other tenants,
#: and their load changes the speed of this process by up to 2x within
#: minutes, in CPU time as much as in wall time. Runs of a fixed numpy
#: kernel bracket every set-up and every operation, and each time is
#: reported scaled by the kernel's reference time over its mean time just
#: before and after. The kernel steps a batch of 8x8 complex matrices.
#: Under contention batch-100 numpy work slows about a third as much as
#: small-batch work, so the batched workload gets a batch-100 kernel and
#: the others a batch-10 one (a batch-1 kernel, all interpreter dispatch,
#: over-corrected: witness spread 0.20 against 0.05 with batch 10).
#: kernel batch -> (iterations, reference seconds of one kernel run on an
#: unloaded 2-core x86-64 VM)
CAL_KERNELS = {10: (1000, 0.0124), 100: (300, 0.0117)}
#: share of an operation's time spent calibrating after it
CAL_SHARE = 0.05
CAL_MIN_REPS = 3

#: eigenvalues above -EIG_FLOOR are round-off of an 8x8 unit-trace matrix;
#: neg_min_eig reports at least this, so it is never 0
EIG_FLOOR = 1e-16

#: operations per run at least, however long they take
MIN_OPS = 2

EXIT_COUNTS_DIFFER = 3


class Speed:
    """Timings of the calibration kernel at one batch width."""

    def __init__(self, batch: int):
        batch = 100 if batch >= 100 else 10
        self.iters, self.ref_s = CAL_KERNELS[batch]
        rng = np.random.default_rng(0)
        self.rho0 = np.broadcast_to(np.eye(8) / 8.0,
                                    (batch, 8, 8)).astype(complex)
        self.k = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

    def sample(self, reps: int) -> float:
        """Median seconds of `reps` kernel runs."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            rho = self.rho0
            for _ in range(self.iters):
                diag = np.einsum("...ii->...i", rho).real
                rho = rho + 1e-3 * (self.k * rho
                                    - diag.sum(axis=-1)[:, None, None] * rho)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` at reference speed, given kernel times around them."""
        return seconds * self.ref_s / (0.5 * (before + after))


def measure_setup(speed: Speed):
    """Seconds to import paritysim and build the config and pulse.

    Each set-up runs in a fresh interpreter. Returns the raw and the
    scaled times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    before = speed.sample(CAL_MIN_REPS)
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        raw.append(float(proc.stdout.split()[-1]))
        after = speed.sample(CAL_MIN_REPS)
        scaled.append(speed.scale(raw[-1], before, after))
        before = after
    return raw, scaled


def source_hash() -> str:
    """sha256 over the package and benchmark sources and data."""
    digest = hashlib.sha256()
    files = sorted(p for base in (SRC / "paritysim", BENCH)
                   for p in base.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


def run_ops(workload, seconds: float, tracer, speed: Speed):
    """Closed loop of operations until `seconds` have passed.

    Without a tracer every operation is untraced; with one, operations
    alternate untraced and traced. The loop runs at least MIN_OPS
    operations, so a traced run has one of each kind. Calibration runs
    bracket every operation.
    """
    deadline = time.perf_counter() + seconds
    ops = []
    before = speed.sample(CAL_MIN_REPS)
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        start = time.perf_counter()
        try:
            with tracer if traced else nullcontext():
                output = workload.op()
            problems = workload.check(output)
        except Exception:  # a failed operation is counted, not fatal
            problems = [traceback.format_exc()]
        op = {"s": time.perf_counter() - start, "traced": traced,
              "problems": problems}
        after = speed.sample(max(CAL_MIN_REPS,
                                 math.ceil(CAL_SHARE * op["s"] / before)))
        op["scaled_s"] = speed.scale(op["s"], before, after)
        before = after
        if traced:
            op["layers"], op["counts"], op["spans"] = tracer.take()
        ops.append(op)
        for problem in problems:
            print(f"{workload.name}: {problem}", file=sys.stderr)
        if len(ops) >= MIN_OPS and time.perf_counter() >= deadline:
            return ops


def check_counts(ledger: Path, traced_ops) -> dict:
    """Exact counts of the traced operations; exits if they do not repeat.

    The ledger file keeps the counts of the first traced run of the same
    source, workload and seed.
    """
    counts = traced_ops[0]["counts"]
    differ = [op["counts"] for op in traced_ops if op["counts"] != counts]
    if ledger.is_file():
        differ += [c for c in [json.loads(ledger.read_text())] if c != counts]
    else:
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_text(json.dumps(counts, sort_keys=True) + "\n")
    if differ:
        print(f"exact counts do not repeat ({ledger.name}):\n"
              f"  {counts}\n  {differ[0]}", file=sys.stderr)
        raise SystemExit(EXIT_COUNTS_DIFFER)
    return counts


def write_spans(path: Path, traced_ops, span_names):
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {key: np.concatenate([op["spans"][key] for op in traced_ops])
              for key in traced_ops[0]["spans"]}
    arrays["op"] = np.concatenate([np.full(len(op["spans"]["name"]), i)
                                   for i, op in enumerate(traced_ops)])
    np.savez(path, span_names=np.array(span_names), **arrays)
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paritysim" / "__init__.py").is_file():
        print(f"paritysim sources not found under {SRC}", file=sys.stderr)
        return 2
    # the package is imported only once its sources are known to exist
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    setup_raw, setup = measure_setup(Speed(1))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    ops = run_ops(workload, args.seconds, tracer, Speed(workload.batch))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    accuracy = workloads.accuracy()

    failed = sum(1 for op in ops if op["problems"])
    if not accuracy["trace_dev"] <= 1e-10:
        print(f"accuracy probe trace deviation {accuracy['trace_dev']:.2e}",
              file=sys.stderr)
        failed += 1
    attempted = len(ops) + 1
    untraced = [op for op in ops if not op["traced"]]
    raw_wall = statistics.median(op["s"] for op in untraced)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "machine": machine(),
            "setup_raw_s": setup_raw, "setup_s": setup,
            "raw_wall_s": raw_wall,
            "untraced_op_s": [op["s"] for op in untraced],
            "untraced_scaled_s": [op["scaled_s"] for op in untraced],
            "accuracy": accuracy}

    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        scratch = workloads.reference.SCRATCH
        run_key = f"{args.workload}-seed{args.seed}"
        source = info["machine"]["source_sha256"][:16]
        counts = check_counts(scratch / "counts" / f"{source}-{run_key}.json",
                              traced_ops)
        layers = tracing.combine([op["layers"] for op in traced_ops])
        traced_wall = statistics.median(op["s"] for op in traced_ops)
        values = {**counts, **layers,
                  "trace.wall_s": traced_wall,
                  "trace.untraced_wall_s": raw_wall,
                  "trace.overhead_s": traced_wall - raw_wall,
                  "trace.unaccounted_s":
                      raw_wall - layers["trace.self_sum_s"],
                  "fail_frac": failed / attempted,
                  "accuracy.min_eig": accuracy["min_eig"]}
        for seed in workloads.reference.REFERENCE_SEEDS:
            values[f"accuracy.strong_err_{seed}"] = \
                accuracy[f"strong_err_{seed}"]
        declared = spec["per_layer"]
        info["traced_op_s"] = [op["s"] for op in traced_ops]
        info["counts"] = counts
        info["spans"] = str(write_spans(scratch / "traces" / f"{run_key}.npz",
                                        traced_ops, tracing.SPAN_NAMES)
                            .relative_to(ROOT))
    else:
        wall = statistics.median(op["scaled_s"] for op in untraced)
        values = {
            "wall_s": wall,
            "traj_steps_per_s": workload.traj_steps / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "strong_err": accuracy["strong_err"],
            "neg_min_eig": max(-accuracy["min_eig"], EIG_FLOOR),
        }
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
