"""Spans around the public functions of each paritysim layer.

The traced run replaces each function listed in TARGETS by a wrapper that
records a span (name, start, end, parent) and, for some functions, adds to
exact work counters. The package never sees the tracer: the wrappers are
installed from outside, at every place the function is looked up. A
function imported by name into another module (`from .sme import
simulate_batch` in analysis, for instance) is a separate lookup site, so
entering a Tracer replaces every module global of the package that is the same
object; a method is replaced on its class. Without that, spans would
silently record zero calls.

Self time is a span's duration minus the durations of its direct
children, so the self times of one operation sum to the duration of its
root span.
"""

import hashlib
import statistics
import time
from collections import Counter

import numpy as np

import paritysim
from paritysim import analysis, cavity, cli, markov, pulse, sme

#: span name -> (owner, attribute) of the wrapped function
TARGETS = {
    "sme.step_sde": (sme, "step_sde"),
    "sme.diffusion": (sme, "diffusion"),
    "sme.drift_coefficient": (sme.DriftOperator, "coefficient"),
    "sme.expected_photocurrent": (sme, "expected_photocurrent"),
    "sme.simulate_batch": (sme, "simulate_batch"),
    "sme.build_table": (sme, "build_table"),
    "sme.simulate_trajectory": (sme, "simulate_trajectory"),
    "sme.simulate_deterministic": (sme, "simulate_deterministic"),
    "sme.trajectory_rng": (sme, "trajectory_rng"),
    "sme.wiener_increments": (sme, "wiener_increments"),
    "cavity.integrate_amplitudes": (cavity, "integrate_amplitudes"),
    "pulse.evaluate": (pulse.PulseSpec, "evaluate"),
    "markov.witness_scan": (markov, "witness_scan"),
    "markov.trace_distance": (markov, "trace_distance"),
    "analysis.ensemble_run": (analysis, "ensemble_run"),
    "analysis.build_filter": (analysis, "build_filter"),
    "analysis.integrate": (analysis.FilterFunction, "integrate"),
    "analysis.classify": (analysis, "classify"),
    "analysis.state_fidelity": (analysis, "state_fidelity"),
    "cli.run": (cli, "run"),
    "cli.write_csv": (cli.Manifest, "write_csv"),
    "cli.write_json": (cli.Manifest, "write_json"),
    "cli.finalize": (cli.Manifest, "finalize"),
}

SPAN_NAMES = tuple(TARGETS)

#: every module namespace a wrapped function may be looked up in
PACKAGE_MODULES = (paritysim, sme, cavity, pulse, markov, analysis, cli)


def _count_batch(counts, tables, args, kwargs, result):
    _, records, diagnostics = result
    counts["sme.traj_steps"] += records.size
    counts["sme.checkpoints"] += diagnostics.times.size * records.shape[0]


def _count_noise(counts, tables, args, kwargs, result):
    n = result[0].size
    counts["sme.noise.normals"] += 2 * n
    # standard normals (2n) plus the dW and dZ arrays (n each), float64
    counts["sme.noise.bytes_computed"] += 8 * 4 * n


def _count_table(counts, tables, args, kwargs, result):
    config, drive = args[0], args[1]
    counts["cavity.table_nodes"] += len(result.times)
    key = hashlib.sha256(repr((config.to_dict(), drive, args[3:], kwargs))
                         .encode() + result.times.tobytes()).hexdigest()
    tables.add(key)


def _count_file(name_of):
    def count(counts, tables, args, kwargs, result):
        counts["cli.bytes_written"] += (args[1] / name_of(args)).stat().st_size
    return count


HOOKS = {
    "sme.simulate_batch": _count_batch,
    "sme.wiener_increments": _count_noise,
    "cavity.integrate_amplitudes": _count_table,
    "cli.write_csv": _count_file(lambda args: args[2]),
    "cli.write_json": _count_file(lambda args: args[2]),
    "cli.finalize": _count_file(lambda args: "manifest.json"),
}


class Tracer:
    """Records spans and counters while installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original function.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.tables = set()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, self.tables, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for name, (owner, attr) in TARGETS.items():
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            sites = [owner] if isinstance(owner, type) else PACKAGE_MODULES
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)
                        self._restore.append((site, key, original))
        return self

    def __exit__(self, *exc):
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()
        return False

    def take(self):
        """Metrics of the spans recorded since the last take(), and reset.

        Returns (layer metrics, exact counts, span arrays).
        """
        # the wrappers hold self.spans itself, so empty it in place
        spans = self.spans[:]
        self.spans.clear()
        counts, n_tables = dict(self.counts), len(self.tables)
        self.counts = Counter()
        self.tables = set()
        arrays = _span_arrays(spans)
        counts_out, metrics = _layer_metrics(arrays, counts, n_tables)
        return metrics, counts_out, arrays


def _span_arrays(spans):
    code = {name: i for i, name in enumerate(SPAN_NAMES)}
    return {
        "name": np.array([code[s[0]] for s in spans], dtype=np.int16),
        "start": np.array([s[1] for s in spans], dtype=float),
        "end": np.array([s[2] for s in spans], dtype=float),
        "parent": np.array([s[3] for s in spans], dtype=np.int64),
    }


def _layer_metrics(arrays, counts, n_tables):
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    total, self_s, calls = {}, {}, {}
    for i, name in enumerate(SPAN_NAMES):
        mask = arrays["name"] == i
        total[name] = float(dur[mask].sum())
        self_s[name] = float(own[mask].sum())
        calls[name] = int(mask.sum())

    exact = {f"{name}.calls": calls[name] for name in (
        "sme.step_sde", "sme.diffusion", "sme.drift_coefficient",
        "sme.expected_photocurrent", "sme.simulate_batch",
        "sme.simulate_deterministic", "sme.build_table",
        "cavity.integrate_amplitudes", "pulse.evaluate")}
    for name in ("sme.traj_steps", "sme.checkpoints", "sme.noise.normals",
                 "sme.noise.bytes_computed", "cavity.table_nodes",
                 "cli.bytes_written"):
        exact[name] = int(counts.get(name, 0))
    built = calls["cavity.integrate_amplitudes"]
    exact["cavity.tables_distinct"] = n_tables

    steps = exact["sme.traj_steps"]
    metrics = {
        "sme.step_sde.s": total["sme.step_sde"],
        "sme.diffusion.s": total["sme.diffusion"],
        "sme.drift_coefficient.s": total["sme.drift_coefficient"],
        "sme.expected_photocurrent.s": total["sme.expected_photocurrent"],
        "sme.simulate_batch.s": total["sme.simulate_batch"],
        "sme.simulate_batch.self_s": self_s["sme.simulate_batch"],
        "sme.us_per_traj_step": (1e6 * total["sme.simulate_batch"] / steps
                                 if steps else 0.0),
        "sme.noise.s": (total["sme.trajectory_rng"]
                        + total["sme.wiener_increments"]),
        "sme.build_table.s": total["sme.build_table"],
        "sme.simulate_deterministic.s": total["sme.simulate_deterministic"],
        "cavity.integrate_amplitudes.s": total["cavity.integrate_amplitudes"],
        # distinct tables / tables built; 1 when none was built
        "cavity.table_useful_ratio": n_tables / built if built else 1.0,
        "pulse.evaluate.s": total["pulse.evaluate"],
        "markov.trace_distance.s": total["markov.trace_distance"],
        "markov.witness_scan.self_s": self_s["markov.witness_scan"],
        "analysis.build_filter.s": total["analysis.build_filter"],
        "analysis.integrate.s": total["analysis.integrate"],
        "analysis.state_fidelity.s": total["analysis.state_fidelity"],
        "analysis.classify.s": total["analysis.classify"],
        "analysis.ensemble_run.self_s": self_s["analysis.ensemble_run"],
        "cli.write.s": (total["cli.write_csv"] + total["cli.write_json"]
                        + total["cli.finalize"]),
        "cli.run.self_s": self_s["cli.run"],
        "trace.self_sum_s": float(own.sum()),
    }
    return exact, metrics


def combine(per_op):
    """Median of each timing over the traced operations of one run."""
    return {key: statistics.median(op[key] for op in per_op)
            for key in per_op[0]}
