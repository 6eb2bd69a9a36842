"""The benchmark tracer still finds every function it wraps.

perfbench/tracing.py looks each TARGETS entry up in its owner's namespace
when a traced run starts, so renaming or deleting one of them in the
package makes every traced benchmark operation fail. This reads the
tracer and never changes it.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_target_resolves_in_its_owner(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [name for name, (owner, attr) in tracing.TARGETS.items()
               if not callable(vars(owner).get(attr))]
    assert missing == []


def test_tracer_installs_and_restores(monkeypatch):
    tracing = load_tracing(monkeypatch)
    originals = {name: vars(owner)[attr]
                 for name, (owner, attr) in tracing.TARGETS.items()}
    with tracing.Tracer():
        pass
    assert all(vars(owner)[attr] is originals[name]
               for name, (owner, attr) in tracing.TARGETS.items())
