"""The benchmark's tracer wraps package functions by name, so a renamed
target would only fail in a traced benchmark run; this checks every name
here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")

    def target(mod, attr):
        obj = importlib.import_module(f"soapbubble.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    before = {(mod, attr): target(mod, attr) for mod, attr, _, _ in tracer.FUNCTIONS}
    t = tracer.Tracer()
    t.install()
    try:
        for (mod, attr), original in before.items():
            assert target(mod, attr) is not original, f"{mod}.{attr} not wrapped"
    finally:
        t.uninstall()
    for (mod, attr), original in before.items():
        assert target(mod, attr) is original, f"{mod}.{attr} not restored"
