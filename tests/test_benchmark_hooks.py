"""The benchmark's tracer patches and restores the names it wraps.

``perfbench/tracing.py`` wraps functions and methods of ``roboface`` by name
for traced benchmark runs. Renaming or dropping one of those names would
otherwise surface only as a ``KeyError`` in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import roboface  # noqa: F401  (loads every roboface module before a snapshot)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict:
    """Name -> object maps of every roboface module and the classes it defines."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "roboface" and not name.startswith("roboface."):
            continue
        out[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def changed(before: dict, after: dict) -> list[str]:
    return sorted(
        f"{space}.{attr}"
        for space, names in before.items()
        for attr, value in names.items()
        if after.get(space, {}).get(attr) is not value
    )


def test_install_wraps_named_attributes_and_remove_restores_them():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    before = namespaces()
    try:
        tracer.install()  # a name it wraps that no longer exists is a KeyError
        patched = list(tracer._patches)
        installed = namespaces()
    finally:
        tracer.remove()
    after = namespaces()

    assert patched, "the tracer wrapped nothing"
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert changed(before, installed), "install changed no roboface attribute"
    assert changed(before, after) == []
