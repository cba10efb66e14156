"""The benchmark's tracer (`perfbench/layertrace.py`) wraps functions and
methods of relboost by name.  These tests read its `WRAPPED` table and
check that every name still resolves and that installing then uninstalling
the tracer leaves relboost as it found it, so that a rename which would
break a traced benchmark run fails here first.  Nothing under `perfbench/`
is changed."""

import importlib.util
from pathlib import Path

import pytest

import relboost
import relboost.cli  # noqa: F401  (binds relboost.cli, which the tracer wraps)

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _methods(layertrace) -> list:
    """(class, method name) of each wrapped method."""
    return [(getattr(getattr(relboost, module_name), attr.split(".")[0]), attr.split(".")[1])
            for module_name, attr, _ in layertrace.WRAPPED if "." in attr]


def test_every_wrapped_name_resolves(layertrace):
    for module_name, attr, kind in layertrace.WRAPPED:
        assert kind in ("hot", "span")
        if "." not in attr:
            assert callable(getattr(getattr(relboost, module_name), attr)), \
                f"{module_name}.{attr}"
    for cls, method in _methods(layertrace):
        assert callable(cls.__dict__.get(method)), f"{cls.__name__}.{method} is not its own"


def test_install_then_uninstall_restores_every_binding(layertrace):
    """The tracer rebinds every namespace holding a wrapped original and
    wraps each method on its class; uninstalling puts every original back."""
    methods = _methods(layertrace)
    namespaces = [getattr(relboost, name) for name in ("cli", "util", "logic", "regtree",
                                                       "boost", "hybrid", "rctbn", "dbn",
                                                       "metrics")]
    namespaces += [cls for cls, _ in methods]
    before = [dict(vars(ns)) for ns in namespaces]
    assert layertrace.stale_bindings(relboost)      # untraced, every original is unwrapped
    tracer = layertrace.Tracer()
    rebound = tracer.install(relboost)
    try:
        assert layertrace.stale_bindings(relboost) == []
        assert {(m, a) for m, a, _ in layertrace.WRAPPED if "." not in a} <= set(rebound)
        for cls, method in methods:
            assert cls.__dict__[method].__wrapped__ is before[namespaces.index(cls)][method]
    finally:
        tracer.uninstall()
    for ns, old in zip(namespaces, before):
        new = dict(vars(ns))
        assert old.keys() == new.keys()
        assert [name for name in old if old[name] is not new[name]] == [], ns
