"""The traced benchmark run rebinds library attributes by name.

``bench/tracing.py`` wraps module attributes such as
``predictors.map_estimator`` and ``metrics.walk_support``; renaming or
deleting one of them breaks the traced run.  This test installs the tracer
so such a change fails here, and checks that uninstalling it restores
every binding.
"""

from pathlib import Path

from mdl_lab import coding, decisions, enclosure, metrics, model_class, predictors, stabilization

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (coding, decisions, enclosure, metrics, model_class, predictors, stabilization)


def _bindings():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def test_tracer_install_rebinds_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    assert during.keys() == before.keys()
    rebound = [key for key, value in during.items() if value is not before[key]]
    assert ("mdl_lab.predictors", "map_estimator") in rebound
    assert ("mdl_lab.metrics", "walk_support") in rebound
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
