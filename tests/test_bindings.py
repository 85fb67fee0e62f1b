"""The names that perfbench's traced run wraps still resolve.

``perfbench/spans.py`` replaces library functions where their callers look
them up (``BINDINGS``: module, attribute, layer, counter).  A name deleted or
no longer bound in one of those modules would break ``perfbench/run.py
--trace 1``; this test catches it in tier-1.  It only imports ``spans``.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.BINDINGS
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in spans.BINDINGS
               if not callable(getattr(module, name, None))]
    assert missing == []
