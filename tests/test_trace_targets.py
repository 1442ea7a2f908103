"""Every function the benchmark's tracer wraps must still exist.

``perfbench/traced_serve.py`` patches each entry of its ``TARGETS``
table to record a per-layer span.  A target the program no longer has
is only reported on stderr and skipped, so a rename would silently drop
its layer from the benchmark's breakdown.  This test resolves every
target the same way, without patching anything.
"""

import importlib
import importlib.util
import os
import sys

import pytest

_TRACED_SERVE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "traced_serve.py",
)


def _targets():
    if not os.path.isfile(_TRACED_SERVE):
        pytest.skip("perfbench/traced_serve.py is not in this checkout")
    saved_path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "_traced_serve_targets", _TRACED_SERVE
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for module_name, path, _span, _items in _targets():
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module_name}:{path}")
            continue
        assert callable(owner), f"{module_name}:{path} is not callable"
    assert not missing, f"trace targets not found: {missing}"
