"""Every name a package exports resolves, so `from ... import *` works."""

import importlib

import pytest


@pytest.mark.parametrize(
    "package", ["choreo", "choreo.protocols", "choreo.runtime", "choreo.transport"]
)
def test_every_exported_name_resolves(package):
    namespace = {}
    exec(f"from {package} import *", namespace)  # raises on a stale name
    assert set(importlib.import_module(package).__all__) <= namespace.keys()
