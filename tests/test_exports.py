import importlib

import pytest

MODULES = ["geometry", "model", "inner", "dca", "analysis", "oracle", "instance_io"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """Every name in a module's ``__all__`` exists on it, so a deleted
    function cannot leave a stale export behind."""
    module = importlib.import_module(f"dcloc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
