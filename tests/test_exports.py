"""Every name in a spelaudio module's __all__ exists in that module, so a
stale export fails here rather than at someone's star import."""

import importlib
import pkgutil

import pytest

import spelaudio

MODULES = sorted(f"spelaudio.{info.name}" for info in pkgutil.iter_modules(spelaudio.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
