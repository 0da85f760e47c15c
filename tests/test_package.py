"""The package namespace exports exactly what its modules still provide."""

from __future__ import annotations

import importlib
import inspect

import pytest

import safe_lsoc

MODULES = [
    "compose", "harness", "hjb", "lsoc", "mas", "scenarios", "sde", "zcbf",
]


def test_every_exported_name_resolves():
    assert len(set(safe_lsoc.__all__)) == len(safe_lsoc.__all__)
    missing = [n for n in safe_lsoc.__all__ if not hasattr(safe_lsoc, n)]
    assert missing == []


def test_every_public_reexport_is_listed():
    public = {
        name
        for name, value in vars(safe_lsoc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(safe_lsoc.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"safe_lsoc.{module}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []
