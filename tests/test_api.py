"""Every exported name resolves, so a removed function leaves no stale export."""

import importlib

import pytest

import cpinfer

MODULES = ["cli", "core", "detect", "infer", "pls", "simbench", "tune"]


def test_package_exports_resolve():
    assert [n for n in cpinfer.__all__ if not hasattr(cpinfer, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cpinfer.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from cpinfer.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
