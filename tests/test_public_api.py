"""Public-API surface checks: exports exist, are documented, and the
error hierarchy is coherent."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import errors


PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.hypersonic",
    "repro.costmodel",
    "repro.baselines",
    "repro.simulator",
    "repro.runtime",
    "repro.datasets",
    "repro.workloads",
    "repro.bench",
    "repro.obs",
    "repro.control",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} needs a module docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_import_does_not_load_numpy(module_name):
    """numpy is optional and costs about 12 MB once loaded: only the
    batched kernels and the planner's sampler import it, when they run."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        f"import sys, {module_name}\n"
        "loaded = sorted(name for name in sys.modules\n"
        "                if name.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES[:-1])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_top_level_version():
    assert repro.__version__ == "1.0.0"


def test_public_classes_documented():
    undocumented = []
    for module_name in PUBLIC_MODULES[:-1]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        error_classes = [
            obj
            for obj in vars(errors).values()
            if inspect.isclass(obj) and issubclass(obj, Exception)
        ]
        assert len(error_classes) >= 7
        for cls in error_classes:
            assert issubclass(cls, errors.ReproError)

    def test_catchable_with_single_except(self):
        try:
            raise errors.PatternError("boom")
        except errors.ReproError as caught:
            assert "boom" in str(caught)
