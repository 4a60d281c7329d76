"""Smoke checks: every example script imports cleanly and exposes main(),
and every ``repro`` module imports with every name in its ``__all__``.

Execution is covered manually / by CI jobs with longer budgets; the unit
suite guards against bit-rot (broken imports, renamed API, exports left
behind by a deleted module).
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name.rsplit(".", 1)[-1] != "__main__")


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # Register so dataclass/typing machinery inside can resolve the module.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        assert hasattr(module, "main"), f"{path.name} lacks main()"
        assert callable(module.main)
    finally:
        sys.modules.pop(spec.name, None)


def test_expected_example_set():
    names = {p.stem for p in EXAMPLES}
    required = {"quickstart", "recommender_communities", "sparse_topics",
                "anomaly_detection", "constraints_gallery", "nmf_matrix",
                "scaling_study"}
    assert required <= names


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
