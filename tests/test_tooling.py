"""The layer tracer names library functions by string; a rename or deletion
in hilb2 would only surface when a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layertrace_targets_resolve():
    lt = _load_layertrace()
    for module, attr, kind in lt.TARGETS:
        mod = importlib.import_module(f"hilb2.{module}")
        if kind == "method":
            cls_name, meth = attr.split(".")
            assert callable(getattr(mod, cls_name).__dict__[meth]), attr
        else:
            assert callable(getattr(mod, attr)), f"{module}.{attr}"
    for name, module, fn in lt.CACHES:
        assert callable(getattr(importlib.import_module(f"hilb2.{module}"), fn).cache_info), name
