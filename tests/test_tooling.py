"""Structure checks.  The layer tracer names library functions by string; a
rename or deletion in hilb2 would only surface when a traced benchmark run
fails.  The core library modules must not import the reference linear
algebra, the oracles or the suites that check them, nor walk the full list
of forms.  No check in the package is a bare assert, which python -O
drops.  The orbit sum behind the benchmark's ``constant`` workload has a
memory ceiling, and no cache of the core holds more than 128 entries.  The
oracles call none of the library counters they check, and the package
surface holds no reference routine."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hilb2.asymptotics import _orbit_sum

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
        elif kind == "gen":
            # the tracer's wrapper drives the generator and calls its close()
            assert inspect.isgeneratorfunction(getattr(mod, attr)), f"{module}.{attr}"
        else:
            assert callable(getattr(mod, attr)), f"{module}.{attr}"
    for name, module, fn in lt.CACHES:
        assert callable(getattr(importlib.import_module(f"hilb2.{module}"), fn).cache_info), name


def test_import_hilb2_loads_the_traced_modules_and_no_reference_suite():
    # the tracer reads sys.modules["hilb2.<module>"] after a bare import, so
    # every module it names must be loaded by ``import hilb2`` alone; the
    # suites and the oracles must not be
    lt = _load_layertrace()
    src = Path(importlib.util.find_spec("hilb2").origin).parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hilb2; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    loaded = {m.removeprefix("hilb2.") for m in out if m.startswith("hilb2.")}
    traced = {module for module, _, _ in lt.TARGETS} | {module for _, module, _ in lt.CACHES}
    assert traced <= loaded, sorted(traced - loaded)
    assert not loaded & {"verify", "oracles"}, sorted(loaded)


# The library modules that the program paths run; the generic linear algebra
# in ``exactlin``, the reference implementations in ``oracles`` and the
# suites in ``verify`` sit on top of them, and stay independent only while
# nothing here imports them.
_CORE = ("lattice", "hilb", "asymptotics", "heights")


def test_core_modules_import_no_oracle_or_verify():
    src = Path(importlib.util.find_spec("hilb2").origin).parent
    for name in _CORE:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported.add(module.split(".")[-1])
                if module in ("", "hilb2"):  # from . import x, from hilb2 import x
                    imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert not imported & {"exactlin", "oracles", "verify"}, (name, sorted(imported))


def test_core_modules_walk_only_the_orbit_representatives():
    # ``canonical_forms`` is the full walk that the orbit walk is checked
    # against; no core module reads it, and its size guard belongs to the
    # suites
    src = Path(importlib.util.find_spec("hilb2").origin).parent
    for name in _CORE:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "canonical_forms" not in used, name
    hilb = importlib.import_module("hilb2.hilb")
    assert not hasattr(hilb, "check_form_walk") and not hasattr(hilb, "_MAX_FORMS")


def test_no_bare_asserts_in_the_package():
    src = Path(importlib.util.find_spec("hilb2").origin).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_orbit_sum_peak_memory():
    # _orbit_sum(-1.5, 200) is the sum of constant_c(2, 200), the benchmark's
    # constant workload; a per-term Python float list peaked at 3.09 MiB here
    _orbit_sum(-1.5, 20)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        _orbit_sum(-1.5, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.09 * 2**20, peak / 2**20


# The counters and walkers of the library that the oracles check; an oracle
# that called one of them would check it against itself.
_LIBRARY_COUNTERS = {
    "count_form_le", "enumerate_form_le", "count_primitive_form", "_half_slices",
    "_octant_count", "_moebius_upto", "min_form_value", "successive_minima",
}


def test_oracles_import_no_library_counter_or_walker():
    src = Path(importlib.util.find_spec("hilb2").origin).parent
    tree = ast.parse((src / "oracles.py").read_text(encoding="utf-8"))
    # imported by name, or read as an attribute of an imported module
    used = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & _LIBRARY_COUNTERS, sorted(used & _LIBRARY_COUNTERS)


def test_package_surface_holds_no_reference_routine():
    import hilb2

    trimmed = {
        "saturate", "smith_minor_gcd", "gram_det2", "nonsplit_params", "NonsplitParams",
        "disc_ratio", "restrict_to_line", "BinaryQuadraticForm",
    }
    assert not {name for name in trimmed if hasattr(hilb2, name)}


def test_core_caches_hold_at_most_128_entries():
    # per-form state is asked for again soon after it is built, so 128
    # entries keep the hits (test_lattice.py checks that on the counting
    # paths), and a larger or unbounded cache only grows with the number of
    # forms a run visits
    src = Path(importlib.util.find_spec("hilb2").origin).parent
    found = []
    for name in _CORE:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                if getattr(target, "id", getattr(target, "attr", None)) not in ("lru_cache", "cache"):
                    continue
                sizes = [*call.args, *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
                size = sizes[0].value if sizes and isinstance(sizes[0], ast.Constant) else None
                assert type(size) is int and 0 < size <= 128, (name, node.name, ast.unparse(dec))
                found.append(f"{name}.{node.name}")
    assert len(found) >= 5, found
