import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import critnet
from conftest import perfbench_module


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_exported_name_resolves():
    # a name in __all__ that the package does not define breaks `from critnet import *`
    assert [name for name in critnet.__all__ if not hasattr(critnet, name)] == []


def test_perfbench_trace_targets_resolve_in_src():
    # the tracer skips a target it cannot find and reads its metrics as 0, so a
    # renamed function would silently blank a benchmark metric; fail here instead
    src = (Path(__file__).parents[1] / "src").resolve()
    for module_name, path, _, _ in perfbench_module("tracing").TARGETS:
        target = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(target, part), f"{module_name}.{path} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{path}"
        assert src in Path(inspect.getsourcefile(target)).resolve().parents, f"{module_name}.{path} is not in src/"


def test_the_runtime_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency pyproject.toml declares; any other
    # import in the package would fail on an install that has only numpy
    allowed = set(sys.stdlib_module_names) | {"numpy", "critnet"}
    found = {}
    for path in sorted((Path(__file__).parents[1] / "src" / "critnet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], []).append(f"{path.name}:{node.lineno}")
    assert found.keys() >= {"numpy"}
    assert {m: where for m, where in found.items() if m not in allowed} == {}
