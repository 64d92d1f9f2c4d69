import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_perfbench_trace_targets_resolve_in_src():
    # the tracer skips a target it cannot find and reads its metrics as 0, so a
    # renamed function would silently blank a benchmark metric; fail here instead
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    src = (root / "src").resolve()
    for module_name, path, _, _ in tracing.TARGETS:
        target = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(target, part), f"{module_name}.{path} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{path}"
        assert src in Path(inspect.getsourcefile(target)).resolve().parents, f"{module_name}.{path} is not in src/"
