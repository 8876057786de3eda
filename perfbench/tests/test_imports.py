"""The benchmark uses only program names that planned deletions keep.

The ROADMAP schedules removals of ``WorkloadHandle``,
``LayerWorkload.nonzero_multiplies``, the ``repro.scnn.config`` shim, the
process worker tier (``ProcessWorkerPool`` and the ``mode=`` option that
selects it), the engine's ``parallel=`` pool and ``scripts/record_bench.py``.
The benchmark must not reach any of them, so those changes can land without
editing it.
"""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
FORBIDDEN_NAMES = {"WorkloadHandle", "ProcessWorkerPool", "record_bench"}
FORBIDDEN_MODULES = {"repro.scnn.config", "repro.engine.workloads", "repro.engine.parallel"}


def _sources():
    files = sorted(BENCH.glob("*.py"))
    assert files, "no benchmark sources found"
    return [(path, ast.parse(path.read_text(), str(path))) for path in files]


def test_no_removed_module_or_name_is_imported():
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module not in FORBIDDEN_MODULES, f"{path.name} imports {module}"
            for name in names:
                assert name not in FORBIDDEN_NAMES, f"{path.name} imports {name}"


def test_no_removed_name_or_option_is_used():
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                assert node.id not in FORBIDDEN_NAMES, f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in FORBIDDEN_NAMES | {"nonzero_multiplies"}, (
                    f"{path.name}:{node.lineno} reads .{node.attr}"
                )
            if isinstance(node, ast.keyword):
                assert node.arg != "parallel", f"{path.name}:{node.lineno} passes parallel="
                # ``mode=`` goes with the process tier it selects.
                assert node.arg != "mode", f"{path.name}:{node.lineno} passes mode="
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "record_bench" not in node.value, f"{path.name}:{node.lineno}"
