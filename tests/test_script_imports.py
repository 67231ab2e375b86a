"""The benchmark and tool scripts import only names the package still has."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def isingpp_imports():
    """(file, module, name) of every ``from isingpp... import name`` in
    ``perfbench/*.py`` and ``tools/*.py``, read with ``ast``."""
    found = []
    for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "isingpp"):
                found += [(path.relative_to(ROOT), node.module, a.name) for a in node.names]
    return found


def test_script_imports_resolve():
    imports = isingpp_imports()
    assert {str(f.parent) for f, _, _ in imports} == {"perfbench", "tools"}
    missing = []
    for path, module, name in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{path}: from {module} import {name}")
    assert not missing, missing
