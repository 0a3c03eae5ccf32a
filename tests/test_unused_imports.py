"""No module of the package imports a name it never reads."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ristensor"


def _imported(tree):
    # each name an import statement binds, anywhere in the module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree):
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _kept_names():
    # per module, the imported names kept without a reader: those
    # __init__.py re-exports from it, and those perfbench/spans.py wraps there
    # (the benchmark resolves every such name on every call)
    kept = {}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            kept.setdefault(node.module, set()).update(a.name for a in node.names)
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.TARGETS:
        kept.setdefault(module.removeprefix("ristensor."), set()).add(attr)
    return kept


def test_every_imported_name_is_read():
    kept = _kept_names()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":   # its imports are the package's namespace
            continue
        tree = ast.parse(path.read_text())
        for name in sorted(_imported(tree) - _read(tree) - kept.get(path.stem, set())):
            unread.append(f"{path.name}: {name}")
    assert unread == []


def test_the_check_finds_an_unread_import():
    tree = ast.parse("import dataclasses\nimport numpy as np\nfrom math import pi, tau\nx = np.pi + tau\n")
    assert _imported(tree) - _read(tree) == {"dataclasses", "pi"}
