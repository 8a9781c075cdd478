"""Every name that a module of src/sharpq imports is used in that module.

An import that a refactor leaves behind still runs when the module loads and
names a dependency the module no longer has.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sharpq"


def _unused_imports(path):
    """`module.name` for each name that one module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds the name `a`
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name}" for name in imported if name not in used]


def test_every_imported_name_is_used():
    assert [name for path in sorted(SRC.glob("*.py")) for name in _unused_imports(path)] == []


def test_the_guard_sees_unused_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from itertools import chain, product\n"
        "def f(x: Path):\n    return os.sep, chain(x)\n"
    )
    assert _unused_imports(path) == ["mod.regex", "mod.product"]
