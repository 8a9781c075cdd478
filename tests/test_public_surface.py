"""Every public function and class of src/sharpq is used by the program.

A public top-level name counts as used when some module of src/sharpq or of
the benchmark (perfbench/, its tests excepted) names it, as an `ast.Name` or
as the attribute of an `ast.Attribute`, outside the name's own definition.
Importing a name is not using it. A function that only tests call is code
the program carries without running; its tests belong on the function the
program does run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sharpq"
PERFBENCH = ROOT / "perfbench"


def _named(tree, skip=None):
    """Every name read as an `ast.Name` or an attribute in `tree`, leaving
    out the subtree `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unused_public_names(src, others):
    """`module.name` for each public top-level function or class of a module
    in `src` that no module of `src` or `others` names outside its body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src + others}
    elsewhere = {path: set().union(*(_named(t) for p, t in trees.items() if p != path))
                 for path in src}
    return [
        f"{path.stem}.{node.name}"
        for path in src
        for node in _public_definitions(trees[path])
        if node.name not in elsewhere[path] and node.name not in _named(trees[path], node)
    ]


def test_every_public_function_and_class_is_used_by_the_program():
    src = sorted(SRC.glob("*.py"))
    others = sorted(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
    assert unused_public_names(src, others) == []


def test_the_guard_sees_names_only_their_own_body_or_an_import_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def walk(f):\n    return walk(f.left)\n"
        "def used(x):\n    return x\n"
        "class Kept:\n    pass\n"
        "class Lost:\n    def m(self):\n        return Lost()\n"
        "def _private():\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import Lost, used, walk\nimport a\nx = a.Kept\ny = used(1)\n"
    )
    assert unused_public_names([tmp_path / "a.py"], [tmp_path / "b.py"]) == ["a.walk", "a.Lost"]
