"""The evaluator reads a relation one way: as argument columns.

How a relation is held is decided in relstore.Structure alone, and every
structure answers Structure.columns. So sharpcore.py reads no `.relations`,
never tests `columns` against None, and asks for a tuple set (`.tuples(`)
only in _Facts.distinct, for a consumer that reads a relation's rows.
"""

import ast
from pathlib import Path

SHARPCORE = Path(__file__).resolve().parent.parent / "src" / "sharpq" / "sharpcore.py"


def _names_columns(node):
    return any(
        isinstance(n, ast.Name) and n.id == "columns"
        or isinstance(n, ast.Attribute) and n.attr == "columns"
        for n in ast.walk(node)
    )


def _second_reads(source):
    """`line N: what` for each read of a relation other than its columns."""
    tree = ast.parse(source)
    rows = {
        id(n)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "_Facts"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "distinct"
        for n in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "relations":
            found.append(f"line {node.lineno}: .relations")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tuples"
            and id(node) not in rows
        ):
            found.append(f"line {node.lineno}: .tuples(")
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            if any(isinstance(x, ast.Constant) and x.value is None for x in sides) and any(
                map(_names_columns, sides)
            ):
                found.append(f"line {node.lineno}: columns against None")
    return sorted(found)


def test_sharpcore_reads_relations_only_as_columns():
    assert _second_reads(SHARPCORE.read_text(encoding="utf-8")) == []


def test_the_guard_sees_a_second_read_path():
    source = (
        "class _Facts:\n"
        "    def distinct(self):\n"
        "        return self.b.tuples(self.name)\n"
        "def f(b, name):\n"
        "    if b.columns(name) is None:\n"
        "        return b.relations[name]\n"
        "    return b.tuples(name)\n"
    )
    assert _second_reads(source) == [
        "line 5: columns against None",
        "line 6: .relations",
        "line 7: .tuples(",
    ]
