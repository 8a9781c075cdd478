"""Every function in src/sharpq that calls itself by name, against an allow-list.

Formula depth grows with the input (a union of k disjuncts compiles to a sum
of up to 2^k - 1 terms), so walks over formulas and parsers run from explicit
stacks. A function may recurse only where a cap or a small structure bounds
its depth; the allow-list names that bound.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sharpq"

ALLOWED = {
    "compilepipe._canonical_pair.search": "universe size, capped by canon_cap",
    "decomp._exact_treewidth_connected.dfs": "vertices of the simplicial kernel, capped by cap",
}


def _self_calls(path):
    """Qualified names of the functions in one module that call themselves,
    as `name(...)` or, in a method, `self.name(...)`."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = scope + [child.name]
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    fn = call.func
                    if (isinstance(fn, ast.Name) and fn.id == child.name) or (
                        isinstance(fn, ast.Attribute)
                        and fn.attr == child.name
                        and isinstance(fn.value, ast.Name)
                        and fn.value.id == "self"
                    ):
                        out.append(".".join([path.stem] + qualname))
                        break
                visit(child, qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return out


def test_only_allow_listed_functions_call_themselves():
    found = sorted(name for path in sorted(SRC.glob("*.py")) for name in _self_calls(path))
    assert found == sorted(ALLOWED)


def test_the_guard_sees_direct_and_method_self_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def walk(f):\n    return walk(f.left)\n"
        "class C:\n    def eval(self, f):\n        return self.eval(f)\n"
        "    def other(self):\n        return super().other()\n"
        "def outer():\n    def inner(k):\n        return inner(k - 1)\n    return inner(3)\n"
    )
    assert _self_calls(path) == ["mod.walk", "mod.C.eval", "mod.outer.inner"]
