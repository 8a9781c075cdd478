"""Each value class declares its fields once, in `_fields`, and Frozen's one
__init__ sets them: no class in src/sharpq writes an __init__ that only
copies its parameters into slots, and every class refuses values that do
not match its fields one to one with a TypeError naming the class."""

import ast
from pathlib import Path

import pytest

from sharpq.epquery import And
from tests.test_records import ALL, IDS

SRC = Path(__file__).resolve().parent.parent / "src" / "sharpq"


def _copies_a_parameter(stmt, params):
    """Whether stmt is `_set(self, "p", p)` or `super().__init__(p, ...)`
    for parameters p, each handed on unchanged."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return False
    call = stmt.value
    if call.keywords:
        return False
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id == "_set" and len(call.args) == 3:
        target, name, value = call.args
        return (
            isinstance(target, ast.Name) and target.id == "self"
            and isinstance(name, ast.Constant) and isinstance(value, ast.Name)
            and name.value == value.id and value.id in params
        )
    return (
        isinstance(fn, ast.Attribute) and fn.attr == "__init__"
        and isinstance(fn.value, ast.Call) and isinstance(fn.value.func, ast.Name)
        and fn.value.func.id == "super"
        and all(isinstance(arg, ast.Name) and arg.id in params for arg in call.args)
    )


def _copying_inits(path):
    """`module.Class` for each class in one module whose __init__ consists
    only of copies of its parameters into slots."""
    out = []
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                params = {arg.arg for arg in fn.args.args[1:]}
                if fn.body and all(_copies_a_parameter(stmt, params) for stmt in fn.body):
                    out.append(f"{path.stem}.{cls.name}")
    return out


def test_no_init_only_copies_its_parameters():
    assert [name for path in sorted(SRC.glob("*.py")) for name in _copying_inits(path)] == []


def test_the_guard_sees_inits_that_only_copy(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class Copy:\n    def __init__(self, a, b):\n"
        "        _set(self, 'a', a)\n        _set(self, 'b', b)\n"
        "class Handed(Copy):\n    def __init__(self, a, b, c):\n"
        "        super().__init__(a, b)\n        _set(self, 'c', c)\n"
        "class Normal:\n    def __init__(self, a):\n        _set(self, 'a', frozenset(a))\n"
        "class Checked:\n    def __init__(self, a):\n"
        "        if not a:\n            raise ValueError\n        super().__init__(a)\n"
        "class Renamed:\n    def __init__(self, a):\n        _set(self, 'b', a)\n"
        "class Other:\n    def __init__(self, a):\n        _set(self, 'a', a)\n"
        "        _set(self, 'cache', None)\n"
    )
    assert _copying_inits(path) == ["mod.Copy", "mod.Handed"]


@pytest.mark.parametrize("cls, fields, args", ALL, ids=IDS)
def test_values_that_do_not_match_the_fields_are_a_type_error_naming_the_class(cls, fields, args):
    values = args()
    named = dict(zip(fields, values))
    wrong = [(values, {"unknown": 1}), ((*values, None), {})]
    if fields:
        wrong += [(values[:-1], {}), (values, {fields[0]: values[0]})]
    for positional, keywords in wrong:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*positional, **keywords)
    assert cls(**named) == cls(*values)


def test_frozen_names_the_fields_it_takes():
    for call in (lambda: And(1), lambda: And(1, 2, 3), lambda: And(1, right=2, other=3),
                 lambda: And(1, 2, left=1), lambda: And(right=2)):
        with pytest.raises(TypeError, match=r"^And takes its fields \(left, right\), each once"):
            call()
    assert And(right=2, left=1).left == 1 and And(1, right=2).right == 2
