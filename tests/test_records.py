"""The immutable value classes: construction, immutability, equality, hash
and repr of every formula node and value record, and a start-up that loads
neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import sharpq
from sharpq.compilepipe import FlatSharp, LinearCombination
from sharpq.decomp import NiceTreeDecomposition, TreeDecomposition
from sharpq.epquery import (
    And,
    Atom,
    Exists,
    Graph,
    LiberalQuery,
    Or,
    PpPair,
    Top,
    oracle_count,
)
from sharpq.equiv import EquivalenceWitness
from sharpq.relstore import Signature, make_structure
from sharpq.sharpcore import (
    Cast,
    Const,
    Expand,
    Plus,
    Project,
    Times,
    Validation,
    Violation,
)

from tests.helpers import CountTable

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sharpq.__file__)))

SIG = Signature((("E", 2), ("F", 1)))


def _struct():
    return make_structure(SIG, ["a", "b"], {"E": [("a", "b")]})


def _cast():
    return Cast(Atom("F", ("x",)), ("x",))


# each class, its fields in order, and a function building valid arguments
# (called afresh, so that equal records are built from distinct objects)
RECORDS = [
    (Signature, ("symbols",), lambda: ((("E", 2), ("F", 1)),)),
    (
        LiberalQuery,
        ("name", "formula", "liberal", "sig"),
        lambda: ("u", Exists("y", Atom("E", ("x", "y"))), ("x",), SIG),
    ),
    (PpPair, ("struct", "liberal"), lambda: (_struct(), ("a",))),
    (Graph, ("vertices", "edges"), lambda: (frozenset({1, 2}), frozenset({frozenset({1, 2})}))),
    (
        TreeDecomposition,
        ("nodes", "parent", "bags"),
        lambda: ((0, 1), {0: None, 1: 0}, {0: frozenset({"x"}), 1: frozenset({"y"})}),
    ),
    (
        NiceTreeDecomposition,
        ("nodes", "parent", "bags", "kinds"),
        lambda: ((0,), {0: None}, {0: frozenset()}, {0: "leaf"}),
    ),
    (EquivalenceWitness, ("kind", "forward", "backward"), lambda: ("logical", {"a": "a"}, {"a": "a"})),
    (FlatSharp, ("terms", "free"), lambda: (((_cast(), _cast()),), frozenset({"x"}))),
    (LinearCombination, ("entries",), lambda: (((2, PpPair(_struct(), ("a",))),),)),
    (Violation, ("path", "message"), lambda: ("root.left", "bad")),
    (Validation, ("free", "closed", "violations"), lambda: (frozenset(), frozenset({"x"}), ())),
    (CountTable, ("explicit", "wildcard", "universe", "data"), lambda: (("x",), (), ("a",), {("a",): 1})),
]

NODES = [
    (Atom, ("symbol", "args"), lambda: ("E", ("x", "y"))),
    (And, ("left", "right"), lambda: (Atom("F", ("x",)), Atom("F", ("y",)))),
    (Or, ("left", "right"), lambda: (Atom("F", ("x",)), Atom("F", ("y",)))),
    (Exists, ("var", "body"), lambda: ("y", Atom("E", ("x", "y")))),
    (Top, (), lambda: ()),
    (Cast, ("ep", "liberal"), lambda: (Atom("F", ("x",)), ("x",))),
    (Project, ("vars", "child"), lambda: (frozenset({"x"}), _cast())),
    (Expand, ("vars", "child"), lambda: (frozenset({"y"}), _cast())),
    (Times, ("left", "right"), lambda: (_cast(), Project(frozenset({"x"}), _cast()))),
    (Plus, ("left", "right"), lambda: (_cast(), Project(frozenset({"x"}), _cast()))),
    (Const, ("n",), lambda: (3,)),
]

ALL = RECORDS + NODES
IDS = [cls.__name__ for cls, _, _ in ALL]

# records with a dict field are unhashable, as their fields are
UNHASHABLE = {TreeDecomposition, NiceTreeDecomposition, EquivalenceWitness, CountTable}


@pytest.mark.parametrize("cls, fields, args", ALL, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, args):
    by_position, by_keyword = cls(*args()), cls(**dict(zip(fields, args())))
    assert by_position == by_keyword
    for name, value in zip(fields, args()):
        assert getattr(by_position, name) == value == getattr(by_keyword, name)


@pytest.mark.parametrize("cls, fields, args", ALL, ids=IDS)
def test_a_missing_or_unexpected_argument_is_a_type_error(cls, fields, args):
    values = args()
    if fields:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(**dict(zip(fields[:-1], values)))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unexpected=1)


@pytest.mark.parametrize("cls, fields, args", ALL, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, args):
    obj = cls(*args())
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == cls(*args())


def test_a_structure_can_be_neither_assigned_nor_deleted_and_copies():
    s = _struct()
    for name in ("sig", "universe", "_relations", "unknown"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s == _struct() and s.relations == {"E": frozenset({("a", "b")})}
    assert pickle.loads(pickle.dumps(s)) == copy.copy(s) == s


@pytest.mark.parametrize("cls, fields, args", ALL, ids=IDS)
def test_equal_records_hash_equally(cls, fields, args):
    a, b = cls(*args()), cls(*args())
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, args", ALL, ids=IDS)
def test_copies_and_pickles_equal_the_original(cls, fields, args):
    obj = cls(*args())
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj
        assert [getattr(twin, name) for name in fields] == [getattr(obj, name) for name in fields]
        with pytest.raises(AttributeError):
            setattr(twin, (*fields, "unknown")[0], None)


@pytest.mark.parametrize("cls, fields, args", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_records_differ_from_the_tuple_of_their_fields(cls, fields, args):
    assert cls(*args()) != tuple(args())


def test_records_differ_when_one_field_does():
    assert Violation("root", "bad") != Violation("root", "worse")
    assert Graph(frozenset({1}), frozenset()) != Graph(frozenset({2}), frozenset())
    assert hash(Signature((("E", 2),))) != hash(Signature((("E", 3),)))


def test_a_tree_decomposition_never_equals_a_nice_one():
    fields = ((0,), {0: None}, {0: frozenset()})
    td, nice = TreeDecomposition(*fields), NiceTreeDecomposition(*fields, {0: "leaf"})
    assert td != nice and nice != td
    assert not td == nice and not nice == td
    assert isinstance(nice, TreeDecomposition) and nice.width == td.width == -1


def test_formula_nodes_compare_by_class_and_text():
    x, y = Atom("F", ("x",)), Atom("F", ("y",))
    assert And(x, y) != Or(x, y)
    assert And(x, y) == And(Atom("F", ("x",)), Atom("F", ("y",)))
    assert Times(_cast(), _cast()) != Plus(_cast(), _cast())
    assert Project(["x"], _cast()) == Project(frozenset({"x"}), _cast())
    assert Cast(x, ("x", "x")).liberal == ("x",)
    assert repr(Exists("y", Atom("E", ("x", "y")))) == "<Exists (exists y . E(x,y))>"
    assert repr(Top()) == "<Top true>"
    assert repr(Project({"x"}, _cast())) == "<Project P{x} C[F(x); {x}]>"
    assert str(Atom("E", ("x", "y"))) == "E(x,y)"


def test_the_records_print_as_before():
    sig = Signature((("E", 2), ("F", 1)))
    q = LiberalQuery("u", Exists("y", Atom("E", ("x", "y"))), ("x",), sig)
    graph = Graph(frozenset({1, 2}), frozenset({frozenset({1, 2})}))
    td = TreeDecomposition((0, 1), {0: None, 1: 0}, {0: frozenset({"x"}), 1: frozenset({"y"})})
    fs = FlatSharp(((Expand(frozenset(), Const(1)), _cast()),), frozenset())
    assert repr(sig) == "Signature(symbols=(('E', 2), ('F', 1)))"
    assert repr(graph) == "Graph(vertices=frozenset({1, 2}), edges=frozenset({frozenset({1, 2})}))"
    assert repr(PpPair(_struct(), ("a",))) == (
        "PpPair(struct=Structure(sig=Signature(symbols=(('E', 2), ('F', 1))), "
        "universe=('a', 'b'), relations={'E': frozenset({('a', 'b')})}), liberal=('a',))"
    )
    assert repr(q) == (
        "LiberalQuery(name='u', formula=<Exists (exists y . E(x,y))>, liberal=('x',), "
        "sig=Signature(symbols=(('E', 2), ('F', 1))))"
    )
    assert repr(td) == (
        "TreeDecomposition(nodes=(0, 1), parent={0: None, 1: 0}, "
        "bags={0: frozenset({'x'}), 1: frozenset({'y'})})"
    )
    assert repr(fs) == "FlatSharp(terms=((<Expand E{} 1>, <Cast C[F(x); {x}]>),), free=frozenset())"
    assert repr(Validation(frozenset(), frozenset({"x"}), (Violation("root", "bad"),))) == (
        "Validation(free=frozenset(), closed=frozenset({'x'}), "
        "violations=(Violation(path='root', message='bad'),))"
    )


def test_the_oracle_cache_of_a_query_is_neither_compared_nor_shown():
    def query():
        return LiberalQuery("u", Exists("y", Atom("E", ("x", "y"))), ("x",), SIG)

    q, fresh = query(), query()
    shown = repr(q)
    assert oracle_count(q, _struct()) == 1
    assert q._oracle is not None and fresh._oracle is None
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == shown
    assert "_oracle" not in shown
    with pytest.raises(TypeError):
        LiberalQuery("u", Top(), (), SIG, None)


def test_starting_sharpq_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, sharpq.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == ""
