"""Tests for the `sharpq` command line tool."""

import json
import random

import pytest

from sharpq.cli import main
from sharpq.compilepipe import _seeded_structures
from sharpq.epquery import pair_to_pp, parse_query, serialize_query
from sharpq.sharpcore import check_represents, parse_sharp, validate

from tests.conftest import star_pair, three_block_pair

THETA2_EPQ = "query theta2(x1,x2): U1(x1) & U2(x2)\n"
THETA2_REL = "signature U1/1 U2/1\nuniverse a b\nU1(a)\nU1(b)\nU2(b)\n"
FOLD_EPQ = "query fold(x): exists y . exists z . E(x,y) & E(x,z)\n"
UNION_EPQ = "query d(x,y,z): E(x,y) | F(y,z)\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_both_engines_agree(tmp_path, capsys):
    q = _write(tmp_path, "t.epq", THETA2_EPQ)
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--engine", "both")
    assert code == 0
    assert out == "2\nengines agree\n"


def test_count_empty_relation_gives_zero(tmp_path, capsys):
    q = _write(tmp_path, "t.epq", THETA2_EPQ)
    d = _write(tmp_path, "t.rel", "signature U1/1 U2/1\nuniverse a b\nU1(a)\n")
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d)
    assert code == 0
    assert out == "0\n"


def test_count_json_prints_decimal_string(tmp_path, capsys):
    q = _write(tmp_path, "t.epq", THETA2_EPQ)
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "2"
    assert payload["engine"] == "compiled"


def test_count_oracle_engine(tmp_path, capsys):
    q = _write(tmp_path, "u.epq", UNION_EPQ)
    d = _write(
        tmp_path, "u.rel", "signature E/2 F/2\nuniverse a b\nE(a,b)\nF(b,b)\nF(a,b)\n"
    )
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--engine", "oracle")
    assert code == 0
    assert out == "5\n"


def _path20_files(tmp_path, nodes):
    atoms = " & ".join(f"E(v{i},v{i+1})" for i in range(20))
    binders = " ".join(f"exists v{i} ." for i in range(1, 21))
    q = _write(tmp_path, "path20.epq", f"query path20(v0): {binders} {atoms}\n")
    rng = random.Random(7)
    uni = [f"n{i}" for i in range(nodes)]
    edges = {(rng.choice(uni), rng.choice(uni)) for _ in range(3 * nodes)}
    rel = (
        "signature E/2\nuniverse "
        + " ".join(uni)
        + "\n"
        + "\n".join(f"E({a},{b})" for a, b in sorted(edges))
        + "\n"
    )
    d = _write(tmp_path, "graph.rel", rel)
    return q, d


def test_count_long_path_compiled_completes_oracle_refuses(tmp_path, capsys):
    q, d = _path20_files(tmp_path, 25)
    code, out, _ = _run(capsys, "count", "-q", q, "-d", d, "--engine", "compiled")
    assert code == 0
    assert int(out) >= 0
    code, _, err = _run(capsys, "count", "-q", q, "-d", d, "--engine", "oracle")
    assert code == 3
    assert "refuses" in err


# ---------------------------------------------------------------------------
# compile / minimize
# ---------------------------------------------------------------------------


def test_compile_output_reparses_and_represents(tmp_path, capsys):
    q_path = _write(tmp_path, "u.epq", UNION_EPQ)
    code, out, _ = _run(capsys, "compile", "-q", q_path)
    assert code == 0
    sentence_text, report_text = out.splitlines()
    sentence = parse_sharp(sentence_text)
    assert validate(sentence).ok
    q = parse_query(UNION_EPQ)
    ok, _ = check_represents(sentence, q, _seeded_structures(q.sig))
    assert ok
    report = json.loads(report_text)
    assert set(report) == {"width", "sharp_width", "terms", "qaw", "core_size"}
    assert report["terms"] == 3
    assert report["core_size"] is None


def test_compile_naive_strategy(tmp_path, capsys):
    q_path = _write(tmp_path, "t.epq", THETA2_EPQ)
    code, out, _ = _run(capsys, "compile", "-q", q_path, "--strategy", "naive")
    assert code == 0
    sentence_text, report_text = out.splitlines()
    assert sentence_text == "P{x1,x2} C[U1(x1) & U2(x2); {x1,x2}]"
    report = json.loads(report_text)
    assert report["width"] == 2
    assert report["qaw"] is None and report["core_size"] is None


def test_compile_theta3_width_one(tmp_path, capsys):
    q_path = _write(
        tmp_path, "t3.epq", "query theta3(x1,x2,x3): U1(x1) & U2(x2) & U3(x3)\n"
    )
    code, out, _ = _run(capsys, "compile", "-q", q_path, "--json")
    assert code == 0
    assert json.loads(out)["width"] == 1


def test_minimize_three_block_width_four(tmp_path, capsys):
    q_path = _write(
        tmp_path, "tb.epq", serialize_query(pair_to_pp(three_block_pair()))
    )
    code, out, _ = _run(capsys, "minimize", "-q", q_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["width"] == 4
    assert report["qaw"] == 4
    sentence = parse_sharp(report["sentence"])
    assert validate(sentence).ok


def test_minimize_theta2_reports_core(tmp_path, capsys):
    q_path = _write(tmp_path, "t.epq", THETA2_EPQ)
    code, out, _ = _run(capsys, "minimize", "-q", q_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["width"] == 1
    assert report["terms"] == 1
    assert report["core_size"] == 2


# ---------------------------------------------------------------------------
# width / qaw / core / equiv / flatten / decompose
# ---------------------------------------------------------------------------


def test_width_command(tmp_path, capsys):
    s = _write(tmp_path, "t.shq", "P{x1,x2} C[U1(x1) & U2(x2); {x1,x2}]\n")
    code, out, _ = _run(capsys, "width", "-s", s)
    assert code == 0
    assert out == "width: 2\nsharp-width: 2\n"


def test_width_rejects_malformed_formula(tmp_path, capsys):
    s = _write(tmp_path, "bad.shq", "(C[U(x); {x}] * C[V(y); {y}])\n")
    code, _, err = _run(capsys, "width", "-s", s)
    assert code == 2
    assert "ill-formed" in err


def test_qaw_command_with_dump(tmp_path, capsys):
    q_path = _write(tmp_path, "star3.epq", serialize_query(pair_to_pp(star_pair(3))))
    td_path = tmp_path / "td.txt"
    code, out, _ = _run(capsys, "qaw", "-q", q_path, "--dump-td", str(td_path))
    assert code == 0
    assert out == "qaw: 4\n"
    dumped = td_path.read_text()
    assert "parent none" in dumped and dumped.startswith("node ")


def test_core_command(tmp_path, capsys):
    q_path = _write(tmp_path, "fold.epq", FOLD_EPQ)
    code, out, _ = _run(capsys, "core", "-q", q_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "core size: 2"
    core_q = parse_query(lines[1])
    assert core_q.liberal == ("x",)


def test_equiv_counting_mode(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x,y): E(x,y)\n")
    b = _write(tmp_path, "b.epq", "query b(v,u): E(v,u)\n")
    code, out, _ = _run(capsys, "equiv", "-q", a, "-r", b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counting-equivalent: yes"
    assert lines[1].startswith("forward: ") and lines[2].startswith("backward: ")


def test_equiv_logical_mode(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x): exists y . E(x,y)\n")
    b = _write(tmp_path, "b.epq", "query b(x): exists y . exists z . E(x,y) & E(x,z)\n")
    code, out, _ = _run(capsys, "equiv", "-q", a, "-r", b, "--mode", "logical")
    assert code == 0
    assert out.splitlines()[0] == "logically-equivalent: yes"


def test_equiv_reports_inequivalence(tmp_path, capsys):
    a = _write(tmp_path, "a.epq", "query a(x): U(x)\n")
    b = _write(tmp_path, "b.epq", "query b(x): V(x)\n")
    code, out, _ = _run(capsys, "equiv", "-q", a, "-r", b)
    assert code == 0
    assert out == "counting-equivalent: no\n"


def test_flatten_command(tmp_path, capsys):
    s = _write(tmp_path, "u.shq", "P{x,y,z} C[E(x,y) | F(y,z); {x,y,z}]\n")
    code, out, _ = _run(capsys, "flatten", "-s", s)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "terms: 3"
    assert validate(parse_sharp(lines[0])).ok


def test_decompose_command_with_dump(tmp_path, capsys):
    q_path = _write(tmp_path, "fold.epq", FOLD_EPQ)
    td_path = tmp_path / "td.txt"
    code, out, _ = _run(capsys, "decompose", "-q", q_path, "--dump-td", str(td_path))
    assert code == 0
    assert out == "treewidth: 1\n"
    assert "parent none" in td_path.read_text()


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------


def test_parse_error_exits_two(tmp_path, capsys):
    bad = _write(tmp_path, "bad.epq", "query broken(: nope\n")
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, _, err = _run(capsys, "count", "-q", bad, "-d", d)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("query q(x,\n  exists): E(x,x)\n", "line 2, column 3: expected a variable name, got 'exists'"),
        ("query q(x):\n  exists true . E(x,x)\n", "line 2, column 10: expected a variable after 'exists', got 'true'"),
        ("query q(x): E(x,\n   true)\n", "line 2, column 4: expected a variable name, got 'true'"),
    ],
    ids=["liberal-variable", "exists-binder", "atom-argument"],
)
def test_epq_parse_errors_report_their_position(tmp_path, capsys, text, message):
    q = _write(tmp_path, "bad.epq", text)
    code, out, err = _run(capsys, "minimize", "-q", q)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_file_is_an_error(tmp_path, capsys):
    d = _write(tmp_path, "t.rel", THETA2_REL)
    code, _, err = _run(capsys, "count", "-q", str(tmp_path / "nope.epq"), "-d", d)
    assert code == 1
    assert "cannot read" in err


def test_dnf_cap_exits_three(tmp_path, capsys):
    q = _write(
        tmp_path, "big.epq", "query d(x): (U(x) | V(x)) & (U(x) | W(x)) & (V(x) | W(x))\n"
    )
    code, _, err = _run(capsys, "compile", "-q", q, "--max-dnf", "3")
    assert code == 3
    assert "disjuncts" in err


def test_unknown_engine_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["count", "-q", "x", "-d", "y", "--engine", "fast"])
    assert exc.value.code == 2


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    q = _write(tmp_path, "u.epq", UNION_EPQ)
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "minimize", "-q", q, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
