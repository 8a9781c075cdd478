"""Byte-identical CLI output on a committed query corpus.

`tests/golden/*.epq` holds the queries: paths 1-8, stars 1-4, unary and
binary unions of 2-4 disjuncts, the 2x3 grid and random ep queries. Records,
all next to the queries:

- `cli.json`: for each query and command, the exit code and the SHA-256 of
  stdout. The commands are `minimize --json`, `compile --json`,
  `compile --strategy naive --json`, and `width --json` and `flatten --json`
  on the minimized sentence.
- `count.json`: the exit code and stdout of `count --engine both --json` on a
  seeded structure of 2-6 elements, for every corpus query and for unary and
  binary unions of 2-9 disjuncts (`UNIONS`).
- `pp.json`: the exit code and stdout of `qaw --json`, `decompose --json`,
  `core --json`, and `equiv --json` in both modes, of each query against the
  next one in the corpus and against its own core.
- `td.json`: the SHA-256 of the decompositions that `qaw --dump-td` and
  `decompose --dump-td` write, kept apart from the widths so that a change of
  witness alone re-records only this file.

A refactor that changes one printed byte fails here. After a change that is
meant to alter the output, record the files again with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
import sys
import tempfile

import pytest

from sharpq.cli import main
from sharpq.epquery import parse_query

GOLDEN = pathlib.Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli.json"
COUNT_RECORD = GOLDEN / "count.json"
PP_RECORD = GOLDEN / "pp.json"
TD_RECORD = GOLDEN / "td.json"
QUERY_COMMANDS = {
    "minimize": ["minimize", "--json"],
    "compile": ["compile", "--json"],
    "compile-naive": ["compile", "--strategy", "naive", "--json"],
}
SENTENCE_COMMANDS = {
    "width": ["width", "--json"],
    "flatten": ["flatten", "--json"],
}


def _run(argv):
    """[exit code, stdout] of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, out.getvalue()]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_outputs(query, work):
    """{command label: [exit code, stdout SHA-256]} for one query file; the
    sentence commands run only when `minimize` succeeds."""
    record = {}
    for label, (cmd, *flags) in QUERY_COMMANDS.items():
        code, stdout = _run([cmd, "-q", str(query), *flags])
        record[label] = [code, _sha256(stdout)]
        if label == "minimize" and code == 0:
            shq = pathlib.Path(work) / f"{query.stem}.shq"
            shq.write_text(json.loads(stdout)["sentence"] + "\n", encoding="utf-8")
    if record["minimize"][0] == 0:
        for label, (cmd, *flags) in SENTENCE_COMMANDS.items():
            code, stdout = _run([cmd, "-s", str(shq), *flags])
            record[label] = [code, _sha256(stdout)]
    return record


QUERIES = sorted(GOLDEN.glob("*.epq"))
UNIONS = {
    f"{kind}-union-{k}": "query u(x): " + " | ".join(parts) + "\n"
    for k in range(2, 10)
    for kind, parts in (
        ("unary", [f"A{i}(x)" for i in range(k)]),
        ("binary", [f"(exists y{i} . E{i % 3}(x,y{i}))" for i in range(k)]),
    )
}


def _structure_text(label, sig):
    """A `.rel` document over sig with 2-6 elements, seeded by the label."""
    rng = random.Random(label)
    universe = [f"b{i}" for i in range(rng.randint(2, 6))]
    lines = ["signature " + " ".join(f"{s}/{a}" for s, a in sig.symbols),
             "universe " + " ".join(universe)]
    for symbol, arity in sig.symbols:
        lines += [f"{symbol}({','.join(t)})"
                  for t in itertools.product(universe, repeat=arity) if rng.random() < 0.4]
    return "\n".join(lines) + "\n"


def count_output(label, text, work):
    """[exit code, stdout] of `count --engine both --json` on the query text
    and its seeded structure."""
    query, data = pathlib.Path(work) / f"{label}.epq", pathlib.Path(work) / f"{label}.rel"
    query.write_text(text, encoding="utf-8")
    data.write_text(_structure_text(label, parse_query(text).sig), encoding="utf-8")
    return _run(["count", "-q", str(query), "-d", str(data), "--engine", "both", "--json"])


def pp_outputs(query, rhs, work):
    """({label: [exit code, stdout]}, {label: SHA-256 of the dump or None})
    of the commands on disjunction-free queries, for one corpus query; `rhs`
    is the next query in the corpus."""
    record, dumps = {}, {}
    for cmd in ("qaw", "decompose"):
        td = pathlib.Path(work) / f"{query.stem}.{cmd}.td"
        record[cmd] = _run([cmd, "-q", str(query), "--json", "--dump-td", str(td)])
        dumps[cmd] = _sha256(td.read_text(encoding="utf-8")) if td.exists() else None
    record["core"] = _run(["core", "-q", str(query), "--json"])
    others = {"next": str(rhs)}
    if record["core"][0] == 0:
        core = pathlib.Path(work) / f"{query.stem}.core.epq"
        core.write_text(json.loads(record["core"][1])["query"] + "\n", encoding="utf-8")
        others["core"] = str(core)
    for other, path in others.items():
        for mode in ("counting", "logical"):
            argv = ["equiv", "-q", str(query), "-r", path, "--mode", mode, "--json"]
            record[f"equiv-{other}-{mode}"] = _run(argv)
    return record, dumps


def _next_query(query):
    return QUERIES[(QUERIES.index(query) + 1) % len(QUERIES)]


def test_corpus_matches_the_record():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert sorted(recorded) == [q.stem for q in QUERIES]
    assert len(QUERIES) >= 40


@pytest.mark.parametrize("query", QUERIES, ids=[q.stem for q in QUERIES])
def test_cli_output_is_byte_identical(query, tmp_path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))[query.stem]
    assert cli_outputs(query, tmp_path) == recorded


@pytest.mark.parametrize("query", QUERIES, ids=[q.stem for q in QUERIES])
def test_count_on_the_corpus_is_byte_identical(query, tmp_path):
    recorded = json.loads(COUNT_RECORD.read_text(encoding="utf-8"))["corpus"][query.stem]
    assert count_output(query.stem, query.read_text(encoding="utf-8"), tmp_path) == recorded


@pytest.mark.parametrize("name", sorted(UNIONS))
def test_count_on_unions_is_byte_identical(name, tmp_path):
    recorded = json.loads(COUNT_RECORD.read_text(encoding="utf-8"))["unions"][name]
    assert count_output(name, UNIONS[name], tmp_path) == recorded


@pytest.mark.parametrize("query", QUERIES, ids=[q.stem for q in QUERIES])
def test_pp_commands_are_byte_identical(query, tmp_path):
    record, dumps = pp_outputs(query, _next_query(query), tmp_path)
    assert record == json.loads(PP_RECORD.read_text(encoding="utf-8"))[query.stem]
    assert dumps == json.loads(TD_RECORD.read_text(encoding="utf-8"))[query.stem]


def _write_record(path, table):
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        _write_record(RECORD, {q.stem: cli_outputs(q, work) for q in QUERIES})
        _write_record(COUNT_RECORD, {
            "corpus": {q.stem: count_output(q.stem, q.read_text(encoding="utf-8"), work)
                       for q in QUERIES},
            "unions": {name: count_output(name, text, work) for name, text in UNIONS.items()},
        })
        pp = {q.stem: pp_outputs(q, _next_query(q), work) for q in QUERIES}
        _write_record(PP_RECORD, {stem: record for stem, (record, _) in pp.items()})
        _write_record(TD_RECORD, {stem: dumps for stem, (_, dumps) in pp.items()})
    sys.exit(0)
