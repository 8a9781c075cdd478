"""Byte-identical CLI output on a committed query corpus.

`tests/golden/*.epq` holds the queries: paths 1-8, stars 1-4, unary and
binary unions of 2-4 disjuncts, the 2x3 grid and random ep queries.
`tests/golden/cli.json` holds, for each query and command, the exit code and
the SHA-256 of stdout. The commands are `minimize --json`, `compile --json`,
`compile --strategy naive --json`, and `width --json` and `flatten --json` on
the minimized sentence. A refactor that changes one printed byte fails here.

After a change that is meant to alter the output, record the file again with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from sharpq.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli.json"
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()], out.getvalue()


def cli_outputs(query, work):
    """{command label: [exit code, stdout SHA-256]} for one query file; the
    sentence commands run only when `minimize` succeeds."""
    record = {}
    for label, (cmd, *flags) in QUERY_COMMANDS.items():
        record[label], stdout = _run([cmd, "-q", str(query), *flags])
        if label == "minimize" and record[label][0] == 0:
            shq = pathlib.Path(work) / f"{query.stem}.shq"
            shq.write_text(json.loads(stdout)["sentence"] + "\n", encoding="utf-8")
    if record["minimize"][0] == 0:
        for label, (cmd, *flags) in SENTENCE_COMMANDS.items():
            record[label], _ = _run([cmd, "-s", str(shq), *flags])
    return record


QUERIES = sorted(GOLDEN.glob("*.epq"))


def test_corpus_matches_the_record():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert sorted(recorded) == [q.stem for q in QUERIES]
    assert len(QUERIES) >= 40


@pytest.mark.parametrize("query", QUERIES, ids=[q.stem for q in QUERIES])
def test_cli_output_is_byte_identical(query, tmp_path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))[query.stem]
    assert cli_outputs(query, tmp_path) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = {q.stem: cli_outputs(q, work) for q in QUERIES}
    RECORD.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
