"""Byte-identical `.shq` reading on a seeded corpus of mutated texts.

The corpus is the `.shq` texts the tests parse elsewhere plus seeded
mutations of them: each mutant inserts, deletes or replaces one to three
characters drawn from those `.shq` text uses. `golden/shq.json` maps each
text to what `parse_sharp` made of it: the serialized formula, or
`ParseError: ` and the full error text, line and column included. A change
to the reader that moves one error by a column fails here.

After a change that is meant to alter what the reader accepts or reports,
record the file again with `PYTHONPATH=src python tests/test_shq_corpus.py`.
"""

import json
import pathlib
import random
import sys

from sharpq.errors import ParseError
from sharpq.sharpcore import parse_sharp, serialize_sharp

RECORD = pathlib.Path(__file__).parent / "golden" / "shq.json"
SEED = 37
SIZE = 2500
TEXTS = (
    "P{y} C[E(x,y); {x,y}]",
    "(C[E(x,y);{x}] * 3)",
    "(P{y} C[E(x,y);{x,y}] + P{y} C[F(x,y);{x,y}])",
    "-3",
    "(C[true; {}] * -1)",
    "P{} C[true; {}]",
    "P {x} E\t{y} C\n[E(x,x); {x}]",
    "P (C[E(x,x); {x}])",
    "P{x}\n  Q[E(x,x); {x}]",
    "C[E(x,y) {x,y}]",
    "C[E(x); {x}] x",
    "C[E(x); {1}]",
    "C[E(x); {x y}]",
    "(C[U(x); {x}] - C[V(x); {x}])",
    "C[E(x); {x})",
    "P{x} (P{y} C[E(x,y); {x,y}] * P{z} C[F(x,z); {x,z}])",
    "P{x} C[E(x,x); {x}] # c\n# d\n",
    "P{x} C[E(x,x); {x}]#c\n",
    "P{x1,x2} C[U1(x1) & U2(x2); {x1,x2}]\n",
    "(C[U(x); {x}] * C[V(y); {y}])\n",
    "P{x}\n  C[E(x) & \n F(x,; {x}]",
    "P{x}\n  C[E(x) & \n F(x) y ; {x}]",
    "P{x}\n  C[E(x) &\n  ? ; {x}]",
    "P{x}\n  C[E(x) & F(); {x}]",
    "P{x,y,z} C[E(x,y) | F(y,z); {x,y,z}]\n",
    "(C[E(x,y); {x,y}] + (C[E(x,y); {x,y}] * E{x,y} -1))",
    "C[exists y . E(x,y) & E(y,z); {x,z}]",
    "P{u} E{u} C[true; {}]",
    "P{x,y,u} C[E(x,y); {x,y,u,w}]",
    "P{v} 1",
    "(((2 * 2) * 2) + P{x} C[A0(x); {x}])\n",
    "P{a,b,c} C[exists h . E(a,h) & E(b,h) & E(c,h); {a,b,c}]",
    "",
)
# every character the texts above use, and the whitespace and comment marks
ALPHABET = sorted(set("".join(TEXTS)) | set(" \t\n#$_-0123456789"))


def corpus():
    """The texts above, then seeded mutants of them up to SIZE texts."""
    rng = random.Random(SEED)
    texts = dict.fromkeys(TEXTS)
    while len(texts) < SIZE:
        text = rng.choice(TEXTS)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            kind = rng.choice("idr") if at < len(text) else "i"
            new = rng.choice(ALPHABET) if kind != "d" else ""
            text = text[:at] + new + text[at + (kind != "i"):]
        texts[text] = None
    return list(texts)


def outcome(text):
    try:
        return serialize_sharp(parse_sharp(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_the_corpus_is_the_recorded_one():
    assert sorted(corpus()) == sorted(json.loads(RECORD.read_text(encoding="utf-8")))


def test_every_text_reads_as_recorded():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    wrong = {text: [outcome(text), want] for text, want in recorded.items() if outcome(text) != want}
    assert not wrong


if __name__ == "__main__":
    table = {text: outcome(text) for text in corpus()}
    RECORD.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
