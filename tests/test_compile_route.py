"""`compile` builds its inclusion-exclusion terms as pairs.

`compile` (compilepipe.compile_flat) takes the folded pairs of every DNF
disjunct of the query, none dropped, glues them into the inclusion-exclusion
terms (`_ie_terms`) and compiles each term, neither cored nor merged, along a
width-minimal quantifier-aware decomposition of its pair. The reference is
the formula route it took before, rebuilt here from `flatten`, the tests'
read-back (tests/helpers.reference_read_back) and `pp_to_basic_sharp`:
flatten the naive representation P L C[d1 | ... | dk; L], read each term's
basic part back as a pair and compile that pair as written, unfolded. The
pair route has as many terms, is never wider (as wide when folding removes
no element of any term), counts the same, and refuses with the same message.
"""

import json
import random
from pathlib import Path

import pytest

import sharpq.cli
from sharpq import compilepipe
from sharpq.compilepipe import _fold_quantified, compile_flat, flatten, pp_to_basic_sharp
from sharpq.epquery import oracle_count, parse_query, serialize_query, to_dnf_pp
from sharpq.errors import CapExceeded
from sharpq.sharpcore import eval_sentence, naive_representation, width

from tests.conftest import random_ep_query, random_structure
from tests.helpers import read_constant, reference_read_back
from tests.test_one_liberal_route import _refuse

GOLDEN = Path(__file__).resolve().parent / "golden"
CONTAINED = "query c(x): (exists y . E(x,y)) | (exists y . E(x,y) & F(y))\n"


def _corpus():
    """The golden `.epq` corpus and 300 seeded random queries, most with `|`."""
    texts = [path.read_text() for path in sorted(GOLDEN.glob("*.epq"))]
    rng = random.Random(3601)
    for _ in range(300):
        q = random_ep_query(rng, max_vars=rng.randint(3, 6), max_atoms=rng.randint(2, 6),
                            max_disjunctions=rng.randint(0, 3))
        texts.append(serialize_query(q))
    return texts


def _formula_route(q):
    """(value on a structure, width, term count, whether folding removes an
    element of some term) of the route `compile` took before: each flattened
    term's basic part read back as a pair and compiled as written, times its
    constant part n * |B|^pow."""
    terms = []
    for const, basic in flatten(naive_representation(q)).terms:
        pair = reference_read_back(basic)
        sentence, qaw = pp_to_basic_sharp(pair)
        terms.append((read_constant(const), pair, sentence, qaw))

    def value(b):
        size = len(b.universe)
        return sum(n * size**pow_ * eval_sentence(s, b) for (n, pow_), _, s, _ in terms)

    folds = any(len(_fold_quantified(p).struct.universe) < len(p.struct.universe)
                for _, p, _, _ in terms)
    return value, max(qaw for *_, qaw in terms), len(terms), folds


def _run(capsys, *argv):
    code = sharpq.cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_runs_neither_flatten_nor_a_naive_cast(tmp_path, capsys, monkeypatch):
    # the formula route is flatten over the naive cast, then a read-back of
    # each term; compile builds the DNF once and reads nothing back
    _refuse(monkeypatch, ("flatten", "as_formula", "naive_representation"))
    assert not hasattr(compilepipe, "basic_sharp_to_pp")
    dnfs = []

    def counted(*args, **kwargs):
        dnfs.append(args[0].name)
        return to_dnf_pp(*args, **kwargs)

    monkeypatch.setattr(compilepipe, "to_dnf_pp", counted)
    query = tmp_path / "q.epq"
    for text in _corpus()[:100]:
        query.write_text(text)
        dnfs.clear()
        code, out, err = _run(capsys, "compile", "-q", str(query), "--json")
        assert (code, err) == (0, ""), text
        assert dnfs == [parse_query(text).name], text
        assert json.loads(out)["terms"] >= 1


def test_compile_keeps_every_disjunct_that_minimize_drops(tmp_path, capsys, rng):
    # the second disjunct lies inside the first: minimize drops it and keeps
    # one term, compile keeps both disjuncts and their glued term
    query = tmp_path / "c.epq"
    query.write_text(CONTAINED)
    reports = {}
    for command in ("compile", "minimize"):
        code, out, err = _run(capsys, command, "-q", str(query), "--json")
        assert (code, err) == (0, "")
        reports[command] = json.loads(out)
    assert (reports["compile"]["terms"], reports["minimize"]["terms"]) == (3, 1)
    # the glued term folds the first disjunct's y onto the second's
    assert reports["compile"]["sentence"] == (
        "(((1 * P{v$1} C[(exists v$3 . E(v$1,v$3)); {v$1}]) + "
        "(1 * P{v$4} C[(exists v$5 . E(v$4,v$5) & F(v$5)); {v$4}])) + "
        "(-1 * P{v$7} C[(exists v$6 . E(v$7,v$6) & F(v$6)); {v$7}]))"
    )
    q = parse_query(CONTAINED)
    sentences = [compile_flat(q)[0], compilepipe.minimize_ep(q)[0]]
    for _ in range(6):
        b = random_structure(rng, q.sig, max_size=4)
        assert [eval_sentence(s, b) for s in sentences] == [oracle_count(q, b)] * 2


def test_compile_is_never_wider_than_the_formula_route_and_counts_the_same():
    rng = random.Random(3602)
    seen = dict.fromkeys(("folded", "narrower", "unfolded", "several terms"), 0)
    for text in _corpus():
        q = parse_query(text)
        value, old_width, old_terms, folds = _formula_route(q)
        sentence, w, terms = compile_flat(q)
        assert terms == old_terms, text
        assert width(sentence) <= w <= old_width, text
        assert w == old_width or folds, text
        seen["folded"] += folds
        seen["narrower"] += w < old_width
        seen["unfolded"] += not folds
        seen["several terms"] += terms > 1
        for _ in range(2):
            b = random_structure(rng, q.sig, max_size=3)
            assert eval_sentence(sentence, b) == value(b), text
    # folding narrows grid-2x3 (4 to 3) and a few random queries
    narrower = seen.pop("narrower")
    assert narrower >= 4 and min(seen.values()) >= 20, (narrower, seen)


@pytest.mark.parametrize("text, max_dnf", [
    ("query u(x): " + " | ".join(f"A{i}(x)" for i in range(13)) + "\n", 4096),
    ("query u(x): " + " | ".join(f"A{i}(x)" for i in range(7)) + "\n", 100),
    ("query d(x): (U(x) | V(x)) & (U(x) | W(x)) & (V(x) | W(x))\n", 3),
], ids=["13-disjuncts", "7-disjuncts-over-100", "dnf-over-3"])
def test_compile_refuses_a_cap_with_the_formula_routes_message(tmp_path, capsys, text, max_dnf):
    with pytest.raises(CapExceeded) as refused:
        flatten(naive_representation(parse_query(text)), max_dnf=max_dnf)
    query = tmp_path / "q.epq"
    query.write_text(text)
    assert _run(capsys, "compile", "-q", str(query), "--max-dnf", str(max_dnf)) == (
        3, "", f"error: {refused.value}\n"
    )
