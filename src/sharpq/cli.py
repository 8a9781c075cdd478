"""The `sharpq` command line tool.

Subcommands: count, compile, minimize, width, qaw, core, equiv, flatten,
decompose. Every command is deterministic given its inputs and --seed;
identical invocations print byte-identical output. Counts are printed as
decimal strings (arbitrary precision) in both text and JSON mode.

Exit codes: 0 success, 1 other module errors, 2 parse error, 3 cap exceeded,
4 engine disagreement, 5 internal invariant violation. Engine disagreement is
first-class: it is the tool's core falsification signal. `count` evaluates
compilepipe.count_sentence and has no second route: a cap it meets exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .compilepipe import (
    _seeded_structures,
    _sharp_variables,
    _summands,
    as_formula,
    compile_flat,
    count_sentence,
    flatten,
    minimize_ep,
)
from .decomp import compute_qaw, exact_treewidth, serialize_td
from .epquery import (
    oracle_count,
    pair_to_pp,
    parse_query,
    pp_to_pair,
    primal_graph,
    serialize_query,
)
from .equiv import core_of, counting_equivalent, logically_equivalent
from .errors import EngineDisagreement, InternalInvariant, SharpqError
from .relstore import parse_structure
from .sharpcore import (
    check_represents,
    eval_sentence,
    naive_representation,
    parse_sharp,
    serialize_sharp,
    sharp_width,
    width,
)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SharpqError(f"cannot read {path}: {exc.strerror}") from exc


def _load_query(path):
    return parse_query(_read_text(path))


def _load_structure(path):
    return parse_structure(_read_text(path))


def _load_sharp(path):
    return parse_sharp(_read_text(path))


# ---------------------------------------------------------------------------
# Shared pipeline steps
# ---------------------------------------------------------------------------


def _self_check(sentence, q, args):
    """Compiled output must agree with the counting oracle on seeded samples;
    a disagreement means the compiler itself is broken."""
    ok, counterexample = check_represents(
        sentence, q, _seeded_structures(q.sig, seed=args.seed)
    )
    if not ok:
        raise InternalInvariant(
            "compiled sentence disagrees with the oracle on a "
            f"{len(counterexample.universe)}-element seeded sample"
        )


def _report(sentence, *, terms, qaw, core_size):
    return {
        "width": width(sentence),
        "sharp_width": sharp_width(sentence),
        "terms": terms,
        "qaw": qaw,
        "core_size": core_size,
    }


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands: each returns (text lines, json object)
# ---------------------------------------------------------------------------


def cmd_count(args):
    q = _load_query(args.query)
    b = _load_structure(args.data)
    compiled = oracle = None
    if args.engine in ("compiled", "both"):
        sentence = count_sentence(q, max_dnf=args.max_dnf, tw_cap=args.max_vertices)
        compiled = eval_sentence(sentence, b, max_rows=args.max_rows)
    if args.engine in ("oracle", "both"):
        oracle = oracle_count(q, b)
    if args.engine == "both" and compiled != oracle:
        raise EngineDisagreement(
            f"engine disagreement: compiled count {compiled} != oracle count {oracle}"
        )
    count = compiled if compiled is not None else oracle
    lines = [str(count)]
    out = {"count": str(count), "engine": args.engine}
    if args.engine == "both":
        lines.append("engines agree")
        out["engines_agree"] = True
    return lines, out


def cmd_compile(args):
    q = _load_query(args.query)
    if args.strategy == "naive":
        sentence = naive_representation(q)
        report = _report(sentence, terms=1, qaw=None, core_size=None)
    else:
        sentence, w, terms = compile_flat(q, max_dnf=args.max_dnf, tw_cap=args.max_vertices)
        report = _report(sentence, terms=terms, qaw=w, core_size=None)
    _self_check(sentence, q, args)
    text = serialize_sharp(sentence)
    return [text, _dump_json(report)], {"sentence": text, **report}


def cmd_minimize(args):
    q = _load_query(args.query)
    sentence, w = minimize_ep(q, max_dnf=args.max_dnf, tw_cap=args.max_vertices)
    # each term is a constant times a basic part, whose variables are its core's
    # elements; Const(0) has no basic part
    basics = [basic for _, _, basic, _ in _summands(sentence) if basic is not None]
    terms = len(basics)
    core_size = sum(len(_sharp_variables(basic)) for basic in basics)
    _self_check(sentence, q, args)
    report = _report(sentence, terms=terms, qaw=w, core_size=core_size)
    text = serialize_sharp(sentence)
    return [text, _dump_json(report)], {"sentence": text, **report}


def cmd_width(args):
    f = _load_sharp(args.sharp)
    w, sw = width(f), sharp_width(f)
    return [f"width: {w}", f"sharp-width: {sw}"], {"width": w, "sharp_width": sw}


def cmd_qaw(args):
    q = _load_query(args.query)
    qaw, td = compute_qaw(pp_to_pair(q), cap=args.max_vertices)
    if args.dump_td:
        with open(args.dump_td, "w", encoding="utf-8") as fh:
            fh.write(serialize_td(td))
    return [f"qaw: {qaw}"], {"qaw": qaw}


def cmd_core(args):
    q = _load_query(args.query)
    core = core_of(pp_to_pair(q))
    text = serialize_query(pair_to_pp(core)).rstrip("\n")
    size = len(core.struct.universe)
    return [f"core size: {size}", text], {"core_size": size, "query": text}


def cmd_equiv(args):
    p1 = pp_to_pair(_load_query(args.query))
    p2 = pp_to_pair(_load_query(args.rhs))
    if args.mode == "counting":
        ok, witness = counting_equivalent(p1, p2)
        label = "counting-equivalent"
    else:
        ok, witness = logically_equivalent(p1, p2)
        label = "logically-equivalent"
    lines = [f"{label}: {'yes' if ok else 'no'}"]
    out = {"mode": args.mode, "equivalent": ok, "forward": None, "backward": None}
    if ok:
        fwd = dict(sorted(witness.forward.items()))
        bwd = dict(sorted(witness.backward.items()))
        lines.append("forward: " + ", ".join(f"{a}->{b}" for a, b in fwd.items()))
        lines.append("backward: " + ", ".join(f"{a}->{b}" for a, b in bwd.items()))
        out["forward"], out["backward"] = fwd, bwd
    return lines, out


def cmd_flatten(args):
    f = _load_sharp(args.sharp)
    fs = flatten(f, max_dnf=args.max_dnf)
    text = serialize_sharp(as_formula(fs))
    return [text, f"terms: {len(fs.terms)}"], {"formula": text, "terms": len(fs.terms)}


def cmd_decompose(args):
    q = _load_query(args.query)
    tw, td = exact_treewidth(primal_graph(pp_to_pair(q)), cap=args.max_vertices)
    if args.dump_td:
        with open(args.dump_td, "w", encoding="utf-8") as fh:
            fh.write(serialize_td(td))
    return [f"treewidth: {tw}"], {"treewidth": tw}


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "count": (cmd_count, "count a query's answers on a structure"),
    "compile": (cmd_compile, "compile a query to a counting sentence"),
    "minimize": (cmd_minimize, "compile a query to a width-minimal sentence"),
    "width": (cmd_width, "width measures of a counting formula"),
    "qaw": (cmd_qaw, "quantifier-aware width of a disjunction-free query"),
    "core": (cmd_core, "core of a disjunction-free query"),
    "equiv": (cmd_equiv, "equivalence of two disjunction-free queries"),
    "flatten": (cmd_flatten, "flat normal form of a counting formula"),
    "decompose": (cmd_decompose, "exact treewidth of a query's primal graph"),
}

_NEEDS = {
    "count": ("query", "data"),
    "compile": ("query",),
    "minimize": ("query",),
    "width": ("sharp",),
    "qaw": ("query",),
    "core": ("query",),
    "equiv": ("query", "rhs"),
    "flatten": ("sharp",),
    "decompose": ("query",),
}


def _positive(text):
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return n


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building the nine subparsers costs far more than a
    parse."""
    parser = argparse.ArgumentParser(
        prog="sharpq",
        description="Count answers to existential-positive queries; compile "
        "queries to width-minimal counting sentences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        needs = _NEEDS[name]
        if "query" in needs:
            p.add_argument("-q", "--query", required=True, help=".epq query file")
        if "data" in needs:
            p.add_argument("-d", "--data", required=True, help=".rel structure file")
        if "sharp" in needs:
            p.add_argument("-s", "--sharp", required=True, help=".shq formula file")
        if "rhs" in needs:
            p.add_argument("-r", "--rhs", required=True, help="second .epq file")
        if name == "count":
            p.add_argument(
                "--engine", choices=("compiled", "oracle", "both"), default="compiled"
            )
        if name == "compile":
            p.add_argument("--strategy", choices=("naive", "qaw"), default="qaw")
        if name == "equiv":
            p.add_argument("--mode", choices=("counting", "logical"), default="counting")
        if name in ("qaw", "decompose"):
            p.add_argument("--dump-td", metavar="FILE", help="write the decomposition")
        p.add_argument("--json", action="store_true", help="print one JSON object")
        p.add_argument("--seed", type=int, default=0, help="sample-generation seed")
        p.add_argument("--max-dnf", type=_positive, default=4096)
        p.add_argument("--max-rows", type=_positive, default=10**7)
        p.add_argument("--max-vertices", type=_positive, default=24)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command, _ = _COMMANDS[args.command]
    try:
        lines, obj = command(args)
    except SharpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.json:
        print(_dump_json(obj))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
