"""The `sharpq` command line tool.

Subcommands: count, compile, minimize, width, qaw, core, equiv, flatten,
decompose. Every command is deterministic given its inputs and --seed;
identical invocations print byte-identical output. Counts are printed as
decimal strings (arbitrary precision) in both text and JSON mode.

Exit codes: 0 success, 1 other module errors, 2 parse error, 3 cap exceeded,
4 engine disagreement, 5 internal invariant violation. Engine disagreement is
first-class: it is the tool's core falsification signal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .compilepipe import (
    _lift_sums,
    _seeded_structures,
    as_formula,
    basic_sharp_to_pp,
    compile_flat,
    flatten,
    minimize_ep,
    table_union_sentence,
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
from .errors import CapExceeded, EngineDisagreement, InternalInvariant, SharpqError
from .relstore import parse_structure
from .sharpcore import (
    Const,
    Times,
    check_represents,
    eval_sentence,
    naive_representation,
    parse_sharp,
    serialize_sharp,
    sharp_width,
    width,
)


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation knobs shared by all subcommands."""

    engine: str = "compiled"
    strategy: str = "qaw"
    mode: str = "counting"
    json_out: bool = False
    seed: int = 0
    max_dnf: int = 4096
    max_rows: int = 10**7
    max_vertices: int = 24
    core_cap: int = 12


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


def _compiled_sentence(q, cfg):
    """The sentence `count` evaluates. A query with a disjunction whose naive
    cast is no wider than its widest disjunct core counts through that cast,
    one table union instead of 2^k - 1 inclusion-exclusion terms. Otherwise
    the width-minimal representation when feasible; when a cap trips inside
    the core/canonicalization stage, fall back to the per-term decomposition
    route, which never searches for endomorphisms. Caps that both routes
    share (DNF, inclusion-exclusion terms, treewidth) re-raise from the
    fallback."""
    union = table_union_sentence(
        q, max_dnf=cfg.max_dnf, core_cap=cfg.core_cap, tw_cap=cfg.max_vertices
    )
    if union is not None:
        return union
    try:
        sentence, _ = minimize_ep(
            q, max_dnf=cfg.max_dnf, core_cap=cfg.core_cap, tw_cap=cfg.max_vertices
        )
        return sentence
    except CapExceeded:
        fs = flatten(naive_representation(q), max_dnf=cfg.max_dnf)
        sentence, _ = compile_flat(fs, tw_cap=cfg.max_vertices)
        return sentence


def _self_check(sentence, q, cfg):
    """Compiled output must agree with the counting oracle on seeded samples;
    a disagreement means the compiler itself is broken."""
    ok, counterexample = check_represents(
        sentence, q, _seeded_structures(q.sig, seed=cfg.seed)
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


def cmd_count(args, cfg):
    q = _load_query(args.query)
    b = _load_structure(args.data)
    compiled = oracle = None
    if cfg.engine in ("compiled", "both"):
        sentence = _compiled_sentence(q, cfg)
        compiled = eval_sentence(sentence, b, max_rows=cfg.max_rows)
    if cfg.engine in ("oracle", "both"):
        oracle = oracle_count(q, b)
    if cfg.engine == "both" and compiled != oracle:
        raise EngineDisagreement(
            f"engine disagreement: compiled count {compiled} != oracle count {oracle}"
        )
    count = compiled if compiled is not None else oracle
    lines = [str(count)]
    out = {"count": str(count), "engine": cfg.engine}
    if cfg.engine == "both":
        lines.append("engines agree")
        out["engines_agree"] = True
    return lines, out


def cmd_compile(args, cfg):
    q = _load_query(args.query)
    if cfg.strategy == "naive":
        sentence = naive_representation(q)
        report = _report(sentence, terms=1, qaw=None, core_size=None)
    else:
        fs = flatten(naive_representation(q), max_dnf=cfg.max_dnf)
        sentence, w = compile_flat(fs, tw_cap=cfg.max_vertices)
        report = _report(sentence, terms=len(fs.terms), qaw=w, core_size=None)
    _self_check(sentence, q, cfg)
    text = serialize_sharp(sentence)
    return [text, _dump_json(report)], {"sentence": text, **report}


def cmd_minimize(args, cfg):
    q = _load_query(args.query)
    sentence, w = minimize_ep(
        q,
        max_dnf=cfg.max_dnf,
        core_cap=cfg.core_cap,
        tw_cap=cfg.max_vertices,
    )
    if sentence == Const(0):
        terms, core_size = 0, 0
    else:
        leaves = _lift_sums(sentence)  # its sums are all at the top
        terms = len(leaves)
        core_size = sum(
            len(basic_sharp_to_pp(leaf.right).struct.universe)
            for leaf in leaves
            if isinstance(leaf, Times)
        )
    _self_check(sentence, q, cfg)
    report = _report(sentence, terms=terms, qaw=w, core_size=core_size)
    text = serialize_sharp(sentence)
    return [text, _dump_json(report)], {"sentence": text, **report}


def cmd_width(args, cfg):
    f = _load_sharp(args.sharp)
    w, sw = width(f), sharp_width(f)
    return [f"width: {w}", f"sharp-width: {sw}"], {"width": w, "sharp_width": sw}


def cmd_qaw(args, cfg):
    q = _load_query(args.query)
    qaw, td = compute_qaw(pp_to_pair(q), cap=cfg.max_vertices)
    if args.dump_td:
        with open(args.dump_td, "w", encoding="utf-8") as fh:
            fh.write(serialize_td(td))
    return [f"qaw: {qaw}"], {"qaw": qaw}


def cmd_core(args, cfg):
    q = _load_query(args.query)
    core = core_of(pp_to_pair(q), cap=cfg.core_cap)
    text = serialize_query(pair_to_pp(core)).rstrip("\n")
    size = len(core.struct.universe)
    return [f"core size: {size}", text], {"core_size": size, "query": text}


def cmd_equiv(args, cfg):
    p1 = pp_to_pair(_load_query(args.query))
    p2 = pp_to_pair(_load_query(args.rhs))
    if cfg.mode == "counting":
        ok, witness = counting_equivalent(p1, p2)
        label = "counting-equivalent"
    else:
        ok, witness = logically_equivalent(p1, p2)
        label = "logically-equivalent"
    lines = [f"{label}: {'yes' if ok else 'no'}"]
    out = {"mode": cfg.mode, "equivalent": ok, "forward": None, "backward": None}
    if ok:
        fwd = dict(sorted(witness.forward.items()))
        bwd = dict(sorted(witness.backward.items()))
        lines.append("forward: " + ", ".join(f"{a}->{b}" for a, b in fwd.items()))
        lines.append("backward: " + ", ".join(f"{a}->{b}" for a, b in bwd.items()))
        out["forward"], out["backward"] = fwd, bwd
    return lines, out


def cmd_flatten(args, cfg):
    f = _load_sharp(args.sharp)
    fs = flatten(f, max_dnf=cfg.max_dnf)
    text = serialize_sharp(as_formula(fs))
    return [text, f"terms: {len(fs.terms)}"], {"formula": text, "terms": len(fs.terms)}


def cmd_decompose(args, cfg):
    q = _load_query(args.query)
    tw, td = exact_treewidth(primal_graph(pp_to_pair(q)), cap=cfg.max_vertices)
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


def build_parser():
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


def _config_from(args):
    return RunConfig(
        engine=getattr(args, "engine", "compiled"),
        strategy=getattr(args, "strategy", "qaw"),
        mode=getattr(args, "mode", "counting"),
        json_out=args.json,
        seed=args.seed,
        max_dnf=args.max_dnf,
        max_rows=args.max_rows,
        max_vertices=args.max_vertices,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = _config_from(args)
    command, _ = _COMMANDS[args.command]
    try:
        lines, obj = command(args, cfg)
    except SharpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if cfg.json_out:
        print(_dump_json(obj))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
