"""In-memory span tracing of sharpq, done entirely from the benchmark's side.

Each traced function is replaced, for the duration of a traced pass, at the
module attribute its caller looks it up by (`sharpq.cli.minimize_ep`,
`sharpq.compilepipe.core_of`, `sharpq.decomp.exact_treewidth`, ...). A call
records a span: name, start, end, parent span and request id. Counters are
taken at the same boundaries from the call's arguments and result. Nothing
under src/ changes.

A span's self time is its duration minus the durations of its child spans.
"""

import json
import math
import time
from collections import defaultdict

import sharpq.cli
import sharpq.compilepipe
import sharpq.decomp
import sharpq.epquery
import sharpq.sharpcore

def _core_of(tr, args, kwargs, result):
    tr.count("equiv.core_of.elems_in", len(args[0].struct.universe))
    tr.count("equiv.core_of.elems_out", len(result.struct.universe))


def _canonical_pair(tr, args, kwargs, result):
    # Counted only when the relabeling ran: a pair over canon_cap raises
    # before trying any ordering, and the hook is not reached.
    n_lib = len(args[0].liberal)
    n_quant = len(args[0].struct.universe) - n_lib
    tr.count("compilepipe.canonical_lc.relabelings",
             math.factorial(n_lib) * math.factorial(n_quant))


def _exact_treewidth(tr, args, kwargs, result):
    tr.peak("decomp.exact_treewidth.vertices_max", len(args[0].vertices))


def _parse_structure(tr, args, kwargs, result):
    tr.count("relstore.parse_structure.facts", sum(1 for _ in result.all_facts()))


def _flatten(tr, args, kwargs, result):
    tr.count("compilepipe.flatten.terms_out", len(result.terms))


def _canonical_lc(tr, args, kwargs, result):
    tr.count("compilepipe.canonical_lc.entries_out", len(result.entries))


def _eval_sentence(tr, args, kwargs, result):
    tr.peak("sharpcore.eval_sentence.peak_rows", kwargs["stats"]["peak_rows"])


# (span name, modules whose attribute of that name callers look up, counter hook)
TRACED = (
    ("cli.main", (sharpq.cli,), None),
    ("epquery.parse_query", (sharpq.cli,), None),
    ("relstore.parse_structure", (sharpq.cli,), _parse_structure),
    ("compilepipe.minimize_ep", (sharpq.cli,), None),
    ("compilepipe.compile_flat", (sharpq.cli,), None),
    ("compilepipe.flatten", (sharpq.cli, sharpq.compilepipe), _flatten),
    ("compilepipe.canonical_lc", (sharpq.compilepipe,), _canonical_lc),
    ("compilepipe.pp_to_basic_sharp", (sharpq.compilepipe,), None),
    ("equiv.core_of", (sharpq.compilepipe, sharpq.cli), _core_of),
    ("decomp.compute_qaw", (sharpq.compilepipe, sharpq.cli), None),
    ("decomp.exact_treewidth", (sharpq.decomp, sharpq.cli), _exact_treewidth),
    ("sharpcore.check_represents", (sharpq.cli,), None),
    ("epquery.oracle_count", (sharpq.epquery,), None),
    ("sharpcore.eval_sentence", (sharpq.cli, sharpq.sharpcore), _eval_sentence),
    ("sharpcore.serialize_sharp", (sharpq.cli,), None),
)

# Wrapped for their counters only, without a span, so that their time stays
# in the caller's self time: canonical_lc tries every ordering of each pair
# it gets back from core_of, plus the liberal elements its |B|-powers add.
COUNTED = (
    ("compilepipe._canonical_pair", (sharpq.compilepipe,), _canonical_pair),
)


class Tracer:
    """Spans and counters of one traced pass. `install` wraps the functions,
    `uninstall` puts the originals back."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, request id]
        self.stack = []
        self.request = None
        self.counters = defaultdict(int)
        self._saved = []

    def count(self, key, n=1):
        self.counters[key] += n

    def peak(self, key, n):
        self.counters[key] = max(self.counters[key], n)

    def install(self):
        for table, wrap in ((TRACED, self._wrap), (COUNTED, self._wrap_counter)):
            for name, modules, hook in table:
                attr = name.rsplit(".", 1)[1]
                for module in modules:
                    original = getattr(module, attr, None)
                    if original is None:  # the caller no longer looks it up there
                        continue
                    setattr(module, attr, wrap(name, original, hook))
                    self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        calls_key = f"{name}.calls"
        wants_stats = name == "sharpcore.eval_sentence"

        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            if wants_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            index = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.request]
            self.spans.append(span)
            self.stack.append(index)
            self.counters[calls_key] += 1
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counter(self, name, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.request is not None:
                hook(self, args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def self_seconds(self):
        """{span name: summed self time in seconds}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            out[name] += (end - start - children) / 1e9
        return out

    def write(self, path, requests):
        """Spans as JSON lines, after one line per request."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in requests:
                fh.write(json.dumps({"request": rec}) + "\n")
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"span": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": req}) + "\n")
