"""Every name the benchmark's tracer wraps still resolves where it looks.

perfbench/spans.py replaces each traced function at the module attributes
its callers look it up by, and silently skips an attribute that is gone: a
rename or a moved import would drop that layer's spans and counters from
every traced run without an error. This test imports spans.py as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import sharpq.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves_in_each_listed_module():
    spans = _spans()
    missing = []
    for name, modules, _ in spans.TRACED + spans.COUNTED:
        home, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"sharpq.{home}"), attr)
        for module in modules:
            if getattr(module, attr, None) is not original:
                missing.append(f"{module.__name__}.{attr} ({name})")
    assert missing == []


def test_every_counter_hook_runs_on_real_results(tmp_path, capsys):
    # the hooks read `.entries`, `.terms`, `stats["peak_rows"]`,
    # `.all_facts()` and `.struct.universe` off the traced calls' results;
    # one minimize of a union and one count of a star reach every hook, and
    # a hook that no longer fits its result's shape fails here
    spans = _spans()
    reached = set()

    def watched(hook):
        def run(tracer, args, kwargs, result):
            reached.add(hook.__name__)
            hook(tracer, args, kwargs, result)

        return run

    hooks = {hook.__name__ for _, _, hook in spans.TRACED + spans.COUNTED if hook}
    for table in ("TRACED", "COUNTED"):
        setattr(spans, table, tuple(
            (name, modules, hook and watched(hook)) for name, modules, hook in getattr(spans, table)
        ))
    union = tmp_path / "u.epq"
    union.write_text("query u(x): " + " | ".join(f"(exists y . E{i}(x,y))" for i in range(3)))
    star = tmp_path / "s.epq"
    star.write_text("query s(a,b): exists h . E(a,h) & E(b,h)\n")
    data = tmp_path / "d.rel"
    data.write_text("signature E/2\nuniverse p q r\nE(p,r)\nE(q,r)\nE(r,p)\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        assert sharpq.cli.main(["minimize", "-q", str(union), "--json"]) == 0
        assert sharpq.cli.main(["count", "-q", str(star), "-d", str(data), "--json"]) == 0
    finally:
        tracer.request = None
        tracer.uninstall()
    capsys.readouterr()
    assert reached == hooks
    assert {key: n for key, n in tracer.counters.items() if n <= 0} == {}
