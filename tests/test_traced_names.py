"""Every name the benchmark's tracer wraps still resolves where it looks.

perfbench/spans.py replaces each traced function at the module attributes
its callers look it up by, and silently skips an attribute that is gone: a
rename or a moved import would drop that layer's spans and counters from
every traced run without an error. This test imports spans.py as it is.
"""

import importlib
import importlib.util
from pathlib import Path

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
