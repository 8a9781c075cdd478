"""sharpq benchmark: drives `sharpq.cli.main` in-process on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports sharpq from ./src). One
process, no threads, one client in a closed loop: each request is sent when
the previous answer is back, as a CLI caller would. Before every request the
heap is collected (gc stays enabled), so each request starts from the empty
heap a fresh `sharpq` process has.

A run executes a fixed number of rounds of the workload's request mix, sized
from --seconds; inputs of each round are generated from --seed and written
before the round starts. Every answer is checked against a reference that
does not come from the compiler (reference.py); a wrong answer makes the run
report `"correct": false` and exit 1. Requests that exit non-zero or raise
count as failed, not wrong.

--trace 0 prints the end-to-end metrics, with every timing scaled to a
reference machine speed (see CALIBRATION_REF_MS). --trace 1 pairs each
request with an untraced twin of the same shape generated from its own inputs,
sends the two back to back, and prints the per-layer metrics of the traced
requests plus the tracing overhead; the spans go to
.perfbench_work/trace-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Nominal seconds of one round at seed state on a 2-core x86 machine (Python
# 3.11). A run executes round(--seconds / this) rounds, at least one: 4, 3
# and 7 at --seconds 30. The work is fixed rather than timed so that parent
# and child of a change answer the same requests, and the counts place the
# median and the tail percentile inside clusters of requests of equal cost.
ROUND_SECONDS = {"minimize-mix": 7.5, "count-large": 10.0, "union-count": 4.3}

# Shapes whose `qaw` the count workloads probe after their timed requests, so
# that width_mean exists on every workload: (query text maker, known qaw).
WIDTH_PROBES = {
    "minimize-mix": (),
    "count-large": (
        *((lambda v, k=k: workloads.path_query(f"path{k}", v, k), 2) for k in (3, 5, 23)),
        *((lambda v, m=m: workloads.star_query(f"star{m}", v, m), m + 1) for m in (2, 3)),
    ),
    "union-count": (
        (lambda v: f"query a({v}x): A0({v}x)\n", 1),
        (lambda v: f"query e({v}x): exists {v}y . E0({v}x,{v}y)\n", 2),
    ),
}

# setup_s is the median import time of sharpq.cli over IMPORT_SAMPLES fresh
# interpreters plus the median time to generate and write one round's inputs
# over at least GEN_SAMPLES rounds (extra rounds come from their own seeded
# generator and are not sent). Each sample is scaled to the reference speed.
IMPORT_SAMPLES = 15
GEN_SAMPLES = 7

LAYERS = ("cli", "epquery", "relstore", "compilepipe", "equiv", "decomp", "sharpcore")

# A host shared with other tenants can switch between speed phases; on the
# 2-core x86 machine the reference numbers come from they are some 1.6x apart
# and last from seconds to minutes. Every timing
# is therefore scaled to a reference speed measured in the same process right
# before and after it: a fixed dict/set/tuple join, the kind of work sharpq
# does, takes CALIBRATION_REF_MS at the reference speed (the fast phase of
# that machine, Python 3.11). A slower sharpq still reads slower; a slower
# machine mostly does not.
CALIBRATION_REF_MS = 5.5


def calibration_ms():
    """Median of three timings of the calibration join, in ms."""
    samples = []
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        r = random.Random(7)
        pairs = [(r.randrange(600), r.randrange(600)) for _ in range(3000)]
        index = {}
        for x, y in pairs:
            index.setdefault(x, []).append(y)
        {(x, z) for x, y in pairs for z in index.get(y, ())}
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def reference_scale(before_ms, after_ms):
    """Factor that scales a timing to the reference speed, from calibrations
    right before and after it."""
    return 2 * CALIBRATION_REF_MS / (before_ms + after_ms)


def import_seconds():
    """Time to import sharpq.cli in a fresh interpreter, scaled to the
    reference speed by calibrations in that interpreter: the host's speed
    phases change within a second, so the parent's calibration tracks the
    child's speed poorly."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
            "run.calibration_ms(); before = run.calibration_ms(); "
            "t = time.perf_counter(); import sharpq.cli; seconds = time.perf_counter() - t; "
            "print(seconds * run.reference_scale(before, run.calibration_ms()))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def write_round(rng, workload, round_no, workdir):
    """Generate and write one round's inputs. Returns (requests, seconds)."""
    start = time.perf_counter()
    requests = workloads.WORKLOADS[workload](rng, round_no)
    for req in requests:
        for name, text in req["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
    return requests, time.perf_counter() - start


def bind(reference, requests, workdir):
    """Point each request's argv at its written files and compute the
    reference answers of the count requests."""
    for req in requests:
        req["argv"] = [str(workdir / a) if a in req["files"] else a for a in req["argv"]]
        del req["files"]
        if req["check"]["kind"] not in ("minimize", "qaw"):
            req["check"] = {"kind": req["check"]["kind"],
                            "expected": reference.expected_count(req["check"])}
    return requests


def set_up(reference, args, workdir, rounds):
    """The run's requests, and setup_s (None with --trace 1)."""
    rng = random.Random(args.seed)
    if args.trace:  # round r is traced, round rounds + r is its untraced twin
        return [req for r in range(2 * rounds)
                for req in bind(reference, write_round(rng, args.workload, r, workdir)[0],
                                workdir)], None
    import_s = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    gen_s, requests = [], []
    before = calibration_ms()
    spare = random.Random(f"setup-{args.seed}")
    for r in range(max(rounds, GEN_SAMPLES)):
        reqs, seconds = write_round(rng if r < rounds else spare, args.workload, r, workdir)
        after = calibration_ms()
        gen_s.append(seconds * reference_scale(before, after))
        before = after
        if r < rounds:
            requests += bind(reference, reqs, workdir)
    return requests, statistics.median(import_s) + statistics.median(gen_s)


def send(cli, argv):
    """One request. Returns (seconds, error or None, stdout)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = None if code == 0 else f"exit {code}"
    except Exception as exc:  # anything escaping cli.main is a failed request
        error = type(exc).__name__
    return time.perf_counter() - start, error, out.getvalue()


def run_one(cli, reference, req):
    """Send one request and check its answer; returns its record."""
    seconds, error, stdout = send(cli, req["argv"])
    wrong = None if error else reference.check_answer(req["check"], stdout)
    return {"label": req["label"], "seconds": seconds, "error": error, "wrong": wrong,
            "qaw": None if error else json.loads(stdout).get("qaw")}


def run_calibrated(cli, reference, requests):
    """Send every request once, calibrating between neighbours; each record's
    `scale` is the reference speed over the mean speed on either side."""
    records = []
    before = calibration_ms()
    for req in requests:
        rec = run_one(cli, reference, req)
        after = calibration_ms()
        rec["scale"] = reference_scale(before, after)
        records.append(rec)
        before = after
    return records


def run_traced(cli, reference, requests, twins, tracer):
    """Each request back to back with its untraced twin, which has the same
    shape but its own query and structure text, alternating which of the two
    goes first so that neither gains from going second. Returns (traced
    records, untraced records)."""
    traced, untraced = [], []
    for i, (req, twin) in enumerate(zip(requests, twins)):
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if not with_trace:
                untraced.append(run_one(cli, reference, twin))
                continue
            tracer.install()
            tracer.request = i
            try:
                traced.append(run_one(cli, reference, req))
            finally:
                tracer.request = None
                tracer.uninstall()
    return traced, untraced


def width_probe(cli, workload, workdir):
    """Reported qaw of the workload's fixed shapes: the minimize/qaw requests
    of minimize-mix on paths and grids, a probe on the count workloads."""
    widths, wrong = [], []
    for i, (make, known) in enumerate(WIDTH_PROBES[workload]):
        path = workdir / f"probe{i}.epq"
        path.write_text(make(f"probe{i}_"), encoding="utf-8")
        _, error, stdout = send(cli, ["qaw", "-q", str(path), "--json"])
        got = None if error else json.loads(stdout)["qaw"]
        if got != known:
            wrong.append(f"qaw probe {path.name}: got {error or got}, known {known}")
        widths.append(got)
    return widths, wrong


def tail(latencies):
    """(value, percentile, n): the highest percentile with at least ten
    samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def src_lines():
    return sum(1 for p in sorted((SRC / "sharpq").glob("*.py"))
               for line in p.read_text(encoding="utf-8").splitlines() if line.strip())


def end_to_end(records, setup_s, widths):
    latencies_ms = [r["seconds"] * r["scale"] * 1000 for r in records]
    ok = sum(1 for r in records if r["error"] is None)
    tail_ms, pct, n = tail(latencies_ms)
    print(f"# request_tail_ms is p{pct:.1f} of {n} requests")
    print(f"# timings scaled to the reference speed; scale median "
          f"{statistics.median(r['scale'] for r in records):.3f}, "
          f"unscaled p50 {statistics.median(r['seconds'] for r in records) * 1000:.1f} ms")
    return {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (statistics.median(latencies_ms), "ms"),
        "request_tail_ms": (tail_ms, "ms"),
        "requests_per_s": (ok / sum(latencies_ms) * 1000, "1/s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "width_mean": (statistics.fmean(widths), "width"),
    }


def per_layer(tracer, traced, untraced, requests):
    self_s = tracer.self_seconds()
    counters = tracer.counters
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in ("compilepipe.canonical_lc", "equiv.core_of", "decomp.exact_treewidth",
                 "decomp.compute_qaw", "epquery.oracle_count", "sharpcore.check_represents",
                 "compilepipe.flatten", "compilepipe.pp_to_basic_sharp",
                 "sharpcore.eval_sentence", "relstore.parse_structure",
                 "epquery.parse_query", "cli.main"):
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    for name in ("equiv.core_of.calls", "decomp.exact_treewidth.calls",
                 "decomp.compute_qaw.calls", "epquery.oracle_count.calls",
                 "compilepipe.pp_to_basic_sharp.calls", "sharpcore.eval_sentence.calls",
                 "compilepipe.canonical_lc.relabelings", "compilepipe.canonical_lc.entries_out",
                 "equiv.core_of.elems_in", "equiv.core_of.elems_out",
                 "compilepipe.flatten.terms_out", "relstore.parse_structure.facts",
                 "decomp.exact_treewidth.vertices_max"):
        put(name, counters.get(name, 0), "count")
    put("sharpcore.eval_sentence.peak_rows", counters.get("sharpcore.eval_sentence.peak_rows", 0),
        "rows")
    total = sum(self_s.values())
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        put(f"layer.{layer}.self_share", share / total, "ratio")

    fell_back = {span[4] for span in tracer.spans if span[0] == "compilepipe.compile_flat"}
    per_request = [0] * len(requests)
    for span in tracer.spans:
        if span[0] == "compilepipe.pp_to_basic_sharp":
            per_request[span[4]] += 1
    put("compilepipe.pp_to_basic_sharp.calls_request_max", max(per_request), "count")
    put("cli.fallbacks", sum(1 for i in fell_back if requests[i]["argv"][0] == "count"), "count")
    put("cli.exit3", sum(1 for r in traced if r["error"] == "exit 3"), "count")
    put("cli.uncaught", sum(1 for r in traced if r["error"] and not r["error"].startswith("exit")),
        "count")
    put("failed_ratio", sum(1 for r in traced if r["error"]) / len(traced), "ratio")
    put("trace.overhead_ratio",
        sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in untraced), "ratio")
    put("src.lines", src_lines(), "lines")
    return metrics


def summarize(records):
    """Per-label latency and failure lines, for a reader of the log."""
    by_label = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r)
    for label, rs in by_label.items():
        ms = statistics.median(r["seconds"] * 1000 for r in rs)
        errors = sorted({r["error"] for r in rs if r["error"]})
        note = f"  failed: {', '.join(errors)}" if errors else ""
        print(f"# {label:28s} n={len(rs):3d} median {ms:10.1f} ms{note}")


def measure(args, workdir):
    cli = importlib.import_module("sharpq.cli")
    import reference
    import spans

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    if args.trace:  # every request runs twice, traced and as an untraced twin
        rounds = max(1, rounds // 2)
    requests, setup_s = set_up(reference, args, workdir, rounds)

    if args.trace:
        tracer = spans.Tracer()
        half = len(requests) // 2
        requests, twins = requests[:half], requests[half:]
        measured, untraced = run_traced(cli, reference, requests, twins, tracer)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl",
                     [{"id": i, **r} for i, r in enumerate(measured)])
        metrics = per_layer(tracer, measured, untraced, requests)
        wrong = [f"{r['label']}: {r['wrong']}" for r in untraced if r["wrong"]]
    else:
        measured = run_calibrated(cli, reference, requests)
        widths, wrong = width_probe(cli, args.workload, workdir)
        if args.workload == "minimize-mix":
            widths = [r["qaw"] for r in measured
                      if r["error"] is None and "random" not in r["label"]]
        metrics = end_to_end(measured, setup_s, widths)

    summarize(measured)
    wrong += [f"{r['label']}: {r['wrong']}" for r in measured if r["wrong"]]
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": len(measured),
        "failed": sum(1 for r in measured if r["error"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sharpq" / "cli.py").is_file():
        print(f"error: no sharpq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
