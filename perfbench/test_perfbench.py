"""Tests of the benchmark itself: seeded inputs, the direct reference counts
and the trace bookkeeping.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import random

import pytest

import reference
import run
import spans
import workloads
from sharpq.epquery import oracle_count, parse_query
from sharpq.relstore import parse_structure


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    def texts(seed):
        rng = random.Random(seed)
        return [req["files"] for r in range(2) for req in workloads.WORKLOADS[workload](rng, r)]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_two_requests_share_query_or_structure_text(workload):
    rng = random.Random(3)
    files = [text for r in range(2) for req in workloads.WORKLOADS[workload](rng, r)
             for text in req["files"].values()]
    assert len(set(files)) == len(files)


def _tiny_graph(rng):
    universe = [f"b{i}" for i in range(rng.randint(1, 4))]
    n = len(universe)
    edges = sorted({(rng.choice(universe), rng.choice(universe))
                    for _ in range(rng.randint(0, n * n))})
    return universe, edges, parse_structure(workloads.graph_text(universe, edges))


def test_walk_count_agrees_with_oracle():
    rng = random.Random(1)
    for _ in range(40):
        universe, edges, b = _tiny_graph(rng)
        k = rng.randint(1, 4)
        q = parse_query(workloads.path_query("p", "v", k))
        assert reference.walk_count(universe, edges, k) == oracle_count(q, b)


def test_star_count_agrees_with_oracle():
    rng = random.Random(2)
    for _ in range(40):
        _, edges, b = _tiny_graph(rng)
        m = rng.randint(1, 3)
        q = parse_query(workloads.star_query("s", "v", m))
        assert reference.star_count(edges, m) == oracle_count(q, b)


def test_unary_union_count_agrees_with_oracle():
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, 4)
        universe, rels = workloads.random_unary(rng, "b", rng.randint(1, 5), k, 0.3)
        b = parse_structure(workloads.relations_text(universe, rels, 1))
        q = parse_query(workloads.unary_union_query("u", "v", k))
        assert reference.unary_union_count(rels) == oracle_count(q, b)


def test_binary_union_count_agrees_with_oracle():
    rng = random.Random(4)
    for _ in range(20):
        k, colours = rng.randint(1, 4), rng.randint(1, 3)
        universe, rels = workloads.random_coloured_graph(rng, "b", rng.randint(2, 4), colours, 2)
        b = parse_structure(workloads.relations_text(universe, rels, 2))
        q = parse_query(workloads.binary_union_query("e", "v", k, colours))
        used = {f"E{i % colours}" for i in range(k)}
        assert reference.binary_union_count({s: rels[s] for s in used}) == oracle_count(q, b)


def _path_sentence(k):
    vs = [f"a{i}" for i in range(k + 1)]
    body = " & ".join(f"E({vs[i]},{vs[i + 1]})" for i in range(k))
    prefix = "".join(f"exists {v} . " for v in vs[1:])
    return f'{{"qaw": 2, "sentence": "P{{a0}} C[({prefix}{body}); {{a0}}]"}}'


@pytest.mark.parametrize("seed", range(5))
def test_minimize_check_rejects_a_path_one_edge_short(seed):
    for k in (2, 5, 9):
        check = {"kind": "minimize", "query": workloads.path_query("p", "v", k), "path": k,
                 "qaw": 2, "sample_seed": seed}
        assert reference.check_answer(check, _path_sentence(k)) is None
        assert reference.check_answer(check, _path_sentence(k - 1)) is not None


def test_tail_has_ten_samples_above_it():
    value, pct, n = run.tail(list(range(40)))
    assert (value, n) == (29, 40)
    assert sum(1 for x in range(40) if x > value) == 10
    assert pct == 75.0


def test_tracer_restores_originals_and_splits_self_time():
    import sharpq.cli

    before = sharpq.cli.main
    tracer = spans.Tracer()
    tracer.install()
    assert sharpq.cli.main is not before
    tracer.uninstall()
    assert sharpq.cli.main is before
    tracer.spans = [["a", 0, 10_000_000_000, -1, 0], ["b", 2_000_000_000, 5_000_000_000, 0, 0]]
    assert dict(tracer.self_seconds()) == {"a": 7.0, "b": 3.0}


@pytest.mark.parametrize("k, code, relabelings", [(2, 0, 2), (3, 0, 6), (9, 3, 0)])
def test_relabelings_count_orderings_tried_and_skip_refused_pairs(tmp_path, k, code, relabelings):
    import contextlib
    import io

    import sharpq.cli

    path = tmp_path / "q.epq"
    path.write_text(workloads.path_query("p", "v", k), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    tracer.request = 0
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert sharpq.cli.main(["minimize", "-q", str(path), "--json"]) == code
    finally:
        tracer.uninstall()
    # path-k cores to itself: 1 liberal and k quantified elements, 1!*k!
    # orderings; path-9's 9! exceeds canon_cap, so none are tried.
    assert tracer.counters["compilepipe.canonical_lc.relabelings"] == relabelings


def test_traced_twins_have_the_same_shape_and_their_own_text(tmp_path):
    import argparse

    args = argparse.Namespace(workload="union-count", seed=1, trace=1)
    requests, setup_s = run.set_up(reference, args, tmp_path, 1)
    half = len(requests) // 2
    traced, twins = requests[:half], requests[half:]
    assert setup_s is None
    assert [r["label"] for r in traced] == [r["label"] for r in twins]

    def texts(reqs):
        return {(tmp_path / a).read_text() for r in reqs for a in r["argv"]
                if a.endswith((".epq", ".rel"))}

    assert not texts(traced) & texts(twins)
