"""Tests of the benchmark's own parts: generator, answer checks, span maths.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import planted  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mc4.algebra import Relation  # noqa: E402
from mc4.network import (  # noqa: E402
    ConstraintNetwork,
    is_algebraically_closed,
    parse_network,
    serialize_network,
)
from mc4.solvers import Scenario, is_valid_scenario, solve  # noqa: E402
from mc4.subalgebra import M99  # noqa: E402


def _network(labels: np.ndarray) -> ConstraintNetwork:
    net = ConstraintNetwork([f"v{k}" for k in range(len(labels))])
    net._m[:] = labels
    return net


def _scenario(atomic: np.ndarray) -> Scenario:
    n = len(atomic)
    return Scenario(tuple((i, j, int(atomic[i, j])) for i in range(n) for j in range(i + 1, n)))


def test_closed_iff_leq_is_a_preorder_over_all_atomic_triangles():
    for a, b, c in itertools.product(planted.BASIC_CODES, repeat=3):
        net = ConstraintNetwork(["x", "y", "z"])
        net.add_constraint("x", "y", Relation(a))
        net.add_constraint("y", "z", Relation(b))
        net.add_constraint("x", "z", Relation(c))
        m = net.to_array()
        leq = (m == planted.CG) | (m == planted.CGPP)
        transitive = all(
            leq[i, k] or not (leq[i, j] and leq[j, k])
            for i, j, k in itertools.product(range(3), repeat=3)
        )
        assert is_algebraically_closed(net) == transitive, (a, b, c)


def test_palettes_match_the_catalogs():
    assert planted.M99_PALETTE == tuple(sorted(int(r) for r in workloads.catalog_palette(M99)))
    assert planted.GENERAL_PALETTE == tuple(range(1, 15))


@pytest.mark.parametrize("palette", [planted.M99_PALETTE, planted.GENERAL_PALETTE])
@pytest.mark.parametrize("seed", range(4))
def test_hidden_scenario_solves_the_relaxed_network(palette, seed):
    rng = np.random.default_rng(seed)
    labels, atomic = planted.planted_network(40, palette, rng)
    assert set(np.unique(atomic).tolist()) == set(planted.BASIC_CODES)
    assert np.array_equal(labels.T, planted.CONVERSE[labels])
    off = ~np.eye(40, dtype=bool)
    assert np.all(labels[off] & atomic[off] == atomic[off])
    assert set(np.unique(labels[off]).tolist()) <= set(palette) | {planted.ALL}
    assert is_valid_scenario(_network(labels), _scenario(atomic))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        runs.append(workloads.make_instances(name, 3, tmp_path / sub))
    for x, y in zip(*runs):
        assert np.array_equal(x.labels, y.labels)
        if name == "gen-write":
            assert x.argv[:-1] == y.argv[:-1]
        else:
            assert x.path.read_bytes() == y.path.read_bytes()


def test_written_networks_parse_back():
    labels, _ = planted.planted_network(30, planted.GENERAL_PALETTE, np.random.default_rng(1))
    text = workloads.network_text(labels)
    assert np.array_equal(parse_network(text).to_array(), labels)
    assert text == serialize_network(parse_network(text))


def test_inconsistency_proof():
    rng = np.random.default_rng(2)
    consistent, _ = planted.planted_network(40, planted.M99_PALETTE, rng)
    assert workloads.inconsistency_proof(consistent) is None
    # v0 < v1 <= v2 <= v0: the LEQ cycle forces v0 = v1, which CGPP excludes.
    labels = np.full((3, 3), planted.CG, dtype=np.uint8)
    for i, j, code in ((0, 1, planted.CGPP), (1, 2, 3), (2, 0, 3)):
        labels[i, j] = code
        labels[j, i] = planted.CONVERSE[code]
    assert workloads.inconsistency_proof(labels) == (0, 1)
    assert not solve(_network(labels)).consistent


def test_answer_checks(tmp_path):
    inst = workloads.make_instances("general-planted", 1, tmp_path)[0]
    net = _network(inst.labels)
    out = solve(net)
    good = json.dumps({"consistent": True, "solver": out.solver,
                       "scenario": out.scenario.as_json(), "witness": None})
    assert workloads.check_answer(inst, 0, good) is None
    assert workloads.check_answer(inst, 1, good) is not None
    bad = json.loads(good)
    bad["scenario"]["pairs"][0][2] ^= 15      # no longer a single base case
    assert workloads.check_answer(inst, 0, json.dumps(bad)) is not None
    assert workloads.check_answer(inst, 0, "error: boom") is not None


def test_times_scale_by_the_kernel_time_around_them():
    ref = calibrate.REF_S
    # A machine twice as slow as the reference halves every time.
    assert calibrate.scaled([0.4, 0.2], [2 * ref] * 3) == pytest.approx([0.2, 0.1])
    # One slow kernel run among its neighbours does not move the scale.
    kernel = [ref, ref, 10 * ref, ref, ref, ref]
    assert calibrate.scaled([1.0] * 5, kernel) == pytest.approx([1.0] * 5)
    # With no window, a time is scaled by the two runs just around it.
    assert calibrate.scaled([1.0], [ref, 3 * ref], window=0) == pytest.approx([0.5])
    with pytest.raises(ValueError):
        calibrate.scaled([1.0, 1.0], [ref, ref])


def test_self_time_subtracts_children():
    op = spans.OpTrace(0, 0.0, end=10.0, input_bytes=2_000_000)
    op.spans = [
        (0, spans.ROOT, "cli.parse_network", 1.0, 4.0),
        (1, spans.ROOT, "cli.solve", 4.0, 9.0),
        (2, 1, "solvers.classify", 4.5, 5.0),
        (3, 1, "solvers.detect_m99", 5.0, 8.0),
    ]
    op.leaves = {(0, "network.parse_relation"): [100, 1.0]}
    m = spans.op_metrics(op)
    assert m["network.parse_s"] == pytest.approx(2.0)
    assert m["algebra.parse_relation_s"] == pytest.approx(1.0)
    assert m["algebra.parse_relation_calls"] == 100
    assert m["solvers.dispatch_s"] == pytest.approx(1.5)
    assert m["solvers.decide_s"] == pytest.approx(3.0)
    assert m["cli.read_s"] == pytest.approx(1.0)
    assert m["cli.render_s"] == pytest.approx(1.0)
    assert m["network.parse_mb_per_s"] == pytest.approx(2 / 3)
    # read (0-1) and render (9-10) lie outside every span
    assert m["trace.unaccounted_share"] == pytest.approx(0.2)

    m = spans.op_metrics(op, leaf_cost=(0.001, 0.002))
    assert m["network.parse_s"] == pytest.approx(1.9)
    assert m["algebra.parse_relation_s"] == pytest.approx(0.8)
    assert m["trace.leaf_overhead_s"] == pytest.approx(0.3)
    assert m["trace.unaccounted_share"] == pytest.approx(0.2)


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == [HERE.name]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_tracer_records_layers_and_restores_the_program(tmp_path, monkeypatch):
    import mc4.cli
    import mc4.solvers

    labels, _ = planted.planted_network(30, planted.M99_PALETTE, np.random.default_rng(4))
    path = tmp_path / "x.net"
    path.write_text(workloads.network_text(labels))
    original = mc4.cli.parse_network
    monkeypatch.delattr(mc4.solvers, "detect_m81")

    tracer = spans.Tracer()
    assert tracer.absent == ["solvers.detect_m81"]
    leaf_cost = tracer.leaf_overhead(calls=2000)
    assert all(0 <= cost < 1e-4 for cost in leaf_cost)
    tracer.begin(0, path.stat().st_size)
    start = spans.time.perf_counter()
    assert mc4.cli.main(["solve", str(path), "--json"]) == 0
    tracer.end(start, spans.time.perf_counter(), 0)
    assert mc4.cli.parse_network is original

    m = spans.op_metrics(tracer.ops[0], leaf_cost)
    graph = mc4.solvers.to_gadget_m99(_network(labels))
    assert m["solvers.gadget_vertices"] == graph.n_total
    assert m["solvers.leq_arcs"] == len(graph.leq)
    assert m["algebra.parse_relation_calls"] == np.count_nonzero(
        labels[np.triu_indices(30, k=1)] != planted.ALL
    )
    assert m["solvers.decide_s"] > 0 and m["network.parse_s"] > 0
    # Only read, render and the short gap between the two top-level spans
    # lie outside every span.
    wall = tracer.ops[0].end - tracer.ops[0].start
    outside = m["cli.read_s"] + m["cli.render_s"]
    assert m["trace.unaccounted_share"] * wall == pytest.approx(outside, abs=1e-3)
