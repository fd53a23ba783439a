"""Command-line interface: verdicts, exit codes, machine-readable output."""

import csv
import hashlib
import io
import json

import jsonschema
import numpy as np
import pytest

from mc4.algebra import EMPTY, UNIVERSAL, Relation, RelationSet, converse
from mc4.cli import (
    _CATALOGS,
    _parse_palette,
    _scenario_json,
    _scenario_lines,
    _verdict_json,
    main,
)
from mc4.network import (
    _FORMAT,
    ConstraintNetwork,
    parse_network,
    random_network,
    serialize_network,
)
from mc4.rcc5 import Rcc5, convert_scenario, format_rcc5, to_rcc5
from mc4.solvers import (
    solve_backtracking,
    solve_m81,
    solve_m99,
    solve_oracle,
    solve_trivial_core,
)
from mc4.subalgebra import _TRIVIAL_CORES, Kind, classify, enumerate_expressive
from test_solvers import planted_network

CONSISTENT_TEXT = "nodes: a b c\na b : CG|CGPP\nb c : CNO\n"
INCONSISTENT_TEXT = "nodes: a b c\na b : CGPP\nb c : CG|CGPP\nc a : CG|CGPP\n"

VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "consistent": {"type": "boolean"},
        "solver": {
            "enum": ["oracle", "backtracking", "trivial-core", "m99", "m81"]
        },
        "scenario": {
            "type": ["object", "null"],
            "properties": {
                "pairs": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "minItems": 3,
                        "maxItems": 3,
                        "items": {"type": "integer"},
                    },
                }
            },
            "required": ["pairs"],
            "additionalProperties": False,
        },
        "witness": {"type": ["object", "null"]},
    },
    "required": ["consistent", "solver", "scenario", "witness"],
    "additionalProperties": False,
}


@pytest.fixture
def net_file(tmp_path):
    def write(text, name="net.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_consistent_exit_zero(capsys, net_file):
    code, out, _ = run(capsys, "solve", net_file(CONSISTENT_TEXT))
    assert code == 0
    assert "consistent: yes" in out
    assert "solver: m99" in out


def test_solve_inconsistent_exit_one(capsys, net_file):
    code, out, _ = run(capsys, "solve", net_file(INCONSISTENT_TEXT))
    assert code == 1
    assert "consistent: no" in out
    assert "cycle_chord" in out


def test_solve_text_output_lists_the_scenario(capsys, net_file):
    text = "nodes: a bb c d\na bb : CGPP\nbb c : CGPPi\nc d : CG\nd a : CG|CGPPi|CNO\n"
    code, out, _ = run(capsys, "solve", net_file(text), "--solver", "backtrack")
    assert code == 0
    assert out == (
        "consistent: yes\n"
        "solver: backtracking\n"
        "  a bb : CGPP\n"
        "  a c : CNO\n"
        "  a d : CNO\n"
        "  bb c : CGPPi\n"
        "  bb d : CGPPi\n"
        "  c d : CG\n"
    )


def test_solve_json_output_is_pinned(capsys, net_file):
    text = "nodes: a bb c d\na bb : CGPP\nbb c : CGPPi\nc d : CG\nd a : CG|CGPPi|CNO\n"
    code, out, _ = run(capsys, "solve", net_file(text), "--solver", "backtrack", "--json")
    assert code == 0
    assert out == (
        '{"consistent": true, "solver": "backtracking", "scenario": {"pairs": '
        "[[0, 1, 2], [0, 2, 8], [0, 3, 8], [1, 2, 4], [1, 3, 4], [2, 3, 1]]}, "
        '"witness": null}\n'
    )
    text = "nodes: a b c\na b : CG|CNO\nb c : CG|CNO\n"
    code, out, _ = run(capsys, "solve", net_file(text), "--json")
    assert code == 0
    assert out == (
        '{"consistent": true, "solver": "trivial-core", "scenario": {"pairs": '
        '[[0, 1, 1], [0, 2, 1], [1, 2, 1]]}, "witness": null}\n'
    )


def test_solve_json_verdict_schema(capsys, net_file):
    for text in (CONSISTENT_TEXT, INCONSISTENT_TEXT):
        for solver in ("auto", "oracle", "backtrack", "m99"):
            code, out, _ = run(capsys, "solve", net_file(text), "--solver", solver, "--json")
            payload = json.loads(out)
            jsonschema.validate(payload, VERDICT_SCHEMA)
            assert code == (0 if payload["consistent"] else 1)
            assert (payload["witness"] is None) == payload["consistent"]


def test_solve_forced_solver_names(capsys, net_file):
    path = net_file("nodes: a b\na b : CG|CNO\n")
    for solver, name in (
        ("oracle", "oracle"),
        ("backtrack", "backtracking"),
        ("m72", "trivial-core"),
        ("m99", "m99"),
    ):
        _, out, _ = run(capsys, "solve", path, "--solver", solver, "--json")
        assert json.loads(out)["solver"] == name


def test_solve_out_of_profile_is_a_usage_error(capsys, net_file):
    path = net_file("nodes: a b\na b : CGPP\n")
    code, _, err = run(capsys, "solve", path, "--solver", "m72")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "solve", net_file("nodes: a b\na b : CNO\n"), "--solver", "m81")
    assert code == 2


def test_solve_oracle_cap_is_a_usage_error(capsys, net_file):
    path = net_file("nodes: a b c d e f g\n")
    code, _, err = run(capsys, "solve", path, "--solver", "oracle")
    assert code == 2
    assert "capped" in err


def test_solve_parse_error_exit_two(capsys, net_file):
    code, _, err = run(capsys, "solve", net_file("nodes: a b\na z : CG\n"))
    assert code == 2
    assert "line 2" in err


def test_solve_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.net"))
    assert code == 2


def test_solve_names_a_missing_file_by_its_normalised_path(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "solve", "./missing.net")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'missing.net'\n"


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CONSISTENT_TEXT.encode())))
    code, out, _ = run(capsys, "solve", "-", "--json")
    assert code == 0
    assert json.loads(out)["consistent"] is True


BOM_TEXT = b"\xef\xbb\xbfnodes: a b\na b : CG\n"


def test_solve_accepts_a_byte_order_mark_in_a_file(capsys, tmp_path):
    path = tmp_path / "bom.net"
    path.write_bytes(BOM_TEXT)
    code, out, err = run(capsys, "solve", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["consistent"] is True


def test_solve_accepts_a_byte_order_mark_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BOM_TEXT)))
    code, out, err = run(capsys, "solve", "-", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["consistent"] is True


UNDECODABLE_TEXT = b"nodes: a\xff b\na b : CG\n"
UNDECODABLE_ERROR = (
    "error: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"
)


def test_solve_rejects_undecodable_bytes_in_a_file(capsys, tmp_path):
    path = tmp_path / "latin1.net"
    path.write_bytes(UNDECODABLE_TEXT)
    assert run(capsys, "solve", str(path), "--json") == (2, "", UNDECODABLE_ERROR)


def test_solve_rejects_undecodable_bytes_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(UNDECODABLE_TEXT)))
    assert run(capsys, "solve", "-", "--json") == (2, "", UNDECODABLE_ERROR)


# ---------------------------------------------------------------------------
# classify / closure / compose
# ---------------------------------------------------------------------------


def test_classify_profile_items(capsys):
    code, out, _ = run(capsys, "classify", "CG|CGPP", "CNO")
    assert code == 0
    assert out.strip() == "MAX_M99"
    code, out, _ = run(capsys, "classify", "CG|CNO")
    assert out.strip() == "TRIVIAL_CORE(CG)"


def test_classify_needs_items_or_a_file(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "classify needs profile items or --file" in err


def test_classify_rejects_items_with_a_file(capsys, net_file):
    code, out, err = run(capsys, "classify", "CG|CNO", "--file", net_file(CONSISTENT_TEXT))
    assert code == 2
    assert out == ""
    assert err == "error: classify takes profile items or --file, not both\n"


def test_classify_named_catalog(capsys):
    code, out, _ = run(capsys, "classify", "g81")
    assert code == 0
    assert out.strip() == "MAX_M81"


def test_classify_file_json(capsys, net_file):
    code, out, _ = run(capsys, "classify", "--file", net_file(CONSISTENT_TEXT), "--json")
    payload = json.loads(out)
    assert payload["class"] == "MAX_M99"
    assert payload["core"] is None
    assert payload["closure_cardinality"] == len(payload["closure"])


def test_closure_lists_members(capsys):
    code, out, _ = run(capsys, "closure", "CG|CGPP", "CG|CNO", "CGPP|CGPPi|CNO")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14  # the M99 catalog
    assert "NONE" in lines and "ALL" in lines


def test_closure_json(capsys):
    code, out, _ = run(capsys, "closure", "g81", "--json")
    payload = json.loads(out)
    assert payload["cardinality"] == 10
    assert payload["closed"] is True


def test_compose_pair_and_table(capsys):
    code, out, _ = run(capsys, "compose", "CGPP", "CNO")
    assert code == 0
    assert out.strip() == "CGPP|CNO"
    code, out, _ = run(capsys, "compose", "--table")
    assert code == 0
    assert "CGPPi|CNO" in out


def test_compose_needs_arguments(capsys):
    code, _, err = run(capsys, "compose")
    assert code == 2


def test_compose_rejects_relations_with_the_table(capsys):
    code, out, err = run(capsys, "compose", "CGPP", "CNO", "--table")
    assert code == 2
    assert out == ""
    assert err == "error: compose takes two relations or --table, not both\n"


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_text_report(capsys):
    code, out, _ = run(capsys, "enumerate", "--cross-check")
    assert code == 0
    assert "102" in out
    assert "cross-check" in out and "agree" in out
    assert "residue: empty" in out


def test_enumerate_cross_check_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--cross-check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cross_check_agree"] is True
    assert payload["total"] == 102


def test_enumerate_cross_check_reports_disagreement(capsys, monkeypatch):
    direct = enumerate_expressive()
    monkeypatch.setattr("mc4.cli.enumerate_expressive_by_closure", lambda: direct[1:])
    code, out, err = run(capsys, "enumerate", "--cross-check")
    assert code == 1
    assert err == "enumeration routes disagree\n"
    assert out == "cross-check: 102 by stability scan, 101 by closure fixpoints, DISAGREE\n"
    code, out, err = run(capsys, "enumerate", "--cross-check", "--json")
    assert code == 1
    assert err == "enumeration routes disagree\n"
    assert out == ""


def test_enumerate_json_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--json")
    payload = json.loads(out)
    assert payload["total"] == 102
    assert payload["tractable"] == 82
    counts = {b["key"]: b["count"] for b in payload["buckets"]}
    assert counts["np-hard"] == 20
    assert counts["m81-only"] == 19
    deltas = {b["key"]: b["delta"] for b in payload["buckets"]}
    assert deltas["m81-only"] == 2  # computed 19 vs reference row 17
    assert payload["tractable_delta"] == -10  # computed 82 vs claimed 92


# ---------------------------------------------------------------------------
# Scenario and verdict output
# ---------------------------------------------------------------------------


def triples(codes):
    """The pairs of a code matrix as the solvers once built them: one
    (i, j, code) tuple of Python ints per pair, row by row."""
    n = len(codes)
    return tuple((i, j, int(codes[i, j])) for i in range(n) for j in range(i + 1, n))


def reference_verdict(out, pairs):
    """The --json verdict as json.dumps wrote it from a dict of triples."""
    scenario = None if pairs is None else {"pairs": list(pairs)}
    return json.dumps(
        {"consistent": out.consistent, "solver": out.solver, "scenario": scenario,
         "witness": out.witness}
    )


def reference_lines(names, pairs, rhs, indent):
    """The scenario lines as one f-string per pair wrote them."""
    return "".join(f"{indent}{names[i]} {names[j]}{rhs[c]}\n" for i, j, c in pairs)


CONVERSE = np.array([int(converse(Relation(c))) for c in range(16)])
RCC5_RHS = tuple(" : " + format_rcc5(Rcc5(code)) for code in range(32))


def scenario_outcomes():
    """(net, outcome) for seeded oracle, backtracking and trivial-core
    outcomes at n in 1, 2, 3, 20 and 60, a name with a non-ASCII letter
    among the vertices of each."""
    rng = np.random.default_rng(39)
    general = RelationSet(0xFFFF)
    for n in (1, 2, 3, 20, 60):
        net, hidden = planted_network(n, rng, general)
        renamed = ConstraintNetwork(("é0", *net.names[1:]))
        renamed._m[:] = net._m
        net = renamed
        yield net, solve_backtracking(net)
        # The oracle searches the relaxed network while it is small, and
        # the hidden scenario itself at 20 and 60 vertices.
        atomic = net.copy()
        if n > 3:
            for (i, j), base in hidden.items():
                atomic.add_constraint(net.names[i], net.names[j], base)
        yield atomic, solve_oracle(atomic, max_vertices=n)
        for core in _TRIVIAL_CORES:
            palette = [Relation(c) for c in range(1, 16) if c & int(core) == int(core)]
            cnet = random_network(n, 0.7, palette, rng=rng)
            yield cnet, solve_trivial_core(cnet, core)


def test_scenario_output_is_the_bytes_of_the_triples():
    sizes = set()
    for net, out in scenario_outcomes():
        assert out.consistent and out.witness is None
        codes = out.scenario.codes
        n = len(net)
        sizes.add(n)
        # The matrix holds the scenario above the diagonal, the converses
        # below it and CG on it; its pairs are the old triples.
        assert codes.shape == (n, n) and codes.dtype == np.uint8
        assert np.array_equal(codes.T, CONVERSE[codes]) and np.all(codes.diagonal() == 1)
        pairs = triples(codes)
        assert len(pairs) == n * (n - 1) // 2
        assert out.scenario.pairs == pairs
        assert all(type(x) is int for p in out.scenario.pairs for x in p)
        assert _verdict_json(out) == reference_verdict(out, pairs)
        for indent in ("  ", ""):
            assert _scenario_lines(net.names, out.scenario, _FORMAT, indent) == (
                reference_lines(net.names, pairs, _FORMAT, indent)
            )
        rcc = convert_scenario(out.scenario)
        rcc_pairs = tuple((i, j, int(to_rcc5(Relation(c)))) for i, j, c in pairs)
        assert rcc.pairs == rcc_pairs
        assert _scenario_json(rcc) == json.dumps({"pairs": list(rcc_pairs)})
        assert _scenario_lines(net.names, rcc, RCC5_RHS, "") == (
            reference_lines(net.names, rcc_pairs, RCC5_RHS, "")
        )
    assert sizes == {1, 2, 3, 20, 60}


def test_scenario_output_through_the_console(capsys, net_file):
    for net, out in scenario_outcomes():
        if out.solver != "backtracking":
            continue
        path = net_file(serialize_network(net))
        pairs = triples(out.scenario.codes)
        code, text, _ = run(capsys, "solve", path, "--solver", "backtrack", "--json")
        assert code == 0
        assert text == reference_verdict(out, pairs) + "\n"
        code, text, _ = run(capsys, "solve", path, "--solver", "backtrack")
        assert text == (
            "consistent: yes\nsolver: backtracking\n"
            + reference_lines(net.names, pairs, _FORMAT, "  ")
        )


def test_verdicts_without_a_scenario_render_as_before():
    def named(names, constraints):
        net = ConstraintNetwork(names)
        for u, v, r in constraints:
            net.add_constraint(u, v, r)
        return net

    cgpp, cg_cgpp = Relation.CGPP, Relation.CG | Relation.CGPP
    cycle = [("é", "b", cgpp), ("b", "c", cg_cgpp), ("c", "é", cg_cgpp)]
    outcomes = [
        solve_m99(named(("a", "b"), [("a", "b", EMPTY)])),
        solve_m99(named(("a", "b"), [("a", "a", Relation.CNO)])),
        solve_m99(named(("é", "b", "c"), cycle)),
        solve_m81(named(("é", "b", "c", "d"), [*cycle, ("é", "d", cgpp | Relation.CGPPI)])),
        solve_backtracking(parse_network("nodes: a b c\na b : CGPP\nb c : CGPP\na c : CG\n")),
        solve_m99(named(("a", "b"), [("a", "b", cg_cgpp)])),
    ]
    witnesses = {out.witness and out.witness["type"] for out in outcomes}
    assert witnesses == {"bottom_edge", "cycle_chord", "search_exhausted", None}
    for out in outcomes:
        assert out.scenario is None
        assert _verdict_json(out) == reference_verdict(out, None)


# ---------------------------------------------------------------------------
# convert / gen
# ---------------------------------------------------------------------------


def test_convert_network_to_rcc5(capsys, net_file):
    code, out, _ = run(capsys, "convert", net_file(CONSISTENT_TEXT))
    assert code == 0
    assert out == "a b : PP\na c : PO\nb c : PO\n"
    code, out, _ = run(capsys, "convert", net_file(INCONSISTENT_TEXT))
    assert code == 1
    text = "nodes: a b c\na b : CGPP\nb c : CG|CGPP\na c : CG|CNO\n"
    code, out, _ = run(capsys, "convert", net_file(text), "--json")
    assert code == 1
    assert out == (
        '{"consistent": false, "solver": "m99", "scenario": null, "witness": '
        '{"type": "cycle_chord", "cycle": ["a", "b", "c"], "chord": ["a", "b"]}}\n'
    )


def test_convert_runs_a_search_deeper_than_the_recursion_limit(capsys, net_file):
    # An M81 network at n=120 whose scenario comes from convert's fallback to
    # the backtracking search, down a path longer than Python's default
    # recursion limit could stack as nested calls.
    net = random_network(120, 0.15, (Relation.CGPP | Relation.CGPPI,), rng=1)
    net.add_constraint("v0", "v1", Relation.CG | Relation.CGPP)
    assert classify(net.relation_profile()).kind is Kind.MAX_M81
    code, out, _ = run(capsys, "convert", net_file(serialize_network(net)), "--json")
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 7140


def test_convert_single_relation(capsys):
    code, out, _ = run(capsys, "convert", "--relation", "CGPP", "--json")
    payload = json.loads(out)
    assert payload["image"] == "PP"
    assert payload["envelope"] == "PP|PO|DR"
    assert payload["lift_of_image"] == "CGPP"
    code, out, _ = run(capsys, "convert", "--relation", "CGPP")
    assert code == 0
    assert out == "image: PP\nenvelope: PP|PO|DR\n"


def test_convert_rejects_a_file_with_a_relation(capsys, net_file):
    code, out, err = run(capsys, "convert", net_file(CONSISTENT_TEXT), "--relation", "CGPP")
    assert code == 2
    assert out == ""
    assert err == "error: convert takes a network file or --relation, not both\n"
    code, out, err = run(capsys, "convert")
    assert code == 2
    assert out == ""
    assert err == "error: convert needs a network file or --relation\n"


@pytest.mark.parametrize("name", sorted(_CATALOGS))
def test_every_catalog_is_a_usable_palette(name):
    palette = _parse_palette(name)
    assert palette
    assert EMPTY not in palette and UNIVERSAL not in palette


def test_gen_writes_parseable_network(capsys, tmp_path):
    out_path = tmp_path / "gen.net"
    code, _, _ = run(capsys, "gen", "6", "--density", "1.0", "--palette", "m99",
                     "--seed", "4", "--out", str(out_path))
    assert code == 0
    net = parse_network(out_path.read_text())
    assert len(net) == 6
    code, out, _ = run(capsys, "gen", "6", "--density", "1.0", "--palette", "m99", "--seed", "4")
    assert out == out_path.read_text()


def test_gen_writes_the_same_bytes_for_a_seed(capsys):
    code, out, _ = run(capsys, "gen", "300", "--palette", "general", "--density", "0.5",
                       "--seed", "11")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "6092535d687577270e5f9778f8ad7bdf338b146794039c82f9e6b365f8e16f98"


def test_gen_rejects_unknown_palette_token(capsys):
    code, _, err = run(capsys, "gen", "4", "--palette", "WAT")
    assert code == 2


def test_gen_rejects_empty_network(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "gen", "--", n)
        assert code == 2
        assert out == ""
        assert "at least one vertex" in err


# ---------------------------------------------------------------------------
# verify / bench
# ---------------------------------------------------------------------------


def test_verify_all_checks_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    lines = [line for line in out.splitlines() if line.startswith("ok")]
    assert len(lines) >= 40


def test_bench_csv_header_and_rows(capsys):
    code, out, _ = run(
        capsys, "bench", "--sizes", "20,40", "--instances", "2", "--solver", "both",
        "--seed", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,density,solver,mean_us,p95_us,seed"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {row["solver"] for row in rows} == {"m99", "m81"}
    assert all(float(row["mean_us"]) > 0 for row in rows)
    assert all(row["seed"] == "7" for row in rows)


def test_bench_rejects_fewer_than_one_instance(capsys):
    for count in ("0", "-2"):
        code, out, err = run(capsys, "bench", "--sizes", "20", "--instances", count)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "at least one instance" in err


def test_bench_rejects_an_empty_size_list(capsys):
    for sizes in ("", ","):
        code, out, err = run(capsys, "bench", "--sizes", sizes)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "at least one size" in err
