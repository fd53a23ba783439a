"""Acceptance criteria for the MC-4 reasoning engine.

One test per criterion; each prints a single summary line

    ACCEPTANCE C<k> PASS|FAIL — <what was checked>

and fails loudly if the underlying checks do not hold.  Expected values are
frozen: table-derived facts were computed by independent probe programs
before being pinned here, and external reference counts are compared with
explicit deltas, never adjusted to match.
"""

import time
from pathlib import Path

import numpy as np

from mc4.algebra import (
    BASIC_RELATIONS,
    EMPTY,
    UNIVERSAL,
    Relation,
    basics,
    compose,
    converse,
    intersect,
)
from mc4.cli import bench_rows
from mc4.network import parse_network, path_consistency, random_network, serialize_network
from mc4.rcc5 import Rcc5, envelope, lift, to_rcc5
from mc4.solvers import search_pc_incompleteness, solve, solve_backtracking, solve_oracle
from mc4.subalgebra import (
    FORCED_RELATION_IDENTITIES,
    G81,
    G99,
    M31,
    M72,
    M78,
    M81,
    M81_GENERATOR_IDENTITIES,
    M99,
    M99_GENERATOR_IDENTITIES,
    REFERENCE_BUCKET_ROWS,
    REFERENCE_TOTAL_CLAIM,
    REFERENCE_TRACTABLE_CLAIM,
    Kind,
    classify,
    closure,
    enumerate_expressive,
    enumerate_expressive_by_closure,
    evaluate_identity_suites,
    maximality_check,
    partition_report,
)

ALL_RELATIONS = tuple(Relation(c) for c in range(16))
CG = Relation.CG
CGPP = Relation.CGPP
CGPPI = Relation.CGPPI
CNO = Relation.CNO

DATA_DIR = Path(__file__).parent / "data"


def _report(criterion: str, description: str, failures: list, detail: str = "") -> None:
    ok = not failures
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} — {description}{suffix}")
    assert ok, f"{criterion} failed: {failures}"


def test_c1_relation_arithmetic_laws_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for r in ALL_RELATIONS:
        if compose(CG, r) != r or compose(r, CG) != r:
            failures.append(f"identity {r}")
        if converse(converse(r)) != r:
            failures.append(f"involution {r}")
    for r in ALL_RELATIONS:
        for s in ALL_RELATIONS:
            if converse(compose(r, s)) != compose(converse(s), converse(r)):
                failures.append(f"anti-distribution {r},{s}")
            want = EMPTY
            for x in basics(r):
                for y in basics(s):
                    want |= compose(x, y)
            if compose(r, s) != want:
                failures.append(f"union decomposition {r},{s}")
            if intersect(r, s) != Relation(int(r) & int(s)):
                failures.append(f"intersection {r},{s}")
            for t in ALL_RELATIONS:
                if compose(compose(r, s), t) != compose(r, compose(s, t)):
                    failures.append(f"associativity {r},{s},{t}")
    for x in BASIC_RELATIONS:
        for y in BASIC_RELATIONS:
            for z in BASIC_RELATIONS:
                rotations = (
                    bool(compose(x, y) & z),
                    bool(compose(converse(x), z) & y),
                    bool(compose(z, converse(y)) & x),
                )
                if len(set(rotations)) != 1:
                    failures.append(f"cycle law {x},{y},{z}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound 1s")
    _report(
        "C1",
        "relation arithmetic laws hold over all 16^3 combinations",
        failures,
        f"{elapsed:.2f}s",
    )


def test_c2_catalog_closures_have_frozen_cardinalities():
    failures = []
    expected = {
        "closure(G99) = M99": (closure(G99), [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15]),
        "closure(G81) = M81": (closure(G81), [0, 1, 2, 3, 4, 5, 6, 7, 14, 15]),
        "M72": (M72, [0, 1, 3, 5, 7, 9, 11, 13, 15]),
        "M78": (M78, [0, 8, 9, 10, 11, 12, 13, 14, 15]),
        "M31": (M31, [0, 6, 7, 14, 15]),
    }
    for name, (got, want_codes) in expected.items():
        if sorted(int(r) for r in got) != want_codes:
            failures.append(name)
    if closure(G99) != M99 or closure(G81) != M81:
        failures.append("catalog constants disagree with generator closures")
    _report(
        "C2",
        "generator closures and core catalogs have cardinalities 14/10/9/9/5",
        failures,
        "|M99|=14 |M81|=10 |M72|=9 |M78|=9 |M31|=5",
    )


def test_c3_identity_suites_hold_exactly():
    failures = []
    sizes = (
        len(M99_GENERATOR_IDENTITIES),
        len(M81_GENERATOR_IDENTITIES),
        len(FORCED_RELATION_IDENTITIES),
    )
    if sizes != (11, 7, 13):
        failures.append(f"suite sizes {sizes} != (11, 7, 13)")
    results = evaluate_identity_suites(exponents=(1, 2))
    failures.extend(name for name, ok in results if not ok)
    _report(
        "C3",
        "all 31 generator/forced-relation identities hold at exponents 1 and 2",
        failures,
        f"{len(results)} identities",
    )


def test_c4_enumeration_routes_agree_and_partition_is_frozen():
    t0 = time.perf_counter()
    failures = []
    direct = enumerate_expressive()
    via_closure = enumerate_expressive_by_closure()
    if direct != via_closure:
        failures.append("routes disagree")
    if len(direct) != 102:
        failures.append(f"{len(direct)} subalgebras, expected 102")
    report = partition_report()
    counts = {b.key: b.count for b in report.buckets}
    frozen_counts = {
        "np-hard": 20,
        "cg-core": 13,
        "cno-core": 12,
        "pair-core": 4,
        "m81-only": 19,
        "m99-rest": 34,
    }
    if counts != frozen_counts:
        failures.append(f"bucket counts {counts}")
    if REFERENCE_BUCKET_ROWS["m81-only"] != 17 or REFERENCE_TRACTABLE_CLAIM != 92:
        failures.append("reference constants were edited")
    deltas = {b.key: b.delta for b in report.buckets}
    if deltas != {
        "np-hard": 0, "cg-core": 0, "cno-core": 0, "pair-core": 0,
        "m81-only": 2, "m99-rest": 0,
    }:
        failures.append(f"deltas vs reference rows {deltas}")
    if report.total != REFERENCE_TOTAL_CLAIM:
        failures.append(f"total {report.total} != claimed {REFERENCE_TOTAL_CLAIM}")
    if report.tractable != 82:
        failures.append(f"tractable {report.tractable} != computed 82")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, bound 60s")
    _report(
        "C4",
        "both enumeration routes yield the same 102 subalgebras; "
        "partition matches reference rows except m81-only 19 vs 17 (delta +2) "
        "and tractable 82 vs claimed 92 (delta -10)",
        failures,
        f"{elapsed:.1f}s",
    )


def test_c5_every_subalgebra_is_classified():
    failures = []
    report = partition_report()
    if report.residue:
        failures.append(f"residue {len(report.residue)}")
    kinds = {}
    for s in enumerate_expressive():
        kind = classify(s).kind
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind is Kind.UNCLASSIFIED:
            failures.append(f"unclassified {s!r}")
    _report(
        "C5",
        "no expressive subalgebra is left unclassified",
        failures,
        ", ".join(f"{k.value}:{v}" for k, v in sorted(kinds.items(), key=lambda kv: kv[0].value)),
    )


def test_c6_exactly_three_maximal_tractable_catalogs():
    failures = []
    for name, catalog in (("M72", M72), ("M99", M99), ("M81", M81)):
        if not maximality_check(catalog):
            failures.append(f"{name} not maximal")
    for a_name, a, b_name, b in (
        ("M72", M72, "M99", M99),
        ("M72", M72, "M81", M81),
        ("M99", M99, "M81", M81),
    ):
        if a <= b or b <= a:
            failures.append(f"{a_name} and {b_name} are nested")
    if not M78 <= M99:
        failures.append("M78 escapes M99")
    if not M31 <= M81:
        failures.append("M31 escapes M81")
    _report(
        "C6",
        "M72, M99, M81 are maximal (any extra relation closes to the hardness "
        "pattern), pairwise incomparable, and absorb M78/M31",
        failures,
    )


def test_c7_solver_agreement_with_oracle_across_regimes():
    t0 = time.perf_counter()
    per_regime = 10_000
    regimes = {
        "trivial": tuple(r for r in M72 if r not in (EMPTY, UNIVERSAL)),
        "m99": tuple(r for r in M99 if r not in (EMPTY, UNIVERSAL)),
        "m81": tuple(r for r in M81 if r not in (EMPTY, UNIVERSAL)),
        "general": tuple(Relation(c) for c in range(1, 15)),
    }
    failures = []
    solvers_used = set()
    checked = 0
    for index, (regime, palette) in enumerate(regimes.items()):
        rng = np.random.default_rng([20260816, index])
        mismatches = 0
        for _ in range(per_regime):
            n = int(rng.integers(2, 6))
            density = float(rng.uniform(0.3, 1.0))
            net = random_network(n, density, palette, rng=rng)
            out = solve(net)
            solvers_used.add(out.solver)
            checked += 1
            if out.consistent != solve_oracle(net).consistent:
                mismatches += 1
        if mismatches:
            failures.append(f"{regime}: {mismatches} mismatches")
    for needed in ("trivial-core", "m99", "m81", "backtracking"):
        if needed not in solvers_used:
            failures.append(f"solver {needed} never dispatched")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s, bound 600s")
    _report(
        "C7",
        f"dispatched solvers agree with the oracle on {checked} random networks "
        "across 4 label regimes",
        failures,
        f"{elapsed:.1f}s, solvers {sorted(solvers_used)}",
    )


def test_c8_path_consistency_gap_witness_found_and_persisted():
    failures = []
    report = search_pc_incompleteness()
    if report.phase != "cycle-family":
        failures.append(f"phase {report.phase}")
    if report.examined != 757:
        failures.append(f"examined {report.examined}, expected 757")
    if len(report.network) != 5:
        failures.append(f"witness has {len(report.network)} vertices")
    path = DATA_DIR / "pc_gap_witness.net"
    committed = path.read_text()
    if serialize_network(report.network) != committed:
        failures.append(f"serialized witness differs from {path.name}")
    net = parse_network(committed)
    ok, _ = path_consistency(net)
    if not ok:
        failures.append("path consistency rejects the witness")
    if solve_oracle(net, max_vertices=5).consistent:
        failures.append("oracle accepts the witness")
    if solve_backtracking(net).consistent:
        failures.append("backtracking accepts the witness")
    _report(
        "C8",
        "a 5-vertex network survives path consistency yet both complete solvers "
        f"refute it; it matches {path.relative_to(Path(__file__).parent)}",
        failures,
        f"phase {report.phase}, candidate #{report.examined}",
    )


def test_c9_rcc5_bridge_tables_are_exact():
    failures = []
    image = {CG: Rcc5.EQ, CGPP: Rcc5.PP, CGPPI: Rcc5.PPI, CNO: Rcc5.PO}
    for b, want in image.items():
        if to_rcc5(b) != want:
            failures.append(f"image {b}")
    env = {
        CG: Rcc5.EQ | Rcc5.DR | Rcc5.PO,
        CGPP: Rcc5.PP | Rcc5.DR | Rcc5.PO,
        CGPPI: Rcc5.PPI | Rcc5.DR | Rcc5.PO,
        CNO: Rcc5.DR | Rcc5.PO,
    }
    for b, want in env.items():
        if envelope(b) != want:
            failures.append(f"envelope {b}")
    lifts = {
        Rcc5.EQ: CG,
        Rcc5.PP: CGPP,
        Rcc5.PPI: CGPPI,
        Rcc5.PO: UNIVERSAL,
        Rcc5.DR: UNIVERSAL,
    }
    for s, want in lifts.items():
        if lift(s) != want:
            failures.append(f"lift {s}")
    for code in range(16):
        r = Relation(code)
        want = Rcc5(0)
        for b in basics(r):
            want |= to_rcc5(b)
        if to_rcc5(r) != want:
            failures.append(f"union extension {r}")
    _report("C9", "all 13 RCC-5 bridge table entries match, unions pointwise", failures)


def test_c10_polynomial_solvers_scale_at_desk_size():
    sizes = [250, 500, 1000, 2000]
    rows = bench_rows(sizes, density=0.5, instances=1, solvers=["m99", "m81"], seed=0)
    failures = []
    slopes = {}
    for solver in ("m99", "m81"):
        times = [row["mean_us"] for row in rows if row["solver"] == solver]
        top = times[-1]
        if top >= 10e6:
            failures.append(f"{solver} n=2000 took {top / 1e6:.1f}s, bound 10s")
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        slopes[solver] = slope
        if not 1.0 < slope < 3.0:
            failures.append(f"{solver} log-log slope {slope:.2f} outside (1, 3)")
    detail = ", ".join(
        f"{s} n=2000 {next(r['mean_us'] for r in rows if r['solver'] == s and r['n'] == 2000) / 1e3:.0f}ms "
        f"slope {slopes[s]:.2f}"
        for s in ("m99", "m81")
    )
    _report(
        "C10",
        "M99/M81 deciders handle n=2000 within 10s with near-quadratic scaling",
        failures,
        detail,
    )
