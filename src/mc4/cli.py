"""Command-line interface for the MC-4 reasoning engine.

    mc4 solve FILE          decide consistency (exit 0 yes, 1 no, 2 error)
    mc4 classify ITEM...    tractability class of a label profile
    mc4 closure ITEM...     closure of a profile under the three operations
    mc4 enumerate           all expressive subalgebras and their partition
    mc4 compose R S         composition of two relations (or --table)
    mc4 convert ...         RCC-5 view of a network's scenario or a relation
    mc4 gen N               write a random network
    mc4 verify              run the internal identity and catalog checks
    mc4 bench               time the polynomial solvers across sizes

A profile ITEM is a relation in token form ("CG|CGPP"), or a named catalog:
g99, g81, m31, m72, m78, m81, m99.  Networks are read from a file path or
from stdin when the path is "-".
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import (
    BASIC_RELATIONS,
    EMPTY,
    UNIVERSAL,
    Relation,
    RelationSet,
    compose,
    format_relation,
    parse_relation,
)
from .network import (
    _FORMAT,
    _TABLES,
    ConstraintNetwork,
    _pair_rows,
    _tails,
    _upper_triangle,
    parse_network,
    random_network,
    serialize_network,
)
from .rcc5 import Rcc5, convert_scenario, envelope, format_rcc5, lift, to_rcc5
from .solvers import (
    Scenario,
    SolveOutcome,
    solve,
    solve_backtracking,
    solve_m81,
    solve_m99,
    solve_oracle,
    solve_trivial_core,
)
from .subalgebra import (
    _EXPRESSIVE_MASK,
    BSY,
    EQX,
    G81,
    G99,
    LEQ,
    M31,
    M72,
    M78,
    M81,
    M99,
    NLE,
    classify,
    enumerate_expressive,
    enumerate_expressive_by_closure,
    evaluate_identity_suites,
    closure,
    is_closed,
    maximality_check,
    partition_report,
    render_partition_json,
    render_partition_text,
)

_CATALOGS = {
    "g99": G99,
    "g81": G81,
    "m31": M31,
    "m72": M72,
    "m78": M78,
    "m81": M81,
    "m99": M99,
}


def _read_network(path: str) -> ConstraintNetwork:
    """Parse the network in a file, or on stdin for "-", read as UTF-8 with
    or without a byte-order mark.

    The bytes are read whole and decoded once with utf-8-sig, which drops a
    leading byte-order mark, and only the text is kept while it is parsed.
    A file that is not UTF-8 raises the UnicodeDecodeError a text-mode read
    raises, and a file that cannot be read raises pathlib's OSError, which
    names the path as pathlib normalises it ('./a.net' as 'a.net').
    parse_network folds each '\\r\\n' and each lone '\\r' into '\\n', so
    they end a line just as '\\n' does."""
    if path == "-":
        text = sys.stdin.buffer.read().decode("utf-8-sig")
    else:
        text = Path(path).read_bytes().decode("utf-8-sig")
    return parse_network(text)


def _parse_profile(items: list[str]) -> RelationSet:
    mask = 0
    for item in items:
        catalog = _CATALOGS.get(item.strip().lower())
        if catalog is not None:
            mask |= catalog.mask
        else:
            mask |= 1 << int(parse_relation(item))
    return RelationSet(mask)


def _parse_palette(spec: str) -> tuple[Relation, ...]:
    """Palette spec: 'general', a catalog name, or comma-separated tokens.

    NONE and ALL are dropped from named palettes (one is an instant
    contradiction, the other says nothing); an explicit token list is taken
    as-is.
    """
    lowered = spec.strip().lower()
    if lowered == "general":
        return tuple(Relation(c) for c in range(1, 15))
    catalog = _CATALOGS.get(lowered)
    if catalog is not None:
        return tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
    return tuple(parse_relation(tok) for tok in spec.split(","))


# ---------------------------------------------------------------------------
# solve / classify / closure
# ---------------------------------------------------------------------------

_FORCED_SOLVERS = {
    "oracle": solve_oracle,
    "backtrack": solve_backtracking,
    "m72": lambda net: solve_trivial_core(net, Relation.CG),
    "m99": solve_m99,
    "m81": solve_m81,
}


# The JSON text of a scenario code, closing its triple, by code up to
# RCC-5's DR, 16.
_JSON_CODES = np.array([f"{code}]" for code in range(17)], dtype=object)
# The right-hand side of a converted scenario's line, by RCC-5 code.
_RCC5_FORMAT = np.array([" : " + format_rcc5(Rcc5(code)) for code in range(17)], dtype=object)


def _scenario_lines(
    names: tuple[str, ...], scenario: Scenario, rhs: np.ndarray, indent: str
) -> str:
    """One line per scenario pair: indent, the two names, then rhs[code],
    the right-hand side of the pair's code; each line ends in '\\n'."""
    heads = [indent + name + " " for name in names]
    codes = scenario.codes
    rows = _pair_rows(heads, _tails(names, rhs), codes, _upper_triangle(len(codes)), "\n")
    return "".join(row + "\n" for row in rows)


@lru_cache(maxsize=_TABLES)
def _index_rows(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The heads '[i, ' and tails 'j, code]' (_pair_rows) of the JSON
    triples of a scenario on n vertices.  Built once per n, for the last
    _TABLES values of n a process wrote; a tuple and a read-only array."""
    index = [f"{k}, " for k in range(n)]
    return tuple("[" + k for k in index), _tails(index, _JSON_CODES)


def _scenario_json(scenario: Scenario) -> str:
    """json.dumps(scenario.as_json()), written by rows from the code matrix,
    with the index rows (_index_rows) and upper triangle (_upper_triangle)
    of its vertex count, each built once per n and read-only."""
    codes = scenario.codes
    heads, tails = _index_rows(len(codes))
    rows = _pair_rows(heads, tails, codes, _upper_triangle(len(codes)), ", ")
    return '{"pairs": [' + ", ".join(rows) + "]}"


def _verdict_json(out: SolveOutcome) -> str:
    """The --json verdict: json.dumps of consistent, solver and witness,
    with the scenario between the last two, as json.dumps of all four
    would write them.  consistent and solver are written as literals: a
    solver's name is plain ASCII, which JSON quotes as it is."""
    consistent = "true" if out.consistent else "false"
    scenario = "null" if out.scenario is None else _scenario_json(out.scenario)
    return (
        f'{{"consistent": {consistent}, "solver": "{out.solver}", '
        f'"scenario": {scenario}, "witness": {json.dumps(out.witness)}}}'
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    net = _read_network(args.file)
    if args.solver == "auto":
        out = solve(net)
    else:
        out = _FORCED_SOLVERS[args.solver](net)
    if args.json:
        print(_verdict_json(out))
    else:
        print(f"consistent: {'yes' if out.consistent else 'no'}")
        print(f"solver: {out.solver}")
        if out.scenario is not None:
            sys.stdout.write(_scenario_lines(net.names, out.scenario, _FORMAT, "  "))
        if out.witness is not None:
            print(f"witness: {json.dumps(out.witness)}")
    return 0 if out.consistent else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.file is not None and args.items:
        raise ValueError("classify takes profile items or --file, not both")
    if args.file is not None:
        profile = _read_network(args.file).relation_profile()
    elif args.items:
        profile = _parse_profile(args.items)
    else:
        raise ValueError("classify needs profile items or --file")
    cls = classify(profile)
    closed = closure(profile | RelationSet(_EXPRESSIVE_MASK))
    if args.json:
        print(
            json.dumps(
                {
                    "class": cls.kind.value,
                    "core": format_relation(cls.core) if cls.core is not None else None,
                    "closure_cardinality": len(closed),
                    "closure": [int(r) for r in closed],
                }
            )
        )
    else:
        print(str(cls))
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    result = closure(_parse_profile(args.items))
    if args.json:
        print(
            json.dumps(
                {
                    "cardinality": len(result),
                    "members": [int(r) for r in result],
                    "closed": is_closed(result),
                }
            )
        )
    else:
        for r in result:
            print(format_relation(r))
    return 0


# ---------------------------------------------------------------------------
# enumerate / compose / convert
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    report = partition_report()
    if args.cross_check:
        direct = enumerate_expressive()
        via_closure = enumerate_expressive_by_closure()
        agree = direct == via_closure
        if not args.json:
            print(
                f"cross-check: {len(direct)} by stability scan, "
                f"{len(via_closure)} by closure fixpoints, "
                f"{'agree' if agree else 'DISAGREE'}"
            )
        if not agree:
            print("enumeration routes disagree", file=sys.stderr)
            return 1
    if args.json:
        payload = render_partition_json(report)
        if args.cross_check:
            payload["cross_check_agree"] = True
        print(json.dumps(payload))
    else:
        print(render_partition_text(report))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    if args.table:
        if args.left is not None:
            raise ValueError("compose takes two relations or --table, not both")
        width = 16
        header = " " * 8 + "".join(f"{format_relation(b):<{width}}" for b in BASIC_RELATIONS)
        print(header)
        for r in BASIC_RELATIONS:
            row = "".join(f"{format_relation(compose(r, s)):<{width}}" for s in BASIC_RELATIONS)
            print(f"{format_relation(r):<8}{row}")
        return 0
    if args.left is None or args.right is None:
        raise ValueError("compose needs two relations (or --table)")
    print(format_relation(compose(parse_relation(args.left), parse_relation(args.right))))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.relation is not None:
        if args.file is not None:
            raise ValueError("convert takes a network file or --relation, not both")
        r = parse_relation(args.relation)
        if args.json:
            print(
                json.dumps(
                    {
                        "relation": format_relation(r),
                        "image": format_rcc5(to_rcc5(r)),
                        "envelope": format_rcc5(envelope(r)),
                        "lift_of_image": format_relation(lift(to_rcc5(r))),
                    }
                )
            )
        else:
            print(f"image: {format_rcc5(to_rcc5(r))}")
            print(f"envelope: {format_rcc5(envelope(r))}")
        return 0
    if args.file is None:
        raise ValueError("convert needs a network file or --relation")
    net = _read_network(args.file)
    out = solve(net)
    if not out.consistent:
        if args.json:
            print(_verdict_json(out))
        else:
            print("consistent: no")
            print(f"witness: {json.dumps(out.witness)}")
        return 1
    if out.scenario is None:
        out = solve_backtracking(net)
    scenario = convert_scenario(out.scenario)
    if args.json:
        print(_scenario_json(scenario))
    else:
        sys.stdout.write(_scenario_lines(net.names, scenario, _RCC5_FORMAT, ""))
    return 0


# ---------------------------------------------------------------------------
# gen / verify / bench
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    palette = _parse_palette(args.palette)
    net = random_network(args.n, args.density, palette, rng=args.seed)
    text = serialize_network(net)
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _verify_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = list(evaluate_identity_suites())
    for name, catalog, want in (
        ("M72", M72, 9),
        ("M78", M78, 9),
        ("M31", M31, 5),
        ("M99", M99, 14),
        ("M81", M81, 10),
    ):
        checks.append((f"catalog {name}: cardinality {want}", len(catalog) == want))
        checks.append((f"catalog {name}: closed", is_closed(catalog)))
    for name, catalog in (("M72", M72), ("M99", M99), ("M81", M81)):
        checks.append((f"catalog {name}: maximal", maximality_check(catalog)))
    direct = enumerate_expressive()
    via_closure = enumerate_expressive_by_closure()
    checks.append(("enumeration routes agree", direct == via_closure))
    report = partition_report()
    checks.append(("partition covers every subalgebra", not report.residue))
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks()
    failures = 0
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def bench_rows(
    sizes: list[int],
    density: float,
    instances: int,
    solvers: list[str],
    seed: int,
) -> list[dict]:
    """Time the polynomial deciders on random in-profile networks.

    Network generation is excluded from the timing; each (solver, size,
    instance) triple derives its own deterministic seed from the base seed.
    Returns one row per (solver, size) with mean and 95th-percentile
    microseconds, keyed like the CSV columns.  Raises ValueError when sizes
    is empty or instances is below 1, either of which leaves nothing to
    time.
    """
    if not sizes:
        raise ValueError("bench needs at least one size")
    if instances < 1:
        raise ValueError(f"bench needs at least one instance, got {instances}")
    rows = []
    for solver_index, solver_name in enumerate(solvers):
        fn = _FORCED_SOLVERS[solver_name]
        palette = _parse_palette(solver_name)
        for size_index, n in enumerate(sizes):
            times_us = []
            for k in range(instances):
                rng = np.random.default_rng([seed, solver_index, size_index, k])
                net = random_network(n, density, palette, rng=rng)
                t0 = time.perf_counter()
                fn(net)
                times_us.append((time.perf_counter() - t0) * 1e6)
            rows.append(
                {
                    "n": n,
                    "density": density,
                    "solver": solver_name,
                    "mean_us": round(float(np.mean(times_us)), 1),
                    "p95_us": round(float(np.percentile(times_us, 95)), 1),
                    "seed": seed,
                }
            )
    return rows


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    solvers = ["m99", "m81"] if args.solver == "both" else [args.solver]
    rows = bench_rows(sizes, args.density, args.instances, solvers, args.seed)
    writer = csv.DictWriter(
        sys.stdout, fieldnames=["n", "density", "solver", "mean_us", "p95_us", "seed"]
    )
    writer.writeheader()
    writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mc4", description="Reasoning engine for the MC-4 spatial congruence algebra"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide consistency of a network file")
    p.add_argument("file", help="network file, or - for stdin")
    p.add_argument(
        "--solver",
        choices=("auto", *_FORCED_SOLVERS),
        default="auto",
        help="force a solver instead of dispatching on the label profile",
    )
    p.add_argument("--json", action="store_true", help="machine-readable verdict")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", help="tractability class of a label profile")
    p.add_argument("items", nargs="*", help="relations or catalog names")
    p.add_argument("--file", help="classify the labels of this network instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("closure", help="close a profile under the three operations")
    p.add_argument("items", nargs="+", help="relations or catalog names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("enumerate", help="enumerate and partition the expressive subalgebras")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the independent closure-fixpoint enumeration",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("compose", help="compose two relations")
    p.add_argument("left", nargs="?", help="first relation")
    p.add_argument("right", nargs="?", help="second relation")
    p.add_argument("--table", action="store_true", help="print the base-case table")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("convert", help="RCC-5 view of a scenario or a relation")
    p.add_argument("file", nargs="?", help="network file to solve and convert")
    p.add_argument("--relation", help="convert one relation instead of a network")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("gen", help="generate a random network")
    p.add_argument("n", type=int, help="number of vertices")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument(
        "--palette",
        default="general",
        help="'general', a catalog name, or comma-separated relations",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", "-o", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run the identity and catalog checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the polynomial solvers")
    p.add_argument("--sizes", default="250,500,1000,2000")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--solver", choices=("m99", "m81", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
