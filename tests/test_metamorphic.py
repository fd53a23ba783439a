"""Metamorphic relations: verdicts checked past the oracle's reach.

Each relation changes a network in a way that cannot change its answer,
so the verdict of the changed network is an oracle at any size:

1. permuting and renaming the vertices;
2. the text form with its declarations shuffled, about half of them
   written as ``v u : conv(R)``, and about a quarter split into two
   declarations whose intersection is R, read back by parse_network;
3. every label replaced by its path-consistency fixpoint label;
4. a consistent network's pairs narrowed, half of them and then all, to
   the atoms of a scenario mc4 returned for it;
5. on M99, M81 and trivial-core profiles, solve_backtracking against the
   decider solve dispatches to.

Every scenario must pass is_valid_scenario on the network it was returned
for, a scenario of a changed network mapped back must pass it on the
original, and every witness must name vertices of the network it was
given.

The families and seeds follow one rule, fixed before the test first ran,
and no case is skipped: every (palette, kind, n) of PALETTES x KINDS x
SIZES, except that the general palette meets n=120 only in the planted
kind (on the other kinds its search is exponential), each drawn from
np.random.default_rng([16, palette index, kind index, n]).

Every inconsistent member of those families is refuted at the root, by
path consistency or a decider.  The search family, fixed by a rule of its
own before it first ran, holds members that the search refutes only after
committing pairs to base cases: twelve networks
random_network(30, 8/29, (CGPP|CGPPi, CNO)), network k drawn from
np.random.default_rng([16, len(PALETTES), k]) for k = 0..11.  Their
profile is NP-hard, so solve searches; its verdicts are checked, never
its number of commitments, which depends on the vertex order.
"""

import numpy as np

from mc4.algebra import (
    EMPTY,
    UNIVERSAL,
    Relation,
    RelationSet,
    converse,
    format_relation,
    parse_relation,
)
from mc4.network import (
    ConstraintNetwork,
    parse_network,
    path_consistency,
    random_network,
    serialize_network,
)
from mc4.solvers import Scenario, is_valid_scenario, solve, solve_backtracking
from mc4.subalgebra import M31, M72, M78, M81, M99, Kind, classify
from test_solvers import planted_network

PALETTES = (
    ("general", RelationSet(0xFFFF)),
    ("m99", M99),
    ("m81", M81),
    ("m72", M72),
    ("m78", M78),
    ("m31", M31),
)
KINDS = ("planted", "tightened", "random")
SIZES = (10, 40, 120)
SEARCH_PALETTE = (Relation.CGPP | Relation.CGPPI, Relation.CNO)


def family(catalog, kind, n, rng):
    """A planted-consistent network relaxed within the catalog, the same
    with one label tightened to exclude its hidden case, or a random one
    of average degree 1 to 6 over the catalog's non-trivial labels."""
    if kind == "random":
        palette = tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
        return random_network(n, min(1.0, float(rng.uniform(1, 6)) / n), palette, rng=rng)
    net, hidden = planted_network(n, rng, catalog)
    if kind == "tightened":
        tightenable = []
        for (i, j), base in hidden.items():
            tight = Relation(int(net._m[i, j]) & ~int(base))
            if tight != EMPTY and tight in catalog:
                tightenable.append((i, j, tight))
        if tightenable:
            i, j, tight = tightenable[int(rng.integers(len(tightenable)))]
            net.add_constraint(f"v{i}", f"v{j}", tight)
    return net


def cases():
    for p, (palette, catalog) in enumerate(PALETTES):
        for k, kind in enumerate(KINDS):
            for n in SIZES:
                if palette == "general" and kind != "planted" and n == 120:
                    continue
                rng = np.random.default_rng([16, p, k, n])
                yield f"{palette}-{kind}-{n}", family(catalog, kind, n, rng), rng
    for k in range(12):
        rng = np.random.default_rng([16, len(PALETTES), k])
        yield f"search-{k}", random_network(30, 8 / 29, SEARCH_PALETTE, rng=rng), rng


def check_outcome(net, out):
    """The outcome's scenario is one of net; its witness names net's vertices."""
    if out.scenario is not None:
        assert out.consistent and is_valid_scenario(net, out.scenario)
    if out.witness is not None:
        assert not out.consistent
        named = out.witness.get("edge", []) + out.witness.get("cycle", [])
        named += out.witness.get("chord", [])
        assert set(named) <= set(net.names)


def permuted(net, order):
    """Vertex a of the result is vertex order[a] of net, renamed."""
    out = ConstraintNetwork(tuple(f"r{a}" for a in range(len(net))))
    out._m[:] = net._m[np.ix_(order, order)]
    return out


def mapped_back(scenario, order):
    pairs = []
    for a, b, code in scenario.pairs:
        i, j = int(order[a]), int(order[b])
        pairs.append((i, j, code) if i < j else (j, i, int(converse(Relation(code)))))
    return Scenario(tuple(pairs))


def rewritten(net, rng):
    """The text form of net, declarations shuffled, flipped and split."""
    header, *decls = serialize_network(net).splitlines()
    lines = []
    for decl in decls:
        u, v, _, text = decl.split()
        r = int(parse_relation(text))
        if rng.random() < 0.5:
            u, v, r = v, u, int(converse(Relation(r)))
        if rng.random() < 0.25:
            extra = int(rng.integers(16)) & ~r
            halves = (r | extra, r | (15 & ~r & ~extra))
        else:
            halves = (r,)
        lines += [f"{u} {v} : {format_relation(Relation(h))}" for h in halves]
    order = rng.permutation(len(lines))
    return "\n".join([header] + [lines[k] for k in order]) + "\n"


def narrowed(net, scenario, keep):
    """net with the pairs where keep is set narrowed to the scenario's atoms."""
    out = net.copy()
    for (i, j, code), kept in zip(scenario.pairs, keep):
        if kept:
            out.add_constraint(net.names[i], net.names[j], Relation(code))
    return out


def test_metamorphic_relations_keep_every_verdict():
    verdicts, committed = set(), 0
    for name, net, rng in cases():
        base = solve(net)
        check_outcome(net, base)
        verdicts.add(base.consistent)
        if base.witness is not None and base.witness["type"] == "search_exhausted":
            committed += base.witness["explored"] > 0

        # 1. Permuted and renamed vertices.
        order = rng.permutation(len(net))
        pnet = permuted(net, order)
        pout = solve(pnet)
        assert pout.consistent == base.consistent, name
        check_outcome(pnet, pout)
        if pout.scenario is not None:
            assert is_valid_scenario(net, mapped_back(pout.scenario, order)), name

        # 2. The same label matrix through rewritten text.
        tnet = parse_network(rewritten(net, rng))
        assert np.array_equal(tnet._m, net._m), name
        assert solve(tnet) == base, name

        # 3. Every label replaced by its path-consistency fixpoint label.
        ok, refined = path_consistency(net)
        rout = solve(refined)
        assert rout.consistent == base.consistent, name
        assert ok or not base.consistent, name
        check_outcome(refined, rout)
        if rout.scenario is not None:
            assert is_valid_scenario(net, rout.scenario), name

        # 5. The class decider against the search.
        searched = solve_backtracking(net)
        check_outcome(net, searched)
        if classify(net.relation_profile()).kind is not Kind.NP_HARD:
            assert searched.consistent == base.consistent, name

        # 4. Narrowed to the atoms of a returned scenario.
        if base.consistent:
            scenario = base.scenario or searched.scenario
            for keep in (rng.random(len(scenario.pairs)) < 0.5, [True] * len(scenario.pairs)):
                nout = solve(narrowed(net, scenario, keep))
                assert nout.consistent, name
                check_outcome(net, nout)
    assert verdicts == {True, False}
    assert committed > 0  # some inconsistent network is refuted past the root
