"""Consistency deciders: oracle, backtracking, trivial-core, M99/M81."""

from pathlib import Path

import numpy as np
import pytest

from mc4.algebra import (
    EMPTY,
    UNIVERSAL,
    Relation,
    _COMPOSE_CODE,
    basics,
    cardinality,
)
from mc4.network import (
    ConstraintNetwork,
    _propagate,
    is_algebraically_closed,
    parse_network,
    path_consistency,
    random_network,
)
from mc4.solvers import (
    _LEQ,
    _M81_KINDS,
    _M99_KINDS,
    _NLE,
    _OUTSIDE_M99,
    _REJECT,
    GadgetGraph,
    ProfileError,
    Scenario,
    _closure,
    _first_upper_pair,
    detect_m81,
    detect_m99,
    is_valid_scenario,
    search_pc_incompleteness,
    solve,
    solve_backtracking,
    solve_m81,
    solve_m99,
    solve_oracle,
    solve_trivial_core,
    to_gadget_m81,
    to_gadget_m99,
)
from mc4.subalgebra import _TRIVIAL_CORES, LEQ, M31, M72, M78, M81, M99, Kind

CG = Relation.CG
CGPP = Relation.CGPP
CGPPI = Relation.CGPPI
CNO = Relation.CNO

DATA = Path(__file__).parent / "data"


def net_of(n, constraints):
    names = tuple(f"v{k}" for k in range(n))
    net = ConstraintNetwork(names)
    for i, j, r in constraints:
        net.add_constraint(names[i], names[j], r)
    return net


def cno_chord_cycle(n, chord=lambda: CNO):
    """CGPP|CGPPi around the cycle v0..v{n-1} and chord() on every other
    pair; with CNO chords, the cycle family of search_pc_incompleteness."""
    return net_of(
        n,
        [
            (i, j, CGPP | CGPPI if j == i + 1 or (i, j) == (0, n - 1) else chord())
            for i in range(n)
            for j in range(i + 1, n)
        ],
    )


def upper_pairs(mask):
    """(i, j) with i < j set in the mask, in row-major order."""
    return [(i, j) for i, j in np.argwhere(mask).tolist() if i < j]


def upper_and_lower(mask):
    """Every (i, j) set in the mask, in row-major order."""
    return [tuple(p) for p in np.argwhere(mask).tolist()]


def containment_cycle():
    # v0 inside v1 inside v2 inside v0: unsatisfiable
    return net_of(3, [(0, 1, CGPP), (1, 2, CGPP), (2, 0, CGPP)])


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_finds_scenario_on_consistent_net():
    net = net_of(3, [(0, 1, CG | CGPP), (1, 2, CNO)])
    out = solve_oracle(net)
    assert out.consistent and out.solver == "oracle"
    assert out.witness is None
    assert is_valid_scenario(net, out.scenario)


def test_oracle_rejects_containment_cycle():
    out = solve_oracle(containment_cycle())
    assert not out.consistent
    assert out.scenario is None
    assert out.witness["type"] == "search_exhausted"
    assert out.witness["explored"] > 0


def test_oracle_search_order_is_pinned():
    # Exact counts of the base cases the oracle tries before it gives up, on
    # the path-consistency gap witness and on seeded inconsistent networks
    # with n 4-6 (n = 4 + seed % 3), fix the order of its pairs; an
    # exhausted search visits the same tree whatever order it tries the
    # base cases in, so the first scenario it finds on seeded consistent
    # networks (codes in hex, pairs row by row) fixes that order.
    with open(DATA / "pc_gap_witness.net") as fh:
        out = solve_oracle(parse_network(fh.read()))
    assert out.witness == {"type": "search_exhausted", "explored": 30}
    palette = tuple(Relation(c) for c in range(1, 15))
    pins = {1: 1472, 2: 237, 8: 81, 14: 82, 16: 5, 17: 49, 20: 103, 22: 115, 23: 59, 25: 90, 30: 5}
    for seed, explored in pins.items():
        out = solve_oracle(random_network(4 + seed % 3, 0.8, palette, rng=seed))
        assert out.witness == {"type": "search_exhausted", "explored": explored}
    pins = {5: "112281228228144", 7: "4144218448", 11: "144844484822224", 18: "821884"}
    for seed, codes in pins.items():
        out = solve_oracle(random_network(4 + seed % 3, 0.8, palette, rng=seed))
        assert "".join(f"{code:x}" for _, _, code in out.scenario.pairs) == codes


def test_oracle_scenario_covers_unconstrained_pairs():
    net = net_of(4, [(0, 1, CGPP)])
    out = solve_oracle(net)
    assert len(out.scenario.pairs) == 6
    assert is_valid_scenario(net, out.scenario)


def test_oracle_trivial_sizes():
    assert solve_oracle(net_of(0, [])).consistent
    assert solve_oracle(net_of(1, [])).consistent
    out = solve_oracle(net_of(2, [(0, 1, EMPTY)]))
    assert not out.consistent


def test_oracle_vertex_cap():
    with pytest.raises(ValueError):
        solve_oracle(net_of(7, []))
    assert solve_oracle(net_of(7, []), max_vertices=7).consistent


def test_oracle_self_contradiction():
    net = net_of(2, [])
    net.add_constraint("v0", "v0", CNO)
    out = solve_oracle(net)
    assert not out.consistent
    assert out.witness == {"type": "bottom_edge", "edge": ["v0", "v0"]}


# solve and every solver it dispatches to, forced on any profile.
SOLVERS = (
    solve,
    solve_oracle,
    solve_backtracking,
    solve_m99,
    solve_m81,
    *(lambda net, core=core: solve_trivial_core(net, core) for core in (CG, CNO, CGPP | CGPPI)),
)


def rebuilt_from_matrix(net):
    dup = ConstraintNetwork(net.names)
    dup._m = net.to_array()
    return dup


@pytest.mark.parametrize("rebuild", [ConstraintNetwork.copy, rebuilt_from_matrix])
def test_contradicted_self_loop_survives_a_rebuild(rebuild):
    # An NP-hard profile: the self-loop must beat every solver's ProfileError.
    net = net_of(3, [(0, 1, CGPP | CGPPI), (1, 2, CNO)])
    net.add_constraint("v1", "v1", CNO)
    dup = rebuild(net)
    for solver in SOLVERS:
        out = solver(dup)
        assert not out.consistent
        assert out.witness == {"type": "bottom_edge", "edge": ["v1", "v1"]}


def test_upper_none_beats_every_profile_error():
    # An NP-hard profile with NONE on (v1, v2): no solver gets to its
    # profile check, and the oracle does not search.
    net = net_of(4, [(0, 1, CGPP | CGPPI), (0, 2, CNO), (2, 3, EMPTY), (1, 2, EMPTY)])
    for solver in SOLVERS:
        out = solver(net)
        assert not out.consistent
        assert out.witness == {"type": "bottom_edge", "edge": ["v1", "v2"]}


def first_upper_pair_loop(mask):
    n = len(mask)
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j]:
                return i, j
    return None


def test_first_upper_pair_reads_every_caller_mask_as_the_loop_does():
    # _first_upper_pair takes the first set cell of the whole matrix; that
    # is the first pair above the diagonal only for a symmetric mask with a
    # clear diagonal, so each mask a caller builds must be one.
    rng = np.random.default_rng(27)
    palettes = (tuple(Relation(c) for c in range(16)), tuple(M99), tuple(M81), tuple(M72))
    off_diagonal = ~np.eye(13, dtype=bool)
    for trial in range(240):
        n = trial % 13
        palette = palettes[trial // 13 % len(palettes)]
        net = random_network(n, 0.5, palette, rng=rng) if n else ConstraintNetwork(())
        matrices = [net._m]
        ok, refined = path_consistency(net)
        if ok:
            matrices.append(refined._m)  # a search node
        for m in matrices:
            masks = [(m == 0) & off_diagonal[:n, :n], _OUTSIDE_M99.take(m)]
            masks += [(kinds.take(m) & _REJECT) != 0 for kinds in (_M99_KINDS, _M81_KINDS)]
            for core in _TRIVIAL_CORES:
                masks.append((m & int(core) != int(core)) & off_diagonal[:n, :n])
            for kinds in (_M99_KINDS, _M81_KINDS):
                k = kinds.take(m)
                r = reach_of((k & _LEQ) != 0)
                masks.append(((k & _NLE) != 0) & r & r.T)
            for mask in masks:
                assert np.array_equal(mask, mask.T)
                assert not mask.diagonal().any()
                assert _first_upper_pair(mask) == first_upper_pair_loop(mask)


def test_self_loop_witness_names_the_lowest_vertex():
    # The loops also beat the NONE edge (v0, v1).
    net = net_of(3, [(0, 1, EMPTY)])
    net.add_constraint("v2", "v2", CNO)
    net.add_constraint("v0", "v0", CGPP)
    for solver in SOLVERS:
        assert solver(net).witness == {"type": "bottom_edge", "edge": ["v0", "v0"]}


@pytest.mark.parametrize("solver", SOLVERS)
def test_every_solver_accepts_the_empty_network(solver):
    out = solver(ConstraintNetwork(()))
    assert out.consistent and out.witness is None
    assert out.scenario is None or out.scenario.pairs == ()


# ---------------------------------------------------------------------------
# Backtracking
# ---------------------------------------------------------------------------


def test_backtracking_matches_oracle_on_fixed_cases():
    cases = [
        net_of(3, [(0, 1, CG | CGPP), (1, 2, CNO)]),
        containment_cycle(),
        net_of(4, [(0, 1, CGPP | CGPPI), (1, 2, CGPP | CGPPI), (2, 3, CNO)]),
        net_of(2, [(0, 1, EMPTY)]),
    ]
    for net in cases:
        assert solve_backtracking(net).consistent == solve_oracle(net).consistent


def test_backtracking_scenario_is_valid():
    net = net_of(4, [(0, 1, CGPP | CNO), (1, 2, CG | CGPPI), (0, 3, CNO)])
    out = solve_backtracking(net)
    assert out.consistent and out.solver == "backtracking"
    assert is_valid_scenario(net, out.scenario)


def test_backtracking_root_failure_is_an_exhausted_search():
    net = net_of(3, [(0, 1, CGPP), (1, 2, CGPP), (0, 2, CG)])
    out = solve_backtracking(net)
    assert not out.consistent
    assert out.witness == {"type": "search_exhausted", "explored": 0}


def test_propagate_from_the_narrowed_pair_matches_full_path_consistency():
    # Narrowing one pair of a path-consistent network and propagating from
    # that pair's two ends alone must reach the fixpoint full path
    # consistency reaches.  Each step narrows a random open pair to each of
    # its base cases and walks on from a random child that survives, for at
    # most 40 steps.  On a contradiction only the verdict is compared: which
    # labels hold NONE depends on the pivots swept.
    rng = np.random.default_rng(31)
    palette = tuple(Relation(c) for c in range(1, 15))
    nets = [random_network(int(rng.integers(3, 10)), 0.6, palette, rng=rng) for _ in range(40)]
    nets += [cno_chord_cycle(n) for n in range(5, 9)]
    for codes in ((6, 8), (6, 7, 8, 14)):
        for _ in range(4):
            n = int(rng.integers(20, 41))
            degree = float(rng.uniform(3, 12))
            nets.append(random_network(n, degree / (n - 1), [Relation(c) for c in codes], rng=rng))
    verdicts = set()
    for net in nets:
        ok, closed = path_consistency(net)
        for _ in range(40):
            if not ok:
                break
            m = closed.to_array()
            n = len(m)
            open_pairs = [
                (i, j) for i in range(n) for j in range(i + 1, n) if cardinality(Relation(m[i, j])) > 1
            ]
            if not open_pairs:
                break
            i, j = open_pairs[int(rng.integers(len(open_pairs)))]
            survivors = []
            for base in basics(Relation(m[i, j])):
                child = closed.copy()
                child.add_constraint(child.names[i], child.names[j], base)
                expected_ok, expected = path_consistency(child)
                labels = child.to_array()
                assert _propagate(labels, (i, j)) == expected_ok
                verdicts.add((n >= 20, expected_ok))
                if expected_ok:
                    assert np.array_equal(labels, expected.to_array())
                    survivors.append(expected)
            ok = bool(survivors)
            if ok:
                closed = survivors[int(rng.integers(len(survivors)))]
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def reference_backtracking(net):
    """Verdict of the atom-by-atom search with a full path-consistency run
    at every node: copy the network, commit one base case of the pair with
    the fewest, close it again, until every label is a base case."""

    def search(cur):
        m = cur.to_array()
        n = len(cur)
        open_pairs = [
            (cardinality(Relation(m[i, j])), i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if cardinality(Relation(m[i, j])) > 1
        ]
        if not open_pairs:
            return True
        _, i, j = min(open_pairs)
        for base in basics(Relation(m[i, j])):
            child = cur.copy()
            child.add_constraint(cur.names[i], cur.names[j], base)
            ok, closed = path_consistency(child)
            if ok and search(closed):
                return True
        return False

    ok, refined = path_consistency(net)
    return ok and search(refined)


M99_SPLITS = {CGPP | CGPPI: (CGPP, CGPPI), CG | CGPP | CGPPI: (CG | CGPP, CGPPI)}


def reference_m99_search(net):
    """The search solve_backtracking runs, with a full path-consistency run
    at every node: copy the network, commit one M99 half of the first label
    outside M99 in row-major order, close it again; a node with no such
    label left is decided by solve_m99.  Returns (consistent, explored,
    leaf), leaf the closed network of the accepting node or None; a root
    that fails path consistency explores nothing."""
    explored = 0
    leaf = None

    def search(cur):
        nonlocal explored, leaf
        m = cur.to_array()
        n = len(cur)
        outside = [
            (i, j) for i in range(n) for j in range(i + 1, n) if Relation(m[i, j]) in M99_SPLITS
        ]
        if not outside:
            leaf = cur
            return solve_m99(cur).consistent
        i, j = outside[0]
        for half in M99_SPLITS[Relation(m[i, j])]:
            explored += 1
            child = cur.copy()
            child.add_constraint(cur.names[i], cur.names[j], half)
            ok, closed = path_consistency(child)
            if ok and search(closed):
                return True
        return False

    ok, refined = path_consistency(net)
    consistent = ok and search(refined)
    return consistent, explored, leaf if consistent else None


def test_backtracking_matches_the_full_path_consistency_search():
    # Verdicts against the atom-by-atom search; the search tree, through
    # its node count and its accepting leaf, against the same M99 search
    # run with full path consistency at every node.  The networks with
    # n 20-40 and average degree 4-12 branch dozens of times, so they pin
    # the branch order on deep searches; the atom-by-atom search is too
    # slow for them.
    rng = np.random.default_rng(9)
    palette = tuple(Relation(c) for c in range(1, 15))
    nets = [
        random_network(int(rng.integers(3, 13)), float(rng.uniform(0.3, 0.9)), palette, rng=rng)
        for _ in range(150)
    ]
    chords = (CNO, CNO, CNO, CGPP | CGPPI | CNO, CGPP | CGPPI)
    for n in range(5, 9):
        nets.append(cno_chord_cycle(n))
        for _ in range(10):
            nets.append(cno_chord_cycle(n, lambda: chords[int(rng.integers(len(chords)))]))
    small = len(nets)
    palettes = ((CGPP | CGPPI, CNO), (CGPP | CGPPI, CG | CGPP | CGPPI, CNO, CGPP | CGPPI | CNO))
    for k in range(40):
        n = int(rng.integers(20, 41))
        degree = float(rng.uniform(4, 12))
        nets.append(random_network(n, degree / (n - 1), palettes[k % 2], rng=rng))
    witnesses = set()
    deep = []
    for k, net in enumerate(nets):
        consistent, explored, leaf = reference_m99_search(net)
        if k < small:
            assert consistent == reference_backtracking(net)
        out = solve_backtracking(net)
        assert out.consistent == consistent
        if consistent:
            assert is_valid_scenario(net, out.scenario)
            assert is_valid_scenario(leaf, out.scenario)
        else:
            assert out.witness == {"type": "search_exhausted", "explored": explored}
        witnesses.add(out.witness["type"] if out.witness else None)
        if k >= small:
            deep.append((consistent, explored))
    assert witnesses == {None, "search_exhausted"}
    assert sum(explored >= 20 for _, explored in deep) >= 20
    assert any(not consistent and explored > 0 for consistent, explored in deep)


@pytest.mark.parametrize("catalog, decider", [(M99, solve_m99), (M81, solve_m81)])
def test_backtracking_agrees_with_the_polynomial_deciders(catalog, decider):
    # Beyond the oracle's reach, at n 10-40: random networks labelled inside
    # M99 or M81, sparse enough that both verdicts occur, and planted ones
    # with one label tightened to exclude its hidden case.
    rng = np.random.default_rng(41)
    palette = tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
    nets = []
    for _ in range(40):
        n = int(rng.integers(10, 41))
        nets.append(random_network(n, float(rng.uniform(1, 6)) / n, palette, rng=rng))
    for _ in range(10):
        net, hidden = planted_network(int(rng.integers(10, 41)), rng, catalog)
        tightenable = []
        for (i, j), base in hidden.items():
            tight = Relation(int(net._m[i, j]) & ~int(base))
            if tight != EMPTY and tight in catalog:
                tightenable.append((i, j, tight))
        i, j, tight = tightenable[int(rng.integers(len(tightenable)))]
        net.add_constraint(f"v{i}", f"v{j}", tight)
        nets.append(net)
    verdicts = set()
    for net in nets:
        out = solve_backtracking(net)
        assert out.consistent == decider(net).consistent
        if out.consistent:
            assert is_valid_scenario(net, out.scenario)
        verdicts.add(out.consistent)
    assert verdicts == {True, False}


def test_backtracking_decides_the_hard_cgpp_cgppi_cno_instance():
    # n=60 at average degree 12 over {CGPP|CGPPi, CNO}: the atom-by-atom
    # search had not finished it after 100 s; branching only out of M99
    # exhausts it after 266 commitments.
    net = random_network(60, 12 / 59, (CGPP | CGPPI, CNO), rng=0)
    out = solve_backtracking(net)
    assert out.witness == {"type": "search_exhausted", "explored": 266}


def test_search_splits_each_label_outside_m99_into_two_m99_labels():
    # _OUTSIDE_M99 is read off _M99_KINDS, and the search tries r & LEQ,
    # then r & ~LEQ.  The accepting leaves that
    # test_backtracking_matches_the_full_path_consistency_search compares
    # hang on that order; an exhausted search's explored count does not,
    # as it tries every child.
    outside = np.flatnonzero(_OUTSIDE_M99).tolist()
    assert outside == [6, 7]
    for r in outside:
        halves = (r & int(LEQ), r & ~int(LEQ))
        assert all(h != EMPTY and Relation(h) in M99 for h in halves)
        assert halves[0] | halves[1] == r


def test_backtracking_search_runs_deeper_than_the_recursion_limit():
    # 120 vertices at density 0.15 over CGPP|CGPPi, with (v0, v1) narrowed
    # to CNO: the accepting path commits on more pairs than Python's default
    # recursion limit could stack as nested calls.
    net = random_network(120, 0.15, (CGPP | CGPPI,), rng=1)
    net.add_constraint("v0", "v1", CNO)
    assert net._m[0, 1] == CNO
    out = solve(net)
    assert out.consistent and out.solver == "backtracking"
    assert is_valid_scenario(net, out.scenario)


def label_read_scenario(net):
    """The search's leaf rule: CG from CG, CGPP from CGPP and CG|CGPP,
    CGPPi from their converses, CNO from every other label."""
    atom = {CG: CG, CGPP: CGPP, CG | CGPP: CGPP, CGPPI: CGPPI, CG | CGPPI: CGPPI}
    m = net.to_array()
    n = len(net)
    return Scenario(
        tuple(
            (i, j, int(atom.get(Relation(int(m[i, j])), CNO)))
            for i in range(n)
            for j in range(i + 1, n)
        )
    )


def sparse_and_tightened_networks(rng, catalog):
    """150 random networks over the catalog, sparse enough that both
    verdicts occur, and 20 planted ones with one label tightened to exclude
    its hidden case."""
    palette = tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
    nets = []
    for _ in range(150):
        n = int(rng.integers(2, 41))
        density = min(1.0, float(rng.uniform(0.5, 6)) / n)
        nets.append(random_network(n, density, palette, rng=rng))
    for _ in range(20):
        net, hidden = planted_network(int(rng.integers(2, 41)), rng, catalog)
        tightenable = []
        for (i, j), base in hidden.items():
            tight = Relation(int(net._m[i, j]) & ~int(base))
            if tight != EMPTY and tight in catalog:
                tightenable.append((i, j, tight))
        if tightenable:
            i, j, tight = tightenable[int(rng.integers(len(tightenable)))]
            net.add_constraint(f"v{i}", f"v{j}", tight)
        nets.append(net)
    return nets


def test_path_consistency_decides_m99():
    # On M99 labels path consistency agrees with the M99 decider, and the
    # refined network's labels read off a scenario.
    verdicts = set()
    for net in sparse_and_tightened_networks(np.random.default_rng(99), M99):
        ok, refined = path_consistency(net)
        assert ok == solve_m99(net).consistent
        if ok:
            assert is_valid_scenario(net, label_read_scenario(refined))
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_path_consistency_decides_m81():
    # The same verdicts on M81 labels.
    verdicts = set()
    for net in sparse_and_tightened_networks(np.random.default_rng(81), M81):
        ok = path_consistency(net)[0]
        assert ok == solve_m81(net).consistent
        verdicts.add(ok)
    assert verdicts == {True, False}


# The smallest path-consistency fixpoints inside M99 and M81 whose labels
# are not minimal: the named pair keeps CG in its label, yet no scenario
# puts CG there.
M99_FIXPOINT = (
    (0, 1, CG | CNO),
    (0, 2, CGPP | CNO),
    (0, 3, CG | CGPP | CNO),
    (1, 2, CG | CGPP),
    (1, 3, CG | CGPP),
    (2, 3, CG | CGPP | CNO),
)
M81_FIXPOINT = (
    (0, 1, CGPP | CGPPI),
    (0, 2, CG | CGPPI),
    (0, 3, CG | CGPP),
    (1, 2, CG | CGPPI),
    (1, 3, CG | CGPP),
    (2, 3, CG | CGPP),
)


@pytest.mark.parametrize(
    "constraints, solver, pair",
    [(M99_FIXPOINT, "m99", (0, 3)), (M81_FIXPOINT, "m81", (2, 3))],
)
def test_path_consistency_fixpoint_is_not_minimal(constraints, solver, pair):
    net = net_of(4, constraints)
    ok, refined = path_consistency(net)
    assert ok
    assert np.array_equal(refined.to_array(), net.to_array())
    out = solve(net)
    assert (out.consistent, out.solver) == (True, solver)
    i, j = pair
    assert CG in Relation(int(net.to_array()[i, j]))
    narrowed = net.copy()
    narrowed.add_constraint(f"v{i}", f"v{j}", CG)
    assert not solve_oracle(narrowed).consistent


def test_compositions_outside_m99_without_cno_come_from_cg():
    # Propagation moves a label out of M99 only by copying one: a
    # composition that holds no CNO but holds CGPP|CGPPi is CG composed
    # with the other operand.
    for x in range(1, 16):
        for y in range(1, 16):
            out = _COMPOSE_CODE[x][y]
            if out & CNO or out & (CGPP | CGPPI) != CGPP | CGPPI:
                continue
            assert CG in (x, y)
            assert out == (y if x == CG else x)


def test_backtracking_matches_oracle_on_random_sweep():
    rng = np.random.default_rng(123)
    palette = tuple(Relation(c) for c in range(1, 15))
    for _ in range(300):
        n = int(rng.integers(3, 6))
        net = random_network(n, 0.8, palette, rng=rng)
        assert solve_backtracking(net).consistent == solve_oracle(net).consistent


def test_complete_solvers_fail_the_same_way():
    # Both answer a NONE in the input with the same bottom_edge, and every
    # other inconsistency, a root that path consistency rejects included,
    # with an exhausted search.
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(3000):
        palette = [Relation(int(c)) for c in rng.choice(16, size=int(rng.integers(1, 5)))]
        net = random_network(int(rng.integers(1, 7)), float(rng.random()), palette, rng=rng)
        if rng.random() < 0.05:
            net.add_constraint("v0", "v0", CGPP | CNO)
        oracle, search = solve_oracle(net), solve_backtracking(net)
        assert oracle.consistent == search.consistent
        if oracle.consistent:
            continue
        assert oracle.witness["type"] == search.witness["type"]
        if oracle.witness["type"] == "bottom_edge":
            assert oracle.witness == search.witness
        seen.add(oracle.witness["type"])
    assert seen == {"bottom_edge", "search_exhausted"}


# ---------------------------------------------------------------------------
# Trivial cores
# ---------------------------------------------------------------------------


def test_trivial_core_accepts_and_produces_canonical_scenarios():
    for core, fill in ((CG, CG), (CNO, CNO), (CGPP | CGPPI, CGPP)):
        net = net_of(4, [(0, 1, core | CNO if core != CNO else core), (2, 3, UNIVERSAL)])
        out = solve_trivial_core(net, core)
        assert out.consistent and out.solver == "trivial-core"
        assert is_valid_scenario(net, out.scenario)
        assert all(code == int(fill) for _, _, code in out.scenario.pairs)


def test_trivial_core_table_gives_the_catalogs_and_canonical_atoms():
    # One table defines M72, M78 and M31, classify's order, and the lowest
    # base case of each core, which solve_trivial_core gives every pair.
    assert list(_TRIVIAL_CORES) == [CG, CNO, CGPP | CGPPI]
    assert list(_TRIVIAL_CORES.values()) == [M72, M78, M31]
    for core, atom in zip(_TRIVIAL_CORES, (CG, CNO, CGPP)):
        out = solve_trivial_core(net_of(3, []), core)
        assert {code for _, _, code in out.scenario.pairs} == {int(atom)}


def test_trivial_core_inconsistent_only_on_explicit_bottom():
    net = net_of(3, [(0, 1, CG | CNO), (1, 2, EMPTY)])
    out = solve_trivial_core(net, CG)
    assert not out.consistent
    assert out.witness == {"type": "bottom_edge", "edge": ["v1", "v2"]}


def test_trivial_core_reports_the_first_pair_in_row_major_order():
    # (1, 2) comes first column by column, (0, 3) comes first row by row.
    net = net_of(4, [(1, 2, EMPTY), (0, 3, EMPTY)])
    out = solve_trivial_core(net, CG)
    assert out.witness == {"type": "bottom_edge", "edge": ["v0", "v3"]}
    # The NONE on (v0, v1) wins over the labels outside the profile.
    stray = [(1, 2, CGPP), (0, 3, CNO)]
    out = solve_trivial_core(net_of(4, stray + [(0, 1, EMPTY)]), CG)
    assert out.witness == {"type": "bottom_edge", "edge": ["v0", "v1"]}
    with pytest.raises(ProfileError) as info:
        solve_trivial_core(net_of(4, stray), CG)
    assert str(info.value) == "label CNO on (v0, v3) neither is NONE nor contains CG"
    # The CG diagonal holds neither of the other two cores.
    net = net_of(4, [(1, 2, CG), (0, 3, CG)])
    for core, spelling in ((CNO, "CNO"), (CGPP | CGPPI, "CGPP|CGPPi")):
        with pytest.raises(ProfileError) as info:
            solve_trivial_core(net, core)
        assert str(info.value) == f"label CG on (v0, v3) neither is NONE nor contains {spelling}"


def test_trivial_core_profile_errors():
    net = net_of(2, [(0, 1, CGPP)])
    with pytest.raises(ProfileError):
        solve_trivial_core(net, CG)
    with pytest.raises(ValueError):
        solve_trivial_core(net_of(2, []), CGPP)


def test_trivial_core_chain_scenario_is_closed_at_scale():
    net = net_of(6, [(i, j, CGPP | CGPPI | CNO) for i in range(6) for j in range(i + 1, 6)])
    out = solve_trivial_core(net, CGPP | CGPPI)
    assert out.consistent
    assert is_valid_scenario(net, out.scenario)


# ---------------------------------------------------------------------------
# Gadget translation
# ---------------------------------------------------------------------------


def test_gadget_m99_shapes():
    net = net_of(
        4,
        [
            (0, 1, CG),
            (0, 2, CGPP | CNO),          # conditional pair (0, 2)
            (1, 2, CNO),                 # conditional pairs (1, 2), (2, 1)
            (2, 3, CG | CGPPI | CNO),    # conditional pair (3, 2)
        ],
    )
    g = to_gadget_m99(net)
    assert isinstance(g, GadgetGraph)
    for mask in (g.leq, g.eqx, g.nle):
        assert mask.shape == (4, 4) and mask.dtype == bool
    # every vertex has its loop; only CG gives arcs between vertices, one each way
    assert g.leq.diagonal().all()
    assert upper_and_lower(g.leq & ~np.eye(4, dtype=bool)) == [(0, 1), (1, 0)]
    assert upper_and_lower(g.eqx) == [(0, 2), (1, 2), (2, 1), (3, 2)]
    # CGPP|CNO and CNO carry NLE; CG|CGPPi|CNO does not
    assert upper_pairs(g.nle) == [(0, 2), (1, 2)]
    assert (g.nle == g.nle.T).all()


def test_gadget_m99_rejects_out_of_profile_labels():
    with pytest.raises(ProfileError):
        to_gadget_m99(net_of(2, [(0, 1, CGPP | CGPPI)]))
    with pytest.raises(ProfileError):
        to_gadget_m99(net_of(2, [(0, 1, CG | CGPP | CGPPI)]))


def test_gadget_m81_shapes():
    net = net_of(
        3,
        [(0, 1, CG | CGPP), (1, 2, CGPP | CGPPI), (0, 2, EMPTY)],
    )
    g = to_gadget_m81(net)
    assert upper_and_lower(g.leq & ~np.eye(3, dtype=bool)) == [(0, 1)]
    assert not g.eqx.any()
    assert upper_pairs(g.nle) == [(1, 2)]


def test_gadget_m81_rejects_out_of_profile_labels():
    with pytest.raises(ProfileError):
        to_gadget_m81(net_of(2, [(0, 1, CNO)]))
    with pytest.raises(ProfileError):
        to_gadget_m81(net_of(2, [(0, 1, CGPP | CNO)]))


# Gadget masks of a label on (0, 1) of a 2-vertex network, per code:
# leq[0, 1], leq[1, 0], eqx[0, 1], eqx[1, 0], nle[0, 1].  None marks a
# label the decider rejects.
GADGET_CELLS = {
    "m99": [
        (0, 0, 0, 0, 0),  # NONE
        (1, 1, 0, 0, 0),  # CG
        (1, 0, 0, 0, 1),  # CGPP
        (1, 0, 0, 0, 0),  # CG|CGPP
        (0, 1, 0, 0, 1),  # CGPPi
        (0, 1, 0, 0, 0),  # CG|CGPPi
        None,             # CGPP|CGPPi
        None,             # CG|CGPP|CGPPi
        (0, 0, 1, 1, 1),  # CNO
        (0, 0, 1, 1, 0),  # CG|CNO
        (0, 0, 1, 0, 1),  # CGPP|CNO
        (0, 0, 1, 0, 0),  # CG|CGPP|CNO
        (0, 0, 0, 1, 1),  # CGPPi|CNO
        (0, 0, 0, 1, 0),  # CG|CGPPi|CNO
        (0, 0, 0, 0, 1),  # CGPP|CGPPi|CNO
        (0, 0, 0, 0, 0),  # ALL
    ],
    "m81": [
        (0, 0, 0, 0, 0),  # NONE
        (1, 1, 0, 0, 0),  # CG
        (1, 0, 0, 0, 1),  # CGPP
        (1, 0, 0, 0, 0),  # CG|CGPP
        (0, 1, 0, 0, 1),  # CGPPi
        (0, 1, 0, 0, 0),  # CG|CGPPi
        (0, 0, 0, 0, 1),  # CGPP|CGPPi
        (0, 0, 0, 0, 0),  # CG|CGPP|CGPPi
        None,             # CNO
        None,             # CG|CNO
        None,             # CGPP|CNO
        None,             # CG|CGPP|CNO
        None,             # CGPPi|CNO
        None,             # CG|CGPPi|CNO
        (0, 0, 0, 0, 1),  # CGPP|CGPPi|CNO
        (0, 0, 0, 0, 0),  # ALL
    ],
}


@pytest.mark.parametrize("code", range(16))
def test_gadget_translation_of_every_label(code):
    net = net_of(2, [(0, 1, Relation(code))])
    for name, catalog, to_gadget in (("m99", M99, to_gadget_m99), ("m81", M81, to_gadget_m81)):
        expected = GADGET_CELLS[name][code]
        assert (expected is None) == (Relation(code) not in catalog)
        if expected is None:
            with pytest.raises(ProfileError):
                to_gadget(net)
            continue
        g = to_gadget(net)
        cells = (g.leq[0, 1], g.leq[1, 0], g.eqx[0, 1], g.eqx[1, 0], g.nle[0, 1])
        assert tuple(map(int, cells)) == expected, name


def test_gadget_profile_error_names_the_first_pair_in_row_major_order():
    # (1, 2) comes first column by column, (0, 3) comes first row by row.
    net = net_of(4, [(1, 2, CGPP | CGPPI), (0, 3, CG | CGPP | CGPPI)])
    with pytest.raises(ProfileError) as info:
        solve_m99(net)
    assert str(info.value) == "label CG|CGPP|CGPPi on (v0, v3) is outside the M99 subalgebra"
    net = net_of(4, [(1, 2, CNO), (0, 3, CGPPI | CNO)])
    with pytest.raises(ProfileError) as info:
        solve_m81(net)
    assert str(info.value) == "label CGPPi|CNO on (v0, v3) is outside the M81 subalgebra"


# ---------------------------------------------------------------------------
# Polynomial deciders
# ---------------------------------------------------------------------------


def test_m99_decides_forced_congruence_clash():
    # v0 <= v1 <= v2 <= v0 forces all three congruent, yet v0 is marked
    # strictly inside v1
    net = net_of(3, [(0, 1, CGPP), (1, 2, CG | CGPP), (2, 0, CG | CGPP)])
    out = solve_m99(net)
    assert not out.consistent
    assert out.witness["type"] == "cycle_chord"
    assert out.witness["cycle"] == ["v0", "v1", "v2"]
    assert out.witness["chord"] == ["v0", "v1"]
    assert not solve_oracle(net).consistent


def test_m99_uses_eqx_forcing_through_leq_paths():
    # v0 <= v1, v1 EQX v2, v2 <= v0, and v0 not congruent to v1:
    # the LEQ path v2 <= v0 <= v1 turns EQX into congruence, collapsing all
    # three into one cluster that the NLE edge then contradicts
    net = net_of(
        3,
        [(0, 1, CGPP), (1, 2, CG | CNO), (2, 0, CG | CGPP)],
    )
    out = solve_m99(net)
    assert not out.consistent
    assert out.witness["type"] == "cycle_chord"
    assert out.witness["cycle"] == ["v0", "v1", "v2"]
    assert solve_oracle(net).consistent is False


def test_m99_consistent_when_eqx_is_unforced():
    # same as above but without the closing LEQ path: satisfiable
    net = net_of(3, [(0, 1, CGPP), (1, 2, CG | CNO)])
    out = solve_m99(net)
    assert out.consistent
    assert out.witness is None and out.scenario is None
    assert solve_oracle(net).consistent


def test_m81_decides_cycles():
    net = net_of(3, [(0, 1, CG | CGPP), (1, 2, CG | CGPP), (2, 0, CGPP)])
    out = solve_m81(net)
    assert not out.consistent
    assert out.witness["type"] == "cycle_chord"
    assert sorted(out.witness["chord"]) == ["v0", "v2"]
    relaxed = net_of(3, [(0, 1, CG | CGPP), (1, 2, CG | CGPP), (2, 0, CGPP | CGPPI)])
    assert solve_m81(relaxed).consistent


def test_m99_bottom_witness():
    for solver in (solve_m99, solve_m81):
        out = solver(net_of(2, [(0, 1, EMPTY)]))
        assert not out.consistent
        assert out.witness == {"type": "bottom_edge", "edge": ["v0", "v1"]}
        # the first NONE pair in row-major order, not in column-major order
        out = solver(net_of(4, [(1, 2, EMPTY), (0, 3, EMPTY)]))
        assert out.witness == {"type": "bottom_edge", "edge": ["v0", "v3"]}


def test_cycle_chord_is_the_first_contradicted_nle_pair():
    # (0, 1) is the first NLE pair but v0 stays apart from v1.  The LEQ
    # cycles v0 <= v3 <= v4 <= v0 and v1 <= v2 <= v5 <= v1 contradict the
    # NLE pairs (0, 3), first row by row, and (1, 2), first column by column.
    net = net_of(
        6,
        [
            (0, 1, CGPP),
            (0, 3, CGPP),
            (3, 4, CG | CGPP),
            (0, 4, CG | CGPPI),
            (1, 2, CGPP),
            (2, 5, CG | CGPP),
            (1, 5, CG | CGPPI),
        ],
    )
    out = solve_m81(net)
    assert out.witness == {
        "type": "cycle_chord",
        "cycle": ["v0", "v3", "v4"],
        "chord": ["v0", "v3"],
    }
    assert solve_m99(net).witness == out.witness


def test_polynomial_deciders_match_oracle_on_random_sweeps():
    rng = np.random.default_rng(77)
    for catalog, fn in ((M99, solve_m99), (M81, solve_m81)):
        palette = tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
        for _ in range(400):
            n = int(rng.integers(2, 6))
            net = random_network(n, 0.8, palette, rng=rng)
            assert fn(net).consistent == solve_oracle(net).consistent


def planted_network(n, rng, catalog):
    """A consistent network hiding the dominance preorder of n points on an
    8x8 grid (equal points CG, dominated CGPP, incomparable CNO), each pair
    relaxed to a random superset of its hidden base case taken from the
    catalog.  Returns the network and the hidden case per pair."""
    points = rng.integers(0, 8, size=(n, 2))
    supersets = {b: [r for r in sorted(catalog) if r & b] for b in (CG, CGPP, CGPPI, CNO)}
    hidden = {}
    constraints = []
    for i in range(n):
        for j in range(i + 1, n):
            le = bool(np.all(points[i] <= points[j]))
            ge = bool(np.all(points[i] >= points[j]))
            base = CG if le and ge else CGPP if le else CGPPI if ge else CNO
            hidden[i, j] = base
            choices = supersets[base]
            constraints.append((i, j, choices[int(rng.integers(len(choices)))]))
    return net_of(n, constraints), hidden


def test_m99_agrees_with_backtracking_on_planted_networks():
    rng = np.random.default_rng(2026)
    verdicts = set()
    for _ in range(12):
        n = int(rng.integers(20, 41))
        net, hidden = planted_network(n, rng, M99)
        assert solve_m99(net).consistent
        # tighten one label so that it excludes the hidden case
        tightenable = []
        for (i, j), base in hidden.items():
            tight = Relation(int(net._m[i, j]) & ~int(base))
            if tight != EMPTY and tight in M99:
                tightenable.append((i, j, tight))
        i, j, tight = tightenable[int(rng.integers(len(tightenable)))]
        net.add_constraint(f"v{i}", f"v{j}", tight)
        out = solve_m99(net)
        assert out.consistent == solve_backtracking(net).consistent
        verdicts.add(out.consistent)
    assert False in verdicts


def test_solve_finds_valid_scenarios_on_planted_general_networks():
    rng = np.random.default_rng(2027)
    catalog = tuple(Relation(c) for c in range(16))
    for _ in range(12):
        net, _ = planted_network(int(rng.integers(20, 41)), rng, catalog)
        out = solve(net)
        assert out.classification.kind is Kind.NP_HARD
        assert out.consistent and is_valid_scenario(net, out.scenario)


def test_m99_forcing_takes_two_rounds():
    # v2 <= v0 <= v1 turns CG|CNO on (v1, v2) into congruence; only that
    # merge opens the path v3 <= v1 = v2 <= v4, which in turn forces
    # CGPPi|CNO on (v3, v4) to congruence and contradicts its NLE edge
    constraints = [
        (0, 1, CG | CGPP),
        (2, 0, CG | CGPP),
        (1, 2, CG | CNO),
        (3, 1, CG | CGPP),
        (2, 4, CG | CGPP),
    ]
    net = net_of(5, constraints + [(3, 4, CGPPI | CNO)])
    out = solve_m99(net)
    assert not out.consistent and not solve_oracle(net).consistent
    assert out.witness == {
        "type": "cycle_chord",
        "cycle": ["v0", "v1", "v2", "v3", "v4"],
        "chord": ["v3", "v4"],
    }
    # with CG allowed on (v3, v4) the forced merges are all satisfiable
    relaxed = net_of(5, constraints + [(3, 4, CG | CGPPI | CNO)])
    assert solve_m99(relaxed).consistent and solve_oracle(relaxed).consistent


def reference_reach(arcs, n):
    """Vertices each vertex reaches over the arc set, itself included."""
    succ = [[] for _ in range(n)]
    for w, x in arcs:
        succ[w].append(x)
    out = []
    for u in range(n):
        seen, stack = {u}, [u]
        while stack:
            w = stack.pop()
            for x in succ[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        out.append(seen)
    return out


def reach_of(leq):
    """_closure(leq) as a matrix: all ones where _closure returns None."""
    r = _closure(leq)
    return np.ones_like(leq) if r is None else r


def closure_of(n, arcs):
    leq = np.eye(n, dtype=bool)
    for u, v in arcs:
        leq[u, v] = True
    return _closure(leq)


def chain_reach(order):
    """Reach matrix of the path order[0] -> order[1] -> ...: each vertex
    reaches itself and every later one."""
    n = len(order)
    r = np.zeros((n, n), dtype=bool)
    for k, u in enumerate(order):
        r[u, order[k:]] = True
    return r


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130])
def test_closure_matches_the_set_reference(n):
    # About 1.5 arcs per vertex, then nearly a third of all pairs; sizes
    # fall on, just below and just above multiples of the 8-pivot block.
    rng = np.random.default_rng(n)
    for p in (min(1.0, 1.5 / n), 0.3):
        leq = rng.random((n, n)) < p
        np.fill_diagonal(leq, True)
        reach = reference_reach(set(map(tuple, np.argwhere(leq).tolist())), n)
        expected = np.zeros((n, n), dtype=bool)
        for u, seen in enumerate(reach):
            expected[u, list(seen)] = True
        r = _closure(leq)
        assert (r is None) == expected.all()
        assert np.array_equal(reach_of(leq), expected)


def test_closure_follows_chains_within_and_across_blocks():
    # v7 -> v6 -> ... -> v0 takes seven steps inside one block.
    order = list(range(7, -1, -1))
    assert np.array_equal(closure_of(8, zip(order, order[1:])), chain_reach(order))
    # 7 -> 16 -> 6 -> 15 -> ... -> 0 -> 9 -> 8 alternates between the first
    # block and the vertices above it, v16 alone in the last, partial block.
    order = [v for pair in zip(range(7, -1, -1), range(16, 8, -1)) for v in pair] + [8]
    assert np.array_equal(closure_of(17, zip(order, order[1:])), chain_reach(order))


def test_closure_stops_only_on_an_all_ones_matrix():
    # A vertex joined both ways to every other one fills the matrix at its
    # own block: the first for hub 3, the third for hub 20.
    for hub in (3, 20):
        arcs = [(hub, v) for v in range(30)] + [(v, hub) for v in range(30)]
        assert closure_of(30, arcs) is None
    # Row 0 is full from the start, while v29 -> v28 -> ... -> v1 needs
    # every block.
    order = list(range(29, 0, -1))
    arcs = [(0, v) for v in range(30)] + list(zip(order, order[1:]))
    assert np.array_equal(closure_of(30, arcs), chain_reach([0] + order))


def numpy_warshall(leq):
    """Warshall's algorithm one pivot at a time on a boolean matrix."""
    r = leq.copy()
    for k in range(len(r)):
        r |= r[:, k, None] & r[k]
    return r


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_closure_matches_a_numpy_warshall(n):
    # Many byte columns, and at 257 and 300 a partial last block, whose
    # OR-table reads the zero rows of the padded block buffer.
    rng = np.random.default_rng(n)
    for p in (1.5 / n, 0.3):
        leq = rng.random((n, n)) < p
        np.fill_diagonal(leq, True)
        expected = numpy_warshall(leq)
        assert (_closure(leq) is None) == expected.all()
        assert np.array_equal(reach_of(leq), expected)


def test_closure_stops_at_a_late_block():
    # A hub joined both ways to every vertex fills the matrix only at its
    # own block, 8-pivot block 36 of 38 for v290, and the closure stops
    # there; a sparse chain keeps the earlier blocks busy.
    n, hub = 300, 290
    leq = np.eye(n, dtype=bool)
    leq[hub] = leq[:, hub] = True
    leq[np.arange(n - 1), np.arange(1, n)] = True
    before_hub = leq.copy()
    for k in range(8 * (hub // 8)):
        before_hub |= before_hub[:, k, None] & before_hub[k]
    assert not before_hub.all()
    assert _closure(leq) is None


def reference_detect(g, names, *, rounds=False):
    """detect_m99 from sets: close the LEQ arcs, add a -> b for every
    conditional pair (a, b) whose b reaches a until none is new, and name
    the first mutually reachable NLE pair of the upper triangle with its
    mutual-reachability class.  With rounds=True the number of firing
    rounds, the rounds that added an arc, comes third."""
    n = len(names)
    arcs = set(map(tuple, np.argwhere(g.leq).tolist()))
    eqx = np.argwhere(g.eqx).tolist()
    fired = 0
    while True:
        reach = reference_reach(arcs, n)
        new = {(a, b) for a, b in eqx if a in reach[b] and b not in reach[a]}
        if not new:
            break
        arcs |= new
        fired += 1
    out = True, None
    for u, v in ((u, v) for u in range(n) for v in range(u + 1, n)):
        if g.nle[u, v] and v in reach[u] and u in reach[v]:
            cycle = [names[w] for w in range(n) if w in reach[u] and u in reach[w]]
            out = False, {"type": "cycle_chord", "cycle": cycle, "chord": [names[u], names[v]]}
            break
    return (*out, fired) if rounds else out


def test_detect_matches_the_set_reference():
    # Sparse gadgets keep both verdicts; dense ones collapse into one
    # reachability class before any firing, where the closure stops early.
    rng = np.random.default_rng(4)
    verdicts, collapsed = set(), 0
    for catalog, to_gadget in ((M99, to_gadget_m99), (M81, to_gadget_m81)):
        palette = tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
        for k in range(150):
            n = int(rng.integers(2, 61))
            if k % 5 == 0:
                density = float(rng.uniform(0.5, 1))
            else:
                density = min(1.0, float(rng.uniform(0.5, 4)) / n)
            net = random_network(n, density, palette, rng=rng)
            g = to_gadget(net)
            expected = reference_detect(g, net.names)
            assert detect_m99(g, net.names) == expected
            verdicts.add(expected[0])
            leq_arcs = set(map(tuple, np.argwhere(g.leq).tolist()))
            collapsed += all(len(r) == n for r in reference_reach(leq_arcs, n))
    assert verdicts == {True, False}
    assert collapsed


def test_a_closure_that_fills_the_matrix_gives_the_firing_answer(monkeypatch):
    """Dense M99 and M81 networks whose LEQ closure is all ones are
    answered without firing: the same verdict and witness as the set
    reference and as firing from the all-ones reach matrix, a chord that
    is the first NLE pair and a cycle of every name in index order.  An
    all-CG network is consistent."""
    rng = np.random.default_rng(8)
    fills = []
    for catalog, to_gadget in ((M99, to_gadget_m99), (M81, to_gadget_m81)):
        palette = tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))
        for n in (2, 3, 9, 17, 40, 130):
            for density in (0.9, 1.0):
                net = random_network(n, density, palette, rng=rng)
                g = to_gadget(net)
                if _closure(g.leq) is not None:
                    continue
                fills.append(n)
                got = detect_m99(g, net.names)
                assert got == reference_detect(g, net.names)
                with monkeypatch.context() as m:
                    m.setattr("mc4.solvers._closure", np.ones_like)
                    assert detect_m99(g, net.names) == got
                if got[0]:
                    assert not g.nle.any()
                    continue
                u, v = map(net.names.index, got[1]["chord"])
                assert (u, v) == divmod(int(np.flatnonzero(g.nle).min()), n)
                assert got[1]["cycle"] == list(net.names)
    assert max(fills) == 130
    all_cg = net_of(50, [(i, j, CG) for i in range(50) for j in range(i + 1, 50)])
    for to_gadget in (to_gadget_m99, to_gadget_m81):
        g = to_gadget(all_cg)
        assert _closure(g.leq) is None
        assert detect_m99(g, all_cg.names) == (True, None)


def tightened(net, hidden, rng):
    """Copy of a planted network with one random label cut to an M99 label
    that excludes the pair's hidden base case."""
    cuts = []
    for (i, j), base in hidden.items():
        cut = Relation(int(net._m[i, j]) & ~int(base))
        if cut != EMPTY and cut in M99:
            cuts.append((i, j, cut))
    i, j, cut = cuts[int(rng.integers(len(cuts)))]
    out = net.copy()
    out.add_constraint(f"v{i}", f"v{j}", cut)
    return out


def test_detect_matches_the_set_reference_over_several_firing_rounds():
    # Planted dominance networks, each also with one label tightened to
    # exclude its hidden case, so the verdicts and witnesses of both kinds
    # are compared where firing takes more than one round.
    verdicts, most_rounds = set(), 0
    for n in (63, 121):
        for seed in (1, 2, 3):
            rng = np.random.default_rng([n, seed])
            net, hidden = planted_network(n, rng, M99)
            for case in (net, tightened(net, hidden, rng)):
                g = to_gadget_m99(case)
                ok, witness, fired = reference_detect(g, case.names, rounds=True)
                assert detect_m99(g, case.names) == (ok, witness)
                verdicts.add(ok)
                most_rounds = max(most_rounds, fired)
    assert verdicts == {True, False}
    assert most_rounds >= 2


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_solve_dispatches_by_profile():
    cases = [
        (net_of(3, [(0, 1, CG | CNO), (1, 2, CG | CNO)]), "trivial-core", Kind.TRIVIAL_CORE),
        (net_of(3, [(0, 1, CG | CGPP), (1, 2, CNO)]), "m99", Kind.MAX_M99),
        (net_of(3, [(0, 1, CG | CGPP), (1, 2, CGPP | CGPPI)]), "m81", Kind.MAX_M81),
        (net_of(3, [(0, 1, CGPP | CNO), (1, 2, CGPP | CGPPI)]), "backtracking", Kind.NP_HARD),
    ]
    for net, solver_name, kind in cases:
        out = solve(net)
        assert out.solver == solver_name
        assert out.classification.kind is kind
        assert out.consistent == solve_oracle(net).consistent


def test_solve_agrees_with_oracle_on_mixed_random_sweep():
    rng = np.random.default_rng(5)
    palette = tuple(Relation(c) for c in range(1, 15))
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 6))
        net = random_network(n, 0.7, palette, rng=rng)
        out = solve(net)
        seen.add(out.solver)
        assert out.consistent == solve_oracle(net).consistent
    assert "backtracking" in seen


# ---------------------------------------------------------------------------
# Scenario helpers
# ---------------------------------------------------------------------------


def test_scenario_json_shape():
    out = solve_oracle(net_of(3, [(0, 1, CGPP)]))
    payload = out.scenario.as_json()
    assert set(payload) == {"pairs"}
    assert all(len(entry) == 3 for entry in payload["pairs"])


def test_is_valid_scenario_rejects_wrong_shapes():
    net = net_of(3, [(0, 1, CGPP)])
    good = solve_oracle(net).scenario
    assert is_valid_scenario(net, good)
    assert not is_valid_scenario(net, Scenario(good.pairs[:-1]))  # missing a pair
    assert not is_valid_scenario(net, Scenario(((0, 1, 3), (0, 2, 1), (1, 2, 1))))
    assert not is_valid_scenario(net, Scenario(((0, 1, 8), (0, 2, 1), (1, 2, 1))))
    for code in (16, 18, 255, -8):
        assert not is_valid_scenario(net, Scenario(((0, 1, code), (0, 2, 1), (1, 2, 1))))
    # Malformed input answers False rather than raise: a non-integer code
    # just above the valid one, pairs of two or four entries, a ragged list
    # and a code too wide for any integer type.
    (i, j, code), *rest = good.pairs
    assert not is_valid_scenario(net, Scenario(((i, j, code + 0.5), *rest)))
    assert not is_valid_scenario(net, Scenario(tuple(p[:2] for p in good.pairs)))
    assert not is_valid_scenario(net, Scenario(tuple((*p, 0) for p in good.pairs)))
    assert not is_valid_scenario(net, Scenario(((i, j), *rest)))
    assert not is_valid_scenario(net, Scenario(((i, j, 2**70), *rest)))
    assert not is_valid_scenario(net_of(2, []), Scenario(((0, 1, 1.5),)))
    # A bool is an int to numpy, so each of these would pass as (0, 1, CG)
    # or (0, 2, CG) on a type-blind check.
    assert is_valid_scenario(net_of(2, []), Scenario(((0, 1, 1),)))
    for pair in ((0, 1, True), (False, True, 1), (0, 1, np.True_), (np.False_, 1, 1)):
        assert not is_valid_scenario(net_of(2, []), Scenario((pair,)))
    assert good.pairs[1] == (0, 2, 1)
    assert not is_valid_scenario(net, Scenario((good.pairs[0], (0, 2, True), good.pairs[2])))


def test_is_valid_scenario_checks_a_code_matrix():
    # A solver's scenario is judged by its code matrix: every cell a base
    # case, CG on the diagonal and converses across it, as a scattered
    # list of triples would give.
    net = net_of(3, [(0, 1, CGPP)])
    good = solve_oracle(net).scenario
    codes = good.codes
    assert is_valid_scenario(net, good)
    assert good == Scenario(good.pairs) and hash(good) == hash(Scenario(good.pairs))
    assert repr(good) == f"Scenario(pairs={good.pairs!r})"
    assert is_valid_scenario(net, Scenario.of_codes(codes.copy()))

    def changed(i, j, code):
        bad = codes.copy()
        bad[i, j] = code
        return Scenario.of_codes(bad)

    assert not is_valid_scenario(net, changed(0, 0, 8))  # diagonal not CG
    assert not is_valid_scenario(net, changed(1, 0, 2))  # not the converse
    assert not is_valid_scenario(net, changed(0, 2, 0))  # NONE
    for code in (3, 16, 255):  # not a base case
        assert not is_valid_scenario(net, changed(0, 2, code))
    both = changed(0, 1, 8)  # refines no label CGPP
    both.codes[1, 0] = 8
    assert not is_valid_scenario(net, both)
    assert not is_valid_scenario(net, Scenario.of_codes(codes.astype(np.int64)))
    assert not is_valid_scenario(net, Scenario.of_codes(codes[:2, :2]))
    assert not is_valid_scenario(net_of(4, []), good)
    # A cycle v0 < v1 < v2 < v0 of CGPP is no preorder.
    cycle = np.array([[1, 2, 4], [4, 1, 2], [2, 4, 1]], dtype=np.uint8)
    assert not is_valid_scenario(net_of(3, []), Scenario.of_codes(cycle))
    assert is_valid_scenario(ConstraintNetwork(()), Scenario.of_codes(np.ones((0, 0), np.uint8)))


def test_triples_are_read_into_the_solvers_code_matrix():
    # Scenario(pairs) reads n(n-1)/2 triples into the matrix a solver
    # returns, on n vertices; zero triples are one vertex.
    rng = np.random.default_rng(41)
    for n in range(1, 8):
        out = solve_backtracking(planted_network(n, rng, M99)[0])
        codes = out.scenario.codes
        read = Scenario(out.scenario.pairs).codes
        assert read.dtype == codes.dtype and read.tobytes() == codes.tobytes(), n
    assert Scenario(()).codes.tolist() == [[1]]
    assert is_valid_scenario(net_of(1, []), Scenario(()))
    assert not is_valid_scenario(ConstraintNetwork(()), Scenario(()))
    for count in (2, 4, 5, 7, 8, 9, 11):
        listed = tuple((0, j + 1, 1) for j in range(count))
        assert Scenario(listed).codes is None, count
    rejected = Scenario(((0, 1),))
    assert rejected.codes is None and rejected.pairs is None
    assert repr(rejected) == "Scenario(pairs=None)"


def test_is_valid_scenario_when_the_closure_fills_the_matrix():
    # All CG: L is full, a preorder.  The cycle v0 < v1 < v2 < v0 closes
    # L to all ones, so L is no preorder.
    cg = Scenario(((0, 1, 1), (0, 2, 1), (1, 2, 1)))
    assert _closure(np.ones((3, 3), dtype=bool)) is None
    assert is_valid_scenario(net_of(3, []), cg)
    assert not is_valid_scenario(net_of(3, []), Scenario(((0, 1, 2), (0, 2, 4), (1, 2, 2))))


def valid_by_intersection_and_closure(net, listed):
    """is_valid_scenario of the triples listed by its definition: pair
    checks, each triple intersected into a copy of net one pair at a time,
    then the closure predicate over every triangle."""
    n = len(net)
    if len(listed) != n * (n - 1) // 2:
        return False
    if len({(i, j) for i, j, _ in listed}) != len(listed):
        return False
    out = net.copy()
    for i, j, code in listed:
        if not 0 <= i < j < n or cardinality(Relation(code)) != 1:
            return False
        out.add_constraint(out.names[i], out.names[j], Relation(code))
    return out.is_atomic() and is_algebraically_closed(out)


def test_is_valid_scenario_matches_its_definition():
    # Scenarios from the solver, random atomic ones, dominance orders (closed
    # by construction), and each with a pair dropped, duplicated, swapped
    # to i > j, or given a non-atomic code.
    rng = np.random.default_rng(29)
    palette = tuple(Relation(c) for c in range(16))
    families = {}
    for _ in range(250):
        n = int(rng.integers(1, 8))
        net = random_network(n, float(rng.random()), palette, rng=rng)
        if rng.random() < 0.05:
            net.add_constraint("v0", "v0", CNO)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        points = rng.integers(0, 3, size=(n, 2))
        dominance = []
        for i, j in pairs:
            le = bool(np.all(points[i] <= points[j]))
            ge = bool(np.all(points[i] >= points[j]))
            dominance.append((i, j, 1 if le and ge else 2 if le else 4 if ge else 8))
        candidates = {
            "random": [(i, j, int(rng.choice((1, 2, 4, 8)))) for i, j in pairs],
            "dominance": dominance,
        }
        out = solve_backtracking(net)
        if out.consistent:
            candidates["solver"] = list(out.scenario.pairs)
        for kind, base in list(candidates.items()):
            if not base:
                continue
            k = int(rng.integers(len(base)))
            i, j, code = base[k]
            candidates[kind + "-missing"] = base[:k] + base[k + 1 :]
            candidates[kind + "-duplicated"] = base[:k] + [base[k - 1]] + base[k + 1 :]
            candidates[kind + "-swapped"] = base[:k] + [(j, i, code)] + base[k + 1 :]
            candidates[kind + "-non-atomic"] = (
                base[:k] + [(i, j, int(rng.integers(0, 16)))] + base[k + 1 :]
            )
        for kind, listed in candidates.items():
            scenario = Scenario(tuple(listed))
            expected = valid_by_intersection_and_closure(net, listed)
            assert is_valid_scenario(net, scenario) == expected, (kind, scenario)
            families.setdefault(kind.split("-", 1)[0], set()).add(expected)
    assert families == {"random": {False, True}, "dominance": {False, True}, "solver": {False, True}}


# ---------------------------------------------------------------------------
# Path-consistency gap
# ---------------------------------------------------------------------------


def test_search_pc_incompleteness_finds_the_five_cycle():
    report = search_pc_incompleteness()
    assert report.phase == "cycle-family"
    assert report.examined == 757  # no witness exists among the 756 smaller nets
    net = report.network
    assert len(net) == 5
    ok, _ = path_consistency(net)
    assert ok
    assert not solve_oracle(net, max_vertices=5).consistent
    assert not solve_backtracking(net).consistent
