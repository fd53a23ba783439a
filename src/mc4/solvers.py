"""Consistency solvers for MC-4 constraint networks.

A network is consistent when some atomic refinement of it is algebraically
closed (such a refinement, a *scenario*, assigns one base case per pair and
survives every triangle of the composition table).  Four deciders cover the
spectrum of label profiles:

- solve_oracle: exhaustive scenario search with triangle pruning.  Complete
  on any profile, exponential, and capped at a handful of vertices; it is
  the ground truth everything else is compared against.
- solve_backtracking: path consistency plus branching on the two labels
  outside M99 (CGPP|CGPPi and CG|CGPP|CGPPi), each split into its part in
  LEQ, then the rest.  Path consistency runs from every vertex at the
  root; after that each branch copies its parent's label matrix and
  propagates from the two ends of the pair it narrowed, with the same
  pivot sweeps.  The branch pair is the first label outside M99 in
  row-major order over the upper triangle of the node's label matrix; a
  node with no such label is a leaf: path consistency decides M99, so a
  leaf is consistent, and its scenario is read from its labels.  Complete
  on any profile.
- solve_trivial_core: profiles whose every label is NONE or contains a
  core of mc4.subalgebra's trivial-core table (CG, CNO, or CGPP|CGPPi).
  Consistency is the absence of an explicit NONE label, and the scenario
  that gives every pair the core's lowest base case always works.
- solve_m99 / solve_m81: polynomial deciders for the two maximal non-trivial
  tractable subalgebras.  Each label is translated, on the network's own
  vertices, into primitive constraints — directed "fits inside or
  congruent" arcs (LEQ), "not congruent" edges (NLE), and for M99
  conditional pairs (EQX) "congruent once a LEQ path links them" — and
  consistency reduces to reachability in one boolean reach matrix:
  mutually reachable regions are forced congruent, a conditional pair
  whose path appears forces congruence too, and a contradiction is
  exactly an NLE edge inside one forced-equal cluster.

solve() inspects the label profile via mc4.subalgebra.classify and
dispatches to the cheapest complete decider.

A NONE label is inconsistent whatever the profile, so every decider first
answers the first one (diagonal first, then row-major above it) with a
bottom_edge; only then do the forced deciders raise ProfileError on a
label outside their profile.  An outcome thus carries a bottom_edge exactly
when the input holds a NONE label.  Inconsistent outcomes carry a
JSON-ready witness, one of:

    {"type": "bottom_edge", "edge": [u, v]}
    {"type": "cycle_chord", "cycle": [names...], "chord": [u, v]}
    {"type": "search_exhausted", "explored": N}

search_pc_incompleteness hunts for a network that path consistency accepts
but that has no scenario, demonstrating why the dedicated deciders are
needed at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BASIC_RELATIONS,
    EMPTY,
    Relation,
    RelationSet,
    _COMPOSE_CODE,
    _CONVERSE_CODE,
    _RELATIONS,
    compose,
    format_relation,
)
from .network import (
    _CONVERSE_ARR,
    ConstraintNetwork,
    _propagate,
    _upper_triangle,
    path_consistency,
)
from .subalgebra import _TRIVIAL_CORES, EQX, LEQ, M81, M99, NLE, Kind, TractabilityClass, classify

BASIC_CODES = tuple(map(int, BASIC_RELATIONS))

# Gadget kinds: relation code -> a bit set of the primitive constraints a
# label puts on its ordered pair (_LEQ, _EQX, _NLE; to_gadget_m99 states
# the rule), plus _REJECT for a label outside the decider's catalog.
_LEQ, _EQX, _NLE, _REJECT = (1 << k for k in range(4))


def _kinds(r: Relation, catalog: RelationSet) -> int:
    bits = _REJECT * (r not in catalog)
    if r != EMPTY:
        bits |= _LEQ * (r in LEQ) | _NLE * (r in NLE)
        bits |= _EQX * (Relation.CNO in r and r in compose(LEQ, EQX))
    return bits


_M99_KINDS = np.array([_kinds(r, M99) for r in _RELATIONS], dtype=np.uint8)
_M81_KINDS = np.array([_kinds(r, M81) for r in _RELATIONS], dtype=np.uint8)

# Relation code -> whether the label lies outside M99, where the search
# branches: CGPP|CGPPi and CG|CGPP|CGPPi.
_OUTSIDE_M99 = (_M99_KINDS & _REJECT) != 0

# Label of a search leaf (no NONE, 6 or 7) -> the base case its scenario takes.
_LEAF_ATOM = np.array([0, 1, 2, 2, 4, 4, 0, 0, 8, 8, 8, 8, 8, 8, 8, 8], dtype=np.uint8)


class ProfileError(ValueError):
    """Raised when a network label falls outside the solver's subalgebra."""


class Scenario:
    """Full atomic assignment, held as its code matrix codes: codes[i, j]
    for i < j is the base case of the pair (i, j), its converse sits at
    codes[j, i], and CG on the diagonal.

    The solvers build theirs with Scenario.of_codes.  Scenario(pairs) reads
    (i, j, code) triples, as a JSON verdict lists them, with _scattered;
    codes is None when they are no scenario's on any n.  pairs, the triples
    with i < j in row-major order, is read from the matrix on each call,
    and is None when codes is.

    The codes are MC-4 base cases, or RCC-5 ones from
    mc4.rcc5.convert_scenario; is_valid_scenario checks MC-4 scenarios.
    """

    __slots__ = ("codes",)

    def __init__(self, pairs: tuple[tuple[int, int, int], ...]):
        self.codes = _scattered(pairs)

    @classmethod
    def of_codes(cls, codes: np.ndarray) -> Scenario:
        scenario = cls.__new__(cls)
        scenario.codes = codes
        return scenario

    @property
    def pairs(self) -> tuple[tuple[int, int, int], ...] | None:
        if self.codes is None:
            return None
        i, j = np.nonzero(_upper_triangle(len(self.codes)))
        return tuple(zip(i.tolist(), j.tolist(), self.codes[i, j].tolist()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scenario) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Scenario(pairs={self.pairs!r})"

    def as_json(self) -> dict:
        return {"pairs": list(self.pairs)}


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one consistency decision.

    scenario is set on consistent outcomes from the scenario-producing
    solvers (oracle, backtracking, trivial-core); witness is set on every
    inconsistent outcome, a bottom_edge exactly when the input holds a NONE
    label; classification is filled in by solve().
    """

    consistent: bool
    solver: str
    scenario: Scenario | None = None
    witness: dict | None = None
    classification: TractabilityClass | None = None


_BOOL_TYPES = frozenset((bool, np.bool_))

# Byte -> whether it is an MC-4 base case.
_IS_BASIC = np.isin(np.arange(256), BASIC_CODES)


def _scattered(pairs) -> np.ndarray | None:
    """Code matrix of (i, j, code) triples on the n vertices for which there
    are n(n-1)/2 of them, no triples reading as one vertex: each code at
    (i, j), its converse at (j, i), CG on the diagonal and NONE in every
    cell no triple names.  None unless the triples are integers, booleans
    excluded, with 0 <= i < j < n and 0 <= code < 16."""
    n = (1 + math.isqrt(1 + 8 * len(pairs))) // 2
    if len(pairs) != n * (n - 1) // 2:
        return None
    try:
        triples = np.array(pairs)
    except ValueError:  # ragged
        return None
    if triples.size and (triples.dtype.kind not in "iu" or triples.shape[1:] != (3,)):
        return None
    # numpy reads a bool among integers as an integer, so booleans are
    # found by the type of each entry.
    if not _BOOL_TYPES.isdisjoint(map(type, itertools.chain.from_iterable(pairs))):
        return None
    i, j, code = triples.reshape(-1, 3).astype(np.int64).T
    if not np.all((0 <= i) & (i < j) & (j < n) & (0 <= code) & (code < 16)):
        return None
    c = np.zeros((n, n), dtype=np.uint8)
    np.fill_diagonal(c, 1)
    c[i, j] = code
    c[j, i] = _CONVERSE_ARR[code]
    return c


def is_valid_scenario(net: ConstraintNetwork, scenario: Scenario) -> bool:
    """True iff scenario gives each pair of net one base case, refines its
    labels, and is algebraically closed; False on any other input, a
    scenario whose triples _scattered rejected included.

    The scenario's code matrix c must be n-by-n uint8, and every cell a
    base case, CG on the diagonal and the converse of its mirror
    elsewhere; a pair that triples missed or named twice is left NONE.
    An atomic network is closed exactly when its "fits inside or
    congruent" relation L = (c in {CG, CGPP}) is a preorder.  L holds
    every loop, so it is one exactly when _closure adds no arc to it; a
    closure that fills the matrix adds none only to a full L.
    """
    n = len(net)
    c = scenario.codes
    if c is None or c.shape != (n, n) or c.dtype != np.uint8:
        return False
    if np.count_nonzero(_IS_BASIC.take(c)) != c.size or np.count_nonzero(c.diagonal() != 1):
        return False
    if not np.array_equal(_CONVERSE_ARR.take(c), c.T) or not np.array_equal(c & net._m, c):
        return False
    leq = (c == 1) | (c == 2)
    r = _closure(leq)
    return bool(leq.all()) if r is None else np.array_equal(r, leq)


def _first_upper_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """First (i, j) with i < j and mask[i, j] set, in row-major order.

    mask must be symmetric with a clear diagonal.  Then its first set cell
    in row-major order is that pair: a set cell (j, i) below the diagonal
    has its mirror (i, j) set, in an earlier row.
    """
    flat = mask.ravel()
    if not flat.size:
        return None
    k = int(flat.argmax())
    return divmod(k, len(mask)) if flat[k] else None


def _bottom_witness(net: ConstraintNetwork) -> dict | None:
    """bottom_edge witness for the first NONE label, on the diagonal first,
    then row-major above it; None when no label is NONE."""
    m = net._m
    if m.all():
        return None
    loop = np.flatnonzero(m.diagonal() == 0)[:1].tolist()
    i, j = (loop[0], loop[0]) if loop else _first_upper_pair(m == 0)
    return {"type": "bottom_edge", "edge": [net.names[i], net.names[j]]}


def _check_profile(net: ConstraintNetwork, bad_mask: np.ndarray, reason: str) -> None:
    """Raise ProfileError naming the first pair of bad_mask above the
    diagonal, in row-major order, and its label; reason ends the message.
    bad_mask is symmetric with a clear diagonal, as _first_upper_pair needs:
    the catalogs and the trivial cores are closed under converse."""
    bad = _first_upper_pair(bad_mask)
    if bad is not None:
        i, j = bad
        raise ProfileError(
            f"label {format_relation(_RELATIONS[int(net._m[i, j])])} on "
            f"({net.names[i]}, {net.names[j]}) {reason}"
        )


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def solve_oracle(net: ConstraintNetwork, max_vertices: int = 6) -> SolveOutcome:
    """Depth-first search over all atomic refinements, triangle-pruned.

    Complete for any label profile but exponential in the number of pairs,
    hence the hard cap on vertices.  Pairs are assigned vertex by vertex
    (all pairs into vertex 2, then into vertex 3, ...) so that every new
    assignment closes triangles only against already-assigned pairs.  The
    pending choices, (pair index, base case) with the next one last, live
    on an explicit stack, so the depth of the search is not bounded by
    Python's recursion limit; the pairs before the current index hold the
    current path's assignments.  explored counts the base cases tried.

    Base case v fits (b, c) when each triangle (a, b, c), a < b, passes one
    test: sol[a][c] in sol[a][b]∘v, the direction path consistency refines.
    The cycle law of the base cases, r in p∘q iff p in r∘conv(q) iff q in
    conv(p)∘r, makes the tests through the triangle's other edges agree.
    """
    n = len(net)
    if n > max_vertices:
        raise ValueError(f"oracle is capped at {max_vertices} vertices, got {n}")
    if (witness := _bottom_witness(net)) is not None:
        return SolveOutcome(False, "oracle", witness=witness)
    pairs = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda p: (p[1], p[0]),
    )
    labels = [int(net._m[i, j]) for i, j in pairs]
    compose_t = _COMPOSE_CODE
    conv = _CONVERSE_CODE
    sol = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # t pairs are assigned on the current path; ok: its last choice held.
    explored, t, ok = 0, 0, True
    todo: list[tuple[int, int]] = []
    while ok or todo:
        if ok:
            if t == len(pairs):
                codes = np.array(sol, dtype=np.uint8).reshape(n, n)
                return SolveOutcome(True, "oracle", scenario=Scenario.of_codes(codes))
            todo += [(t, v) for v in reversed(BASIC_CODES) if labels[t] & v]
        t, v = todo.pop()
        explored += 1
        b, c = pairs[t]
        ok = False
        for a in range(b):
            if not compose_t[sol[a][b]][v] & sol[a][c]:
                break
        else:
            sol[b][c] = v
            sol[c][b] = conv[v]
            t += 1
            ok = True
    return SolveOutcome(
        False, "oracle", witness={"type": "search_exhausted", "explored": explored}
    )


# ---------------------------------------------------------------------------
# Path consistency + branching
# ---------------------------------------------------------------------------


def solve_backtracking(net: ConstraintNetwork) -> SolveOutcome:
    """Complete solver: path consistency, branching out of M99, and leaves
    read from their labels.

    Answers a NONE label of the input first, like every decider, then runs
    full path consistency once, at the root: a root it rejects is a search
    exhausted before its first commitment, with explored 0.  The search
    branches only on labels outside M99, as _M99_KINDS marks them
    (CGPP|CGPPi and CG|CGPP|CGPPi): on the first such label r in row-major
    order over the upper triangle of the node's label matrix (both are
    self-converse and the diagonal holds CG, so their mask is symmetric
    with a clear diagonal, as _first_upper_pair needs), trying r & LEQ,
    then r & ~LEQ, both M99 labels.  After each commitment it
    propagates only from the pair it narrowed: the parent is at the
    path-consistency fixpoint, so only the constraints through that pair's
    two ends can break, and _propagate pivots on those two vertices first.
    Each child is a copy of its parent's label matrix with the committed
    label written in, so a failed child leaves its parent untouched.  The
    pending choices, (parent matrix, pair, label) with the next one last,
    live on an explicit stack, so the depth of the search is not bounded by
    Python's recursion limit.  explored counts the commitments.

    A node with no label outside M99 is a leaf, and path consistency has
    decided it: its scenario reads CG from CG, CGPP from CGPP and CG|CGPP,
    CGPPi from their converses and CNO from every label holding CNO.  Its
    "inside or congruent" relation is the pairs labelled CG, CGPP or
    CG|CGPP, a preorder at the fixpoint (CG|CGPP composes with itself to
    CG|CGPP), so the scenario is closed.
    """
    if (witness := _bottom_witness(net)) is not None:
        return SolveOutcome(False, "backtracking", witness=witness)
    ok, refined = path_consistency(net)
    m = refined._m
    leq = int(LEQ)
    explored = 0
    # ok: the node m survived propagation, so it branches or is a leaf.
    todo: list[tuple[np.ndarray, tuple[int, int], int]] = []
    while ok or todo:
        if ok:
            pair = _first_upper_pair(_OUTSIDE_M99.take(m))
            if pair is None:
                scenario = Scenario.of_codes(_LEAF_ATOM.take(m))
                return SolveOutcome(True, "backtracking", scenario=scenario)
            r = int(m[pair])
            todo += [(m, pair, r & ~leq), (m, pair, r & leq)]
        parent, (i, j), v = todo.pop()
        explored += 1
        m = parent.copy()
        m[i, j] = v
        m[j, i] = _CONVERSE_CODE[v]
        ok = _propagate(m, (i, j))
    return SolveOutcome(
        False,
        "backtracking",
        witness={"type": "search_exhausted", "explored": explored},
    )


# ---------------------------------------------------------------------------
# Trivial-core profiles
# ---------------------------------------------------------------------------


def solve_trivial_core(net: ConstraintNetwork, core: Relation) -> SolveOutcome:
    """Decide a network whose every label is NONE or contains the core.

    For such profiles an explicit NONE label is the only possible
    contradiction, answered first: otherwise a single canonical scenario
    satisfies every constraint at once: every pair takes the lowest base
    case of the core (all pairs CG, all pairs CNO, or a containment chain
    along the vertex order for the CGPP|CGPPi core).

    Raises:
        ValueError: if core is not a core of mc4.subalgebra's trivial-core
            table (CG, CNO, CGPP|CGPPi).
        ProfileError: if no label is NONE and some label is not a superset
            of core.
    """
    if core not in _TRIVIAL_CORES:
        raise ValueError(f"no trivial-core solver for core {format_relation(core)}")
    if (witness := _bottom_witness(net)) is not None:
        return SolveOutcome(False, "trivial-core", witness=witness)
    reason = f"neither is NONE nor contains {format_relation(core)}"
    bad = net._m & int(core) != int(core)
    np.fill_diagonal(bad, False)  # CG holds neither CNO nor CGPP|CGPPi
    _check_profile(net, bad, reason)
    atom = int(core) & -int(core)
    upper = _upper_triangle(len(net))
    codes = np.where(upper, np.uint8(atom), np.uint8(_CONVERSE_CODE[atom]))
    np.fill_diagonal(codes, 1)
    return SolveOutcome(True, "trivial-core", scenario=Scenario.of_codes(codes))


# ---------------------------------------------------------------------------
# Gadget graphs for the two maximal subalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetGraph:
    """Primitive-constraint graph a network translates into.

    Three n-by-n boolean masks over the network's vertices.  leq[i, j] is
    the arc "i fits inside or is congruent to j" (every vertex has its
    loop); eqx[a, b] is the conditional pair "if b reaches a through LEQ
    arcs, a and b are congruent"; nle is the symmetric "not congruent"
    relation.  A label's "congruent or one inside the other" part (BSY)
    adds no constraint, because it can always be satisfied.  A NONE label
    adds none either: the deciders answer it before building the graph.
    """

    leq: np.ndarray
    eqx: np.ndarray
    nle: np.ndarray


def _to_gadget(net: ConstraintNetwork, table: np.ndarray, class_name: str) -> GadgetGraph:
    kinds = table.take(net._m)
    _check_profile(net, (kinds & _REJECT) != 0, f"is outside {class_name}")
    return GadgetGraph(
        leq=(kinds & _LEQ) != 0,
        eqx=(kinds & _EQX) != 0,
        nle=(kinds & _NLE) != 0,
    )


def to_gadget_m99(net: ConstraintNetwork) -> GadgetGraph:
    """Translate an M99-profile network into primitive constraints.

    A label R on (i, j) sets leq[i, j] when R is within LEQ = CG|CGPP,
    nle[i, j] when R is within NLE = CGPP|CGPPi|CNO, and eqx[i, j] when R
    holds CNO and is within compose(LEQ, EQX) = CG|CGPP|CNO: a LEQ path
    j -> i then leaves only CG, so the conditional pair forces congruence
    once such a path exists.  NONE is within every relation but sets
    nothing; the deciders answer it before translating.  The label on
    (j, i) is the converse of R, so its own entry supplies the reverse arc
    and pair.  The three masks are read from the label matrix with one
    lookup in a table derived from this rule and the M99 catalog.

    Raises:
        ProfileError: on a label outside M99 (CGPP|CGPPi or
            CG|CGPP|CGPPi).
    """
    return _to_gadget(net, _M99_KINDS, "the M99 subalgebra")


def to_gadget_m81(net: ConstraintNetwork) -> GadgetGraph:
    """Translate an M81-profile network into primitive constraints.

    The rule of to_gadget_m99, over the M81 catalog.  Every M81 label that
    holds CNO also holds CGPPi, so none is within CG|CGPP|CNO and eqx is
    all False.  BSY ("congruent or one inside the other") edges are always
    satisfiable within whatever the LEQ arcs allow, so they are left out of
    the graph.

    Raises:
        ProfileError: on a label outside M81 (one holding CNO but not both
            CGPP and CGPPi).
    """
    return _to_gadget(net, _M81_KINDS, "the M81 subalgebra")


# ---------------------------------------------------------------------------
# Reachability: transitive closure and firing
# ---------------------------------------------------------------------------


# Rows of a block's 9-row buffer (row 0 zeros, row 1 + k block row k) per
# nibble: column 16h + x, for nibble value x in half h of a byte, holds for
# each bit a of x the row it stands for, 1 + 4h + a, or 0 when a is clear.
# ORed over axis 0, the gathered rows give in row 16h + x the OR of the
# block rows that x picks in half h.
_NIBBLE_ROWS = np.array(
    [[1 + 4 * (x >> 4) + a if x >> a & 1 else 0 for x in range(32)] for a in range(4)],
    dtype=np.intp,
)
# Byte x -> the row of those 32 that holds its high nibble's OR.
_HIGH_NIBBLE = 16 + (np.arange(256) >> 4)


def _closure(leq: np.ndarray) -> np.ndarray | None:
    """Reflexive-transitive closure of the LEQ arcs.

    Returns r, r[u, v] when u reaches v, or None when every vertex reaches
    every other, as in dense random networks.  leq must hold every loop.
    This is Warshall's algorithm (1962) taken eight pivots at a time, after
    Arlazarov, Dinic, Kronrod and Faradzev (1970).  The rows are packed
    bitsets only in here, so byte column c of a row is the set of pivots
    8c..8c+7 that row reaches.  Once the pivots below 8c are done, a row
    reaches v through intermediates below 8c + 8 exactly when it reaches
    some block pivot p through intermediates below 8c, p reaches some block
    pivot q within the block, and row q reaches v: split the path at its
    first and last block vertex.  So each block
    1. tabulates lut[x], the OR of the block rows in x, for every byte x,
       from two 16-entry tables: the block rows are copied below a zero
       row into a 9-row buffer (a partial last block leaves zero rows
       too), and one gather through _NIBBLE_ROWS and an OR over its first
       axis give lo[l] and hi[h] (rows l and 16 + h), the OR of the rows
       in low nibble l and in high nibble h; lut[16h + l] = hi[h] | lo[l]
       is written as hi gathered to every x, then lo ORed into each run
       of 16;
    2. closes the block within itself: f[x], byte c of lut[x], is x (every
       vertex has its loop) with the block pivots x reaches in one step,
       and squaring f three times lets it take up to eight steps;
    3. ORs lut[f[byte c of u]] into every row u.
    An all-ones matrix can gain nothing, so the loop stops there and
    returns None; row 0 is tested first, being cheaper than the whole
    matrix.
    """
    n = len(leq)
    reach = np.packbits(leq, axis=1, bitorder="little")
    w = reach.shape[1]
    full = np.packbits(np.ones(n, dtype=bool), bitorder="little")
    full_bytes = full.tobytes()
    lut = np.empty((256, w), dtype=np.uint8)
    by_high = lut.reshape(16, 16 * w)  # row h: lut[16h] to lut[16h + 15]
    for c in range(w):
        rows = reach[8 * c : 8 * c + 8]
        pad = np.zeros((9, w), dtype=np.uint8)
        pad[1 : 1 + len(rows)] = rows
        nibbles = np.bitwise_or.reduce(pad.take(_NIBBLE_ROWS, axis=0), axis=0)
        # The indices are in range; mode="clip" only keeps take from
        # writing out through a buffer, as its default mode does.
        nibbles.take(_HIGH_NIBBLE, axis=0, out=lut, mode="clip")
        np.bitwise_or(by_high, nibbles[:16].reshape(1, -1), out=by_high)
        f = lut[:, c]
        f = f.take(f)
        f = f.take(f)
        f = f.take(f)
        reach |= lut.take(f.take(reach[:, c]), axis=0)
        if reach[0].tobytes() == full_bytes and (reach == full).all():
            return None
    return np.unpackbits(reach, axis=1, count=n, bitorder="little").view(bool)


def detect_m99(g: GadgetGraph, names) -> tuple[bool, dict | None]:
    """Decide an M99 or M81 gadget graph.

    Builds the reach matrix r of the leq mask, then fires every conditional
    pair (a, b) with b reaching a: the path rules out the unembeddable case,
    so a and b are congruent, and the arc a -> b is added by ORing r[b] into
    every row that reaches a (b reaches a, so r[b] holds r[a] and r stays
    closed).  Firing repeats until nothing new fires.  At that fixpoint
    mutually reachable vertices are congruent in every solution, hence an
    NLE edge between two of them is a contradiction, and absent one, reading
    the mutual-reachability classes as congruence classes yields a solution.
    BSY edges are always satisfiable within whatever the LEQ arcs allow.  An
    M81 graph has no conditional pairs, so a single closure decides it.  A
    NONE label puts nothing into the graph; solve_m99 and solve_m81 answer
    it before building one.  The witness is the first contradicted NLE pair,
    in row-major order over the upper triangle; its cycle is the chord's
    mutual-reachability class.  nle is symmetric with a clear diagonal (NLE
    is its own converse and excludes CG), and so is nle & r & r.T.

    When the closure fills the matrix (_closure returns None), as in dense
    random networks, all vertices form one class: nothing can fire, the
    chord is the first NLE pair and the cycle is every name in index
    order, the answer firing would give, without the fire or chord masks.
    """
    r = _closure(g.leq)
    if r is None:
        chord = _first_upper_pair(g.nle)
    else:
        n = len(r)
        while (fire := g.eqx & r.T & ~r).any():
            for k in np.flatnonzero(fire).tolist():
                a, b = divmod(k, n)
                if not r[a, b]:
                    r[r[:, a]] |= r[b]
        chord = _first_upper_pair(g.nle & r & r.T)
    if chord is None:
        return True, None
    u, v = chord
    cycle = list(names) if r is None else [names[w] for w in np.flatnonzero(r[u] & r[:, u])]
    return False, {"type": "cycle_chord", "cycle": cycle, "chord": [names[u], names[v]]}


detect_m81 = detect_m99


def solve_m99(net: ConstraintNetwork) -> SolveOutcome:
    """Polynomial decider for networks labeled within M99."""
    if (witness := _bottom_witness(net)) is not None:
        return SolveOutcome(False, "m99", witness=witness)
    ok, witness = detect_m99(to_gadget_m99(net), net.names)
    return SolveOutcome(ok, "m99", witness=witness)


def solve_m81(net: ConstraintNetwork) -> SolveOutcome:
    """Polynomial decider for networks labeled within M81."""
    if (witness := _bottom_witness(net)) is not None:
        return SolveOutcome(False, "m81", witness=witness)
    ok, witness = detect_m81(to_gadget_m81(net), net.names)
    return SolveOutcome(ok, "m81", witness=witness)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def solve(net: ConstraintNetwork) -> SolveOutcome:
    """Decide consistency with the cheapest complete solver for the profile.

    The label profile is classified once; trivial-core, M99 and M81
    profiles go to their polynomial deciders and everything else to the
    complete backtracking solver.  The outcome carries the classification.
    """
    cls = classify(net.relation_profile())
    if cls.kind is Kind.TRIVIAL_CORE:
        out = solve_trivial_core(net, cls.core)
    elif cls.kind is Kind.MAX_M99:
        out = solve_m99(net)
    elif cls.kind is Kind.MAX_M81:
        out = solve_m81(net)
    else:
        out = solve_backtracking(net)
    return SolveOutcome(out.consistent, out.solver, out.scenario, out.witness, cls)


# ---------------------------------------------------------------------------
# Path-consistency incompleteness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcGapReport:
    """A network path consistency accepts despite having no scenario."""

    network: ConstraintNetwork
    phase: str
    examined: int


def _network_from_codes(n: int, assignment: dict[tuple[int, int], int]) -> ConstraintNetwork:
    net = ConstraintNetwork(tuple(f"v{k}" for k in range(n)))
    for (i, j), code in assignment.items():
        if code != 15:
            net.add_constraint(f"v{i}", f"v{j}", _RELATIONS[code])
    return net


def _is_pc_gap(net: ConstraintNetwork) -> bool:
    ok, _ = path_consistency(net)
    if not ok:
        return False
    return not solve_oracle(net, max_vertices=len(net)).consistent


def search_pc_incompleteness() -> PcGapReport:
    """Find a network that is path-consistent but has no scenario.

    Two phases, cheapest evidence first: an exhaustive sweep of all
    {CGPP|CGPPi, CNO}-labeled networks on 3 and 4 vertices (which proves no
    gap exists that small), then a structured family — a cycle of
    CGPP|CGPPi labels whose every chord is CNO — on 5 to 8 vertices.

    Raises:
        RuntimeError: if both phases come up empty.
    """
    examined = 0
    palette_codes = (6, 8, 15)
    for n in (3, 4):
        pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for combo in itertools.product(palette_codes, repeat=len(pair_list)):
            net = _network_from_codes(n, dict(zip(pair_list, combo)))
            examined += 1
            if _is_pc_gap(net):
                return PcGapReport(net, "exhaustive-small", examined)
    for n in range(5, 9):
        assignment = {
            (i, j): 8 for i in range(n) for j in range(i + 1, n)
        }
        for k in range(n - 1):
            assignment[(k, k + 1)] = 6
        assignment[(0, n - 1)] = 6
        net = _network_from_codes(n, assignment)
        examined += 1
        if _is_pc_gap(net):
            return PcGapReport(net, "cycle-family", examined)
    raise RuntimeError("no path-consistency gap found in any search phase")
