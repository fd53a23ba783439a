"""Constraint networks: construction, path consistency, text format."""

import random
from collections import deque
from itertools import cycle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc4.algebra import (
    EMPTY,
    UNIVERSAL,
    ParseError,
    Relation,
    RelationSet,
    _COMPOSE_CODE,
    _CONVERSE_CODE,
    compose,
    converse,
    format_relation,
    parse_relation,
)
from mc4 import network
from mc4.network import (
    _CONVERSE_ARR,
    ConstraintNetwork,
    is_algebraically_closed,
    parse_network,
    path_consistency,
    random_network,
    serialize_network,
)
from mc4.subalgebra import M99

CG = Relation.CG
CGPP = Relation.CGPP
CGPPI = Relation.CGPPI
CNO = Relation.CNO
# The palette of `mc4 gen --palette m99`, and the seeds the tests draw
# `mc4 gen 400 --palette m99 --density 0.5` networks with.
M99_PALETTE = tuple(r for r in M99 if r not in (EMPTY, UNIVERSAL))
GEN_WRITE_SEEDS = (0, 5, 9, 11)


def chain_network():
    net = ConstraintNetwork(("a", "b", "c"))
    net.add_constraint("a", "b", CGPP)
    net.add_constraint("b", "c", CGPP)
    return net


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------


def test_defaults_all_off_diagonal_cg_on_diagonal():
    net = ConstraintNetwork(("a", "b"))
    assert net.label("a", "b") == UNIVERSAL
    assert net.label("a", "a") == CG
    assert len(net) == 2


def test_duplicate_vertex_names_rejected():
    with pytest.raises(ValueError):
        ConstraintNetwork(("a", "a"))


def test_unknown_vertex_rejected():
    net = ConstraintNetwork(("a", "b"))
    with pytest.raises(ValueError):
        net.label("a", "z")


def test_add_constraint_stores_both_orientations():
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "b", CGPP | CNO)
    assert net.label("a", "b") == CGPP | CNO
    assert net.label("b", "a") == CGPPI | CNO


def test_repeated_constraints_intersect():
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "b", CG | CGPP)
    net.add_constraint("b", "a", CG | CGPP)  # converse view: CG|CGPPi on (a, b)
    assert net.label("a", "b") == CG
    net.add_constraint("a", "b", CNO)
    assert net.label("a", "b") == EMPTY


def test_self_loop_with_cg_is_noop():
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "a", CG | CNO)
    assert net.self_contradiction is None
    assert net.label("a", "a") == CG


def test_self_loop_without_cg_is_recorded():
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "a", CNO)
    assert net.self_contradiction == "a"
    ok, _ = path_consistency(net)
    assert not ok


def test_self_loop_label_is_none_once_cg_is_excluded():
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "a", CNO)
    assert net.label("a", "a") == EMPTY
    assert net.label("b", "b") == CG


def test_self_contradiction_names_the_lowest_vertex():
    net = ConstraintNetwork(("v0", "v1", "v2"))
    net.add_constraint("v2", "v2", CNO)
    net.add_constraint("v0", "v0", CGPP)
    assert net.self_contradiction == "v0"


def rebuilt_from_matrix(net):
    dup = ConstraintNetwork(net.names)
    dup._m = net.to_array()
    return dup


@pytest.mark.parametrize("rebuild", [ConstraintNetwork.copy, rebuilt_from_matrix])
def test_contradicted_self_loop_survives_a_rebuild(rebuild):
    # Without the loop, a-b CG is atomic and closed.
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "b", CG)
    assert is_algebraically_closed(net)
    net.add_constraint("b", "b", CNO)
    dup = rebuild(net)
    assert dup.self_contradiction == "b"
    assert dup.label("b", "b") == EMPTY
    assert not path_consistency(dup)[0]
    assert not is_algebraically_closed(dup)
    with pytest.raises(ValueError):
        serialize_network(dup)


def test_copy_is_independent():
    net = chain_network()
    dup = net.copy()
    dup.add_constraint("a", "c", CNO)
    assert net.label("a", "c") == UNIVERSAL
    assert dup.label("a", "c") == CNO


def test_is_atomic_and_profile():
    net = chain_network()
    assert not net.is_atomic()  # the (a, c) pair is still ALL
    assert net.relation_profile() == RelationSet.of(CGPP, UNIVERSAL)
    net.add_constraint("a", "c", CGPP)
    assert net.is_atomic()
    assert net.relation_profile() == RelationSet.of(CGPP)


def test_relation_profile_matches_the_sorted_unique_labels():
    rng = np.random.default_rng(17)
    palette = tuple(Relation(c) for c in range(16))
    nets = [ConstraintNetwork(()), ConstraintNetwork(("a",))]
    nets += [
        random_network(int(rng.integers(1, 13)), float(rng.random()), palette, rng=rng)
        for _ in range(300)
    ]
    seen = RelationSet(0)
    for net in nets:
        n = len(net)
        labels = np.unique(net.to_array()[np.triu_indices(n, k=1)])
        expected = RelationSet.from_iterable(Relation(int(c)) for c in labels)
        assert net.relation_profile() == expected
        seen = RelationSet(seen.mask | expected.mask)
    assert seen == RelationSet((1 << 16) - 1)


def test_to_array_returns_a_copy():
    net = chain_network()
    arr = net.to_array()
    arr[0, 1] = 0
    assert net.label("a", "b") == CGPP


# ---------------------------------------------------------------------------
# Path consistency
# ---------------------------------------------------------------------------


def test_pc_refines_along_a_chain():
    ok, refined = path_consistency(chain_network())
    assert ok
    assert refined.label("a", "c") == CGPP
    assert refined.label("c", "a") == CGPPI


def test_pc_detects_contradictory_triangle():
    net = chain_network()
    net.add_constraint("a", "c", CG)  # chain forces CGPP on (a, c)
    ok, refined = path_consistency(net)
    assert not ok
    assert refined.label("a", "c") == EMPTY


def test_pc_detects_existing_bottom_even_without_triangles():
    net = ConstraintNetwork(("a", "b"))
    net.add_constraint("a", "b", EMPTY)
    ok, _ = path_consistency(net)
    assert not ok


def test_pc_leaves_input_untouched():
    net = chain_network()
    path_consistency(net)
    assert net.label("a", "c") == UNIVERSAL


def test_pc_is_idempotent():
    ok, once = path_consistency(chain_network())
    assert ok
    ok, twice = path_consistency(once)
    assert ok
    assert np.array_equal(once.to_array(), twice.to_array())


def test_pc_propagates_composition_disjunction():
    net = ConstraintNetwork(("a", "b", "c"))
    net.add_constraint("a", "b", CGPP)
    net.add_constraint("b", "c", CNO)
    ok, refined = path_consistency(net)
    assert ok
    assert refined.label("a", "c") == CGPP | CNO


def queue_path_consistency(net):
    """Path consistency by a pair queue (close to Mackworth's PC-2), from
    the input labels: each queued pair (i, j) refines the labels (i, k)
    through j and (k, j) through i, and queues each pair it changes.
    Returns (ok, label matrix as lists), stopping at the first NONE."""
    m = net.to_array().tolist()
    n = len(m)
    if any(0 in row for row in m):
        return False, m
    queue = deque((i, j) for i in range(n) for j in range(n) if i != j)
    queued = set(queue)
    while queue:
        i, j = queue.popleft()
        queued.discard((i, j))
        for k in range(n):
            if k == i or k == j:
                continue
            for a, b, c in ((i, k, j), (k, j, i)):
                new = m[a][b] & _COMPOSE_CODE[m[a][c]][m[c][b]]
                if new != m[a][b]:
                    m[a][b] = new
                    m[b][a] = _CONVERSE_CODE[new]
                    if not new:
                        return False, m
                    if (a, b) not in queued:
                        queue.append((a, b))
                        queued.add((a, b))
    return True, m


def planted_network(n, rng):
    """A hidden dominance scenario on random points of a 4-by-4 grid, each
    label relaxed to a random superset or, half the time, to ALL."""
    points = rng.integers(0, 4, size=(n, 2))
    net = ConstraintNetwork(tuple(f"v{k}" for k in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            le = bool(np.all(points[i] <= points[j]))
            ge = bool(np.all(points[i] >= points[j]))
            base = CG if le and ge else CGPP if le else CGPPI if ge else CNO
            if rng.random() < 0.5:
                extra = Relation(int(rng.integers(0, 16)))
                net.add_constraint(f"v{i}", f"v{j}", base | extra)
    return net


def upper_pairs(mask):
    """(i, j) with i < j set in the mask, in row-major order."""
    return [(i, j) for i, j in np.argwhere(mask).tolist() if i < j]


def test_pc_sweeps_match_the_pair_queue():
    # Without a contradiction both reach the greatest path-consistent
    # refinement; with one, both report it, and the labels path_consistency
    # returns hold a NONE.
    rng = np.random.default_rng(23)
    palette = tuple(Relation(c) for c in range(1, 15))
    nets = [
        random_network(int(rng.integers(2, 13)), float(rng.uniform(0.2, 1.0)), palette, rng=rng)
        for _ in range(400)
    ]
    # The search's regime: CGPP|CGPPi and CNO, with and without their
    # supersets, at n 20-40 and average degree 3-12.
    for codes in ((6, 8), (6, 7, 8, 14)):
        for _ in range(5):
            n = int(rng.integers(20, 41))
            degree = float(rng.uniform(3, 12))
            nets.append(random_network(n, degree / (n - 1), [Relation(c) for c in codes], rng=rng))
    for n in (20, 30, 40, 60):
        # The clash keeps only base cases that path consistency removes
        # from the first pair it narrows, so a NONE must be derived.
        net = planted_network(n, rng)
        labels = net.to_array()
        closed = path_consistency(net)[1].to_array()
        i, j = upper_pairs(labels != closed)[0]
        clash = net.copy()
        clash.add_constraint(f"v{i}", f"v{j}", Relation(int(labels[i, j] & ~closed[i, j])))
        nets += [net, clash]
    verdicts = set()
    for net in nets:
        ok, refined = path_consistency(net)
        expected_ok, expected = queue_path_consistency(net)
        assert ok == expected_ok
        if ok:
            assert refined.to_array().tolist() == expected
        else:
            assert not refined.to_array().all()
        verdicts.add((len(net) >= 20, ok))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_algebraic_closure_predicate():
    net = chain_network()
    assert not is_algebraically_closed(net)  # (a, c) = ALL admits e.g. CG
    ok, refined = path_consistency(net)
    assert ok and is_algebraically_closed(refined)
    bad = ConstraintNetwork(("a", "b"))
    bad.add_constraint("a", "b", EMPTY)
    assert not is_algebraically_closed(bad)


def closed_by_triple_loop(net):
    """is_algebraically_closed written out over every triple of vertices."""
    if net.self_contradiction is not None:
        return False
    names = net.names
    for i in names:
        for j in names:
            if i != j and net.label(i, j) == EMPTY:
                return False
            for k in names:
                if k not in (i, j) and net.label(i, j) & ~compose(
                    net.label(i, k), net.label(k, j)
                ):
                    return False
    return True


def test_algebraic_closure_matches_the_triple_loop():
    rng = np.random.default_rng(11)
    palette = tuple(Relation(c) for c in range(16))
    seen = set()
    for _ in range(1500):
        n = int(rng.integers(1, 7))
        net = random_network(n, float(rng.random()), palette, rng=rng)
        if rng.random() < 0.5:
            net = path_consistency(net)[1]
        if rng.random() < 0.1:
            net.add_constraint("v0", "v0", CGPP | CNO)
        expected = closed_by_triple_loop(net)
        assert is_algebraically_closed(net) == expected
        seen.add(expected)
    assert seen == {False, True}


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_parse_network_with_comments_and_case():
    net = parse_network(
        """
        # a comment line
        nodes: a b c
        a b : cg|cgpp   # trailing comment
        b c : CGPP-1
        """
    )
    assert net.label("a", "b") == CG | CGPP
    assert net.label("b", "c") == CGPPI


def test_parse_duplicate_declarations_intersect():
    net = parse_network("nodes: a b\na b : CG|CGPP\na b : CG|CNO\n")
    assert net.label("a", "b") == CG


def test_parse_four_tokens_with_a_colon_opening_the_third():
    net = parse_network("nodes: a b\na b :CG |CNO\n")
    assert net.label("a", "b") == CG | CNO


def test_parse_self_loop_with_cg_accepted():
    net = parse_network("nodes: a b\na a : CG|CNO\n")
    assert net.self_contradiction is None


def test_parse_later_declaration_in_converse_orientation_intersects_to_none():
    net = parse_network("nodes: a b\na b : CG|CGPP\nb a : CGPP\n")
    assert net.label("a", "b") == EMPTY
    assert net.label("b", "a") == EMPTY


_TOKEN_SPELLINGS = {CG: "CG", CGPP: "CGPP", CGPPI: "CGPPi", CNO: "CNO"}


@st.composite
def relation_spellings(draw):
    """A relation and one of its accepted spellings in the text format."""
    r = Relation(draw(st.integers(min_value=0, max_value=15)))
    if r == EMPTY:
        text = draw(st.sampled_from(["NONE", "none", "None"]))
    elif r == UNIVERSAL and draw(st.booleans()):
        text = draw(st.sampled_from(["ALL", "all"]))
    else:
        tokens = [
            "CGPP-1" if base == CGPPI and draw(st.booleans()) else _TOKEN_SPELLINGS[base]
            for base in _TOKEN_SPELLINGS
            if base in r
        ]
        tokens = draw(st.permutations(tokens))
        text = draw(st.sampled_from(["|", " | ", "|\t"])).join(tokens)
        if draw(st.booleans()):
            text = text.lower()
    return r, text


# Vertex names short and longer than 8 bytes, ASCII and not; whitespace that
# str.split separates tokens by ("\x1f" ends no line); breaks that
# str.splitlines ends lines at.
_NAME_FORMS = (
    "n{}", "Reg_{}", "region_number_{}", "r\u00e9gion{}", "\u533a\u57df{}", "\U0001d51e_{}"
)
_SEPARATORS = (" ", "\t", "  ", "\x1f", "\xa0", "\u3000")
_LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028")
# A constraint line with the separators a, b and c, plain or not.
_LINE_FORMS = ("{u}{a}{v}{b}:{c}{r}", "{u}{a}{v}:{r}", "{u}{a}{v}{b}:{r}", "{u}{a}{v}:{c}{r}")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_matches_one_add_constraint_per_declaration(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    names = tuple(data.draw(st.sampled_from(_NAME_FORMS)).format(k) for k in range(n))
    reference = ConstraintNetwork(names)
    separator = st.sampled_from(_SEPARATORS)
    lines = data.draw(st.lists(st.sampled_from(["", "   ", "# note", "\t# nodes: x"]), max_size=3))
    head = data.draw(st.sampled_from(["nodes: ", "NODES:\t", "  Nodes:  ", "nodes:\u3000"]))
    lines.append(head + data.draw(separator).join(names))
    vertex = st.integers(min_value=0, max_value=n - 1)
    for _ in range(data.draw(st.integers(min_value=0, max_value=80))):
        i = data.draw(vertex)
        j = data.draw(st.one_of(vertex, st.just(i)))
        r, text = data.draw(relation_spellings())
        if i == j and CG not in r:
            r, text = r | CG, "CG|" + text if r else "CG"
        reference.add_constraint(names[i], names[j], r)
        a, b, c = (data.draw(separator) for _ in range(3))
        form = data.draw(st.sampled_from(_LINE_FORMS))
        line = form.format(u=names[i], v=names[j], r=text, a=a, b=b, c=c)
        comment = data.draw(st.sampled_from(["", "  # why", "#x", "\t#"]))
        lines.append(line + comment)
        if data.draw(st.integers(min_value=0, max_value=5)) == 0:
            lines.append(data.draw(st.sampled_from(["", "   ", "# note", "\t"])))
    breaks = [data.draw(st.sampled_from(_LINE_BREAKS)) for _ in lines]
    breaks[-1] = data.draw(st.sampled_from(("", breaks[-1])))
    net = parse_network("".join(map(str.__add__, lines, breaks)))
    assert net.names == names
    assert net.self_contradiction is None
    assert np.array_equal(net.to_array(), reference.to_array())


# ASCII characters that end a line to str.splitlines.
_BREAK_CHARS = tuple(chr(c) for c in range(128) if len(f"a{chr(c)}b".splitlines()) == 2)


def _admitted(chunk):
    """True iff _scan_lines scans chunk: its only character below ' ' is
    the line feed."""
    return all(c >= " " or c == "\n" for c in chunk)


def test_bulk_scan_admits_line_feed_and_space_only():
    """Among the ASCII bytes below 33, the bulk scan admits exactly '\\n'
    and ' ', the line break and the token gap of the text mc4 writes;
    every other byte that str.isspace or str.splitlines knows, '\\t'
    among them, is refused, so a chunk holding one goes to the grammar.
    Bytes above ' ' are admitted and read as name bytes."""
    admitted = set()
    for c in range(128):
        chunk = f"a{chr(c)}b c"
        lines, regular, view, starts, lengths = network._scan_lines(chunk)
        if view is None:
            assert (lines, regular, starts, lengths) == (0, False, None, None)
            continue
        admitted.add(c)
        assert lines == len(chunk.splitlines())
        tokens = [chunk[a : a + k] for a, k in zip(starts.tolist(), lengths.tolist())]
        assert tokens == chunk.split()
    low = {c for c in admitted if c < 33}
    assert low == {10, 32}
    assert admitted == low | set(range(33, 128))
    assert all(chr(c).isspace() for c in low)
    assert {c for c in low if chr(c) in _BREAK_CHARS} == {10}
    known = {c for c in range(33) if chr(c).isspace() or chr(c) in _BREAK_CHARS}
    assert known - low == {9, 11, 12, 13, 28, 29, 30, 31}


@st.composite
def scan_chunks(draw):
    """An ASCII chunk as parse_network hands one to _scan_lines: lines of
    tokens and spaces, ended by any line break byte or, last, none; with
    its carriage returns folded into '\\n'.  Half the chunks end their
    lines in '\\n' or '\\r' only, and one in eight puts a tab or another
    control byte into a gap or a token."""
    gap = st.text(" ", min_size=1, max_size=3)
    tokens = ["a", "v10", ":", "CG|CNO"]
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        gap = st.text(" \t\x1f", min_size=1, max_size=3)
        tokens.append(draw(st.sampled_from(("\x00", "a\x01b", "\x1b", "x\x7f", "a\tb"))))
    breaks = _BREAK_CHARS if draw(st.booleans()) else "\n\r"
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        n = draw(st.sampled_from((0, 4, 4, 4, 1, 3, 5, 8)))
        line = draw(st.text(" ", max_size=2))
        for k in range(n):
            line += (draw(gap) if k else "") + draw(st.sampled_from(tokens))
        pieces.append(line + draw(st.text(" ", max_size=2)) + draw(st.sampled_from(breaks)))
    if draw(st.booleans()):
        pieces[-1] = pieces[-1][:-1]
    return "".join(pieces).replace("\r\n", "\n").replace("\r", "\n") or " "


@settings(max_examples=400, deadline=None)
@given(scan_chunks())
@example("a b : CG c d : CG\ne f : CG\n ")  # 8 + 4 tokens and a line of spaces
@example("a b : CG\n  \nc  d :  CG")  # a line of spaces between two of four tokens
@example("a b : CG \nc d : CG ")  # a space ends the first line; the last may end in one
@example("a\tb\t:\tCG\n")  # tab-separated; the chunk is refused
@example("a b : CG\x0bc d : CG\n")  # '\v' ends a line; the chunk is refused
def test_scan_lines_counts_and_tests_lines_as_str_splitlines(chunk):
    lines, regular, view, starts, lengths = network._scan_lines(chunk)
    assert (view is not None) == _admitted(chunk)
    if view is None:
        assert not regular
        return
    assert lines == len(chunk.splitlines())
    # Four tokens a line, and no space between a line's last one and its break.
    fours = all(len(line.split()) == 4 for line in chunk.splitlines())
    assert regular == (fours and " \n" not in chunk)
    assert [chunk[s : s + k] for s, k in zip(starts.tolist(), lengths.tolist())] == chunk.split()


_PARSE_ERRORS = [
    ("a b : CG\n", "nodes", 1),
    ("nodes:\n", "no vertices", 1),
    ("nodes: a a\n", "duplicate", 1),
    ("nodes: a b\na z : CG\n", "undeclared", 2),
    ("nodes: a b\na z : XY\n", "undeclared", 2),
    ("nodes: a b\na b CG\n", "NAME NAME : RELATION", 2),
    ("nodes: a b\na b CG CNO\n", "NAME NAME : RELATION", 2),
    ("nodes: a b\na b :CG|CNO CG\n", "unknown relation", 2),
    ("nodes: a b\na b c : CG\n", "two vertex names", 2),
    ("nodes: a b\na b : CG|XY\n", "unknown relation", 2),
    ("nodes: a b\na a : CNO\n", "self-loop", 2),
    ("nodes: a:b c\n", "':'", 1),
    ("# only a comment\n", "nodes", None),
]


# A case is named by its text and message fragment, the expected line aside.
@pytest.mark.parametrize(
    "text, fragment, line", _PARSE_ERRORS, ids=[f"{t}-{f}" for t, f, _ in _PARSE_ERRORS]
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(ParseError) as info:
        parse_network(text)
    assert fragment in str(info.value)
    assert info.value.line == line


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_network("nodes: a b\n\na b : BOGUS\n")
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_parse_error_after_many_valid_lines():
    valid = ["a b : CG|CGPP", "b a : cg", "a a : CG|CNO", "", "# note"] * 100
    text = "nodes: a b\n" + "\n".join(valid) + "\nb a : CG|BOGUS\n"
    with pytest.raises(ParseError) as info:
        parse_network(text)
    assert info.value.line == 502
    assert info.value.token == "BOGUS"


def test_parse_reports_the_first_of_two_bad_lines():
    text = "nodes: a b\na b : CG\na a : CNO\na b : CG\nb z : CG\na b : XY\n"
    with pytest.raises(ParseError) as info:
        parse_network(text)
    assert info.value.line == 3
    assert "self-loop" in str(info.value)


def reference_parse_network(text):
    """The text-format parser as one loop over text.splitlines(), as it was
    before parse_network took plain lines in bulk."""
    net = None
    codes = {}
    lo = []
    hi = []
    vals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if net is None:
            if line[:6].lower() != "nodes:":
                raise ParseError("expected a 'nodes:' line before constraints", line=lineno)
            names = line[6:].split()
            if not names:
                raise ParseError("'nodes:' line declares no vertices", line=lineno)
            for name in names:
                if ":" in name:
                    raise ParseError(
                        f"vertex name {name!r} may not contain ':'", token=name, line=lineno
                    )
            if len(set(names)) != len(names):
                raise ParseError("duplicate vertex name", line=lineno)
            net = ConstraintNetwork(names)
            index = net._index
            continue
        left, colon, right = line.partition(":")
        if not colon:
            raise ParseError("expected 'NAME NAME : RELATION'", line=lineno)
        parts = left.split()
        if len(parts) != 2:
            raise ParseError("expected exactly two vertex names before ':'", line=lineno)
        u, v = parts
        i = index.get(u)
        if i is None:
            raise ParseError(f"undeclared vertex {u!r}", token=u, line=lineno)
        j = index.get(v)
        if j is None:
            raise ParseError(f"undeclared vertex {v!r}", token=v, line=lineno)
        code = codes.get(right)
        if code is None:
            try:
                code = codes[right] = int(parse_relation(right))
            except ParseError as exc:
                raise ParseError(str(exc), token=exc.token, line=lineno) from None
        if i > j:
            i, j, code = j, i, _CONVERSE_CODE[code]
        elif i == j:
            if not code & Relation.CG:
                raise ParseError(
                    f"self-loop on {u!r} excludes CG and is unsatisfiable", token=u, line=lineno
                )
            continue
        lo.append(i)
        hi.append(j)
        vals.append(code)
    if net is None:
        raise ParseError("no 'nodes:' line found")
    if vals:
        rows = np.array(lo, dtype=np.intp)
        cols = np.array(hi, dtype=np.intp)
        m = net._m
        np.bitwise_and.at(m, (rows, cols), np.array(vals, dtype=np.uint8))
        m[cols, rows] = _CONVERSE_ARR[m[rows, cols]]
    return net


# A lone surrogate, as text decoded with errors="surrogateescape" holds.
_CORPUS_NAMES = (
    "a", "b", "c7", "region_number_12", "r\u00e9gion", "\u533a\u57df", "\U0001d51e", "x\udcff"
)
_CORPUS_BREAKS = ("\n",) * 6 + ("\r\n", "\r", "\x85", "\u2028", "\v")
# Faulty lines, by kind, from two declared names u and v and a relation r.
_NAME_FAULTS = {
    "undeclared name": ("{u} zz{k} : {r}", "zz{k} {v} : {r}"),
    "name holding ':'": ("{u}:x {v} : {r}", "{u} {v}:x : {r}"),
}
_STRUCTURAL_FAULTS = {
    "dropped token": ("{u} : {r}", "{u} {v} :", "{v} {r}"),
    "extra token": ("{u} {v} {u} : {r}", "{u} {v} : {r} {r}", "x {u} {v} : {r}"),
    "bad spelling": ("{u} {v} : CG|XY", "{u} {v} : CGP", "{u} {v} :CNO|"),
    "self-loop without CG": ("{u} {u} : CNO", "{v} {v} : CGPP|CGPPi"),
    "missing colon": ("{u} {v} {r}", "{u} {v} CG|CNO", "{u} {v} {r} {r}"),
}


def _corpus_line(rng, names):
    """A valid constraint line over names, plain or not."""
    u, v = rng.choice(names), rng.choice(names)
    r = format_relation(Relation(rng.randrange(16) | (u == v)))
    if rng.random() < 0.3:
        r = r.lower()
    if rng.random() < 0.2:
        r = " | ".join(r.split("|"))
    form = rng.choice(
        ("{u} {v} : {r}",) * 4
        + ("{u}\t{v}\t:\t{r}", "{u} {v}:{r}", "{u} {v} :{r}", "  {u}  {v}  :  {r}  ")
        + ("{u} {v} : {r}  # note", "#{u} {v} : {r}", "{u} {v} : {r}#", "{u} {v} :{r} #")
    )
    return form.format(u=u, v=v, r=r)


def _fault(rng, names, kinds, k):
    u, v = rng.sample(names, 2)
    r = format_relation(Relation(rng.randrange(1, 16)))
    return rng.choice(kinds[rng.choice(sorted(kinds))]).format(u=u, v=v, r=r, k=k)


def corpus_text(seed):
    """A seeded text of plain and irregular lines, and the same text with one
    fault put in at a random line; one text in four has a second fault, a
    name fault before a structural one or the reverse."""
    rng = random.Random(seed)
    names = rng.sample(_CORPUS_NAMES, rng.randrange(2, len(_CORPUS_NAMES) + 1))
    lines = [rng.choice(("", "# header", "   ")) for _ in range(rng.randrange(3))]
    lines.append("nodes: " + " ".join(names))
    for _ in range(rng.randrange(1, 40)):
        blank = rng.choice(("", "# c", "\t"))
        lines.append(_corpus_line(rng, names) if rng.random() < 0.85 else blank)
    faulty = list(lines)
    kinds = [_NAME_FAULTS | _STRUCTURAL_FAULTS]
    if seed % 4 == 0:
        kinds = [_NAME_FAULTS, _STRUCTURAL_FAULTS]
        if seed % 8 == 0:
            kinds.reverse()
    # Put the later fault in first, so the earlier one's place stays put.
    places = sorted(rng.sample(range(len(faulty) + 1), len(kinds)), reverse=True)
    for k, (place, kind) in enumerate(zip(places, reversed(kinds))):
        faulty.insert(place, _fault(rng, names, kind, k))

    def join(text):
        breaks = [rng.choice(_CORPUS_BREAKS) for _ in text]
        breaks[-1] = rng.choice(("", breaks[-1]))  # half the texts end without one
        return "".join(map(str.__add__, text, breaks))

    return join(lines), join(faulty)


def _is_plain(line, names):
    """True iff line's tokens are those parse_network can take in bulk;
    it does when, besides, no space ends the line."""
    tokens = line.split()
    return (
        len(tokens) == 4
        and tokens[0] in names
        and tokens[1] in names
        and tokens[0] != tokens[1]
        and tokens[2] == ":"
        and tokens[3] in network._SPELLINGS
    )


def large_corpus_text(seed):
    """A seeded canonical text of at least 2000 lines with one line put in
    at a seeded place after 'nodes:': a corpus fault for an even seed, an
    irregular valid line for an odd one."""
    rng = random.Random(seed)
    net = random_network(80, 0.7, tuple(Relation(c) for c in range(1, 15)), rng=seed)
    lines = serialize_network(net).splitlines()
    names = list(net.names)
    if seed % 2:
        line = _corpus_line(rng, names)
        while _is_plain(line, names):
            line = _corpus_line(rng, names)
    else:
        line = _fault(rng, names, _NAME_FAULTS | _STRUCTURAL_FAULTS, 0)
    lines.insert(rng.randrange(1, len(lines) + 1), line)
    assert len(lines) > 2000
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        net = parse(text)
    except ParseError as exc:
        return str(exc), exc.token, exc.line
    return net.names, net.to_array().tobytes()


@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_parse_matches_the_line_loop_on_a_seeded_corpus(monkeypatch, chunk):
    monkeypatch.setattr(network, "_CHUNK", chunk)
    fragments = (
        "undeclared vertex",
        "two vertex names",
        "unknown relation token",
        "self-loop",
        "NAME NAME : RELATION",
        "before constraints",
    )
    met = set()
    for seed in range(600):
        for text in corpus_text(seed):
            want = _outcome(reference_parse_network, text)
            assert _outcome(parse_network, text) == want, (seed, text)
            if len(want) == 3:
                met.update(f for f in fragments if f in want[0])
    assert met == set(fragments)
    for seed in range(24):
        text = large_corpus_text(seed)
        want = _outcome(reference_parse_network, text)
        assert len(want) == (2 if seed % 2 else 3), seed  # valid, or the fault's error
        assert _outcome(parse_network, text) == want, seed


def _chunk_texts(text):
    """The chunks parse_network reads text in, with the number of the first
    line of each; the first chunk begins after the 'nodes:' line.  text
    holds no carriage return, as parse_network has folded them."""
    lines = text.splitlines(keepends=True)
    nodes = next(k for k, line in enumerate(lines) if line.startswith("nodes:"))
    chunks, pos, lineno = [], len("".join(lines[: nodes + 1])), nodes + 2
    while pos < len(text):
        end = network._chunk_end(text, pos)
        chunks.append((lineno, text[pos:end]))
        lineno += len(text[pos:end].splitlines())
        pos = end
    return chunks


def _chunk_first_lines(text):
    """Number of the first line of each chunk parse_network reads text in;
    the first chunk begins after the 'nodes:' line."""
    return [lineno for lineno, _ in _chunk_texts(text)]


def _chunk_lines(text):
    """The line numbers of each chunk parse_network reads text in."""
    firsts = _chunk_first_lines(text)
    return [range(a, b) for a, b in zip(firsts, [*firsts[1:], len(text.splitlines()) + 1])]


def _spy_parse_line(monkeypatch):
    """The line numbers handed to _parse_line, in call order, as they come."""
    calls = []
    parse_line = network._parse_line

    def counted(raw, lineno, net, spellings):
        calls.append(lineno)
        return parse_line(raw, lineno, net, spellings)

    monkeypatch.setattr(network, "_parse_line", counted)
    return calls


# A comment preamble longer than one 64 KiB chunk.
_PREAMBLE = "# preamble\n" * 8000


def _with_irregular_line(lines, edit):
    """lines with one irregular line put in by edit; returns (lines, its number).

    "end" and "mid" edits put a line after the last line or before the middle
    one.  "mid-lower" writes the middle line's spelling in lower case there
    and on every later line that has it, so later chunks hold a spelling that
    is not canonical.
    """
    where, _, what = edit.partition(" ")
    k = len(lines) if where == "end" else len(lines) // 2
    if where != "mid-lower":
        return lines[:k] + [what] + lines[k:], k + 1
    lines = lines[:]
    spelling = lines[k].partition(" : ")[2]
    for j in range(k, len(lines)):
        pair, _, right = lines[j].partition(" : ")
        if right == spelling:
            lines[j] = f"{pair} : {spelling.lower()}"
    return lines, k + 1


@pytest.mark.parametrize(
    "chunk, head, edit, n_chunks",
    [
        (network._CHUNK, "", None, 13),
        (network._CHUNK, "", "mid # mid", 13),
        (network._CHUNK, "", "mid-lower", 13),
        (1 << 15, "", None, 25),
        (1 << 15, "", "end # end", 25),
        (1 << 15, "", "end # r\u00e9gion", 25),
        (1 << 15, _PREAMBLE, None, 25),
    ],
    ids=[
        "plain-chunk-default",
        "mid-comment-chunk-default",
        "mid-lower-spelling-chunk-default",
        "plain-chunk-32k",
        "comment-chunk-32k",
        "non-ascii-chunk-32k",
        "preamble-chunk-32k",
    ],
)
def test_only_a_chunk_with_an_irregular_line_goes_through_the_grammar(
    monkeypatch, chunk, head, edit, n_chunks
):
    calls = _spy_parse_line(monkeypatch)
    monkeypatch.setattr(network, "_CHUNK", chunk)
    net = random_network(400, 0.5, M99_PALETTE, rng=11)
    lines = (head + serialize_network(net)).splitlines()
    if edit:
        lines, bad = _with_irregular_line(lines, edit)
    text = "\n".join(lines) + "\n"
    firsts = _chunk_first_lines(text)
    assert len(firsts) == n_chunks
    got = parse_network(text)
    assert np.array_equal(got.to_array(), net.to_array())
    want = reference_parse_network(text)
    assert got.names == want.names and np.array_equal(got.to_array(), want.to_array())
    # No line up to 'nodes:' reaches the grammar, and every line of the
    # chunk that holds the irregular line does, once, and no other line.
    # A lower-case spelling is irregular in every chunk that uses it.
    nodes = head.count("\n") + 1
    assert firsts[0] == nodes + 1
    assert not [k for k in calls if k <= nodes]
    grammar = ()
    if edit:
        c = max(k for k, f in enumerate(firsts) if f <= bad)
        assert 0 < c < n_chunks - 1 or edit.startswith("end")
        grammar = _chunk_lines(text)[c]
    if edit == "mid-lower":  # every chunk from c on uses the spelling
        assert all(" : c" in t for _, t in _chunk_texts(text)[c:])  # canonical ones begin 'C'
        grammar = range(firsts[c], len(lines) + 1)
    assert calls == [*grammar]


@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_blank_lines_send_their_chunks_of_a_gen_network_to_the_grammar(monkeypatch, chunk):
    """Blank and whitespace-only lines fail the four-token test, so each
    chunk that holds one goes to the grammar, on exactly its own lines, and
    every other chunk is read in bulk.  With the '\\v' and '\\f' of the
    blank lines made spaces, the chunks that hold a blank line still go to
    the grammar."""
    net = random_network(200, 0.5, M99_PALETTE, rng=5)
    lines = serialize_network(net).splitlines()
    rng = random.Random(5)
    for k in sorted(rng.sample(range(1, len(lines) + 1), 60), reverse=True):
        lines.insert(k, rng.choice(("", " ", "\t", " \t\x0b\x0c ")))
    text = "\n".join(lines) + "\n"
    monkeypatch.setattr(network, "_CHUNK", chunk)
    calls = _spy_parse_line(monkeypatch)
    assert np.array_equal(parse_network(serialize_network(net)).to_array(), net.to_array())
    assert calls == []
    spaced = text.replace("\x0b", " ").replace("\x0c", " ")
    for text in (text, spaced):
        calls.clear()
        want = reference_parse_network(text)
        got = parse_network(text)
        assert got.names == want.names and np.array_equal(got.to_array(), want.to_array())
        assert np.array_equal(got.to_array(), net.to_array())
        words = [len(line.split()) for line in text.splitlines()]
        chunks = _chunk_lines(text)
        blank = [c for c in chunks if any(not words[k - 1] for k in c)]
        assert calls == [k for c in blank for k in c]
        assert blank and (len(blank) < len(chunks) or chunk != 40)


def _with_byte(lines, byte, place):
    """The text of lines with byte put in after the middle line: in a name
    the 'nodes:' line declares and that line uses, on a blank line of its
    own, or as that line's end."""
    k = len(lines) // 2
    lines = lines[:]
    if place == "name":
        name = f"w{byte}x"
        lines[0] += f" {name}"
        lines.insert(k, f"{name} v0 : CG|CNO")
    elif place == "blank":
        lines.insert(k, f" {byte} ")
    else:
        return "\n".join(lines[:k]) + byte + "\n".join(lines[k:]) + "\n"
    return "\n".join(lines) + "\n"


def _bulk_chunk(chunk, names):
    """True iff parse_network reads chunk in bulk: ASCII, no control byte
    but line feed, and every line plain, with no space before its break."""
    return (
        chunk.isascii()
        and _admitted(chunk)
        and " \n" not in chunk
        and all(_is_plain(line, names) for line in chunk.splitlines())
    )


@pytest.mark.parametrize("place", ["name", "blank", "line-end"])
@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_a_control_byte_del_or_nel_reads_as_the_line_loop(monkeypatch, chunk, place):
    """Each C0 byte, DEL and '\\x85', in a name, on a blank line or as a
    line end, gives the line loop's matrix, error and line number.  Every
    chunk that holds a byte the bulk scan refuses goes to the grammar, and
    every other chunk up to the first error is read in bulk."""
    # Two chunks of the default size, or many of 40 characters.
    net = random_network(120 if chunk == network._CHUNK else 40, 0.5, M99_PALETTE, rng=17)
    lines = serialize_network(net).splitlines()
    monkeypatch.setattr(network, "_CHUNK", chunk)
    assert len(_chunk_texts("\n".join(lines) + "\n")) > 1
    calls = _spy_parse_line(monkeypatch)
    outcomes, bulk = set(), ""  # bulk: the bytes whose text met no grammar
    for byte in [*map(chr, range(32)), "\x7f", "\x85"]:
        text = _with_byte(lines, byte, place)
        want = _outcome(reference_parse_network, text)
        calls.clear()
        assert _outcome(parse_network, text) == want, repr(byte)
        outcomes.add(len(want))
        folded = text.replace("\r\n", "\n").replace("\r", "\n")
        names = set(folded.splitlines()[0].split()[1:])
        last = want[2] if len(want) == 3 else len(folded.splitlines())
        grammar = [
            k
            for c, (_, t) in zip(_chunk_lines(folded), _chunk_texts(folded))
            if not _bulk_chunk(t, names)
            for k in c
            if k <= last
        ]
        assert calls == grammar, repr(byte)
        if not calls:
            bulk += byte
    assert outcomes == {2, 3}  # valid texts and errors
    # DEL is a name byte; of the bytes below ' ', a line ends in a line feed
    # or, folded into one, a carriage return; a blank line, whatever it
    # holds, sends its chunk to the grammar.
    assert bulk == {"name": "\x7f", "blank": "", "line-end": "\n\r"}[place]


@pytest.mark.parametrize("gaps", ["tabs", "runs"])
@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_tabs_send_their_chunks_of_a_gen_network_to_the_grammar(monkeypatch, chunk, gaps):
    """Tabs, or runs of spaces and tabs, between the tokens of some lines
    of a gen network send each chunk that holds one of those lines to the
    grammar, on exactly its own lines; every other chunk is read in bulk."""
    net = random_network(200, 0.5, M99_PALETTE, rng=19)
    lines = serialize_network(net).splitlines()
    seps = {"tabs": ("\t",), "runs": (" \t", "\t\t", "  \t ", "\t ")}[gaps]
    rng = random.Random(19)
    tabbed = sorted(rng.sample(range(2, len(lines) + 1), 40))  # line numbers
    for k in tabbed:
        lines[k - 1] = "".join(rng.choice(seps) + t for t in lines[k - 1].split())
    assert (gaps == "tabs") == (" " not in "".join(lines[k - 1] for k in tabbed))
    text = "\n".join(lines) + "\n"
    want = reference_parse_network(text)
    monkeypatch.setattr(network, "_CHUNK", chunk)
    calls = _spy_parse_line(monkeypatch)
    got = parse_network(text)
    assert got.names == want.names and np.array_equal(got.to_array(), want.to_array())
    assert np.array_equal(got.to_array(), net.to_array())
    chunks = _chunk_lines(text)
    grammar = [c for c in chunks if any(k in c for k in tabbed)]
    assert calls == [k for c in grammar for k in c]
    assert len(grammar) < len(chunks) or chunk != 40


@pytest.mark.parametrize("twice", ["equal", "all-first", "all-second"])
@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_a_pair_declared_twice_in_one_chunk_is_read_in_bulk(monkeypatch, chunk, twice):
    """A bulk chunk's declarations are written by one gather and scatter.
    Where a pair is declared twice in a chunk with labels that differ, the
    cell reads back the wrong label, and only that chunk is intersected
    again, one declaration at a time."""
    net = random_network(200, 0.5, M99_PALETTE, rng=7)
    lines, second = [], []  # second: numbers of the second declarations
    for k, line in enumerate(serialize_network(net).splitlines()):
        declared = [line]
        if k and k % 97 == 0:
            declared.append(line)
            if twice != "equal":
                declared[twice == "all-second"] = f"{line.partition(' : ')[0]} : ALL"
            second.append(len(lines) + 2)
        lines += declared
    text = "\n".join(lines) + "\n"
    want = reference_parse_network(text)
    monkeypatch.setattr(network, "_CHUNK", chunk)
    calls = _spy_parse_line(monkeypatch)
    redone = []  # one entry per chunk intersected again
    bitwise_and = np.bitwise_and

    class _Spy:
        def at(self, *args):
            redone.append(0)
            return bitwise_and.at(*args)

    monkeypatch.setattr(np, "bitwise_and", _Spy())
    got = parse_network(text)
    assert calls == []
    assert got.names == want.names and np.array_equal(got.to_array(), want.to_array())
    assert np.array_equal(got.to_array(), net.to_array())
    chunks = _chunk_lines(text)
    both = sum(any(k in c and k - 1 in c for k in second) for c in chunks)
    assert both > 0
    assert len(redone) == (0 if twice == "equal" else both)


@pytest.mark.parametrize(
    "extra",
    [("v0 v1 : CG v2 v3 : CG", ""), ("v0 v1 :", "CG v2 v3 : CG")],
    ids=["eight-then-blank", "three-then-five"],
)
@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_two_lines_of_eight_tokens_in_all_go_to_the_grammar(monkeypatch, chunk, extra):
    """Two lines that hold eight tokens, but not four each, fail the
    four-token test and the count behind it, though cut into fours they
    would read as two plain declarations.  Their chunk goes through the
    grammar, which raises at the first of them."""
    net = random_network(200, 0.5, M99_PALETTE, rng=9)
    lines = serialize_network(net).splitlines()
    bad = len(lines) // 2 + 1
    lines[bad - 1 : bad - 1] = extra
    text = "\n".join(lines) + "\n"
    want = _outcome(reference_parse_network, text)
    assert want[2] == bad
    monkeypatch.setattr(network, "_CHUNK", chunk)
    calls = _spy_parse_line(monkeypatch)
    assert _outcome(parse_network, text) == want
    c = next(c for c in _chunk_lines(text) if bad in c)
    assert bad + 1 in c or chunk != network._CHUNK
    assert calls == [*range(c[0], bad + 1)]


def _blank_chunk(lines):
    """lines with blank lines put in after the middle one, enough of them
    that at least one chunk holds blank lines only."""
    k = len(lines) // 2
    return "\n".join(lines[:k] + [""] * (3 * network._CHUNK) + lines[k:]) + "\n"


# Texts whose lines the line test of _scan_lines must count exactly, each
# made from the lines of a gen network.
_LINE_TEST_TEXTS = {
    # 8 tokens, 4 tokens, then a last line of one space and no '\n': 12
    # tokens on 3 lines with 2 breaks, and 2 of the 3 fourth tokens are
    # followed by a break, the 8th and the 12th.
    "eight-four-space": lambda lines: "nodes: a b c d e f\na b : CG c d : CG\ne f : CG\n ",
    "eight-four-space-at-the-end": lambda lines: (
        "\n".join([*lines, "v0 v1 : CG v2 v3 : CG", "v4 v5 : CG"]) + "\n "
    ),
    # '\v' is a line break to str.splitlines: "v0" and "v1 : CG" are two
    # lines, the first of them an error.  The chunk goes to the grammar
    # unscanned.
    "vt-between-names": lambda lines: "\n".join(
        [*lines[: len(lines) // 2], "v0\x0bv1 : CG", *lines[len(lines) // 2 :]]
    ) + "\n",
    "no-final-newline": lambda lines: "\n".join(lines),
    "whitespace-last-line": lambda lines: "\n".join(lines) + "\n \t ",
    "blank-chunk": _blank_chunk,
}


@pytest.mark.parametrize("case", list(_LINE_TEST_TEXTS))
@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_lines_are_counted_only_in_chunks_that_fail_the_line_test(monkeypatch, chunk, case):
    """_scan_lines counts a chunk's line breaks and tests that each of the
    first fourth tokens is followed by one.  Only a chunk that fails, here
    exactly one where some line holds other than four tokens, or one with a
    byte the scan refuses ('\\v', '\\t'), goes to the grammar, which
    counts its lines one by one, and on exactly its own lines up to the
    first error.  The text reads as by the line loop, matrix, error and
    line number."""
    net = random_network(200, 0.5, M99_PALETTE, rng=13)
    lines = serialize_network(net).splitlines()
    text = _LINE_TEST_TEXTS[case](lines)
    want = _outcome(reference_parse_network, text)
    monkeypatch.setattr(network, "_CHUNK", chunk)
    calls = _spy_parse_line(monkeypatch)
    assert np.array_equal(parse_network(serialize_network(net)).to_array(), net.to_array())
    assert calls == []
    assert _outcome(parse_network, text) == want
    # Chunks past the first error are never read.
    last = want[2] if len(want) == 3 else len(text.splitlines())
    words = [len(line.split()) for line in text.splitlines()]
    chunks = [(c, _admitted(t)) for c, (_, t) in zip(_chunk_lines(text), _chunk_texts(text))]
    failing = [c for c, ok in chunks if not ok or any(words[k - 1] != 4 for k in c)]
    assert calls == [k for c in failing for k in c if k <= last]
    assert bool(calls) == (case != "no-final-newline")
    refused = [c for c, ok in chunks if not ok]
    assert len(refused) == (case in ("vt-between-names", "whitespace-last-line"))
    if case == "blank-chunk":
        assert any(not any(words[k - 1] for k in c) for c in _chunk_lines(text))


def _join_lines(lines, eols):
    """lines with the line ends eols after them in turn."""
    return "".join(map(str.__add__, lines, cycle(eols)))


@pytest.mark.parametrize(
    "eols", [("\r",), ("\r\n",), ("\r", "\n", "\r\n")], ids=["cr", "crlf", "mixed"]
)
@pytest.mark.parametrize("chunk", [network._CHUNK, 41], ids=["chunk-default", "chunk-41"])
def test_chunks_end_at_a_lone_cr_and_never_inside_a_crlf(monkeypatch, chunk, eols):
    """CR, CRLF and mixed texts are read in the chunks of their '\n' form,
    so a chunk ends where a lone CR stood and never between '\r' and '\n'."""
    scans = []  # the chunks handed to _scan_lines, in order
    scan_lines = network._scan_lines

    def counted(text):
        scans.append(text)
        return scan_lines(text)

    monkeypatch.setattr(network, "_scan_lines", counted)
    monkeypatch.setattr(network, "_CHUNK", chunk)
    net = random_network(400 if chunk == network._CHUNK else 12, 0.5, M99_PALETTE, rng=11)
    lines = serialize_network(net).splitlines()
    lf = parse_network(_join_lines(lines, ("\n",)))
    assert np.array_equal(lf.to_array(), net.to_array())
    lf_scans, scans[:] = scans[:], []
    assert len(lf_scans) > 2
    got = parse_network(_join_lines(lines, eols))
    assert got.names == lf.names and np.array_equal(got.to_array(), lf.to_array())
    # Compared as lists of lengths and of lines, never as joined strings: a
    # failure then names the first bad chunk or line, where a string diff
    # of some 800 KB would take minutes.
    assert [len(s) for s in scans] == [len(s) for s in lf_scans]
    assert [s.splitlines() for s in scans] == [s.splitlines() for s in lf_scans]
    assert all(len(s) >= chunk and s.endswith("\n") for s in scans[:-1])
    with pytest.raises(ParseError) as exc:
        parse_network(_join_lines([*lines, "v0 v1 : XX"], eols))
    assert exc.value.line == len(lines) + 1


def _token_view(tokens):
    """The view, starts and lengths that _scan_lines gives for the tokens
    of an ASCII chunk, one token a line, built here from the tokens, so
    that they may hold any name byte, control bytes included.  Where
    _scan_lines scans the chunk, it gives the same."""
    chunk = "\n".join(tokens)
    raw = b" " + chunk.encode("ascii") + network._PAD
    view = np.ndarray((len(raw) - 8,), "<u8", raw, 1, (1,))
    lengths = np.array(list(map(len, tokens)), dtype=np.intp)
    starts = np.cumsum(lengths + 1) - lengths - 1
    if _admitted(chunk):
        _, _, scanned, *tokens_at = network._scan_lines(chunk)
        assert scanned.tobytes() == view.tobytes()
        assert [a.tolist() for a in tokens_at] == [starts.tolist(), lengths.tolist()]
    return view, starts, lengths


def _table_lookup(table, tokens):
    """table.get on the tokens, handed to it as parse_network does: in one
    chunk of their own, one token a line."""
    view, starts, lengths = _token_view(tokens)
    key0 = network._token_keys(view, starts, lengths, 1)[0]
    return table.get(key0, view, starts, lengths)


# Bytes a vertex name may hold in a chunk read in bulk: ASCII but neither
# whitespace nor ':' nor '#'.
_NAME_BYTES = "".join(
    c for c in map(chr, range(128)) if not c.isspace() and c not in ":#"
)


def _random_name(rng, size):
    return "".join(rng.choice(_NAME_BYTES) for _ in range(size))


@pytest.mark.parametrize("n_keys", [9, 3000], ids=["one-a-length", "colliding"])
def test_byte_table_finds_its_keys_and_nothing_else(n_keys):
    """Keys of 1 to 31 bytes across word boundaries are found with their
    values; a key with a NUL behind it, a key's prefix, a 32-byte token and
    random non-keys are not, in a table small or large enough that keys
    share home slots."""
    rng = random.Random(n_keys)
    sizes = [1, 7, 8, 9, 15, 16, 23, 24, 31]
    keys = {}
    while len(keys) < n_keys:
        size = sizes[len(keys)] if len(keys) < len(sizes) else rng.randrange(1, 32)
        keys.setdefault(_random_name(rng, size), len(keys))
    table = network._ByteTable(keys, np.intp)
    assert table.words == 4
    if n_keys > len(sizes):
        found = network._token_keys(*_token_view(list(keys)), table.words)
        home = table._hash(found) >> table.shift
        assert len(np.unique(home)) < len(keys)  # keys share home slots
    got = _table_lookup(table, list(keys))
    assert got is not None and got.tolist() == list(keys.values())
    assert _table_lookup(table, list(reversed(keys))).tolist() == list(reversed(keys.values()))
    strangers = [k + "\0" for k in keys] + [k[:-1] for k in keys if len(k) > 1]
    strangers += [_random_name(rng, 32), next(iter(keys)) * 32]
    seeded = random.Random(7)
    while len(strangers) < 10_000 + 2 * len(keys):
        strangers.append(_random_name(seeded, seeded.randrange(1, 40)))
    strangers = [s for s in strangers if s not in keys]
    assert len(strangers) > 10_000
    assert [s for s in strangers if _table_lookup(table, [s]) is not None] == []
    # One stranger among keys makes the whole lookup fail.
    for s in strangers[:: len(strangers) // 50]:
        assert _table_lookup(table, [*keys, s]) is None


def byte_corpus_text(seed):
    """A seeded ASCII text whose names stress the bulk read's byte keys:
    1 to 40 bytes long, across word boundaries, with NUL bytes, or spelled
    as relations; with undeclared tokens one byte off a name here and there.
    One text in ten is long enough for several default chunks."""
    rng = random.Random(seed)
    pool = ["CG", "ALL", "cg", "NONE", "CG|CNO", "x", "x\0", "\0"]
    while len(pool) < 14:
        name = _random_name(rng, rng.choice((1, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 40)))
        if rng.random() < 0.2:
            k = rng.randrange(len(name) + 1)
            name = name[:k] + "\0" + name[k:]
        pool.append(name)
    names = list(dict.fromkeys(rng.sample(pool, rng.randrange(2, len(pool) + 1))))
    long_ok = rng.random() < 0.5  # else no name of 32 bytes or more is used
    usable = [n for n in names if long_ok or len(n) < 32] or names[:1]
    spellings = [format_relation(Relation(c)) for c in range(1, 16)]
    lines = ["nodes: " + " ".join(names)]
    for _ in range(rng.randrange(1, 4000 if seed % 10 == 0 else 400)):
        u, v = rng.choice(usable), rng.choice(usable)
        r = rng.choice(spellings)
        if rng.random() < 0.05:
            r = r.lower()
        roll = rng.random()
        if roll < 0.01:
            u = u + "\0"
        elif roll < 0.02 and len(v) > 1:
            v = v[:-1]
        elif roll < 0.03:
            u = "CG"
        if u == v and not Relation(parse_relation(r)) & CG:
            r = "CG|" + r
        lines.append(f"{u} {v} : {r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", [network._CHUNK, 40], ids=["chunk-default", "chunk-40"])
def test_parse_matches_the_line_loop_on_byte_keyed_names(monkeypatch, chunk):
    monkeypatch.setattr(network, "_CHUNK", chunk)
    outcomes = set()
    for seed in range(300):
        text = byte_corpus_text(seed)
        want = _outcome(reference_parse_network, text)
        assert _outcome(parse_network, text) == want, seed
        outcomes.add("valid" if len(want) == 2 else "undeclared" in want[0])
    assert outcomes == {"valid", True}


@pytest.mark.parametrize("longest", [31, 32])
def test_names_of_up_to_31_bytes_are_read_in_bulk(monkeypatch, longest):
    """A chunk is read in bulk when every name it uses has at most 31
    bytes; one that uses a longer name goes through the grammar."""
    calls = _spy_parse_line(monkeypatch)
    n = 120
    net = random_network(n, 0.9, M99_PALETTE, rng=3)
    # The last vertex, named in every chunk, gets a name of `longest` bytes;
    # the others get names of 1 to 31 bytes.
    sizes = [1 + k % 31 for k in range(n - 1)] + [longest]
    rename = {f"v{k}": f"v{k}".ljust(size, "_") for k, size in enumerate(sizes)}
    lines = [
        " ".join(rename.get(t, t) for t in line.split(" "))
        for line in serialize_network(net).splitlines()
    ]
    text = "\n".join(lines) + "\n"
    got = parse_network(text)
    assert got.names == tuple(rename.values())
    assert np.array_equal(got.to_array(), net.to_array())
    chunks = _chunk_lines(text)
    assert len(chunks) > 3
    # Each chunk that uses the long name goes through the grammar from its
    # first line on; the 'nodes:' line never does.
    want = []
    for chunk in chunks:
        if any(len(max(lines[k - 1].split()[:2], key=len)) > 31 for k in chunk):
            want += chunk
    assert want == ([] if longest <= 31 else [*range(2, len(lines) + 1)])
    assert calls == want


def test_serialize_omits_all_and_round_trips():
    net = chain_network()
    text = serialize_network(net)
    assert "a c" not in text  # unconstrained pair omitted
    again = parse_network(text)
    assert np.array_equal(again.to_array(), net.to_array())
    assert again.names == net.names


def test_serialize_rejects_self_contradiction():
    net = ConstraintNetwork(("a",))
    net.add_constraint("a", "a", CNO)
    with pytest.raises(ValueError):
        serialize_network(net)


def test_serialize_rejects_a_network_with_no_vertices():
    # The text it would write, a bare "nodes:" line, does not parse.
    with pytest.raises(ParseError):
        parse_network("nodes: \n")
    with pytest.raises(ValueError, match="no vertices"):
        serialize_network(ConstraintNetwork(()))


@pytest.mark.parametrize("name", ["", "x y", "x:y", "x#y"])
def test_serialize_rejects_names_the_parser_cannot_read_back(name):
    # The text the serializer would write for this network does not parse.
    with pytest.raises(ParseError):
        parse_network(f"nodes: a {name}\na {name} : CG\n")
    net = ConstraintNetwork(("a", name))
    net.add_constraint("a", name, CG)
    with pytest.raises(ValueError, match=repr(name)):
        serialize_network(net)


def naive_serialize(net):
    lines = ["nodes: " + " ".join(net.names)]
    for i, u in enumerate(net.names):
        for v in net.names[i + 1 :]:
            r = net.label(u, v)
            if r != UNIVERSAL:
                lines.append(f"{u} {v} : {format_relation(r)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_serialize_matches_naive_formatter(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    names = data.draw(
        st.lists(
            st.text(alphabet="abcxyzAB_-.019é", min_size=1, max_size=6),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    drawn = random_network(n, density, tuple(Relation(c) for c in range(16)), rng=seed)
    net = ConstraintNetwork(names)
    for i in range(n):
        for j in range(i + 1, n):
            net.add_constraint(names[i], names[j], drawn.label(drawn.names[i], drawn.names[j]))
    assert serialize_network(net) == naive_serialize(net)


@pytest.mark.parametrize("seed", GEN_WRITE_SEEDS)
def test_serialize_matches_naive_formatter_at_the_gen_write_size(seed):
    net = random_network(400, 0.5, M99_PALETTE, rng=seed)
    # Compared as lists of lines: a failure then names the first bad line,
    # where a string diff of some 40 000 lines would take minutes.
    assert serialize_network(net).split("\n") == naive_serialize(net).split("\n")


@pytest.mark.parametrize("n", [1, 2, 400])
def test_serialize_writes_only_the_nodes_line_for_an_all_network(n):
    net = random_network(n, 0.0, M99_PALETTE, rng=0)
    text = serialize_network(net)
    assert text == "nodes: " + " ".join(f"v{k}" for k in range(n)) + "\n"
    assert text == naive_serialize(net) == serialize_network(ConstraintNetwork(net.names))
    assert parse_network(text).names == net.names


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_serialize_parse_round_trip_random(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    palette = tuple(Relation(c) for c in range(1, 15))
    net = random_network(n, 0.7, palette, rng=seed)
    again = parse_network(serialize_network(net))
    assert again.names == net.names
    assert np.array_equal(again.to_array(), net.to_array())


# ---------------------------------------------------------------------------
# Random networks
# ---------------------------------------------------------------------------


def test_random_network_is_deterministic_per_seed():
    palette = (CG, CGPP, CNO)
    a = random_network(6, 0.5, palette, rng=42)
    b = random_network(6, 0.5, palette, rng=42)
    c = random_network(6, 0.5, palette, rng=43)
    assert np.array_equal(a.to_array(), b.to_array())
    assert not np.array_equal(a.to_array(), c.to_array())


def reference_random_network(n_vertices, density, palette, seed):
    """random_network by integer-index scatters over np.triu_indices: the
    same draws, written pair by pair into both orientations."""
    rng = np.random.default_rng(seed)
    codes = np.array([int(r) for r in palette], dtype=np.uint8)
    m = np.full((n_vertices, n_vertices), 15, dtype=np.uint8)
    np.fill_diagonal(m, 1)
    rows, cols = np.triu_indices(n_vertices, k=1)
    if rows.size:
        hit = rng.random(rows.size) < density
        drawn = codes[rng.integers(0, codes.size, size=rows.size)]
        vals = np.where(hit, drawn, np.uint8(15)).astype(np.uint8)
        m[rows, cols] = vals
        m[cols, rows] = [int(converse(Relation(code))) for code in vals]
    return m


def test_random_network_matches_the_index_scatter():
    rng = np.random.default_rng(2026)
    for n in range(1, 41):
        for density in (0.0, 1.0, float(rng.random())):
            size = int(rng.integers(1, 17))
            palette = tuple(Relation(c) for c in rng.choice(16, size=size, replace=False))
            seed = int(rng.integers(0, 2**32))
            net = random_network(n, density, palette, rng=seed)
            want = reference_random_network(n, density, palette, seed)
            assert net.to_array().dtype == want.dtype
            assert np.array_equal(net.to_array(), want)


@pytest.mark.parametrize("seed", GEN_WRITE_SEEDS)
def test_random_network_matches_the_index_scatter_at_the_gen_write_size(seed):
    net = random_network(400, 0.5, M99_PALETTE, rng=seed)
    want = reference_random_network(400, 0.5, M99_PALETTE, seed)
    assert np.array_equal(net.to_array(), want)


def test_random_network_density_extremes():
    palette = (CGPP,)
    empty = random_network(5, 0.0, palette, rng=1)
    assert empty.relation_profile() == RelationSet.of(UNIVERSAL)
    full = random_network(5, 1.0, palette, rng=1)
    assert full.relation_profile() == RelationSet.of(CGPP)
    assert full.is_atomic()


def test_random_network_keeps_orientations_coherent():
    net = random_network(7, 0.8, tuple(Relation(c) for c in range(1, 15)), rng=9)
    for i, u in enumerate(net.names):
        for v in net.names[i + 1 :]:
            assert net.label(v, u) == converse(net.label(u, v))


def test_random_network_validates_arguments():
    with pytest.raises(ValueError):
        random_network(4, 0.5, (), rng=0)
    with pytest.raises(ValueError):
        random_network(4, 1.5, (CG,), rng=0)
