"""Relation arithmetic: tables, laws, parsing, relation sets."""

from itertools import combinations

import pytest

from mc4.algebra import (
    BASIC_COMPOSITION,
    BASIC_RELATIONS,
    EMPTY,
    UNIVERSAL,
    ParseError,
    Relation,
    RelationSet,
    _COMPOSE_CODE,
    basics,
    cardinality,
    compose,
    converse,
    format_relation,
    intersect,
    is_basic,
    parse_relation,
)

ALL_RELATIONS = tuple(Relation(c) for c in range(16))

CG = Relation.CG
CGPP = Relation.CGPP
CGPPI = Relation.CGPPI
CNO = Relation.CNO


# ---------------------------------------------------------------------------
# Base tables
# ---------------------------------------------------------------------------


def test_base_composition_table():
    expected = {
        (CG, CG): CG,
        (CG, CGPP): CGPP,
        (CG, CGPPI): CGPPI,
        (CG, CNO): CNO,
        (CGPP, CG): CGPP,
        (CGPP, CGPP): CGPP,
        (CGPP, CGPPI): UNIVERSAL,
        (CGPP, CNO): CGPP | CNO,
        (CGPPI, CG): CGPPI,
        (CGPPI, CGPP): UNIVERSAL,
        (CGPPI, CGPPI): CGPPI,
        (CGPPI, CNO): CGPPI | CNO,
        (CNO, CG): CNO,
        (CNO, CGPP): CGPP | CNO,
        (CNO, CGPPI): CGPPI | CNO,
        (CNO, CNO): UNIVERSAL,
    }
    for (r, s), want in expected.items():
        assert compose(r, s) == want


def test_compose_table_equals_its_enum_derivation():
    # The table as Relation members compose it: every base case of r with
    # every base case of s, joined by enum '|'.
    want = []
    for r in range(16):
        row = []
        for s in range(16):
            acc = 0
            for a in BASIC_RELATIONS:
                if r & a:
                    for b in BASIC_RELATIONS:
                        if s & b:
                            acc |= int(BASIC_COMPOSITION[(a, b)])
            row.append(acc)
        want.append(tuple(row))
    assert _COMPOSE_CODE == tuple(want)
    assert all(type(c) is int for row in _COMPOSE_CODE for c in row)


def test_base_converses():
    assert converse(CG) == CG
    assert converse(CGPP) == CGPPI
    assert converse(CGPPI) == CGPP
    assert converse(CNO) == CNO


# ---------------------------------------------------------------------------
# Laws, checked over every relation
# ---------------------------------------------------------------------------


def test_cg_is_identity():
    for r in ALL_RELATIONS:
        assert compose(CG, r) == r
        assert compose(r, CG) == r


def test_converse_is_involutive():
    for r in ALL_RELATIONS:
        assert converse(converse(r)) == r


def test_converse_antidistributes_over_composition():
    for r in ALL_RELATIONS:
        for s in ALL_RELATIONS:
            assert converse(compose(r, s)) == compose(converse(s), converse(r))


def test_composition_distributes_over_union():
    for r in ALL_RELATIONS:
        for s in ALL_RELATIONS:
            want = EMPTY
            for x in basics(r):
                for y in basics(s):
                    want |= compose(x, y)
            assert compose(r, s) == want


def test_composition_is_associative():
    for r in ALL_RELATIONS:
        for s in ALL_RELATIONS:
            for t in ALL_RELATIONS:
                assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_cycle_law_on_base_cases():
    # whether a triangle of base cases closes is invariant under rotating it:
    # z in x∘y iff x in z∘conv(y) iff y in conv(x)∘z, over all 64 triples.
    # solve_oracle relies on it to test one edge per triangle.
    for x in BASIC_RELATIONS:
        for y in BASIC_RELATIONS:
            for z in BASIC_RELATIONS:
                a = bool(compose(x, y) & z)
                b = bool(compose(converse(x), z) & y)
                c = bool(compose(z, converse(y)) & x)
                assert a == b == c


def test_composition_is_monotone():
    for r in ALL_RELATIONS:
        for s in ALL_RELATIONS:
            for r2 in ALL_RELATIONS:
                if r & ~r2:
                    continue
                assert int(compose(r, s)) & ~int(compose(r2, s)) == 0
                assert int(compose(s, r)) & ~int(compose(s, r2)) == 0


def test_empty_annihilates():
    for r in ALL_RELATIONS:
        assert compose(EMPTY, r) == EMPTY
        assert compose(r, EMPTY) == EMPTY
        assert intersect(EMPTY, r) == EMPTY


def test_intersect_is_bitwise():
    for r in ALL_RELATIONS:
        for s in ALL_RELATIONS:
            assert intersect(r, s) == Relation(int(r) & int(s))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def test_is_basic_and_cardinality():
    for r in ALL_RELATIONS:
        n = bin(int(r)).count("1")
        assert cardinality(r) == n
        assert is_basic(r) == (n == 1)


def test_basics_decomposition():
    assert basics(EMPTY) == ()
    assert basics(UNIVERSAL) == BASIC_RELATIONS
    assert basics(CGPP | CNO) == (CGPP, CNO)


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------


def test_format_parse_round_trip():
    for r in ALL_RELATIONS:
        assert parse_relation(format_relation(r)) == r


def test_parse_whole_string_forms():
    assert parse_relation("NONE") == EMPTY
    assert parse_relation("none") == EMPTY
    assert parse_relation("ALL") == UNIVERSAL
    assert parse_relation(" all ") == UNIVERSAL


def test_parse_is_case_insensitive_and_accepts_alias():
    assert parse_relation("cg|cgpp") == CG | CGPP
    assert parse_relation("CGPP-1") == CGPPI
    assert parse_relation("CGPPi | CNO") == CGPPI | CNO


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError) as info:
        parse_relation("CG|XYZ")
    assert info.value.token == "XYZ"


def test_format_canonical_order():
    assert format_relation(CNO | CG) == "CG|CNO"
    assert format_relation(CGPPI | CGPP) == "CGPP|CGPPi"
    assert format_relation(EMPTY) == "NONE"
    assert format_relation(UNIVERSAL) == "ALL"
    # Every code: its tokens in base-case order, built from each subset of bits.
    tokens = ("CG", "CGPP", "CGPPi", "CNO")
    want = {
        sum(1 << k for k in ks): "|".join(tokens[k] for k in ks)
        for n in range(1, 4)
        for ks in combinations(range(4), n)
    }
    want[0], want[15] = "NONE", "ALL"
    assert [format_relation(r) for r in ALL_RELATIONS] == [want[c] for c in range(16)]


# ---------------------------------------------------------------------------
# Relation sets
# ---------------------------------------------------------------------------


def test_relation_set_membership_and_iteration():
    s = RelationSet.of(CG, CGPP | CNO)
    assert CG in s
    assert (CGPP | CNO) in s
    assert CGPP not in s
    assert len(s) == 2
    assert [int(r) for r in s] == [1, 10]


def test_relation_set_from_iterable_and_operators():
    a = RelationSet.from_iterable([CG, CNO])
    b = RelationSet.of(CNO, UNIVERSAL)
    assert [int(r) for r in a | b] == [1, 8, 15]
    assert [int(r) for r in a & b] == [8]
    assert RelationSet.of(CNO) <= a
    assert not a <= b
    assert a.issubset(a)


def test_relation_set_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        RelationSet(1 << 16)
    with pytest.raises(ValueError):
        RelationSet(-1)
