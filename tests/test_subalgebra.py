"""Closure, enumeration, catalogs and classification of subalgebras."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc4 import subalgebra
from mc4.algebra import EMPTY, UNIVERSAL, Relation, RelationSet, compose, converse
from mc4.subalgebra import (
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
    FORCED_RELATION_IDENTITIES,
    M81_GENERATOR_IDENTITIES,
    M99_GENERATOR_IDENTITIES,
    Kind,
    TractabilityClass,
    classify,
    closure,
    enumerate_expressive,
    enumerate_expressive_by_closure,
    evaluate_identity_suites,
    has_np_hard_pattern,
    is_closed,
    maximality_check,
    partition_report,
    render_partition_json,
    render_partition_text,
)

CG = Relation.CG
CGPP = Relation.CGPP
CGPPI = Relation.CGPPI
CNO = Relation.CNO


# ---------------------------------------------------------------------------
# Generators and catalogs
# ---------------------------------------------------------------------------


def test_generator_relation_codes():
    assert int(LEQ) == 3
    assert int(EQX) == 9
    assert int(NLE) == 14
    assert int(BSY) == 7
    assert G99 == RelationSet.of(LEQ, EQX, NLE)
    assert G81 == RelationSet.of(LEQ, BSY, NLE)


def test_catalog_membership():
    assert sorted(int(r) for r in M72) == [0, 1, 3, 5, 7, 9, 11, 13, 15]
    assert sorted(int(r) for r in M78) == [0, 8, 9, 10, 11, 12, 13, 14, 15]
    assert sorted(int(r) for r in M31) == [0, 6, 7, 14, 15]
    assert sorted(int(r) for r in M99) == [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15]
    assert sorted(int(r) for r in M81) == [0, 1, 2, 3, 4, 5, 6, 7, 14, 15]


def test_catalogs_are_closed():
    for catalog in (M72, M78, M31, M99, M81):
        assert is_closed(catalog)
        assert closure(catalog) == catalog


def test_catalog_containments():
    assert M78 <= M99
    assert M31 <= M81
    assert not M99 <= M81
    assert not M81 <= M99
    assert not M72 <= M99
    assert not M99 <= M72
    assert not M72 <= M81
    assert not M81 <= M72


# ---------------------------------------------------------------------------
# Closure operator
# ---------------------------------------------------------------------------


def test_closure_of_generators():
    assert closure(G99) == M99
    assert closure(G81) == M81


def test_closure_smallest_expressive():
    assert closure(RelationSet.of(EMPTY, UNIVERSAL)) == RelationSet.of(EMPTY, UNIVERSAL)


def test_closure_does_not_apply_union():
    # CG and CNO closed together never produce their two-case union
    c = closure(RelationSet.of(CG, CNO))
    assert (CG | CNO) not in c


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_closure_is_extensive_idempotent(mask):
    s = RelationSet(mask)
    c = closure(s)
    assert s <= c
    assert closure(c) == c
    assert is_closed(c)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_closure_is_monotone(mask_a, mask_b):
    small = RelationSet(mask_a & mask_b)
    big = RelationSet(mask_a | mask_b)
    assert closure(small) <= closure(big)


def set_closure(relations):
    """Closure of a set of relations, grown as a Python set to its fixpoint."""
    closed = set(relations)
    while True:
        grown = closed | {converse(r) for r in closed}
        grown |= {op(r, s) for r in closed for s in closed for op in (compose, operator.and_)}
        if grown == closed:
            return closed
        closed = grown


def test_closure_mask_matches_a_set_based_closure():
    rng = np.random.default_rng(38)
    masks = [0, 1, 1 << 15, 0xFFFF, G99.mask, G81.mask]
    masks += rng.integers(0, 1 << 16, size=300).tolist()
    for mask in masks + masks:  # the second pass reads the memo
        members = {Relation(c) for c in range(16) if mask >> c & 1}
        expected = sum(1 << int(r) for r in set_closure(members))
        assert subalgebra._closure_mask(mask) == expected


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumeration_routes_agree_exactly():
    direct = enumerate_expressive()
    via_closure = enumerate_expressive_by_closure()
    assert direct == via_closure
    assert len(direct) == 102


def test_enumeration_members_are_expressive_and_closed():
    for s in enumerate_expressive():
        assert EMPTY in s
        assert UNIVERSAL in s
        assert is_closed(s)


def test_enumeration_order_is_by_cardinality_then_mask():
    listed = enumerate_expressive()
    keys = [(len(s), s.mask) for s in listed]
    assert keys == sorted(keys)
    assert listed[0] == RelationSet.of(EMPTY, UNIVERSAL)


# ---------------------------------------------------------------------------
# Hardness pattern and classification
# ---------------------------------------------------------------------------


def test_np_hard_pattern_detection():
    assert has_np_hard_pattern(RelationSet.of(CNO, CGPP | CGPPI))
    assert not has_np_hard_pattern(M99)
    assert not has_np_hard_pattern(M81)
    assert not has_np_hard_pattern(M72)


def test_the_classification_is_a_dichotomy():
    # Every expressive subalgebra lies under one of the three maximal
    # tractable ones or over the one minimal NP-hard one, N5, never both.
    # has_np_hard_pattern is defined on any set, closed or not; on a closed
    # one it is the single inclusion N5 <= c.
    n5 = RelationSet(0xC141)
    assert n5 == closure(RelationSet.of(EMPTY, CGPP | CGPPI, CNO, UNIVERSAL))
    assert n5 == RelationSet.of(EMPTY, CGPP | CGPPI, CNO, CGPP | CGPPI | CNO, UNIVERSAL)
    algebras = enumerate_expressive()
    masks = [s.mask for s in algebras]

    def below(a, b):
        return a != b and a & ~b == 0

    hard = [m for m, s in zip(masks, algebras) if classify(s).kind is Kind.NP_HARD]
    easy = [m for m in masks if m not in hard]
    assert (len(easy), len(hard)) == (82, 20)
    assert {m for m in easy if not any(below(m, t) for t in easy)} == {
        M72.mask,
        M99.mask,
        M81.mask,
    }
    assert [m for m in hard if not any(below(t, m) for t in hard)] == [n5.mask]
    for s in algebras:
        under = any(s <= top for top in (M72, M99, M81))
        assert under != (n5 <= s), s
    for mask in range(1 << 16):
        c = closure(RelationSet(mask))
        assert has_np_hard_pattern(c) == (n5 <= c), mask
    covers = [
        (a, b)
        for a in masks
        for b in masks
        if below(a, b) and not any(below(a, c) and below(c, b) for c in masks)
    ]
    assert len(covers) == 258


def test_classify_trivial_cores():
    cls = classify(RelationSet.of(CG | CNO))
    assert cls.kind is Kind.TRIVIAL_CORE and cls.core == CG
    cls = classify(RelationSet.of(NLE))
    assert cls.kind is Kind.TRIVIAL_CORE and cls.core == CNO
    cls = classify(RelationSet.of(CGPP | CGPPI))
    assert cls.kind is Kind.TRIVIAL_CORE and cls.core == CGPP | CGPPI
    # empty profile closes to {NONE, ALL}, inside every core family
    cls = classify(RelationSet(0))
    assert cls.kind is Kind.TRIVIAL_CORE and cls.core == CG


def test_classify_maximal_classes():
    cls = classify(RelationSet.of(LEQ, CNO))
    assert cls.kind is Kind.MAX_M99 and cls.core is None
    cls = classify(RelationSet.of(LEQ, CGPP | CGPPI))
    assert cls.kind is Kind.MAX_M81
    assert classify(G99).kind is Kind.MAX_M99
    assert classify(G81).kind is Kind.MAX_M81


def test_classify_np_hard():
    cls = classify(RelationSet.of(CNO, CGPP | CGPPI))
    assert cls.kind is Kind.NP_HARD
    assert classify(RelationSet.of(CGPP | CNO, CGPP | CGPPI)).kind is Kind.NP_HARD


def test_classify_never_unclassified():
    for s in enumerate_expressive():
        assert classify(s).kind is not Kind.UNCLASSIFIED


def test_classify_str_forms():
    assert str(classify(RelationSet.of(CG))) == "TRIVIAL_CORE(CG)"
    assert str(classify(G99)) == "MAX_M99"


# ---------------------------------------------------------------------------
# Maximality
# ---------------------------------------------------------------------------


def test_maximality_of_the_three_catalogs():
    assert maximality_check(M72)
    assert maximality_check(M99)
    assert maximality_check(M81)


def test_maximality_check_rejects_other_sets():
    with pytest.raises(ValueError):
        maximality_check(M78)


def test_growing_a_maximal_catalog_turns_np_hard():
    for catalog in (M72, M99, M81):
        for code in range(16):
            if RelationSet(1 << code) <= catalog:
                continue
            grown = closure(catalog | RelationSet(1 << code))
            assert has_np_hard_pattern(grown)


# ---------------------------------------------------------------------------
# Partition report
# ---------------------------------------------------------------------------


def test_partition_counts_and_residue():
    report = partition_report()
    counts = {b.key: b.count for b in report.buckets}
    assert counts == {
        "np-hard": 20,
        "cg-core": 13,
        "cno-core": 12,
        "pair-core": 4,
        "m81-only": 19,
        "m99-rest": 34,
    }
    assert report.residue == ()
    assert report.total == 102
    assert report.tractable == 82


def test_partition_buckets_are_disjoint_and_cover():
    report = partition_report()
    seen = set()
    for bucket in report.buckets:
        for s in bucket.members:
            assert s.mask not in seen
            seen.add(s.mask)
    assert len(seen) == 102
    assert seen == {s.mask for s in enumerate_expressive()}


def test_partition_puts_an_unclassified_subalgebra_in_the_residue(monkeypatch):
    # classify leaves no subalgebra UNCLASSIFIED, so one is made to fall
    # through: M99 leaves its bucket for the residue and every report says so.
    real_classify = subalgebra.classify
    monkeypatch.setattr(
        subalgebra,
        "classify",
        lambda s: TractabilityClass(Kind.UNCLASSIFIED) if s == M99 else real_classify(s),
    )
    report = partition_report()
    assert report.residue == (M99,)
    assert {b.key: b.count for b in report.buckets}["m99-rest"] == 33
    assert report.total == 102
    text = render_partition_text(report).splitlines()
    at = text.index("residue: 1 UNMATCHED subalgebras")
    assert text[at + 1] == (
        "  RelationSet({NONE, CG, CGPP, CG|CGPP, CGPPi, CG|CGPPi, CNO, CG|CNO, CGPP|CNO,"
        " CG|CGPP|CNO, CGPPi|CNO, CG|CGPPi|CNO, CGPP|CGPPi|CNO, ALL})"
    )
    assert render_partition_json(report)["residue"] == [[int(r) for r in M99]]


def test_m81_only_bucket_really_avoids_m99():
    report = partition_report()
    bucket = {b.key: b for b in report.buckets}["m81-only"]
    for s in bucket.members:
        assert s <= M81
        assert not s <= M99


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


def test_identity_suite_sizes():
    assert len(M99_GENERATOR_IDENTITIES) == 11
    assert len(M81_GENERATOR_IDENTITIES) == 7
    assert len(FORCED_RELATION_IDENTITIES) == 13


def test_identity_suites_all_hold():
    results = evaluate_identity_suites()
    assert len(results) == 31
    assert all(ok for _, ok in results)


def test_identities_hold_at_higher_powers_too():
    results = evaluate_identity_suites(exponents=(1, 2, 3, 4))
    assert all(ok for _, ok in results)


def test_every_m99_member_reachable_from_generators():
    # each identity's expected value is an M99 member; together with the
    # generators they witness that the generators span the whole catalog
    produced = {int(expected) for _, expected, _ in M99_GENERATOR_IDENTITIES}
    produced |= {int(LEQ), int(EQX), int(NLE)}
    assert produced == {int(r) for r in M99}
