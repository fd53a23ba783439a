"""Subalgebra structure of MC-4: closure, enumeration and tractability.

A subalgebra here is a set of relations closed under composition,
intersection and converse (union is deliberately not admitted: it would
collapse everything to the powerset lattice and erase the tractability
structure).  A subalgebra is *expressive* when it contains both EMPTY and
UNIVERSAL, the two relations every constraint network can surface.

The module builds the five catalog subalgebras:

- M72, M78 and M31, the trivial-core catalogs, from one table that maps
  each core (CG, CNO and CGPP|CGPPi) to EMPTY plus every relation holding
  it (9, 9 and 5 relations).  classify and mc4.solvers.solve_trivial_core
  read the cores from the same table.
- M99: closure of the generators {LEQ, EQX, NLE} (14 relations).
- M81: closure of the generators {LEQ, BSY, NLE} (10 relations).

M99 and M81 are defined by generator closure rather than transcription, and
every relation of each is pinned to an identity over its generators (the
identity suites below).  mc4.solvers derives its gadget translation from
these definitions: LEQ, NLE and compose(LEQ, EQX), which the M99 suite
pins to CG|CGPP|CNO, give each label's primitive constraints, and M99 and
M81 give the labels each decider accepts.

classify() places an arbitrary relation set into the cheapest decision
procedure that covers its closure; enumerate_expressive() scans all 65,536
candidate sets and is cross-checked by an independent naive-closure route.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .algebra import (
    EMPTY,
    UNIVERSAL,
    Relation,
    RelationSet,
    _COMPOSE_CODE,
    _CONVERSE_CODE,
    compose,
    converse,
    format_relation,
)

# Generator relations; LEQ, EQX and NLE also define the gadget translation
# in mc4.solvers.
LEQ = Relation.CG | Relation.CGPP            # congruent or fits strictly inside
EQX = Relation.CG | Relation.CNO             # congruent or mutually unembeddable
NLE = Relation.CGPP | Relation.CGPPI | Relation.CNO   # anything but congruent
BSY = Relation.CG | Relation.CGPP | Relation.CGPPI    # comparable either way

G99 = RelationSet.of(LEQ, EQX, NLE)
G81 = RelationSet.of(LEQ, BSY, NLE)

_EXPRESSIVE_MASK = (1 << 0) | (1 << 15)


@lru_cache(maxsize=None)
def _members(mask: int) -> tuple[int, ...]:
    return tuple(c for c in range(16) if mask >> c & 1)


def _one_step(mask: int) -> int:
    """One application of converse, composition and intersection to all members."""
    out = mask
    members = _members(mask)
    for r in members:
        out |= 1 << _CONVERSE_CODE[r]
        row = _COMPOSE_CODE[r]
        for s in members:
            out |= 1 << row[s]
            out |= 1 << (r & s)
    return out


# Mask -> its closure, for every mask a chase has met on its chain.
_CLOSURE: dict[int, int] = {}


def _closure_mask(mask: int) -> int:
    chain = []
    cur = mask
    while cur not in _CLOSURE:
        chain.append(cur)
        nxt = _one_step(cur)
        if nxt == cur:
            break
        cur = nxt
    value = _CLOSURE.get(cur, cur)
    for m in chain:
        _CLOSURE[m] = value
    return value


def closure(s: RelationSet) -> RelationSet:
    """Least superset of s closed under composition, intersection and converse.

    Idempotent, extensive and monotone; union is not applied.
    """
    return RelationSet(_closure_mask(s.mask))


def is_closed(s: RelationSet) -> bool:
    """True iff one step of the three operations adds nothing to s."""
    return _one_step(s.mask) == s.mask


# ---------------------------------------------------------------------------
# Catalog subalgebras
# ---------------------------------------------------------------------------

# Trivial core -> its catalog: EMPTY plus every relation holding the core.
# The order is classify's precedence.
_TRIVIAL_CORES = {
    core: RelationSet(1 | sum(1 << c for c in range(16) if c & core == core))
    for core in (Relation.CG, Relation.CNO, Relation.CGPP | Relation.CGPPI)
}
M72, M78, M31 = _TRIVIAL_CORES.values()
M99 = closure(G99)
M81 = closure(G81)


def has_np_hard_pattern(s: RelationSet) -> bool:
    """True iff s contains both CNO and {CGPP, CGPPi} as members.

    Any closed set with those two members can encode transitive-orientation
    problems of arbitrary graphs, which makes its satisfiability NP-hard; the
    pattern is monotone, so it also certifies hardness of any superset.

    The hardness needs ALL as well.  With CGPP|CGPPi or CNO on every pair,
    consistency asks whether the CGPP|CGPPi pairs form a comparability
    graph, which is polynomial (Golumbic 1977).  With ALL pairs allowed it
    is the comparability sandwich problem, which is NP-complete (Golumbic,
    Kaplan and Shamir, J. Algorithms 19, 1995).
    """
    return Relation.CNO in s and (Relation.CGPP | Relation.CGPPI) in s


# ---------------------------------------------------------------------------
# Enumeration of the expressive subalgebras
# ---------------------------------------------------------------------------


def _canonical_order(masks) -> tuple[RelationSet, ...]:
    ordered = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    return tuple(RelationSet(m) for m in ordered)


@lru_cache(maxsize=1)
def enumerate_expressive() -> tuple[RelationSet, ...]:
    """All expressive subalgebras, by direct stability scan.

    Tests each of the 65,536 candidate sets for containing EMPTY and
    UNIVERSAL and for being fixed by one step of the three operations
    (a set is closed iff one step adds nothing).  Ordered by ascending
    cardinality, then ascending membership mask.
    """
    found = []
    for mask in range(1 << 16):
        if mask & _EXPRESSIVE_MASK == _EXPRESSIVE_MASK and _one_step(mask) == mask:
            found.append(mask)
    return _canonical_order(found)


@lru_cache(maxsize=1)
def enumerate_expressive_by_closure() -> tuple[RelationSet, ...]:
    """Independent enumeration route: close every subset and collect fixpoints.

    Deliberately naive (no stability shortcut): each of the 65,536 subsets
    is closed by _closure_mask, the chase behind closure, classify and
    maximality_check.  The distinct expressive fixpoints must equal the
    stability scan of enumerate_expressive exactly, which checks it too.
    """
    fixpoints = {_closure_mask(mask) for mask in range(1 << 16)}
    return _canonical_order(m for m in fixpoints if m & _EXPRESSIVE_MASK == _EXPRESSIVE_MASK)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class Kind(enum.Enum):
    TRIVIAL_CORE = "TRIVIAL_CORE"
    MAX_M99 = "MAX_M99"
    MAX_M81 = "MAX_M81"
    NP_HARD = "NP_HARD"
    UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class TractabilityClass:
    """Decision-procedure class of a relation set.

    kind TRIVIAL_CORE carries the core relation every non-EMPTY member must
    contain; the other kinds carry no parameter.
    """

    kind: Kind
    core: Relation | None = None

    def __str__(self) -> str:
        if self.kind is Kind.TRIVIAL_CORE:
            return f"TRIVIAL_CORE({format_relation(self.core)})"
        return self.kind.value


def classify(s: RelationSet) -> TractabilityClass:
    """Cheapest decision procedure covering the closure of s.

    The closure is seeded with EMPTY and UNIVERSAL, then matched in fixed
    precedence order: the trivial-core catalogs in table order, M99, M81,
    then the NP-hard pattern; anything else is UNCLASSIFIED (the
    enumeration proves that case never arises).
    """
    c = RelationSet(_closure_mask(s.mask | _EXPRESSIVE_MASK))
    for core, catalog in _TRIVIAL_CORES.items():
        if c <= catalog:
            return TractabilityClass(Kind.TRIVIAL_CORE, core)
    if c <= M99:
        return TractabilityClass(Kind.MAX_M99)
    if c <= M81:
        return TractabilityClass(Kind.MAX_M81)
    if has_np_hard_pattern(c):
        return TractabilityClass(Kind.NP_HARD)
    return TractabilityClass(Kind.UNCLASSIFIED)


def maximality_check(candidate: RelationSet) -> bool:
    """True iff adding any absent relation makes the closure NP-hard.

    Only meaningful for the three maximal catalogs; anything else is
    rejected.
    """
    if candidate not in (M72, M99, M81):
        raise ValueError("maximality_check expects M72, M99 or M81")
    for code in range(16):
        if candidate.mask >> code & 1:
            continue
        grown = RelationSet(_closure_mask(candidate.mask | 1 << code))
        if not has_np_hard_pattern(grown):
            return False
    return True


# ---------------------------------------------------------------------------
# Partition report
# ---------------------------------------------------------------------------

# External reference tabulation the computed partition is compared against:
# per-bucket row counts, the claimed grand total, and the claimed number of
# tractable subalgebras.  Deltas are printed, never reconciled silently.
REFERENCE_BUCKET_ROWS = {
    "np-hard": 20,
    "cg-core": 13,
    "cno-core": 12,
    "pair-core": 4,
    "m81-only": 17,
    "m99-rest": 34,
}
REFERENCE_TOTAL_CLAIM = 102
REFERENCE_TRACTABLE_CLAIM = 92

# The partition's buckets in report order: key, the class classify gives
# the bucket's members, and description.
_BUCKETS = (
    ("np-hard", TractabilityClass(Kind.NP_HARD), "contains both CNO and {CGPP, CGPPi}"),
    ("cg-core", TractabilityClass(Kind.TRIVIAL_CORE, Relation.CG), "subset of M72"),
    ("cno-core", TractabilityClass(Kind.TRIVIAL_CORE, Relation.CNO), "subset of M78, not of M72"),
    (
        "pair-core",
        TractabilityClass(Kind.TRIVIAL_CORE, Relation.CGPP | Relation.CGPPI),
        "subset of M31, none of the above",
    ),
    ("m81-only", TractabilityClass(Kind.MAX_M81), "subset of M81 but not of M99, none of the above"),
    ("m99-rest", TractabilityClass(Kind.MAX_M99), "subset of M99, none of the above"),
)


@dataclass(frozen=True)
class PartitionBucket:
    key: str
    description: str
    members: tuple[RelationSet, ...]
    reference_count: int

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def delta(self) -> int:
        return self.count - self.reference_count


@dataclass(frozen=True)
class PartitionReport:
    buckets: tuple[PartitionBucket, ...]
    residue: tuple[RelationSet, ...]

    @property
    def total(self) -> int:
        return sum(b.count for b in self.buckets) + len(self.residue)

    @property
    def tractable(self) -> int:
        return sum(b.count for b in self.buckets if b.key != "np-hard")


def partition_report() -> PartitionReport:
    """Partition every expressive subalgebra into its decision bucket.

    _BUCKETS is the one list of buckets.  Each subalgebra goes to the bucket
    of classify's verdict, so buckets are disjoint and follow its
    precedence; the residue collects anything classify leaves UNCLASSIFIED
    and is expected to be empty.
    """
    grouped: dict[TractabilityClass, list[RelationSet]] = {cls: [] for _, cls, _ in _BUCKETS}
    residue: list[RelationSet] = []
    for s in enumerate_expressive():
        grouped.get(classify(s), residue).append(s)
    buckets = tuple(
        PartitionBucket(key, description, tuple(grouped[cls]), REFERENCE_BUCKET_ROWS[key])
        for key, cls, description in _BUCKETS
    )
    return PartitionReport(buckets=buckets, residue=tuple(residue))


def render_partition_text(report: PartitionReport) -> str:
    """Bullet-matrix rendering: one row per subalgebra, one column per relation."""
    lines = []
    header_names = ("CG", "CGPP", "CGPPi", "CNO")
    for k, name in enumerate(header_names):
        cells = ["x" if code >> k & 1 else " " for code in range(16)]
        lines.append(f"{name:>24} | " + " ".join(cells))
    lines.append(f"{'':>24} +" + "-" * 33)
    for bucket in report.buckets:
        lines.append("")
        lines.append(
            f"{bucket.key}: {bucket.count} computed, {bucket.reference_count} reference"
            f" (delta {bucket.delta:+d})  [{bucket.description}]"
        )
        for idx, s in enumerate(bucket.members):
            cells = ["*" if Relation(code) in s else " " for code in range(16)]
            lines.append(f"{bucket.key}[{idx:02d}] card={len(s):2d} | " + " ".join(cells))
    lines.append("")
    if report.residue:
        lines.append(f"residue: {len(report.residue)} UNMATCHED subalgebras")
        for s in report.residue:
            lines.append(f"  {s!r}")
    else:
        lines.append("residue: empty")
    summary = render_partition_json(report)
    lines.append(
        f"total: {summary['total']} computed; reference claim {REFERENCE_TOTAL_CLAIM}"
        f" (delta {summary['total_delta']:+d});"
        f" reference row sum {summary['reference_row_sum']} (delta {summary['row_sum_delta']:+d})"
    )
    lines.append(
        f"tractable: {summary['tractable']} computed; reference claim"
        f" {REFERENCE_TRACTABLE_CLAIM} (delta {summary['tractable_delta']:+d})"
    )
    return "\n".join(lines)


def render_partition_json(report: PartitionReport) -> dict:
    rows_total = sum(REFERENCE_BUCKET_ROWS.values())
    return {
        "buckets": [
            {
                "key": b.key,
                "description": b.description,
                "count": b.count,
                "reference_count": b.reference_count,
                "delta": b.delta,
                "members": [[int(r) for r in s] for s in b.members],
            }
            for b in report.buckets
        ],
        "residue": [[int(r) for r in s] for s in report.residue],
        "total": report.total,
        "reference_total_claim": REFERENCE_TOTAL_CLAIM,
        "total_delta": report.total - REFERENCE_TOTAL_CLAIM,
        "reference_row_sum": rows_total,
        "row_sum_delta": report.total - rows_total,
        "tractable": report.tractable,
        "reference_tractable_claim": REFERENCE_TRACTABLE_CLAIM,
        "tractable_delta": report.tractable - REFERENCE_TRACTABLE_CLAIM,
    }


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------

# Each entry: (formula label, expected relation, evaluator).  The evaluator
# takes the composition exponent n; identities without a power ignore it.
# Powers are n-fold self-composition, and each identity must hold for every
# n >= 1 (the relations involved are composition-idempotent); the suites are
# evaluated at n in {1, 2}.

Identity = tuple[str, Relation, Callable[[int], Relation]]


def _power(r: Relation, n: int) -> Relation:
    out = r
    for _ in range(n - 1):
        out = compose(out, r)
    return out


M99_GENERATOR_IDENTITIES: tuple[Identity, ...] = (
    ("NONE == LEQ & EQX & NLE", EMPTY, lambda n: LEQ & EQX & NLE),
    ("CG == LEQ & conv(LEQ)", Relation.CG, lambda n: LEQ & converse(LEQ)),
    ("CGPP == LEQ & NLE", Relation.CGPP, lambda n: LEQ & NLE),
    ("CGPPi == conv(LEQ) & NLE", Relation.CGPPI, lambda n: converse(LEQ) & NLE),
    ("CNO == EQX & NLE", Relation.CNO, lambda n: EQX & NLE),
    ("ALL == LEQ . NLE", UNIVERSAL, lambda n: compose(LEQ, NLE)),
    ("CG|CGPPi == conv(LEQ)", Relation.CG | Relation.CGPPI, lambda n: converse(LEQ)),
    (
        "CGPP|CNO == (LEQ . EQX) & NLE",
        Relation.CGPP | Relation.CNO,
        lambda n: compose(LEQ, EQX) & NLE,
    ),
    (
        "CGPPi|CNO == (conv(LEQ) . EQX) & NLE",
        Relation.CGPPI | Relation.CNO,
        lambda n: compose(converse(LEQ), EQX) & NLE,
    ),
    (
        "CG|CGPP|CNO == LEQ . EQX",
        Relation.CG | Relation.CGPP | Relation.CNO,
        lambda n: compose(LEQ, EQX),
    ),
    (
        "CG|CGPPi|CNO == conv(LEQ) . EQX",
        Relation.CG | Relation.CGPPI | Relation.CNO,
        lambda n: compose(converse(LEQ), EQX),
    ),
)

M81_GENERATOR_IDENTITIES: tuple[Identity, ...] = (
    ("NONE == LEQ & conv(LEQ) & NLE", EMPTY, lambda n: LEQ & converse(LEQ) & NLE),
    ("CG == LEQ & conv(LEQ)", Relation.CG, lambda n: LEQ & converse(LEQ)),
    ("CGPP == LEQ & NLE", Relation.CGPP, lambda n: LEQ & NLE),
    ("CGPPi == conv(LEQ) & NLE", Relation.CGPPI, lambda n: converse(LEQ) & NLE),
    ("CG|CGPPi == conv(LEQ)", Relation.CG | Relation.CGPPI, lambda n: converse(LEQ)),
    (
        "CGPP|CGPPi == BSY & NLE",
        Relation.CGPP | Relation.CGPPI,
        lambda n: BSY & NLE,
    ),
    ("ALL == LEQ . NLE", UNIVERSAL, lambda n: compose(LEQ, NLE)),
)

_CGPP_CNO = Relation.CGPP | Relation.CNO
_CGPPI_CNO = Relation.CGPPI | Relation.CNO
_CG_CGPP_CNO = Relation.CG | Relation.CGPP | Relation.CNO
_CG_CGPPI_CNO = Relation.CG | Relation.CGPPI | Relation.CNO

FORCED_RELATION_IDENTITIES: tuple[Identity, ...] = (
    ("CG == LEQ^n & conv(LEQ)^n", Relation.CG, lambda n: _power(LEQ, n) & _power(converse(LEQ), n)),
    ("CG == LEQ^n & EQX", Relation.CG, lambda n: _power(LEQ, n) & EQX),
    ("CGPP == LEQ^n & CGPP|CNO", Relation.CGPP, lambda n: _power(LEQ, n) & _CGPP_CNO),
    ("CNO == EQX & CGPP|CNO", Relation.CNO, lambda n: EQX & _CGPP_CNO),
    ("CNO == CGPP|CNO & CGPPi|CNO", Relation.CNO, lambda n: _CGPP_CNO & _CGPPI_CNO),
    ("CNO == CGPP|CNO & CG|CGPPi|CNO", Relation.CNO, lambda n: _CGPP_CNO & _CG_CGPPI_CNO),
    ("EQX == CG|CGPP|CNO & CG|CGPPi|CNO", EQX, lambda n: _CG_CGPP_CNO & _CG_CGPPI_CNO),
    ("CGPP|CNO == CGPP^n . CNO", _CGPP_CNO, lambda n: compose(_power(Relation.CGPP, n), Relation.CNO)),
    ("CGPP|CNO == CGPP^n . EQX", _CGPP_CNO, lambda n: compose(_power(Relation.CGPP, n), EQX)),
    (
        "CGPP|CNO == CGPP^n . CG|CGPP|CNO",
        _CGPP_CNO,
        lambda n: compose(_power(Relation.CGPP, n), _CG_CGPP_CNO),
    ),
    ("CGPP|CNO == LEQ^n . CNO", _CGPP_CNO, lambda n: compose(_power(LEQ, n), Relation.CNO)),
    ("CGPP|CNO == CG|CGPP|CNO & NLE", _CGPP_CNO, lambda n: _CG_CGPP_CNO & NLE),
    ("CG|CGPP|CNO == LEQ^n . EQX", _CG_CGPP_CNO, lambda n: compose(_power(LEQ, n), EQX)),
)

IDENTITY_SUITES: dict[str, tuple[Identity, ...]] = {
    "m99-generators": M99_GENERATOR_IDENTITIES,
    "m81-generators": M81_GENERATOR_IDENTITIES,
    "forced-relations": FORCED_RELATION_IDENTITIES,
}


def evaluate_identity_suites(exponents: tuple[int, ...] = (1, 2)) -> list[tuple[str, bool]]:
    """Evaluate every identity at every exponent; returns (name, ok) pairs."""
    results = []
    for suite, identities in IDENTITY_SUITES.items():
        for label, expected, fn in identities:
            ok = all(fn(n) == expected for n in exponents)
            results.append((f"{suite}: {label}", ok))
    return results
