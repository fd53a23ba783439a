"""Relation arithmetic for MC-4, the constraint algebra of spatial congruence.

MC-4 describes how two regions x and y can relate when only congruence
(equality up to rigid motion) matters.  Exactly one of four base cases holds:

- CG:    x and y are congruent.
- CGPP:  x is congruent to a proper part of y (x fits strictly inside y).
- CGPPI: converse of CGPP; some proper part of x is congruent to y.
- CNO:   x cannot be perfectly overlapped with y (no part-congruence
         either way and no congruence).

A relation is any union of base cases, encoded as a 4-bit mask with the bit
order CG=1, CGPP=2, CGPPI=4, CNO=8.  The empty relation (mask 0) is the
contradiction; the full mask 15 carries no information.  A set of relations
is encoded as a 16-bit mask indexed by relation code, which keeps the
subalgebra machinery (closure, enumeration) cheap and exact.

The algebra's operations are composition, converse and intersection.  The
composition of two base cases is hard-coded in BASIC_COMPOSITION below; that
table is the single transcription point of the whole package and is guarded
by exhaustive law tests (converse law, identity, distributivity over union,
monotonicity, involution).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator


class Relation(enum.IntFlag):
    """An MC-4 relation: any union of the four base cases.

    Members combine with ``|`` and intersect with ``&``; the integer value
    is the canonical 4-bit code used throughout the package.
    """

    CG = 1
    CGPP = 2
    CGPPI = 4
    CNO = 8


EMPTY = Relation(0)
UNIVERSAL = Relation(15)
BASIC_RELATIONS = (Relation.CG, Relation.CGPP, Relation.CGPPI, Relation.CNO)

_CG, _CGPP, _CGPPI, _CNO = Relation.CG, Relation.CGPP, Relation.CGPPI, Relation.CNO

# Composition of the base cases.  Rows are the first argument.  Every other
# composition follows by distributivity: compose unions member by member and
# take the union of the results.
BASIC_COMPOSITION: dict[tuple[Relation, Relation], Relation] = {
    (_CG, _CG): _CG,
    (_CG, _CGPP): _CGPP,
    (_CG, _CGPPI): _CGPPI,
    (_CG, _CNO): _CNO,
    (_CGPP, _CG): _CGPP,
    (_CGPP, _CGPP): _CGPP,
    (_CGPP, _CGPPI): UNIVERSAL,
    (_CGPP, _CNO): _CGPP | _CNO,
    (_CGPPI, _CG): _CGPPI,
    (_CGPPI, _CGPP): UNIVERSAL,
    (_CGPPI, _CGPPI): _CGPPI,
    (_CGPPI, _CNO): _CGPPI | _CNO,
    (_CNO, _CG): _CNO,
    (_CNO, _CGPP): _CGPP | _CNO,
    (_CNO, _CGPPI): _CGPPI | _CNO,
    (_CNO, _CNO): UNIVERSAL,
}

# Integer lookup tables derived once from BASIC_COMPOSITION; the hot loops in
# the solvers and the subalgebra scan index these directly.


def _build_compose_table() -> tuple[tuple[int, ...], ...]:
    """Composition of every pair of codes, on ints, not on Relation members.

    a = r & -r and b = s & -s are the lowest base cases of r and s; since
    composition distributes over union, r∘s = (r-a)∘s | a∘(s-b) | a∘b, and
    both smaller compositions are in the table by the time (r, s) is.
    """
    basic = {(int(a), int(b)): int(c) for (a, b), c in BASIC_COMPOSITION.items()}
    table = [[0] * 16 for _ in range(16)]
    for r in range(1, 16):
        a = r & -r
        for s in range(1, 16):
            b = s & -s
            table[r][s] = table[r ^ a][s] | table[a][s ^ b] | basic[a, b]
    return tuple(map(tuple, table))


_COMPOSE_CODE: tuple[tuple[int, ...], ...] = _build_compose_table()

# Converse swaps CGPP and CGPPI and fixes CG and CNO.
_CONVERSE_CODE: tuple[int, ...] = tuple(
    (c & 0b1001) | ((c & 0b0010) << 1) | ((c & 0b0100) >> 1) for c in range(16)
)

_RELATIONS = tuple(Relation(c) for c in range(16))
_POPCOUNT = tuple(bin(c).count("1") for c in range(16))


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition: all base cases z can stand in to x..y chains.

    compose(r, s) holds between x and y iff some z exists with r between
    x and z and s between z and y.  Composing with EMPTY yields EMPTY.
    """
    return _RELATIONS[_COMPOSE_CODE[int(r)][int(s)]]


def converse(r: Relation) -> Relation:
    """The relation seen from the other side: converse(r)(y, x) iff r(x, y)."""
    return _RELATIONS[_CONVERSE_CODE[int(r)]]


def intersect(r: Relation, s: Relation) -> Relation:
    """Conjunction of two relations on the same pair (bitwise AND of codes)."""
    return _RELATIONS[int(r) & int(s)]


def is_basic(r: Relation) -> bool:
    """True iff r is a single base case."""
    return _POPCOUNT[int(r)] == 1


def basics(r: Relation) -> tuple[Relation, ...]:
    """The base cases contained in r, in canonical bit order."""
    return tuple(b for b in BASIC_RELATIONS if r & b)


def cardinality(r: Relation) -> int:
    """Number of base cases in r."""
    return _POPCOUNT[int(r)]


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

_TOKENS = ("CG", "CGPP", "CGPPi", "CNO")
_TOKEN_CODES = {t.lower(): 1 << k for k, t in enumerate(_TOKENS)} | {"cgpp-1": int(_CGPPI)}


class ParseError(ValueError):
    """Raised for malformed relation or network text.

    Attributes:
        token: the offending token, when the error is token-level.
        line: 1-based line number, when parsing a network file.
    """

    def __init__(self, message: str, token: str | None = None, line: int | None = None):
        self.token = token
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_relation(text: str) -> Relation:
    """Parse a relation from its token form.

    Accepts ``NONE``, ``ALL``, or ``|``-joined tokens from
    {CG, CGPP, CGPPi, CNO}, case-insensitively; ``CGPP-1`` is an accepted
    alias for CGPPi.

    Raises:
        ParseError: on an unknown token, reporting the token itself.
    """
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered == "none":
        return EMPTY
    if lowered == "all":
        return UNIVERSAL
    code = 0
    for part in stripped.split("|"):
        token = part.strip()
        try:
            code |= _TOKEN_CODES[token.lower()]
        except KeyError:
            raise ParseError(f"unknown relation token {token!r}", token=token) from None
    return _RELATIONS[code]


def _format_mask(code: int, tokens: tuple[str, ...]) -> str:
    """NONE for 0, ALL when every token's bit is set, else the set tokens
    |-joined, lowest bit first."""
    if code == 0:
        return "NONE"
    if code == (1 << len(tokens)) - 1:
        return "ALL"
    return "|".join(t for k, t in enumerate(tokens) if code >> k & 1)


def format_relation(r: Relation) -> str:
    """Canonical token form: NONE, ALL, or |-joined tokens in base-case order."""
    return _format_mask(int(r), _TOKENS)


# ---------------------------------------------------------------------------
# Relation sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=False)
class RelationSet:
    """An immutable set of relations, encoded as a 16-bit membership mask.

    Bit c of ``mask`` is set iff the relation with code c is a member.  The
    encoding makes subset tests, unions and the subalgebra closure scan plain
    integer arithmetic.
    """

    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 1 << 16:
            raise ValueError(f"relation-set mask out of range: {self.mask}")

    @classmethod
    def of(cls, *relations: Relation) -> "RelationSet":
        return cls.from_iterable(relations)

    @classmethod
    def from_iterable(cls, relations: Iterable[Relation]) -> "RelationSet":
        mask = 0
        for r in relations:
            mask |= 1 << int(r)
        return cls(mask)

    def __contains__(self, r: Relation) -> bool:
        return bool(self.mask >> int(r) & 1)

    def __iter__(self) -> Iterator[Relation]:
        mask = self.mask
        for c in range(16):
            if mask >> c & 1:
                yield _RELATIONS[c]

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __or__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.mask | other.mask)

    def __and__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.mask & other.mask)

    def __le__(self, other: "RelationSet") -> bool:
        return self.mask & ~other.mask == 0

    issubset = __le__

    def __repr__(self) -> str:
        inner = ", ".join(format_relation(r) for r in self)
        return f"RelationSet({{{inner}}})"
