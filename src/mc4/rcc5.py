"""Bridge between MC-4 congruence relations and RCC-5 parthood relations.

MC-4 talks about size and shape (can one region be congruently embedded in
the other?), RCC-5 about actual extension (is one region literally part of
the other?).  The two interact in both directions:

- to_rcc5 reads each congruence base case under its witnessing placement:
  congruent regions placed identically give EQ, an embeddable region placed
  inside its host gives PP (or PPI from the host's side), and two mutually
  unembeddable regions placed to overlap give PO.  Mapping a scenario this
  way yields an RCC-5 scenario realizing it.
- envelope lists every RCC-5 relation realizable by SOME placement of two
  regions in the given congruence relation: congruent regions can be
  equal, apart or overlapping but never proper parts of one another;
  mutually unembeddable regions can only be apart or overlapping.
- lift translates an RCC-5 statement back into what it forces about
  congruence: equal regions are congruent, a proper part is congruently
  embeddable in its whole, while overlap and disjointness force nothing.
"""

from __future__ import annotations

import enum

import numpy as np

from .algebra import _RELATIONS, EMPTY, UNIVERSAL, Relation, _format_mask
from .solvers import Scenario


class Rcc5(enum.IntFlag):
    """RCC-5 relations as a bitmask of the five base cases."""

    EQ = 1    # identical extension
    PP = 2    # proper part
    PPI = 4   # has a proper part (converse of PP)
    PO = 8    # partial overlap
    DR = 16   # discrete (no common part)


RCC5_EMPTY = Rcc5(0)
RCC5_ALL = Rcc5(31)
RCC5_BASIC_RELATIONS = (Rcc5.EQ, Rcc5.PP, Rcc5.PPI, Rcc5.PO, Rcc5.DR)

_RCC5_TOKENS = ("EQ", "PP", "PPi", "PO", "DR")

_TO_RCC5 = {
    Relation.CG: Rcc5.EQ,
    Relation.CGPP: Rcc5.PP,
    Relation.CGPPI: Rcc5.PPI,
    Relation.CNO: Rcc5.PO,
}

_ENVELOPE = {
    Relation.CG: Rcc5.EQ | Rcc5.DR | Rcc5.PO,
    Relation.CGPP: Rcc5.PP | Rcc5.DR | Rcc5.PO,
    Relation.CGPPI: Rcc5.PPI | Rcc5.DR | Rcc5.PO,
    Relation.CNO: Rcc5.DR | Rcc5.PO,
}

_LIFT = {
    Rcc5.EQ: Relation.CG,
    Rcc5.PP: Relation.CGPP,
    Rcc5.PPI: Relation.CGPPI,
    Rcc5.PO: UNIVERSAL,
    Rcc5.DR: UNIVERSAL,
}


def _union(table: dict, bases: enum.IntFlag, empty: enum.IntFlag) -> enum.IntFlag:
    """Union of table[b] over the base cases b in bases: to_rcc5, envelope and
    lift distribute over union, so each is fixed by its table of base cases."""
    out = empty
    for b, image in table.items():
        if b & bases:
            out |= image
    return out


def to_rcc5(r: Relation) -> Rcc5:
    """RCC-5 image of r under witnessing placements, base case by base case."""
    return _union(_TO_RCC5, r, RCC5_EMPTY)


# int(to_rcc5(r)) by MC-4 code, so a scenario's code matrix converts with
# one take.
_RCC5_CODE = np.array([int(to_rcc5(r)) for r in _RELATIONS], dtype=np.uint8)


def envelope(r: Relation) -> Rcc5:
    """Every RCC-5 relation realizable by some placement respecting r."""
    return _union(_ENVELOPE, r, RCC5_EMPTY)


def lift(s: Rcc5) -> Relation:
    """MC-4 consequence of an RCC-5 statement (ALL when nothing is forced).

    The lift of a union is the union of the lifts, so a disjunctive RCC-5
    statement lifts to the weakest congruence constraint any disjunct
    allows; the empty statement lifts to NONE.
    """
    return _union(_LIFT, s, EMPTY)


def format_rcc5(s: Rcc5) -> str:
    """Canonical token form: NONE, ALL, or |-joined base tokens."""
    return _format_mask(int(s), _RCC5_TOKENS)


def convert_scenario(scenario: Scenario) -> Scenario:
    """RCC-5 scenario induced by an MC-4 scenario's witnessing placements:
    each code of its matrix mapped to its RCC-5 image (the converses below
    the diagonal to theirs, CG on it to EQ).  is_valid_scenario checks
    MC-4 scenarios, not these."""
    return Scenario.of_codes(_RCC5_CODE.take(scenario.codes))
