"""Bridge between congruence relations and RCC-5 parthood relations."""

from itertools import combinations

from mc4.algebra import EMPTY, UNIVERSAL, Relation, basics
from mc4.network import ConstraintNetwork
from mc4.rcc5 import (
    RCC5_ALL,
    RCC5_BASIC_RELATIONS,
    RCC5_EMPTY,
    Rcc5,
    convert_scenario,
    envelope,
    format_rcc5,
    lift,
    to_rcc5,
)
from mc4.solvers import Scenario, solve_oracle

CG = Relation.CG
CGPP = Relation.CGPP
CGPPI = Relation.CGPPI
CNO = Relation.CNO


def test_image_table_is_exact():
    assert to_rcc5(CG) == Rcc5.EQ
    assert to_rcc5(CGPP) == Rcc5.PP
    assert to_rcc5(CGPPI) == Rcc5.PPI
    assert to_rcc5(CNO) == Rcc5.PO


def test_envelope_table_is_exact():
    assert envelope(CG) == Rcc5.EQ | Rcc5.DR | Rcc5.PO
    assert envelope(CGPP) == Rcc5.PP | Rcc5.DR | Rcc5.PO
    assert envelope(CGPPI) == Rcc5.PPI | Rcc5.DR | Rcc5.PO
    assert envelope(CNO) == Rcc5.DR | Rcc5.PO


def test_lift_table_is_exact():
    assert lift(Rcc5.EQ) == CG
    assert lift(Rcc5.PP) == CGPP
    assert lift(Rcc5.PPI) == CGPPI
    assert lift(Rcc5.PO) == UNIVERSAL
    assert lift(Rcc5.DR) == UNIVERSAL


def test_maps_extend_to_unions_pointwise():
    for code in range(16):
        r = Relation(code)
        want_img = RCC5_EMPTY
        want_env = RCC5_EMPTY
        for b in basics(r):
            want_img |= to_rcc5(b)
            want_env |= envelope(b)
        assert to_rcc5(r) == want_img
        assert envelope(r) == want_env
    for code in range(32):
        s = Rcc5(code)
        want_lift = EMPTY
        for b in RCC5_BASIC_RELATIONS:
            if b & s:
                want_lift |= lift(b)
        assert lift(s) == want_lift
    assert to_rcc5(EMPTY) == RCC5_EMPTY
    assert lift(RCC5_EMPTY) == EMPTY
    assert lift(RCC5_ALL) == UNIVERSAL


def test_image_is_always_inside_the_envelope():
    for b in (CG, CGPP, CGPPI, CNO):
        assert to_rcc5(b) & envelope(b)
        assert to_rcc5(b) | envelope(b) == envelope(b)


def test_lift_of_image_recovers_embeddability_facts():
    assert lift(to_rcc5(CG)) == CG
    assert lift(to_rcc5(CGPP)) == CGPP
    assert lift(to_rcc5(CGPPI)) == CGPPI
    assert lift(to_rcc5(CNO)) == UNIVERSAL  # overlap forgets unembeddability


def test_format_rcc5():
    assert format_rcc5(RCC5_EMPTY) == "NONE"
    assert format_rcc5(RCC5_ALL) == "ALL"
    assert format_rcc5(Rcc5.PP | Rcc5.EQ) == "EQ|PP"
    assert format_rcc5(Rcc5.DR | Rcc5.PO) == "PO|DR"
    # Every mask: its tokens in base-case order, built from each subset of bits.
    tokens = ("EQ", "PP", "PPi", "PO", "DR")
    want = {
        sum(1 << k for k in ks): "|".join(tokens[k] for k in ks)
        for n in range(1, 5)
        for ks in combinations(range(5), n)
    }
    want[0], want[31] = "NONE", "ALL"
    assert [format_rcc5(Rcc5(c)) for c in range(32)] == [want[c] for c in range(32)]


def test_convert_scenario_maps_codes_pairwise():
    net = ConstraintNetwork(("a", "b", "c"))
    net.add_constraint("a", "b", CGPP)
    net.add_constraint("b", "c", CNO)
    out = solve_oracle(net)
    rcc = convert_scenario(out.scenario)
    codes = {(i, j): code for i, j, code in rcc.pairs}
    assert len(codes) == 3
    by_pair = {(i, j): code for i, j, code in out.scenario.pairs}
    for (i, j), code in by_pair.items():
        assert codes[(i, j)] == int(to_rcc5(Relation(code)))
    payload = rcc.as_json()
    assert set(payload) == {"pairs"}
    # A scenario read from triples holds the solver's matrix, so it
    # converts to the same one.
    listed = convert_scenario(Scenario(out.scenario.pairs))
    assert listed == rcc and listed.codes.tobytes() == rcc.codes.tobytes()


def test_five_base_cases_enumerated():
    assert len(RCC5_BASIC_RELATIONS) == 5
    assert int(RCC5_ALL) == 31
