import pytest

import qgl21.scalars as sc
from qgl21.superalgebra import (
    ODD_GENERATORS, STRAIGHTENING_IDENTITIES, STRAIGHTEN_GENERATORS, UElement,
    check_straightening_identities, e13_definition, e31_definition,
    oracle_straighten, relation_families, relation_set, straighten,
)

W = UElement.word


def word_parity(word):
    return sum(1 for nm, _e in word if nm in ODD_GENERATORS) & 1


def drop_adjacent_squares(el, name):
    """Discard words containing the letter twice in a row (in the derivation
    chains below, E23^2 = 0 kills whole words)."""
    return UElement({w: c for w, c in el.terms.items()
                     if not any(w[i][0] == name and w[i + 1][0] == name
                                for i in range(len(w) - 1))})


def find_relation(fragment):
    hits = [r for r in relation_set() if fragment in r.name]
    assert hits, fragment
    return hits[0]


def test_relation_family_census():
    families = relation_families()
    defs = [f for f in families if f.startswith("definition")]
    assert len(defs) == 2
    assert len(families) - len(defs) == 8


def test_k_scaling_instances():
    rel = find_relation("K1 E12")
    assert rel.rhs == W(("E12", 1), ("K1", 1)).scale(sc.Q)
    rel = find_relation("K2 E32")
    assert rel.rhs == W(("E32", 1), ("K2", 1)).scale(sc.QINV)


def test_uelement_words_are_free():
    # K powers do not merge at the word level: K K^-1 = 1 is a relation to
    # be verified downstream, not a rewrite built into the data type
    x = W(("K1", 2)) * W(("K1", -2))
    assert x != UElement.one()
    assert list(x.terms) == [(("K1", 2), ("K1", -2))]
    y = W(("K1", 1), ("E12", 1)) * W(("E12", 1))
    assert list(y.terms) == [(("K1", 1), ("E12", 1), ("E12", 1))]
    assert W(("K1", 0)) == UElement.one()


# -- closed-form straightening examples --------------------------------------

def test_straighten_e13_through_e12_squared():
    terms = straighten("E13", 2, 0)
    assert len(terms) == 1
    t = terms[0]
    assert (t.n, t.m, t.a0word) == (2, 1, ())
    assert t.coeff == sc.q_power(-2)


def test_straighten_passthrough():
    terms = straighten("E23", 0, 0)
    assert len(terms) == 1
    assert terms[0].coeff == sc.ONE
    assert (terms[0].n, terms[0].m) == (0, 0)
    assert terms[0].a0word == (("E23", 1),)


def test_straighten_e32_through_e13():
    terms = {(t.n, t.m, t.a0word): t.coeff for t in straighten("E32", 0, 1)}
    assert terms == {
        (1, 0, (("K2", 1), ("K3", 1))): sc.QINV,
        (0, 1, (("E32", 1),)): -sc.ONE,
    }


def test_oracle_e21_single_step():
    terms = {(t.n, t.m, t.a0word): t.coeff for t in oracle_straighten("E21", 1, 0)}
    assert terms == {
        (1, 0, (("E21", 1),)): sc.ONE,
        (0, 0, (("K1", 1), ("K2", -1))): -sc.EPS_INV,
        (0, 0, (("K1", -1), ("K2", 1))): sc.EPS_INV,
    }


def test_oracle_e13_three_swaps():
    terms = oracle_straighten("E13", 3, 0)
    assert len(terms) == 1
    assert terms[0].coeff == sc.q_power(-3)
    assert (terms[0].n, terms[0].m, terms[0].a0word) == (3, 1, ())


@pytest.mark.parametrize("g", STRAIGHTEN_GENERATORS)
def test_oracle_passthrough_identity(g):
    terms = oracle_straighten(g, 0, 0)
    assert len(terms) == 1
    t = terms[0]
    assert t.coeff == sc.ONE
    if g == "E12":
        assert (t.n, t.m, t.a0word) == (1, 0, ())
    elif g == "E13":
        assert (t.n, t.m, t.a0word) == (0, 1, ())
    else:
        exp = -1 if g.endswith("inv") else 1
        assert (t.n, t.m, t.a0word) == (0, 0, ((g.replace("inv", ""), exp),))


def test_e13_squares_vanish_through_straightening():
    assert straighten("E13", 0, 1) == []
    assert straighten("E13", 4, 1) == []
    assert oracle_straighten("E13", 2, 1) == []


@pytest.mark.parametrize("g", STRAIGHTEN_GENERATORS)
@pytest.mark.parametrize("M", [0, 1])
def test_straighten_matches_oracle(g, M):
    for N in range(5):
        assert straighten(g, N, M) == oracle_straighten(g, N, M)


@pytest.mark.parametrize("g", STRAIGHTEN_GENERATORS)
@pytest.mark.parametrize("M", [0, 1])
def test_straighten_parity_conservation(g, M):
    g_par = 1 if g in ("E23", "E32", "E13", "E31") else 0
    for N in range(4):
        for t in straighten(g, N, M):
            total = (t.m + word_parity(t.a0word)) % 2
            assert total == (g_par + M) % 2


def test_nine_identities_closed_vs_single():
    for name, ok, bad in check_straightening_identities(4):
        assert ok, (name, bad)
    assert len(STRAIGHTENING_IDENTITIES) == 9


# -- derivation chains for the oracle base rules -----------------------------
# Three of the n = 1 swap rules are rederived here inside the free algebra,
# using only the composite-root definitions, the q-Serre relation and the
# odd squares; this documents that the oracle's base rules are consequences
# of the defining relations rather than independent inputs.

def _serre_free():
    # E12 E13 - q E13 E12 with E13 expanded by its definition
    e13 = e13_definition()
    return UElement.gen("E12") * e13 - (e13 * UElement.gen("E12")).scale(sc.Q)


def test_e23_e12_swap_is_free_consequence_of_the_definition():
    # E23 E12 = q E12 E23 - q E13 holds in the free algebra once E13 is
    # expanded: no relation is needed at all.
    lhs = W(("E23", 1), ("E12", 1))
    rhs = W(("E12", 1), ("E23", 1)).scale(sc.Q) - e13_definition().scale(sc.Q)
    assert lhs == rhs


def test_e13_e12_swap_reduces_to_the_serre_relation():
    # E13 E12 - q^-1 E12 E13 equals -q^-1 times the Serre combination.
    e13 = e13_definition()
    lhs = e13 * UElement.gen("E12") - (UElement.gen("E12") * e13).scale(sc.QINV)
    assert lhs == _serre_free().scale(-sc.QINV)
    assert (lhs + _serre_free().scale(sc.QINV)).is_zero()


def test_e23_e13_swap_needs_only_the_odd_square():
    # E23 E13 + q E13 E23 dies once words containing E23 E23 are dropped.
    e13 = e13_definition()
    combo = UElement.gen("E23") * e13 + (e13 * UElement.gen("E23")).scale(sc.Q)
    assert drop_adjacent_squares(combo, "E23").is_zero()


def test_e13_square_vanishes_by_the_documented_derivation():
    # (q + q^-1) E13^2 + S E23 + q^-2 E23 S = 0 modulo words containing
    # E23 E23, where S is the free expansion of the Serre combination.
    e13 = e13_definition()
    s = _serre_free()
    combo = (e13 * e13).scale(sc.Q + sc.QINV) \
        + s * UElement.gen("E23") \
        + (UElement.gen("E23") * s).scale(sc.q_power(-2))
    assert drop_adjacent_squares(combo, "E23").is_zero()


def test_e31_definition_shape():
    el = e31_definition()
    assert el == -W(("E21", 1), ("E32", 1)) \
        + W(("E32", 1), ("E21", 1)).scale(sc.QINV)
