import pytest

import qgl21.scalars as sc
from qgl21 import walgebra as wa
from qgl21.qmatrix import QMatrix
from qgl21.superalgebra import (
    ODD_GENERATORS, STRAIGHTENING_IDENTITIES, STRAIGHTEN_GENERATORS, UElement,
    check_straightening_identities, e13_definition, e31_definition, evaluate,
    oracle_straighten, relation_families, relation_set, render_uelement,
    render_word, straighten,
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
    for r in check_straightening_identities(4):
        assert r.passed, (r.name, r.residuals)
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


@pytest.mark.parametrize("nmax", [-1, 0, 1])
def test_straightening_check_rejects_nmax_below_two(nmax):
    # at n <= 1 the closed and single-swap rules coincide, so such a check
    # could never fail
    with pytest.raises(ValueError, match="at least 2"):
        check_straightening_identities(nmax)


# -- evaluate sums its words in place -------------------------------------------

def _contents(x):
    if isinstance(x, QMatrix):
        return {i: dict(row) for i, row in x.rows.items()}
    return dict(x.terms)


def _matrix_gens():
    return {"E12": QMatrix.from_entries(2, 2, [(0, 1, sc.ONE)]),
            "E21": QMatrix.from_entries(2, 2, [(1, 0, sc.Q), (0, 1, sc.ONE)])}


def _w_gens():
    return {"E12": wa.generator("a+") + wa.generator("t"),
            "E21": wa.generator("a") + wa.generator("t")}


@pytest.mark.parametrize("gens, start", [
    (_matrix_gens(), QMatrix.identity(2)),
    (_w_gens(), wa.one()),
])
def test_evaluate_leaves_start_and_generators_unchanged(gens, start):
    # as in check_relations, a one-letter word on the unit evaluates to the
    # generator itself, so the sum would reach into a shared generator if it
    # added into anything but its own fresh zero
    def apply(g, acc):
        return gens[g] if acc is start else gens[g] * acc

    before = {g: _contents(x) for g, x in gens.items()}
    start_before = _contents(start)
    el = W(("E12", 1)) + W(("E21", 1)) + W(("E12", 1), ("E21", 1), coeff=sc.Q)
    total = evaluate(el, apply, start)
    expected = gens["E12"] + gens["E21"] + (gens["E12"] * gens["E21"]).scale(sc.Q)
    assert total == expected
    assert {g: _contents(x) for g, x in gens.items()} == before
    assert _contents(start) == start_before


# -- straightening output and input rules ----------------------------------------

@pytest.mark.parametrize("route", [straighten, oracle_straighten])
def test_straightened_a0_words_hold_no_odd_square(route):
    # each term's A0 word holds at most one odd letter, so none holds two
    # adjacent ones (an odd square, zero in the algebra): straightening
    # needs no odd-square rule of its own
    words = 0
    for g in STRAIGHTEN_GENERATORS:
        for N in range(13):
            for M in (0, 1):
                for t in route(g, N, M):
                    w = t.a0word
                    assert sum(nm in ODD_GENERATORS for nm, _e in w) <= 1
                    assert not any(w[i][0] == w[i + 1][0] in ODD_GENERATORS
                                   for i in range(len(w) - 1))
                    words += 1
    assert words == 435


@pytest.mark.parametrize("route", [straighten, oracle_straighten])
@pytest.mark.parametrize("g, N, M, match", [
    ("X", 0, 0, "unknown generator 'X'"),
    (("E21", 1), 0, 0, "unknown generator"),
    ("E21", -1, 0, r"invalid basis state \(-1, 0\)"),
    ("E12", 0.5, 0, r"invalid basis state \(0.5, 0\)"),
    ("E12", 1, 2, r"invalid basis state \(1, 2\)"),
])
def test_straighten_rejects_a_bad_generator_or_state(route, g, N, M, match):
    with pytest.raises(ValueError, match=match):
        route(g, N, M)


@pytest.mark.parametrize("nmax", [2.5, 4.0, None])
def test_straightening_check_rejects_a_non_integer_nmax(nmax):
    with pytest.raises(ValueError, match="nmax must be an integer"):
        check_straightening_identities(nmax)


# -- UElement.word checks its exponents ---------------------------------------------

@pytest.mark.parametrize("exp", [1.5, 1.0, "1", None])
def test_a_word_letter_needs_an_int_exponent(exp):
    with pytest.raises(ValueError, match="not an int"):
        W(("K1", exp))
    with pytest.raises(ValueError, match="not an int"):
        UElement.gen("E12", exp)


def test_zero_exponent_letters_are_dropped():
    assert W(("K1", 0), ("E12", 1), ("K2", 0)) == W(("E12", 1))


# -- the rendering of U elements ----------------------------------------------------

def test_uelement_rendering_is_unchanged():
    assert repr(e13_definition()) == "E12*E23 - q^-1*E23*E12"
    assert str(e31_definition()) == "-E21*E32 + q^-1*E32*E21"
    assert repr(UElement.zero()) == "0"
    assert repr(UElement.one()) == "1"
    assert repr(W(("K1", -2), ("E12", 1)) + 2 - W(("K2", 3))) \
        == "2 - K2^3 + K1^-2*E12"
    assert render_word(()) == "1"
    assert render_word((("K1", -1), ("E12", 1), ("K3", 2))) == "K1^-1*E12*K3^2"
    assert render_uelement(W(("E23", 1), coeff=sc.EPS_INV)) \
        == "(q/(q^2 - 1))*E23"
