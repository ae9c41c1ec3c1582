"""Every verification route can fail: a corrupted generator image or
representation matrix must show up as nonzero residuals on the relations
it breaks, so a route that passes vacuously would be caught here."""

from fractions import Fraction

import pytest

import qgl21.scalars as sc
from qgl21 import cli
from qgl21 import induced as ind
from qgl21 import realization as rz
from qgl21 import superalgebra as ua
from qgl21 import walgebra as wa
from qgl21.qmatrix import QMatrix
from conftest import assert_canonical


def _failed(results):
    return {r.name for r in results if not r.passed}


# -- the fermionic E23 image with its sign flipped ------------------------------

E23_SIGN_BREAKS = {
    "{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)",
    "E13 = E12 E23 - q^-1 E23 E12",
}


def _flip_e23_image(monkeypatch):
    images = dict(rz.realization_map("fermionic"))
    images["E23"] = -images["E23"]
    cached = rz._images
    monkeypatch.setattr(rz, "_images", lambda mode: images
                        if mode == "fermionic" else cached(mode))


def test_w_route_catches_flipped_e23(monkeypatch):
    _flip_e23_image(monkeypatch)
    assert _failed(rz.verify_realization("fermionic")) == E23_SIGN_BREAKS


def test_fock_route_catches_flipped_e23(monkeypatch):
    _flip_e23_image(monkeypatch)
    assert _failed(rz.check_relations_on_fock("fermionic", 6)) \
        == E23_SIGN_BREAKS


def test_numeric_fock_route_catches_flipped_e23(monkeypatch):
    _flip_e23_image(monkeypatch)
    assert _failed(rz.check_relations_on_fock(
        "fermionic", 6, rz.DEFAULT_ASSIGNMENT)) == E23_SIGN_BREAKS


@pytest.mark.parametrize("D, broken", [(6, (20, 10)), (8, (28, 14)),
                                         (32, (124, 62))])
def test_numeric_fock_residual_counts_match_the_symbolic_route(monkeypatch,
                                                               D, broken):
    # the numeric route counts the entries of L times the rational residual;
    # a scaling fault that zeroed or added an entry would change a count
    _flip_e23_image(monkeypatch)
    expected = {rel.name: 0 for rel in ua.relation_set()}
    expected.update(zip(("{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)",
                         "E13 = E12 E23 - q^-1 E23 E12"), broken))
    for assignment in (None, rz.DEFAULT_ASSIGNMENT):
        results = rz.check_relations_on_fock("fermionic", D, assignment)
        assert {r.name: r.residuals for r in results} == expected


def test_flipped_e23_is_undone_after_the_test():
    assert not _failed(rz.verify_realization("fermionic"))


# -- the Fock matrices without the fermion crossing sign ----------------------------

CROSSING_SIGN_BREAKS = {
    "[E21, E23] = 0": 5,
    "{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)": 9,
    "E23^2 = 0": 5,
    "E32^2 = 0": 4,
    "E21 E31 = q E31 E21": 5,
    "E31 = -E21 E32 + q^-1 E32 E21": 5,
}


def test_fock_routes_catch_a_dropped_crossing_sign(monkeypatch):
    # a mode-2 operator acting on an occupied mode 1 no longer negates
    moves = rz._fermion_moves
    monkeypatch.setattr(rz, "_fermion_moves", lambda mon, modes, occupations: [
        (f_in, f_out, False)
        for f_in, f_out, _ in moves(mon, modes, occupations)])
    for assignment in (None, rz.DEFAULT_ASSIGNMENT):
        results = rz.check_relations_on_fock("fermionic", 6, assignment)
        assert {r.name: r.residuals for r in results if not r.passed} \
            == CROSSING_SIGN_BREAKS


def test_numeric_fock_route_catches_unscaled_word_coefficients(monkeypatch):
    # the rational word coefficients as bare numerators, the lcm scale dropped
    monkeypatch.setattr(rz, "_clear_rationals", lambda values: (
        1, [v.numerator for v in values]))
    results = rz.check_relations_on_fock("fermionic", 6, rz.DEFAULT_ASSIGNMENT)
    assert (len(results), len(_failed(results))) == (37, 17)


# -- K2 doubled in the fermionic A0 representation ----------------------------------

CARTAN_23 = "{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)"


def _doubled_k2_rep():
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    mats = dict(rep.mats, K2=rep.mats["K2"].scale(sc.QScalar.from_rational(2)))
    return rep._replace(mats=mats)


def test_a0_matrix_route_catches_doubled_k2():
    assert _failed(ind.validate_a0rep(_doubled_k2_rep())) \
        == {"K2 K2^-1 = 1", CARTAN_23}


def test_module_route_catches_doubled_k2():
    # E32 and E31 act through K2 K3 on the module, so two more relations break
    assert _failed(ind.check_relations_on_module(_doubled_k2_rep(), 4)) == {
        "K2 K2^-1 = 1", CARTAN_23, "E21 E31 = q E31 E21",
        "E31 = -E21 E32 + q^-1 E32 E21"}


# -- the fused multiply-add with its coefficient on a row's first entry -------

# each word's leftmost letter is added into the residual as c * M_g * acc by
# QMatrix._addmul; the mutant multiplies only the first entry of each row of
# M_g by c.  The K scaling relations of E21, E23 and E32, the commutators
# [E12, E32], [E21, E23] and [E12, E21], E21 E31 = q E31 E21 and the E13 and
# E31 definitions break, as M_g has rows of two entries: on the fermionic
# images and on the module (the fermionic gl(1/1) plug-in), never on the
# trivial ones, whose matrices have one entry per row
FIRST_ENTRY_BREAKS = {
    "K%d %s = q^%+d %s K%d" % (i, e, ua.k_weight("K%d" % i, e), e, i)
    for i in (1, 2, 3) for e in ("E21", "E23", "E32")} | {
    "[E12, E32] = 0", "[E21, E23] = 0",
    "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)",
    "E21 E31 = q E31 E21", "E13 = E12 E23 - q^-1 E23 E12",
    "E31 = -E21 E32 + q^-1 E32 E21"}


def _c_on_first_entries_only(monkeypatch):
    addmul = QMatrix._addmul

    def mutant(self, a, b, c=None):
        rows = {i: list(r.items()) for i, r in a.rows.items()}
        addmul(self, a._like({i: dict(r[:1]) for i, r in rows.items()}), b, c)
        return addmul(self, a._like({i: dict(r[1:])
                                     for i, r in rows.items() if r[1:]}), b)

    monkeypatch.setattr(QMatrix, "_addmul", mutant)


def test_fock_and_module_routes_catch_a_partly_applied_coefficient(
        monkeypatch):
    _c_on_first_entries_only(monkeypatch)
    symbolic = rz.check_relations_on_fock("fermionic", 6)
    numeric = rz.check_relations_on_fock("fermionic", 6, rz.DEFAULT_ASSIGNMENT)
    assert _failed(symbolic) == FIRST_ENTRY_BREAKS
    # the numeric words carry other cleared coefficients, so one more
    # relation breaks there and some counts differ
    assert _failed(numeric) == FIRST_ENTRY_BREAKS | {CARTAN_23}
    module = ind.check_relations_on_module(
        ind.highest_weight_a0rep(ind.fermionic_gl11_rep()), 4)
    assert _failed(module) == FIRST_ENTRY_BREAKS
    for assignment in (None, rz.DEFAULT_ASSIGNMENT):
        assert not _failed(rz.check_relations_on_fock("trivial", 6,
                                                      assignment))
    assert not _failed(ind.check_relations_on_module(
        ind.highest_weight_a0rep(ind.trivial_gl11_rep()), 4))


def test_w_route_is_untouched_by_the_matrix_multiply_add(monkeypatch):
    # W images are summed by a plain product and Combination._iadd
    _c_on_first_entries_only(monkeypatch)
    for mode in ("abstract", "trivial", "fermionic"):
        assert not _failed(rz.verify_realization(mode))


# -- E12 raising N by two on the module ---------------------------------------------

# the residual counts of an untruncated check (each relation applied through
# act to the states N <= 2, with N unbounded)
E12_BY_TWO_BREAKS = {
    "E12 E13 = q E13 E12": 6,
    "E13 = E12 E23 - q^-1 E23 E12": 18,
    "K1 E12 = q^+1 E12 K1": 12,
    "K2 E12 = q^-1 E12 K2": 12,
    "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)": 24,
}


def test_module_truncation_hides_no_fault(monkeypatch):
    # the faulty E12 raises N by two, so its words leave the states N <= nmax
    # that the module check builds; the residuals must all still show
    act = ind.act

    def e12_by_two(g, x, rep):
        if g == "E12":
            return ind.InducedVector({(N + 2, M, i): c
                                      for (N, M, i), c in x.terms.items()})
        return act(g, x, rep)

    monkeypatch.setattr(ind, "act", e12_by_two)
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    results = ind.check_relations_on_module(rep, 4)
    assert {r.name: r.residuals for r in results if not r.passed} \
        == E12_BY_TWO_BREAKS


# -- E23 through E12^n with the E13 term of its closed form scaled by q ----------

def test_lemma1_catches_scaled_e13_term(monkeypatch, capsys):
    # the single-swap oracle only uses n = 1, so the fault shows at n = 2, 3, 4
    cross = ua._cross

    def scaled(x, base, n):
        out = cross(x, base, n)
        if x[0] == "E23" and base == "E12" and n >= 2:
            out = [(c * sc.Q if repl[-1] == ("E13", 1) else c, repl)
                   for c, repl in out]
        return out

    monkeypatch.setattr(ua, "_cross", scaled)
    assert cli.main(["verify", "lemma1", "--nmax", "4"]) == 1
    failed = [line.split() for line in capsys.readouterr().out.splitlines()
              if "FAIL" in line]
    assert failed == [["E23", "through", "E12^n", "FAIL", "residuals=3"]]


# -- the fermionic plug-in with both states even --------------------------------

def test_parity_checks_catch_an_even_fermion():
    gl11 = ind.fermionic_gl11_rep()._replace(parity=(0, 0))
    a0 = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())._replace(
        parity=(0, 0))
    for results in (ind.validate_gl11_rep(gl11), ind.validate_a0rep(a0)):
        # names compared case-insensitively: e23 and E23 are the same letter
        assert {r.name.lower(): r.residuals for r in results if not r.passed} \
            == {"e23 flips parity": 1, "e32 flips parity": 1}


# -- the W normal-ordering rules, each with one term wrong -----------------------

def _mutate_w_rule(monkeypatch, name, mutant):
    # the images are built first, so the mutant reaches only the products the
    # relation check forms from them
    rz.realization_map("fermionic")
    monkeypatch.setattr(wa, name, mutant(getattr(wa, name)))
    return {r.name: r.residuals
            for r in rz.verify_realization("fermionic") if not r.passed}


def test_w_route_catches_scaled_boson_contraction(monkeypatch):
    def scale_contracted_terms(bos_mul):
        def mutant(x, y):
            kk = x[1] + y[1]
            return {key: c * sc.Q if key[1] != kk else c
                    for key, c in bos_mul(x, y).items()}
        return mutant

    assert _mutate_w_rule(monkeypatch, "_bos_mul", scale_contracted_terms) == {
        "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)": 8,
        CARTAN_23: 4,
        "E13 = E12 E23 - q^-1 E23 E12": 1,
        "E31 = -E21 E32 + q^-1 E32 E21": 4,
    }


def test_w_route_catches_mode1_sign_ignoring_mode2(monkeypatch):
    def negate_b1_past_odd_mode2(fg_insert):
        def mutant(part, kind, exp):
            out = fg_insert(part, kind, exp)
            if kind in ("b1+", "b1") and (part[2] + part[3]) & 1:
                return [(p, -c) for p, c in out]
            return out
        return mutant

    assert _mutate_w_rule(monkeypatch, "_fg_insert",
                          negate_b1_past_odd_mode2) == {
        "[E21, E23] = 0": 2,
        CARTAN_23: 2,
        "E23^2 = 0": 1,
        "E32^2 = 0": 1,
        "E21 E31 = q E31 E21": 2,
        "E31 = -E21 E32 + q^-1 E32 E21": 2,
    }


# -- the cancellation steps of QScalar * and + -------------------------------------

# A value that equals the canonical one but is not stored in canonical form
# leaves every residual exactly zero, so no relation route can see it (ROADMAP
# item 5): these mutants are caught only by the storage-invariant check
# conftest.assert_canonical and by == against the canonical value.  The
# operands are built before the mutant is installed, so it acts only in the
# operator under test.

def _assert_only_the_canonical_check_fails(results, expected):
    for got, want in zip(results, expected):
        assert got != want
        with pytest.raises(AssertionError):
            assert_canonical(got)
    assert not _failed(rz.check_relations_on_fock("fermionic", 6))


def test_canonical_check_catches_mul_without_closed_division(monkeypatch):
    # q - q^-1 times q/(q^2 - 1), and (q + 1)/(q - 1) times (q - 1)/q
    pairs = [(sc.EPS, sc.EPS_INV),
             ((sc.Q + 1) / (sc.Q - 1), (sc.Q - 1) * sc.QINV)]
    expected = [sc.ONE, (sc.Q + 1) * sc.QINV]
    rz.realization_map("fermionic")

    def without_closed_division(a, c, i, j, f):
        a, c = sc._cancel_content(a, c)
        a, f = sc._cancel_outside(a, f)
        return a, c, i, j, f

    monkeypatch.setattr(sc, "_cancel", without_closed_division)
    _assert_only_the_canonical_check_fails([x * y for x, y in pairs],
                                           expected)


def test_canonical_check_catches_add_without_content_cancel(monkeypatch):
    half = sc.QScalar.from_rational(Fraction(1, 2))
    third = sc.EPS_INV / 3
    pairs = [(half, half), (third, third + third)]
    expected = [sc.ONE, sc.EPS_INV]
    rz.realization_map("fermionic")
    monkeypatch.setattr(sc, "_cancel_content", lambda a, c: (a, c))
    _assert_only_the_canonical_check_fails([x + y for x, y in pairs],
                                           expected)
