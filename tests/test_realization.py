import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgl21.induced as ind
import qgl21.realization as rz
import qgl21.scalars as sc
import qgl21.superalgebra as ua
from conftest import (
    assert_packed_laurent_check, record_check_matrices, substitute_monomial)
from qgl21.parsing import parse_w
from qgl21.qmatrix import PackedRows, QMatrix
from qgl21.realization import (
    DEFAULT_ASSIGNMENT, GENERATOR_IMAGE_NAMES, check_relations_on_fock,
    dyson_check, fock_matrix, fock_modes, image_of_uelement,
    realization_map, relation_shifts, rho, verify_realization,
)
from qgl21.reporting import all_passed
from qgl21.superalgebra import relation_set
from qgl21.walgebra import WElement, generator, one, w_mul

g = generator

NUMERIC = {"q": Fraction(3, 2), "p1": Fraction(2), "p2": Fraction(3),
           "p3": Fraction(5)}


# -- the map ------------------------------------------------------------------

def test_rho_simple_images():
    assert rho("E12") == g("a+")
    assert rho("K2") == w_mul(g("tinv"), g("k2"))
    assert rho("E13") == w_mul(g("tinv"), g("b+"))


def test_rho_e13_consistent_with_definition():
    derived = w_mul(rho("E12"), rho("E23")) \
        - sc.QINV * w_mul(rho("E23"), rho("E12"))
    assert derived == rho("E13")


def test_rho_e31_consistent_with_definition():
    derived = -w_mul(rho("E21"), rho("E32")) \
        + sc.QINV * w_mul(rho("E32"), rho("E21"))
    assert derived == rho("E31")


@pytest.mark.parametrize("mode", ["abstract", "trivial", "fermionic"])
def test_rho_k_inverse_pairs(mode):
    for i in (1, 2, 3):
        prod = w_mul(rho("K%d" % i, mode), rho("K%dinv" % i, mode))
        assert prod == one()


def test_rho_parities():
    for name in ("E23", "E32", "E13", "E31"):
        assert rho(name).parity() == 1
    for name in ("E12", "E21", "K1", "K2", "K3"):
        assert rho(name).parity() == 0


def test_rho_odd_squares_vanish():
    for mode in ("abstract", "trivial", "fermionic"):
        for name in ("E23", "E32", "E13", "E31"):
            assert not w_mul(rho(name, mode), rho(name, mode))


@pytest.mark.parametrize("mode", ["abstract", "trivial", "fermionic"])
def test_verify_realization_all_relations(mode):
    results = verify_realization(mode)
    assert len(results) == len(relation_set())
    for r in results:
        assert r.passed, (mode, r.name, r.residuals)


def test_trivial_mode_resources():
    used_vars = set()
    used_modes = set()
    for name in GENERATOR_IMAGE_NAMES:
        el = rho(name, "trivial")
        for c in el.terms.values():
            used_vars |= c.variables()
        used_modes.update(el.fermion_modes())
    assert used_vars == {"q", "p1", "p2"}         # two parameters
    assert used_modes == {1}                      # one fermion pair


def test_fermionic_mode_resources():
    used_vars = set()
    used_modes = set()
    for name in GENERATOR_IMAGE_NAMES:
        el = rho(name, "fermionic")
        for c in el.terms.values():
            used_vars |= c.variables()
        used_modes.update(el.fermion_modes())
    assert used_vars == {"q", "p1", "p2", "p3"}   # three parameters
    assert used_modes == {1, 2}                   # two fermion pairs


def test_trivial_mode_is_vacuum_sector_of_fermionic():
    # drop mode-2 excitations and send p3 -> p2^-1: the images coincide
    for name in GENERATOR_IMAGE_NAMES:
        projected = WElement.zero()
        for mon, c in rho(name, "fermionic").terms.items():
            if mon.i2 or mon.j2:
                continue
            projected = projected + WElement.term(
                mon, substitute_monomial(c, "p3", (0, 0, -1, 0)))
        assert projected == rho(name, "trivial"), name


# -- Fock rendering -----------------------------------------------------------

def test_fock_matrix_of_annihilator():
    fm = fock_matrix(g("a"), 3)
    assert fm.dim == 3
    assert fm.matrix.entry(0, 1) == sc.q_integer(1)
    assert fm.matrix.entry(1, 2) == sc.q_integer(2)
    assert fm.matrix.nnz() == 2


def test_fock_matrix_of_t_is_diagonal():
    fm = fock_matrix(g("t"), 3)
    for n in range(3):
        assert fm.matrix.entry(n, n) == sc.q_power(n)
    assert fm.matrix.nnz() == 3


def test_fock_matrix_of_creator_truncates():
    fm = fock_matrix(g("a+"), 4)
    assert fm.matrix.entry(3, 2) == sc.ONE
    assert fm.matrix.nnz(cols=[3]) == 0
    assert fm.boundary_columns == (3,)


def test_fock_matrix_zero_element_region():
    x = w_mul(g("a"), g("a+")) - sc.QINV * w_mul(g("a+"), g("a")) - g("t")
    fm = fock_matrix(x, 5)
    assert fm.matrix.nnz() == 0


def test_fock_truncation_shows_up_in_matrix_products():
    D = 5
    a = fock_matrix(g("a"), D).matrix
    ap = fock_matrix(g("a+"), D).matrix
    t = fock_matrix(g("t"), D).matrix
    resid = a * ap - ap.scale(sc.QINV) * a - t
    # exact on the safe columns, broken only at the cutoff column
    assert resid.nnz(cols=range(D - 1)) == 0
    assert resid.nnz(cols=[D - 1]) > 0


def test_fock_fermion_modes_are_graded():
    b1 = fock_matrix(g("b1"), 2, modes=(1, 2)).matrix
    b2 = fock_matrix(g("b2"), 2, modes=(1, 2)).matrix
    assert (b1 * b2 + b2 * b1).nnz() == 0
    b2p = fock_matrix(g("b2+"), 2, modes=(1, 2)).matrix
    anti = b2 * b2p + b2p * b2
    assert anti == QMatrix.identity(8)


@pytest.mark.parametrize("name, row, col", [("b2", 0, 1), ("b2+", 1, 0)])
def test_fock_matrix_on_a_mode_2_basis(name, row, col):
    # the default modes of a mode-2 element are (2,): no mode-1 occupation
    # is there to cross, so every entry is +1
    D = 3
    fm = fock_matrix(g(name), D)
    assert fm.modes == (2,)
    assert fm.basis == tuple((n, f) for n in range(D) for f in (0, 1))
    assert fm.matrix == QMatrix.from_entries(
        2 * D, 2 * D, [(2 * n + row, 2 * n + col, sc.ONE) for n in range(D)])
    with pytest.raises(ValueError, match="fermion mode 2 but the basis"):
        fock_matrix(g(name), D, modes=(1,))
    with pytest.raises(ValueError, match="fermion mode 1 but the basis"):
        fock_matrix(g("b1"), D, modes=(2,))


@pytest.mark.parametrize("modes", [(3,), (1, 1), (2, 1), (0,), (1, 2, 2)])
def test_fock_matrix_rejects_invalid_modes(modes):
    with pytest.raises(ValueError, match=re.escape("modes %r" % (modes,))):
        fock_matrix(g("a"), 3, modes=modes)


def test_fock_matrix_rejects_abstract_factors():
    with pytest.raises(ValueError):
        fock_matrix(g("e23"), 4)
    with pytest.raises(ValueError):
        fock_matrix(rho("K2", "abstract"), 4)


@pytest.mark.parametrize("D", [2.5, 4.0, None])
def test_fock_matrix_rejects_a_non_integer_dimension(D):
    with pytest.raises(ValueError, match="Fock dimension must be an integer"):
        fock_matrix(g("a"), D)


def test_fock_matrix_rejects_singular_assignment():
    with pytest.raises(ValueError):
        fock_matrix(g("a"), 4, assignment={"q": 1})


@pytest.mark.parametrize("assignment, name", [
    ({"p1": 2, "p2": 3, "p3": 5}, "q"),
    ({"q": None, "p1": 2}, "q"),
    ({"q": "x", "p1": 2}, "q"),
    ({"q": 2, "p1": 0, "p2": 3, "p3": 5}, "p1"),
    ({"q": 2, "p1": 2, "p2": Fraction(0), "p3": 5}, "p2"),
    ({"q": 2, "p1": 2, "p2": 3, "p3": "0"}, "p3"),
    ({"q": 2, "p1": [1]}, "p1"),
    ({"q": "1/0", "p1": 2}, "q"),
    ({"q": 2, "p1": "1/0"}, "p1"),
    ({"q": 2, "p4": 1}, "p4"),
    ({"q": float("inf"), "p1": 2}, "q"),
    ({"q": 2, "p1": float("-inf")}, "p1"),
])
def test_fock_matrix_rejects_bad_assignment_by_name(assignment, name):
    with pytest.raises(ValueError, match=r"\b%s\b" % name):
        fock_matrix(g("a"), 4, assignment=assignment)


@pytest.mark.parametrize("assignment, message", [
    ({("q",): 2}, "('q',) is not one of q, p1, p2, p3"),
    ({"q": 2, 1: 3, "x": 4}, "x is not one of q, p1, p2, p3"),
    ({"q": 2, "z": 1, "b": 2}, "b is not one of q, p1, p2, p3"),
], ids=["tuple-key", "mixed-key-types", "two-unknown-names"])
def test_fock_matrix_names_an_unknown_key_as_given(assignment, message):
    # a tuple key is named whole, and keys of mixed types are not sorted
    # together (a TypeError); among unknown names the first sorted is named
    with pytest.raises(ValueError) as exc:
        fock_matrix(g("a"), 8, assignment)
    assert str(exc.value) == message


def test_fock_matches_long_boson_words():
    # high-power words exercise the a+a contraction cascade; the truncated
    # Fock representation is an independent route through the same algebra
    D = 12
    rng = random.Random(42)
    names = ("a", "a+", "t", "tinv")
    mats = {nm: fock_matrix(g(nm), D).matrix for nm in names}
    for _ in range(25):
        word = [rng.choice(names) for _ in range(rng.randrange(2, 7))]
        el = g(word[0])
        mat = mats[word[0]]
        for nm in word[1:]:
            el = w_mul(el, g(nm))
            mat = mat * mats[nm]
        raise_total = sum(1 for nm in word if nm == "a+")
        felm = fock_matrix(el, D).matrix
        assert (felm - mat).nnz(cols=range(D - raise_total)) == 0, word


def test_fock_rendering_is_homomorphic_on_safe_columns():
    D = 6
    rng = random.Random(5)
    names = ["a", "a+", "t", "tinv", "b+", "b", "b2+", "b2"]
    for _ in range(40):
        x, y = g(rng.choice(names)), g(rng.choice(names))
        fx = fock_matrix(x, D, modes=(1, 2)).matrix
        fy = fock_matrix(y, D, modes=(1, 2)).matrix
        fxy = fock_matrix(w_mul(x, y), D, modes=(1, 2)).matrix
        raise_y = max(0, y.max_raising())
        safe = [i for i in range(D * 4) if i // 4 <= D - 1 - raise_y]
        assert (fx * fy - fxy).nnz(cols=safe) == 0


def test_rendering_commutes_with_substitution():
    from qgl21.walgebra import substitute_gl11
    for mode in ("trivial", "fermionic"):
        modes = (1,) if mode == "trivial" else (1, 2)
        for name in ("K2", "E23", "E32", "E31"):
            direct = fock_matrix(rho(name, mode), 5, modes=modes).matrix
            via_subst = fock_matrix(
                substitute_gl11(rho(name, "abstract"), mode), 5,
                modes=modes).matrix
            assert direct == via_subst


# -- the numeric route evaluates first ----------------------------------------

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# what _check_assignment accepts: q outside {0, +-1}, every p_i nonzero
accepted_assignments = st.fixed_dictionaries({
    "q": _rationals.filter(lambda v: v not in (0, 1, -1)),
    "p1": _rationals.filter(bool),
    "p2": _rationals.filter(bool),
    "p3": _rationals.filter(bool),
})

# coefficients with poles only where an accepted assignment never goes
_COEFFICIENTS = ("1", "-2/3", "q^-3", "p1/(q - 1)", "p2/(q + 1)^2",
                 "q*p3^-1", "(q + 1)/q")
_MONOMIALS = ("1", "a", "a+", "a^2*t", "a+^2*t^-3", "t^-1*b+", "b*b2+",
              "a*t^2*b+*b2", "a^3*b2+*b2")
w_elements = st.lists(
    st.tuples(st.sampled_from(_COEFFICIENTS), st.sampled_from(_MONOMIALS)),
    min_size=1, max_size=4,
).map(lambda terms: parse_w(" + ".join("(%s)*%s" % t for t in terms)))


def _evaluated(fock, assignment):
    """A symbolic Fock matrix with every entry evaluated at the assignment."""
    m = fock.matrix
    return QMatrix.from_entries(m.nrows, m.ncols, (
        (i, j, sc.QScalar.from_rational(v.evaluate(**assignment)))
        for i, j, v in m.iter_entries()))


def _outcome(build):
    try:
        return build()
    except (sc.PoleError, ValueError) as exc:
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _symbolic_image(name, mode):
    return fock_matrix(rho(name, mode), 8, modes=fock_modes(mode))


@settings(max_examples=12, deadline=None)
@given(accepted_assignments)
def test_fock_numeric_equals_symbolic_evaluated_on_images(assignment):
    for mode in ("trivial", "fermionic"):
        for name in GENERATOR_IMAGE_NAMES:
            numeric = fock_matrix(rho(name, mode), 8, assignment,
                                  fock_modes(mode))
            expected = _evaluated(_symbolic_image(name, mode), assignment)
            assert numeric.matrix == expected, (mode, name)


@settings(max_examples=60, deadline=None)
@given(w_elements, st.sampled_from((2, 5, 8)), accepted_assignments)
@example(parse_w("1/(q + 2)*a"), 8,
         {"q": -2, "p1": 2, "p2": 3, "p3": 5}).via("a pole of c")
@example(parse_w("1/(q + 2)*a^3"), 2,
         {"q": -2, "p1": 2, "p2": 3, "p3": 5}).via("c never gives an entry")
@example(rho("K1", "fermionic"), 8, {"q": 2}).via("p1 unassigned")
def test_fock_numeric_equals_symbolic_evaluated_on_w_elements(x, D,
                                                              assignment):
    numeric = _outcome(
        lambda: fock_matrix(x, D, assignment, (1, 2)).matrix)
    expected = _outcome(
        lambda: _evaluated(fock_matrix(x, D, modes=(1, 2)), assignment))
    assert numeric == expected


def test_fock_numeric_error_parity_cases():
    pole = {"q": -2, "p1": 2, "p2": 3, "p3": 5}
    with pytest.raises(sc.PoleError):
        fock_matrix(parse_w("1/(q + 2)*a"), 8, pole)
    # a^3 annihilates every state of a 2-level space: the pole of c, or a
    # variable it has and the assignment leaves out, leaves no entry
    assert fock_matrix(parse_w("1/(q + 2)*a^3"), 2, pole).matrix.nnz() == 0
    assert fock_matrix(parse_w("p1*a^3"), 2, {"q": 2}).matrix.nnz() == 0
    with pytest.raises(ValueError, match="no value assigned for p1"):
        fock_matrix(rho("K1", "fermionic"), 8, {"q": 2}, (1, 2))


def test_fock_numeric_pole_cancelling_between_monomials():
    # c = 1/(q + 2) has a pole at q = -2, but on a 2-level space t a and a
    # give the same entry [1], so the symbolic matrix is zero there
    pole = {"q": -2, "p1": 2, "p2": 3, "p3": 5}
    x = parse_w("1/(q + 2)*t*a - 1/(q + 2)*a")
    assert fock_matrix(x, 2).matrix.nnz() == 0
    assert fock_matrix(x, 2, pole).matrix.nnz() == 0
    # at n = 2 the entry is [2] (q - 1)/(q + 2): the pole survives
    with pytest.raises(sc.PoleError):
        fock_matrix(x, 3, pole)


def test_fock_numeric_entries_are_fractions():
    fock = fock_matrix(rho("E21", "fermionic"), 8, DEFAULT_ASSIGNMENT)
    assert fock.matrix.nnz() > 0
    assert all(type(v) is Fraction for _, _, v in fock.matrix.iter_entries())
    # the pole of 1/(q + 2) cancels between t a and a, so the symbolic
    # entries are evaluated instead; only a+ leaves an entry
    pole = {"q": -2, "p1": 2, "p2": 3, "p3": 5}
    x = parse_w("1/(q + 2)*t*a - 1/(q + 2)*a + a+")
    entries = list(fock_matrix(x, 2, pole).matrix.iter_entries())
    assert entries == [(1, 0, 1)]
    assert type(entries[0][2]) is Fraction


def test_fock_numeric_missing_entry_is_a_fraction_zero():
    m = fock_matrix(g("a"), 4, DEFAULT_ASSIGNMENT).matrix
    assert m.entry(0, 1) == 1
    for x in (m, m * m, m + m, -m, m.scale(Fraction(2)), m.scale(0)):
        assert type(x.entry(0, 0)) is Fraction and x.entry(0, 0) == 0
    # the PoleError fallback builds its matrix again
    pole = {"q": -2, "p1": 2, "p2": 3, "p3": 5}
    x = parse_w("1/(q + 2)*t*a - 1/(q + 2)*a + a+")
    assert type(fock_matrix(x, 2, pole).matrix.entry(0, 0)) is Fraction
    symbolic = fock_matrix(g("a"), 4).matrix.entry(0, 0)
    assert type(symbolic) is sc.QScalar and symbolic == sc.ZERO


def _fock_check_matrices(mode, D, assignment=None):
    """The results of check_relations_on_fock(mode, D, assignment), the
    relations it checks, and every matrix it hands on or makes, as
    conftest.record_check_matrices records them."""
    with pytest.MonkeyPatch.context() as mp:
        relations, mats = record_check_matrices(mp)
        return check_relations_on_fock(mode, D, assignment), relations, mats


@pytest.mark.parametrize("assignment", [
    {"q": Fraction(-7, 3), "p1": 2, "p2": 3, "p3": 5},
    {"q": Fraction(97, 89), "p1": Fraction(101, 7), "p2": Fraction(13, 17),
     "p3": Fraction(-19, 23)},
])
def test_fock_numeric_relation_check_runs_over_z(assignment):
    for mode in ("trivial", "fermionic"):
        results, relations, mats = _fock_check_matrices(mode, 8, assignment)
        assert len(results) == len(relations) == 37 and all_passed(results)
        assert all(type(c) is int for rel in relations
                   for el in (rel.lhs, rel.rhs) for c in el.terms.values())
        for m in mats:
            assert all(type(v) is int for _, _, v in m.iter_entries())
            missing = m.entry(m.nrows - 1, 0)       # no word reaches it
            assert type(missing) is int and missing == 0


def test_fock_relation_check_clears_each_power_of_a_letter(monkeypatch):
    # no defining relation has a letter with |exponent| > 1, so these pin
    # the d_g^|e| of the word clearing: g^e and the |e| letters g^sign(e)
    # are different words with the same value.  K1's symbolic d_g is 1
    # (its coefficients p1 and p1 (q - 1) have no denominator), E21's is
    # (q^2 - 1)^2, so E21 pins the power on the symbolic field
    word = ua.UElement.word
    rels = [ua.Relation("%s^%d" % (g, e), "powers", word((g, e)),
                        word(*[(g, e // abs(e))] * abs(e)))
            for g, e in (("K1", 2), ("K1", -3), ("E21", 2))]
    monkeypatch.setattr(ua, "relation_set", lambda: rels)
    for assignment in (None, DEFAULT_ASSIGNMENT):
        results, cleared, _ = _fock_check_matrices("fermionic", 6, assignment)
        assert [r.name for r in results] == ["K1^2", "K1^-3", "E21^2"]
        assert all_passed(results)
        assert all(len(rel.lhs.terms) == 2 for rel in cleared)


def test_fock_numeric_evaluates_each_coefficient_and_boson_factor_once(
        monkeypatch):
    # evaluation first: once per monomial and once per (l, k, n), never
    # once per entry
    calls = []
    evaluate = sc.QScalar.evaluate

    def counting(self, **assignment):
        calls.append(None)
        return evaluate(self, **assignment)

    monkeypatch.setattr(sc.QScalar, "evaluate", counting)
    D = 16
    x = rho("E21", "fermionic")
    fock = fock_matrix(x, D, DEFAULT_ASSIGNMENT, (1, 2))
    boson_factors = {(mon.l, mon.k, n) for mon in x.terms
                     for n in range(mon.l, D)}
    assert len(calls) <= len(x.terms) + len(boson_factors)
    assert len(calls) < fock.matrix.nnz()


def test_fock_relation_check_skips_identity_products(monkeypatch):
    # each word starts from the identity; its first letter is the
    # generator's matrix itself, not a product with the identity, so the
    # 73 two-letter words take one fused product each (on the packed rows
    # of the cleared Laurent ring) and no other word takes one
    calls = []
    addmul = PackedRows._addmul

    def counting(self, a, b, c=None):
        calls.append(None)
        return addmul(self, a, b, c)

    monkeypatch.setattr(PackedRows, "_addmul", counting)
    results = check_relations_on_fock("fermionic", 16)
    assert all_passed(results)
    assert len(calls) == 73


@pytest.mark.parametrize("mode", ["trivial", "fermionic"])
def test_symbolic_fock_check_multiplies_only_laurent_entries(mode):
    # the symbolic route builds no QScalar entry: every A_g holds Laurent
    # polynomials, and every operand and sum of every product is their
    # packed rows with int coefficients, so no q^2 - 1 is ever cancelled
    results, _, mats = _fock_check_matrices(mode, 8)
    assert all_passed(results)
    assert_packed_laurent_check(mats, len(ua.GENERATORS))


@pytest.mark.parametrize("D", [4, 8, 16])
@pytest.mark.parametrize("mode", ["trivial", "fermionic"])
def test_packed_cleared_matrices_are_the_canonical_ones_times_d(mode, D):
    # the reference: the canonical QScalar matrix of fock_matrix times d_g,
    # cleared to Laurents with nothing left to clear; the packed A_g holds
    # the same nonzero entries, in its rows and in its rows by column
    modes = fock_modes(mode)
    for x in realization_map(mode).values():
        d, a = rz._cleared_matrix(x, D, modes)
        canonical = fock_matrix(x, D, modes=modes).matrix
        entries = list(canonical.iter_entries())
        lcm, values = sc.clear_denominators([v * d for _, _, v in entries])
        assert lcm == 1 and all(values)
        want = {(i, j): v.terms for (i, j, _), v in zip(entries, values)}
        assert {(i, j): v.terms for i, j, v in a.iter_entries()} == want
        assert {(i, j): dict(terms) for i, row in a._by_col.items()
                for j, terms in row} == want
        assert (a.nrows, a.ncols) == (canonical.nrows, canonical.ncols)
        assert a.nnz() == canonical.nnz()


def test_numeric_fock_check_clears_fractions_into_ints(monkeypatch):
    # each d_g is inverted as a Fraction, never as the float 1 / d_g: every
    # value the numeric route clears is a Fraction, every cleared word
    # coefficient and every d_g an int
    handed, scales, words = [], [], []
    clear, check = rz._clear_rationals, ua.check_relations

    def clearing(values):
        handed.extend(values)
        d, out = clear(values)
        scales.append(d)
        return d, out

    def checking(rels, gens, unit, cols=None):
        words.extend(c for rel in rels for el in (rel.lhs, rel.rhs)
                     for c in el.terms.values())
        return check(rels, gens, unit, cols)

    monkeypatch.setattr(rz, "_clear_rationals", clearing)
    monkeypatch.setattr(ua, "check_relations", checking)
    assert all_passed(check_relations_on_fock("fermionic", 8,
                                              DEFAULT_ASSIGNMENT))
    assert handed and all(type(v) is Fraction for v in handed)
    assert scales and all(type(d) is int for d in scales)
    assert words and all(type(c) is int for c in words)


def test_fock_relation_check_never_scales_by_one(monkeypatch):
    # every fused step gets the word's coefficient, None for 1; no product
    # and no scaled copy of a matrix is built, and scale only makes the
    # fresh zero each residual is summed into
    coeffs, scaled, products = [], [], []
    addmul, iadd, scale = QMatrix._addmul, QMatrix._iadd, QMatrix.scale
    mul = QMatrix.__mul__

    def multiplying(self, a, b, c=None):
        coeffs.append(c)
        return addmul(self, a, b, c)

    def adding(self, other, c=None):
        coeffs.append(c)
        return iadd(self, other, c)

    def scaling(self, c):
        scaled.append(c)
        return scale(self, c)

    def product(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(QMatrix, "_addmul", multiplying)
    monkeypatch.setattr(QMatrix, "_iadd", adding)
    monkeypatch.setattr(QMatrix, "scale", scaling)
    monkeypatch.setattr(QMatrix, "__mul__", product)
    assert all_passed(
        check_relations_on_fock("fermionic", 16, DEFAULT_ASSIGNMENT))
    assert [c for c in coeffs if c is not None]
    assert not [c for c in coeffs if c is not None and c == 1]
    assert None in coeffs
    assert scaled and not [c for c in scaled if c]
    assert not products


# -- relation checks on the Fock space ----------------------------------------

@pytest.mark.parametrize("mode", ["trivial", "fermionic"])
def test_fock_relations_symbolic(mode):
    results = check_relations_on_fock(mode, 6)
    assert all_passed(results)


def test_fock_relations_numeric():
    results = check_relations_on_fock("fermionic", 6, NUMERIC)
    assert all_passed(results)


def test_fock_relation_boundary_exclusions():
    D = 6
    shifts = relation_shifts("fermionic")
    assert max(shifts.values()) == 2
    assert shifts["E32^2 = 0"] == 2
    assert shifts["[E12, E32] = 0"] == 2
    assert shifts["E23^2 = 0"] == 0
    results = check_relations_on_fock("fermionic", D)
    for r in results:
        expected = shifts[r.name] * 4      # fermion space dimension 2^2
        assert r.detail == "%d boundary columns excluded" % expected


def test_fock_requires_concrete_mode_and_min_dim():
    with pytest.raises(ValueError):
        check_relations_on_fock("abstract", 6)
    with pytest.raises(ValueError):
        check_relations_on_fock("trivial", 3)


@pytest.mark.parametrize("mode", [["trivial"], {"fermionic": 1}])
def test_an_unhashable_mode_is_rejected_by_name(mode):
    with pytest.raises(ValueError, match="need a concrete subalgebra mode"):
        check_relations_on_fock(mode, 8)
    with pytest.raises(ValueError, match="unknown subalgebra mode"):
        realization_map(mode)


@pytest.mark.parametrize("mode", ["bogus", ["a"], "abstract"])
def test_fock_modes_refuses_a_mode_that_is_not_a_plug_in(mode):
    assert (fock_modes("trivial"), fock_modes("fermionic")) == ((1,), (1, 2))
    with pytest.raises(ValueError, match="need a concrete subalgebra mode"):
        fock_modes(mode)


def test_the_q_numbers_fill_receives_vanish_at_zero(monkeypatch):
    # [0] = q^0 - q^-0 = 0 in the canonical, numeric and Laurent rings: a
    # Laurent dict literal {q^m: 1, q^-m: -1} merges into -1 at m = 0
    q_numbers = []
    fill = rz._fill

    def spy(terms, D, modes, q_power, q_number):
        q_numbers.append(q_number)
        return fill(terms, D, modes, q_power, q_number)

    monkeypatch.setattr(rz, "_fill", spy)
    x = rho("E21", "fermionic")
    fock_matrix(x, 4)
    fock_matrix(x, 4, DEFAULT_ASSIGNMENT)
    rz._cleared_matrix(x, 4, (1, 2))
    assert len(q_numbers) == 3
    for q_number in q_numbers:
        zero = q_number(0)
        assert zero == 0 and not zero


@pytest.mark.parametrize("D", [4.0, 6.5, None])
def test_fock_check_rejects_a_non_integer_dimension(D):
    with pytest.raises(ValueError, match="Fock dimension must be an integer"):
        check_relations_on_fock("fermionic", D)


# -- Dyson substitution -------------------------------------------------------

def test_dyson_all_checks_pass():
    assert all_passed(dyson_check(6))


def test_dyson_reproduces_q_boson_matrices():
    results = {r.name: r for r in dyson_check(5)}
    assert results["a from [N+1]/(N+1) A matches the q-boson a"].passed
    assert results["[A, A+] = 1"].passed
    assert results["q^x a+ q^-x = q a+"].passed


def test_dyson_minimum_dimension():
    with pytest.raises(ValueError):
        dyson_check(3)


@pytest.mark.parametrize("D", [4.0, 6.5, None])
def test_dyson_rejects_a_non_integer_dimension(D):
    with pytest.raises(ValueError, match="Fock dimension must be an integer"):
        dyson_check(D)


def test_image_of_uelement_consistency():
    rel = next(r for r in relation_set() if r.family == "cartan-commutator")
    diff = image_of_uelement(rel.lhs) - image_of_uelement(rel.rhs)
    assert not diff


# -- straightening rules validated through the realization --------------------
# The rewriting engine and the normal-ordering engine are independent code
# paths; mapping both sides of each straightening identity through rho and
# comparing in W cross-validates the rule tables (including the E32/E23 rule,
# which the module action never exercises).

def _word_image(letters):
    out = one()
    for nm, e in letters:
        base = rho(nm) if e > 0 else rho(nm + "inv")
        for _ in range(abs(e)):
            out = w_mul(out, base)
    return out


def _straighten_image(g, N, M):
    from qgl21.superalgebra import straighten
    total = WElement.zero()
    for term in straighten(g, N, M):
        el = _word_image((("E12", 1),) * term.n + (("E13", 1),) * term.m
                         + term.a0word)
        total = total + el.scale(term.coeff)
    return total


@pytest.mark.parametrize("g", ["E13", "E23", "E21", "E31", "E32",
                               "K1", "K2inv", "K3"])
def test_straightening_consistent_with_realization(g):
    for N in range(4):
        for M in (0, 1):
            lhs = _word_image(((g.replace("inv", ""),
                                -1 if g.endswith("inv") else 1),)
                              + (("E12", 1),) * N + (("E13", 1),) * M)
            assert lhs == _straighten_image(g, N, M), (g, N, M)


def test_e32_e23_rule_consistent_with_realization():
    from qgl21.superalgebra import normalize_word
    import qgl21.scalars as sc_
    for n in (1, 2, 3):
        word = (("E32", 1),) + (("E23", 1),) * n
        normal = normalize_word(sc_.ONE, word, bases=("E23",))
        lhs = _word_image(word)
        rhs = WElement.zero()
        for w, c in normal.items():
            rhs = rhs + _word_image(w).scale(c)
        assert lhs == rhs, n


def test_realization_map_caching():
    assert realization_map("trivial") is realization_map("trivial")
    assert realization_map() is realization_map("abstract")
    with pytest.raises(ValueError):
        realization_map("dyson")


def test_words_outside_the_generators_are_value_errors():
    fermionic = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    with pytest.raises(ValueError, match="unknown generator 'E99'"):
        image_of_uelement(ua.UElement.word(("E99", 1)))
    with pytest.raises(ValueError, match="unknown generator 'E12inv'"):
        image_of_uelement(ua.UElement({(("E12", -1),): sc.ONE}))
    for route in (image_of_uelement,
                  lambda el: ind.apply_uelement(
                      el, ind.InducedVector.basis_state(0, 0), fermionic)):
        with pytest.raises(ValueError, match="not an int"):
            route(ua.UElement.word(("K1", 1.5)))
