import random
from fractions import Fraction

import pytest

import qgl21.scalars as sc
from conftest import substitute_monomial
from qgl21.qmatrix import QMatrix
from qgl21.realization import (
    GENERATOR_IMAGE_NAMES, check_relations_on_fock, dyson_check, fock_matrix,
    image_of_uelement, realization_map, relation_shifts, rho,
    verify_realization,
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
            assert w_mul(rho(name, mode), rho(name, mode)).is_zero()


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
            projected = projected + WElement.from_monomial(
                mon, substitute_monomial(c, "p3", (0, 0, -1, 0)))
        assert projected == rho(name, "trivial"), name


# -- Fock rendering -----------------------------------------------------------

def test_fock_matrix_of_annihilator():
    fm = fock_matrix(g("a"), 3)
    assert fm.dim == 3
    assert fm.entry(0, 1) == sc.q_integer(1)
    assert fm.entry(1, 2) == sc.q_integer(2)
    assert fm.matrix.nnz() == 2


def test_fock_matrix_of_t_is_diagonal():
    fm = fock_matrix(g("t"), 3)
    for n in range(3):
        assert fm.entry(n, n) == sc.q_power(n)
    assert fm.matrix.nnz() == 3


def test_fock_matrix_of_creator_truncates():
    fm = fock_matrix(g("a+"), 4)
    assert fm.entry(3, 2) == sc.ONE
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


def test_fock_matrix_rejects_abstract_factors():
    with pytest.raises(ValueError):
        fock_matrix(g("e23"), 4)
    with pytest.raises(ValueError):
        fock_matrix(rho("K2", "abstract"), 4)


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
])
def test_fock_matrix_rejects_bad_assignment_by_name(assignment, name):
    with pytest.raises(ValueError, match=r"\b%s\b" % name):
        fock_matrix(g("a"), 4, assignment=assignment)


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


def test_image_of_uelement_consistency():
    rel = next(r for r in relation_set() if r.family == "cartan-commutator")
    diff = image_of_uelement(rel.lhs) - image_of_uelement(rel.rhs)
    assert diff.is_zero()


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
    assert realization_map().mode == "abstract"
    with pytest.raises(ValueError):
        realization_map("dyson")
