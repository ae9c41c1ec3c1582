"""Every verification route can fail: a corrupted generator image or
representation matrix must show up as nonzero residuals on the relations
it breaks, so a route that passes vacuously would be caught here."""

import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

import qgl21.scalars as sc
from qgl21 import cli
from qgl21 import induced as ind
from qgl21 import realization as rz
from qgl21 import superalgebra as ua
from qgl21 import walgebra as wa
from qgl21.qmatrix import PackedRows, QMatrix
from conftest import RESCALING_PROBE, assert_canonical, rescaled_branches

ABSTRACT_IMAGES_GOLDEN = Path(__file__).parent / "data" \
    / "abstract_images_golden.json"


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
# QMatrix._addmul, or by PackedRows._addmul on the cleared Laurent ring; the
# mutant multiplies only the first entry of each row of M_g by c, in M_g's
# row order.  The K scaling relations of E21, E23 and E32, the commutators
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

    packed_addmul = PackedRows._addmul

    def packed_mutant(self, a, b, c=None):
        rows = a._by_col
        packed_addmul(self, PackedRows(a.nrows, a.ncols, None, {
            i: r[:1] for i, r in rows.items()}), b, c)
        return packed_addmul(self, PackedRows(a.nrows, a.ncols, None, {
            i: r[1:] for i, r in rows.items() if r[1:]}), b)

    monkeypatch.setattr(QMatrix, "_addmul", mutant)
    monkeypatch.setattr(PackedRows, "_addmul", packed_mutant)


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


def _e12_by_two(patch_branches):
    branches = ind._branches

    def e12_by_two(g, M):
        if g == "E12":
            return [(2, M, sc.ONE, 0, 0, (), ())]
        return branches(g, M)

    patch_branches(e12_by_two)


def test_module_truncation_hides_no_fault(patch_branches):
    # the faulty E12 raises N by two, so its words leave the states N <= nmax
    # that the module check builds; the residuals must all still show
    _e12_by_two(patch_branches)
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    results = ind.check_relations_on_module(rep, 4)
    assert {r.name: r.residuals for r in results if not r.passed} \
        == E12_BY_TWO_BREAKS


# -- the cleared module route counts what a plain QScalar check counts ----------

def _plain_module_counts(rep, nmax):
    """The residual counts of the module check with no clearing: the
    QScalar matrices of ind.act on the states N <= nmax, checked on the
    states N <= nmax - 2, as check_relations_on_module builds them."""
    states = [(N, M, i) for N in range(nmax + 1) for M in (0, 1)
              for i in range(rep.dim)]
    index = {state: k for k, state in enumerate(states)}
    mats = {g: QMatrix.from_entries(len(states), len(states), [
        (index[target], col, c) for col, state in enumerate(states)
        for target, c in ind.act(g, ind.InducedVector.basis_state(*state),
                                 rep).terms.items() if target in index])
        for g in ind.ACT_GENERATORS}
    checked = range(2 * rep.dim * (nmax - 1))
    return {r.name: r.residuals for r in ua.check_relations(
        ua.relation_set(), mats, QMatrix.identity(len(states)),
        lambda rel: checked)}


@pytest.mark.parametrize("corrupt", ["doubled_k2", "first_entries_only",
                                     "e12_by_two"])
def test_module_clearing_keeps_the_residual_counts(monkeypatch,
                                                  patch_branches, corrupt):
    # the module check multiplies the cleared Laurent matrices A_g with the
    # cleared words; every count must be that of the QScalar matrices
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    if corrupt == "doubled_k2":
        rep = _doubled_k2_rep()
    elif corrupt == "first_entries_only":
        _c_on_first_entries_only(monkeypatch)
    else:
        _e12_by_two(patch_branches)
    counts = {r.name: r.residuals
              for r in ind.check_relations_on_module(rep, 4)}
    assert any(counts.values())
    assert counts == _plain_module_counts(rep, 4)


# -- the E31 action with its Cartan term doubled ------------------------------------

DOUBLED_CARTAN_BREAKS = {
    "trivial": {"E21 E31 = q E31 E21": 2, "E31 = -E21 E32 + q^-1 E32 E21": 3},
    "fermionic": {"E21 E31 = q E31 E21": 4,
                  "E31 = -E21 E32 + q^-1 E32 E21": 6},
}


def _branches_from_source(line, replacement):
    """A mutant of induced._branches, made from its source with its one
    line `line` replaced."""
    source = inspect.getsource(ind._branches)
    assert source.count(line) == 1
    namespace = dict(vars(ind))
    exec(compile(source.replace(line, replacement), ind.__file__, "exec"),
         namespace)
    return namespace["_branches"]


def _grid_mismatches(rep, levels):
    """The (g, N, M, i) of the states N < levels where act and act_oracle
    disagree."""
    return {(g, N, M, i) for g in ind.ACT_GENERATORS for N in range(levels)
            for M in (0, 1) for i in range(rep.dim)
            if ind.act(g, ind.InducedVector.basis_state(N, M, i), rep)
            != ind.act_oracle(g, ind.InducedVector.basis_state(N, M, i), rep)}


def test_module_route_and_grid_catch_a_doubled_e31_cartan_term(
        patch_branches):
    # a mutant of one branch of act, made from its source: only E31 on the
    # states with M = 1 changes, so act_oracle disagrees there alone
    patch_branches(_branches_from_source("cartan = eps_inv",
                                         "cartan = eps_inv + eps_inv"))
    for label, gl11 in (("trivial", ind.trivial_gl11_rep()),
                        ("fermionic", ind.fermionic_gl11_rep())):
        rep = ind.highest_weight_a0rep(gl11)
        results = ind.check_relations_on_module(rep, 4)
        assert {r.name: r.residuals for r in results if not r.passed} \
            == DOUBLED_CARTAN_BREAKS[label]
        assert _grid_mismatches(rep, 4) == {("E31", N, 1, i) for N in range(4)
                                            for i in range(rep.dim)}


def test_module_clearing_keeps_the_counts_of_a_rep_with_a_halved_k2():
    # the A0 columns then have denominators with an integer content, which
    # the module route clears into d_g, so its Laurents stay over Z
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    half = sc.QScalar.from_rational(Fraction(1, 2))
    rep = rep._replace(mats=dict(rep.mats, K2=rep.mats["K2"].scale(half)))
    counts = {r.name: r.residuals
              for r in ind.check_relations_on_module(rep, 4)}
    assert any(counts.values())
    assert counts == _plain_module_counts(rep, 4)
    coefficients = [type(k) for _, a in ind._cleared_module(rep, 4).values()
                    for _, _, v in a.iter_entries() for k in v.terms.values()]
    assert coefficients and set(coefficients) == {int}


# -- the E21 action with its q-number's argument shifted by one --------------------

SHIFTED_E21_BREAKS = {
    "trivial": {"[E21, E23] = 0": 1,
                "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)": 6,
                "E31 = -E21 E32 + q^-1 E32 E21": 3},
    "fermionic": {"[E21, E23] = 0": 6,
                  "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)": 12,
                  "E21 E31 = q E31 E21": 6,
                  "E31 = -E21 E32 + q^-1 E32 E21": 10},
}


def test_module_route_and_grid_catch_a_shifted_e21_q_number(patch_branches):
    # [N] read as [N + 1] in the E21 branch of act, made from its source:
    # the module route evaluates that branch in the Laurent ring, the grid
    # in QScalars, and both see the fault, at E21 on the states N > 0 only
    # (at N = 0 the branch's target lies below level 0, so both skip it)
    patch_branches(_branches_from_source("base = (0,)", "base = (1,)"))
    for label, gl11 in (("trivial", ind.trivial_gl11_rep()),
                        ("fermionic", ind.fermionic_gl11_rep())):
        rep = ind.highest_weight_a0rep(gl11)
        counts = {r.name: r.residuals
                  for r in ind.check_relations_on_module(rep, 4)}
        assert {name: n for name, n in counts.items() if n} \
            == SHIFTED_E21_BREAKS[label]
        assert counts == _plain_module_counts(rep, 4)
        assert _grid_mismatches(rep, 4) == {
            ("E21", N, M, i) for N in range(1, 4) for M in (0, 1)
            for i in range(rep.dim)}


# -- the branch table in W: the abstract images are module_image's ----------------

# a table mutant changes the images derived from the table, so the W route
# sees it as failing relations, each with its residual count in W
TABLE_MUTANT_BREAKS = {
    "E21 lowering times an extra [N + 1]": (("base = (0,)", "base = (0, 1)"), {
        "[E21, E23] = 0": 7,
        "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)": 16,
        "E21 E31 = q E31 E21": 12,
        "E31 = -E21 E32 + q^-1 E32 E21": 14}),
    "E31 Cartan term doubled": (
        ("cartan = eps_inv", "cartan = eps_inv + eps_inv"), {
            "E21 E31 = q E31 E21": 2, "E31 = -E21 E32 + q^-1 E32 E21": 2}),
    "E23 lowering sign flipped": (
        ("lower = [(-1, 1, -one,", "lower = [(-1, 1, one,"), {
            "[E21, E23] = 0": 1, CARTAN_23: 4,
            "E13 = E12 E23 - q^-1 E23 E12": 1}),
    "E12 doubled": (
        ("return [(1, M, one,", "return [(1, M, one + one,"), {
            "[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)": 4,
            "E13 = E12 E23 - q^-1 E23 E12": 1}),
}


@pytest.mark.parametrize("mutant", sorted(TABLE_MUTANT_BREAKS))
def test_w_route_catches_a_table_mutant(patch_branches, mutant):
    (line, replacement), breaks = TABLE_MUTANT_BREAKS[mutant]
    patch_branches(_branches_from_source(line, replacement))
    assert {r.name: r.residuals for r in rz.verify_realization("abstract")
            if not r.passed} == breaks


def test_only_the_grid_catches_the_rescaling_probe_on_the_table(
        patch_branches):
    # the probe keeps every relation, in W and on the module: the W route
    # and the module route pass, and the act == act_oracle grid, which ties
    # the table to the straightening, is the link that sees it, on exactly
    # the four rescaled generators (test_induced's level-0 check sees it too)
    patch_branches(rescaled_branches(RESCALING_PROBE))
    assert not _failed(rz.verify_realization("abstract"))
    for gl11 in (ind.trivial_gl11_rep(), ind.fermionic_gl11_rep()):
        rep = ind.highest_weight_a0rep(gl11)
        assert not _failed(ind.check_relations_on_module(rep, 4))
        assert {g for g, *_ in _grid_mismatches(rep, 2)} \
            == set(RESCALING_PROBE)


def test_a_table_mutant_is_undone_after_the_test():
    golden = json.loads(ABSTRACT_IMAGES_GOLDEN.read_text())
    assert {g: wa.render_element(rz.rho(g)) for g in ua.GENERATORS} == golden


# -- the Dyson factor [N+1]/(N+1) read as [N+1]/(N+2) ------------------------------

DYSON_FACTOR_BREAKS = {
    "a from [N+1]/(N+1) A matches the q-boson a": 5,
    "a a+ - q^-1 a+ a = q^x": 5,
    "a a+ - q a+ a = q^-x": 5,
}


def test_dyson_check_catches_a_shifted_factor_denominator():
    # a mutant of dyson_check, made from its source: the Dyson a then misses
    # the q-boson a on each of its D - 1 = 5 nonzero entries, and the two
    # q-boson relations that contain a fail with 5 residuals each
    line = "QScalar.from_rational(n + 1)"
    source = inspect.getsource(rz.dyson_check)
    assert source.count(line) == 1
    namespace = dict(vars(rz))
    exec(compile(source.replace(line, "QScalar.from_rational(n + 2)"),
                 rz.__file__, "exec"), namespace)
    assert {r.name: r.residuals for r in namespace["dyson_check"](6)
            if not r.passed} == DYSON_FACTOR_BREAKS
    assert not _failed(rz.dyson_check(6))


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
