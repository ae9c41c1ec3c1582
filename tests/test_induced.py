import re
from fractions import Fraction

import pytest

import qgl21.scalars as sc
from conftest import (
    RESCALING_PROBE, assert_packed_laurent_check, record_check_matrices,
    rescaled_branches,
)
from qgl21 import induced
from qgl21 import realization as rz
from qgl21 import superalgebra as ua
from qgl21.induced import (
    ACT_GENERATORS, A0Rep, Gl11Rep, InducedVector, RepresentationError,
    act, act_oracle, apply_uelement, check_relations_on_module,
    fermionic_gl11_rep, highest_weight_a0rep, trivial_gl11_rep,
    validate_a0rep, validate_gl11_rep,
)
from qgl21.qmatrix import PackedRows, QMatrix
from qgl21.superalgebra import UElement, relation_set
from qgl21.reporting import all_passed

state = InducedVector.basis_state


@pytest.fixture(scope="module")
def trivial_rep():
    return highest_weight_a0rep(trivial_gl11_rep())


@pytest.fixture(scope="module")
def fermionic_rep():
    return highest_weight_a0rep(fermionic_gl11_rep())


def test_gl11_plugins_satisfy_their_relations():
    assert all_passed(validate_gl11_rep(trivial_gl11_rep()))
    assert all_passed(validate_gl11_rep(fermionic_gl11_rep()))


def test_highest_weight_structure(trivial_rep, fermionic_rep):
    for rep in (trivial_rep, fermionic_rep):
        assert rep.mats["E21"].nnz() == 0
        assert rep.mats["K1"] == QMatrix.identity(rep.dim, sc.P1)
        # E31 = -E21 E32 + q^-1 E32 E21 vanishes automatically
        assert rep.mat("E31").nnz() == 0
    assert trivial_rep.dim == 1
    assert fermionic_rep.dim == 2


def test_a0rep_validation_passes(trivial_rep, fermionic_rep):
    assert all_passed(validate_a0rep(trivial_rep))
    assert all_passed(validate_a0rep(fermionic_rep))


def test_corrupted_rep_is_detected():
    base = fermionic_gl11_rep()
    mats = dict(base.mats)
    mats["k2"] = mats["k2"].scale(sc.Q)
    bad = Gl11Rep(dim=2, mats=mats, parity=base.parity)
    report = {r.name: r.passed for r in validate_gl11_rep(bad)}
    assert not report["K2 K2^-1 = 1"]
    assert not report["{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)"]
    assert report["K2 E23 = q^+1 E23 K2"]   # a global scale cancels here
    with pytest.raises(RepresentationError):
        highest_weight_a0rep(bad)


def test_corrupted_a0rep_reports_relations(fermionic_rep):
    mats = dict(fermionic_rep.mats)
    mats["K2"] = mats["K2"].scale(sc.Q)
    bad = A0Rep(dim=2, mats=mats, parity=fermionic_rep.parity)
    names = [r.name for r in validate_a0rep(bad) if not r.passed]
    assert any("K2 K2^-1" in n for n in names)
    assert any("E23, E32" in n for n in names)


def _without(rep, *names):
    return rep._replace(mats={nm: m for nm, m in rep.mats.items()
                              if nm not in names})


GL11_USES = [validate_gl11_rep, highest_weight_a0rep]
# E12's and E13's words are empty, so act must check the rep itself
A0_USES = [validate_a0rep,
           lambda r: act("K2", state(0, 0, 0), r),
           lambda r: act("E12", state(0, 0, 0), r),
           lambda r: act_oracle("K2", state(0, 0, 0), r),
           lambda r: check_relations_on_module(r, 2)]
# only an A0Rep has mat
A0REP_USES = A0_USES + [lambda r: r.mat("K2")]

MALFORMED = {
    "short parity": (fermionic_gl11_rep()._replace(parity=(0,)), "parity",
                     GL11_USES),
    "no k3": (_without(fermionic_gl11_rep(), "k3", "k3inv"), "k3",
              GL11_USES),
    "no e32": (_without(fermionic_gl11_rep(), "e32"), "e32", GL11_USES),
    "no A0 matrices": (A0Rep(dim=1, mats={}, parity=(0,)), "E21",
                       A0REP_USES),
    "3 x 3 E23": (A0Rep(dim=2, mats=dict(
        highest_weight_a0rep(fermionic_gl11_rep()).mats,
        E23=QMatrix.zero(3)), parity=(0, 1)), "E23 is not a 2 x 2",
        A0REP_USES),
    "gl(1/1) rep as an A0Rep": (fermionic_gl11_rep(),
                                "not an A0Rep: highest_weight_a0rep",
                                A0_USES),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_reps_are_refused_before_any_relation(case):
    # a rep with missing matrices, a matrix of the wrong shape or a short
    # parity, or a rep of the wrong type, is refused by name, by every
    # consumer of the type it is passed as
    rep, problem, uses = MALFORMED[case]
    for use in uses:
        with pytest.raises(RepresentationError, match=problem):
            use(rep)


# -- closed-form action -------------------------------------------------------

def test_act_e12_raises(fermionic_rep):
    assert act("E12", state(2, 1, 1), fermionic_rep) == state(3, 1, 1)


def test_act_k2_scaling(fermionic_rep):
    out = act("K2", state(3, 0, 0), fermionic_rep)
    assert out == state(3, 0, 0, coeff=sc.q_power(-3) * sc.P2)


def test_act_e23_at_origin(trivial_rep, fermionic_rep):
    # the -q[N] term vanishes at N = 0
    assert not act("E23", state(0, 0, 0), trivial_rep)
    out = act("E23", state(0, 0, 0), fermionic_rep)
    assert out == state(0, 0, 1)


def test_act_e32_at_m_zero(fermionic_rep):
    # the M-lowering term vanishes at M = 0
    out = act("E32", state(4, 0, 1), fermionic_rep)
    lam = (sc.P2 * sc.P3 - (sc.P2 * sc.P3).invert()) * sc.EPS_INV
    assert out == state(4, 0, 0, coeff=lam)


def test_act_e13_nilpotent(fermionic_rep):
    assert act("E13", state(2, 0, 0), fermionic_rep) == \
        state(2, 1, 0, coeff=sc.q_power(-2))
    assert not act("E13", state(2, 1, 0), fermionic_rep)


def test_act_oracle_e21_matches_theorem_at_n1(trivial_rep):
    out = act_oracle("E21", state(1, 0, 0), trivial_rep)
    coeff = -(sc.EPS_INV) * (sc.P1 * sc.P2.invert() - sc.P1.invert() * sc.P2)
    assert out == state(0, 0, 0, coeff=coeff)
    assert out == act("E21", state(1, 0, 0), trivial_rep)


@pytest.mark.parametrize("g", ACT_GENERATORS)
def test_act_matches_oracle(g, trivial_rep, fermionic_rep):
    outside_factor = highest_weight_a0rep(_outside_factor_rep())
    for rep in (trivial_rep, fermionic_rep, outside_factor):
        for N in range(4):
            for M in (0, 1):
                for i in range(rep.dim):
                    v = state(N, M, i)
                    assert act(g, v, rep) == act_oracle(g, v, rep)


def test_act_matches_single_swap_oracle(fermionic_rep, monkeypatch):
    monkeypatch.setattr(ua, "straighten", ua.oracle_straighten)
    for g in ("E21", "E31", "E23"):
        v = state(2, 1, 0)
        assert act(g, v, fermionic_rep) == act_oracle(g, v, fermionic_rep)


def test_linearity(fermionic_rep):
    v = state(1, 0, 0).scale(sc.Q) + state(2, 1, 1)
    direct = act("E21", v, fermionic_rep)
    split = act("E21", state(1, 0, 0), fermionic_rep).scale(sc.Q) \
        + act("E21", state(2, 1, 1), fermionic_rep)
    assert direct == split


# -- relations on the module --------------------------------------------------

def test_module_relations_trivial(trivial_rep):
    assert all_passed(check_relations_on_module(trivial_rep, 6))


def test_module_relations_fermionic_small(fermionic_rep):
    assert all_passed(check_relations_on_module(fermionic_rep, 4))


def test_cartan_anticommutator_instance(fermionic_rep):
    rel = next(r for r in relation_set() if "E23, E32" in r.name)
    for N, M, i in ((0, 0, 0), (2, 1, 1), (3, 0, 1)):
        v = state(N, M, i)
        lhs = apply_uelement(rel.lhs, v, fermionic_rep)
        rhs = apply_uelement(rel.rhs, v, fermionic_rep)
        assert lhs == rhs


def test_odd_squares_annihilate(fermionic_rep):
    sq = UElement.word(("E23", 1), ("E23", 1))
    for N, M in ((0, 0), (1, 1), (3, 0)):
        assert not apply_uelement(sq, state(N, M, 0), fermionic_rep)


def test_weight_consistency(trivial_rep, fermionic_rep):
    # K1 K2 K3 scales |N,M> (x) v independently of N and M
    word = UElement.word(("K1", 1), ("K2", 1), ("K3", 1))
    out = apply_uelement(word, state(0, 0, 0), trivial_rep)
    assert out == state(0, 0, 0, coeff=sc.P1)
    for N, M in ((1, 0), (3, 1), (5, 0)):
        out = apply_uelement(word, state(N, M, 0), trivial_rep)
        assert out == state(N, M, 0, coeff=sc.P1)
    eig = {}
    for i in (0, 1):
        base = apply_uelement(word, state(0, 0, i), fermionic_rep)
        eig[i] = base.terms[(0, 0, i)]
        for N, M in ((2, 1), (4, 0)):
            out = apply_uelement(word, state(N, M, i), fermionic_rep)
            assert out == state(N, M, i, coeff=eig[i])


@pytest.mark.parametrize("gl11", [trivial_gl11_rep, fermionic_gl11_rep])
def test_module_check_multiplies_only_laurent_entries(gl11, monkeypatch):
    # as on the symbolic Fock route, the module route builds no QScalar
    # entry: every A_g holds Laurent polynomials, a missing entry reads as
    # the Laurent zero, and every operand and sum of every fused step, the
    # unit included, is packed rows with int coefficients
    rep = highest_weight_a0rep(gl11())
    assert "E31" in rep._mats       # its QScalar product is taken here
    _, mats = record_check_matrices(monkeypatch)
    assert all_passed(check_relations_on_module(rep, 4))
    assert_packed_laurent_check(mats, len(ACT_GENERATORS))


@pytest.mark.parametrize("mode", ["fermionic", "trivial"])
@pytest.mark.parametrize("route", ["fock", "module"])
def test_each_generator_matrix_is_built_once(route, mode, monkeypatch):
    # check_relations_on_fock(mode, 16) and check_relations_on_module(rep,
    # 12) build every A_g and the unit once, straight into PackedRows, and
    # hand those very matrices to check_relations: no QMatrix of Laurents
    # is made and no matrix is converted on the way
    built, laurent, handed = [], [], []
    from_entries = PackedRows.from_entries.__func__
    init, check = QMatrix.__init__, ua.check_relations

    def building(cls, *args):
        built.append(from_entries(cls, *args))
        return built[-1]

    def making(self, nrows, ncols, rows=None, zero=sc.ZERO):
        init(self, nrows, ncols, rows, zero)
        if isinstance(zero, sc.Laurent):
            laurent.append(self)

    def checking(rels, gens, unit, cols=None):
        if type(unit) is PackedRows:    # not the A0 checks of the rep
            handed.extend((*gens.values(), unit))
        return check(rels, gens, unit, cols)

    monkeypatch.setattr(PackedRows, "from_entries", classmethod(building))
    monkeypatch.setattr(QMatrix, "__init__", making)
    monkeypatch.setattr(ua, "check_relations", checking)
    if route == "fock":
        results = rz.check_relations_on_fock(mode, 16)
    else:
        rep = highest_weight_a0rep(GL11_REPS[mode]())
        results = check_relations_on_module(rep, 12)
    assert len(results) == 37 and all_passed(results)
    assert not laurent
    assert len(built) == len(ACT_GENERATORS) + 1
    assert [id(m) for m in handed] == [id(m) for m in built]


def test_check_relations_rejects_small_nmax(trivial_rep):
    with pytest.raises(ValueError):
        check_relations_on_module(trivial_rep, 1)


@pytest.mark.parametrize("nmax", [3.5, 4.0, None])
def test_check_relations_rejects_a_non_integer_nmax(trivial_rep, nmax):
    with pytest.raises(ValueError, match="nmax must be an integer"):
        check_relations_on_module(trivial_rep, nmax)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        InducedVector.basis_state(-1, 0)
    with pytest.raises(ValueError):
        InducedVector.basis_state(0, 2)


@pytest.mark.parametrize("N, idx", [(1.5, 0), (0, 0.5), (0, -1), ("1", 0)])
def test_basis_state_requires_integer_level_and_index(N, idx):
    with pytest.raises(ValueError):
        InducedVector.basis_state(N, 0, idx)


@pytest.mark.parametrize("route", [act, act_oracle])
def test_act_rejects_an_index_outside_the_representation(route,
                                                         fermionic_rep):
    with pytest.raises(ValueError, match="index 2"):
        route("K1", state(0, 0, 2), fermionic_rep)
    with pytest.raises(ValueError, match="index 2"):
        route("E12", state(0, 0, 0) + state(3, 1, 2), fermionic_rep)


@pytest.mark.parametrize("route", [act, act_oracle])
@pytest.mark.parametrize("N, M", [(0.5, 0), (-1, 0), (0, 2), (1, -1)])
def test_act_rejects_a_term_outside_the_basis(route, fermionic_rep, N, M):
    # basis_state refuses these, so build the vector by hand
    x = InducedVector({(N, M, 0): sc.ONE})
    with pytest.raises(ValueError,
                       match=r"invalid basis state \(%s, %s\)" % (N, M)):
        route("E12", x, fermionic_rep)


@pytest.mark.parametrize("route", [act, act_oracle])
def test_act_rejects_a_non_integer_index(route, fermionic_rep):
    with pytest.raises(ValueError, match="index 0.5"):
        route("K2", InducedVector({(0, 0, 0.5): sc.ONE}), fermionic_rep)


@pytest.mark.parametrize("route", [act, act_oracle])
def test_act_rejects_a_negative_index(route, fermionic_rep):
    # basis_state refuses idx < 0, so build the vector by hand
    with pytest.raises(ValueError, match="index -1"):
        route("K2", InducedVector({(0, 0, -1): sc.ONE}), fermionic_rep)


def test_a0rep_power_zero_is_the_identity(fermionic_rep):
    for name in ("K2", "E32", "E31"):
        assert fermionic_rep.mat(name, 0) \
            == QMatrix.identity(fermionic_rep.dim)


def test_a0rep_powers_share_the_letter_matrices(fermionic_rep):
    rep = fermionic_rep
    assert rep.mat("K2", 1) is rep._mats["K2"]
    assert rep.mat("K2", -1) is rep._mats["K2inv"]
    k3 = rep._mats["K3"]
    assert rep.mat("K3", 5) == k3 * k3 * k3 * k3 * k3
    assert rep.mat("K3", -2) == rep._mats["K3inv"] * rep._mats["K3inv"]


def test_e31_is_built_once_per_rep(monkeypatch):
    rep = highest_weight_a0rep(fermionic_gl11_rep())
    products = []
    mul = QMatrix.__mul__

    def counting(a, b):
        products.append(None)
        return mul(a, b)

    monkeypatch.setattr(QMatrix, "__mul__", counting)
    e31 = rep.mat("E31")
    # the two products of E31 = -E21 E32 + q^-1 E32 E21
    assert len(products) == 2
    assert rep.mat("E31") is e31
    assert len(products) == 2


def test_module_check_reads_the_branch_table_once_per_generator_and_m(
        patch_branches):
    rep = highest_weight_a0rep(fermionic_gl11_rep())
    calls = []
    branches = induced._branches

    def counting(g, M):
        calls.append(g)
        return branches(g, M)

    patch_branches(counting)
    assert all_passed(check_relations_on_module(rep, 6))
    # 12 generators x 2 values of M: a branch depends on neither the level
    # N nor the index in V
    assert len(calls) == 24


def _unsound_branches(branches):
    """The (g, M) of the table branches whose ks is neither () nor (0,), or
    with a lowering branch (dn = -1) that does not carry [N]."""
    return {(g, M) for g in ACT_GENERATORS for M in (0, 1)
            for dn, _m, _c, _a, _b, ks, _w in branches(g, M)
            if ks not in ((), (0,)) or (dn == -1 and ks != (0,))}


def test_the_branch_table_drops_only_targets_of_amplitude_zero():
    # act and _cleared_module skip a target below level 0; that is sound
    # exactly when every lowering branch carries [N], which is [0] = 0 there
    assert not _unsound_branches(induced._branches)

    def e21_without_its_q_number(g, M):
        return [(dn, m, c, a, b, () if g == "E21" else ks, w)
                for dn, m, c, a, b, ks, w in induced._branches(g, M)]

    assert _unsound_branches(e21_without_its_q_number) \
        == {("E21", 0), ("E21", 1)}


# -- the module route builds the Fock route's cleared matrices ----------------

GL11_REPS = {"trivial": trivial_gl11_rep, "fermionic": fermionic_gl11_rep}


def _outside_factor_rep(factor=sc.Q + 2):
    """The fermionic plug-in with e32 over factor and e23 times it: valid,
    with a denominator factor outside q, q - 1 and q + 1."""
    rep = fermionic_gl11_rep()
    mats = rep.mats
    return rep._replace(mats=dict(mats, e32=mats["e32"].scale(factor.invert()),
                                  e23=mats["e23"].scale(factor)))


MODULE_REPS = dict(GL11_REPS, **{"outside-factor": _outside_factor_rep})


def _fock_mismatches(mode, images):
    """The generators g whose cleared module matrix at nmax 7, A_mod / d_mod,
    is not the cleared Fock matrix of images[g] at D = 8, A_fock / d_fock:
    A_mod d_fock != A_fock d_mod, entry for entry over Q(q, p)."""
    module = induced._cleared_module(highest_weight_a0rep(GL11_REPS[mode]()),
                                     7)

    def times(a, d):
        return {(i, j): sc.QScalar(v.monomials()) * d
                for i, j, v in a.iter_entries()}

    mismatches = set()
    for g in ACT_GENERATORS:
        d_mod, a_mod = module[g]
        d_fock, a_fock = rz._cleared_matrix(images[g], 8, rz.fock_modes(mode))
        if times(a_mod, d_fock) != times(a_fock, d_mod):
            mismatches.add(g)
    return mismatches


@pytest.mark.parametrize("mode", sorted(GL11_REPS))
def test_module_and_fock_routes_build_the_same_matrices(mode):
    assert not _fock_mismatches(mode, rz.realization_map(mode))
    # both routes clear by one rule, so (d_g, A_g) are the same values:
    # the same d_g and the same nonzero packed entries
    images = rz.realization_map(mode)
    modes = rz.fock_modes(mode)
    rep = highest_weight_a0rep(GL11_REPS[mode]())
    for nmax in (2, 7, 12):
        module = induced._cleared_module(rep, nmax)
        for g in ACT_GENERATORS:
            assert module[g] == rz._cleared_matrix(images[g], nmax + 1, modes)


@pytest.mark.parametrize("mode", sorted(MODULE_REPS))
def test_act_and_the_module_route_evaluate_the_same_branches(mode):
    # act and _cleared_module read _branches apart, in QScalars and in the
    # Laurent ring: d_g times act's column is A_g's, entry for entry; the
    # reference of the 1/(q + 2) rep, which has no Fock route
    rep = highest_weight_a0rep(MODULE_REPS[mode]())
    for nmax in (2, 7, 12):
        states = [(N, M, i) for N in range(nmax + 1) for M in (0, 1)
                  for i in range(rep.dim)]
        index = {s: k for k, s in enumerate(states)}
        module = induced._cleared_module(rep, nmax)
        for g in ACT_GENERATORS:
            d, a = module[g]
            by_act = {(index[t], col): v * d for col, s in enumerate(states)
                      for t, v in act(g, state(*s), rep).terms.items()
                      if t in index}
            assert by_act == {(i, j): sc.QScalar(v.monomials())
                              for i, j, v in a.iter_entries()}
            assert a.nnz() == len(by_act)


@pytest.mark.parametrize("factor", [sc.Q + 2, sc.Q * sc.P1 + 1])
@pytest.mark.parametrize("nmax", [3, 4])
def test_module_check_clears_a_denominator_factor_outside_the_basis(factor,
                                                                    nmax):
    rep = highest_weight_a0rep(_outside_factor_rep(factor))
    assert all_passed(validate_a0rep(rep))
    results = check_relations_on_module(rep, nmax)
    assert len(results) == 37 and all_passed(results)
    # the plug-in's e32 carries 1/factor, so E32's d takes factor beside
    # the q^2 - 1 it has on the engine's own reps
    assert induced._cleared_module(rep, nmax)["E32"][0] \
        == (sc.Q * sc.Q - 1) * factor


def test_the_matrix_comparison_catches_the_rescaling_probe():
    # E12 and E13 times 2, E21 and E31 times 1/2: every relation still holds
    # on the Fock route, but the images are no longer the module's
    images = {g: x.scale(RESCALING_PROBE.get(g, 1))
              for g, x in rz.realization_map("fermionic").items()}
    assert _fock_mismatches("fermionic", images) == set(RESCALING_PROBE)


# -- level 0: E12 and E13 create the basis, and A0 acts as the rep ------------

def _level_zero_faults(rep):
    """Where the table at level 0 is not the induced module's: the
    (N, M, i) for which act(E12)^N act(E13)^M on |0, 0> (x) v_i is not
    |N, M> (x) v_i with coefficient 1, for N <= 4, and the (g, i) for which
    a letter g of A0 on |0, 0> (x) v_i is not the rep's column."""
    faults = set()
    for i in range(rep.dim):
        for M in (0, 1):
            x = act("E13", state(0, 0, i), rep) if M else state(0, 0, i)
            for N in range(5):
                if x != state(N, M, i):
                    faults.add((N, M, i))
                x = act("E12", x, rep)
        for g in rep._mats:             # E21 (0 here), E31 and the rest
            column = rep._column(((g, 1),), i)
            if act(g, state(0, 0, i), rep) \
                    != InducedVector({(0, 0, r): v for r, v in column.items()}):
                faults.add((g, i))
    return faults


@pytest.mark.parametrize("mode", sorted(MODULE_REPS))
def test_the_table_at_level_zero_is_the_induced_module(mode):
    # step 4 of the every-N argument of the induced module's docstring
    assert not _level_zero_faults(highest_weight_a0rep(MODULE_REPS[mode]()))


def test_the_level_zero_check_catches_the_rescaling_probe(patch_branches):
    # the probe keeps every relation, but E12^N E13^M then makes 2^(N + M)
    # |N, M>; at level 0 the rescaled E21 and E31 still act as 0
    patch_branches(rescaled_branches(RESCALING_PROBE))
    rep = highest_weight_a0rep(fermionic_gl11_rep())
    assert _level_zero_faults(rep) == {
        (N, M, i) for N in range(5) for M in (0, 1) for i in range(2)
        if N + M}


# -- the W images read off the table ---------------------------------------------

def test_a_lowering_branch_without_its_q_number_is_refused(patch_branches):
    branches = induced._branches
    patch_branches(lambda g, M: [(dn, m, c, a, b, (), w)
                                 for dn, m, c, a, b, ks, w in branches(g, M)])
    assert str(induced.module_image("E12")) == "a+"     # no lowering branch
    with pytest.raises(ValueError, match="lowering branch .* of E21 does "
                                         "not carry"):
        induced.module_image("E21")


def test_module_image_refuses_an_unknown_generator():
    for name in ("bogus", ["E12"]):
        with pytest.raises(ValueError, match="unknown generator"):
            induced.module_image(name)


@pytest.mark.parametrize("mode", sorted(GL11_REPS))
def test_module_entries_stay_short(mode):
    # each q-number stays q^n - q^-n, as on the Fock route; canonical
    # q-integers gave cleared entries of up to 24 terms at nmax 12
    module = induced._cleared_module(highest_weight_a0rep(GL11_REPS[mode]()),
                                     12)
    terms = [len(v.terms) for _, a in module.values()
             for _, _, v in a.iter_entries()]
    assert terms and max(terms) <= 4


def test_e31_follows_replaced_e21_and_e32(fermionic_rep):
    e21 = QMatrix.identity(2, sc.P1)
    e32 = fermionic_rep.mats["E32"].scale(sc.Q)
    rep = fermionic_rep._replace(
        mats=dict(fermionic_rep.mats, E21=e21, E32=e32))
    e31 = rep.mat("E31")
    assert e31.nnz() == 1
    assert e31 == -(e21 * e32) + (e32 * e21).scale(sc.QINV)
    assert fermionic_rep.mat("E31").nnz() == 0


def test_act_follows_a_replaced_k2_after_its_columns_are_kept():
    # act keeps each A0 column it computes in its rep; a _replace'd rep
    # starts with none, so act there reads the new K2
    rep = highest_weight_a0rep(fermionic_gl11_rep())
    two = sc.QScalar.from_rational(2)
    before = {(g, i): act(g, state(1, 1, i), rep)
              for g in ("K2", "E32") for i in range(2)}
    assert rep._columns
    doubled = rep._replace(mats=dict(rep.mats, K2=rep.mats["K2"].scale(two)))
    for i in range(2):
        assert act("K2", state(1, 1, i), doubled) == before["K2", i].scale(two)
        assert act("K2", state(1, 1, i), rep) == before["K2", i]
    # E32 on M = 1 acts through K2 K3 on the state |N + 1, 0>
    assert act("E32", state(1, 1, 0), doubled) \
        != act("E32", state(1, 1, 0), rep)
    assert act_oracle("E32", state(1, 1, 0), doubled) \
        == act("E32", state(1, 1, 0), doubled)


@pytest.mark.parametrize("x", [InducedVector.zero(), state(0, 0),
                               state(2, 1, 1)])
def test_unknown_generator_is_rejected(fermionic_rep, x):
    for action in (act, act_oracle):
        with pytest.raises(ValueError, match="unknown generator 'bogus'"):
            action("bogus", x, fermionic_rep)


# -- A0Rep.mat checks its letter ----------------------------------------------------

@pytest.mark.parametrize("name, exp", [
    ("E12", 1), ("E13", 1), ("E99", 1), ("E21", -1), ("E12", 0),
    ("K2", 1.0), ("K2", Fraction(1)), ("K1", "1"),
])
def test_a0_matrix_of_an_unknown_letter_is_a_value_error(fermionic_rep,
                                                        name, exp):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        fermionic_rep.mat(name, exp)
    with pytest.raises(ValueError, match="no matrix for the letter"):
        fermionic_rep.apply_word(((name, exp),), {0: sc.ONE})


def test_a0_matrices_of_known_letters(fermionic_rep):
    mats = fermionic_rep._mats
    assert fermionic_rep.mat("K2", 2) == mats["K2"] * mats["K2"]
    assert fermionic_rep.mat("K2", -1) == mats["K2inv"]
    assert fermionic_rep.mat("E31") == mats["E31"]
    assert fermionic_rep.mat("K3", 0) == QMatrix.identity(2)


# -- the rendering of induced-module vectors -----------------------------------------

def test_induced_vector_rendering_is_unchanged(fermionic_rep):
    assert repr(InducedVector.zero()) == "0"
    assert repr(state(0, 1, 1)) == "(1)|0,1;1>"
    assert repr(act("E21", state(2, 1, 0), fermionic_rep)) == (
        "((-q^6*p1^2 - q^4*p1^2 + q^2*p2^2 + p2^2)/(q^4*p1*p2 - q^2*p1*p2))"
        "|1,1;0> + (p1^-1*p2)|2,0;1>")
