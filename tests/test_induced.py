import re
from fractions import Fraction

import pytest

import qgl21.scalars as sc
from qgl21 import induced
from qgl21.induced import (
    ACT_GENERATORS, A0Rep, Gl11Rep, InducedVector, RepresentationError,
    act, act_oracle, apply_uelement, check_relations_on_module,
    fermionic_gl11_rep, highest_weight_a0rep, trivial_gl11_rep,
    validate_a0rep, validate_gl11_rep,
)
from qgl21.qmatrix import QMatrix
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


# -- closed-form action -------------------------------------------------------

def test_act_e12_raises(fermionic_rep):
    assert act("E12", state(2, 1, 1), fermionic_rep) == state(3, 1, 1)


def test_act_k2_scaling(fermionic_rep):
    out = act("K2", state(3, 0, 0), fermionic_rep)
    assert out == state(3, 0, 0, coeff=sc.q_power(-3) * sc.P2)


def test_act_e23_at_origin(trivial_rep, fermionic_rep):
    # the -q[N] term vanishes at N = 0
    assert act("E23", state(0, 0, 0), trivial_rep).is_zero()
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
    assert act("E13", state(2, 1, 0), fermionic_rep).is_zero()


def test_act_oracle_e21_matches_theorem_at_n1(trivial_rep):
    out = act_oracle("E21", state(1, 0, 0), trivial_rep)
    coeff = -(sc.EPS_INV) * (sc.P1 * sc.P2.invert() - sc.P1.invert() * sc.P2)
    assert out == state(0, 0, 0, coeff=coeff)
    assert out == act("E21", state(1, 0, 0), trivial_rep)


@pytest.mark.parametrize("g", ACT_GENERATORS)
def test_act_matches_oracle(g, trivial_rep, fermionic_rep):
    for rep in (trivial_rep, fermionic_rep):
        for N in range(4):
            for M in (0, 1):
                for i in range(rep.dim):
                    v = state(N, M, i)
                    assert act(g, v, rep) == act_oracle(g, v, rep)


def test_act_matches_single_swap_oracle(fermionic_rep):
    for g in ("E21", "E31", "E23"):
        v = state(2, 1, 0)
        assert act(g, v, fermionic_rep) == \
            act_oracle(g, v, fermionic_rep, single_swaps=True)


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
        assert apply_uelement(sq, state(N, M, 0), fermionic_rep).is_zero()


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


def test_module_check_calls_act_once_per_generator_and_state(monkeypatch):
    rep = highest_weight_a0rep(fermionic_gl11_rep())
    calls = []

    def counting(g, x, r):
        calls.append(g)
        return act(g, x, r)

    monkeypatch.setattr(induced, "act", counting)
    assert all_passed(check_relations_on_module(rep, 6))
    # 12 generators x 7 levels N <= 6 x 2 values of M x dim 2
    assert len(calls) == 336


def test_e31_follows_replaced_e21_and_e32(fermionic_rep):
    e21 = QMatrix.identity(2, sc.P1)
    e32 = fermionic_rep.mats["E32"].scale(sc.Q)
    rep = fermionic_rep._replace(
        mats=dict(fermionic_rep.mats, E21=e21, E32=e32))
    e31 = rep.mat("E31")
    assert e31.nnz() == 1
    assert e31 == -(e21 * e32) + (e32 * e21).scale(sc.QINV)
    assert fermionic_rep.mat("E31").nnz() == 0


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
