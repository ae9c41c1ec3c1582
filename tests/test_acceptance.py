"""Acceptance battery: one test per headline criterion, each printing a
PASS/FAIL line.  Everything is exact; there are no tolerances to tune, a
criterion passes only with residual exactly zero.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction

import qgl21.scalars as sc
from conftest import SCALAR_POOL, random_element, random_monomial
from qgl21.induced import (
    ACT_GENERATORS, InducedVector, act, act_oracle, check_relations_on_module,
    fermionic_gl11_rep, highest_weight_a0rep, trivial_gl11_rep,
)
from qgl21.parsing import parse_w
from qgl21.realization import (
    GENERATOR_IMAGE_NAMES, check_relations_on_fock, dyson_check,
    relation_shifts, rho, verify_realization,
)
from qgl21.reporting import all_passed
from qgl21.superalgebra import (
    GENERATORS, check_straightening_identities, oracle_straighten,
    relation_set, straighten,
)
from qgl21.walgebra import WElement, render_element, w_mul

NUMERIC = {"q": Fraction(3, 2), "p1": Fraction(2), "p2": Fraction(3),
           "p3": Fraction(5)}


def report(name, ok):
    print("[%s] %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def test_criterion_1_symbolic_relation_verification():
    results = verify_realization("abstract")
    families = {r.name.split()[0] for r in results}
    ok = all_passed(results) and len(results) == len(relation_set())
    report("criterion 1: every defining relation holds under the realization "
           "map with zero symbolic residual (%d checks)" % len(results), ok)
    assert families   # non-empty sanity


def test_criterion_2_straightening_identities_at_desk_scale():
    results = check_straightening_identities(6)
    ok = all_passed(results) and len(results) == 9
    report("criterion 2: all nine straightening identities match the "
           "single-swap oracle for n = 0..6", ok)


def test_criterion_3_induced_representation():
    reps = (highest_weight_a0rep(trivial_gl11_rep()),
            highest_weight_a0rep(fermionic_gl11_rep()))
    ok = True
    for rep in reps:
        for g in ACT_GENERATORS:
            for N in range(6):
                for M in (0, 1):
                    for i in range(rep.dim):
                        v = InducedVector.basis_state(N, M, i)
                        if act(g, v, rep) != act_oracle(g, v, rep):
                            ok = False
    report("criterion 3a: closed-form action equals the straightening "
           "oracle for all generators, N <= 5, M in {0,1}, both modules", ok)
    ok2 = all(all_passed(check_relations_on_module(rep, 8)) for rep in reps)
    report("criterion 3b: all defining relations hold on the induced module "
           "at Nmax = 8 with zero residual", ok2)


def test_criterion_4_subalgebra_composition_closure():
    ok_t = all_passed(verify_realization("trivial"))
    ok_f = all_passed(verify_realization("fermionic"))
    report("criterion 4a: trivial-mode realization passes all relations", ok_t)
    report("criterion 4b: fermionic-mode realization passes all relations", ok_f)
    vars_t, modes_t = set(), set()
    vars_f, modes_f = set(), set()
    for name in GENERATOR_IMAGE_NAMES:
        for c in rho(name, "trivial").terms.values():
            vars_t |= c.variables()
        modes_t.update(rho(name, "trivial").fermion_modes())
        for c in rho(name, "fermionic").terms.values():
            vars_f |= c.variables()
        modes_f.update(rho(name, "fermionic").fermion_modes())
    ok_struct = (vars_t == {"q", "p1", "p2"} and modes_t == {1}
                 and vars_f == {"q", "p1", "p2", "p3"} and modes_f == {1, 2})
    report("criterion 4c: one boson pair + one fermion pair + two parameters "
           "(trivial) vs two fermion pairs + three parameters (fermionic)",
           ok_struct)


def test_criterion_5_fock_space_layer():
    ok = True
    for mode in ("trivial", "fermionic"):
        ok = ok and all_passed(check_relations_on_fock(mode, 8))
    report("criterion 5a: relations hold exactly on the 8-level Fock space "
           "with symbolic entries (both modes)", ok)
    ok_num = True
    for mode in ("trivial", "fermionic"):
        ok_num = ok_num and all_passed(check_relations_on_fock(mode, 8, NUMERIC))
    report("criterion 5b: same at q = 3/2, p = (2, 3, 5) in exact rational "
           "arithmetic", ok_num)
    for mode in ("trivial", "fermionic"):
        fdim = 2 if mode == "trivial" else 4
        shifts = relation_shifts(mode)
        results = check_relations_on_fock(mode, 8)
        ok_b = all(r.detail == "%d boundary columns excluded"
                   % (shifts[r.name] * fdim) for r in results)
        ok_b = ok_b and max(shifts.values()) == 2
        report("criterion 5c: excluded rows are exactly the shift-bound "
               "boundary (%s mode)" % mode, ok_b)


def test_criterion_6_dyson_substitution():
    results = dyson_check(6)
    names = {r.name for r in results}
    ok = all_passed(results) \
        and "a from [N+1]/(N+1) A matches the q-boson a" in names \
        and "[A, A+] = 1" in names
    report("criterion 6: ordinary-boson substitution reproduces the q-boson "
           "Fock matrices entry for entry at D = 6 and satisfies the "
           "oscillator relations on safe rows", ok)


def test_criterion_7_engine_soundness():
    rng = random.Random(987654321)
    ok_assoc = True
    for _ in range(500):
        x = WElement.term(random_monomial(rng), rng.choice(SCALAR_POOL))
        y = WElement.term(random_monomial(rng))
        z = WElement.term(random_monomial(rng))
        if w_mul(w_mul(x, y), z) != w_mul(x, w_mul(y, z)):
            ok_assoc = False
            break
    report("criterion 7a: associativity of the normal-ordering product on "
           "500 random monomial triples", ok_assoc)

    ok_par = True
    for _ in range(300):
        ma, mb = random_monomial(rng), random_monomial(rng)
        prod = w_mul(WElement.term(ma), WElement.term(mb))
        if prod and prod.parity() != (ma.parity + mb.parity) % 2:
            ok_par = False
            break
    report("criterion 7b: parity is multiplicative on homogeneous products",
           ok_par)

    ok_rt = True
    for _ in range(200):
        el = random_element(rng, nterms=rng.randrange(1, 4))
        if parse_w(render_element(el)) != el:
            ok_rt = False
            break
    report("criterion 7c: parser round-trip on 200 random elements", ok_rt)

    ok_field = True
    pool = list(SCALAR_POOL) + [sc.q_integer(3), sc.P3.invert() * sc.Q]
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if a * (b + c) != a * b + a * c or (a + b) * c != a * c + b * c \
                or a + b != b + a or a * b != b * a:
            ok_field = False
            break
        if a and a * a.invert() != sc.ONE:
            ok_field = False
            break
    report("criterion 7d: field axioms on randomized scalars", ok_field)


def test_straighten_oracle_agreement_full_grid():
    # companion to criterion 2: the composed API agrees term by term
    ok = all(straighten(g, N, M) == oracle_straighten(g, N, M)
             for g in GENERATORS
             for N in range(7) for M in (0, 1))
    report("straighten == oracle_straighten for every generator, "
           "N <= 6, M in {0,1}", ok)
