"""The realization map into the oscillator-fermion algebra W, plus its
verification layers.

rho sends the abstract generators to normal-ordered W elements (one q-boson
mode, the mode-1 fermion, and either the abstract gl(1/1) factor or one of
its two concrete realizations).  The images are the transcription of the
induced-module action under the highest-weight dictionary

    q^{+-N} -> q^{+-x} = t^{+-1}        |N+1,M>         -> a+
    [N] |N-1,M>  -> a                   |N,M+1>         -> b+
    (1-(-1)^M)/2 |N,M-1> -> b           q^{+-M}         -> b b+ + q^{+-1} b+ b
    phi(K1^{+-1}) -> p1^{+-1}           phi(K2/K3)      -> k2 / k3
    (-1)^M phi(E23) -> e23              (-1)^M phi(E32) -> e32
    phi(E21), phi(E31) -> 0

so e.g. the E13 action q^-N |N,M+1> becomes t^-1 b+.  The dictionary is a
derivation device, not an executable transformation: the images are stored
directly and then machine-verified.  Verification is dual-route:

* verify_realization -- every defining relation is mapped through rho and
  reduced in W; the residual must be exactly zero.
* check_relations_on_fock -- generator images are rendered as matrices on a
  truncated Fock space and the relations are re-checked by exact matrix
  arithmetic on the truncation-safe columns.  A matrix is filled one
  monomial at a time (_fill): each monomial moves a fixed set of fermion
  occupations and a run of boson levels.

Both are calls to superalgebra.check_relations, the one relation checker
of all four routes, with the generator images (on the W identity) or their
matrices (on the identity matrix) acting from the left.  Neither Fock
check multiplies over a field: each generator matrix is A_g / d_g, built
by _cleared_matrix (symbolic: A_g over integer Laurent polynomials,
scalars.Laurent, d_g = C (q - 1)^I (q + 1)^J, each boson factor [n] kept
as q^n - q^-n, never divided by q^2 - 1, so entries stay short) or by
QMatrix.cleared with _clear_rationals (numeric: the Fraction matrix, see
fock_matrix, times d_g, the lcm of its denominators, over Z).  Then
superalgebra.check_cleared clears the relation words and checks them on
the identity of the cleared ring, so the residual counts are those over
Q(q, p) or Q.  fock_matrix and the matrix exports stay canonical or in Q.

dyson_check confirms that an ordinary boson A with a = ([N+1]/(N+1)) A and
q^x = q^N reproduces the q-boson matrices entry for entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm
from typing import NamedTuple

from . import scalars as sc
from . import superalgebra as ua
from . import walgebra as wa
from .qmatrix import QMatrix
from .reporting import check_size, residual_results
from .scalars import QScalar
from .walgebra import generator, substitute_gl11, w_mul

SUBALGEBRA_MODES = ("abstract", *wa.GL11_PLUG_INS)

GENERATOR_IMAGE_NAMES = ua.GENERATORS

DEFAULT_ASSIGNMENT = {"q": Fraction(3, 2), "p1": Fraction(2),
                       "p2": Fraction(3), "p3": Fraction(5)}


def _abstract_images():
    g = generator
    one = wa.one()
    proj = w_mul(g("b+"), g("b"))                  # b+ b
    fplus = one + proj.scale(sc.Q - sc.ONE)        # b b+ + q b+ b
    fminus = one + proj.scale(sc.QINV - sc.ONE)    # b b+ + q^-1 b+ b
    p1 = sc.P1
    p1inv = sc.P1.invert()

    def prod(*els):
        out = one
        for e in els:
            out = w_mul(out, e)
        return out

    images = {
        "E12": g("a+"),
        "E13": prod(g("tinv"), g("b+")),
        "E23": prod(g("a"), g("b+")).scale(-sc.Q)
        + prod(g("t"), fplus, g("e23")),
        "K1": prod(g("t"), fplus).scale(p1),
        "K1inv": prod(g("tinv"), fminus).scale(p1inv),
        "K2": prod(g("tinv"), g("k2")),
        "K2inv": prod(g("t"), g("k2inv")),
        "K3": prod(fminus, g("k3")),
        "K3inv": prod(fplus, g("k3inv")),
        "E32": prod(g("a+"), g("b"), g("k2"), g("k3")).scale(sc.QINV)
        + g("e32"),
        "E21": prod(g("a"), g("t"), fplus, g("k2inv")).scale(
            -(p1 * sc.QINV * sc.EPS_INV))
        + prod(g("a"), g("tinv"), fminus, g("k2")).scale(
            p1inv * sc.Q * sc.EPS_INV)
        - prod(g("b"), g("e23"), g("k2")).scale(p1inv),
        "E31": prod(g("a+"), g("a"), g("b"), g("t"), g("k3")).scale(
            p1 * sc.QINV)
        + prod(g("a"), g("t"), fplus, g("k2inv"), g("e32")).scale(
            p1 * sc.q_power(-2))
        + (prod(g("b"), g("k3")).scale(p1)
           - prod(g("b"), g("k3inv")).scale(p1inv)).scale(
            sc.QINV * sc.EPS_INV),
    }
    return images


def realization_map(mode="abstract"):
    """The generator -> W image dict of a subalgebra mode, built once."""
    if mode not in SUBALGEBRA_MODES:
        raise ValueError("unknown subalgebra mode %r" % mode)
    return _images(mode)


@cache
def _images(mode):
    if mode == "abstract":
        return _abstract_images()
    return {name: substitute_gl11(el, mode)
            for name, el in _images("abstract").items()}


def rho(g, mode="abstract"):
    """Image of an abstract generator under the realization map."""
    images = realization_map(mode)
    if g not in images:
        raise ValueError("unknown generator %r" % g)
    return images[g]


def image_of_uelement(el, mode="abstract"):
    """The W image of a UElement, its letters looked up by rho (so a letter
    outside the 12 generators is a ValueError)."""
    return ua.evaluate(el, lambda g, acc: w_mul(rho(g, mode), acc), wa.one())


def verify_realization(mode="abstract"):
    """Map every defining relation through rho and reduce in W; the report
    lists the exact residual term count for each relation."""
    return ua.check_relations(ua.relation_set(), realization_map(mode),
                              wa.one())


# ---------------------------------------------------------------------------
# truncated Fock-space rendering
# ---------------------------------------------------------------------------

class FockMatrix(NamedTuple):
    """Matrix of a W element on the truncated basis |n> (x) fermion modes.

    Basis index is n-major, then mode-1, then mode-2 occupation.  Raising
    monomials send the top boson levels out of the space; those amplitudes
    are dropped and the affected columns are listed in boundary_columns."""
    dim: int
    boson_dim: int
    modes: tuple
    matrix: QMatrix
    basis: tuple
    boundary_columns: tuple


def _fermion_moves(mon, modes, occupations):
    """(occupation index in, occupation index out, negate) for each
    occupation of the fermion modes that the monomial does not annihilate.
    b+^i b^j sends an occupation f to f - j + i when f >= j and the result
    is at most 1; mode-2 operators act first and cross the mode-1
    occupation."""
    powers = {2: (mon.i2, mon.j2), 1: (mon.i1, mon.j1)}
    for mode, used in powers.items():
        if any(used) and mode not in modes:
            raise ValueError("element uses fermion mode %d "
                             "but the basis does not include it" % mode)
    moves = []
    for col, occ in enumerate(occupations):
        row = 0
        for mode, f in zip(modes, occ):
            i, j = powers[mode]
            if f < j or f - j + i > 1:
                break
            row = 2 * row + f - j + i
        else:
            f1 = dict(zip(modes, occ)).get(1, 0)
            moves.append((col, row, bool(f1 and (mon.i2 + mon.j2) & 1)))
    return moves


def fock_matrix(x, D, assignment=None, modes=None):
    """Render a W element on the D-level truncated Fock space.

    modes, by default the element's own, is (), (1,), (2,) or (1, 2): the
    fermion modes of the basis, in basis order.  Elements still carrying
    abstract gl(1/1) factors have no matrix; apply substitute_gl11 first.
    A monomial c a+^m t^k a^l (fermion operators) sends |n> (x) f to
    c [n][n-1]...[n-l+1] q^(k(n-l)) |n-l+m> (x) f', up to a fermion sign,
    for the levels l <= n < D - m + l and the fermion moves f -> f' of
    _fermion_moves; the other levels are annihilated or leave the space.
    _fill builds the matrix.

    With an assignment, entries are Fractions (q = 0, +1, -1 are rejected
    as deformation singularities, p_i = 0 as well), and they are evaluated
    first: the value of c, taken once per monomial before the matrix is
    filled, times the value of the boson factor, computed from q alone with
    [m] = (q^m - q^-m)/(q - q^-1).  That equals the value of
    the product, because the boson factor's numerator has no rational root
    other than 0 and +-1, so it cancels no pole of c at an accepted
    assignment.  A c with a pole there, or with a variable the assignment
    leaves out, may still give no entry, and a pole may cancel between
    monomials; so then the entries of the symbolic matrix are evaluated
    instead, and only a pole or a variable that survives in an entry
    raises PoleError or ValueError."""
    check_size(D, 2, "Fock dimension")
    if x.has_gl11():
        raise ValueError(
            "element has abstract gl(1/1) factors; substitute a realization first")
    if assignment is not None:
        assignment = _check_assignment(assignment)
    modes = tuple(x.fermion_modes() if modes is None else modes)
    if modes not in ((), (1,), (2,), (1, 2)):
        raise ValueError("fermion modes %r are not one of (), (1,), (2,) "
                         "and (1, 2)" % (modes,))
    if assignment is None:
        mat = _fill(x.terms, D, modes, sc.q_power, sc.q_integer)
    else:
        q = assignment["q"]
        try:
            terms = {mon: c.evaluate(**assignment)
                     for mon, c in x.terms.items()}
        except (sc.PoleError, ValueError):
            symbolic = fock_matrix(x, D, modes=modes).matrix
            mat = QMatrix.from_entries(symbolic.nrows, symbolic.ncols, (
                (i, j, v.evaluate(**assignment))
                for i, j, v in symbolic.iter_entries()), Fraction(0))
        else:
            mat = _fill(terms, D, modes, q.__pow__,
                        lambda m: (q ** m - q ** -m) / (q - 1 / q))
    occupations = tuple(product((0, 1), repeat=len(modes)))
    fdim = len(occupations)
    raising = min(D, max(0, x.max_raising()))
    return FockMatrix(
        dim=D * fdim, boson_dim=D, modes=modes, matrix=mat,
        basis=tuple((n,) + occ for n in range(D) for occ in occupations),
        boundary_columns=tuple(range((D - raising) * fdim, D * fdim)))


def _fill(terms, D, modes, q_power, q_number):
    """The one monomial loop of the Fock matrices: the matrix whose
    entries sum c * q_power(k(n - l)) * q_number(n) ... q_number(n - l + 1)
    over the monomials c a+^m t^k a^l of terms, each c already in the
    entries' ring, with q_power(0) - q_power(0) its zero.  The boson
    factor is taken once per (l, k, n), the only cache, and an amplitude
    once per (monomial, n).  The canonical, numeric and cleared matrices
    differ only in the coefficients and the boson factor they put in."""
    occupations = tuple(product((0, 1), repeat=len(modes)))
    fdim = len(occupations)
    mat = QMatrix.zero(D * fdim, zero=q_power(0) - q_power(0))
    boson = {}      # (l, k, n) -> the boson factor
    for mon, c in terms.items():
        moves = _fermion_moves(mon, modes, occupations)
        levels = range(mon.l, min(D, D - mon.m + mon.l))
        if not (moves and levels):
            continue        # annihilated or truncated on every column
        for n in levels:
            key = (mon.l, mon.k, n)
            if key not in boson:
                factor = q_power(mon.k * (n - mon.l))
                for j in range(mon.l):
                    factor = factor * q_number(n - j)
                boson[key] = factor
            amp = c * boson[key]
            row, col = (n - mon.l + mon.m) * fdim, n * fdim
            for f_in, f_out, negate in moves:
                mat.add_entry(row + f_out, col + f_in,
                              -amp if negate else amp)
    return mat


def _cleared_matrix(x, D, modes):
    """(d, A) with A / d the matrix of x, A's entries Laurents: d is the
    lcm of the denominators of the c (q - q^-1)^-l of x's monomials
    c a+^m t^k a^l, each cleared by d, and the boson factor is
    q^(k(n-l)) (q^n - q^-n) ... (q^(n-l+1) - q^-(n-l+1)), that is
    [n] ... [n-l+1] q^(k(n-l)) times (q - q^-1)^l, with q^2 - 1 never
    divided out of a numerator."""
    d, cleared = sc.clear_denominators(c * sc.EPS_INV ** mon.l
                                       for mon, c in x.terms.items())
    return d, _fill(dict(zip(x.terms, cleared)), D, modes,
                    sc.laurent_q_power, sc.laurent_q_number)


def _assigned_rational(assignment, name):
    value = assignment.get(name)
    if value is None:
        return None
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError("%s = %r is not a rational number" % (name, value)) \
            from None


def _check_assignment(assignment):
    """The assignment with Fraction values; a ValueError names the variable
    of a missing, non-rational or singular value, or an unknown key: the
    first unknown name in sorted order, else the first other key given."""
    unknown = [k for k in assignment if k not in sc.VAR_NAMES]
    if unknown:
        names = sorted(k for k in unknown if isinstance(k, str))
        raise ValueError("%s is not one of q, p1, p2, p3"
                         % ((names or unknown)[0],))
    values = {name: _assigned_rational(assignment, name) for name in assignment}
    q = values.get("q")
    if q is None:
        raise ValueError("the assignment gives no value for q")
    if q in (0, 1, -1):
        raise ValueError("q = %s is a deformation singularity" % q)
    for name in ("p1", "p2", "p3"):
        if values.get(name) == 0:
            raise ValueError("%s = 0 is not allowed: p_i = q^lambda_i "
                             "is nonzero" % name)
    return values


def fock_modes(mode):
    return (1,) if mode == "trivial" else (1, 2)


def relation_shifts(mode):
    """Worst-case boson-number raise for each relation, computed from the
    maximal raising degree of the generator images."""
    images = realization_map(mode)
    raise_of = {nm: max(0, el.max_raising()) for nm, el in images.items()}

    def word_shift(word):
        return sum(raise_of[ua.letter(nm, e)] * abs(e)
                   for nm, e in word)

    shifts = {}
    for rel in ua.relation_set():
        words = list(rel.lhs.terms) + list(rel.rhs.terms)
        shifts[rel.name] = max((word_shift(w) for w in words), default=0)
    return shifts


def check_relations_on_fock(mode, D, assignment=None):
    """Re-check every relation by exact matrix arithmetic on the truncated
    Fock space, on the columns of the levels n < D - s for a relation whose
    words raise the boson number by up to s.  One sequence for both
    fields: only the builder of (d_g, A_g) and the words' value and clear
    rule depend on whether an assignment is given."""
    if mode not in tuple(wa.GL11_PLUG_INS):
        raise ValueError("Fock checks need a concrete subalgebra mode")
    check_size(D, 4, "Fock dimension")
    modes = fock_modes(mode)
    fdim = 2 ** len(modes)
    shifts = relation_shifts(mode)
    if assignment is None:
        build, value, clear = (_cleared_matrix, lambda c: c,
                               sc.clear_denominators)
    else:
        build, value, clear = (
            lambda x, D, modes: fock_matrix(x, D, assignment, modes)
            .matrix.cleared(_clear_rationals),
            lambda c: c.evaluate(**assignment), _clear_rationals)
    results = ua.check_cleared(
        ua.relation_set(), {nm: build(el, D, modes)
                            for nm, el in realization_map(mode).items()},
        value, clear, lambda rel: range(fdim * (D - shifts[rel.name])))
    return [r._replace(detail="%d boundary columns excluded"
                       % (fdim * shifts[r.name])) for r in results]


def _clear_rationals(values):
    """(d, [v d]): d the lcm of the Fraction values' denominators, v d an
    int."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# Dyson substitution: ordinary boson A with [A, A+] = 1
# ---------------------------------------------------------------------------

def dyson_check(D):
    """Build A+, A, N with A|n> = n|n-1>, substitute a+ = A+,
    a = ([N+1]/(N+1)) A, q^x = q^N, and verify the q-boson relations and
    the Fock matrices entry for entry."""
    check_size(D, 4, "Fock dimension")
    aplus = QMatrix.from_entries(
        D, D, [(n + 1, n, sc.ONE) for n in range(D - 1)])
    a_ord = QMatrix.from_entries(
        D, D, [(n - 1, n, QScalar.from_rational(n)) for n in range(1, D)])
    number = aplus * a_ord
    qfactor = QMatrix.from_entries(
        D, D, [(n, n, sc.q_integer(n + 1) / QScalar.from_rational(n + 1))
               for n in range(D)])
    a_dyson = qfactor * a_ord
    t_dyson = QMatrix.from_entries(
        D, D, [(n, n, sc.q_power(n)) for n in range(D)])
    tinv_dyson = QMatrix.from_entries(
        D, D, [(n, n, sc.q_power(-n)) for n in range(D)])

    a_fock = fock_matrix(generator("a"), D).matrix
    aplus_fock = fock_matrix(generator("a+"), D).matrix
    t_fock = fock_matrix(generator("t"), D).matrix

    ident = QMatrix.identity(D)
    all_cols = range(D)
    safe = range(D - 1)   # relations with one raising factor

    checks = [
        ("a from [N+1]/(N+1) A matches the q-boson a", a_dyson - a_fock, all_cols),
        ("a+ = A+ matches the q-boson a+", aplus - aplus_fock, all_cols),
        ("q^N matches the q-boson q^x", t_dyson - t_fock, all_cols),
        ("N = A+ A is diagonal(n)",
         number - QMatrix.from_entries(
             D, D, [(n, n, QScalar.from_rational(n)) for n in range(D)]),
         all_cols),
        ("[A, A+] = 1", a_ord * aplus - aplus * a_ord - ident, safe),
        ("q^x q^-x = 1", t_dyson * tinv_dyson - ident, all_cols),
        ("q^x a+ q^-x = q a+",
         t_dyson * aplus * tinv_dyson - aplus.scale(sc.Q), safe),
        ("q^x a q^-x = q^-1 a",
         t_dyson * a_dyson * tinv_dyson - a_dyson.scale(sc.QINV), all_cols),
        ("a a+ - q^-1 a+ a = q^x",
         a_dyson * aplus - (aplus * a_dyson).scale(sc.QINV) - t_dyson, safe),
        ("a a+ - q a+ a = q^-x",
         a_dyson * aplus - (aplus * a_dyson).scale(sc.Q) - tinv_dyson, safe),
    ]
    return residual_results(checks)
