"""The realization map into the oscillator-fermion algebra W, plus its
verification layers.

rho sends the abstract generators to normal-ordered W elements (one q-boson
mode, the mode-1 fermion, and either the abstract gl(1/1) factor or one of
its two concrete realizations).  The images are induced.module_image's:
the induced-module action, written once as the branch table
induced._branches, read into W by the highest-weight dictionary

    q^{+-N} -> q^{+-x} = t^{+-1}        |N+1,M>         -> a+
    [N] |N-1,M>  -> a                   |N,M+1>         -> b+
    (1-(-1)^M)/2 |N,M-1> -> b           q^{+-M}         -> b b+ + q^{+-1} b+ b
    phi(K1^{+-1}) -> p1^{+-1}           phi(K2/K3)      -> k2 / k3
    (-1)^M phi(E23) -> e23              (-1)^M phi(E32) -> e32
    phi(E21), phi(E31) -> 0

so e.g. the E13 action q^-N |N,M+1> becomes t^-1 b+; a plug-in mode's
images are substitute_gl11 of the abstract ones.  Verification is
dual-route:

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
as q^n - q^-n, never divided by q^2 - 1, so entries stay short; A_g is
built once, straight into qmatrix.PackedRows from _fill's entries) or by
_numeric_matrix (numeric: A_g over Z, filled with ints, d_g = L a^alpha
b^beta at q = a/b, L the lcm of the evaluated c, each boson factor an int
over a power of a and b, see fock_matrix; no Fraction is built per
entry).  Then
superalgebra.check_cleared clears the relation words and checks them on
the identity of the cleared ring, so the residual counts are those over
Q(q, p) or Q.  fock_matrix and the matrix exports stay canonical or in Q:
the numeric fock_matrix reads the same (d_g, A_g), entry v as v / d_g.

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
from .induced import module_image
from .qmatrix import PackedRows, QMatrix
from .reporting import check_size, residual_results
from .scalars import QScalar
from .walgebra import generator, substitute_gl11, w_mul

SUBALGEBRA_MODES = ("abstract", *wa.GL11_PLUG_INS)

GENERATOR_IMAGE_NAMES = ua.GENERATORS

DEFAULT_ASSIGNMENT = {"q": Fraction(3, 2), "p1": Fraction(2),
                       "p2": Fraction(3), "p3": Fraction(5)}


def realization_map(mode="abstract"):
    """The generator -> W image dict of a subalgebra mode, built once."""
    if mode not in SUBALGEBRA_MODES:
        raise ValueError("unknown subalgebra mode %r" % mode)
    return _images(mode)


@cache
def _images(mode):
    if mode == "abstract":
        return {g: module_image(g) for g in ua.GENERATORS}
    return {name: substitute_gl11(el, mode)
            for name, el in _images("abstract").items()}


def rho(g, mode="abstract"):
    """Image of an abstract generator under the realization map."""
    images = realization_map(mode)
    ua.check_generator(g)
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
    as deformation singularities, p_i = 0 as well): the entries v / d of
    the int matrix A and the int d of _numeric_matrix, which the numeric
    relation check clears by.  There the value of each c is taken once per
    monomial, before the matrix is filled, and cleared to an int by L, the
    lcm of those values' denominators; the boson factor is read off
    q = a/b in lowest terms alone, q^e = a^e / b^e and
    [m] = P_m / (ab)^(m-1) with P_m = (a^2m - b^2m)/(a^2 - b^2) an int
    (_q_numerators), so it is an int over a^alpha b^beta, and each
    amplitude is c L times that factor scaled by the largest a^alpha b^beta
    of the matrix: an int times an int.  A / d is the value of the
    symbolic matrix, because P_m vanishes only at q = +-1, so the boson
    factor's numerator cancels no pole of c at an accepted assignment.  A
    c with a pole there, or with a variable the assignment leaves out, may
    still give no entry, and a pole may cancel between monomials; so then
    the entries of the symbolic matrix are evaluated instead (and cleared
    by _clear_rationals), and only a pole or a variable that survives in
    an entry raises PoleError or ValueError."""
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
    occupations = tuple(product((0, 1), repeat=len(modes)))
    dim = D * len(occupations)
    if assignment is None:
        mat = QMatrix.from_entries(dim, dim, _fill(x.terms, D, modes,
                                                   _CANONICAL_BOSON))
    else:
        d, ints = _numeric_matrix(x, D, modes, assignment)
        mat = QMatrix(dim, dim, {i: {j: Fraction(v, d) for j, v in row.items()}
                                 for i, row in ints.rows.items()}, Fraction(0))
    fdim = len(occupations)
    raising = min(D, max(0, x.max_raising()))
    return FockMatrix(
        dim=dim, boson_dim=D, modes=modes, matrix=mat,
        basis=tuple((n,) + occ for n in range(D) for occ in occupations),
        boundary_columns=tuple(range((D - raising) * fdim, D * fdim)))


def _levels(mon, D):
    """The boson levels n a monomial c a+^m t^k a^l maps into the D-level
    space: l <= n < D - m + l."""
    return range(mon.l, min(D, D - mon.m + mon.l))


def _fill(terms, D, modes, boson):
    """The one monomial loop of the Fock matrices: the entries
    (row, column, amplitude) whose sums per (row, column) are
    c * boson(l, k, n) summed over the monomials c a+^m t^k a^l of terms
    and their _levels n, each c already in the entries' ring, yielded for
    the caller's matrix to sum (QMatrix.from_entries for the canonical and
    numeric matrices, PackedRows.from_entries for the cleared ones).
    boson(l, k, n) is the boson factor q^(k(n-l)) [n] ... [n-l+1] in that
    ring, up to the one scale the caller clears: it is taken once per
    (l, k, n), the only cache, and an amplitude once per (monomial, n).
    The three fields differ only in the coefficients and the boson factor
    they put in."""
    occupations = tuple(product((0, 1), repeat=len(modes)))
    fdim = len(occupations)
    factors = {}    # (l, k, n) -> boson(l, k, n)
    for mon, c in terms.items():
        moves = _fermion_moves(mon, modes, occupations)
        levels = _levels(mon, D)
        if not (moves and levels):
            continue        # annihilated or truncated on every column
        for n in levels:
            key = (mon.l, mon.k, n)
            if key not in factors:
                factors[key] = boson(*key)
            amp = c * factors[key]
            row, col = (n - mon.l + mon.m) * fdim, n * fdim
            for f_in, f_out, negate in moves:
                yield row + f_out, col + f_in, -amp if negate else amp


def _boson(q_power, q_number):
    """The boson factor q_power(k(n-l)) q_number(n) ... q_number(n-l+1)
    as a function of (l, k, n)."""
    def boson(l, k, n):
        factor = q_power(k * (n - l))
        for j in range(l):
            factor = factor * q_number(n - j)
        return factor
    return boson


_CANONICAL_BOSON = _boson(sc.q_power, sc.q_integer)
# [m] times q - q^-1: the cleared matrices take (q - q^-1)^-l into c
_LAURENT_BOSON = _boson(sc.laurent_q_power, sc.laurent_q_number)


def _cleared_matrix(x, D, modes):
    """(d, A) with A / d the matrix of x, A's entries Laurents: d is the
    lcm of the denominators of the c (q - q^-1)^-l of x's monomials
    c a+^m t^k a^l, each cleared by d, and the boson factor is
    q^(k(n-l)) (q^n - q^-n) ... (q^(n-l+1) - q^-(n-l+1)), that is
    [n] ... [n-l+1] q^(k(n-l)) times (q - q^-1)^l, with q^2 - 1 never
    divided out of a numerator.  A is built once, straight into
    PackedRows: each amplitude of _fill adds its packed terms."""
    d, cleared = sc.clear_denominators(c * sc.EPS_INV ** mon.l
                                       for mon, c in x.terms.items())
    n = D * 2 ** len(modes)
    return d, PackedRows.from_entries(n, n, _fill(
        dict(zip(x.terms, cleared)), D, modes, _LAURENT_BOSON))


def _q_numerators(a, b, top):
    """[P_0, ..., P_top] for q = a/b in lowest terms, where
    P_m = sum of a^(2i) b^(2(m-1-i)) over i < m = (a^2m - b^2m)/(a^2 - b^2),
    so that [m] = P_m / (ab)^(m-1) (and [-m] = -[m])."""
    a2, b2 = a * a, b * b
    nums, b2m = [0], 1
    for _ in range(top):
        nums.append(a2 * nums[-1] + b2m)
        b2m *= b2
    return nums


def _numeric_boson(q, terms, D):
    """(scale, boson) at q = a/b: boson(l, k, n) is the int scale times
    the boson factor q^(k(n-l)) [n] ... [n-l+1] of every monomial of terms
    at each of its _levels n.  That factor is
    P_n ... P_(n-l+1) / (a^alpha b^beta) (_q_numerators), with
    alpha = s_l - k(n-l), beta = s_l + k(n-l) and
    (ab)^s_l = (ab)^((n-1) + ... + (n-l)) the denominator of the q-numbers;
    both are linear in n, so their largest values over a monomial's levels,
    alpha_max and beta_max, are taken at its two ends, and
    scale = a^alpha_max b^beta_max, which is negative for an odd power of
    an a < 0."""
    a, b = q.numerator, q.denominator
    nums = _q_numerators(a, b, D)

    def exponents(l, k, n):
        s_l = l * (n - 1) - l * (l - 1) // 2
        return s_l - k * (n - l), s_l + k * (n - l)

    ends = [exponents(mon.l, mon.k, n) for mon in terms
            for levels in [_levels(mon, D)] if levels
            for n in (levels[0], levels[-1])]
    top_a = max([0] + [alpha for alpha, _ in ends])
    top_b = max([0] + [beta for _, beta in ends])

    def boson(l, k, n):
        alpha, beta = exponents(l, k, n)
        factor = a ** (top_a - alpha) * b ** (top_b - beta)
        for j in range(l):
            factor *= nums[n - j]
        return factor
    return a ** top_a * b ** top_b, boson


def _numeric_matrix(x, D, modes, assignment):
    """(d, A) with A / d the matrix of x at a checked assignment, d a
    nonzero int and A a QMatrix over Z: the c of x's monomials are
    evaluated once each and cleared by L, the lcm of their denominators,
    and each amplitude is c L times the int boson factor of
    _numeric_boson, so d = L scale.  A c with a pole at the assignment, or a
    variable it leaves out, gives the entries of the symbolic matrix
    evaluated instead, cleared by _clear_rationals (see fock_matrix)."""
    n = D * 2 ** len(modes)
    try:
        values = [c.evaluate(**assignment) for c in x.terms.values()]
    except (sc.PoleError, ValueError):
        entries = list(fock_matrix(x, D, modes=modes).matrix.iter_entries())
        d, values = _clear_rationals([v.evaluate(**assignment)
                                      for _, _, v in entries])
        return d, QMatrix.from_entries(n, n, (
            (i, j, v) for (i, j, _), v in zip(entries, values)), 0)
    lcm_c = lcm(*(v.denominator for v in values))
    scale, boson = _numeric_boson(assignment["q"], x.terms, D)
    return lcm_c * scale, QMatrix.from_entries(n, n, _fill(
        {mon: v.numerator * (lcm_c // v.denominator)
         for mon, v in zip(x.terms, values)}, D, modes, boson), 0)


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
    """The fermion modes of the Fock basis of a plug-in of GL11_PLUG_INS:
    mode 1, and mode 2 when the plug-in is two-dimensional.  Any other
    mode, "abstract" included, is a ValueError."""
    # a tuple, not the dict: an unhashable mode is refused, not a TypeError
    if mode not in tuple(wa.GL11_PLUG_INS):
        raise ValueError("Fock checks need a concrete subalgebra mode, not %r"
                         % (mode,))
    return (1, 2)[:wa.plug_in(mode).dim]


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
    modes = fock_modes(mode)
    check_size(D, 4, "Fock dimension")
    fdim = 2 ** len(modes)
    shifts = relation_shifts(mode)
    if assignment is None:
        build, value, clear = (_cleared_matrix, lambda c: c,
                               sc.clear_denominators)
    else:
        assignment = _check_assignment(assignment)
        build, value, clear = (
            lambda x, D, modes: _numeric_matrix(x, D, modes, assignment),
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
