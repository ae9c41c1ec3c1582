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
  arithmetic on the truncation-safe columns.

Both evaluate each side of a relation with superalgebra.evaluate, letting
the generator images (image_of_uelement) or their matrices act on the
identity from the left; the numeric Fock route evaluates the relation
coefficients at the assignment first.

dyson_check confirms that an ordinary boson A with a = ([N+1]/(N+1)) A and
q^x = q^N reproduces the q-boson matrices entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import scalars as sc
from . import superalgebra as ua
from . import walgebra as wa
from .qmatrix import QMatrix
from .reporting import CheckResult
from .scalars import QScalar
from .walgebra import generator, substitute_gl11, w_mul

SUBALGEBRA_MODES = ("abstract", "trivial", "fermionic")

GENERATOR_IMAGE_NAMES = (
    "E12", "E13", "E23", "E21", "E32", "E31",
    "K1", "K1inv", "K2", "K2inv", "K3", "K3inv",
)

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


_IMAGE_CACHE = {}


@dataclass(frozen=True, eq=False)
class RealizationMap:
    mode: str
    images: dict

    def image(self, name):
        return self.images[name]


def realization_map(mode="abstract"):
    """The generator-image table for a subalgebra mode, cached."""
    if mode not in SUBALGEBRA_MODES:
        raise ValueError("unknown subalgebra mode %r" % mode)
    cached = _IMAGE_CACHE.get(mode)
    if cached is None:
        abstract = _IMAGE_CACHE.get("abstract")
        if abstract is None:
            abstract = RealizationMap("abstract", _abstract_images())
            _IMAGE_CACHE["abstract"] = abstract
        if mode == "abstract":
            cached = abstract
        else:
            cached = RealizationMap(mode, {
                name: substitute_gl11(el, mode)
                for name, el in abstract.images.items()})
            _IMAGE_CACHE[mode] = cached
    return cached


def rho(g, mode="abstract"):
    """Image of an abstract generator under the realization map."""
    images = realization_map(mode).images
    if g not in images:
        raise ValueError("unknown generator %r" % g)
    return images[g]


def image_of_uelement(el, mode="abstract"):
    images = realization_map(mode).images
    return ua.evaluate(el, lambda g, acc: w_mul(images[g], acc), wa.one())


def verify_realization(mode="abstract"):
    """Map every defining relation through rho and reduce in W; the report
    lists the exact residual term count for each relation."""
    results = []
    for rel in ua.relation_set():
        diff = image_of_uelement(rel.lhs, mode) - image_of_uelement(rel.rhs, mode)
        results.append(CheckResult(rel.name, diff.is_zero(), len(diff.terms)))
    return results


# ---------------------------------------------------------------------------
# truncated Fock-space rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FockMatrix:
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

    def entry(self, i, j):
        return self.matrix.entry(i, j)


def _fock_basis(D, modes):
    occs = [()]
    for _mode in modes:
        occs = [o + (f,) for o in occs for f in (0, 1)]
    return tuple((n,) + o for n in range(D) for o in occs)


def fock_matrix(x, D, assignment=None, modes=None):
    """Render a W element on the D-level truncated Fock space.

    Elements still carrying abstract gl(1/1) factors have no matrix; apply
    substitute_gl11 first.  With an assignment, entries are evaluated to
    exact rationals (q = 0, +1, -1 are rejected as deformation
    singularities)."""
    if D < 2:
        raise ValueError("Fock dimension must be at least 2")
    if x.has_gl11():
        raise ValueError(
            "element has abstract gl(1/1) factors; substitute a realization first")
    if assignment is not None:
        assignment = _check_assignment(assignment)
    if modes is None:
        modes = x.fermion_modes()
    modes = tuple(modes)
    basis = _fock_basis(D, modes)
    index = {lab: i for i, lab in enumerate(basis)}
    fdim = 2 ** len(modes)
    mat = QMatrix.zero(D * fdim)
    raising = max(0, x.max_raising())
    for col, lab in enumerate(basis):
        n = lab[0]
        occ = dict(zip(modes, lab[1:]))
        for mon, c in x.terms.items():
            amp = c
            # mode-2 operators act first and cross the mode-1 occupation
            f1 = occ.get(1, 0)
            f2 = occ.get(2, 0)
            if mon.i2 or mon.j2:
                if 2 not in occ:
                    raise ValueError("element uses fermion mode 2 "
                                     "but the basis does not include it")
                if mon.j2:
                    if f2 == 0:
                        continue
                    f2 = 0
                if mon.i2:
                    if f2 == 1:
                        continue
                    f2 = 1
                if f1 and (mon.i2 + mon.j2) & 1:
                    amp = -amp
            if mon.i1 or mon.j1:
                if 1 not in occ:
                    raise ValueError("element uses fermion mode 1 "
                                     "but the basis does not include it")
                if mon.j1:
                    if f1 == 0:
                        continue
                    f1 = 0
                if mon.i1:
                    if f1 == 1:
                        continue
                    f1 = 1
            # boson: a^l, then t^k, then a+^m
            if n < mon.l:
                continue
            n2 = n
            for _ in range(mon.l):
                amp = amp * sc.q_integer(n2)
                n2 -= 1
            if mon.k:
                amp = amp * sc.q_power(mon.k * n2)
            n2 += mon.m
            if n2 >= D:
                continue        # truncated
            row_lab = (n2,) + tuple(
                f1 if mode == 1 else f2 for mode in modes)
            if assignment is not None:
                amp = QScalar.from_rational(amp.evaluate(**assignment))
            mat.add_entry(index[row_lab], col, amp)
    boundary = tuple(i for i, lab in enumerate(basis)
                     if lab[0] >= D - raising)
    return FockMatrix(dim=D * fdim, boson_dim=D, modes=modes, matrix=mat,
                      basis=basis, boundary_columns=boundary)


def _assigned_rational(assignment, name):
    value = assignment.get(name)
    if value is None:
        return None
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError("%s = %r is not a rational number" % (name, value)) \
            from None


def _check_assignment(assignment):
    """The assignment with Fraction values; a ValueError names the variable
    of a missing, non-rational or singular value, or an unknown name."""
    unknown = sorted(set(assignment) - set(sc.VAR_NAMES))
    if unknown:
        raise ValueError("%s is not one of q, p1, p2, p3" % unknown[0])
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
    images = realization_map(mode).images
    raise_of = {nm: max(0, el.max_raising()) for nm, el in images.items()}

    def word_shift(word):
        total = 0
        for nm, e in word:
            key = nm if e > 0 else nm + "inv"
            total += raise_of[key] * abs(e)
        return total

    shifts = {}
    for rel in ua.relation_set():
        words = list(rel.lhs.terms) + list(rel.rhs.terms)
        shifts[rel.name] = max((word_shift(w) for w in words), default=0)
    return shifts


def check_relations_on_fock(mode, D, assignment=None):
    """Re-check every relation by exact matrix arithmetic on the truncated
    Fock space, comparing only truncation-safe columns."""
    if mode not in ("trivial", "fermionic"):
        raise ValueError("Fock checks need a concrete subalgebra mode")
    if D < 4:
        raise ValueError("Fock dimension must be at least 4")
    images = realization_map(mode).images
    modes = fock_modes(mode)
    fdim = 2 ** len(modes)
    mats = {nm: fock_matrix(el, D, assignment, modes).matrix
            for nm, el in images.items()}
    shifts = relation_shifts(mode)

    def side_matrix(el):
        if assignment is not None:
            el = ua.UElement({w: QScalar.from_rational(c.evaluate(**assignment))
                              for w, c in el.terms.items()})
        return ua.evaluate(el, lambda g, m: mats[g] * m,
                           QMatrix.identity(D * fdim))

    results = []
    for rel in ua.relation_set():
        shift = shifts[rel.name]
        safe_cols = [i for i in range(D * fdim)
                     if i // fdim <= D - 1 - shift]
        excluded = D * fdim - len(safe_cols)
        diff = side_matrix(rel.lhs) - side_matrix(rel.rhs)
        residuals = diff.nnz(cols=safe_cols)
        results.append(CheckResult(
            rel.name, residuals == 0, residuals,
            detail="%d boundary columns excluded" % excluded))
    return results


# ---------------------------------------------------------------------------
# Dyson substitution: ordinary boson A with [A, A+] = 1
# ---------------------------------------------------------------------------

def dyson_check(D):
    """Build A+, A, N with A|n> = n|n-1>, substitute a+ = A+,
    a = ([N+1]/(N+1)) A, q^x = q^N, and verify the q-boson relations and
    the Fock matrices entry for entry."""
    if D < 4:
        raise ValueError("Fock dimension must be at least 4")
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
    results = []
    for name, residual, cols in checks:
        bad = residual.nnz(cols=cols)
        results.append(CheckResult(name, bad == 0, bad))
    return results
