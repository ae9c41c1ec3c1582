"""The induced representation on basis vectors |N,M> (x) v.

A0Rep is a finite-dimensional representation of the parabolic subalgebra A0
(generated by E21, E23, E32 and the K_i^{+-1}) on a graded space V; from a
gl(1/1) representation one builds the highest-weight A0Rep with E21 -> 0 and
K1 -> p1 * id.  The two plug-ins, trivial_gl11_rep and fermionic_gl11_rep,
are defined in walgebra beside their W substitution and imported here.
The module W has basis (N, M, v-index) with N unbounded (states
materialize lazily) and M in {0, 1}.

Two independent action routes are implemented:

* act        -- the closed-form action formulas, one per generator,
                written once as a table of branches (_branches),
                evaluated in QScalars and extended linearly;
* act_oracle -- straighten g . E12^N E13^M via the rewriting engine, then
                push the leftover A0 word into V through the matrices.

Their agreement over the verification grid is a cross-check of the
closed formulas; the argument below certifies them for every N.
The relation checks are calls to superalgebra.check_relations: the gl(1/1)
plug-ins against the defining relations among E23, E32, K2 and K3
(validate_gl11_rep), the A0 representation against those inside A0
(validate_a0rep), both with the parity of the odd letters, and the module
with the matrices of act on the states N <= nmax, compared on the columns
N <= nmax - 2 (check_relations_on_module).  That truncation is exact: each
letter raises N by at most 1 and no relation word has more than two
letters, so from N <= nmax - 2 a word passes only through states N <= nmax.

The module check builds those matrices directly in the Laurent ring of the
symbolic Fock route (_cleared_module), by the Fock route's clearing rule.
A branch of _branches(g, M) is c q^(aN + b) [N + k]... |N + dn, m> (x)
(A0 word on v), the form of a Fock entry c q^(k(n-l)) [n]...[n-l+1]; it
depends on no level N, no rep and no index of V, and holds for every
N >= 0: a branch whose target lies below level 0 carries [N] = [0] = 0.
act puts each term's level into the branches and evaluates them in
QScalars; _cleared_module reads the table once per (g, M), clears every
c (q - q^-1)^-len(ks) times its A0 column values once, with one
scalars.clear_denominators call per generator, as _cleared_matrix clears
c (q - q^-1)^-l, and places each on every level N, times the Laurent
factor q^(aN + b) and the q^(N + k) - q^-(N + k), so [n] is never
expanded, the entries stay as short as the Fock route's (at most 4 terms
for both plug-ins) and (d_g, A_g) equal the Fock route's.  The words are
cleared by superalgebra.check_cleared: the counts are those over Q(q, p),
and a witness must be divided by the relation's L, as check_cleared says.
A rep whose matrices have a denominator factor outside q, q - 1 and q + 1,
such as 1/(q + 2), is cleared too: clear_denominators takes the lcm of
those factors into d_g.

module_image(g) reads g's branches into W by the highest-weight
dictionary: q^N -> t, |N+1> -> a+, [N] |N-1> -> a, |m><M| -> the matrix
units of the mode-1 fermion, the A0 letters -> W's gl(1/1) letters,
K1 -> p1, and E21, E31 -> 0.  realization takes its abstract images from
it, so the table is the one source of the generator action, and what the
table claims holds on every level N.  Let T be the action the table
defines on span{|N, M> (x) v}, for a gl(1/1) rep V:

1. relations-abstract (realization.verify_realization("abstract")) gives
   all 37 defining relations for the module_image's with residual exactly
   zero, an equality in W, since every rewrite step of W is one.
2. validate_gl11_rep checks the relations of relation_set among E23, E32,
   K2 and K3, which are W's gl(1/1) rules, plus parity.  A rep that passes
   makes Fock (x) V a W-module, its odd matrices Koszul-signed against
   b1, and on that module module_image(g) acts as T(g), term by term.
3. So T satisfies every defining relation on every level N.
4. At level 0, T(E12)^N T(E13)^M sends |0, 0> (x) v to |N, M> (x) v with
   coefficient 1, and T on |0, 0> (x) V is the A0 rep: a finite check read
   off the table at N = 0, made for both plug-ins and the 1/(q + 2) rep
   by the test suite.
5. By Frobenius reciprocity, v -> |0, 0> (x) v extends to a U-map from
   U (x)_A0 V onto T.  It sends the PBW basis E12^N E13^M (x) v to the
   basis |N, M> (x) v, so T is the induced module.

So the table is the induced action for every N and every rep that passes
validate_gl11_rep.  The act == act_oracle grid, lemma1 and the module
check are cross-checks, not links of this chain; a table rescaled as
E12, E13 -> 2x and E21, E31 -> x/2 keeps every relation, and the grid and
the level-0 check are what see it.  Not covered: an A0 rep with E21 != 0,
which highest_weight_a0rep never builds and the dictionary sends to 0.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import NamedTuple

from . import scalars as sc
from . import superalgebra as ua
from . import walgebra as wa
from .linear import Combination, accumulate
from .qmatrix import PackedRows, QMatrix
from .reporting import CheckResult, check_size
# the gl(1/1) plug-ins live beside their W substitution; read from here too
from .walgebra import Gl11Rep, fermionic_gl11_rep, trivial_gl11_rep


class RepresentationError(ValueError):
    """The supplied matrices do not satisfy the required relations."""


# ---------------------------------------------------------------------------
# checking the gl(1/1) plug-ins
# ---------------------------------------------------------------------------

_GL11_NAMES = ("e23", "e32", "k2", "k2inv", "k3", "k3inv")
_A0_NAMES = ("E21", "E23", "E32", "K1", "K1inv", "K2", "K2inv", "K3", "K3inv")


def _check_fields(mats, names, dim, parity):
    """A RepresentationError naming the first malformed field: the matrix
    names must be exactly names, each matrix a dim x dim QMatrix, and the
    parity a tuple of dim entries, each 0 or 1."""
    if not (isinstance(dim, int) and dim > 0):
        raise RepresentationError("dim %r is not a positive int" % (dim,))
    missing = [nm for nm in names if nm not in mats]
    if missing:
        raise RepresentationError("no matrix for %s" % missing[0])
    extra = [nm for nm in mats if nm not in names]
    if extra:
        raise RepresentationError("%r is not one of %s"
                                  % (extra[0], ", ".join(names)))
    for nm in names:
        m = mats[nm]
        if not (isinstance(m, QMatrix) and m.nrows == m.ncols == dim):
            raise RepresentationError("%s is not a %d x %d QMatrix"
                                      % (nm, dim, dim))
    if not (isinstance(parity, tuple) and len(parity) == dim
            and all(p in (0, 1) for p in parity)):
        raise RepresentationError("parity %r is not a tuple of %d entries, "
                                  "each 0 or 1" % (parity, dim))


def _check_rep(mats, dim, parity):
    """The relations of relation_set() whose letters all have matrices in
    mats, checked on the identity; then E23 and E32 must flip parity and
    E21 preserve it (those of them that mats has)."""
    def known(word):
        return all(ua.letter(nm, e) in mats for nm, e in word)

    rels = [rel for rel in ua.relation_set()
            if all(map(known, (*rel.lhs.terms, *rel.rhs.terms)))]
    results = ua.check_relations(rels, mats, QMatrix.identity(dim))
    for name, verb in (("E23", "flips"), ("E32", "flips"),
                       ("E21", "preserves")):
        if name in mats:
            bad = sum(1 for i, j, _v in mats[name].iter_entries()
                      if (parity[i] == parity[j]) == (verb == "flips"))
            results.append(CheckResult("%s %s parity" % (name, verb),
                                       bad == 0, bad))
    return results


def validate_gl11_rep(rep):
    """Check the defining relations among E23, E32, K2 and K3, and parity,
    after _check_fields has refused a malformed rep."""
    _check_fields(rep.mats, _GL11_NAMES, rep.dim, rep.parity)
    return _check_rep({nm.capitalize(): m for nm, m in rep.mats.items()},
                      rep.dim, rep.parity)


# ---------------------------------------------------------------------------
# the parabolic subalgebra representation
# ---------------------------------------------------------------------------

class _A0Fields(NamedTuple):
    dim: int
    mats: dict          # E21, E23, E32, K1..K3 and inverses
    parity: tuple


class A0Rep(_A0Fields):
    """A representation of A0 on a graded space of dimension dim.  Without
    __slots__ each rep has a __dict__, where _mats and _columns are kept
    after their first use; _replace gives a new rep, which builds its own."""

    @cached_property
    def _mats(self):
        """mats plus E31 = -E21 E32 + q^-1 E32 E21, built once, after
        _check_fields has refused a malformed rep."""
        m = self.mats
        _check_fields(m, _A0_NAMES, self.dim, self.parity)
        e31 = -(m["E21"] * m["E32"]) + (m["E32"] * m["E21"]).scale(sc.QINV)
        return dict(m, E31=e31)

    def mat(self, name, exp=1):
        """The matrix of the letter (name, exp); a ValueError names a letter
        whose exponent is not an int or that has no matrix here (checked by
        the name alone for exp 0)."""
        m = self._mats.get(ua.letter(name, exp or 1)) \
            if isinstance(exp, int) else None
        if m is None:
            raise ValueError("no matrix for the letter (%r, %r)" % (name, exp))
        if not exp:
            return QMatrix.identity(self.dim)
        return sc.power(m, abs(exp))

    def apply_word(self, word, vec):
        """A0 word applied to a sparse column vector over V."""
        for nm, e in reversed(word):
            vec = self.mat(nm, e).apply_column(vec)
            if not vec:
                break
        return vec

    def _column(self, word, i):
        """apply_word(word, {i: 1}) for a tuple word, computed once per rep
        and kept in _columns; the caller must not change it."""
        cols = self.__dict__.setdefault("_columns", {})
        if (word, i) not in cols:
            cols[word, i] = self.apply_word(word, {i: sc.ONE})
        return cols[word, i]


def highest_weight_a0rep(gl11rep):
    """Extend a gl(1/1) representation to A0 with E21 -> 0, K1 -> p1 * id."""
    bad = [r for r in validate_gl11_rep(gl11rep) if not r.passed]
    if bad:
        raise RepresentationError(
            "gl(1/1) relations violated: " + ", ".join(r.name for r in bad))
    d = gl11rep.dim
    mats = {nm.capitalize(): m for nm, m in gl11rep.mats.items()}
    mats.update(E21=QMatrix.zero(d), K1=QMatrix.identity(d, sc.P1),
                K1inv=QMatrix.identity(d, sc.P1.invert()))
    return A0Rep(dim=d, mats=mats, parity=gl11rep.parity)


def _a0_mats(rep):
    """rep._mats, kept after its first use, so _check_fields runs once; a
    RepresentationError for anything that is not an A0Rep."""
    if isinstance(rep, A0Rep):
        return rep._mats
    raise RepresentationError("a %s is not an A0Rep: highest_weight_a0rep "
                              "builds one" % type(rep).__name__)


def validate_a0rep(rep):
    """Report on every defining relation that lives inside A0, and parity."""
    return _check_rep(_a0_mats(rep), rep.dim, rep.parity)


# ---------------------------------------------------------------------------
# vectors of the induced module
# ---------------------------------------------------------------------------

class InducedVector(Combination):
    """Finite combination of basis states (N, M, v-index)."""

    __slots__ = ()

    @classmethod
    def basis_state(cls, N, M, idx=0, coeff=None):
        """coeff |N,M> (x) v_idx, for an int idx >= 0 and N, M as
        superalgebra.check_state requires; act and act_oracle check each
        term by the same rule and reject an idx outside V."""
        ua.check_state(N, M)
        if not isinstance(idx, int) or idx < 0:
            raise ValueError("invalid basis state (%r, %r, %r)" % (N, M, idx))
        return cls.term((N, M, idx), coeff)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (N, M, i) in sorted(self.terms):
            bits.append("(%s)|%d,%d;%d>" % (self.terms[(N, M, i)], N, M, i))
        return " + ".join(bits)


ACT_GENERATORS = ua.GENERATORS


def _check_term(N, M, i, rep):
    """rep is a well-formed A0Rep, and the state of a term follows the
    basis_state rule, with i inside V."""
    _a0_mats(rep)
    ua.check_state(N, M)
    if not (isinstance(i, int) and 0 <= i < rep.dim):
        raise ValueError("state index %r is outside the %d-dimensional "
                         "space V" % (i, rep.dim))


# K^+-1 E12^N E13^M = q^(+-(a N + b M)) E12^N E13^M K^+-1, with
# (a, b) = (k_weight(K, E12), k_weight(K, E13)); then K^+-1 acts on v
_K_WEIGHTS = {k + inv: (s * ua.k_weight(k, "E12"), s * ua.k_weight(k, "E13"))
              for k in ("K1", "K2", "K3") for inv, s in (("", 1), ("inv", -1))}


def _branches(g, M):
    """The closed forms, for every level N at once: g on |N,M> (x) v as a
    list of branches (dn, m, c, a, b, ks, word), each
    c q^(aN + b) prod([N + k] for k in ks) |N + dn, m> (x) (the A0 word,
    right to left, on v), with c a QScalar +-1 or +-1/(q - q^-1), a and b
    ints, ks () or (0,) and word a tuple of A0 letters: the form
    c q^(k(n-l)) [n]...[n-l+1] of a Fock entry.  Each lowering branch
    (dn = -1) carries [N], so its target below level 0 has amplitude 0."""
    one, eps_inv = sc.ONE, sc.EPS_INV
    if g in _K_WEIGHTS:
        a, b = _K_WEIGHTS[g]
        return [(0, M, one, a, b * M, (), ((g, 1),))]
    if g == "E12":
        return [(1, M, one, 0, 0, (), ())]
    if g == "E13":
        return [(0, 1, one, -1, 0, (), ())] if M == 0 else []
    if g == "E23":
        lower = [(-1, 1, -one, 0, 1, (0,), ())] if M == 0 else []
        return lower + [(0, M, -one if M else one, 1, M, (), (("E23", 1),))]
    if g == "E32":
        raised = [(1, 0, one, 0, -1, (), (("K2", 1), ("K3", 1)))] if M else []
        return raised + [(0, M, -one if M else one, 0, 0, (), (("E32", 1),))]
    if g == "E21":
        base = (0,)
        out = [(-1, M, -eps_inv, 1, M - 1, base, (("K1", 1), ("K2inv", 1))),
               (-1, M, eps_inv, -1, 1 - M, base, (("K1inv", 1), ("K2", 1)))]
        if M == 1:
            out.append((0, 0, one, 0, 0, (), (("E23", 1), ("K1inv", 1),
                                              ("K2", 1))))
        return out + [(0, M, one, 0, 0, (), (("E21", 1),))]
    # E31; (K1 K3 - K1^-1 K3^-1) / (q (q - q^-1)) is its Cartan term on M = 1
    cartan = eps_inv
    out = [(0, 0, one, 1, -1, (0,), (("K1", 1), ("K3", 1))),
           (0, 0, cartan, 0, -1, (), (("K1", 1), ("K3", 1))),
           (0, 0, -cartan, 0, -1, (), (("K1inv", 1), ("K3inv", 1)))] \
        if M else []
    signed = -one if M else one
    return out + [(-1, M, signed, 1, M - 2, (0,),
                   (("K1", 1), ("K2inv", 1), ("E32", 1))),
                  (0, M, signed, 0, 0, (), (("E31", 1),))]


# the A0 letters that are no letter of W, as they act on every
# highest-weight rep: K1^+-1 as the scalar p1^+-1, E21 and E31 as 0
_A0_SCALARS = {"K1": wa.one().scale(sc.P1),
               "K1inv": wa.one().scale(sc.P1.invert()),
               "E21": wa.WElement.zero(), "E31": wa.WElement.zero()}
_MODE1_UNITS = wa.matrix_units(1)


def _x_plus(k):
    """[x + k] = (q^k t - q^-k t^-1)/(q - q^-1) in W, from _ladder(k, 1)."""
    return wa.WElement({wa.UNIT._replace(k=tp): c
                        for tp, c in wa._ladder(k, 1).items()})


def module_image(g):
    """g's image in W, read off _branches by the highest-weight dictionary
    q^N -> t, |N+1> -> a+, [N] |N-1> -> a and |m><M| -> the mode-1
    fermion's matrix units: the sum over M in {0, 1} of each branch
    (dn, m, c, a, b, ks, word) of _branches(g, M) as
    c q^b L t^a prod([x + k]) |m><M| (the A0 word in W).  L is a+^dn for
    dn >= 0; for dn = -1 it is a, which takes the [N] of the shift 0 of ks
    (a|N> = [N]|N-1>), and a lowering branch without it is a ValueError.
    The A0 word is spelled in W's letters and _A0_SCALARS, so a branch
    whose word has E21 or E31 adds 0.  An odd word on M = 1 takes the
    Koszul sign -1 of passing the mode-1 fermion."""
    ua.check_generator(g)
    image = wa.WElement.zero()
    for M in (0, 1):
        for branch in _branches(g, M):
            dn, m, c, a, b, ks, word = branch
            ks = list(ks)
            if dn < 0:
                if dn != -1 or 0 not in ks:
                    raise ValueError("the lowering branch %r of %s does not "
                                     "carry [N]" % (branch, g))
                ks.remove(0)
            letters = [(_A0_SCALARS[nm] if nm in _A0_SCALARS
                        else wa.generator(nm.lower())) ** e for nm, e in word]
            lead = wa.generator("a") if dn < 0 else wa.generator("a+") ** dn
            sign = -1 if M and sum(x.parity() for x in letters) & 1 else 1
            image = image + reduce(wa.w_mul, [
                lead, wa.generator("t") ** a, *map(_x_plus, ks),
                _MODE1_UNITS[m, M], *letters]).scale(c * sc.q_power(b) * sign)
    return image


def act(g, x, rep):
    """Closed-form action of a generator on an induced-module vector: the
    branches of _branches at each term's level N, evaluated in QScalars
    and extended linearly; a target below level 0 is skipped, as its
    amplitude carries [0] = 0."""
    ua.check_generator(g)
    out = {}
    for (N, M, i), coeff in x.terms.items():
        _check_term(N, M, i, rep)
        for dn, m, c, a, b, ks, word in _branches(g, M):
            if N + dn < 0:
                continue
            amp = coeff * c * sc.q_power(a * N + b)
            for k in ks:
                amp = amp * sc.q_integer(N + k)
            for r, v in rep._column(word, i).items():
                accumulate(out, (N + dn, m, r), amp * v)
    return InducedVector(out)


def act_oracle(g, x, rep):
    """Action computed through the straightening engine: normal-order
    g . E12^N E13^M, then push each leftover A0 word into V."""
    ua.check_generator(g)
    out = {}
    for (N, M, i), c in x.terms.items():
        _check_term(N, M, i, rep)
        for term in ua.straighten(g, N, M):
            for r, v in rep._column(term.a0word, i).items():
                accumulate(out, (term.n, term.m, r), c * term.coeff * v)
    return InducedVector(out)


def apply_uelement(el, x, rep):
    """A UElement acting through `act`, letters applied right to left."""
    return ua.evaluate(el, lambda g, vec: act(g, vec, rep), x)


def _cleared_module(rep, nmax):
    """{g: (d_g, A_g)}: A_g / d_g the matrix of g on the states N <= nmax,
    ordered by (N, M, index), from one _branches call per (g, M).  As
    _cleared_matrix does on the Fock route, one clear_denominators call
    clears g's values c (q - q^-1)^-len(ks) times an A0 column's entry,
    once per (M, branch, index, row); each is placed on every level N whose
    target lies in [0, nmax], times its boson factor
    q^(aN + b) prod(q^(N + k) - q^-(N + k) for k in ks), and A_g is built
    once from those Laurent entries, straight into qmatrix.PackedRows."""
    D = 2 * rep.dim * (nmax + 1)
    cleared = {}
    for g in ACT_GENERATORS:
        terms = [(M, dn, m, a, b, ks, i, r, c * sc.EPS_INV ** len(ks) * v)
                 for M in (0, 1)
                 for dn, m, c, a, b, ks, word in _branches(g, M)
                 for i in range(rep.dim)
                 for r, v in rep._column(word, i).items()]
        d, coeffs = sc.clear_denominators(t[-1] for t in terms)
        entries = []
        for N in range(nmax + 1):   # level-major: rows list entries by N
            for (M, dn, m, a, b, ks, i, r, _), x in zip(terms, coeffs):
                if 0 <= N + dn <= nmax:
                    f = sc.laurent_q_power(a * N + b)
                    for k in ks:
                        f = f * sc.laurent_q_number(N + k)
                    entries.append(((2 * (N + dn) + m) * rep.dim + r,
                                    (2 * N + M) * rep.dim + i, x * f))
        cleared[g] = d, PackedRows.from_entries(D, D, entries)
    return cleared


def check_relations_on_module(rep, nmax):
    """Check every defining relation on the basis states N <= nmax - 2, with
    the generators as matrices on the states N <= nmax, built in the
    Laurent ring by _cleared_module (see the module docstring for why this
    is exact), then the words cleared as on the symbolic Fock route."""
    _a0_mats(rep)
    check_size(nmax, 2, "nmax")
    checked = range(2 * rep.dim * (nmax - 1))      # the states N <= nmax - 2
    return ua.check_cleared(ua.relation_set(), _cleared_module(rep, nmax),
                            lambda c: c, sc.clear_denominators,
                            lambda rel: checked)
