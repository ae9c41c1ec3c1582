"""The abstract quantum superalgebra U_q(gl(2/1)).

Words are sequences of generator letters (name, exponent); K letters carry
arbitrary integer exponents, E letters always exponent 1.  UElement is the
free QScalar-linear span of such words, which doubles as the free algebra
used by the derivation-chain tests: its words stay free, so adjacent equal
K letters are kept apart (only straightening output merges them).

GENERATORS is the alphabet: a letter (name, exponent) acts as the generator
letter(name, exponent), K1 or K1inv say, and k_weight(K_i, E_jk) gives the
q-exponent of the K-scaling relation K_i E_jk = q^d E_jk K_i.

evaluate is the one evaluator of a UElement through generator images: it
folds each word right to left, acc = apply(g, acc), and adds its leftmost
letter on acc into the sum in one step.  check_relations, built on it, is
the one relation checker of all four verification routes: W images on the
W identity, the Fock matrices, the generator matrices of the induced
module and the A0 matrices; on matrices that step is QMatrix._addmul.
The Fock and module routes reach it through check_cleared, which clears
the words and builds the identity of the cleared ring; on the Laurent
ring of the symbolic routes the matrices come built as qmatrix.PackedRows,
whose _addmul is that step there.

The straightening engine rewrites g . E12^N . E13^M into the ordered basis
E12^N' E13^M' . (word over the parabolic subalgebra A0) two ways:

* straighten       -- one closed-form identity per maximal run, using the
                      q^n, [n], (-1)^n, parity-branch coefficients,
                      cached: computed once per (g, N, M), a fresh list
                      for each caller;
* oracle_straighten -- the same rules pinned at n = 1 only, applied one
                      letter swap at a time; coefficients of longer runs
                      emerge by cancellation, never from closed forms.

Both rewrite through normalize_word, which expands each word once per
memo: a memo local to one straighten or oracle_straighten call, and in
check_straightening_identities one per identity and mode, kept across
n = 0..nmax, so g . base^n reuses g . base^(n-1).  Nothing is cached
between checks, and the two modes never share a memo.

Their term-by-term agreement over the verification grid is the machine
proof of the closed straightening identities at desk scale.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import NamedTuple

from . import scalars as sc
from .linear import Combination, accumulate, render_terms
from .reporting import check_size, residual_results
from .scalars import QScalar

# the 12 generator names; induced, realization and parsing take them from here
GENERATORS = (
    "E12", "E13", "E23", "E21", "E32", "E31",
    "K1", "K1inv", "K2", "K2inv", "K3", "K3inv",
)
ODD_GENERATORS = ("E23", "E32", "E13", "E31")


def k_weight(k, e):
    """The exponent d in K_i E_jk = q^d E_jk K_i, for k = "Ki" and
    e = "Ejk": [i == j] - [i == k]."""
    return (e[1] == k[1]) - (e[2] == k[1])


def letter(name, exp):
    """The generator name of the letter (name, exp): name for a positive
    exponent, name + "inv" for a negative one (_gletter inverts it)."""
    return name if exp > 0 else name + "inv"


def _clean_word(letters):
    return tuple((nm, e) for nm, e in letters if e != 0)


def _merge_adjacent_k(letters):
    """Collapse adjacent powers of the same K (used only to canonicalize
    straightening output, whose letters have exponents +-1; UElement words
    stay free)."""
    out = []
    for nm, e in letters:
        if out and nm[0] == "K" and out[-1][0] == nm:
            ne = out[-1][1] + e
            out.pop()
            if ne:
                out.append((nm, ne))
        else:
            out.append((nm, e))
    return tuple(out)


class UElement(Combination):
    """QScalar-linear combination of generator words."""

    __slots__ = ()
    UNIT = ()

    @classmethod
    def one(cls):
        return cls.term(())

    @classmethod
    def word(cls, *letters, coeff=None):
        """coeff times the word of the letters (name, exp); an exp that is
        not an int is a ValueError.  The names are free (the free algebra
        of the module docstring): image_of_uelement and apply_uelement
        check them."""
        for name, exp in letters:
            if not isinstance(exp, int):
                raise ValueError("letter (%r, %r) has an exponent that is "
                                 "not an int" % (name, exp))
        return cls.term(_clean_word(letters), coeff)

    def __mul__(self, other):
        if not isinstance(other, UElement):
            return Combination.__mul__(self, other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, _clean_word(w1 + w2), c1 * c2)
        return UElement(out)

    def __repr__(self):
        return render_uelement(self)

    __str__ = __repr__


def evaluate(el, apply, start, addmul=None):
    """Sum over the words of el of coeff * (word applied to start).  Each
    word acts right to left through acc = apply(g, acc), one letter at a
    time, with g = letter(name, exponent); apply must be linear in acc.
    The leftmost letter adds into total, a fresh zero, in one step:
    addmul(total, g, acc, c), c None for 1, by default
    total._iadd(apply(g, acc), c)."""
    if addmul is None:
        def addmul(total, g, acc, c):
            total._iadd(apply(g, acc), c)
    total = start.scale(sc.ZERO)
    for word, c in el.terms.items():
        c = None if c == 1 else c
        gs = [letter(nm, e) for nm, e in word for _ in range(abs(e))]
        if not gs:
            total._iadd(start, c)
            continue
        acc = start
        for g in reversed(gs[1:]):
            acc = apply(g, acc)
        addmul(total, gs[0], acc, c)
    return total


def _check_letters(relations, gens):
    """A ValueError naming the first relation letter with no entry in
    gens."""
    missing = sorted({letter(nm, e) for rel in relations
                      for el in (rel.lhs, rel.rhs) for word in el.terms
                      for nm, e in word} - gens.keys())
    if missing:
        raise ValueError("relation letter %r has no entry in gens"
                         % missing[0])


def check_relations(relations, gens, unit, cols=None):
    """One CheckResult per relation: the residual lhs - rhs, with gens[g]
    acting from the left on unit (gens[g] itself when the operand is unit),
    counted in the columns cols(rel), or in full when cols is None; a
    word's leftmost letter is added by total._addmul (by total._iadd when
    it acts on unit).  A letter with no entry in gens is a ValueError,
    before any product."""
    _check_letters(relations, gens)

    def apply(g, acc):
        return gens[g] if acc is unit else gens[g] * acc

    def addmul(total, g, acc, c):
        if acc is unit:
            total._iadd(gens[g], c)
        else:
            total._addmul(gens[g], acc, c)

    return residual_results(
        (rel.name, evaluate(rel.lhs - rel.rhs, apply, unit, addmul),
         None if cols is None else cols(rel))
        for rel in relations)


def check_cleared(relations, cleared, value, clear, cols):
    """check_relations on the cleared ring, for the generator matrices
    M_g = A_g / d_g, (d_g, A_g) = cleared[g].  The relations are taken as
    lhs = 0: a word w of lhs - rhs with coefficient c_w gets
    L value(c_w) / prod(d_g^|e|) over the letters g^e of w, where
    clear(values) gives L, the lcm of the denominators left, and the
    values times L.  The word applied to the A_g is then L value(c_w) M_w,
    so each residual is L != 0 times its value over the field of
    value(c_w), entry by entry: an entry is zero exactly when that value
    is, and the residual counts are those over Q(q, p) (symbolic) or Q
    (numeric).  A witness from such a residual must be divided by L to
    give its value in that field.  Each d_g is inverted once per check,
    as value(1) / d_g (QScalar.invert on the symbolic routes, the
    Fraction 1/d_g on the numeric one, never a float), and lhs - rhs is
    taken once per relation.  The words act on the identity of the
    cleared ring, whose unit is the image of value(1) under clear, built
    by the A_g's own class: the A_g are PackedRows on the Laurent ring of
    the symbolic routes, built so by their builders and never converted
    here, and QMatrix on the int ring of the numeric route, where packed
    rows would cost more.  A letter with no entry in cleared is a
    ValueError, as in check_relations, before any word is cleared, and so
    is an empty cleared, which leaves no matrix to size the identity."""
    _check_letters(relations, cleared)
    if not cleared:
        raise ValueError("no generator matrices to size the identity")
    one = value(sc.ONE)
    inverse = {g: one / d for g, (d, _) in cleared.items()}
    words = []
    for rel in relations:
        terms = (rel.lhs - rel.rhs).terms
        _, coeffs = clear([
            prod((inverse[letter(nm, e)] for nm, e in w
                  for _ in range(abs(e))), start=value(c))
            for w, c in terms.items()])
        words.append(rel._replace(lhs=UElement(dict(zip(terms, coeffs))),
                                  rhs=UElement.zero()))
    mats = {g: a for g, (_, a) in cleared.items()}
    _, (unit_scale,) = clear([one])
    a = next(iter(mats.values()))
    return check_relations(words, mats, type(a).identity(a.nrows, unit_scale),
                           cols)


def render_word(word):
    return sc.render_powers(word) or "1"


def render_uelement(x):
    words = sorted(x.terms, key=lambda w: (len(w), w))
    return render_terms((x.terms[w], render_word(w)) for w in words)


# ---------------------------------------------------------------------------
# the defining relation set
# ---------------------------------------------------------------------------

class Relation(NamedTuple):
    name: str
    family: str
    lhs: UElement
    rhs: UElement


def _cartan(i, j):
    """(K_i K_j - K_i^-1 K_j^-1)/(q - q^-1)."""
    plus = UElement.word(("K%d" % i, 1), ("K%d" % j, 1))
    minus = UElement.word(("K%d" % i, -1), ("K%d" % j, -1))
    return (plus - minus).scale(sc.EPS_INV)


def e13_definition():
    """E13 = E12 E23 - q^-1 E23 E12."""
    return UElement.word(("E12", 1), ("E23", 1)) \
        - UElement.word(("E23", 1), ("E12", 1)).scale(sc.QINV)


def e31_definition():
    """E31 = -E21 E32 + q^-1 E32 E21."""
    return -UElement.word(("E21", 1), ("E32", 1)) \
        + UElement.word(("E32", 1), ("E21", 1)).scale(sc.QINV)


def relation_set():
    """Every defining relation, as (lhs, rhs) pairs of UElements.

    Eight relation families plus the two definitions of the composite
    root vectors E13 and E31."""
    rels = []

    def add(name, family, lhs, rhs):
        rels.append(Relation(name, family, lhs, rhs))

    for i, j in ((1, 2), (1, 3), (2, 3)):
        for si in (1, -1):
            for sj in (1, -1):
                ki = ("K%d" % i, si)
                kj = ("K%d" % j, sj)
                add("K%d^%+d K%d^%+d commute" % (i, si, j, sj), "k-weyl",
                    UElement.word(ki, kj), UElement.word(kj, ki))
    for i in (1, 2, 3):
        add("K%d K%d^-1 = 1" % (i, i), "k-weyl",
            UElement.word(("K%d" % i, 1), ("K%d" % i, -1)), UElement.one())

    for i in (1, 2, 3):
        for ename in ("E12", "E21", "E23", "E32"):
            d = k_weight("K%d" % i, ename)
            ki = ("K%d" % i, 1)
            add("K%d %s = q^%+d %s K%d" % (i, ename, d, ename, i), "k-scaling",
                UElement.word(ki, (ename, 1)),
                UElement.word((ename, 1), ki).scale(sc.q_power(d)))

    add("[E12, E32] = 0", "zero-commutators",
        UElement.word(("E12", 1), ("E32", 1)),
        UElement.word(("E32", 1), ("E12", 1)))
    add("[E21, E23] = 0", "zero-commutators",
        UElement.word(("E21", 1), ("E23", 1)),
        UElement.word(("E23", 1), ("E21", 1)))

    k1k2 = (UElement.word(("K1", 1), ("K2", -1))
            - UElement.word(("K1", -1), ("K2", 1))).scale(sc.EPS_INV)
    add("[E12, E21] = (K1 K2^-1 - K1^-1 K2)/(q - q^-1)", "cartan-commutator",
        UElement.word(("E12", 1), ("E21", 1))
        - UElement.word(("E21", 1), ("E12", 1)),
        k1k2)

    add("{E23, E32} = (K2 K3 - K2^-1 K3^-1)/(q - q^-1)", "cartan-anticommutator",
        UElement.word(("E23", 1), ("E32", 1))
        + UElement.word(("E32", 1), ("E23", 1)),
        _cartan(2, 3))

    add("E23^2 = 0", "odd-squares",
        UElement.word(("E23", 1), ("E23", 1)), UElement.zero())
    add("E32^2 = 0", "odd-squares",
        UElement.word(("E32", 1), ("E32", 1)), UElement.zero())

    add("E12 E13 = q E13 E12", "serre-upper",
        UElement.word(("E12", 1), ("E13", 1)),
        UElement.word(("E13", 1), ("E12", 1)).scale(sc.Q))
    add("E21 E31 = q E31 E21", "serre-lower",
        UElement.word(("E21", 1), ("E31", 1)),
        UElement.word(("E31", 1), ("E21", 1)).scale(sc.Q))

    add("E13 = E12 E23 - q^-1 E23 E12", "definition-e13",
        UElement.word(("E13", 1)), e13_definition())
    add("E31 = -E21 E32 + q^-1 E32 E21", "definition-e31",
        UElement.word(("E31", 1)), e31_definition())

    return rels


def relation_families():
    seen = []
    for rel in relation_set():
        if rel.family not in seen:
            seen.append(rel.family)
    return seen


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

class StraightenTerm(NamedTuple):
    coeff: QScalar
    n: int              # E12 power
    m: int              # E13 power
    a0word: tuple       # letters over the parabolic subalgebra


def _cross(x, base, n):
    """Closed form for letter x moving right through base^n.

    Returns [(coeff, replacement letters)].  At n = 1 these are exactly the
    single-swap base rules the oracle engine is allowed to use."""
    name, e = x
    run = ((base, 1),) * n
    if name[0] == "K":
        d = k_weight(name, base)
        return [(sc.q_power(e * n * d), run + (x,))]
    qn = sc.q_integer(n)
    if base == "E12":
        if name == "E13":
            return [(sc.q_power(-n), run + (x,))]
        if name == "E23":
            out = [(sc.q_power(n), run + (x,))]
            if n:
                out.append((-(sc.Q * qn), run[:n - 1] + (("E13", 1),)))
            return out
        if name == "E21":
            out = [(sc.ONE, run + (x,))]
            if n:
                c = qn * sc.EPS_INV
                out.append((-(c * sc.q_power(n - 1)),
                            run[:n - 1] + (("K1", 1), ("K2", -1))))
                out.append((c * sc.q_power(-n + 1),
                            run[:n - 1] + (("K1", -1), ("K2", 1))))
            return out
        if name == "E32":
            return [(sc.ONE, run + (x,))]
        if name == "E31":
            out = [(sc.ONE, run + (x,))]
            if n:
                out.append((sc.q_power(n - 2) * qn,
                            run[:n - 1] + (("K1", 1), ("K2", -1), ("E32", 1))))
            return out
    if base == "E13":
        sgn = -sc.ONE if n & 1 else sc.ONE
        if name == "E23":
            return [(sgn * sc.q_power(n), run + (x,))]
        if name == "E32":
            out = [(sgn, run + (x,))]
            if n & 1:
                out.append((sc.q_power(-n),
                            (("E12", 1),) + run[:n - 1] + (("K2", 1), ("K3", 1))))
            return out
        if name == "E21":
            out = [(sc.ONE, run + (x,))]
            if n & 1:
                out.append((sc.ONE,
                            run[:n - 1] + (("E23", 1), ("K1", -1), ("K2", 1))))
            return out
        if name == "E31":
            out = [(sgn, run + (x,))]
            if n & 1:
                c = sc.QINV * sc.EPS_INV
                out.append((c, run[:n - 1] + (("K1", 1), ("K3", 1))))
                out.append((-c, run[:n - 1] + (("K1", -1), ("K3", -1))))
            return out
    if base == "E23":
        if name == "E32":
            sgn = -sc.ONE if n & 1 else sc.ONE
            out = [(sgn, run + (x,))]
            if n & 1:
                out.append((sc.EPS_INV, run[:n - 1] + (("K2", 1), ("K3", 1))))
                out.append((-sc.EPS_INV, run[:n - 1] + (("K2", -1), ("K3", -1))))
            return out
    raise ValueError("no straightening rule for %s through %s" % (name, base))


def _find_violation(word, rank, big):
    """The index of the rightmost letter standing before a letter of
    lower rank, rank being the index of each base and big that of every
    other letter; None when word is in order."""
    for idx in range(len(word) - 2, -1, -1):
        nm_next = word[idx + 1][0]
        r_next = rank.get(nm_next)
        if r_next is None:
            continue
        nm = word[idx][0]
        if nm == nm_next:
            continue
        if rank.get(nm, big) > r_next:
            return idx
    return None


_STEP_LIMIT = 2_000_000


def _normal_form(word, rank, big, single, memo):
    """The normal form {word: coeff} of 1 * word, from and into memo.

    A word is always rewritten at its rightmost violation idx, so its
    normal form does not depend on the path that reached it and can be
    shared.  At idx = 0 the letter crosses its run once by
    _cross (a run of 1 when single) and the normal form is that of the
    replacements.  At idx > 0, every rewrite lands inside tail = word[idx:]
    while tail is out of order, so nf(word) = sum over u of nf(tail) of
    c_u nf(word[:idx] + u); g base^n thus reuses the normal form of
    g base^(n-1).  Each word is expanded once per memo, on an explicit
    stack, so the depth of Python frames stays flat in the word length.
    memo must serve one (rank, single) only; its values are shared and
    never edited.  A word asked for while its own normal form is open is
    a cycle, and so is a run of more than _STEP_LIMIT expansions: both
    raise RuntimeError."""
    steps = 0
    opened = set()
    # entries (w, None, None) to visit w, (w, idx, None) once nf of
    # w[idx:] is known, (w, None, terms) once nf of each term's word is
    stack = [(word, None, None)]
    while stack:
        w, idx, terms = stack.pop()
        if terms is not None:
            out = {}
            for c, v in terms:
                for u, cu in memo[v].items():
                    accumulate(out, u, c * cu)
            memo[w] = out
            opened.discard(w)
            continue
        if idx is not None:
            head = w[:idx]
            terms = [(c, head + u) for u, c in memo[w[idx:]].items()]
        else:
            if w in memo:
                continue
            if w in opened:
                raise RuntimeError("straightening did not terminate")
            idx = _find_violation(w, rank, big)
            if idx is None:
                memo[w] = {w: sc.ONE}
                continue
            steps += 1
            if steps > _STEP_LIMIT:
                raise RuntimeError("straightening did not terminate")
            opened.add(w)
            if idx:
                stack.append((w, idx, None))
                stack.append((w[idx:], None, None))
                continue
            base = w[1][0]
            run = 1
            if not single:
                while run + 1 < len(w) and w[run + 1][0] == base:
                    run += 1
            tail = w[1 + run:]
            terms = [(c, repl + tail) for c, repl in _cross(w[0], base, run)]
        stack.append((w, None, terms))
        stack.extend((v, None, None) for _c, v in terms if v not in memo)
    return memo[word]


def normalize_word(coeff, word, bases=("E12", "E13"), single=False,
                   memo=None):
    """Rewrite into the PBW order (runs of `bases` first), returning a
    fresh dict word -> coefficient.  With single=True only n = 1 swaps
    are used.  memo, {word: normal form of 1 * word}, may be shared by
    calls with the same bases and single; by default each call has its
    own."""
    rank = {b: i for i, b in enumerate(bases)}
    nf = _normal_form(tuple(word), rank, len(bases), single,
                      {} if memo is None else memo)
    if not coeff:
        return {}
    return {w: coeff * c for w, c in nf.items()}


def _gletter(g):
    """The letter (name, +-1) of a generator name, the inverse of letter."""
    if g.endswith("inv"):
        return (g[:-3], -1)
    return (g, 1)


def _to_terms(word_dict):
    terms = {}
    for w, c in word_dict.items():
        n = 0
        while n < len(w) and w[n][0] == "E12":
            n += 1
        m = 0
        while n + m < len(w) and w[n + m][0] == "E13":
            m += 1
        if m >= 2:
            continue                       # E13^2 = 0 in the algebra
        accumulate(terms, (n, m, _merge_adjacent_k(w[n + m:])), c)
    out = [StraightenTerm(c, n, m, rest) for (n, m, rest), c in terms.items()]
    out.sort(key=lambda t: (-t.n, -t.m, t.a0word))
    return out


def check_generator(g):
    """A ValueError unless g is one of GENERATORS."""
    if g not in GENERATORS:
        raise ValueError("unknown generator %r" % (g,))


def check_state(N, M):
    """The rule for a basis state E12^N E13^M, in straightening and in the
    induced module: N is an int >= 0 and M is the int 0 or 1 (straighten's
    cache would take 1.0 for 1); else a ValueError."""
    if not (isinstance(N, int) and N >= 0 and isinstance(M, int)
            and M in (0, 1)):
        raise ValueError("invalid basis state (%r, %r)" % (N, M))


def _straighten(g, N, M, single):
    check_generator(g)
    check_state(N, M)
    word = (_gletter(g),) + (("E12", 1),) * N + (("E13", 1),) * M
    return _to_terms(normalize_word(sc.ONE, word, single=single))


@cache
def _closed_terms(g, N, M):
    return tuple(_straighten(g, N, M, False))


def straighten(g, N, M):
    """Closed-form expansion of g . E12^N . E13^M over the PBW basis; the
    arguments are checked before the cache sees them."""
    check_generator(g)
    check_state(N, M)
    return list(_closed_terms(g, N, M))


def oracle_straighten(g, N, M):
    """Same contract as straighten, computed only from n = 1 swaps."""
    return _straighten(g, N, M, True)


# the nine closed identities: (moving letter, run letter)
STRAIGHTENING_IDENTITIES = (
    ("E13", "E12"), ("E23", "E12"), ("E23", "E13"), ("E32", "E13"),
    ("E21", "E12"), ("E21", "E13"), ("E31", "E12"), ("E31", "E13"),
    ("E32", "E23"),
)


def check_straightening_identities(nmax):
    """Compare closed-form and single-swap normalization of g . base^n for
    every identity and every n <= nmax, on formal words (no nilpotency
    shortcuts): one CheckResult per identity, whose residual is closed minus
    single-swap keyed by (n, word).  The two agree by construction at n <= 1,
    so nmax must be at least 2."""
    check_size(nmax, 2, "nmax")
    bases_for = {"E12": ("E12", "E13"), "E13": ("E12", "E13"), "E23": ("E23",)}

    def expansions(g, base, single):
        memo = {}
        return Combination({
            (n, w): c for n in range(nmax + 1)
            for w, c in normalize_word(sc.ONE, ((g, 1),) + ((base, 1),) * n,
                                       bases_for[base], single,
                                       memo).items()})

    return residual_results(
        ("%s through %s^n" % (g, base),
         expansions(g, base, False) - expansions(g, base, True), None)
        for g, base in STRAIGHTENING_IDENTITIES)
