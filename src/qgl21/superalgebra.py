"""The abstract quantum superalgebra U_q(gl(2/1)).

Words are sequences of generator letters (name, exponent); K letters carry
arbitrary integer exponents, E letters always exponent 1.  UElement is the
free QScalar-linear span of such words (adjacent equal K letters merge),
which doubles as the free algebra used by the derivation-chain tests.

evaluate is the one evaluator of a UElement through generator images: it
folds each word right to left, acc = apply(g, acc), and sums coeff * acc.
All four verification routes check the relation set through it: W normal
ordering (realization.image_of_uelement, apply = left multiplication by a
generator image in W), the induced module (induced.apply_uelement,
apply = act), and the Fock and A0 matrices (apply = left multiplication by
a generator matrix).

The straightening engine rewrites g . E12^N . E13^M into the ordered basis
E12^N' E13^M' . (word over the parabolic subalgebra A0) two ways:

* straighten       -- one closed-form identity per maximal run, using the
                      q^n, [n], (-1)^n, parity-branch coefficients;
* oracle_straighten -- the same rules pinned at n = 1 only, applied one
                      letter swap at a time; coefficients of longer runs
                      emerge by cancellation, never from closed forms.

Their term-by-term agreement over the verification grid is the machine
proof of the closed straightening identities at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import scalars as sc
from .linear import Combination, accumulate, render_terms
from .scalars import QScalar

ODD_GENERATORS = ("E23", "E32", "E13", "E31")
A0_GENERATOR_NAMES = ("E21", "E23", "E32", "E31", "K1", "K2", "K3")

# exponent of q in K_i E_jk = q^{d} E_jk K_i, per unit K power
_K_SCALING = {
    ("K1", "E12"): 1, ("K2", "E12"): -1, ("K3", "E12"): 0,
    ("K1", "E21"): -1, ("K2", "E21"): 1, ("K3", "E21"): 0,
    ("K1", "E23"): 0, ("K2", "E23"): 1, ("K3", "E23"): -1,
    ("K1", "E32"): 0, ("K2", "E32"): -1, ("K3", "E32"): 1,
    ("K1", "E13"): 1, ("K2", "E13"): 0, ("K3", "E13"): -1,
    ("K1", "E31"): -1, ("K2", "E31"): 0, ("K3", "E31"): 1,
}


def _clean_word(letters):
    return tuple((nm, e) for nm, e in letters if e != 0)


def _merge_adjacent_k(letters):
    """Collapse adjacent powers of the same K (used only to canonicalize
    straightening output; UElement words stay free)."""
    out = []
    for nm, e in letters:
        if e == 0:
            continue
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
        return cls({(): sc.ONE})

    @classmethod
    def word(cls, *letters, coeff=None):
        c = sc.ONE if coeff is None else coeff
        w = _clean_word(letters)
        return cls({w: c} if c else {})

    @classmethod
    def gen(cls, name, exp=1):
        return cls.word((name, exp))

    def __mul__(self, other):
        if isinstance(other, UElement):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    accumulate(out, _clean_word(w1 + w2), c1 * c2)
            return UElement(out)
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        return NotImplemented

    def __repr__(self):
        return render_uelement(self)

    __str__ = __repr__


def evaluate(el, apply, start):
    """Sum over the words of el of coeff * (word applied to start).  Each
    word acts right to left through acc = apply(g, acc), one letter at a
    time, with g the generator name for a positive power and name + "inv"
    for a negative one; apply must be linear in acc."""
    total = start.scale(sc.ZERO)
    for word, c in el.terms.items():
        acc = start
        for nm, e in reversed(word):
            g = nm if e > 0 else nm + "inv"
            for _ in range(abs(e)):
                acc = apply(g, acc)
        total = total + acc.scale(c)
    return total


def render_word(word):
    if not word:
        return "1"
    parts = []
    for nm, e in word:
        parts.append(nm if e == 1 else "%s^%d" % (nm, e))
    return "*".join(parts)


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
            d = _K_SCALING[("K%d" % i, ename)]
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
        UElement.gen("E13"), e13_definition())
    add("E31 = -E21 E32 + q^-1 E32 E21", "definition-e31",
        UElement.gen("E31"), e31_definition())

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

@dataclass(frozen=True)
class StraightenTerm:
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
        d = _K_SCALING[(name, base)]
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


def _find_violation(word, bases):
    rank = {b: i for i, b in enumerate(bases)}
    big = len(bases)
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


def normalize_word(coeff, word, bases=("E12", "E13"), single=False):
    """Rewrite into the PBW order (runs of `bases` first), returning a dict
    word -> coefficient.  With single=True only n = 1 swaps are used."""
    done = {}
    stack = [(coeff, tuple(word))]
    guard = 0
    while stack:
        guard += 1
        if guard > 2_000_000:
            raise RuntimeError("straightening did not terminate")
        c, w = stack.pop()
        idx = _find_violation(w, bases)
        if idx is None:
            accumulate(done, w, c)
            continue
        base = w[idx + 1][0]
        if single:
            run = 1
        else:
            run = 1
            while idx + 1 + run < len(w) and w[idx + 1 + run][0] == base:
                run += 1
        tail = w[idx + 1 + run:]
        head = w[:idx]
        for cc, repl in _cross(w[idx], base, run):
            stack.append((c * cc, head + repl + tail))
    return done


def _gletter(g):
    if isinstance(g, tuple):
        return g
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
        rest = _merge_adjacent_k(w[n + m:])
        if any(rest[i][0] == rest[i + 1][0] and rest[i][0] in ODD_GENERATORS
               for i in range(len(rest) - 1)):
            continue                       # adjacent odd square
        accumulate(terms, (n, m, rest), c)
    out = [StraightenTerm(c, n, m, rest) for (n, m, rest), c in terms.items()]
    out.sort(key=lambda t: (-t.n, -t.m, t.a0word))
    return out


def straighten(g, N, M):
    """Closed-form expansion of g . E12^N . E13^M over the PBW basis."""
    word = (_gletter(g),) + (("E12", 1),) * N + (("E13", 1),) * M
    return _to_terms(normalize_word(sc.ONE, word))


def oracle_straighten(g, N, M):
    """Same contract as straighten, computed only from n = 1 swaps."""
    word = (_gletter(g),) + (("E12", 1),) * N + (("E13", 1),) * M
    return _to_terms(normalize_word(sc.ONE, word, single=True))


STRAIGHTEN_GENERATORS = (
    "E12", "E13", "E23", "E32", "E21", "E31",
    "K1", "K1inv", "K2", "K2inv", "K3", "K3inv",
)

# the nine closed identities: (moving letter, run letter)
STRAIGHTENING_IDENTITIES = (
    ("E13", "E12"), ("E23", "E12"), ("E23", "E13"), ("E32", "E13"),
    ("E21", "E12"), ("E21", "E13"), ("E31", "E12"), ("E31", "E13"),
    ("E32", "E23"),
)


def check_straightening_identities(nmax):
    """Compare closed-form and single-swap normalization of g . base^n for
    every identity and every n <= nmax, on formal words (no nilpotency
    shortcuts), as a list of (name, passed, mismatch count)."""
    results = []
    bases_for = {"E12": ("E12", "E13"), "E13": ("E12", "E13"), "E23": ("E23",)}
    for g, base in STRAIGHTENING_IDENTITIES:
        mismatches = 0
        for n in range(nmax + 1):
            word = ((g, 1),) + ((base, 1),) * n
            closed = normalize_word(sc.ONE, word, bases_for[base])
            stepped = normalize_word(sc.ONE, word, bases_for[base], single=True)
            if closed != stepped:
                keys = set(closed) | set(stepped)
                mismatches += sum(
                    1 for k in keys
                    if closed.get(k, sc.ZERO) != stepped.get(k, sc.ZERO))
        results.append(("%s through %s^n" % (g, base), mismatches == 0,
                        mismatches))
    return results
