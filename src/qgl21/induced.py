"""The induced representation on basis vectors |N,M> (x) v.

A0Rep is a finite-dimensional representation of the parabolic subalgebra A0
(generated by E21, E23, E32 and the K_i^{+-1}) on a graded space V; from a
gl(1/1) representation one builds the highest-weight A0Rep with E21 -> 0 and
K1 -> p1 * id.  The module W has basis (N, M, v-index) with N unbounded
(states materialize lazily, so no truncation enters these checks), M in
{0, 1}.

Two independent action routes are implemented:

* act        -- the closed-form action formulas, one per generator;
* act_oracle -- straighten g . E12^N E13^M via the rewriting engine, then
                push the leftover A0 word into V through the matrices.

Their agreement over the verification grid certifies the closed formulas.
The relation checks go through superalgebra.evaluate: on the module with
act as the generator action (apply_uelement), and inside A0 with the
representation matrices (validate_a0rep).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars as sc
from . import superalgebra as ua
from .linear import Combination, accumulate
from .qmatrix import QMatrix
from .reporting import CheckResult


class RepresentationError(ValueError):
    """The supplied matrices do not satisfy the required relations."""


# ---------------------------------------------------------------------------
# gl(1/1) plug-ins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gl11Rep:
    """Matrices for e23, e32, k2, k3 (and inverses) on a graded space."""
    dim: int
    mats: dict
    parity: tuple


def trivial_gl11_rep():
    """One-dimensional: e's -> 0, k2 -> p2, k3 -> p2^-1."""
    z = QMatrix.zero(1)
    return Gl11Rep(
        dim=1,
        mats={
            "e23": z, "e32": z,
            "k2": QMatrix.identity(1, sc.P2),
            "k2inv": QMatrix.identity(1, sc.P2.invert()),
            "k3": QMatrix.identity(1, sc.P2.invert()),
            "k3inv": QMatrix.identity(1, sc.P2),
        },
        parity=(0,))


def fermionic_gl11_rep():
    """Two-dimensional fermion-mode realization: e23 -> b2+,
    e32 -> [lambda2+lambda3] b2, k2 -> p2 diag(1, q), k3 -> p3 diag(1, q^-1)."""
    lam = (sc.P2 * sc.P3 - (sc.P2 * sc.P3).invert()) * sc.EPS_INV

    def diag(a, b):
        return QMatrix.from_entries(2, 2, [(0, 0, a), (1, 1, b)])

    return Gl11Rep(
        dim=2,
        mats={
            "e23": QMatrix.from_entries(2, 2, [(1, 0, sc.ONE)]),
            "e32": QMatrix.from_entries(2, 2, [(0, 1, lam)]),
            "k2": diag(sc.P2, sc.P2 * sc.Q),
            "k2inv": diag(sc.P2.invert(), (sc.P2 * sc.Q).invert()),
            "k3": diag(sc.P3, sc.P3 * sc.QINV),
            "k3inv": diag(sc.P3.invert(), (sc.P3 * sc.QINV).invert()),
        },
        parity=(0, 1))


def validate_gl11_rep(rep):
    """Check the gl(1/1) relations as matrix identities."""
    m = rep.mats
    d = rep.dim
    ident = QMatrix.identity(d)
    cartan = (m["k2"] * m["k3"] - m["k2inv"] * m["k3inv"]).scale(sc.EPS_INV)
    checks = [
        ("k2 k2^-1 = 1", m["k2"] * m["k2inv"] - ident),
        ("k3 k3^-1 = 1", m["k3"] * m["k3inv"] - ident),
        ("k2 k3 = k3 k2", m["k2"] * m["k3"] - m["k3"] * m["k2"]),
        ("k2 e23 = q e23 k2", m["k2"] * m["e23"] - (m["e23"] * m["k2"]).scale(sc.Q)),
        ("k3 e23 = q^-1 e23 k3", m["k3"] * m["e23"] - (m["e23"] * m["k3"]).scale(sc.QINV)),
        ("k2 e32 = q^-1 e32 k2", m["k2"] * m["e32"] - (m["e32"] * m["k2"]).scale(sc.QINV)),
        ("k3 e32 = q e32 k3", m["k3"] * m["e32"] - (m["e32"] * m["k3"]).scale(sc.Q)),
        ("e23^2 = 0", m["e23"] * m["e23"]),
        ("e32^2 = 0", m["e32"] * m["e32"]),
        ("{e23, e32} = cartan", m["e23"] * m["e32"] + m["e32"] * m["e23"] - cartan),
    ]
    results = [CheckResult(name, residual.nnz() == 0, residual.nnz())
               for name, residual in checks]
    for name in ("e23", "e32"):
        bad = sum(1 for i, j, _v in m[name].iter_entries()
                  if rep.parity[i] == rep.parity[j])
        results.append(CheckResult("%s flips parity" % name, bad == 0, bad))
    return results


# ---------------------------------------------------------------------------
# the parabolic subalgebra representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class A0Rep:
    dim: int
    mats: dict          # E21, E23, E32, K1..K3 and inverses
    parity: tuple

    def mat(self, name, exp=1):
        if name == "E31":
            # E31 = -E21 E32 + q^-1 E32 E21
            return -(self.mats["E21"] * self.mats["E32"]) \
                + (self.mats["E32"] * self.mats["E21"]).scale(sc.QINV)
        if exp < 0:
            name = name + "inv"
            exp = -exp
        base = self.mats[name]
        out = base
        for _ in range(exp - 1):
            out = out * base
        return out

    def apply_word(self, word, vec):
        """A0 word applied to a sparse column vector over V."""
        for nm, e in reversed(word):
            vec = self.mat(nm, e).apply_column(vec)
            if not vec:
                break
        return vec


def highest_weight_a0rep(gl11rep):
    """Extend a gl(1/1) representation to A0 with E21 -> 0, K1 -> p1 * id."""
    bad = [r for r in validate_gl11_rep(gl11rep) if not r.passed]
    if bad:
        raise RepresentationError(
            "gl(1/1) relations violated: " + ", ".join(r.name for r in bad))
    d = gl11rep.dim
    mats = {
        "E21": QMatrix.zero(d),
        "E23": gl11rep.mats["e23"],
        "E32": gl11rep.mats["e32"],
        "K1": QMatrix.identity(d, sc.P1),
        "K1inv": QMatrix.identity(d, sc.P1.invert()),
        "K2": gl11rep.mats["k2"],
        "K2inv": gl11rep.mats["k2inv"],
        "K3": gl11rep.mats["k3"],
        "K3inv": gl11rep.mats["k3inv"],
    }
    return A0Rep(dim=d, mats=mats, parity=gl11rep.parity)


def validate_a0rep(rep):
    """Report on every defining relation that lives inside A0."""
    results = []
    a0_names = set(ua.A0_GENERATOR_NAMES)
    for rel in ua.relation_set():
        letters = {nm for w in list(rel.lhs.terms) + list(rel.rhs.terms)
                   for nm, _e in w}
        if not letters <= a0_names:
            continue
        residual = _a0_matrix(rel.lhs, rep) - _a0_matrix(rel.rhs, rep)
        results.append(CheckResult(rel.name, residual.nnz() == 0, residual.nnz()))
    for name in ("E23", "E32"):
        bad = sum(1 for i, j, _v in rep.mats[name].iter_entries()
                  if rep.parity[i] == rep.parity[j])
        results.append(CheckResult("%s flips parity" % name, bad == 0, bad))
    for name in ("E21",):
        bad = sum(1 for i, j, _v in rep.mats[name].iter_entries()
                  if rep.parity[i] != rep.parity[j])
        results.append(CheckResult("%s preserves parity" % name, bad == 0, bad))
    return results


def _a0_matrix(el, rep):
    return ua.evaluate(el, lambda g, m: rep.mat(g) * m,
                       QMatrix.identity(rep.dim))


# ---------------------------------------------------------------------------
# vectors of the induced module
# ---------------------------------------------------------------------------

class InducedVector(Combination):
    """Finite combination of basis states (N, M, v-index)."""

    __slots__ = ()

    @classmethod
    def basis_state(cls, N, M, idx=0, coeff=None):
        if N < 0 or M not in (0, 1):
            raise ValueError("invalid basis state (%r, %r)" % (N, M))
        return cls({(N, M, idx): coeff if coeff is not None else sc.ONE})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (N, M, i) in sorted(self.terms):
            bits.append("(%s)|%d,%d;%d>" % (self.terms[(N, M, i)], N, M, i))
        return " + ".join(bits)


ACT_GENERATORS = (
    "E12", "E13", "E23", "E21", "E32", "E31",
    "K1", "K1inv", "K2", "K2inv", "K3", "K3inv",
)


def act(g, x, rep):
    """Closed-form action of a generator on an induced-module vector."""
    out = {}

    def put(N, M, vec, c):
        if not c:
            return
        for i, v in vec.items():
            accumulate(out, (N, M, i), c * v)

    for (N, M, i), c in x.terms.items():
        e_i = {i: sc.ONE}

        def phi(*words):
            vec = e_i
            for nm in reversed(words):
                vec = rep.mat(nm).apply_column(vec)
            return vec

        if g == "E12":
            put(N + 1, M, e_i, c)
        elif g == "E13":
            if M == 0:
                put(N, 1, e_i, c * sc.q_power(-N))
        elif g == "E23":
            if N > 0 and M == 0:
                put(N - 1, 1, e_i, -(c * sc.Q * sc.q_integer(N)))
            sgn = -sc.ONE if M else sc.ONE
            put(N, M, phi("E23"), c * sgn * sc.q_power(N + M))
        elif g == "K1":
            put(N, M, phi("K1"), c * sc.q_power(N + M))
        elif g == "K1inv":
            put(N, M, phi("K1inv"), c * sc.q_power(-N - M))
        elif g == "K2":
            put(N, M, phi("K2"), c * sc.q_power(-N))
        elif g == "K2inv":
            put(N, M, phi("K2inv"), c * sc.q_power(N))
        elif g == "K3":
            put(N, M, phi("K3"), c * sc.q_power(-M))
        elif g == "K3inv":
            put(N, M, phi("K3inv"), c * sc.q_power(M))
        elif g == "E32":
            if M == 1:
                put(N + 1, 0, phi("K2", "K3"), c * sc.QINV)
                put(N, 1, phi("E32"), -c)
            else:
                put(N, 0, phi("E32"), c)
        elif g == "E21":
            if N > 0:
                base = c * sc.q_integer(N) * sc.EPS_INV
                put(N - 1, M, phi("K1", "K2inv"), -(base * sc.q_power(N + M - 1)))
                put(N - 1, M, phi("K1inv", "K2"), base * sc.q_power(-N - M + 1))
            if M == 1:
                put(N, 0, phi("E23", "K1inv", "K2"), c)
            put(N, M, phi("E21"), c)
        elif g == "E31":
            sgn = -sc.ONE if M else sc.ONE
            if M == 1:
                if N > 0:
                    put(N, 0, phi("K1", "K3"),
                        c * sc.q_power(N - 1) * sc.q_integer(N))
                # (K1 K3 - K1^-1 K3^-1) / (q (q - q^-1))
                cartan = c * sc.QINV * sc.EPS_INV
                put(N, 0, phi("K1", "K3"), cartan)
                put(N, 0, phi("K1inv", "K3inv"), -cartan)
            if N > 0:
                put(N - 1, M, phi("K1", "K2inv", "E32"),
                    c * sgn * sc.q_power(N + M - 2) * sc.q_integer(N))
            put(N, M, phi("E31"), c * sgn)
        else:
            raise ValueError("unknown generator %r" % g)
    return InducedVector(out)


def act_oracle(g, x, rep, single_swaps=False):
    """Action computed through the straightening engine: normal-order
    g . E12^N E13^M, then push each leftover A0 word into V."""
    straighten = ua.oracle_straighten if single_swaps else ua.straighten
    out = {}
    for (N, M, i), c in x.terms.items():
        for term in straighten(g, N, M):
            vec = rep.apply_word(term.a0word, {i: sc.ONE})
            for r, v in vec.items():
                accumulate(out, (term.n, term.m, r), c * term.coeff * v)
    return InducedVector(out)


def apply_uelement(el, x, rep):
    """A UElement acting through `act`, letters applied right to left."""
    return ua.evaluate(el, lambda g, vec: act(g, vec, rep), x)


def check_relations_on_module(rep, nmax):
    """Apply every defining relation to all basis states with N <= nmax - 2
    (each relation raises N by at most 2) and report the residuals."""
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    results = []
    for rel in ua.relation_set():
        residuals = 0
        for N in range(nmax - 1):
            for M in (0, 1):
                for i in range(rep.dim):
                    state = InducedVector.basis_state(N, M, i)
                    diff = apply_uelement(rel.lhs, state, rep) \
                        - apply_uelement(rel.rhs, state, rep)
                    residuals += len(diff.terms)
        results.append(CheckResult(rel.name, residuals == 0, residuals))
    return results
