"""The four benchmark workloads: seeded inputs, the timed work, and the
correctness gate that checks its outputs afterwards.

Inputs are made in the parent process by `make_inputs`, from the seed alone,
and handed to the child as JSON; the engine only sees the generated inputs.
`run` is the timed part and `gate` checks what it produced.  A failed check
is a FAIL line, a nonzero residual, a nonzero exit code or an exception
(PoleError included); an output mismatch is an output that fails its
independent check:

* a normal form that does not re-parse and re-normal-order to itself;
* a numeric matrix export whose entries differ from the symbolic export of
  the same generator, re-parsed with parse_scalar and evaluated at the same
  assignment;
* an `act` result that differs from `act_oracle` on the grid.
* a report whose check lines disagree with its summary line, its exit
  code, or the number of relations (or identities) the suite covers.

With `inject`, the gate corrupts one result before checking it, which the
benchmark's self-test uses to show that the gate can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction

FOCK_SYMBOLIC_DIM = 16
FOCK_NUMERIC_DIM = 32
EXPORT_DIM = 8            # numeric exports, checked against symbolic ones
INDUCED_NMAX = 12
GRID_NMAX = INDUCED_NMAX - 2
CORPUS_SIZE = 600

NAMES = ("fock-symbolic", "fock-numeric", "induced-module", "w-normal-order")


# ---------------------------------------------------------------------------
# seeded inputs (parent process; no engine import)
# ---------------------------------------------------------------------------

def _positive_rational(rng):
    return Fraction(rng.randint(2, 9), rng.randint(2, 9))


def random_assignment(rng):
    """q, p1, p2, p3 as positive rationals with q != 1.  Positivity keeps
    every p_i nonzero and q away from the singular values 0 and -1."""
    q = _positive_rational(rng)
    while q == 1:
        q = _positive_rational(rng)
    return {"q": q, "p1": _positive_rational(rng),
            "p2": _positive_rational(rng), "p3": _positive_rational(rng)}


_W_LETTERS = ("a+", "a", "t", "t^-1", "b+", "b", "b2+", "b2",
              "e23", "e32", "k2", "k3", "k2^-1", "k3^-1")
_POWERABLE = ("a+", "a", "t", "k2", "k3")
_COEFFICIENTS = ("q", "q^-1", "p1", "p2", "p3", "p1^-1", "2", "3", "q^2",
                 "p2*p3", "(q - q^-1)", "1/(q + 1)", "(p1 - q)", "2/3")


def _word(rng):
    letters = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            letters.append("%s^2" % rng.choice(_POWERABLE))
        else:
            letters.append(rng.choice(_W_LETTERS))
    return "*".join(letters)


def _sum(rng, factor, terms):
    out = []
    for k in range(rng.randint(1, terms)):
        body = factor(rng)
        if rng.random() < 0.6:
            body = rng.choice(_COEFFICIENTS) + "*" + body
        out.append(body if k == 0 else
                   (" + " if rng.random() < 0.5 else " - ") + body)
    return "".join(out)


def _factor(rng):
    r = rng.random()
    if r < 0.5:
        return _word(rng)
    inner = _sum(rng, _word, 2)
    if r < 0.7:
        return "comm[%s, %s]" % (inner, _sum(rng, _word, 2))
    if r < 0.9:
        return "acomm{%s, %s}" % (inner, _sum(rng, _word, 2))
    return "(%s)^2" % inner


def random_w_corpus(rng, size):
    """W expressions built from products and powers of the generators,
    comm[]/acomm{} brackets one level deep and coefficients in q and p_i."""
    return [_sum(rng, _factor, 3) for _ in range(size)]


def make_inputs(name, seed):
    """JSON-ready inputs of a workload; seed-independent workloads get {}."""
    rng = random.Random("%s/%d" % (name, seed))
    if name == "fock-numeric":
        return {"assignment": {k: str(v) for k, v in
                               random_assignment(rng).items()}}
    if name == "w-normal-order":
        return {"corpus": random_w_corpus(rng, CORPUS_SIZE)}
    return {}


# ---------------------------------------------------------------------------
# the timed work (child process)
# ---------------------------------------------------------------------------

def _cli(argv):
    """Run the public CLI in-process: (exit code, stdout), or (None, error)
    when it raised, which the gate counts as a failed check."""
    from qgl21 import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:       # noqa: BLE001 - any exception fails a check
        return None, "%s: %s" % (type(exc).__name__, exc)
    return code, buf.getvalue()


def _assignment(inputs):
    return {k: Fraction(v) for k, v in inputs["assignment"].items()}


def _export_argv(generator, path, numeric_assignment=None):
    argv = ["matrix", generator, "--dim", str(EXPORT_DIM),
            "--mode", "fermionic", "--out", path]
    if numeric_assignment is not None:
        argv.append("--numeric")
        for k, v in numeric_assignment.items():
            argv += ["--" + k, v]
    return argv


def run(name, inputs, workdir):
    """The timed work of a workload; returns the raw outputs for `gate`."""
    from qgl21 import induced as ind
    from qgl21 import realization as rz

    out = {"reports": []}
    if name == "fock-symbolic":
        # QMatrix products of multivariate rational entries, with the scalar
        # gcd work under them: the workload for scalar-reduction and
        # matrix-product changes.  Seed-independent.
        out["reports"].append(("verify fock --dim %d" % FOCK_SYMBOLIC_DIM,
                               _cli(["verify", "fock", "--mode", "fermionic",
                                     "--dim", str(FOCK_SYMBOLIC_DIM)])))
    elif name == "fock-numeric":
        # Constant entries, so the products are cheap and the time goes to
        # fock_matrix building and evaluating q-power amplitudes: separates a
        # matrix-product gain from a fock_matrix or Laurent-reduction gain.
        # The CLI has no flags for the assignment, hence the library call.
        try:
            out["numeric_fock"] = rz.check_relations_on_fock(
                "fermionic", FOCK_NUMERIC_DIM, _assignment(inputs))
        except Exception as exc:   # noqa: BLE001 - PoleError and the like
            out["numeric_fock"] = "%s: %s" % (type(exc).__name__, exc)
        out["exports"] = []
        for g in rz.GENERATOR_IMAGE_NAMES:
            path = os.path.join(workdir, "numeric-%s.json" % g)
            out["exports"].append(
                (g, path, _cli(_export_argv(g, path, inputs["assignment"]))))
    elif name == "induced-module":
        # induced.act on mostly repeated inputs and straightening on small
        # univariate scalars; no large matrices.  Seed-independent.
        for suite in ("induced", "lemma1"):
            out["reports"].append((
                "verify %s --nmax %d" % (suite, INDUCED_NMAX),
                _cli(["verify", suite, "--nmax", str(INDUCED_NMAX)])))
        out["grid"] = []
        for label, gl11 in (("trivial", ind.trivial_gl11_rep()),
                            ("fermionic", ind.fermionic_gl11_rep())):
            rep = ind.highest_weight_a0rep(gl11)
            for g in ind.ACT_GENERATORS:
                for n in range(GRID_NMAX + 1):
                    for m in (0, 1):
                        for i in range(rep.dim):
                            state = ind.InducedVector.basis_state(n, m, i)
                            out["grid"].append((
                                "%s %s|%d,%d;%d>" % (label, g, n, m, i),
                                ind.act(g, state, rep),
                                ind.act_oracle(g, state, rep)))
    elif name == "w-normal-order":
        # The only workload where w_mul, its lru_caches and parsing run
        # outside set-up.
        for suite in ("relations-abstract", "relations-trivial",
                      "relations-fermionic", "dyson"):
            out["reports"].append(("verify " + suite,
                                   _cli(["verify", suite])))
        out["normal_forms"] = [(expr, _cli(["normal-order", expr]))
                               for expr in inputs["corpus"]]
    else:
        raise ValueError("unknown workload %r" % name)
    return out


# ---------------------------------------------------------------------------
# the correctness gate (child process, after the timed interval)
# ---------------------------------------------------------------------------

class Tally:
    """Checks attempted, failed checks and output mismatches, with the
    first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed_checks = 0
        self.output_mismatches = 0
        self.notes = []

    def _note(self, what):
        if len(self.notes) < 10:
            self.notes.append(what)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed_checks += 1
            self._note("failed check: " + what)

    def compare(self, ok, what):
        self.attempted += 1
        if not ok:
            self.output_mismatches += 1
            self._note("output mismatch: " + what)


_CHECK_LINE = re.compile(r"^(.*?)\s+(PASS|FAIL)\s+residuals=(\d+)", re.M)
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$", re.M)


def _tally_report(tally, label, result, expected_checks):
    code, text = result
    if code is None:
        tally.check(False, "%s raised %s" % (label, text))
        return
    lines = _CHECK_LINE.findall(text)
    passed = 0
    for check, status, residuals in lines:
        ok = status == "PASS" and residuals == "0"
        passed += ok
        tally.check(ok, "%s: %s (%s, residuals=%s)"
                    % (label, check.strip(), status, residuals))
    if code != 0 and passed == len(lines):
        tally.check(False, "%s exited %d" % (label, code))
    summary = _SUMMARY_LINE.search(text)
    consistent = (
        summary is not None and lines
        and (code == 0) == (passed == len(lines))
        and (int(summary.group(1)), int(summary.group(2)))
        == (passed, len(lines))
        and expected_checks in (None, len(lines)))
    tally.compare(consistent, "%s report is incomplete or inconsistent "
                  "(%d check lines, exit %s)" % (label, len(lines), code))


def _export_entries(path, assignment):
    from qgl21.parsing import parse_scalar
    with open(path) as fh:
        doc = json.load(fh)
    values = {}
    for i, j, text in doc["entries"]:
        v = parse_scalar(text).evaluate(**assignment)
        if v:
            values[(i, j)] = v
    shape = (doc["dim"], doc["basis"], doc["boundary_columns"])
    return shape, values


def _corrupt_first_entry(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["entries"][0][2] = str(Fraction(doc["entries"][0][2]) + 1)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def gate(name, inputs, out, workdir, inject=False):
    """Check the outputs of `run`; returns a Tally."""
    from qgl21 import induced as ind
    from qgl21 import superalgebra as ua
    from qgl21.parsing import parse_w
    from qgl21.walgebra import render_element

    tally = Tally()
    n_relations = len(ua.relation_set())
    expected = {"fock": n_relations, "induced": 2 * n_relations,
                "lemma1": len(ua.STRAIGHTENING_IDENTITIES),
                "relations-abstract": n_relations,
                "relations-trivial": n_relations,
                "relations-fermionic": n_relations}
    reports = list(out["reports"])
    if inject and reports:
        label, (code, text) = reports[0]
        reports[0] = (label, (code, text.replace(" PASS ", " FAIL ", 1)))
    for label, result in reports:
        suite = label.split()[1]
        _tally_report(tally, label, result, expected.get(suite))

    if "numeric_fock" in out:
        results = out["numeric_fock"]
        if isinstance(results, str):
            tally.check(False, "numeric fock raised " + results)
        else:
            for r in results:
                tally.check(r.passed and r.residuals == 0,
                            "numeric fock: %s (residuals=%d)"
                            % (r.name, r.residuals))
            tally.compare(len(results) == n_relations,
                          "numeric fock reported %d relations" % len(results))
        assignment = _assignment(inputs)
        for k, (g, path, (code, text)) in enumerate(out["exports"]):
            tally.check(code == 0, "matrix %s --numeric: exit %s %s"
                        % (g, code, text.strip()))
            if code != 0:
                continue
            if inject and k == 0:
                _corrupt_first_entry(path)
            sym_path = os.path.join(workdir, "symbolic-%s.json" % g)
            sym_code, sym_text = _cli(_export_argv(g, sym_path))
            tally.check(sym_code == 0, "matrix %s symbolic: exit %s %s"
                        % (g, sym_code, sym_text.strip()))
            if sym_code != 0:
                continue
            num_shape, num = _export_entries(path, assignment)
            sym_shape, sym = _export_entries(sym_path, assignment)
            differing = sum(1 for key in set(num) | set(sym)
                            if num.get(key) != sym.get(key))
            tally.compare(num_shape == sym_shape and not differing,
                          "matrix %s: %d entries differ from the evaluated "
                          "symbolic export" % (g, differing))

    if "grid" in out:
        for k, (label, by_act, by_oracle) in enumerate(out["grid"]):
            if inject and k == 0:
                by_act = by_act + ind.InducedVector.basis_state(0, 0, 0)
            tally.compare(by_act == by_oracle, "act != act_oracle at " + label)

    if "normal_forms" in out:
        for k, (expr, (code, text)) in enumerate(out["normal_forms"]):
            tally.check(code == 0, "normal-order %r: exit %s %s"
                        % (expr, code, text.strip()))
            if code != 0:
                continue
            normal = text.strip()
            if inject and k == 0:
                normal += " + a"
            try:
                again = render_element(parse_w(normal))
            except ValueError as exc:
                again = "%s: %s" % (type(exc).__name__, exc)
            tally.compare(again == normal, "normal form of %r is %r, which "
                          "re-normal-orders to %r" % (expr, normal, again))
    return tally
