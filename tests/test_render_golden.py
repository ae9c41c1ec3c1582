"""Canonical forms must not drift: the rendered entries of every abstract
generator's Fock matrix (fermionic mode, 6 levels, symbolic) and the output
of `qgl21 normal-order` on a corpus of W expressions are compared string for
string with corpora recorded before the scalar arithmetic was rewritten.  A
different but equal canonical form would change CLI output and JSON exports,
so this checks rendering, not just equality.  The normal-order corpus
reaches what the Fock corpus does not: render_element's grouping of terms
over a common denominator, e.g. 1/(2q + 2)*a + q/(q + 1)*a+ + 1/(3q + 3)
renders as (1/3 + 1/2*a + q*a+)/(q + 1), beside sums whose denominators
differ and denominators with non-integer monic coefficients.  The verify
corpus pins the text and exit code of `qgl21 verify` for every suite at its
defaults and for a few flag combinations."""

import contextlib
import io
import json
import os
from pathlib import Path

from qgl21 import cli
from qgl21.realization import (
    GENERATOR_IMAGE_NAMES, fock_matrix, fock_modes, rho,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "fock_render_golden.json"
NORMAL_ORDER_GOLDEN = DATA / "normal_order_golden.json"
VERIFY_GOLDEN = DATA / "verify_report_golden.json"
MODE = "fermionic"
DIM = 6


def render_corpus():
    """{generator: [[row, col, rendered entry], ...]} in export order."""
    corpus = {}
    for name in GENERATOR_IMAGE_NAMES:
        fock = fock_matrix(rho(name, MODE), DIM, modes=fock_modes(MODE))
        corpus[name] = sorted(
            [[i, j, v.render()] for i, j, v in fock.matrix.iter_entries()],
            key=lambda e: (e[0], e[1]))
    return corpus


def test_fock_render_corpus_is_unchanged():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(GENERATOR_IMAGE_NAMES)
    assert render_corpus() == golden


def normal_order_output(expression):
    """What `qgl21 normal-order <expression>` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["normal-order", expression]) == 0, expression
    return out.getvalue()


def test_normal_order_corpus_is_unchanged():
    golden = json.loads(NORMAL_ORDER_GOLDEN.read_text())
    assert len(golden) >= 20
    for expression, expected in golden:
        assert normal_order_output(expression) == expected, expression


VERIFY_ARGS = [[suite] for suite in cli.VERIFY_SUITES] + [
    ["fock", "--numeric"], ["fock", "--mode", "trivial"],
    ["induced", "--nmax", "4"]]


def verify_output(args):
    """What `qgl21 verify <args>` prints, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify"] + args)
    return [out.getvalue(), code]


def test_verify_reports_are_unchanged(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    golden = json.loads(VERIFY_GOLDEN.read_text())
    assert [args for args, _out in golden] == VERIFY_ARGS
    for args, expected in golden:
        assert verify_output(args) == expected, args


if __name__ == "__main__":
    # Re-record the corpora (only when a rendering change is intended).
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(render_corpus(), indent=1) + "\n")
    expressions = [e for e, _ in json.loads(NORMAL_ORDER_GOLDEN.read_text())]
    NORMAL_ORDER_GOLDEN.write_text(json.dumps(
        [[e, normal_order_output(e)] for e in expressions], indent=1) + "\n")
    os.environ["NO_COLOR"] = "1"
    VERIFY_GOLDEN.write_text(json.dumps(
        [[args, verify_output(args)] for args in VERIFY_ARGS], indent=1) + "\n")
