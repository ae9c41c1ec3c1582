"""Command-line surface.

    normal-order <expr>            rewrite a W expression to canonical form
    verify <suite> [flags]         run a verification suite, exit 1 on failure
    matrix <generator> --dim D     export a truncated Fock matrix as JSON

Exit statuses: 0 all checks pass, 1 verification failure, 2 usage or parse
errors.  NO_COLOR disables the PASS/FAIL coloring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import induced as ind
from . import parsing
from . import realization as rz
from . import superalgebra as ua
from . import walgebra as wa
from .reporting import CheckResult, all_passed, render_report
from .scalars import PoleError

VERIFY_SUITES = (
    "relations-abstract", "relations-trivial", "relations-fermionic",
    "lemma1", "induced", "fock", "dyson",
)


def _use_color(stream):
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qgl21",
        description="Exact q-boson-fermion realization engine for U_q(gl(2/1))")
    sub = parser.add_subparsers(dest="command", required=True)

    p_no = sub.add_parser("normal-order",
                          help="rewrite a W expression to normal-ordered form")
    p_no.add_argument("expression")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=VERIFY_SUITES)
    p_ver.add_argument("--nmax", type=int, default=None,
                       help="grid bound for lemma1/induced (2..12)")
    p_ver.add_argument("--dim", type=int, default=None,
                       help="Fock dimension for fock/dyson (4..32)")
    p_ver.add_argument("--mode", choices=("trivial", "fermionic"),
                       default="fermionic",
                       help="subalgebra realization for the fock suite")
    p_ver.add_argument("--numeric", action="store_true",
                       help="fock suite: evaluate at the default rational "
                            "assignment instead of symbolically")

    p_mat = sub.add_parser("matrix", help="export a truncated Fock matrix")
    p_mat.add_argument("generator")
    p_mat.add_argument("--dim", type=int, required=True)
    p_mat.add_argument("--mode", choices=("trivial", "fermionic"),
                       default="trivial")
    p_mat.add_argument("--numeric", action="store_true")
    p_mat.add_argument("--q", default="3/2")
    p_mat.add_argument("--p1", default="2")
    p_mat.add_argument("--p2", default="3")
    p_mat.add_argument("--p3", default="5")
    p_mat.add_argument("--out", required=True)
    return parser


def _cmd_normal_order(args):
    try:
        element = parsing.parse_w(args.expression)
    except (parsing.ParseError, parsing.AbstractSymbolError,
            wa.SubstitutionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(wa.render_element(element))
    return 0


def _range_check(value, lo, hi, flag):
    if value is None or not lo <= value <= hi:
        print("error: %s must be in [%d, %d]" % (flag, lo, hi),
              file=sys.stderr)
        return False
    return True


def _cmd_verify(args):
    suite = args.suite
    if suite in ("relations-abstract", "relations-trivial",
                 "relations-fermionic"):
        mode = suite.split("-", 1)[1]
        results = rz.verify_realization(mode)
        title = "defining relations under the %s-mode realization" % mode
    elif suite == "lemma1":
        nmax = 6 if args.nmax is None else args.nmax
        if not _range_check(nmax, 2, 12, "--nmax"):
            return 2
        results = [
            CheckResult(name, ok, bad)
            for name, ok, bad in ua.check_straightening_identities(nmax)]
        title = "straightening identities, closed form vs single swaps " \
                "(n <= %d)" % nmax
    elif suite == "induced":
        nmax = 8 if args.nmax is None else args.nmax
        if not _range_check(nmax, 2, 12, "--nmax"):
            return 2
        results = []
        for label, rep in (("trivial", ind.highest_weight_a0rep(ind.trivial_gl11_rep())),
                           ("fermionic", ind.highest_weight_a0rep(ind.fermionic_gl11_rep()))):
            for r in ind.check_relations_on_module(rep, nmax):
                results.append(CheckResult(("%s: " % label) + r.name, r.passed,
                                           r.residuals, r.detail))
        title = "defining relations on the induced module (Nmax = %d)" % nmax
    elif suite == "fock":
        dim = 8 if args.dim is None else args.dim
        if not _range_check(dim, 4, 32, "--dim"):
            return 2
        assignment = rz.DEFAULT_ASSIGNMENT if args.numeric else None
        results = rz.check_relations_on_fock(args.mode, dim, assignment)
        title = "defining relations on the %d-level Fock space (%s mode%s)" \
            % (dim, args.mode, ", numeric" if args.numeric else "")
    elif suite == "dyson":
        dim = 6 if args.dim is None else args.dim
        if not _range_check(dim, 4, 32, "--dim"):
            return 2
        results = rz.dyson_check(dim)
        title = "ordinary-boson substitution at %d Fock levels" % dim
    else:  # pragma: no cover - argparse restricts choices
        return 2
    print(render_report(results, title, use_color=_use_color(sys.stdout)))
    return 0 if all_passed(results) else 1


def _cmd_matrix(args):
    if not _range_check(args.dim, 2, 64, "--dim"):
        return 2
    name = args.generator
    try:
        if name in parsing.ABSTRACT_SYMBOLS:
            element = rz.rho(name, args.mode)
        else:
            element = wa.generator(name)
        assignment = None
        if args.numeric:
            assignment = {k: getattr(args, k)
                          for k in ("q", "p1", "p2", "p3")}
        fock = rz.fock_matrix(element, args.dim, assignment,
                              modes=rz.fock_modes(args.mode)
                              if name in parsing.ABSTRACT_SYMBOLS else None)
    except (ValueError, PoleError, wa.SubstitutionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    doc = {
        "generator": name,
        "mode": args.mode if name in parsing.ABSTRACT_SYMBOLS else None,
        "dim": fock.dim,
        "fock_levels": fock.boson_dim,
        "fermion_modes": list(fock.modes),
        "basis": [list(lab) for lab in fock.basis],
        "boundary_columns": list(fock.boundary_columns),
        "assignment": {k: str(Fraction(v)) for k, v in assignment.items()}
        if assignment else None,
        "entries": sorted(
            [[i, j, v.render()] for i, j, v in fock.matrix.iter_entries()],
            key=lambda e: (e[0], e[1])),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s (%d nonzero entries)" % (args.out, len(doc["entries"])))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.command == "normal-order":
        return _cmd_normal_order(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "matrix":
        return _cmd_matrix(args)
    return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
