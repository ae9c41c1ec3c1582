"""Command-line surface.

    normal-order <expr>            rewrite a W expression to canonical form
    verify <suite> [flags]         run a verification suite, exit 1 on failure;
                                   a flag the suite does not read exits 2
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
from .reporting import all_passed, render_report
from .scalars import PoleError

VERIFY_SUITES = (
    "relations-abstract", "relations-trivial", "relations-fermionic",
    "lemma1", "induced", "fock", "dyson",
)

# each sized suite: (its size flag, default, least and largest size, the
# other flags it reads); a flag its suite does not read is a usage error
SUITE_SIZES = {"lemma1": ("nmax", 6, 2, 12, ()),
               "induced": ("nmax", 8, 2, 12, ()),
               "fock": ("dim", 8, 4, 32, ("mode", "numeric")),
               "dyson": ("dim", 6, 4, 32, ())}

MATRIX_DIMS = (2, 64)       # the least and largest matrix --dim


def _use_color(stream):
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _sizes(flag):
    """Each suite sized by flag, with its range and default."""
    return ", ".join("%s (%d..%d) default %d" % (suite, lo, hi, default)
                     for suite, (f, default, lo, hi, _) in SUITE_SIZES.items()
                     if f == flag)


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
                       help="grid bound for " + _sizes("nmax"))
    p_ver.add_argument("--dim", type=int, default=None,
                       help="Fock dimension for " + _sizes("dim"))
    p_ver.add_argument("--mode", choices=("trivial", "fermionic"),
                       help="subalgebra realization for the fock suite "
                            "(default fermionic)")
    p_ver.add_argument("--numeric", action="store_true", default=None,
                       help="fock suite: evaluate at the default rational "
                            "assignment instead of symbolically")

    p_mat = sub.add_parser("matrix", help="export a truncated Fock matrix")
    p_mat.add_argument("generator")
    p_mat.add_argument("--dim", type=int, required=True,
                       help="boson levels of the truncated Fock space "
                            "(%d..%d)" % MATRIX_DIMS)
    p_mat.add_argument("--mode", choices=("trivial", "fermionic"),
                       default="trivial",
                       help="subalgebra realization of an abstract "
                            "generator (default trivial)")
    p_mat.add_argument("--numeric", action="store_true",
                       help="evaluate the entries at --q, --p1, --p2 and "
                            "--p3 instead of symbolically")
    for name, value in rz.DEFAULT_ASSIGNMENT.items():
        p_mat.add_argument(
            "--" + name, default=str(value),
            help="rational value of %s for --numeric (default %s); write a "
                 "negative value as --%s=-7/3, since --%s -7/3 reads -7/3 "
                 "as an option" % (name, value, name, name))
    p_mat.add_argument("--out", required=True,
                       help="path of the JSON export to write")
    return parser


def _cmd_normal_order(args):
    try:
        element = parsing.parse_w(args.expression)
    except (parsing.ParseError, parsing.AbstractSymbolError,
            wa.SubstitutionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the expression is nested too deeply to evaluate",
              file=sys.stderr)
        return 2
    try:
        text = wa.render_element(element)
    except ValueError:
        return _too_many_digits("the result has a coefficient")
    print(text)
    return 0


def _too_many_digits(what):
    # str() of an int refuses more than sys.get_int_max_str_digits()
    print("error: %s of more than %d digits"
          % (what, sys.get_int_max_str_digits()), file=sys.stderr)
    return 2


def _range_check(value, lo, hi, flag):
    if not lo <= value <= hi:
        print("error: %s must be in [%d, %d]" % (flag, lo, hi),
              file=sys.stderr)
        return False
    return True


def _cmd_verify(args):
    suite = args.suite
    flag, default, lo, hi, others = SUITE_SIZES.get(
        suite, (None, None, None, None, ()))
    for name in ("nmax", "dim", "mode", "numeric"):
        if getattr(args, name) is not None and name not in (flag, *others):
            print("error: verify %s does not read --%s" % (suite, name),
                  file=sys.stderr)
            return 2
    if flag:
        size = getattr(args, flag)
        size = default if size is None else size
        if not _range_check(size, lo, hi, "--" + flag):
            return 2
    if suite.startswith("relations-"):
        mode = suite.split("-", 1)[1]
        results = rz.verify_realization(mode)
        title = "defining relations under the %s-mode realization" % mode
    elif suite == "lemma1":
        results = ua.check_straightening_identities(size)
        title = "straightening identities, closed form vs single swaps " \
                "(n <= %d)" % size
    elif suite == "induced":
        results = [r._replace(name="%s: %s" % (label, r.name))
                   for label, gl11 in (("trivial", ind.trivial_gl11_rep()),
                                       ("fermionic", ind.fermionic_gl11_rep()))
                   for r in ind.check_relations_on_module(
                       ind.highest_weight_a0rep(gl11), size)]
        title = "defining relations on the induced module (Nmax = %d)" % size
    elif suite == "fock":
        mode = args.mode or "fermionic"
        assignment = rz.DEFAULT_ASSIGNMENT if args.numeric else None
        results = rz.check_relations_on_fock(mode, size, assignment)
        title = "defining relations on the %d-level Fock space (%s mode%s)" \
            % (size, mode, ", numeric" if args.numeric else "")
    else:  # dyson
        results = rz.dyson_check(size)
        title = "ordinary-boson substitution at %d Fock levels" % size
    print(render_report(results, title, use_color=_use_color(sys.stdout)))
    return 0 if all_passed(results) else 1


def _cmd_matrix(args):
    if not _range_check(args.dim, *MATRIX_DIMS, "--dim"):
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
    try:
        text = json.dumps(_matrix_document(name, args.mode, fock, assignment),
                          indent=1)
    except ValueError:
        return _too_many_digits("the matrix has a number")
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print("error: cannot write %s: %s" % (args.out, exc.strerror),
              file=sys.stderr)
        return 2
    print("wrote %s (%d nonzero entries)" % (args.out, fock.matrix.nnz()))
    return 0


def _matrix_document(name, mode, fock, assignment):
    return {
        "generator": name,
        "mode": mode if name in parsing.ABSTRACT_SYMBOLS else None,
        "dim": fock.dim,
        "fock_levels": fock.boson_dim,
        "fermion_modes": list(fock.modes),
        "basis": [list(lab) for lab in fock.basis],
        "boundary_columns": list(fock.boundary_columns),
        "assignment": {k: str(Fraction(v)) for k, v in assignment.items()}
        if assignment else None,
        "entries": sorted(
            [[i, j, str(v)] for i, j, v in fock.matrix.iter_entries()],
            key=lambda e: (e[0], e[1])),
    }


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
