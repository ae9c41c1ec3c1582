#!/usr/bin/env python3
"""Run the full verification battery and print one combined report.

Exit status 0 only if every suite passes.  The sizes default to the CLI's
defaults (cli.SUITE_SIZES), and dyson always runs at its default:

    python3 scripts/verify_all.py [--nmax N] [--induced-nmax N] [--dim D]
"""

import argparse
import sys

from qgl21 import cli


def main():
    default = {suite: spec[1] for suite, spec in cli.SUITE_SIZES.items()}
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=default["lemma1"])
    ap.add_argument("--induced-nmax", type=int, default=default["induced"])
    ap.add_argument("--dim", type=int, default=default["fock"])
    args = ap.parse_args()

    suites = [
        ["verify", "relations-abstract"],
        ["verify", "relations-trivial"],
        ["verify", "relations-fermionic"],
        ["verify", "lemma1", "--nmax", str(args.nmax)],
        ["verify", "induced", "--nmax", str(args.induced_nmax)],
        ["verify", "fock", "--dim", str(args.dim), "--mode", "trivial"],
        ["verify", "fock", "--dim", str(args.dim), "--mode", "fermionic"],
        ["verify", "fock", "--dim", str(args.dim), "--mode", "trivial",
         "--numeric"],
        ["verify", "fock", "--dim", str(args.dim), "--mode", "fermionic",
         "--numeric"],
        ["verify", "dyson", "--dim", str(default["dyson"])],
    ]
    worst = 0
    for argv in suites:
        print("$ qgl21 " + " ".join(argv))
        code = cli.main(argv)
        worst = max(worst, code)
        print()
    print("overall: %s" % ("all suites passed" if worst == 0
                           else "FAILURES (exit %d)" % worst))
    return worst


if __name__ == "__main__":
    sys.exit(main())
