#!/usr/bin/env python3
"""Run the full verification battery and print one combined report.

Exit status 0 only if every suite passes.  Flags mirror the CLI defaults:

    python3 scripts/verify_all.py [--nmax 6] [--induced-nmax 8] [--dim 8]
"""

import argparse
import sys

from qgl21 import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=6)
    ap.add_argument("--induced-nmax", type=int, default=8)
    ap.add_argument("--dim", type=int, default=8)
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
        ["verify", "dyson", "--dim", "6"],
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
