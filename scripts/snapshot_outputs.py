#!/usr/bin/env python3
"""Write the CLI's outputs for a fixed battery of commands to OUTDIR.

    python3 scripts/snapshot_outputs.py OUTDIR

Run it in two checkouts and compare with `diff -r OUTDIR_A OUTDIR_B`: the
outputs are byte-identical exactly when the two trees agree on every
rendered string, residual count, exit code and JSON export below.  The
script imports qgl21 from the src/ of the checkout it sits in.

The battery: `qgl21 --help`, `verify --help` and `matrix --help` (with
COLUMNS=80, so that argparse wraps them the same on every terminal), the
seven verify suites at their defaults, induced and lemma1
at --nmax 12, fock --dim 16 (symbolic, fermionic: the fock-symbolic
benchmark's command), fock --dim 32 symbolic and --numeric, fock --dim 32
--mode trivial (symbolic), fock --dim 16 --mode trivial --numeric, matrix
--dim 8 for each of the 12 abstract generators in both modes, symbolic and
--numeric, matrix --dim 4 for every W generator name, symbolic and
--numeric (the fermion modes come from the element; the gl(1/1) names exit
2), scripts/verify_all.py, normal-order on every expression of
tests/data/normal_order_golden.json, and normal-order on the w-normal-order
benchmark corpus at seeds 1 and 2 (the inputs bench/workloads.py makes,
imported from there).  Each command leaves <name>.txt with its command
line, exit code, stdout and stderr; a matrix command also leaves its
export, <name>.json; each corpus leaves one normal-order-corpus-seed<n>.txt
with the records of all its expressions.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from qgl21 import cli  # noqa: E402
from qgl21.realization import GENERATOR_IMAGE_NAMES  # noqa: E402
from qgl21.walgebra import GENERATOR_NAMES  # noqa: E402
from workloads import make_inputs  # noqa: E402

CORPUS_SEEDS = (1, 2)


def cli_commands():
    """(name, argv) for every command run through cli.main."""
    yield "help", ["--help"]
    for command in ("verify", "matrix"):
        yield command + "-help", [command, "--help"]
    for suite in cli.VERIFY_SUITES:
        yield "verify-" + suite, ["verify", suite]
    for suite in ("induced", "lemma1"):
        yield "verify-%s-nmax12" % suite, ["verify", suite, "--nmax", "12"]
    yield "verify-fock-dim16", ["verify", "fock", "--dim", "16"]
    yield "verify-fock-dim32", ["verify", "fock", "--dim", "32"]
    yield "verify-fock-dim32-trivial", ["verify", "fock", "--dim", "32",
                                        "--mode", "trivial"]
    yield "verify-fock-dim32-numeric", ["verify", "fock", "--dim", "32",
                                        "--numeric"]
    yield "verify-fock-dim16-trivial-numeric", [
        "verify", "fock", "--dim", "16", "--mode", "trivial", "--numeric"]
    for name in GENERATOR_IMAGE_NAMES:
        for mode in ("trivial", "fermionic"):
            for flags in ([], ["--numeric"]):
                tag = "matrix-%s-%s%s" % (name, mode, "".join(flags))
                # a relative --out keeps OUTDIR out of the printed text
                yield tag, ["matrix", name, "--dim", "8", "--mode", mode,
                            *flags, "--out", tag + ".json"]
    for name in GENERATOR_NAMES:
        for flags in ([], ["--numeric"]):
            tag = "matrix-w-%s%s" % (name, "".join(flags))
            yield tag, ["matrix", name, "--dim", "4", *flags,
                        "--out", tag + ".json"]
    golden = ROOT / "tests" / "data" / "normal_order_golden.json"
    for k, (expression, _) in enumerate(json.loads(golden.read_text())):
        yield "normal-order-%02d" % k, ["normal-order", expression]


def run_cli(argv):
    """One command's record: command line, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return format_record(["qgl21", *argv], code, out.getvalue(),
                         err.getvalue())


def format_record(argv, code, out, err):
    return "$ %s\nexit %d\n--- stdout\n%s--- stderr\n%s" % (
        " ".join(argv), code, out, err)


def main():
    if len(sys.argv) != 2:
        print("usage: snapshot_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ["COLUMNS"] = "80"
    script = "scripts/verify_all.py"
    proc = subprocess.run([sys.executable, script], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True)
    (outdir / "verify_all.txt").write_text(format_record(
        [script], proc.returncode, proc.stdout, proc.stderr))
    os.chdir(outdir)
    for name, argv in cli_commands():
        (outdir / (name + ".txt")).write_text(run_cli(argv))
    for seed in CORPUS_SEEDS:
        corpus = make_inputs("w-normal-order", seed)["corpus"]
        (outdir / ("normal-order-corpus-seed%d.txt" % seed)).write_text(
            "".join(run_cli(["normal-order", expression])
                    for expression in corpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
