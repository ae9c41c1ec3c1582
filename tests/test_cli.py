import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qgl21.scalars as sc
from qgl21 import cli
from qgl21.parsing import parse_scalar, parse_w
from qgl21.realization import fock_matrix, rho
from qgl21.reporting import CheckResult
from qgl21.walgebra import w_mul


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_normal_order_fermion_pair(capsys):
    code, out, _ = run(capsys, "normal-order", "b * b+")
    assert code == 0
    assert out.strip() == "1 - b+*b"


def test_normal_order_oscillator(capsys):
    code, out, _ = run(capsys, "normal-order", "a * a+")
    assert code == 0
    from qgl21.parsing import parse_w
    from qgl21.walgebra import generator, w_mul
    assert parse_w(out.strip()) == w_mul(generator("a"), generator("a+"))


def test_normal_order_sign_rule(capsys):
    code, out, _ = run(capsys, "normal-order", "e23 * b+")
    assert code == 0
    assert out.strip() == "-b+*e23"


def test_normal_order_parse_error(capsys):
    code, _out, err = run(capsys, "normal-order", "a * * a")
    assert code == 2
    assert "position" in err


def test_normal_order_rejects_abstract_symbols(capsys):
    code, _out, err = run(capsys, "normal-order", "E12 * E21")
    assert code == 2
    assert "verify" in err


def test_normal_order_result_too_large_to_print(capsys):
    code, out, err = run(capsys, "normal-order", "2^100000*a")
    assert code == 2
    assert out == ""
    assert err == "error: the result has a coefficient of more than %d " \
        "digits\n" % sys.get_int_max_str_digits()


def test_normal_order_integer_literal_too_long(capsys):
    code, _out, err = run(capsys, "normal-order",
                          "1" * (sys.get_int_max_str_digits() + 1) + "*a")
    assert code == 2
    assert err.startswith("error: at position 0: integer of more than")


@pytest.mark.parametrize("expr", ["1/(q-q)*a", "a/0", "a/(b*b)"])
def test_normal_order_division_by_zero(capsys, expr):
    code, out, err = run(capsys, "normal-order", expr)
    assert code == 2
    assert out == ""
    assert err == "error: division by zero\n"


@pytest.mark.parametrize("expr, value", [
    ("a" + " - a" * 2999, "-2998*a"),
    ("*".join(["a"] * 3000), "a^3000"),
])
def test_normal_order_long_flat_chains(capsys, expr, value):
    assert run(capsys, "normal-order", expr) == (0, value + "\n", "")


M = 1200


@pytest.mark.parametrize("expr, swapped, t_term", [
    # a a+^m = q^-m a+^m a + [m] a+^(m-1) t
    # a^m a+ = q^-m a+ a^m + [m] t a^(m-1)
    ("a * a+^%d" % M, ("a+^%d" % M, "a"), ("a+^%d" % (M - 1), "t")),
    ("a^%d * a+" % M, ("a+", "a^%d" % M), ("t", "a^%d" % (M - 1))),
])
def test_normal_order_high_boson_powers(capsys, expr, swapped, t_term):
    code, out, err = run(capsys, "normal-order", expr)
    assert (code, err) == (0, "")
    expected = w_mul(*map(parse_w, swapped)).scale(sc.q_power(-M)) \
        + w_mul(*map(parse_w, t_term)).scale(sc.q_integer(M))
    assert parse_w(out) == expected


@pytest.mark.parametrize("expr", [
    "(" * 400 + "a" + ")" * 400,
    "comm[" * 300 + "a" + ", a]" * 300,
    "a+^1100 * a^1100",
    "a^1100 * a+^1100",
])
def test_normal_order_too_deep_exits_2(capsys, expr):
    code, out, err = run(capsys, "normal-order", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_lemma1(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--nmax", "3")
    assert code == 0
    assert "9/9 checks passed" in out
    assert "\x1b[" not in out          # captured stream is not a tty


def test_verify_relations_abstract(capsys):
    code, out, _ = run(capsys, "verify", "relations-abstract")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_dyson(capsys):
    code, out, _ = run(capsys, "verify", "dyson", "--dim", "4")
    assert code == 0
    assert "10/10 checks passed" in out


def test_verify_fock_numeric(capsys):
    code, out, _ = run(capsys, "verify", "fock", "--dim", "4",
                       "--mode", "trivial", "--numeric")
    assert code == 0
    assert "numeric" in out


def test_verify_flag_ranges(capsys):
    code, _out, err = run(capsys, "verify", "lemma1", "--nmax", "13")
    assert code == 2
    assert "--nmax" in err
    code, _out, err = run(capsys, "verify", "fock", "--dim", "2")
    assert code == 2
    assert "--dim" in err


SIZES_JUST_OUTSIDE = [
    (["verify", suite, "--nmax", n], "error: --nmax must be in [2, 12]\n")
    for suite in ("lemma1", "induced") for n in ("1", "13")
] + [
    (["verify", suite, "--dim", d], "error: --dim must be in [4, 32]\n")
    for suite in ("fock", "dyson") for d in ("3", "33")
] + [
    (["matrix", "E12", "--dim", d], "error: --dim must be in [2, 64]\n")
    for d in ("1", "65")
]


@pytest.mark.parametrize("argv, err", SIZES_JUST_OUTSIDE,
                         ids=[" ".join(argv) for argv, _ in SIZES_JUST_OUTSIDE])
def test_size_just_outside_its_range_exits_2(capsys, tmp_path, argv, err):
    if argv[0] == "matrix":
        argv = argv + ["--out", str(tmp_path / "m.json")]
    assert run(capsys, *argv) == (2, "", err)


def test_verify_help_names_the_ranges_verify_enforces(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    help_text = " ".join(out.split())
    for suite, flag in (("lemma1", "--nmax"), ("induced", "--nmax"),
                        ("fock", "--dim"), ("dyson", "--dim")):
        # the range verify enforces, read from its refusal of 0
        err = run(capsys, "verify", suite, flag, "0")[2]
        lo, hi = re.fullmatch(r"error: %s must be in \[(\d+), (\d+)\]\n"
                              % flag, err).groups()
        # the flag's help entry, up to the next option
        entry = help_text.split(" %s %s " % (flag, flag[2:].upper()))[1]
        entry = entry.split(" --")[0]
        assert suite in entry and "(%s..%s)" % (lo, hi) in entry


def _help_entries(out):
    """Option -> its entry, whitespace-joined, in an argparse --help text."""
    options = out.split("\noptions:\n")[1]
    blocks = re.split(r"\n  (?=-)", "\n" + options)
    return {b.split()[0]: " ".join(b.split()) for b in blocks if b.strip()}


def test_verify_help_names_each_suite_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    entries = _help_entries(run(capsys, "verify", "--help")[1])
    for suite, (flag, default, lo, hi, _) in cli.SUITE_SIZES.items():
        assert "%s (%d..%d) default %d" % (suite, lo, hi, default) \
            in entries["--" + flag]


def test_matrix_help_describes_every_flag(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, "matrix", "--help")
    assert code == 0
    entries = _help_entries(out)
    # the range matrix enforces, read from its refusal of 0
    err = run(capsys, "matrix", "E12", "--dim", "0",
              "--out", str(tmp_path / "m.json"))[2]
    lo, hi = re.fullmatch(r"error: --dim must be in \[(\d+), (\d+)\]\n",
                          err).groups()
    assert (int(lo), int(hi)) == cli.MATRIX_DIMS
    assert entries["--dim"].endswith("(%s..%s)" % (lo, hi))
    assert entries["--mode"].endswith("(default trivial)")
    assert "--q, --p1, --p2 and --p3" in entries["--numeric"]
    assert entries["--out"] != "--out OUT"


@pytest.mark.parametrize("argv, flag", [
    (["dyson", "--numeric"], "--numeric"),
    (["lemma1", "--dim", "5"], "--dim"),
    (["induced", "--mode", "trivial"], "--mode"),
    (["fock", "--nmax", "4"], "--nmax"),
    (["dyson", "--mode", "fermionic"], "--mode"),
    (["relations-abstract", "--nmax", "0"], "--nmax"),
    (["relations-trivial", "--numeric"], "--numeric"),
])
def test_verify_refuses_a_flag_its_suite_ignores(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == "error: verify %s does not read %s\n" % (argv[0], flag)


def test_verify_fock_mode_defaults_to_fermionic(capsys):
    code, out, _ = run(capsys, "verify", "fock", "--dim", "4")
    assert code == 0
    assert "(fermionic mode)" in out


def test_verify_unknown_suite(capsys):
    code, _out, _err = run(capsys, "verify", "everything")
    assert code == 2


def test_verify_failure_exit_status(capsys, monkeypatch):
    import qgl21.cli as climod

    def broken(mode):
        return [CheckResult("forced failure", False, 3),
                CheckResult("still fine", True, 0)]

    monkeypatch.setattr(climod.rz, "verify_realization", broken)
    code, out, _ = run(capsys, "verify", "relations-abstract")
    assert code == 1
    assert "FAIL" in out
    assert "1/2 checks passed" in out


def test_check_result_defaults_and_is_immutable():
    r = CheckResult("x", True)
    assert (r.residuals, r.detail) == (0, "")
    with pytest.raises(AttributeError):
        r.detail = "changed"
    assert r._replace(detail="d") == CheckResult("x", True, 0, "d")


def test_matrix_export_round_trip(capsys, tmp_path):
    out_path = tmp_path / "e21.json"
    code, out, _ = run(capsys, "matrix", "E21", "--dim", "5",
                       "--mode", "trivial", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["generator"] == "E21"
    assert doc["mode"] == "trivial"
    assert doc["fock_levels"] == 5
    assert doc["dim"] == 10
    assert doc["assignment"] is None
    reference = fock_matrix(rho("E21", "trivial"), 5, modes=(1,))
    entries = {(i, j): parse_scalar(s) for i, j, s in doc["entries"]}
    assert entries == {(i, j): v for i, j, v in reference.matrix.iter_entries()}
    assert doc["basis"] == [list(lab) for lab in reference.basis]


def test_matrix_export_numeric(capsys, tmp_path):
    out_path = tmp_path / "a.json"
    code, _out, _err = run(capsys, "matrix", "a", "--dim", "4",
                           "--numeric", "--q", "3/2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["assignment"]["q"] == "3/2"
    entries = {(i, j): parse_scalar(s) for i, j, s in doc["entries"]}
    assert entries[(1, 2)] == sc.QScalar.from_rational(sc.q_integer(2).evaluate(q="3/2"))


def test_matrix_export_rejects_singular_q(capsys, tmp_path):
    code, _out, err = run(capsys, "matrix", "a", "--dim", "4", "--numeric",
                          "--q", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "singular" in err


def test_matrix_export_rejects_zero_p(capsys, tmp_path):
    out_path = tmp_path / "x.json"
    code, _out, err = run(capsys, "matrix", "E21", "--dim", "4", "--mode",
                          "fermionic", "--numeric", "--p1", "0",
                          "--out", str(out_path))
    assert code == 2
    assert "p1" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--q", "--p1"])
def test_matrix_export_rejects_zero_denominator(capsys, tmp_path, flag):
    out_path = tmp_path / "x.json"
    code, _out, err = run(capsys, "matrix", "E12", "--dim", "8", "--numeric",
                          flag, "1/0", "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: %s = '1/0'" % flag[2:])
    assert not out_path.exists()


def test_matrix_export_negative_assignment(capsys, tmp_path):
    # argparse reads "--q -7/3" as two options; "--q=-7/3" is one
    out_path = tmp_path / "k1.json"
    code, _out, _err = run(capsys, "matrix", "K1", "--dim", "4", "--numeric",
                           "--q=-7/3", "--p1=-2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["assignment"]["q"] == "-7/3"
    assert doc["assignment"]["p1"] == "-2"
    assert run(capsys, "matrix", "K1", "--dim", "4", "--numeric",
               "--q", "-7/3", "--out", str(out_path))[0] == 2


def test_matrix_export_to_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "no" / "such" / "x.json"
    code, out, err = run(capsys, "matrix", "E21", "--dim", "8",
                         "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("dim, q", [("64", "1e400"), ("8", "1e5000")])
def test_matrix_export_of_too_long_numbers_exits_2(capsys, tmp_path, dim, q):
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, "matrix", "K1", "--dim", dim, "--numeric",
                         "--q", q, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err == "error: the matrix has a number of more than %d digits\n" \
        % sys.get_int_max_str_digits()
    assert not out_path.exists()


def test_matrix_export_w_generator(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, _out, _err = run(capsys, "matrix", "t", "--dim", "3",
                           "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["mode"] is None
    assert [e for e in doc["entries"] if e[0] == e[1] == 2] == [[2, 2, "q^2"]]


def test_matrix_rejects_bare_gl11_generator(capsys, tmp_path):
    code, _out, err = run(capsys, "matrix", "e23", "--dim", "4",
                          "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "substitute" in err


def test_usage_error_exits_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["bogus"]) == 2


# modules that only code generation (dataclasses) or introspection needs
CODEGEN_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

SET_UP = """
import sys
before = set(sys.modules)
import qgl21.cli
from qgl21 import realization as rz, superalgebra as ua
rz.realization_map("trivial")
rz.realization_map("fermionic")
ua.relation_set()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_set_up_loads_no_code_generation_modules():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SET_UP], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qgl21.cli" in loaded
    assert not loaded & CODEGEN_MODULES
