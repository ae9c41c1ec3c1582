import json

import pytest

import qgl21.scalars as sc
from qgl21 import cli
from qgl21.parsing import parse_scalar
from qgl21.realization import fock_matrix, rho
from qgl21.reporting import CheckResult


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
