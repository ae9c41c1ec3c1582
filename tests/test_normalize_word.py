"""The memoized straightening rewrite against the plain rewrite stack.

normalize_word expands each word once per memo; reference_normalize_word
below is a plain rewrite stack, which expands every rewrite path
separately.  Both rewrite each word at its rightmost violation, so their
dicts must be equal term for term."""

import sys
import time

import pytest

import qgl21.scalars as sc
import qgl21.superalgebra as ua
from qgl21 import cli
from qgl21.linear import accumulate
from qgl21.superalgebra import (
    GENERATORS, STRAIGHTENING_IDENTITIES, normalize_word, oracle_straighten,
    straighten,
)

BASES_FOR = {"E12": ("E12", "E13"), "E13": ("E12", "E13"), "E23": ("E23",)}


def _reference_violation(word, bases):
    rank = {b: i for i, b in enumerate(bases)}
    big = len(bases)
    for idx in range(len(word) - 2, -1, -1):
        nm_next = word[idx + 1][0]
        r_next = rank.get(nm_next)
        if r_next is None:
            continue
        nm = word[idx][0]
        if nm == nm_next:
            continue
        if rank.get(nm, big) > r_next:
            return idx
    return None


def reference_normalize_word(coeff, word, bases=("E12", "E13"), single=False):
    done = {}
    stack = [(coeff, tuple(word))]
    guard = 0
    while stack:
        guard += 1
        if guard > 2_000_000:
            raise RuntimeError("straightening did not terminate")
        c, w = stack.pop()
        idx = _reference_violation(w, bases)
        if idx is None:
            accumulate(done, w, c)
            continue
        base = w[idx + 1][0]
        if single:
            run = 1
        else:
            run = 1
            while idx + 1 + run < len(w) and w[idx + 1 + run][0] == base:
                run += 1
        tail = w[idx + 1 + run:]
        head = w[:idx]
        for cc, repl in ua._cross(w[idx], base, run):
            stack.append((c * cc, head + repl + tail))
    return done


def _state_word(g, N, M):
    return (ua._gletter(g),) + (("E12", 1),) * N + (("E13", 1),) * M


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("g, base", STRAIGHTENING_IDENTITIES)
def test_identity_words_match_the_reference(g, base, single):
    memo = {}
    for n in range(13):
        word = ((g, 1),) + ((base, 1),) * n
        expected = reference_normalize_word(sc.ONE, word, BASES_FOR[base],
                                            single)
        assert normalize_word(sc.ONE, word, BASES_FOR[base], single) \
            == expected, n
        # the same words through one memo across n, as the lemma1 check
        # takes them
        assert normalize_word(sc.ONE, word, BASES_FOR[base], single, memo) \
            == expected, n


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("M", [0, 1])
@pytest.mark.parametrize("g", GENERATORS)
def test_state_words_match_the_reference(g, M, single):
    for N in range(11):
        word = _state_word(g, N, M)
        assert normalize_word(sc.ONE, word, single=single) \
            == reference_normalize_word(sc.ONE, word, single=single), N


@pytest.mark.parametrize("single", [False, True])
def test_e23_words_match_the_reference(single):
    for n in (1, 2, 3):
        word = (("E32", 1),) + (("E23", 1),) * n
        assert normalize_word(sc.ONE, word, ("E23",), single) \
            == reference_normalize_word(sc.ONE, word, ("E23",), single), n


@pytest.mark.parametrize("single", [False, True])
def test_coefficients_scale_the_normal_form(single):
    word = _state_word("E21", 3, 1)
    assert normalize_word(sc.ZERO, word, single=single) == {}
    assert reference_normalize_word(sc.ZERO, word, single=single) == {}
    coeff = sc.q_power(2) * sc.P1
    result = normalize_word(coeff, word, single=single)
    assert result == reference_normalize_word(coeff, word, single=single)
    assert len(result) > 1


def test_each_call_returns_a_fresh_dict():
    memo = {}
    word = _state_word("E21", 2, 0)
    first = normalize_word(sc.ONE, word, single=True, memo=memo)
    expected = dict(first)
    first.clear()
    assert normalize_word(sc.ONE, word, single=True, memo=memo) == expected
    assert memo[word] == expected


# -- the memo is local to one check ------------------------------------------------

def test_a_clean_lemma1_run_leaves_no_result_for_a_mutant(monkeypatch, capsys):
    # run the check clean, then with the E13 term of E23 through E12^n
    # scaled by q: nothing of the clean run may hide the fault
    assert cli.main(["verify", "lemma1", "--nmax", "4"]) == 0
    capsys.readouterr()
    cross = ua._cross

    def scaled(x, base, n):
        out = cross(x, base, n)
        if x[0] == "E23" and base == "E12" and n >= 2:
            out = [(c * sc.Q if repl[-1] == ("E13", 1) else c, repl)
                   for c, repl in out]
        return out

    monkeypatch.setattr(ua, "_cross", scaled)
    assert cli.main(["verify", "lemma1", "--nmax", "4"]) == 1
    failed = [line.split() for line in capsys.readouterr().out.splitlines()
              if "FAIL" in line]
    assert failed == [["E23", "through", "E12^n", "FAIL", "residuals=3"]]


# -- depth and termination ----------------------------------------------------------

def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_long_words_need_no_deep_recursion():
    ua._closed_terms.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 60)
    try:
        oracle = oracle_straighten("E21", 100, 1)
        closed = straighten("E21", 100, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert closed == oracle
    assert {(t.n, t.m) for t in oracle} == {(100, 1), (99, 1), (100, 0)}


def test_a_rewrite_back_to_its_word_is_refused_at_once(monkeypatch):
    monkeypatch.setattr(ua, "_cross", lambda x, base, n:
                        [(sc.ONE, (x,) + ((base, 1),) * n)])
    start = time.process_time()
    with pytest.raises(RuntimeError, match="straightening did not terminate"):
        normalize_word(sc.ONE, _state_word("E21", 3, 0), single=True)
    assert time.process_time() - start < 1


def test_a_rewrite_that_grows_forever_is_stopped(monkeypatch):
    # x base -> x base base: every word is new, so only the step limit
    # ends it
    monkeypatch.setattr(ua, "_cross", lambda x, base, n:
                        [(sc.ONE, (x,) + ((base, 1),) * (n + 1))])
    monkeypatch.setattr(ua, "_STEP_LIMIT", 1000)
    with pytest.raises(RuntimeError, match="straightening did not terminate"):
        normalize_word(sc.ONE, _state_word("E21", 1, 0), single=True)
