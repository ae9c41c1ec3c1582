"""Canonical forms must not drift: the rendered entries of every abstract
generator's Fock matrix (fermionic mode, 6 levels, symbolic) are compared
string for string with a corpus recorded before the scalar arithmetic was
rewritten.  A different but equal canonical form would change CLI output
and JSON exports, so this checks rendering, not just equality."""

import json
from pathlib import Path

from qgl21.realization import (
    GENERATOR_IMAGE_NAMES, fock_matrix, fock_modes, rho,
)

GOLDEN = Path(__file__).parent / "data" / "fock_render_golden.json"
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


if __name__ == "__main__":
    # Re-record the corpus (only when a rendering change is intended).
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(render_corpus(), indent=1) + "\n")
