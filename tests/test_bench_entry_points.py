"""The benchmark reads the engine by name: the traced run wraps its public
entry points (bench/spans.py), and the workloads and the child process
(bench/workloads.py, bench/child.py) import its modules and read their
attributes.  A rename in src/ must fail here rather than crash the
benchmark."""

import ast
import importlib
import pathlib
import runpy

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_entry_points_resolve():
    spans = runpy.run_path(str(BENCH / "spans.py"))
    entry_points = spans["LAYER_ENTRY_POINTS"]
    missing = []
    for layer, points in entry_points.items():
        for modname, clsname, attr in points:
            mod = importlib.import_module(modname)
            if clsname is None:
                ok = callable(getattr(mod, attr, None))
            else:
                # the recorder patches the attribute the class itself defines
                owner = getattr(mod, clsname, None)
                ok = owner is not None and callable(vars(owner).get(attr))
            if not ok:
                missing.append((layer, modname, clsname, attr))
    assert not missing


def _qgl21_paths(tree):
    """Every dotted path the source takes from qgl21: each imported name,
    and each attribute chain (a.b.c, and a.b within it) read from one."""
    bound, paths = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qgl21":
                    paths.add(alias.name)
                    # import qgl21.cli binds qgl21; ... as x binds x
                    bound[alias.asname or "qgl21"] = \
                        alias.name if alias.asname else "qgl21"
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "qgl21":
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    node.module + "." + alias.name
    paths.update(bound.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            paths.add(".".join([bound[node.id]] + attrs[::-1]))
    return paths


def _resolves(path):
    """True when path is a module of qgl21, or attributes of the longest
    module prefix of it."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("name, sample", [
    ("workloads.py", {"qgl21.induced.ACT_GENERATORS",
                      "qgl21.induced.InducedVector.basis_state",
                      "qgl21.realization.GENERATOR_IMAGE_NAMES",
                      "qgl21.superalgebra.STRAIGHTENING_IDENTITIES",
                      "qgl21.parsing.parse_scalar"}),
    ("child.py", {"qgl21.cli.main", "qgl21.realization.realization_map",
                  "qgl21.induced.act_oracle", "qgl21.walgebra.generator"}),
])
def test_benchmark_names_resolve(name, sample):
    paths = _qgl21_paths(ast.parse((BENCH / name).read_text()))
    assert sample <= paths
    assert [p for p in sorted(paths) if not _resolves(p)] == []
