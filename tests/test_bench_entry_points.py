"""The benchmark's traced run wraps the engine's public entry points by
name (bench/spans.py); a rename in src/ must fail here rather than crash
the traced benchmark."""

import importlib
import pathlib
import runpy

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_benchmark_entry_points_resolve():
    entry_points = runpy.run_path(str(SPANS))["LAYER_ENTRY_POINTS"]
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
