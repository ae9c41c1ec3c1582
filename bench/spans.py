"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each qgl21 layer from the
outside (nothing inside src/ is traced), records one span per call, keeps
the spans in memory and restores the original functions on uninstall.  A
span has a name, a start, an end, the parent span (the innermost span open
when it started) and a run id, which the child sets to tell set-up, the
workload and the closing probe apart.

Per-layer metrics are derived from the spans: a call count, which repeats
exactly between runs, and a self time, which is a span's duration minus the
durations of its child spans.  Observers attached to some entry points count
wasted work (repeated operands, entry products); the time they take is
stored per span and subtracted as well, so bookkeeping is not charged to
any layer.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "invert", "evaluate")
_BINARY_OPS = frozenset(("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__truediv__",
                         "__rtruediv__"))

# layer -> (module, class name or None, attribute) for every wrapped entry point
LAYER_ENTRY_POINTS = {
    "scalars": [("qgl21.scalars", "QScalar", op) for op in _SCALAR_OPS],
    "qmatrix": [("qgl21.qmatrix", "QMatrix", "__mul__"),
                ("qgl21.qmatrix", "QMatrix", "apply_column")],
    "realization": [("qgl21.realization", None, name) for name in (
        "fock_matrix", "realization_map", "image_of_uelement",
        "check_relations_on_fock", "verify_realization", "dyson_check")],
    "induced": [("qgl21.induced", None, name) for name in (
        "act", "act_oracle", "apply_uelement", "check_relations_on_module")],
    "superalgebra": [("qgl21.superalgebra", None, name) for name in (
        "normalize_word", "straighten", "oracle_straighten",
        "check_straightening_identities")],
    "walgebra": [("qgl21.walgebra", None, name)
                 for name in ("w_mul", "substitute_gl11", "render_element")],
    "parsing": [("qgl21.parsing", None, name)
                for name in ("parse_w", "parse_scalar")],
    "cli": [("qgl21.cli", None, "main")],
}

LAYERS = tuple(LAYER_ENTRY_POINTS)


class SpanRecorder:
    """In-memory span table with one column per field."""

    def __init__(self):
        self.names = []             # span name index -> "layer:qualname"
        self.layer_of = []          # span name index -> layer
        self.name_col = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bookkeeping = array("d")
        self.run_id = 0
        self._stack = [-1]
        self._patches = []
        self.scalar_pairs_seen = set()
        self.scalar_pair_repeats = 0
        self.scalar_pairs = 0
        self.act_inputs_seen = set()
        self.act_repeats = 0
        self.entry_products = 0

    # -- recording ------------------------------------------------------------

    def _name_index(self, layer, qualname):
        self.names.append("%s:%s" % (layer, qualname))
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer, qualname, fn, observe):
        nid = self._name_index(layer, qualname)
        clock = time.perf_counter
        stack = self._stack
        rec = self

        def traced(*args, **kwargs):
            sid = len(rec.start)
            t0 = clock()
            rec.name_col.append(nid)
            rec.parent.append(stack[-1])
            rec.run.append(rec.run_id)
            rec.start.append(t0)
            rec.end.append(t0)
            if observe is None:
                rec.bookkeeping.append(0.0)
            else:
                observe(args)
                rec.bookkeeping.append(clock() - t0)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec.end[sid] = clock()

        return traced

    def _observer(self, layer, attr):
        if layer == "scalars" and attr in _BINARY_OPS:
            return lambda args: self._see_scalar_pair(attr, args)
        if layer == "qmatrix":
            return self._count_entry_products
        if layer == "induced" and attr == "act":
            return self._see_act_input
        return None

    def _see_scalar_pair(self, op, args):
        try:
            key = hash((op, hash(args[0]), hash(args[1])))
        except TypeError:          # an operand QScalar does not handle
            return
        self.scalar_pairs += 1
        if key in self.scalar_pairs_seen:
            self.scalar_pair_repeats += 1
        else:
            self.scalar_pairs_seen.add(key)

    def _count_entry_products(self, args):
        # products a*b the call performs, from the operands' sparsity
        mat, other = args[0], args[1]
        if isinstance(other, dict):          # apply_column(vec)
            self.entry_products += sum(
                1 for row in mat.rows.values() for k in row if other.get(k))
        elif hasattr(other, "rows"):         # matrix product
            rows = other.rows
            self.entry_products += sum(
                len(rows.get(k, ())) for row in mat.rows.values() for k in row)

    def _see_act_input(self, args):
        g, x, rep = args[0], args[1], args[2]
        key = hash((g, id(rep), frozenset(x.terms)))
        if key in self.act_inputs_seen:
            self.act_repeats += 1
        else:
            self.act_inputs_seen.add(key)

    # -- installing -------------------------------------------------------------

    def install(self):
        """Wrap every entry point in LAYER_ENTRY_POINTS.  A module-level
        function is replaced under every name any qgl21 module binds it to,
        so calls through `from .x import f` aliases are traced too."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qgl21" or name.startswith("qgl21.")]
        for layer, points in LAYER_ENTRY_POINTS.items():
            for modname, clsname, attr in points:
                mod = sys.modules[modname]
                observe = self._observer(layer, attr)
                if clsname is not None:
                    owner = getattr(mod, clsname)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(
                        layer, "%s.%s" % (clsname, attr), original, observe))
                    continue
                original = getattr(mod, attr)
                traced = self._wrap(layer, attr, original, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- deriving metrics ---------------------------------------------------------

    def layer_totals(self):
        """{layer: {"self_s", "entries"}} and {name: {"calls", "self_s",
        "total_s"}}.

        "entries" counts spans whose parent is not in the same layer, i.e.
        calls made into the layer from outside it."""
        n = len(self.start)
        child_time = [0.0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child_time[p] += self.end[s] - self.start[s]
        by_name = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                   for name in self.names}
        by_layer = {layer: {"entries": 0, "self_s": 0.0}
                    for layer in LAYERS}
        for s in range(n):
            nid = self.name_col[s]
            name = self.names[nid]
            layer = self.layer_of[nid]
            duration = self.end[s] - self.start[s]
            own = duration - child_time[s] - self.bookkeeping[s]
            row = by_name[name]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += duration
            lrow = by_layer[layer]
            lrow["self_s"] += own
            p = self.parent[s]
            if p < 0 or self.layer_of[self.name_col[p]] != layer:
                lrow["entries"] += 1
        return by_layer, by_name

    def write(self, path):
        """Write the span table as gzip'd tab-separated text, one span a
        line: id, name, parent id (-1 for none), run id, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tparent\trun\tstart\tend\n")
            for s in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    s, self.names[self.name_col[s]], self.parent[s],
                    self.run[s], self.start[s], self.end[s]))


# per-layer metric -> unit, in the order the benchmark reports them
PER_LAYER_UNITS = {
    "scalars.ops": "count",
    "scalars.self_s": "s",
    "scalars.repeat_ratio": "ratio",
    "qmatrix.mul_calls": "count",
    "qmatrix.entry_products": "count",
    "qmatrix.self_s": "s",
    "realization.fock_matrix_calls": "count",
    "realization.fock_matrix_self_s": "s",
    "realization.image_build_s": "s",
    "realization.self_s": "s",
    "induced.act_calls": "count",
    "induced.self_s": "s",
    "induced.act_repeat_ratio": "ratio",
    "superalgebra.normalize_calls": "count",
    "superalgebra.self_s": "s",
    "walgebra.w_mul_calls": "count",
    "walgebra.self_s": "s",
    "walgebra.cache_hit_ratio": "ratio",
    "parsing.parse_calls": "count",
    "parsing.self_s": "s",
    "cli.self_s": "s",
}


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(rec, walgebra):
    """The per-layer metrics of one traced process.  `walgebra` is the
    imported qgl21.walgebra module, whose lru_cache helpers report hits."""
    by_layer, by_name = rec.layer_totals()

    def name(n):
        return by_name.get(n, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    hits = misses = 0
    for helper in vars(walgebra).values():
        info = getattr(helper, "cache_info", None)
        if callable(info):
            stats = info()
            hits += stats.hits
            misses += stats.misses
    act_calls = name("induced:act")["calls"]
    return {
        "scalars.ops": by_layer["scalars"]["entries"],
        "scalars.self_s": by_layer["scalars"]["self_s"],
        "scalars.repeat_ratio": _share(rec.scalar_pair_repeats,
                                       rec.scalar_pairs),
        "qmatrix.mul_calls": name("qmatrix:QMatrix.__mul__")["calls"],
        "qmatrix.entry_products": rec.entry_products,
        "qmatrix.self_s": by_layer["qmatrix"]["self_s"],
        "realization.fock_matrix_calls": name("realization:fock_matrix")["calls"],
        "realization.fock_matrix_self_s":
            name("realization:fock_matrix")["self_s"],
        "realization.image_build_s":
            name("realization:realization_map")["total_s"],
        "realization.self_s": by_layer["realization"]["self_s"],
        "induced.act_calls": act_calls,
        "induced.self_s": by_layer["induced"]["self_s"],
        "induced.act_repeat_ratio": _share(rec.act_repeats, act_calls),
        "superalgebra.normalize_calls":
            name("superalgebra:normalize_word")["calls"],
        "superalgebra.self_s": by_layer["superalgebra"]["self_s"],
        "walgebra.w_mul_calls": name("walgebra:w_mul")["calls"],
        "walgebra.self_s": by_layer["walgebra"]["self_s"],
        "walgebra.cache_hit_ratio": _share(hits, hits + misses),
        "parsing.parse_calls": name("parsing:parse_w")["calls"]
        + name("parsing:parse_scalar")["calls"],
        "parsing.self_s": by_layer["parsing"]["self_s"],
        "cli.self_s": by_layer["cli"]["self_s"],
    }
