"""One benchmark iteration in a fresh single-threaded process.

    python3 bench/child.py <workload | setup | reference> <trace 0|1>

The parent spawns this script once per iteration, so the engine's caches
start cold, as they do for a command-line user.  The child sets the engine
up (import qgl21 and qgl21.cli, the trivial and fermionic realization maps,
the relation set) and notes the monotonic time and its own CPU time at
which it is ready; the CPU time is set-up's, and the parent, which noted
the time just before the spawn, turns the monotonic time into the wall time
of set-up.  With the workload name `setup` the child stops there.
Otherwise it reads the request (the workload's inputs) as JSON from stdin,
runs the workload, checks the outputs, and prints one JSON line with its
timings, peak RSS, check counts and, when traced, the per-layer metrics.

A workload child also times a fixed calibration task that does not touch
qgl21, outside the timed work: for about half a second before and half a
second after its workload.  With the name `reference` the child does not set
the engine up but loads standard-library modules and runs the calibration
task briefly, as the yardstick for set-up.  The parent scales the times by
these, which takes the shared host's changes of speed out of the figures;
see run.py.
"""

import os
import re
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Runs of the calibration task (about 17 ms each) before and after a
# workload's timed work, so that the calibration spans the host's speed
# around it.
CALIBRATION_REPS = 35
# The reference process for set-up (see _reference).
REFERENCE_MODULES = ("argparse", "json", "decimal", "email.parser",
                     "http.client", "logging", "unittest", "xml.dom.minidom",
                     "csv", "dataclasses", "inspect", "ast", "tempfile")
REFERENCE_CALIBRATION_REPS = 2


_TOKEN = re.compile(r"([a-z]+\d*)(?:\^(-?\d+))?")


def _calibration_task():
    """A fixed amount of the kinds of work the engine does, in three parts
    of about equal time, none of it in qgl21: products of polynomials with
    Fraction coefficients (scalars), tokenising and formatting monomial
    strings into small objects (parsing, the CLI), and counting and sorting
    a thousand table entries at a time (caches and dict bookkeeping).  It
    keeps little memory, so that it does not raise the peak RSS.  The mix
    tracks the host's speed more closely for every workload than any one
    part alone."""
    base = {0: Fraction(3, 7), 1: Fraction(2, 3), 2: Fraction(-5, 11)}
    for _ in range(4):
        acc = {0: Fraction(1)}
        for _ in range(10):
            out = {}
            for i, a in acc.items():
                for j, b in base.items():
                    out[i + j] = out.get(i + j, 0) + a * b
            acc = out

    table = {}
    for i in range(200):
        text = " * ".join("%s%d^%d" % ("xyz"[j % 3], j % 5, (i * j) % 7 - 3)
                          for j in range(10))
        key = tuple(sorted((name, int(e) if e else 1)
                           for name, e in _TOKEN.findall(text)))
        table[key] = table.get(key, 0) + i
        table[", ".join("%s=%r" % kv for kv in key)] = i

    x = 12345
    for _ in range(4):
        counts, items = {}, []
        for _ in range(1000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            k = (x % 751, x % 17)
            counts[k] = counts.get(k, 0) + 1
            items.append((x % 977, k))
        items.sort()
    return acc, table, counts, items


def calibrate(reps):
    """Wall and CPU seconds per run of the calibration task, averaged over
    `reps` runs."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(reps):
        _calibration_task()
    return ((time.perf_counter() - wall0) / reps,
            (time.process_time() - cpu0) / reps)


def _reference():
    """The set-up of a process that does not involve qgl21, as the yardstick
    for set-up: import a fixed set of standard-library modules, then run the
    calibration task.  Like the engine's set-up, it is mostly loading
    modules into a fresh process, which the host slows down differently
    from computing in a warm one."""
    import importlib

    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    calibrate(REFERENCE_CALIBRATION_REPS)


def _set_up(traced):
    import qgl21
    import qgl21.cli          # the console script's module, as a user loads it
    from qgl21 import realization as rz
    from qgl21 import superalgebra as ua

    if not os.path.abspath(qgl21.__file__).startswith(SRC + os.sep):
        raise SystemExit("qgl21 was imported from %s, not from %s"
                         % (qgl21.__file__, SRC))
    recorder = None
    if traced:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
    rz.realization_map("trivial")
    rz.realization_map("fermionic")
    ua.relation_set()
    return recorder


def _probe():
    """A fixed call into every layer, made by every traced child after its
    workload, so that no layer's self time reads a constant zero."""
    import contextlib
    import io

    from qgl21 import cli
    from qgl21 import induced as ind
    from qgl21 import realization as rz
    from qgl21 import walgebra as wa

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["normal-order", "a * a+"])
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    state = ind.InducedVector.basis_state(1, 1, 0)
    ind.act("E21", state, rep)
    ind.act_oracle("E21", state, rep)
    rz.fock_matrix(wa.generator("a"), 2)


def main(argv):
    workload, traced = argv[1], argv[2] == "1"
    if workload == "reference":
        _reference()
        print('{"ready": %r, "ready_cpu": %r}'
              % (time.monotonic(), time.process_time()))
        return 0
    recorder = _set_up(traced)
    ready = time.monotonic()
    ready_cpu = time.process_time()
    if workload == "setup":
        print('{"ready": %r, "ready_cpu": %r}' % (ready, ready_cpu))
        return 0

    # imported after `ready`, so that setup_s is the engine's own set-up
    import json
    import resource
    import shutil
    import tempfile

    import workloads

    request = json.load(sys.stdin)
    inputs = request["inputs"]
    workdir = tempfile.mkdtemp(dir=request["workdir"])
    try:
        before = calibrate(CALIBRATION_REPS)
        if recorder is not None:
            recorder.run_id = 1
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        out = workloads.run(workload, inputs, workdir)
        verify_s = time.perf_counter() - wall0
        verify_cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = calibrate(CALIBRATION_REPS)
        layers = None
        if recorder is not None:
            recorder.run_id = 2
            _probe()
            recorder.uninstall()
            from qgl21 import walgebra
            from spans import layer_metrics
            layers = layer_metrics(recorder, walgebra)
            if request.get("spans_path"):
                recorder.write(request["spans_path"])
        tally = workloads.gate(workload, inputs, out, workdir,
                               inject=request.get("inject", False))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "ready": ready,
        "ready_cpu": ready_cpu,
        "verify_s": verify_s,
        "verify_cpu_s": verify_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "cal_wall": (before[0] + after[0]) / 2,
        "cal_cpu": (before[1] + after[1]) / 2,
        "attempted": tally.attempted,
        "failed_checks": tally.failed_checks,
        "output_mismatches": tally.output_mismatches,
        "notes": tally.notes,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
