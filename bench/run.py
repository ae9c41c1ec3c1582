#!/usr/bin/env python3
"""Certification benchmark for qgl21: time to a verdict, with the verdict
checked.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py [--seed <n> --seconds <s> --trace <0|1>]   # all four
    python3 bench/run.py --self-test

Run it from the root of a source checkout.  Workloads: fock-symbolic,
fock-numeric, induced-module, w-normal-order (see workloads.py for what each
runs and why).  Every iteration is a fresh single-threaded child process
(child.py), so the engine's caches start cold, and the harness runs one
child at a time.  The seed only shapes the inputs of fock-numeric and
w-normal-order; they are generated here, outside every timed interval.

With --trace 0 the run measures, each as a median over its samples:

  setup_s       CPU time of a set-up-only child from its start until the
                engine is ready (import qgl21, the trivial and fermionic
                realization maps, relation_set); two such children before
                every iteration
  verify_cpu_s  the child's CPU time from ready to the workload's last verdict
  peak_rss_mb   the child's peak resident set size

The run is single-threaded and CPU-bound, so on an idle host its wall time
equals its CPU time.  This host is shared, though: its speed drifts by tens
of percent over minutes, and for spells of many minutes the hypervisor takes
the CPU away for most of the time, which leaves CPU time nearly unchanged
but makes the wall time of the same work two to three times as long.  So
the wall times, verify_s (ready to the last verdict, the user's time to a
verdict) and the wall time from spawn to ready, are printed but are not
metrics, and the metrics are CPU times.  To take out the drift, every
workload child also times a fixed calibration task that does not use qgl21
(child.py), and its CPU time is multiplied by CAL_REF_S / (that child's
calibration CPU time), its wall time likewise by the calibration's wall
time.  Set-up, mostly loading modules into a fresh process, is slowed by the
host differently from computing in a warm process, so every set-up-only
child is followed by a reference process that loads standard-library
modules instead of qgl21, and the set-up child's CPU time is multiplied by
REFERENCE_S / (the reference's CPU time).  CAL_REF_S and REFERENCE_S are
round figures near the calibration's and the reference's CPU times on the
host where the benchmark was defined (2 vCPUs of an Intel Xeon, Python
3.11.7), so the figures are of the order of plain seconds there.  A change
to qgl21 moves the figures in full, as neither yardstick runs it.  The
unscaled medians are printed too.

With --trace 1 it alternates untraced and traced children and reports the
per-layer metrics of spans.py plus trace.overhead_s, the traced
verify_cpu_s minus the untraced one; times are scaled to the reference
speed as above.  The traced child's spans are written to
.bench_work/spans-<workload>.tsv.gz.

Every child's outputs go through the correctness gate in workloads.py.  The
last line of stdout is one JSON object: correct, attempted (checks), failed
(failed checks plus output mismatches) and metrics; without --workload, one
such object per workload, keyed by name.  --self-test injects a
corrupted result into each workload and exits 0 only if the gate counts it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from spans import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_ONLY_PER_ITERATION = 2
CAL_REF_S = 0.017
REFERENCE_S = 0.3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "verify_cpu_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload, traced=False, request=None):
    """Run one child to completion; returns its JSON result with the
    set-up times (wall: spawn to ready; CPU: the child's, until ready),
    elapsed (spawn to exit) and the calibration scales added."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, CHILD, workload, "1" if traced else "0"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, input=json.dumps(request) if request else "",
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("%s child timed out after %d s"
                          % (workload, CHILD_TIMEOUT_S)) from exc
    elapsed = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s child exited %d:\n%s"
                          % (workload, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    result["setup_cpu_s"] = result["ready_cpu"]
    result["elapsed"] = elapsed
    if "cal_wall" in result:
        result["scale"] = CAL_REF_S / result["cal_wall"]
        result["cpu_scale"] = CAL_REF_S / result["cal_cpu"]
    return result


class Run:
    """Children of one benchmark run and the checks they made."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.request = {"inputs": workloads.make_inputs(workload, seed),
                        "workdir": WORKDIR}
        self.deadline = time.monotonic() + seconds
        self.setups = []
        self.attempted = 0
        self.failed_checks = 0
        self.output_mismatches = 0
        self.child_failures = 0

    def fits(self, estimate_s):
        return time.monotonic() + estimate_s <= self.deadline

    def child(self, traced=False, spans_path=None):
        request = dict(self.request, spans_path=spans_path)
        try:
            result = spawn(self.workload, traced, request)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            self.attempted += 1
            self.child_failures += 1
            return None
        self.attempted += result["attempted"]
        self.failed_checks += result["failed_checks"]
        self.output_mismatches += result["output_mismatches"]
        for note in result["notes"]:
            print("%s: %s" % (self.workload, note), file=sys.stderr)
        return result

    @property
    def failed(self):
        return self.failed_checks + self.output_mismatches + self.child_failures


def _describe(name, values, unit):
    if len(values) == 1:
        return "%-30s %12.6g %-5s (1 sample)" % (name, values[0], unit)
    return "%-30s %12.6g %-5s median of %d (min %.6g, max %.6g)" % (
        name, statistics.median(values), unit, len(values),
        min(values), max(values))


def measure(run):
    """--trace 0: fresh children until the time is up, each preceded by
    set-up-only children, each paired with a reference process, so set-up
    is sampled across the whole run."""
    samples = []
    while True:
        for _ in range(SETUP_ONLY_PER_ITERATION):
            run.setups.append((spawn("setup"), spawn("reference")))
        result = run.child()
        if result is not None:
            samples.append(result)
        longest = max((r["elapsed"] for r in samples), default=0.0)
        if not samples or not run.fits(longest):
            break
    if not samples:
        return None
    unscaled = {
        "setup_s": [s["setup_cpu_s"] for s, _ in run.setups],
        "setup wall": [s["setup_wall_s"] for s, _ in run.setups],
        "reference": [r["setup_cpu_s"] for _, r in run.setups],
        "verify_s": [r["verify_s"] for r in samples],
        "verify_cpu_s": [r["verify_cpu_s"] for r in samples],
    }
    for key, values in unscaled.items():
        print(_describe("unscaled " + key, values, "s"))
    print(_describe("verify_s", [r["verify_s"] * r["scale"] for r in samples],
                    "s"))
    series = {
        "setup_s": [s["setup_cpu_s"] * REFERENCE_S / r["setup_cpu_s"]
                    for s, r in run.setups],
        "verify_cpu_s": [r["verify_cpu_s"] * r["cpu_scale"] for r in samples],
        "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
    }
    for key, values in series.items():
        print(_describe(key, values, END_TO_END_UNITS[key]))
    return {key: {"value": statistics.median(values),
                  "unit": END_TO_END_UNITS[key]}
            for key, values in series.items()}


def trace(run):
    """--trace 1: untraced and traced children in pairs until the time is
    up; counts come from the first traced child and must repeat."""
    spans_path = os.path.join(WORKDIR, "spans-%s.tsv.gz" % run.workload)
    untraced, traced = [], []
    while True:
        plain = run.child()
        layered = run.child(traced=True, spans_path=spans_path)
        if plain is None or layered is None:
            break
        untraced.append(plain)
        traced.append(layered)
        if not run.fits(plain["elapsed"] + layered["elapsed"]):
            break
    if not traced:
        return None
    first = traced[0]["layers"]
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            values = [t["layers"][key] * t["scale"] for t in traced]
        else:
            values = [t["layers"][key] for t in traced]
        if unit != "s" and len(set(values)) > 1:
            print("warning: %s differs between traced children: %s"
                  % (key, values), file=sys.stderr)
        value = first[key] if unit != "s" else statistics.median(values)
        metrics[key] = {"value": value, "unit": unit}
        print(_describe(key, values, unit))
    overhead = (
        statistics.median(t["verify_cpu_s"] * t["cpu_scale"] for t in traced)
        - statistics.median(u["verify_cpu_s"] * u["cpu_scale"]
                            for u in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(_describe("trace.overhead_s", [overhead], "s"))
    return metrics


def self_test():
    """Inject one corrupted result into each workload's gate and require
    that it is counted."""
    ok = True
    for name in workloads.NAMES:
        request = {"inputs": workloads.make_inputs(name, 0),
                   "workdir": WORKDIR, "inject": True}
        result = spawn(name, request=request)
        counted = result["failed_checks"] + result["output_mismatches"]
        print("%-16s injected failure counted: failed_checks=%d "
              "output_mismatches=%d -> %s"
              % (name, result["failed_checks"], result["output_mismatches"],
                 "ok" if counted else "NOT COUNTED"))
        ok = ok and counted > 0
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def bench(workload, seed, seconds, traced):
    """One benchmark run: prints its metrics and returns the result object,
    or None when no child completed."""
    print("workload %s  seed %d  trace %d  python %s  nproc %d" % (
        workload, seed, traced, sys.version.split()[0], os.cpu_count() or 0))
    spawn("setup")          # compiles bytecode and warms the file cache
    spawn("reference")
    run = Run(workload, seed, seconds)
    metrics = trace(run) if traced else measure(run)
    if metrics is None:
        print("error: no child of this run completed", file=sys.stderr)
        return None
    print("checks attempted %d, failed_checks %d, output_mismatches %d, "
          "failed children %d" % (run.attempted, run.failed_checks,
                                  run.output_mismatches, run.child_failures))
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES,
                    help="the workload to run (default: every workload)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qgl21", "__init__.py")):
        print("error: no qgl21 sources under %s; run from a source checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is not None:
        result = bench(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for name in workloads.NAMES:
        results[name] = bench(name, args.seed, args.seconds, args.trace)
        print()
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"]
                    for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
