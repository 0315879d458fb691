#!/usr/bin/env python3
"""semhetnet benchmark: three workloads through the public harness entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uncongested-m200 --seed 1 --seconds 30 --trace 0

One process runs a workload's cells back to back: a closed loop with one
client. Every solve and every validate check goes through a correctness gate.
With --trace 0 the end-to-end metrics of BENCHMARK.json are reported; with
--trace 1 untraced and traced passes alternate and the per-layer metrics are
reported. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "semhetnet" / "__init__.py").is_file():
    sys.exit(f"perfbench: no semhetnet package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from semhetnet import harness, metrics, solver  # noqa: E402
from semhetnet.config import ScenarioConfig  # noqa: E402
from semhetnet.semantics import FeasibleSets  # noqa: E402

WORKLOADS = ("uncongested-m200", "congested-m2000", "validate")
# Baselines first: one run right after a 10 s two-stage solve is slowed by a
# variable amount (26 to 47 ms at M = 2000), which no reference sample sees.
METHODS = ("max-sinr-wf", "max-sinr-even", "two-stage")
ALPHAS = (0.55, 0.75, 0.95)  # the paper's confidence levels
# The same limits as the solution_feasibility check of harness.validate.
BUDGET_TOL = 1e-9
GAP_TOL = 1e-9
FBAR_RTOL = 1e-9
SETUP_REPEATS = 5
# The warm-up pass runs the workload at half its user count: enough to take
# the first-call cost off the timed passes (a first M = 2000 solve runs ~20 %
# slower than the next) at a quarter of the congested pass's cost.
WARM_UP_SCALE = 0.5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import semhetnet; print(time.perf_counter() - t)")

# Printed with the results but kept out of BENCHMARK.json, which needs every
# metric on every workload, never 0, and steady from run to run. These apply
# to validate only, are 0 on correct code (failures are carried by
# "attempted" and "failed"), or spread too much between runs on a shared
# host: raw seconds, and the baselines, whose short calls spread 10-14 %
# even in reference units.
EXTRA_METRICS = {
    "wall_s": ("s", "lower"),
    "two_stage_s": ("s", "lower"),
    "baselines_s": ("s", "lower"),
    "baselines_ref": ("ref", "lower"),
    "reference_kernel_s": ("s", "lower"),
    "oracle_ratio_min": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
    "objective.chance_check_s": ("s", "lower"),
    "metrics.oracle_calls": ("count", "lower"),
    "metrics.oracle_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Cell:
    """One scenario solved by every method, then optionally harness.validate."""

    config: ScenarioConfig
    seed: int
    validate: ScenarioConfig = None

    @property
    def label(self):
        return f"M={self.config.num_users} alpha={self.config.alpha} seed={self.seed}"


def workload_cells(name, scale=1.0):
    """The fixed cells of a workload, with the user count multiplied by scale."""
    if name == "uncongested-m200":
        cfg = ScenarioConfig(num_users=round(200 * scale))
        return [Cell(cfg, seed) for seed in range(1, 9)]
    if name == "congested-m2000":
        return [Cell(ScenarioConfig(num_users=round(2000 * scale)), 1)]
    if name == "validate":
        cells = []
        for alpha in ALPHAS:
            vcfg = ScenarioConfig(alpha=alpha, num_users=round(200 * scale))
            # The scenario validate calibrates on, solved by every method as `semhetnet solve` would.
            solve_cfg = vcfg.replace(num_users=min(vcfg.num_users, 80))
            cells.append(Cell(solve_cfg, vcfg.seeds[0], vcfg))
        return cells
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def reference_kernel():
    """Fixed mix of interpreter work and small-array numpy calls (~2 ms)."""
    a = np.linspace(0.0, 1.0, 3200).reshape(200, 16)
    total = 0.0
    for i in range(200):
        total += float(np.maximum(a - i / 200, 0.0).sum())
        total += sum(j * j for j in range(60))
    return total


class RefClock:
    """Times calls in seconds and in units of the reference kernel.

    On a shared 2-vCPU host the same code runs up to 40 % slower from one
    ten-second stretch to the next. While the clock runs, a SIGALRM every
    PERIOD seconds times reference_kernel() in the main thread, also in the
    middle of a long solve. A call's time in reference units is its time
    divided by the median kernel time sampled during it and up to PERIOD
    seconds either side, which cancels most of that drift (README.md has the
    measurements). Time spent in the kernel is subtracted from the calls it
    interrupts.
    """

    PERIOD = 0.2

    def __init__(self):
        self.ticks = []  # (perf_counter at the end of a sample, kernel seconds)
        self._stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.ticks.append((end, end - start))
        self._stolen += end - start
        self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def call(self, fn, *args):
        """Return (fn(*args), (start, end, seconds spent outside the kernel))."""
        stolen, start = self._stolen, time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        return value, (start, end, end - start - (self._stolen - stolen))

    def units(self, span):
        """A call's seconds divided by the median kernel time around it."""
        start, end, seconds = span
        near = [k for t, k in self.ticks if start - self.PERIOD <= t <= end + self.PERIOD]
        if not near:
            near = [min(self.ticks, key=lambda tick: abs(tick[0] - end))[1]]
        return seconds / statistics.median(near)


def solve_problems(scenario, method, association, allocation, reported_fbar):
    """Reasons a solve outcome fails the correctness gate; empty when it passes."""
    inst = scenario.instance
    viol = metrics.feasibility_violations(
        association, allocation, inst,
        check_feasible_membership=(method == "two-stage" or scenario.config.baseline_respects_kb),
    )
    problems = []
    if viol["association_defects"]:
        problems.append(f"{viol['association_defects']} association defects")
    if viol["budget_overshoot_rel"] > BUDGET_TOL:
        problems.append(f"budget overshoot {viol['budget_overshoot_rel']:.3e}")
    if viol["full_allocation_gap_rel"] > GAP_TOL:
        problems.append(f"allocation gap {viol['full_allocation_gap_rel']:.3e}")
    fbar = metrics.instance_fbar(association, allocation, inst)
    if not math.isclose(fbar, reported_fbar, rel_tol=FBAR_RTOL, abs_tol=FBAR_RTOL):
        problems.append(f"reported Fbar {reported_fbar!r} != recomputed {fbar!r}")
    return problems


@dataclass
class PassResult:
    """Totals of one pass; the spans are (start, end, seconds) of its timed calls."""

    wall: list = field(default_factory=list)
    two_stage: list = field(default_factory=list)
    baselines: list = field(default_factory=list)
    fbar_msgps: float = 0.0
    unserved: int = 0
    oracle_ratio_min: float = math.inf
    attempted: int = 0
    problems: list = field(default_factory=list)


def run_pass(cells, rng, seen, clock):
    """Run every cell once, in an order drawn from rng, then gate the outputs.

    `seen` maps each output key to its value in earlier passes of the run;
    a later pass that disagrees is a failure (reruns must be identical).
    """
    result = PassResult()
    solves, validations = [], []

    def timed(fn, *args):
        value, span = clock.call(fn, *args)
        result.wall.append(span)
        return value, span

    for cell in rng.sample(cells, len(cells)):
        try:
            scenario = timed(harness.build_scenario, cell.config, cell.seed)[0]
            for method in METHODS:
                solves.append((cell, scenario) + timed(harness.run_method, scenario, method))
            if cell.validate is not None:
                validations.append((cell, timed(harness.validate, cell.validate)[0]))
        except Exception:  # a cell that raises is counted as failed, never skipped
            result.attempted += 1
            result.problems.append(f"{cell.label}: {traceback.format_exc()}")

    def agree(key, value):
        if seen.setdefault(key, value) != value:
            result.problems.append(f"{key}: {value!r} differs from an earlier pass ({seen[key]!r})")

    for cell, scenario, out, span in solves:
        result.attempted += 1
        rep = out.report
        for problem in solve_problems(scenario, out.method, out.association, out.allocation, rep.fbar):
            result.problems.append(f"{cell.label} {out.method}: {problem}")
        agree((cell.label, out.method), (rep.fbar, rep.unserved))
        if out.method == "two-stage":
            result.two_stage.append(span)
            result.fbar_msgps += rep.fbar
            result.unserved += rep.unserved
        else:
            result.baselines.append(span)
    for cell, checks in validations:
        result.attempted += len(checks)
        for check in checks:
            if not check.passed:
                result.problems.append(f"{cell.label} validate {check.name}: {check.detail}")
            agree((cell.label, check.name), check.passed)
            if check.name == "oracle_gap":
                result.oracle_ratio_min = min(result.oracle_ratio_min, min(check.data["ratios"]))
    return result


class Tracer:
    """Spans around public functions, patched where their callers look them up.

    A span is [name, start, end, parent index, exception name, note]; the
    note is a number read from the return value, such as an iteration count.
    """

    POINTS = (
        (harness, "build_scenario", "harness.build_scenario", None),
        (harness, "run_method", "harness.run_method", None),
        (harness, "validate", "harness.validate", None),
        (harness, "generate_topology", "topology.generate", None),
        (harness, "compute_sinr", "topology.sinr", None),
        (harness, "assign_knowledge", "semantics.knowledge", None),
        (harness, "feasible_bs_sets", "semantics.feasible", None),
        (harness, "chance_check", "objective.chance_check", None),
        (FeasibleSets, "mask", "semantics.mask", None),
        (solver, "make_instance", "solver.make_instance", None),
        (solver, "two_stage", "solver.two_stage", None),
        (solver, "solve_relaxed_ua", "solver.relaxed", lambda r: r.iterations),
        (solver, "round_association", "solver.round", None),
        (solver, "repair_overload", "solver.repair", None),
        (solver, "allocate_residual", "solver.allocate", lambda a: a.kkt_residual),
        (solver, "baseline_max_sinr", "solver.baseline_assoc", None),
        (solver, "baseline_ba", "solver.baseline_ba", None),
        (metrics, "oracle_enumerate", "metrics.oracle", None),
        (metrics, "build_report", "metrics.report", None),
    )

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, original, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block, then restore it."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in self.POINTS]
        try:
            for (owner, attr, name, note), (_, _, original) in zip(self.POINTS, originals):
                setattr(owner, attr, self._wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: call count, total seconds and self seconds."""
        count, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            count[name] += 1
            total[name] += end - start
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return count, total, self_s

    def layer_metrics(self):
        count, total, self_s = self.summary()
        relaxed = [s for s in self.spans if s[0] == "solver.relaxed"]
        solved = [s for s in relaxed if s[4] is None]
        iters = sum(s[5] for s in solved)
        relaxed_s = sum(s[2] - s[1] for s in solved)
        kkt = [s[5] for s in self.spans if s[0] == "solver.allocate" and s[4] is None]
        calls = count["solver.two_stage"]
        return {
            "topology.generate_s": total["topology.generate"],
            "topology.sinr_s": total["topology.sinr"],
            "semantics.knowledge_s": total["semantics.knowledge"],
            "semantics.feasible_s": total["semantics.feasible"],
            "solver.make_instance_s": total["solver.make_instance"],
            "semantics.mask_calls": count["semantics.mask"],
            "semantics.mask_s": total["semantics.mask"],
            "solver.relaxed_calls": len(relaxed),
            "solver.admission_restarts": sum(s[4] == "InfeasibleError" for s in relaxed),
            "solver.admission_useful_ratio": len(solved) / len(relaxed) if relaxed else 1.0,
            "solver.relaxed_failed_s": total["solver.relaxed"] - relaxed_s,
            "solver.admission_self_s": self_s["solver.two_stage"],
            "solver.relaxed_s": relaxed_s,
            "solver.relaxed_iters": iters,
            "solver.relaxed_us_per_iter": 1e6 * relaxed_s / iters if iters else 0.0,
            "solver.round_s": total["solver.round"],
            "solver.repair_s": total["solver.repair"],
            "solver.allocate_s": total["solver.allocate"],
            "solver.alloc_kkt_max": max(kkt, default=0.0),
            "solver.baseline_assoc_s": total["solver.baseline_assoc"],
            "solver.baseline_ba_s": total["solver.baseline_ba"],
            "solver.two_stage_calls": calls,
            "solver.two_stage_us_per_call": 1e6 * total["solver.two_stage"] / calls if calls else 0.0,
            "objective.chance_check_s": total["objective.chance_check"],
            "metrics.oracle_calls": count["metrics.oracle"],
            "metrics.oracle_s": total["metrics.oracle"],
            "metrics.report_s": total["metrics.report"],
        }


def measure_setup(cells, repeats):
    """Median over repeats of a fresh-interpreter package import plus building every cell."""
    samples = []
    for _ in range(repeats):
        probe = subprocess.run([sys.executable, "-E", "-s", "-c", IMPORT_PROBE, str(SRC)],
                               cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        start = time.perf_counter()
        for cell in cells:
            harness.build_scenario(cell.config, cell.seed)
        samples.append(float(probe.stdout) + time.perf_counter() - start)
    return statistics.median(samples)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, read from .git without walking above it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed, cells):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _git_commit(),
        "order_seed": seed,
        "scenario_seeds": sorted({c.seed for c in cells}),
        "num_users": sorted({c.config.num_users for c in cells}),
    }


def run(workload, seed, seconds, trace, scale=1.0):
    """Measure one workload.

    Returns (result, untraced passes, tracer of the last traced pass); the
    result holds correct, attempted, failed and every metric value by name.
    """
    cells = workload_cells(workload, scale)
    rng = random.Random(seed)
    seen = {}
    setup_s = measure_setup(cells, SETUP_REPEATS)
    clock = RefClock()
    untraced, traced, layers, tracer = [], [], [], None
    with clock.running():
        passes = [run_pass(workload_cells(workload, scale * WARM_UP_SCALE), rng, {}, clock)]
        start = time.perf_counter()
        while True:  # whole passes, stopping before one would end past --seconds
            t0 = time.perf_counter()
            untraced.append(run_pass(cells, rng, seen, clock))
            if trace:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(run_pass(cells, rng, seen, clock))
                layers.append(tracer.layer_metrics())
            now = time.perf_counter()
            if now + (now - t0) > start + seconds:
                break
    passes += untraced + traced

    def median(kind, of=untraced, units=False):
        """Median over passes of the summed time of one kind of call."""
        return statistics.median(sum(clock.units(span) if units else span[2]
                                     for span in getattr(p, kind)) for p in of)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    values = {
        "wall_s": median("wall"),
        "two_stage_s": median("two_stage"),
        "baselines_s": median("baselines"),
        "baselines_ref": median("baselines", units=True),
        "reference_kernel_s": statistics.median(k for _, k in clock.ticks),
        "oracle_ratio_min": min(p.oracle_ratio_min for p in passes),
        "failed_frac": failed / attempted,
    }
    if trace:
        values.update({k: statistics.median(layer[k] for layer in layers) for k in layers[0]})
        values["trace.overhead_frac"] = (median("wall", traced, units=True)
                                         / median("wall", units=True) - 1.0)
    else:
        values.update({
            "wall_ref": median("wall", units=True),
            "setup_s": setup_s,
            "two_stage_ref": median("two_stage", units=True),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fbar_msgps": statistics.median(p.fbar_msgps for p in untraced),
            "unserved": statistics.median(p.unserved for p in untraced),
        })
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "values": values}
    return result, untraced, tracer


def main(argv=None, scale=1.0):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seeds the order of the cells in each pass")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    cells = workload_cells(args.workload, scale)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.seed, cells), sort_keys=True))

    result, untraced, tracer = run(args.workload, args.seed, args.seconds, args.trace, scale)
    print(f"untraced passes {len(untraced)}: wall_s "
          + " ".join(f"{sum(span[2] for span in p.wall):.4f}" for p in untraced))
    values = result.pop("values")
    out = {}
    for m in declared:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:>16.6g} {m['unit']:6s} {m['better']} is better")
    for name, (unit, better) in EXTRA_METRICS.items():
        if name in values and math.isfinite(values[name]):
            print(f"{name:32s} {values[name]:>16.6g} {unit:6s} {better} is better (not in BENCHMARK.json)")
    if tracer is not None:
        count, total, self_s = tracer.summary()
        print("spans of the last traced pass: name calls total_s self_s")
        for name in sorted(total, key=total.get, reverse=True):
            print(f"  {name:28s} {count[name]:8d} {total[name]:12.6f} {self_s[name]:12.6f}")
    result["metrics"] = out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
