#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout and a change checkout.

For each workload, runs `perfbench/run.py` once in each checkout per pair,
alternating which side goes first, and writes one JSON file: every run's
result line and provenance, each side's median and quartiles per metric,
and the pairs each side wins. For example, from the root of the change:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --trace 0 --out BENCH_<n>.json

Both sides run their own perfbench/run.py and their own src/. A pair's two
runs get the same --seed (the pair's number, from 1). The run length, the
default workloads, a metric's direction ("better") and, for the end-to-end
metrics, its regression bound come from the parent's BENCHMARK.json. A
change wins a pair when its value is better than the parent's; ties count
for neither. `gain` holds when the change wins at least 9 in 10 of the
pairs both sides completed, the medians differ by more than the parent's
interquartile range, every change run completes with a correct result and
the change fails no more operations than the parent; `worse_frac` is how much worse,
relative to the parent's median, the change's median is.

If --out already exists, the series of the same workload and --trace in it
are replaced and the others kept, so traced and untraced runs can share a
file; the file must describe the same two src/ trees.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def src_digest(root):
    """SHA-256 over the checkout's src/ Python files, path and bytes, sorted."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    """One perfbench run in `root`: its provenance, result line, exit code
    and elapsed seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    provenance = next((json.loads(line[len("provenance "):]) for line in lines
                       if line.startswith("provenance ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return {"command": cmd[1:], "returncode": proc.returncode, "elapsed_s": elapsed,
            "provenance": provenance, "result": result}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs, declared):
    """Per metric: each side's quartiles, the pair wins, the gain test and,
    for declared metrics, how much worse the change's median is."""
    ok = [r for r in runs if r["returncode"] == 0 and r["result"] is not None]
    failed = {side: sum(r["result"]["failed"] for r in ok if r["side"] == side) for side in SIDES}
    # a gain does not count if a change run crashed, reported a wrong result
    # or the change failed more operations than the parent
    sound = (failed["change"] <= failed["parent"]
             and all(r in ok and r["result"]["correct"] for r in runs if r["side"] == "change"))
    names = sorted({name for r in ok for name in r["result"]["metrics"]})
    summary = {}
    for name in names:
        spec = declared[name]
        better = spec["better"]
        by_pair = {side: {r["pair"]: r["result"]["metrics"][name]["value"]
                          for r in ok if r["side"] == side and name in r["result"]["metrics"]}
                   for side in SIDES}
        sides = {side: quartiles(list(vals.values())) for side, vals in by_pair.items()
                 if len(vals) >= 2}
        common = sorted(set(by_pair["parent"]) & set(by_pair["change"]))
        sign = 1.0 if better == "higher" else -1.0
        wins = {"change": 0, "parent": 0, "tie": 0, "pairs": len(common)}
        for p in common:
            d = sign * (by_pair["change"][p] - by_pair["parent"][p])
            wins["change" if d > 0 else "parent" if d < 0 else "tie"] += 1
        entry = {"better": better, "sides": sides, "wins": wins}
        if len(sides) == 2:
            parent, change = sides["parent"], sides["change"]
            iqr = parent["q3"] - parent["q1"]
            shift = sign * (change["median"] - parent["median"])
            entry["gain"] = (sound and wins["pairs"] > 0 and wins["change"] >= 0.9 * wins["pairs"]
                             and shift > iqr)
            if "bound" in spec and parent["median"]:
                entry["worse_frac"] = -shift / abs(parent["median"])
                entry["bound"] = spec["bound"]
                entry["within_bound"] = entry["worse_frac"] <= spec["bound"]
        summary[name] = entry
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the change checkout")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in the parent's BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} has no perfbench/run.py")
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    sides = {side: {"src_sha256": src_digest(root)} for side, root in roots.items()}
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if doc and doc["sides"] != sides:
        parser.error(f"{args.out} holds runs of other src/ trees")
    series = [s for s in doc.get("series", [])
              if (s["workload"], s["trace"]) not in {(w, args.trace) for w in args.workloads}]
    for workload in args.workloads:
        runs = []
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(roots[side], workload, pair, seconds, args.trace)
                runs.append({"side": side, "pair": pair, "position": position, **run})
                correct = (run["result"] or {}).get("correct")
                print(f"{workload} pair {pair} {side}: exit {run['returncode']}, "
                      f"correct {correct}, {run['elapsed_s']:.0f} s", flush=True)
        series.append({"workload": workload, "trace": args.trace, "seconds": seconds,
                       "pairs": args.pairs, "runs": runs, "summary": summarise(runs, declared)})
    doc = {"sides": sides, "series": series}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
