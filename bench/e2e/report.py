#!/usr/bin/env python3
"""Combine and compare cwsp_bench results (see README.md).

  report.py combine BENCHMARK.json OUT.json RESULT.json...
      Merge one full pass's per-workload results into OUT.json. Fails
      when a run reported a failed check, when a trace file is not
      Chrome trace-event JSON, or when a run's metrics differ from the
      lists BENCHMARK.json declares.
  report.py compare BENCHMARK.json A.json B.json
      For each (workload, end-to-end metric): better, worse, unchanged
      or unresolved (an IQR wider than the bound), and any rise in
      failed_frac. Exits 1 when a pair is worse or unresolved.
"""

import json
import sys


def check_trace(path):
    """Problems with a Chrome trace-event file, as strings."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: not Chrome trace-event JSON ({e})"]
    ids = {e["args"]["id"] for e in events}
    bad = [e for e in events
           if e.get("ph") != "X" or not {"name", "ts", "dur", "pid", "tid"} <= e.keys()
           or (e["args"]["parent"] and e["args"]["parent"] not in ids)]
    return [f"{path}: {len(bad)} malformed events"] if bad else []


def combine(bench_path, out_path, result_paths):
    with open(bench_path) as f:
        bench = json.load(f)
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    workloads = {}
    for path in result_paths:
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError) as e:
            problems.append(f"{path}: {e}")
            continue
        name, trace = r["workload"], r["trace"]
        if not r["correct"]:
            problems.append(f"{name} trace {trace}: " + "; ".join(r["errors"]))
        missing = declared[trace] - set(r["metrics"])
        if missing:
            problems.append(f"{name} trace {trace}: no {sorted(missing)}")
        if trace:
            problems += check_trace(path.replace("-trace1.json", "-trace.json"))
        workloads.setdefault(name, {})["traced" if trace else "e2e"] = r
    with open(out_path, "w") as f:
        json.dump({"workloads": workloads}, f, indent=1)
    print(f"wrote {out_path}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return 1 if problems else 0


def verdict(a, b, bound, better):
    """Classify B against A for one metric with a relative bound."""
    for m in (a, b):
        if m["median"] and (m["q3"] - m["q1"]) / abs(m["median"]) > bound:
            return "unresolved"
    change = (b["median"] - a["median"]) / abs(a["median"])
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "unchanged"


def compare(bench_path, a_path, b_path):
    with open(bench_path) as f:
        bench = json.load(f)
    runs = []
    for path in (a_path, b_path):
        with open(path) as f:
            runs.append(json.load(f)["workloads"])
    status = 0
    for name in sorted(set(runs[0]) & set(runs[1])):
        a, b = (r[name]["e2e"] for r in runs)
        for spec in bench["end_to_end"]:
            ma, mb = a["metrics"][spec["name"]], b["metrics"][spec["name"]]
            v = verdict(ma, mb, spec["bound"], spec["better"])
            status |= v in ("worse", "unresolved")
            print(f"{name:21s} {spec['name']:12s} {v:10s} "
                  f"{ma['median']:.6g} -> {mb['median']:.6g} {spec['unit']} "
                  f"(IQR {ma['q3'] - ma['q1']:.3g} / {mb['q3'] - mb['q1']:.3g}, "
                  f"bound {spec['bound']:.0%})")
        fa = a["metrics"]["failed_frac"]["median"]
        fb = b["metrics"]["failed_frac"]["median"]
        if fb > fa:
            status = 1
            print(f"{name:21s} failed_frac  worse      {fa:.6g} -> {fb:.6g}")
    return status


def main(argv):
    if len(argv) >= 5 and argv[1] == "combine":
        return combine(argv[2], argv[3], argv[4:])
    if len(argv) == 5 and argv[1] == "compare":
        return compare(argv[2], argv[3], argv[4])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
