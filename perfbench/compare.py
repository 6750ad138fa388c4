#!/usr/bin/env python3
"""Run the benchmark over several seeds and compare sets of runs.

    python3 perfbench/compare.py run --workload dense --seeds 1-10 --out a.jsonl
    python3 perfbench/compare.py spread a.jsonl
    python3 perfbench/compare.py compare base.jsonl new.jsonl
    python3 perfbench/compare.py repeat a.jsonl
    python3 perfbench/compare.py self-test

`run` appends one line per run: {"workload", "seed", "trace", "result"}.
`spread` prints, per workload and end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json. `compare` flags every
workload and metric whose median in the second set is worse than in
the first by more than its bound, and exits 1 if any is flagged.
`repeat` checks that the counts that must repeat exactly do so across
runs with the same seed. Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict

SPEC = "BENCHMARK.json"

# Metrics that must read the same on every run with the same seed.
DETERMINISTIC_E2E = ["tour_gain_pct"]
DETERMINISTIC_LAYER_SUFFIXES = (".sweeps", ".checks")
DETERMINISTIC_LAYER = ["sim.modeled_s", "sim.flops", "sim.bytes"]


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(args):
    spec = load_spec()
    command = args.bin.split() if args.bin else spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                argv = command + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(argv, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    result = None
                if proc.returncode != 0 or result is None:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                row = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(rows, trace=0):
    """{workload: {metric: [values]}} over the correct runs."""
    out = defaultdict(lambda: defaultdict(list))
    for row in rows:
        result = row["result"]
        if row.get("trace", 0) != trace or not result or not result.get("correct"):
            continue
        for name, m in result["metrics"].items():
            out[row["workload"]][name].append(m["value"])
    return out


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def spread(args):
    spec = load_spec()
    rows = read_runs(args.file)
    bad = [r for r in rows if not r["result"] or not r["result"].get("correct")]
    for r in bad:
        print(f"INCORRECT: {r['workload']} seed {r['seed']}")
    worst = 0.0
    for workload, metrics in sorted(by_workload(rows).items()):
        for m in spec["end_to_end"]:
            values = metrics.get(m["name"], [])
            if len(values) < 2:
                print(f"{workload:<10} {m['name']:<18} too few runs ({len(values)})")
                continue
            med, share = spread_of(values)
            worst = max(worst, share / m["bound"])
            flag = "OVER BOUND" if share > m["bound"] else ("over 1/3" if share > m["bound"] / 3 else "")
            print(f"{workload:<10} {m['name']:<18} n={len(values):<3} median={med:<14.6g} "
                  f"iqr/median={share:.4f} bound={m['bound']} {flag}")
    print(f"worst spread / bound: {worst:.3f}")
    return 1 if bad else 0


def flagged(base_rows, new_rows, spec):
    """(workload, metric, worse-by) for every metric worse than its bound."""
    base, new = by_workload(base_rows), by_workload(new_rows)
    out = []
    for workload in sorted(base):
        for m in spec["end_to_end"]:
            a, b = base[workload].get(m["name"]), new.get(workload, {}).get(m["name"])
            if not a or not b:
                out.append((workload, m["name"], float("inf")))
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > m["bound"]:
                out.append((workload, m["name"], worse))
    return out


def compare(args):
    spec = load_spec()
    flags = flagged(read_runs(args.base), read_runs(args.new), spec)
    for workload, name, worse in flags:
        print(f"WORSE: {workload} {name} by {worse:.1%}")
    if not flags:
        print("no end-to-end metric worse than its bound")
    return 1 if flags else 0


def repeat(args):
    """Runs with the same workload, seed and trace flag must agree
    exactly on the deterministic metrics."""
    groups = defaultdict(list)
    for row in read_runs(args.file):
        if row["result"]:
            groups[(row["workload"], row["seed"], row.get("trace", 0))].append(row["result"]["metrics"])
    failures = 0
    for key, runs in sorted(groups.items()):
        names = [n for n in runs[0]
                 if n in DETERMINISTIC_E2E or n in DETERMINISTIC_LAYER
                 or (n.startswith("engine.") and n.endswith(DETERMINISTIC_LAYER_SUFFIXES))]
        for name in names:
            values = {r[name]["value"] for r in runs}
            if len(values) > 1:
                failures += 1
                print(f"DIFFERS: {key} {name}: {sorted(values)}")
        if len(runs) > 1:
            print(f"{key}: {len(runs)} runs, {len(names)} deterministic metrics checked")
    return 1 if failures else 0


def synthetic(spec, worse=None):
    """Ten runs per workload with fixed jitter; `worse` = (workload,
    metric, share) makes one metric worse by that share of its value."""
    rows = []
    jitter = [0.97, 1.0, 1.02, 0.99, 1.01, 0.98, 1.03, 1.0, 0.995, 1.005]
    for w in spec["workloads"]:
        for seed, j in enumerate(jitter):
            metrics = {}
            for m in spec["end_to_end"]:
                value = 10.0 * j
                if worse and worse[0] == w["name"] and worse[1] == m["name"]:
                    value *= 1 + worse[2] if m["better"] == "lower" else 1 - worse[2]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            rows.append({"workload": w["name"], "seed": seed, "trace": 0,
                         "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}})
    return rows


def self_test(_args):
    spec = load_spec()
    base = synthetic(spec)
    assert flagged(base, synthetic(spec), spec) == [], "identical sets must pass"
    caught = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            def flags(share):
                found = flagged(base, synthetic(spec, (w["name"], m["name"], share)), spec)
                return [(f[0], f[1]) for f in found]
            # Worse by more than the bound: flagged, on that workload and
            # metric only. Within the bound: not flagged.
            assert flags(m["bound"] + 0.05) == [(w["name"], m["name"])], (w["name"], m["name"])
            assert flags(m["bound"] / 2) == [], (w["name"], m["name"])
            # 20 % worse is flagged wherever the bound is tighter than that.
            if m["bound"] < 0.2:
                assert flags(0.2) == [(w["name"], m["name"])], (w["name"], m["name"])
                caught.append(m["name"])
    assert caught, "no metric has a bound that flags a 20 % regression"
    print("self-test passed: identical sets pass; every metric worse than its bound on one "
          f"workload is flagged there; 20 % worse is flagged for {sorted(set(caught))}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--bin", help="a built benchmark binary to run instead of the command")
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    d = sub.add_parser("repeat")
    d.add_argument("file")
    sub.add_parser("self-test")
    args = p.parse_args()
    handler = {"run": run, "spread": spread, "compare": compare, "repeat": repeat,
               "self-test": self_test}[args.cmd]
    sys.exit(handler(args) or 0)


if __name__ == "__main__":
    main()
