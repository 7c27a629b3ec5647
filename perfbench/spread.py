"""Runs the benchmark on several seeds per workload and reports, for each
end-to-end metric, the median and the run-to-run spread (interquartile
range over median, quartiles as statistics.quantiles(n=4) gives them).

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 --workloads pmf-wide-bsp fleet-zoo
    python3 perfbench/spread.py --seeds 10 --record perfbench/BASELINE.json

--record writes the medians, spreads and host line of every workload to
the given JSON file, together with the per-layer figures of one traced
run (--trace 1, first seed) per workload; run_seconds and the workload
list come from BENCHMARK.json unless given.

A spread at or above a third of the metric's bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    host = next((l for l in lines if l.startswith("# perfbench")), "")
    return json.loads(lines[-1]), host


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--record")
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": opts.seconds, "seeds": [], "workloads": {}}
    for wl in opts.workloads:
        values, host = {}, ""
        seeds = list(range(opts.first_seed, opts.first_seed + opts.seeds))
        for seed in seeds:
            doc, host = run_once(bench["command"], wl, seed, opts.seconds, 0)
            if not doc["correct"]:
                raise SystemExit(f"{wl} seed {seed}: output check failed")
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        record["seeds"] = seeds
        record["host"] = host
        print(f"{wl}  ({len(seeds)} seeds, {opts.seconds}s runs)")
        entry = {}
        for name, vals in values.items():
            s = spread(vals)
            bound = bounds.get(name)
            flag = "" if bound is None or s < bound / 3 else "  <-- at or above bound/3"
            print(f"  {name:20s} median {statistics.median(vals):14.6g}  spread {s:7.4f}  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vals))
            entry[name] = {"median": statistics.median(vals), "spread": round(s, 6), "values": vals}
        record["workloads"][wl] = entry
        if opts.record:
            doc, _ = run_once(bench["command"], wl, seeds[0], opts.seconds, 1)
            if not doc["correct"]:
                raise SystemExit(f"{wl} seed {seeds[0]} traced: output check failed")
            record.setdefault("per_layer", {})[wl] = {
                name: m["value"] for name, m in sorted(doc["metrics"].items())}
        sys.stdout.flush()
    if opts.record:
        with open(opts.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
