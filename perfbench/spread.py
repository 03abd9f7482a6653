#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median
and quartile spread (IQR / median), the steadiness measure the bounds
in BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workload serve_hot --seeds 1 2 3 4 5 \
        [--seconds 10] [--trace 0]

Run from the repository root; it invokes the command of BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in a.seeds:
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # Host-noise evidence from the report, to mark runs hit by steal.
        noise = {}
        for line in out.stdout.splitlines():
            f = line.split()
            if len(f) == 3 and f[0] == "prov" and f[1] in ("steal_ticks", "max_loop_gap_ms"):
                noise[f[1]] = f[2]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
            + "".join(f" [{k}={v}]" for k, v in noise.items()), flush=True)
    print(f"\n{'metric':<34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread == spread:
            flag = "  over bound" if spread > bound else (
                "  over bound/3" if spread > bound / 3 else "")
        print(f"{name:<34} {med:>14.6g} {spread:>11.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
