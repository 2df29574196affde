#!/usr/bin/env python3
"""Helpers around the benchmark in this directory. Run from the repository root.

  python3 perfbench/steady.py digests
      Regenerate perfbench/digests.txt: the FNV-1a digest of what
      `figures --scale test --jobs 1 <id>` prints, per experiment.

  python3 perfbench/steady.py runs --workload W --seeds 1-10 [--trace 1]
          [--out FILE --label NAME]
      Run the BENCHMARK.json command once per seed and print, per
      metric, the median and the interquartile range as a share of the
      median (statistics.quantiles(values, n=4)). With --out, also
      append the per-seed values and the summary to FILE as one JSON
      line tagged NAME (perfbench/STEADINESS.jsonl is the committed
      record).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LISTS = {
    "figures_percfg": "fig01 fig02 fig17 fig19 fig20 fig21 fig22 fig23 fig24 fig25 ext_bytes ext_assoc",
    "figures_banked": "table1 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig13 fig14 "
    "fig15 fig16 fig18 table3 ext_l2 ext_burst ext_alloc",
}


def fnv1a(data):
    digest = 0xCBF29CE484222325
    for byte in data:
        digest ^= byte
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


def digests():
    build = ["cargo", "build", "--release", "--offline", "-q", "-p", "cwp-core", "--bin", "figures"]
    subprocess.run(build, check=True)
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    binary = os.path.join(target, "release", "figures")
    lines = []
    for ids in LISTS.values():
        for exp in ids.split():
            out = subprocess.run(
                [binary, "--scale", "test", "--jobs", "1", "--quiet", exp],
                check=True,
                stdout=subprocess.PIPE,
            ).stdout
            lines.append(f"{exp} {fnv1a(out):016x}")
    with open(os.path.join(HERE, "digests.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests")


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def runs(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        elapsed = time.time() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout[-2000:], file=sys.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        host = json.loads(lines[-2])
        results.append({"seed": seed, "elapsed_s": elapsed, "result": result, "host": host})
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']}", file=sys.stderr)
    names = list(results[0]["result"]["metrics"])
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in results]
        med, iqr = spread(values)
        unit = results[0]["result"]["metrics"][name]["unit"]
        summary[name] = {"median": med, "iqr_frac": iqr, "unit": unit, "values": values}
        print(f"{name:34} median {med:14.6f} {unit:6} iqr/median {iqr:7.4f}")
    if args.out:
        record = {
            "label": args.label,
            "workload": args.workload,
            "trace": args.trace,
            "seeds": seeds(args.seeds),
            "host": results[0]["host"]["host"],
            "run_elapsed_s": [round(r["elapsed_s"], 2) for r in results],
            "metrics": summary,
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("digests")
    r = sub.add_parser("runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    r.add_argument("--label", default="")
    args = parser.parse_args()
    if args.cmd == "digests":
        digests()
    else:
        runs(args)


if __name__ == "__main__":
    main()
