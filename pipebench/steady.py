#!/usr/bin/env python3
"""Steadiness report for the pipeline benchmark.

Runs the benchmark on several seeds, or reads runs saved earlier, and
reports for every metric the median and quartiles across runs, the spread
(interquartile range as a share of the median) and the metric's bound from
`BENCHMARK.json`. Given two sets of runs it also compares their medians and
marks each metric as agreeing or unresolved against its own bound.

    # ten seeds of every workload, saved under pipebench/runs/a
    python3 pipebench/steady.py run pipebench/runs/a --seeds 1-10
    # report one set, or compare two
    python3 pipebench/steady.py report pipebench/runs/a [pipebench/runs/b]

Run from the repository root. `run` takes `--workloads a,b`, `--seconds`
and `--trace` as well; each run's standard output is saved as
`<dir>/<workload>_<trace>_<seed>.txt`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args, spec):
    os.makedirs(args.dir, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.dir, f"{w}_{args.trace}_{seed}.txt")
            with open(path, "w") as f:
                f.write(res.stdout)
            print(f"{w} seed {seed}: exit {res.returncode}", file=sys.stderr)


def read_set(d):
    """{(workload, trace): [(result, record)]} from the saved runs in `d`."""
    runs = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".txt"):
            continue
        lines = open(os.path.join(d, name)).read().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result line", file=sys.stderr)
            continue
        record = next((json.loads(l[len("# run "):]) for l in lines if l.startswith("# run ")), {})
        result = json.loads(lines[-1])
        key = (record.get("workload", name.rsplit("_", 2)[0]), int(record.get("trace", 0)))
        runs.setdefault(key, []).append((result, record))
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(a, b, better):
    """How much worse median `b` is than median `a`, as a share of `a`."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def report(args, spec):
    sets = [read_set(d) for d in args.dirs]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    verdicts = {"agrees": 0, "unresolved": 0}
    for key in sorted(sets[0]):
        runs = sets[0][key]
        print(f"\n== {key[0]} (trace {key[1]}): {len(runs)} runs"
              + (f" vs {len(sets[1].get(key, []))}" if len(sets) > 1 else ""))
        failed = sum(r["failed"] for r, _ in runs)
        correct = all(r["correct"] for r, _ in runs)
        print(f"   correct in every run: {correct}; failed operations: {failed}")
        samples = [rec["rungs"] for _, rec in runs if rec.get("rungs")]
        if samples:
            ref = [g for rungs in samples for g in rungs if g["offered"] == 200000]
            print(f"   reference-rung samples per pass: min {min(g['samples'] for g in ref)}, "
                  f"beyond its p99: min {min(g['p99_beyond'] for g in ref)}")
        print(f"   {'metric':32} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}"
              + ("  second median  worse   verdict" if len(sets) > 1 else ""))
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            unit = runs[0][0]["metrics"][name]["unit"]
            med, q1, q3, spread = summary(values)
            m = metrics.get(name, {})
            bound = m.get("bound")
            line = (f"   {name + ' (' + unit + ')':32} {len(values):>3} {med:>14.6g} {q1:>14.6g} "
                    f"{q3:>14.6g} {spread:>7.3f} {bound if bound is not None else '-':>6}")
            if len(sets) > 1 and key in sets[1]:
                other = [r["metrics"][name]["value"] for r, _ in sets[1][key]]
                med2, _, _, spread2 = summary(other)
                worse = worse_by(med, med2, m.get("better", "lower"))
                if bound is None:
                    verdict = "no bound"
                else:
                    steady = name == "setup_s" or (spread <= bound and spread2 <= bound)
                    verdict = "agrees" if steady and worse <= bound else "unresolved"
                    verdicts[verdict] += 1
                line += f"  {med2:>13.6g} {worse:>6.3f}   {verdict}"
            print(line)
    if len(sets) > 1:
        print(f"\n{verdicts['agrees']} metric/workload pairs agree, {verdicts['unresolved']} unresolved")
        return 1 if verdicts["unresolved"] else 0
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("dir")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    s = sub.add_parser("report")
    s.add_argument("dirs", nargs="+")
    args = p.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        run(args, spec)
        return 0
    if len(args.dirs) > 2:
        p.error("report takes one or two directories")
    return report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
