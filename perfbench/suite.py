"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py [--seeds 1-10] [--traced] [--out FILE] [--against FILE]

For each workload and seed this runs ``run.py --trace 0`` for the
``run_seconds`` of BENCHMARK.json (one run at a time), prints every
end-to-end metric by name with its unit and sample count, and then per
workload the median, the quartiles and the spread (q3 - q1) / median over
the seeds, against the bound in BENCHMARK.json.  ``--traced`` adds one
``--trace 1`` run per workload on the first seed.  ``--out`` writes the
summary, the oracle digests and the machine facts as JSON.  ``--against``
compares each median with the one in an earlier summary and flags a
metric that is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

RUN = os.path.join(workloads.HERE, "run.py")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = perf_counter()
    done = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    samples = {ln.split()[0]: int(ln.rsplit("n=", 1)[1]) for ln in lines[:-1] if " n=" in ln}
    digest = next(ln.split()[1] for ln in lines if ln.startswith("oracle_digest"))
    return {"result": result, "samples": samples, "digest": digest, "wall_s": perf_counter() - start,
            "text": "\n".join(lines[:-1])}


def machine_facts() -> dict:
    import numpy

    mods = workloads.load_pqfs()
    oracle = mods["oracle"]
    w1, _, _, _ = oracle._caratheodory_samples(oracle.OracleConfig())
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "default_oracle_jets": int(w1.size)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    ap.add_argument("--against", default=None, help="an earlier summary written by --out")
    args = ap.parse_args()
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)

    summary = {"machine": machine_facts(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in workloads.NAMES:
        runs = {}
        for seed in args.seeds:
            runs[seed] = one_run(wl, seed, seconds, 0)
            r = runs[seed]
            print(f"--- {wl} seed {seed}: correct={r['result']['correct']} attempted={r['result']['attempted']} "
                  f"failed={r['result']['failed']} wall={r['wall_s']:.1f}s\n{r['text']}", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [runs[s]["result"]["metrics"][name]["value"] for s in args.seeds]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            rows[name] = {"unit": runs[args.seeds[0]]["result"]["metrics"][name]["unit"], "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
                          "samples_per_run": statistics.median(runs[s]["samples"][name] for s in args.seeds)}
        print(f"=== {wl}: median [q1, q3] spread/bound over {len(args.seeds)} seeds")
        for name, row in rows.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "   <-- spread above a third of the bound"
            print(f"{name:18s} {row['median']:12.6g} {row['unit']:4s} [{row['q1']:.6g}, {row['q3']:.6g}] "
                  f"{row['spread']:.4f}/{row['bound']} n~{row['samples_per_run']:g}{flag}")
        if earlier:
            print(f"=== {wl}: median against {args.against}")
            for name, row in rows.items():
                before = earlier["workloads"][wl]["end_to_end"][name]["median"]
                worse = (row["median"] - before if better[name] == "lower" else before - row["median"]) / before
                row["worse_than_earlier"] = worse
                flag = "   <-- worse by more than the bound" if worse > row["bound"] else ""
                print(f"{name:18s} {row['median']:12.6g} against {before:12.6g}: worse by {worse:+.4f}{flag}")
        entry = {"end_to_end": rows, "oracle_digest": {s: runs[s]["digest"] for s in args.seeds},
                 "run_wall_s": [round(runs[s]["wall_s"], 1) for s in args.seeds]}
        if args.traced:
            traced = one_run(wl, args.seeds[0], seconds, 1)
            print(f"=== {wl} traced, seed {args.seeds[0]}\n{traced['text']}", flush=True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        summary["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
