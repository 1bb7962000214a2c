#!/usr/bin/env python3
"""Steadiness and determinism checks for the repository benchmark.

    python3 perfbench/steady.py [--runs 10]
    python3 perfbench/steady.py --determinism

Run from the repository root. The default mode makes two sets of runs
of every workload of BENCHMARK.json. A set runs each workload --runs
times, run i on seed DEFAULT_SEED + i, as a benchmark check does; both
sets use the same seeds, so they make the same simulated work. For
each set and end-to-end metric it prints the median and quartiles and
the spread (q3 - q1) / median. A spread above the metric's bound fails,
and one above a third of it is flagged. The second set's median must
lie within the bound of the first set's, either way. Every run must
report correct outputs. The tool also prints how much the simulated
work (the "work" line of each run) spreads over the seeds.

--determinism runs each workload on the default and the held-out seed
with the benchmark's workers, with one worker and traced (twice), and
requires one result digest per seed and identical per-layer counts
between the two traced runs.

Exit status is 0 only if every check passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import DEFAULT_SEED, HELDOUT_SEED  # noqa: E402

SETS = 2


def run_once(spec, workload, seed, trace, extra=()):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
        *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady.py: {' '.join(cmd)} exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    tagged = {ln.split()[0]: ln.split()[1:] for ln in lines[:-1]
              if ln.split()}
    return result, tagged


def digest(tagged):
    return tagged.get("digest", [None])[0]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def steadiness(spec, runs):
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = [DEFAULT_SEED + i for i in range(runs)]
    ok = True
    medians = []  # medians[set][workload][metric]
    work = {w: {} for w in names}  # work[workload][seed] = work line
    for s in range(SETS):
        values = {w: {m["name"]: [] for m in metrics} for w in names}
        for seed in seeds:
            for w in names:
                result, tagged = run_once(spec, w, seed, 0)
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAIL {w} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                    ok = False
                work[w][seed] = tagged.get("work", [])
                got = {m["name"]: result["metrics"][m["name"]]["value"]
                       for m in metrics}
                for name, v in got.items():
                    values[w][name].append(v)
                print(f"  set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in got.items()), flush=True)
        print(f"set {s + 1}: {runs} runs per workload, seeds "
              f"{seeds[0]}..{seeds[-1]}")
        set_medians = {}
        for w in names:
            set_medians[w] = {}
            for m in metrics:
                q1, med, q3, sp = spread(values[w][m["name"]])
                bound = m["bound"]
                status = "ok"
                if sp > bound / 3:
                    status = "above bound/3"
                if sp > bound:
                    status = "TOO NOISY"
                    ok = False
                set_medians[w][m["name"]] = med
                print(f"  {w:20s} {m['name']:18s} median {med:12.6g} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} {m['unit']:10s} "
                      f"spread {sp:6.3f} bound {bound:.2f} {status}")
        medians.append(set_medians)
    for s in range(1, SETS):
        for w in names:
            for m in metrics:
                change = medians[s][w][m["name"]] / \
                    medians[0][w][m["name"]] - 1.0
                bad = abs(change) > m["bound"]
                ok = ok and not bad
                print(f"set {s + 1} vs 1: {w:20s} {m['name']:18s} "
                      f"{change:+.3f} {'OUTSIDE BOUND' if bad else 'ok'}")
    # The "work" line reads "executed_cycles <n> commands <n>".
    for w in names:
        lines = list(work[w].values())
        for k in range(0, len(lines[0]), 2):
            _, med, _, sp = spread([float(x[k + 1]) for x in lines])
            print(f"work over seeds: {w:20s} {lines[0][k]:16s} median "
                  f"{med:12.6g} spread {sp:6.3f}")
    return ok


def determinism(spec):
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            runs = {
                "timed": run_once(spec, w, seed, 0),
                "timed, 1 worker": run_once(spec, w, seed, 0,
                                            ("--workers", "1")),
                "traced": run_once(spec, w, seed, 1),
                "traced again": run_once(spec, w, seed, 1),
            }
            digests = {digest(t) for _, t in runs.values()}
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] == "count"}
                      for r, _ in (runs["traced"], runs["traced again"])]
            correct = all(r["correct"] for r, _ in runs.values())
            good = len(digests) == 1 and None not in digests and \
                counts[0] == counts[1] and correct
            ok = ok and good
            print(f"{w:20s} seed {seed:5d} digests {sorted(digests)} "
                  f"counts {'equal' if counts[0] == counts[1] else 'DIFFER'}"
                  f" correct {correct} -> {'ok' if good else 'FAIL'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = determinism(spec) if args.determinism else \
        steadiness(spec, args.runs)
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
