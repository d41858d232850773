"""Steadiness check: run every workload repeatedly in two sets.

    python3 bench/steady.py --runs 5 --first-seed 1

Each run is a fresh ``bench/run.py`` process with its own seed, on every
workload and at the run length of BENCHMARK.json; seeds count up from
``--first-seed`` over both sets, so no two runs share one.
Within a run index the workloads follow one another, so a slow stretch
of the host touches every workload alike.  For every workload and
end-to-end metric the command prints each set's median and quartiles,
the spread (interquartile distance over the median), the gap between
the two sets' medians (positive when the second set is worse) and the
metric's bound from BENCHMARK.json, and writes the raw results to
``bench/out/steady-<first seed>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s"
                         % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="two sets of benchmark runs")
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[], []] for w in workloads}
    seed = args.first_seed
    for s in range(2):
        for _ in range(args.runs):
            for w in workloads:
                results[w][s].append(run_once(w, seed, spec["run_seconds"]))
                print("set %d %s seed %d done" % (s + 1, w, seed),
                      file=sys.stderr, flush=True)
            seed += 1

    report = {}
    print("| workload | metric | set 1 median [q1, q3] | set 2 median [q1, q3]"
          " | spread 1 / 2 / all | gap | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        report[w] = {"failed_share": [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in results[w]]}
        for m in spec["end_to_end"]:
            name = m["name"]
            sets = [[r["metrics"][name]["value"] for r in runs]
                    for runs in results[w]]
            one, two = summary(sets[0]), summary(sets[1])
            pooled = summary(sets[0] + sets[1])
            gap = two["median"] / one["median"] - 1.0
            if m["better"] == "higher":
                gap = -gap
            report[w][name] = {"sets": sets, "set1": one, "set2": two,
                               "all": pooled, "gap": gap, "bound": m["bound"]}
            print("| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] "
                  "| %.3f / %.3f / %.3f | %+.3f | %.2f |"
                  % (w, name, one["median"], one["q1"], one["q3"],
                     two["median"], two["q1"], two["q3"], one["spread"],
                     two["spread"], pooled["spread"], gap, m["bound"]))
        print("| %s | failed share | %.6g | %.6g | | | |"
              % ((w,) + tuple(report[w]["failed_share"])))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "steady-%d.json" % args.first_seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"results": results, "report": report}, fh, indent=1)
    print("raw results in %s" % os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
