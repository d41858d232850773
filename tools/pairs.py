"""Time two source trees in alternating pairs and judge a claimed gain.

    python tools/pairs.py PARENT_TREE CHANGE_TREE --kind bench --pairs 10 \\
        --workload train-paper --seconds 30 --seed-base 41
    python tools/pairs.py PARENT_TREE CHANGE_TREE --kind init --pairs 10

Each tree is a checkout of this repository.  Every measurement runs in a
fresh process from its own tree, and the side that runs first alternates:
the parent on even pairs, the change on odd ones.

    bench  bench/run.py --trace 0 of each tree, pair i at seed
           SEED_BASE + i; the metrics are the end-to-end ones that the
           change tree's BENCHMARK.json declares, with their direction.
    init   init_params(ModelConfig(), SeededRng(1)) at paper scale,
           timed in a process that does nothing else (init_params_s).

One JSON document goes to standard output: every run, and for each
metric each side's median and quartiles, the pairs the change wins (ties
count for neither side), the parent's interquartile range, and the
verdict of the choosing-metrics rule (section 8): a gain needs wins in
at least nine tenths of the pairs and a median gap, in the better
direction, larger than the parent's interquartile range.  Pairs with a
failed run on either side count as pairs run but win nothing.  Exits 1
when a run failed, else 0.  Uses the standard library and numpy only.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")

# Runs in a fresh interpreter: argv[1] is the tree whose src/ it imports.
INIT_PROBE = """
import json, os, sys, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import imagepoet as ip
config = ip.ModelConfig()
t0 = time.perf_counter()
model = ip.init_params(config, ip.SeededRng(1))
elapsed = time.perf_counter() - t0
print(json.dumps({"correct": model.param_count() == config.param_count(),
                  "metrics": {"init_params_s": {"value": elapsed,
                                                "unit": "s"}}}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="the parent commit's source tree")
    p.add_argument("change", help="the change's source tree")
    p.add_argument("--kind", required=True, choices=["bench", "init"])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--workload", help="bench workload (bench kind)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="bench run length (bench kind, default 30)")
    p.add_argument("--seed-base", type=int, default=1,
                   help="seed of pair 0 (bench kind, default 1)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.kind == "bench" and not args.workload:
        p.error("--kind bench needs --workload")
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src", "imagepoet")):
            p.error("%s is not a source tree (no src/imagepoet)" % tree)
    return args


def directions(args):
    """Metric name -> "lower" or "higher", whichever is better."""
    if args.kind == "init":
        return {"init_params_s": "lower"}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def command(args, tree, pair):
    if args.kind == "init":
        return [sys.executable, "-c", INIT_PROBE, tree]
    return [sys.executable, os.path.join("bench", "run.py"),
            "--workload", args.workload, "--seed", str(args.seed_base + pair),
            "--seconds", str(args.seconds), "--trace", "0"]


def measure(args, tree, pair):
    """One run's record: its exit code, correctness and metric values."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(command(args, tree, pair), cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    metrics = {name: m["value"]
               for name, m in result.get("metrics", {}).items()}
    ok = proc.returncode == 0 and result.get("correct") is True
    return {"exit": proc.returncode, "ok": ok,
            "failed_ops": result.get("failed"), "metrics": metrics,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def judge(runs, name, better):
    """Each side's spread of one metric, the change's wins and the
    verdict, over the pairs in runs."""
    sign = 1.0 if better == "lower" else -1.0
    values = {side: [] for side in SIDES}
    wins = 0
    for pair in runs:
        got = [pair[side]["metrics"].get(name) for side in SIDES]
        for side, value in zip(SIDES, got):
            if value is not None:
                values[side].append(value)
        if None not in got and all(pair[side]["ok"] for side in SIDES):
            wins += sign * (got[0] - got[1]) > 0
    if not all(values.values()):
        return None
    parent, change = spread(values["parent"]), spread(values["change"])
    iqr = parent["q3"] - parent["q1"]
    gap = change["median"] - parent["median"]
    return {"better": better, "parent": parent, "change": change,
            "change_wins": int(wins), "pairs": len(runs),
            "parent_iqr": iqr, "median_gap": gap,
            "relative_gap": (gap / parent["median"] if parent["median"]
                             else None),
            "gain": (wins >= 0.9 * len(runs) and sign * -gap > iqr)}


def main(argv):
    args = parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        record = {"pair": pair, "first": order[0]}
        for side in order:
            record[side] = measure(args, trees[side], pair)
            print("pair %d %s %s" % (pair, side, json.dumps(
                record[side]["metrics"])), file=sys.stderr)
        runs.append(record)
    summary = {}
    for name, better in directions(args).items():
        verdict = judge(runs, name, better)
        if verdict is not None:
            summary[name] = verdict
    failed = sum(not pair[side]["ok"] for pair in runs for side in SIDES)
    json.dump({"kind": args.kind, "trees": trees,
               "workload": args.workload if args.kind == "bench" else None,
               "seconds": args.seconds if args.kind == "bench" else None,
               "seed_base": args.seed_base if args.kind == "bench" else None,
               "pairs": args.pairs, "failed_runs": failed,
               "summary": summary, "runs": runs}, sys.stdout, indent=1)
    print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
