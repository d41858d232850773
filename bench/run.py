"""Benchmark command for imagepoet.

    python3 bench/run.py --workload generate-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The package is imported from the
checkout's ``src`` directory; when that is missing the command exits with
code 2 and prints no result.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The exit code is 0 when every check passed and 1 when
one failed.  Inputs and the traced run's span file are written under
``bench/out``; the inputs are removed before the command exits.
"""

import argparse
import json
import os
import shutil
import sys

# One BLAS thread: at two threads paper-scale poem times spread far more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["generate-paper", "train-paper"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_package():
    """Import imagepoet from this checkout's sources, or return None."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "imagepoet", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import imagepoet
    if not os.path.abspath(imagepoet.__file__).startswith(src + os.sep):
        return None
    return imagepoet


def print_table(table, wall):
    print("%-34s %8s %8s %12s %12s %7s" % ("span", "calls", "in rounds",
                                           "self s", "total s", "self %"))
    for name in sorted(table, key=lambda n: -table[n][2]):
        in_rounds, calls, self_s, total_s = table[name]
        print("%-34s %8d %8d %12.6f %12.6f %6.2f%%"
              % (name, calls, in_rounds, self_s, total_s,
                 100.0 * self_s / wall if wall else 0.0))


def main(argv=None):
    args = parse_args(argv)
    ip = import_package()
    if ip is None:
        print("bench: no imagepoet sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work)
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(args.seconds, tracer)
    try:
        if tracer is not None:
            tracer.install(ip)
        values = workloads.WORKLOADS[args.workload](run, args.seed, work)
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        units = workloads.UNITS
    else:
        values, table = workloads.trace_metrics(run, values)
        units = tracing.metric_units()
        self_sum = sum(row[2] for row in table.values())
        wall = values["trace.wall_s"]
        print_table(table, wall)
        print("traced wall %.6f s = span self times %.6f s + untraced "
              "remainder %.6f s; tracing overhead %.1f%% per round"
              % (wall, self_sum, values["trace.untraced_s"],
                 values["trace.overhead_pct"]))
        # The sum holds by construction; these hold only if the spans do.
        run.op(("trace-remainder",), values["trace.untraced_s"] >= 0.0,
               "top-level spans cover more than the traced wall time")
        problems = tracer.span_problems(run.intervals)
        run.op(("trace-spans",), not problems,
               "%d misplaced spans, first: %s"
               % (len(problems), "; ".join(problems[:3])))
        path = os.path.join(OUT, "trace-%s-seed%d.tsv"
                            % (args.workload, args.seed))
        tracer.write(path)
        print("spans written to %s" % os.path.relpath(path, ROOT))

    for problem in run.problems:
        print("FAILED %s" % problem, file=sys.stderr)
    failed = sum(1 for ok in run.ops.values() if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
