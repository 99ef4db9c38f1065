"""Benchmark of vppsched: one workload per process, pinned inputs, every
result checked.

Run from the repository root:

    python3 perfbench/run.py --workload day-benders --seed 42 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, run_s, peak_rss_mb);
``--trace 1`` adds a traced pass and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Inputs and artifacts go under
``perfbench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# one BLAS thread: the only parallelism measured is the Benders worker pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))


def units() -> dict:
    """Unit of every metric, as BENCHMARK.json at the repository root
    declares it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    unit = units()
    s = result.summary
    print(f"workload {result.workload}  seed {result.seed}  "
          f"passes {s['passes']}  set-ups {s['setups']}  "
          f"pass walls {s['pass_walls']} s")
    print("fingerprint " + json.dumps(result.fingerprint, sort_keys=True))
    for name, value in result.metrics.items():
        print(f"  {name:30s} {value:.6g} {unit[name]}")
    print(f"  {'failed_ops':30s} {s['failed_ops']:.6g} ratio "
          f"({result.failed} failed / {result.attempted} attempted)")
    if "gap_final" in s:
        print(f"  {'gap_final':30s} {s['gap_final']:.6g} ratio "
              f"({s['unconverged']} of {s['benders_solves']} Benders solves "
              f"stopped at the iteration budget; iterations "
              f"{s['iterations']}, upper bounds {s['upper_bounds']})")
    print(f"  objectives {s['objectives']}  extensive references "
          f"{s['references']}")
    for reason in result.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result.metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42,
                        help="scenario seed (default 42)")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="repeat passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "vppsched", "__init__.py")):
        print("error: no src/vppsched in the current directory; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, ".work", args.workload)
    report(workloads.execute(workloads.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), work_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
