"""simcse-forge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload unsup-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in one child process
(worker.py) whose environment, and only whose environment, pins the
BLAS/OpenMP thread count. With --trace 0 it prints the end-to-end metrics;
with --trace 1 the per-layer metrics from a traced pass, whose spans are also
written to .perfbench/traces/. Human-readable lines come first; the last
line of standard output is the result as one JSON object. Exits non-zero
without a result if the package source is missing or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("unsup-long", "two-tier-toy", "embed-cli")
THREADS = "1"
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def report(args, result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    aliases = result["aliases"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {json.dumps(result['samples'])}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for group, note in (("metrics", ""), ("ungated", ", not gated")):
        for name, m in result[group].items():
            known_as = f" ({aliases[name]}{note})" if name in aliases else ""
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}{known_as}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':28s} {ratio:14.6g} ({result['failed']} of "
          f"{result['attempted']})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "simcse_forge" / "__init__.py").is_file():
        print(f"error: no simcse_forge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                             stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"error: worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        # the only child this process waited for is the worker
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    report(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
