"""Benchmark child process: set up one workload, measure it, print a result.

Started by run.py with the BLAS/OpenMP thread count pinned in this process's
environment only. Imports simcse_forge from the checkout's src/ directory.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_import_start = time.perf_counter()
sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import simcse_forge  # noqa: E402
from workloads import WORKLOADS, StepClock  # noqa: E402
import tracing  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

SETUPS = 3              # set-ups per untraced run; setup_s is their median

# Per-layer metrics: name -> span name or count key. LAYER_TIMES are self
# times (span time minus its child spans), LAYER_TOTALS whole span times.
# Times and counts are per optimizer step on the training workloads and per
# request on embed-cli.
LAYER_TIMES = {
    "autograd.gelu_ms": "autograd.gelu",
    "autograd.softmax_ms": "autograd.softmax",
    "autograd.matmul_ms": "autograd.matmul",
    "autograd.layer_norm_ms": "autograd.layer_norm",
    "encoder.attention_ms": "encoder.attention",
    "encoder.encode_ms": "encoder.encode",
    "autograd.backward_ms": "autograd.backward",
    "rng.mask_ms": "rng.mask",
    "dropout.site_ms": "dropout.site",
    "optim.adamw_ms": "optim.adamw",
    "objectives.loss_ms": "objectives.loss",
    "data.batch_ms": "data.batch",
    "training.eval_ms": "training.eval",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "data.tokenize_ms": "data.tokenize",
    "cli.self_ms": "cli",
    "training.self_ms": "training",
}
# Whole span time (children included) for the layers whose work sits mostly
# in child spans: the forward pass and the dev evaluation.
LAYER_TOTALS = {
    "encoder.encode_total_ms": "encoder.encode",
    "training.eval_total_ms": "training.eval",
}
LAYER_COUNTS = {
    "encoder.encode_calls": "encode_calls",
    "autograd.graph_nodes": "graph_nodes",
    "rng.mask_units": "mask_units",
    "dropout.sites": "sites",
    "optim.tensors_updated": "tensors_updated",
}

# End-to-end metric names as the workloads' users know them.
ALIASES = {
    workload: {"op_ms_p50": f"{op}_ms_p50", "op_ms_p75": f"{op}_ms_p75",
               "op_ms_p90": f"{op}_ms_p90", "items_per_s": items,
               "round_s_p50": round_}
    for workload, op, items, round_ in (
        ("unsup-long", "step", "examples_per_s", "trainer_call_s"),
        ("two-tier-toy", "step", "examples_per_s", "pipeline_s"),
        ("embed-cli", "request", "sentences_per_s", "request_cycle_s"))
}


def provenance() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload, seconds: float) -> list:
    """Closed loop: one round after another until `seconds` have passed."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.round(len(rounds)))
    return rounds


def _ops_ms(rounds) -> list[float]:
    return [(b - a) / 1e6 for r in rounds for a, b in r.ops]


def end_to_end(rounds, setup_s: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the ungated latency quantiles.

    The host's CPU speed flips between a fast state and one about 1.5 times
    slower, for seconds to minutes at a time. A latency quantile jumps to the
    other state when the share of slow time in a run crosses it, so across
    runs it moves by up to that factor; throughput moves in proportion to the
    share, so it is the gated timing.
    """
    ops = _ops_ms(rounds)
    quartiles = statistics.quantiles(ops, n=4, method="inclusive")
    gated = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (sum(r.items for r in rounds)
                        / sum(r.seconds for r in rounds), "1/s"),
    }
    ungated = {
        "op_ms_p50": (quartiles[1], "ms"),
        "op_ms_p75": (quartiles[2], "ms"),
        "op_ms_p90": (statistics.quantiles(ops, n=10, method="inclusive")[8], "ms"),
        "round_s_p50": (statistics.median(r.seconds for r in rounds), "s"),
    }
    return gated, ungated


def per_layer(plain, traced, spans) -> dict:
    units = sum(r.units for r in traced)
    times, whole, counts = tracing.layer_totals(spans)
    out = {name: (times.get(span, 0) / 1e6 / units, "ms")
           for name, span in LAYER_TIMES.items()}
    out.update({name: (whole.get(span, 0) / 1e6 / units, "ms")
                for name, span in LAYER_TOTALS.items()})
    out.update({name: (counts.get(key, 0) / units, "count")
                for name, key in LAYER_COUNTS.items()})
    slots = counts.get("pad_slots", 0)
    out["data.pad_fill"] = (counts.get("pad_real", 0) / slots if slots else 0.0,
                            "ratio")
    shares = tracing.layer_share(spans, [op for r in traced for op in r.ops])
    out["trace.layer_share"] = (statistics.median(shares), "ratio")
    out["trace.overhead_ms"] = (statistics.fmean(_ops_ms(traced))
                                - statistics.fmean(_ops_ms(plain)), "ms")
    return out


def run(args) -> dict:
    if not Path(simcse_forge.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"simcse_forge imported from {simcse_forge.__file__}, "
                           f"not from {SRC}")
    cls = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    clock = StepClock()
    if cls.trains:
        clock.install()
    setups, workload = [], None
    try:
        for k in range(1 if args.trace else SETUPS):
            if workload is not None:
                shutil.rmtree(workload.workdir)
            workdir = work / f"setup{k}"
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            workload = cls(args.seed, workdir, clock)
            workload.setup()
            setups.append(time.perf_counter() - start)
        if args.trace:
            plain = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracing.instrument(tracer) as missing:
                traced = measure(workload, args.seconds / 2)
            metrics, ungated = per_layer(plain, traced, tracer.spans), {}
            rounds = plain + traced
            tracer.dump(ROOT / ".perfbench" / "traces"
                        / f"{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed,
                         "missing_targets": missing, "provenance": provenance(),
                         "ops": [op for r in traced for op in r.ops]})
        else:
            rounds = measure(workload, args.seconds)
            metrics, ungated = end_to_end(rounds,
                                          IMPORT_S + statistics.median(setups))
    finally:
        if cls.trains:
            clock.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()},
        "samples": {"rounds": len(rounds), "ops": sum(len(r.ops) for r in rounds),
                    "setups": len(setups)},
        "problems": [p for r in rounds for p in r.problems][:20],
        "aliases": ALIASES[args.workload],
        "provenance": provenance(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # keeps cli.main from installing its INFO-level handler on every command
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
