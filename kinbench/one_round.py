"""One round of a workload, run by `run.py` in a fresh interpreter.

Usage: python3 kinbench/one_round.py --workload NAME --seed N --round K
       [--trace 0|1] [--quick] [--ref-dir DIR]

Prints one JSON object: set-up and work times, operation latencies, item
count, check tallies, peak RSS and, when traced, the per-layer metrics.
The inputs are built from the seed before kinlab is imported, so that
`setup_s` covers the import of kinlab (numpy and scipy included), parsing
the INI text and building the engine and initial state.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import inputs

QUICK_BATCHES = 3
FULL_BATCHES = 25


def build_inputs(args) -> dict:
    if args.workload == "mc-oracle":
        return inputs.mc_oracle(args.seed, args.round,
                                QUICK_BATCHES if args.quick else FULL_BATCHES)
    if args.workload == "fp-kinetic":
        return inputs.fp_kinetic(args.seed, args.round)
    return inputs.identity_sweep(args.seed, args.round)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("mc-oracle", "fp-kinetic", "identity-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--ref-dir", type=Path, default=None)
    args = parser.parse_args()
    data = build_inputs(args)

    start = time.perf_counter()
    import kinlab
    imported = time.perf_counter()
    src = Path.cwd().resolve() / "src"
    if src not in Path(kinlab.__file__).resolve().parents:
        print(f"kinlab imported from {kinlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads as wl

    tracer = spans.install(kinlab) if args.trace else None
    ref_dir = args.ref_dir or wl.REF_DIR
    if args.workload == "mc-oracle":
        setup, run, ref, kwargs = wl.mc_setup, wl.mc_run, None, {}
    elif args.workload == "fp-kinetic":
        setup, run = wl.fp_setup, wl.fp_run
        ref = wl.load_ref("fp_kinetic", data["pool"], ref_dir)
        kwargs = {"t_max": 5 * wl.FP_DT} if args.quick else {}
    else:
        setup, run = wl.id_setup, wl.id_run
        ref = wl.load_ref("identity_sweep", data["pool"], ref_dir)
        kwargs = {"n_times": 1} if args.quick else {}

    setup_start = time.perf_counter()
    state = setup(data)
    setup_end = time.perf_counter()
    rec = wl.Recorder()
    run(state, rec, ref, **kwargs)
    work_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": (imported - start) + (setup_end - setup_start),
        "wall_s": work_end - setup_end,
        "items": rec.items,
        "op_ms": rec.op_ms,
        "peak_rss_mb": peak_rss_mb,
        "checks": rec.checks,
        "worst": rec.worst,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
    elif args.round == 0:
        result["environment"] = wl.environment()
        if args.workload == "identity-sweep":
            result["criterion_5b_slope"] = wl.criterion_5b_slope()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
