"""kinlab benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):
    python3 kinbench/run.py --workload mc-oracle|fp-kinetic|identity-sweep
                            --seed N --seconds S --trace 0|1 [--quick]

The run repeats rounds of the workload's fixed work until S seconds have
passed (and at least enough rounds for the tail percentile).  Each round
runs `one_round.py` in a fresh interpreter.  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics; with --trace 1 the
run alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  The line before it
starts with "kinbench " and carries the details: check tallies, the tail
percentile and its sample count, library versions, and the informational
criterion-5b slope.  Exit code 0 means the run completed, whatever the
checks found; a missing `src/kinlab` or a crashed round exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# item unit and tail percentile of each workload.  A round adds 25 batches,
# 50 RK4 steps or 280 identity checks to the pooled latencies, so a full run
# has about 500, 1000 or 7000 of them; the percentile is the highest that
# keeps at least 10 beyond it in every full run, fixed so that runs compare
# the same percentile.
WORKLOADS = {
    "mc-oracle": ("trajectories", 95),
    "fp-kinetic": ("RK4 steps", 95),
    "identity-sweep": ("identity checks", 99),
}
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# a run must end within 180 s even if a round hangs
RUN_DEADLINE_S = 170
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("cached_mb"):
        return "MB_computed"
    return "count"


class RoundError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # Run isolation.  kinetic._engines and operators._workspaces are module
    # globals that never evict, so a second round in the same process would
    # time warm caches: every round gets a fresh interpreter.  BLAS is
    # pinned to one thread so that its pool neither competes for the cores
    # nor varies between rounds.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    return env


def run_round(args, root: Path, index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(index), "--trace", "1" if traced else "0"]
    if args.quick:
        cmd.append("--quick")
    if args.ref_dir is not None:
        cmd += ["--ref-dir", str(args.ref_dir.resolve())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {index} did not end within the run's {RUN_DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise RoundError(f"round {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int, designated: int) -> int:
    """Designated percentile, or the highest lower one with 10 samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if p <= designated and n * (100 - p) >= TAIL_SAMPLES * 100:
            return p
    return 50


def end_to_end(rounds: list, designated: int) -> tuple:
    ops = [ms for r in rounds for ms in r["op_ms"]]
    tail = tail_percentile(len(ops), designated)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in rounds),
        "op_p50_ms": percentile(ops, 50),
        "op_tail_ms": percentile(ops, tail),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return metrics, {"tail_percentile": tail, "op_samples": len(ops)}


def per_layer(rounds: list, traced: list) -> dict:
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in rounds))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size rounds and a single round (tests only)")
    parser.add_argument("--ref-dir", type=Path, default=None,
                        help="directory of reference outputs (tests only)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kinlab" / "__init__.py").is_file():
        print(f"kinbench: no src/kinlab package under {root}", file=sys.stderr)
        return 2
    unit, designated = WORKLOADS[args.workload]
    min_rounds = 1 if args.quick else MIN_ROUNDS
    min_traced = (1 if args.quick else MIN_TRACED_ROUNDS) if args.trace else 0
    min_ops = TAIL_SAMPLES * 100 // (100 - designated)

    rounds, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            trace_this = bool(args.trace) and len(rounds) > len(traced)
            result = run_round(args, root, len(rounds) + len(traced), trace_this,
                               RUN_DEADLINE_S - (time.perf_counter() - start))
            (traced if trace_this else rounds).append(result)
            n_ops = sum(len(r["op_ms"]) for r in rounds)
            if (time.perf_counter() - start >= args.seconds and len(rounds) >= min_rounds
                    and len(traced) >= min_traced and (args.quick or n_ops >= min_ops)):
                break
    except RoundError as exc:
        print(f"kinbench: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    checks: dict = {}
    worst: dict = {}
    for r in rounds + traced:
        for name, (a, f) in r["checks"].items():
            tally = checks.setdefault(name, [0, 0])
            tally[0] += a
            tally[1] += f
            attempted += a
            failed += f
            worst[name] = max(worst.get(name, 0.0), r["worst"][name])

    e2e, tail_info = end_to_end(rounds, designated)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "item_unit": unit,
        **tail_info,
        "failed_ops_ratio": failed / attempted if attempted else 1.0,
        "checks": checks,
        "worst": worst,
        "end_to_end": e2e,
        "environment": rounds[0].get("environment"),
    }
    if "criterion_5b_slope" in rounds[0]:
        details["criterion_5b_slope (informational, known red below 2.5)"] = \
            rounds[0]["criterion_5b_slope"]
    if args.trace:
        values = per_layer(rounds, traced)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    print("kinbench " + json.dumps(details))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
