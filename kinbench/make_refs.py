"""Regenerate the reference outputs in kinbench/refs/.

Usage (from the repository root): python3 kinbench/make_refs.py

Stores, for every pool entry of inputs.py, the fp-kinetic RK4 trajectory
and the identity-sweep scattering-route duality residuals of the current
code.  Every benchmark run compares its outputs against these files, so
regenerate them only when a change is meant to alter those outputs.
Each pool entry runs in its own interpreter, because kinlab's caches
never evict and would otherwise hold every model at once.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import inputs
from run import child_env

HERE = Path(__file__).resolve().parent


def outputs(pool: int) -> dict:
    import workloads as wl

    fp = wl.fp_run(wl.fp_setup(inputs.fp_kinetic(pool)), wl.Recorder())
    identity = wl.id_run(wl.id_setup(inputs.identity_sweep(pool)), wl.Recorder())
    return {"fp_kinetic": fp, "identity_sweep": identity}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--pool":
        print(json.dumps(outputs(int(sys.argv[2]))))
        return 0
    root = Path.cwd()
    refs = {"fp_kinetic": {}, "identity_sweep": {}}
    for pool in range(inputs.POOL):
        proc = subprocess.run([sys.executable, __file__, "--pool", str(pool)], cwd=root,
                              env=child_env(root), capture_output=True, text=True, check=True)
        entry = json.loads(proc.stdout)
        for name in refs:
            refs[name][str(pool)] = entry[name]
    (HERE / "refs").mkdir(exist_ok=True)
    for name, data in refs.items():
        with open(HERE / "refs" / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
