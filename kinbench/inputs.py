"""Seeded workload inputs, built with the standard library only.

The child process builds its inputs before it imports kinlab, so nothing
here may import numpy or kinlab: their import time belongs to `setup_s`.
Each input is the INI text that `kinlab.model.load_model` parses, plus the
times, observables and batch seeds the workload feeds to the library.

The deterministic workloads draw their models from a pool of `POOL`
seeded inputs, because their outputs are checked against references
stored in `refs/` for every pool entry.  Round k of a run takes entry
(seed + k) mod POOL, so every run averages over most of the pool and its
cost does not hinge on the few models one seed would pick.
"""

from __future__ import annotations

import hashlib
import random

POOL = 32
# distinct identity-sweep times per model; a reduced run checks a prefix
N_TIMES = 10

# criterion-8 model of the acceptance suite: two states, copy interaction
# kernel, interacting environment, gamma = 0.2 pair correlation
MC_INI = """\
[model]
m = 1
grid_points = 2
grid_weights = 1.0 1.0
eps = 0.1
n_max = 2
rate_tracer = 1.0
rate_env1 = 1.0
rate_env2 = 1.0
rate_int = 1.0
kernel_tracer = uniform
kernel_env1 = uniform
kernel_env2 = uniform
kernel_int = copy

[initial]
tracer0 = 0.7 0.3
env1 = 0.6 0.4
g = sigma:0.2
activity = 1.0

[run]
t_max = 1.0
seed = {seed}
"""


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _normalized(rng: random.Random, weights, lo: float, hi: float) -> list:
    """Positive vector with weighted sum 1."""
    raw = [rng.uniform(lo, hi) for _ in weights]
    mass = sum(w * r for w, r in zip(weights, raw))
    return [r / mass for r in raw]


def _kernel_rows(rng: random.Random, weights, n_args: int) -> list:
    """Kernel table in the INI layout: one normalized row per argument tuple."""
    flat = []
    for _ in range(len(weights) ** n_args):
        flat.extend(_normalized(rng, weights, 0.1, 1.0))
    return flat


def random_model_ini(rng: random.Random, n: int, eps: float, n_max: int,
                     env_pairs: bool, t_max: float = 1.0, dt: float = 1e-3,
                     order: int = 1) -> str:
    """INI text of a random pair-correlated model on an n-point grid."""
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]

    def rates(count):
        return _floats(rng.uniform(0.2, 1.5) for _ in range(count))

    rate_env2 = rates(n * n) if env_pairs else "0.0"
    return "\n".join([
        "[model]",
        "m = 1",
        f"grid_points = {n}",
        f"grid_weights = {_floats(weights)}",
        f"eps = {eps!r}",
        f"n_max = {n_max}",
        f"rate_tracer = {rates(n)}",
        f"rate_env1 = {rates(n)}",
        f"rate_env2 = {rate_env2}",
        f"rate_int = {rates(n * n)}",
        f"kernel_tracer = {_floats(_kernel_rows(rng, weights, 1))}",
        f"kernel_env1 = {_floats(_kernel_rows(rng, weights, 1))}",
        f"kernel_env2 = {_floats(_kernel_rows(rng, weights, 2))}",
        f"kernel_int = {_floats(_kernel_rows(rng, weights, 2))}",
        "",
        "[initial]",
        f"tracer0 = {_floats(_normalized(rng, weights, 0.2, 1.0))}",
        f"env1 = {_floats(_normalized(rng, weights, 0.2, 1.0))}",
        "g = sigma:0.2",
        "activity = 1.0",
        "",
        "[run]",
        f"t_max = {t_max!r}",
        f"dt = {dt!r}",
        f"series_order = {order}",
        "",
    ])


def batch_seed(seed: int, round_index: int, batch: int) -> int:
    """Independent Monte Carlo seed for one trajectory batch."""
    digest = hashlib.sha256(f"{seed}:{round_index}:{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def mc_oracle(seed: int, round_index: int, batches: int) -> dict:
    return {
        "ini": MC_INI.format(seed=seed),
        "batch_seeds": [batch_seed(seed, round_index, b) for b in range(batches)],
    }


def fp_kinetic(seed: int, round_index: int = 0) -> dict:
    """3-state model, free environment (rate_env2 = 0), n_max 3, K 3, dt 1e-2."""
    pool = (seed + round_index) % POOL
    rng = random.Random(f"fp-kinetic:{pool}")
    return {
        "pool": pool,
        "ini": random_model_ini(rng, 3, eps=0.1, n_max=3, env_pairs=False,
                                t_max=0.5, dt=1e-2, order=3),
    }


def identity_sweep(seed: int, round_index: int = 0) -> dict:
    """2- and 3-state models and the distinct times the identities are checked at.

    Cluster models have environment pair collisions and reach sector
    dimension 3^5 = 243; duality models keep rate_env2 = 0, the domain where
    the scattering route holds.  Cluster and mean-value times include
    negative ones, where the semigroups are inverses.
    """
    pool = (seed + round_index) % POOL
    rng = random.Random(f"identity-sweep:{pool}")
    cluster = [random_model_ini(rng, n, eps=rng.uniform(0.05, 0.3), n_max=4, env_pairs=True)
               for n in (2, 3)]
    duality = [random_model_ini(rng, n, eps=rng.uniform(0.05, 0.3), n_max=3, env_pairs=False)
               for n in (2, 3)]
    cluster_times = [rng.uniform(0.05, 1.0) for _ in range(N_TIMES)]
    for i in range(0, N_TIMES, 3):
        cluster_times[i] = -rng.uniform(0.05, 0.25)
    duality_times = [rng.uniform(0.05, 1.0) for _ in range(N_TIMES)]
    observables = [
        ([rng.uniform(-1.0, 1.0) for _ in range(n)], [rng.uniform(-1.0, 1.0) for _ in range(n)])
        for n in (2, 3)
    ]
    return {
        "pool": pool,
        "cluster_ini": cluster,
        "duality_ini": duality,
        "cluster_times": cluster_times,
        "duality_times": duality_times,
        "observables": observables,
    }
