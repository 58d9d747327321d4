import os

# One OpenBLAS thread, as kinbench runs: unpinned OpenBLAS makes small
# products and expm calls slow on some runs of a shared 2-core host.  It only
# takes effect before numpy loads, and pytest imports this file first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from kinlab.model import CorrelationProfile, MicroGrid, ModelSpec, tiny_model


def random_model(seed, n_points=3, m=1, eps=0.3, n_max=2, unit_weights=False):
    """Random valid model on an n-point grid; kernels weight-normalized."""
    rng = np.random.default_rng(seed)
    w = np.ones(n_points) if unit_weights else rng.uniform(0.5, 1.5, n_points)
    grid = MicroGrid(points=tuple(range(n_points)), weights=w)
    n = m * n_points
    wfull = np.tile(w, m)

    def rand_kernel(n_args):
        raw = rng.uniform(0.1, 1.0, (n,) * (1 + n_args))
        mass = np.tensordot(wfull, raw, axes=([0], [0]))
        return raw / mass[np.newaxis, ...]

    return ModelSpec(
        m=m, grid=grid, eps=eps, n_max=n_max,
        rate_tracer=rng.uniform(0.2, 1.5, n), rate_env1=rng.uniform(0.2, 1.5, n),
        rate_env2=rng.uniform(0.2, 1.5, (n, n)), rate_int=rng.uniform(0.2, 1.5, (n, n)),
        kernel_tracer=rand_kernel(1), kernel_env1=rand_kernel(1),
        kernel_env2=rand_kernel(2), kernel_int=rand_kernel(2),
    )


def fp_stage_times(dt, steps):
    """The stage times of `integrate_fp`, in its order and float arithmetic."""
    h = 0.5 * dt
    for i in range(steps):
        yield from ((2 * i) * h, (2 * i + 1) * h, (2 * i + 1) * h, (2 * i + 2) * h)


def correlated_profile(model, gamma=0.2, tracer0=(0.7, 0.3), env1=(0.65, 0.35), depth=None):
    """Pair-correlated profile on a two-state model."""
    sigma = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(model.n_states)])
    g_pair = 1.0 + gamma * np.multiply.outer(sigma, sigma)
    return CorrelationProfile.factorized(
        model, np.asarray(tracer0, dtype=float), np.asarray(env1, dtype=float),
        g_pair=g_pair, n_max=depth or max(model.n_max, 3))


@pytest.fixture
def tiny():
    return tiny_model()


@pytest.fixture
def tiny_coupled():
    """Coupling on, free environment, copy interaction kernel."""
    return tiny_model(eps=0.1, rate_env2=0.0, kernel_int="copy", n_max=2)


@pytest.fixture
def tiny_full():
    """Coupling and environment pair interactions both on."""
    return tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)
