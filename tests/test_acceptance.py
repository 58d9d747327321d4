"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The eps-sweep slope sub-check of the duality criterion is expected to fail;
the measured contraction order of the truncated functional series is one
power lower than the criterion demands (see notes in the repository docs),
and the check is kept at its stated threshold rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from kinlab.combinatorics import verify_cluster_expansion
from kinlab.hierarchy import (
    additive_observable,
    additive_reduced_initial,
    dual_bbgky_rhs,
    dual_bbgky_solution,
    evolve_full,
    mean_value_full,
    mean_value_reduced,
    reduce_observable,
    reduce_state,
)
from kinlab.kinetic import engine_for
from kinlab.model import CorrelationProfile, build_initial_state, tiny_model
from kinlab.montecarlo import estimate_means, gillespie_step, Configuration
from kinlab.operators import build_dual_generator, build_forward_generator, full_selector
from kinlab.sectors import SectorFunction, SequenceState, sector_inner

from conftest import correlated_profile, random_model


def report(name, value, tolerance, passed, direction="<="):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {value:.6g} {direction} {tolerance:.6g}")
    return passed


def duality_fixture(eps):
    """Two-state coupled model with free environment and correlated data."""
    model = tiny_model(eps=eps, rate_env2=0.0, kernel_int="copy", n_max=2)
    return model, correlated_profile(model, gamma=0.2,
                                     tracer0=(0.7, 0.3), env1=(0.65, 0.35))


def test_criterion_1_adjointness():
    t0 = time.time()
    worst = 0.0
    models = [tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=3),
              random_model(41, n_points=3, n_max=3)]
    for model in models:
        rng = np.random.default_rng(17)
        w = model.weights
        for s in range(0, 4):
            fw = build_forward_generator(model, s, full_selector(s)).matrix
            du = build_dual_generator(model, s, full_selector(s)).matrix
            shape = (model.n_states,) * (s + 1)
            for _ in range(100):
                b = rng.standard_normal(shape)
                f = rng.standard_normal(shape)
                lhs = sector_inner((fw @ b.reshape(-1)).reshape(shape), f, w)
                rhs = sector_inner(b, (du @ f.reshape(-1)).reshape(shape), w)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    assert report("criterion 1 adjointness", worst, 1e-12, worst <= 1e-12)
    assert elapsed < 5.0


def test_criterion_2_cluster_expansion_reconstruction():
    t0 = time.time()
    worst = 0.0
    pairs = [(s, n) for s in range(0, 5) for n in range(0, s + 1) if s + n <= 4]
    for seed in range(5):
        model = random_model(seed, n_points=2, n_max=4)
        for t in (0.1, 0.5, 1.0):
            for s, n in pairs:
                worst = max(worst, verify_cluster_expansion(model, t, s, n))
    elapsed = time.time() - t0
    assert report("criterion 2 cluster expansion", worst, 1e-9, worst <= 1e-9)
    assert elapsed < 30.0


def test_criterion_3_mean_value_equivalence():
    t0 = time.time()
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=3)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        obs = SequenceState(tuple(
            SectorFunction(s, rng.uniform(-1, 1, (2,) * (s + 1))) for s in range(4)),
            kind="observable")
        dist = SequenceState(tuple(
            SectorFunction(s, rng.uniform(0, 1, (2,) * (s + 1))) for s in range(4)),
            kind="distribution")
        obs_t = evolve_full(model, obs, 0.4, "forward")
        lhs = mean_value_full(obs_t, dist, model)
        reduced_obs = SequenceState(tuple(reduce_observable(obs_t, s) for s in range(4)),
                                    kind="observable")
        reduced_state = SequenceState(tuple(reduce_state(dist, model, s) for s in range(4)),
                                      kind="distribution")
        rhs = mean_value_reduced(reduced_obs, reduced_state, model)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    assert report("criterion 3 mean-value equivalence", worst, 1e-10, worst <= 1e-10)
    assert elapsed < 10.0


def test_criterion_4_dual_bbgky_consistency():
    t0 = time.time()
    worst = 0.0
    dt = 1e-4
    for eps in (0.0, 0.1):
        model = tiny_model(eps=eps, rate_env2=1.0, kernel_int="copy", n_max=3)
        rng = np.random.default_rng(23)
        b0 = SequenceState(tuple(
            SectorFunction(s, rng.uniform(-1, 1, (2,) * (s + 1))) for s in range(4)),
            kind="observable")
        for s in range(0, 4):
            plus = dual_bbgky_solution(model, b0, 0.5 + dt, s)
            minus = dual_bbgky_solution(model, b0, 0.5 - dt, s)
            fd = (plus.data - minus.data) / (2 * dt)
            current = SequenceState(tuple(dual_bbgky_solution(model, b0, 0.5, k)
                                          for k in range(s + 1)), kind="observable")
            rhs = dual_bbgky_rhs(model, current, s)
            worst = max(worst, float(np.max(np.abs(fd - rhs.data))))
    elapsed = time.time() - t0
    assert report("criterion 4 dual hierarchy d/dt", worst, 1e-6, worst <= 1e-6)
    assert elapsed < 30.0


def test_criterion_5a_duality_residual():
    t0 = time.time()
    model, profile = duality_fixture(0.05)
    eng = engine_for(model, profile)
    b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    rep = eng.duality_check(b0, 0.25, 1)
    elapsed = time.time() - t0
    assert report("criterion 5a duality residual (K=1, eps=0.05)",
                  rep.abs_residual, 1e-6, rep.abs_residual <= 1e-6)
    assert elapsed < 120.0


def test_criterion_5b_duality_eps_sweep_slope():
    """Stated threshold K + 1.5; the faithful construction contracts at K + 1.

    The truncated generating-operator series drops terms of order
    eps^(K+1) whenever initial correlations are present (they vanish
    identically for chaos data, where no slope is measurable), so this
    check fails by construction; it is retained at its stated threshold.
    """
    t0 = time.time()
    eps_list = (0.2, 0.1, 0.05)
    residuals = []
    for eps in eps_list:
        model, profile = duality_fixture(eps)
        eng = engine_for(model, profile)
        b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
        residuals.append(eng.duality_check(b0, 0.25, 1).abs_residual)
    slope = float(np.polyfit(np.log(eps_list), np.log(residuals), 1)[0])
    elapsed = time.time() - t0
    passed = report("criterion 5b duality eps-sweep slope", slope, 2.5, slope >= 2.5,
                    direction=">=")
    assert elapsed < 120.0
    assert passed, (
        f"log-log slope {slope:.3f} < 2.5: the K=1 truncation of the "
        "state-functional series carries an order eps^2 correlation term; "
        "see the README section \"Known red acceptance check\" for the local slopes"
    )


def test_criterion_6_kinetic_equation_identity():
    t0 = time.time()
    model = tiny_model(eps=0.1, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    eng = engine_for(model, profile)
    dt = 1e-4
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        plus = eng.reduced_distribution(t + dt, 1).values
        minus = eng.reduced_distribution(t - dt, 1).values
        fd = (plus - minus) / (2 * dt)
        rhs = eng.fp_rhs(eng.reduced_distribution(t, 1).values, t, 1)
        worst = max(worst, float(np.max(np.abs(fd - rhs))))
    elapsed = time.time() - t0
    assert report("criterion 6 kinetic identity d/dt", worst, 1e-5, worst <= 1e-5)
    assert elapsed < 60.0


def test_criterion_7_fokker_planck_integration():
    t0 = time.time()
    # free case against the analytic relaxation
    model0 = tiny_model(eps=0.0, n_max=2)
    profile0 = CorrelationProfile.factorized(model0, np.array([0.75, 0.25]),
                                             np.array([0.5, 0.5]))
    eng0 = engine_for(model0, profile0)
    traj0 = eng0.integrate_fp(np.array([0.75, 0.25]), 2.0, 1e-3, 0)
    drift0 = max(abs(td.mass_drift) for td in traj0)
    analytic_err = 0.0
    for td in traj0[::100]:
        analytic = 0.5 + (np.array([0.75, 0.25]) - 0.5) * np.exp(-td.t)
        analytic_err = max(analytic_err, float(np.max(np.abs(td.values - analytic))))
    # coupled case against the series endpoint
    model1, profile1 = duality_fixture(0.05)
    eng1 = engine_for(model1, profile1)
    traj1 = eng1.integrate_fp(np.array([0.7, 0.3]), 2.0, 1e-3, 1)
    drift1 = max(abs(td.mass_drift) for td in traj1)
    endpoint_err = float(np.max(np.abs(
        traj1[-1].values - eng1.reduced_distribution(2.0, 1).values)))
    elapsed = time.time() - t0
    ok = report("criterion 7 fp mass drift", max(drift0, drift1), 1e-9,
                max(drift0, drift1) <= 1e-9)
    ok &= report("criterion 7 fp free relaxation", analytic_err, 1e-8,
                 analytic_err <= 1e-8)
    ok &= report("criterion 7 fp endpoint vs series", endpoint_err, 1e-5,
                 endpoint_err <= 1e-5)
    assert ok
    assert elapsed < 60.0


def test_criterion_8_monte_carlo_cross_validation():
    t0 = time.time()
    n_traj = 200000
    worst_z = 0.0
    for eps in (0.0, 0.1):
        model = tiny_model(eps=eps, rate_env2=1.0, kernel_int="copy", n_max=2)
        profile = correlated_profile(model, env1=(0.6, 0.4))
        observables = [
            additive_observable(np.array([1.0, 0.0]), np.zeros(2), 2),
            additive_observable(np.zeros(2), np.array([1.0, -1.0]), 2),
            additive_observable(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2),
        ]
        ests = estimate_means(observables, profile, model, 1.0, n_traj, seed=42)
        ensemble, _ = build_initial_state(profile, model, 1.0)
        for obs, est in zip(observables, ests):
            exact = mean_value_full(evolve_full(model, obs, 1.0, "forward"),
                                    ensemble, model)
            z = abs(est.mean - exact) / est.stderr
            worst_z = max(worst_z, z)
    # holding time of the lone tracer against 1/rate
    model = tiny_model(eps=0.0, n_max=0)
    rng = np.random.default_rng(42)
    cfg = Configuration(tracer=0, env=())
    dwells = np.array([gillespie_step(cfg, model, rng)[1] for _ in range(100000)])
    hold_dev = abs(dwells.mean() - 1.0) / (dwells.std(ddof=1) / math.sqrt(len(dwells)))
    elapsed = time.time() - t0
    ok = report("criterion 8 MC worst |z|", worst_z, 3.0, worst_z <= 3.0)
    ok &= report("criterion 8 holding-time |z|", hold_dev, 3.0, hold_dev <= 3.0)
    assert ok
    assert elapsed < 180.0


def test_criterion_9_chaos_factorization():
    t0 = time.time()
    model = tiny_model(eps=0.0, rate_env2=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.6, 0.4]), n_max=4)
    eng = engine_for(model, profile)
    worst = 0.0
    for t in (0.5, 1.0):
        f1 = eng.reduced_distribution(t, 2).values
        f_env = eng.free_env_marginal(t)
        for s in (1, 2):
            got = eng.state_functional(t, f1, s, 2)
            want = f1.copy()
            for _ in range(s):
                want = np.multiply.outer(want, f_env)
            worst = max(worst, float(np.max(np.abs(got.data - want))))
    elapsed = time.time() - t0
    assert report("criterion 9 chaos factorization", worst, 1e-12, worst <= 1e-12)
    assert elapsed < 5.0
