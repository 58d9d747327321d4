import math

import numpy as np
import pytest
from scipy import stats

from kinlab.hierarchy import additive_observable, evolve_full, mean_value_full
from kinlab.model import CorrelationProfile, build_initial_state, tiny_model
from kinlab.montecarlo import (
    Configuration,
    enumerate_channels,
    estimate_mean,
    estimate_means,
    evaluate_observable,
    gillespie_step,
    sample_initial,
    simulate_trajectory,
)

from conftest import correlated_profile


def test_sample_initial_nmax0_always_empty_environment():
    model = tiny_model(n_max=0)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.5, 0.5]), n_max=0)
    rng = np.random.default_rng(0)
    counts = np.zeros(2)
    for _ in range(4000):
        cfg = sample_initial(profile, model, 1.0, rng)
        assert cfg.env == ()
        counts[cfg.tracer] += 1
    freq = counts / counts.sum()
    assert abs(freq[0] - 0.7) <= 3 * math.sqrt(0.7 * 0.3 / 4000)


def test_sample_initial_chaos_independence():
    # chi-squared independence test between tracer and first env entity
    model = tiny_model(n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.6, 0.4]))
    rng = np.random.default_rng(1)
    table = np.zeros((2, 2))
    draws = 0
    while draws < 20000:
        cfg = sample_initial(profile, model, 1.0, rng)
        if cfg.env:
            table[cfg.tracer, cfg.env[0]] += 1
            draws += 1
    _, pvalue, _, _ = stats.chi2_contingency(table)
    assert pvalue > 0.01


def test_sample_initial_correlated_moment_matches_ensemble():
    model = tiny_model(n_max=2)
    profile = correlated_profile(model, gamma=0.3, env1=(0.5, 0.5))
    ensemble, _ = build_initial_state(profile, model, z=1.0)
    sigma = np.array([1.0, -1.0])
    # exact E[sigma(tracer) sigma(env1) | n >= 1] from the sector arrays
    w = model.weights
    num = 0.0
    den = 0.0
    for n in (1, 2):
        sec = ensemble[n].data
        wprod = w.copy()
        for _ in range(n):
            wprod = np.multiply.outer(wprod, w)
        mask = np.multiply.outer(sigma, sigma)
        while mask.ndim < sec.ndim:
            mask = mask[..., np.newaxis] * np.ones(2)
        num += np.sum(wprod * sec * mask) / math.factorial(n)
        den += np.sum(wprod * sec) / math.factorial(n)
    exact = num / den
    rng = np.random.default_rng(2)
    samples = []
    while len(samples) < 20000:
        cfg = sample_initial(profile, model, 1.0, rng)
        if cfg.env:
            samples.append(sigma[cfg.tracer] * sigma[cfg.env[0]])
    samples = np.array(samples)
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - exact) <= 3 * stderr


def test_all_rates_zero_is_absorbing():
    model = tiny_model()
    zeroed = type(model)(
        m=model.m, grid=model.grid, eps=0.0, n_max=model.n_max,
        rate_tracer=np.zeros(2), rate_env1=np.zeros(2),
        rate_env2=np.zeros((2, 2)), rate_int=np.zeros((2, 2)),
        kernel_tracer=model.kernel_tracer, kernel_env1=model.kernel_env1,
        kernel_env2=model.kernel_env2, kernel_int=model.kernel_int,
    )
    rng = np.random.default_rng(3)
    cfg = Configuration(tracer=0, env=(1,))
    new_cfg, dwell, chan = gillespie_step(cfg, zeroed, rng)
    assert math.isinf(dwell)
    assert chan is None
    assert new_cfg.tracer == 0 and new_cfg.env == (1,)


def test_holding_time_matches_rate():
    model = tiny_model(eps=0.0, n_max=0)
    rng = np.random.default_rng(4)
    cfg = Configuration(tracer=0, env=())
    n = 100000
    dwells = np.empty(n)
    for k in range(n):
        _, dwells[k], _ = gillespie_step(cfg, model, rng)
    stderr = dwells.std(ddof=1) / math.sqrt(n)
    assert abs(dwells.mean() - 1.0) <= 3 * stderr


def test_channel_enumeration_counts_and_rates(tiny_full):
    cfg = Configuration(tracer=0, env=(1, 0))
    chans = enumerate_channels(cfg, tiny_full)
    kinds = [c.kind for c in chans]
    assert kinds.count("tracer-jump") == 1
    assert kinds.count("env-single") == 2
    assert kinds.count("env-pair") == 2     # ordered pairs
    assert kinds.count("tracer-env") == 2
    for c in chans:
        if c.kind == "tracer-env":
            assert c.rate == pytest.approx(tiny_full.eps * 1.0)


def test_copy_kernel_interaction_copies_environment_state():
    # strong coupling, tracer redraw only through interaction: tallies follow the kernel row
    model = tiny_model(eps=50.0, rate_env2=0.0, kernel_int="copy", n_max=1)
    zero_free = type(model)(
        m=model.m, grid=model.grid, eps=model.eps, n_max=model.n_max,
        rate_tracer=np.zeros(2), rate_env1=np.zeros(2),
        rate_env2=np.zeros((2, 2)), rate_int=np.ones((2, 2)),
        kernel_tracer=model.kernel_tracer, kernel_env1=model.kernel_env1,
        kernel_env2=model.kernel_env2, kernel_int=model.kernel_int,
    )
    rng = np.random.default_rng(5)
    copies = 0
    total = 2000
    for _ in range(total):
        cfg = Configuration(tracer=0, env=(1,))
        new_cfg, _, chan = gillespie_step(cfg, zero_free, rng)
        assert chan.kind == "tracer-env"
        if new_cfg.tracer == 1:
            copies += 1
    assert copies == total  # copy kernel moves all mass onto the catalyst state


def test_entity_count_conserved_along_trajectory(tiny_full):
    rng = np.random.default_rng(6)
    profile = correlated_profile(tiny_full)
    cfg = sample_initial(profile, tiny_full, 1.0, rng)
    n0 = len(cfg.env)
    record = []
    out = simulate_trajectory(cfg, tiny_full, 3.0, rng, record=record)
    assert len(out.env) == n0
    assert out.t == 3.0


def test_estimate_constant_observable():
    model = tiny_model(n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.5, 0.5]),
                                            np.array([0.5, 0.5]))
    from kinlab.sectors import SectorFunction, SequenceState
    ones = SequenceState(tuple(SectorFunction(s, np.ones((2,) * (s + 1)))
                               for s in range(3)), kind="observable")
    est = estimate_mean(ones, profile, model, 0.5, 200, seed=7)
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_estimate_mean_free_relaxation():
    model = tiny_model(eps=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.8, 0.2]),
                                            np.array([0.5, 0.5]))
    indicator = additive_observable(np.array([1.0, 0.0]), np.zeros(2), 2)
    est = estimate_mean(indicator, profile, model, 1.0, 30000, seed=8)
    analytic = 0.5 + (0.8 - 0.5) * np.exp(-1.0)
    assert abs(est.mean - analytic) <= 3 * est.stderr


def test_estimate_mean_matches_deterministic_oracle():
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    obs = additive_observable(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    est = estimate_mean(obs, profile, model, 1.0, 30000, seed=9)
    ensemble, _ = build_initial_state(profile, model, 1.0)
    exact = mean_value_full(evolve_full(model, obs, 1.0, "forward"), ensemble, model)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_seed_determinism_bit_identical():
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    obs = additive_observable(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    a = estimate_mean(obs, profile, model, 0.5, 400, seed=10)
    b = estimate_mean(obs, profile, model, 0.5, 400, seed=10)
    assert a == b
    c = estimate_mean(obs, profile, model, 0.5, 400, seed=11)
    assert a != c


def test_shared_trajectories_across_observables():
    model = tiny_model(eps=0.1, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    obs1 = additive_observable(np.array([1.0, 0.0]), np.zeros(2), 2)
    obs2 = additive_observable(np.zeros(2), np.array([1.0, -1.0]), 2)
    both = estimate_means([obs1, obs2], profile, model, 0.5, 500, seed=12)
    solo = estimate_mean(obs1, profile, model, 0.5, 500, seed=12)
    assert both[0] == solo


def test_distributional_exactness_total_variation():
    """Empirical sector histograms converge to the evolved exact marginals."""
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model, env1=(0.6, 0.4))
    ensemble, _ = build_initial_state(profile, model, 1.0)
    t = 0.5
    from kinlab.hierarchy import evolve_full
    evolved = evolve_full(model, ensemble, t, "dual")
    w = model.weights
    n_traj = 100000
    streams = np.random.SeedSequence(21).spawn(n_traj)
    counts = {n: np.zeros((2,) * (n + 1)) for n in range(3)}
    for ss in streams:
        rng = np.random.Generator(np.random.PCG64(ss))
        cfg = sample_initial(profile, model, 1.0, rng, ensemble=ensemble)
        cfg = simulate_trajectory(cfg, model, t, rng)
        counts[len(cfg.env)][(cfg.tracer,) + cfg.env] += 1
    for n in range(3):
        n_samples = counts[n].sum()
        sec = evolved[n].data
        wprod = w.copy()
        for _ in range(n):
            wprod = np.multiply.outer(wprod, w)
        exact = (wprod * sec).reshape(-1)
        exact = exact / exact.sum()
        empirical = counts[n].reshape(-1) / n_samples
        tv = 0.5 * np.abs(empirical - exact).sum()
        mc_bound = 0.5 * np.sum(np.sqrt(exact * (1 - exact) / n_samples))
        assert tv < 4 * mc_bound, (n, tv, mc_bound)


def test_evaluate_observable_symmetry(tiny_full):
    obs = additive_observable(np.array([0.3, -0.3]), np.array([2.0, 1.0]), 2)
    a = evaluate_observable(obs, Configuration(tracer=0, env=(0, 1)))
    b = evaluate_observable(obs, Configuration(tracer=0, env=(1, 0)))
    assert a == b
