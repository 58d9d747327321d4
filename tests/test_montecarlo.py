import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from kinlab.hierarchy import additive_observable, evolve_full, mean_value_full
from kinlab.model import CorrelationProfile, ValidationError, build_initial_state, tiny_model
from kinlab.montecarlo import (
    BLOCK,
    Configuration,
    estimate_mean,
    estimate_means,
    evaluate_observable,
    final_counts,
    gillespie_step,
    jump_table,
    sample_initial,
    simulate_trajectory,
)
from kinlab.operators import build_forward_generator, full_selector

from conftest import correlated_profile, random_model


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
    new_cfg, dwell, slot = gillespie_step(cfg, zeroed, rng)
    assert math.isinf(dwell)
    assert slot is None
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


def test_jump_table_row_total_counts_every_process(tiny_full):
    m = tiny_full
    table = jump_table(m)
    row = table.index(Configuration(tracer=0, env=(1, 0)))
    d = m.n_states
    interaction = m.eps * (m.rate_int[0, 1] + m.rate_int[0, 0])
    assert interaction == pytest.approx(2 * m.eps)       # tiny_full's unit interaction rates
    # the tracer slot: its own jumps and one interaction per environment entity
    assert table.rates[row, :d].sum() == pytest.approx(m.rate_tracer[0] + interaction, rel=1e-12)
    total = (m.rate_tracer[0] + m.rate_env1[1] + m.rate_env1[0]     # tracer, two env1
             + m.rate_env2[1, 0] + m.rate_env2[0, 1]                # two ordered env2
             + interaction)
    assert table.total[row] == pytest.approx(total, rel=1e-12)


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
        new_cfg, _, slot = gillespie_step(cfg, zero_free, rng)
        assert slot == -1   # rate_tracer = 0: only the interaction moves the tracer
        if new_cfg.tracer == 1:
            copies += 1
    assert copies == total  # copy kernel moves all mass onto the catalyst state


def test_entity_count_conserved_along_trajectory(tiny_full):
    rng = np.random.default_rng(6)
    profile = correlated_profile(tiny_full)
    cfg = sample_initial(profile, tiny_full, 1.0, rng)
    n0 = len(cfg.env)
    out = simulate_trajectory(cfg, tiny_full, 3.0, rng)
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
        cfg = sample_initial(profile, model, 1.0, rng)
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


def _uniform_profile(model):
    flat = np.full(model.n_states, 1.0 / model.weights.sum())
    return CorrelationProfile.factorized(model, flat, flat)


@pytest.mark.parametrize("model, profile_of", [
    (tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2),
     lambda model: correlated_profile(model, env1=(0.6, 0.4))),
    (random_model(3, n_points=3, n_max=3), _uniform_profile),
], ids=["tiny-copy", "random3"])
def test_lockstep_distributional_exactness_total_variation(model, profile_of):
    """The lockstep final-state histogram converges to the evolved exact marginals."""
    profile = profile_of(model)
    ensemble, _ = build_initial_state(profile, model, 1.0)
    t = 0.5
    evolved = evolve_full(model, ensemble, t, "dual")
    counts = final_counts(profile, model, t, 100000, seed=21)
    offsets = jump_table(model).offsets
    for n in range(model.n_max + 1):
        hist = counts[offsets[n]:offsets[n + 1]]
        wprod = model.weights
        for _ in range(n):
            wprod = np.multiply.outer(wprod, model.weights)
        exact = (wprod * evolved[n].data).reshape(-1)
        exact = exact / exact.sum()
        tv = 0.5 * np.abs(hist / hist.sum() - exact).sum()
        mc_bound = 0.5 * np.sum(np.sqrt(exact * (1 - exact) / hist.sum()))
        assert tv < 4 * mc_bound, (n, tv, mc_bound)


def test_evaluate_observable_symmetry(tiny_full):
    obs = additive_observable(np.array([0.3, -0.3]), np.array([2.0, 1.0]), 2)
    a = evaluate_observable(obs, Configuration(tracer=0, env=(0, 1)))
    b = evaluate_observable(obs, Configuration(tracer=0, env=(1, 0)))
    assert a == b


def _zero_rates(model, **rates):
    fields = dict(rate_tracer=np.zeros(model.n_states), rate_env1=np.zeros(model.n_states),
                  rate_env2=np.zeros((model.n_states,) * 2),
                  rate_int=np.zeros((model.n_states,) * 2))
    fields.update(rates)
    return type(model)(
        m=model.m, grid=model.grid, eps=model.eps, n_max=model.n_max,
        kernel_tracer=model.kernel_tracer, kernel_env1=model.kernel_env1,
        kernel_env2=model.kernel_env2, kernel_int=model.kernel_int, **fields,
    )


@pytest.mark.parametrize("model", [
    tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2),
    random_model(0, n_points=3, n_max=3),
    random_model(1, n_points=3, n_max=3),
], ids=["tiny-copy", "random3-0", "random3-1"])
def test_jump_table_matches_generator_and_channels(model):
    """Built from the rate and kernel arrays alone, the table is the generator's
    off-diagonal part, and each row's total is the sum of its processes' rates."""
    table = jump_table(model)
    width = table.rates.shape[1]
    for n in range(model.n_max + 1):
        lo, hi = table.offsets[n], table.offsets[n + 1]
        dense = np.zeros((hi - lo, hi - lo))
        np.add.at(dense, (np.repeat(np.arange(hi - lo), width), table.targets[lo:hi].ravel() - lo),
                  table.rates[lo:hi].ravel())
        gen = build_forward_generator(model, n, full_selector(n))
        off = ~np.eye(hi - lo, dtype=bool)
        assert np.max(np.abs(dense[off] - gen[off])) == 0.0
        for flat, (u, *env) in enumerate(np.ndindex(*(model.n_states,) * (n + 1))):
            total = (model.rate_tracer[u] + sum(model.rate_env1[e] for e in env)
                     + sum(model.rate_env2[e, c] for i, e in enumerate(env)
                           for j, c in enumerate(env) if i != j)
                     + model.eps * sum(model.rate_int[u, e] for e in env))
            assert table.rates[lo + flat].sum() == pytest.approx(total, rel=1e-12)


def test_estimate_all_rates_zero_is_initial_mean():
    # absorbing rows are masked: no jump, no division by a zero rate
    model = _zero_rates(tiny_model(n_max=2))
    point = CorrelationProfile.factorized(model, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    obs = additive_observable(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2)
    ensemble, _ = build_initial_state(point, model, 1.0)
    with np.errstate(all="raise"):
        est = estimate_mean(obs, point, model, 5.0, 3000, seed=13)
    # every draw is (0, 1, ..., 1): the mean is 1 + E[n] over the ensemble
    assert est.mean == pytest.approx(mean_value_full(obs, ensemble, model), abs=3 * est.stderr)
    tracer_only = additive_observable(np.array([1.0, 0.0]), np.zeros(2), 2)
    with np.errstate(all="raise"):
        est = estimate_mean(tracer_only, point, model, 5.0, 3000, seed=13)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_estimate_absorbed_mid_run_matches_deterministic_oracle():
    # state 0 is inert, so trajectories fall into the all-zero configuration and stay
    model = _zero_rates(tiny_model(n_max=2), rate_tracer=np.array([0.0, 1.5]),
                        rate_env1=np.array([0.0, 1.0]))
    profile = correlated_profile(model)
    obs = additive_observable(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    with np.errstate(all="raise"):
        est = estimate_mean(obs, profile, model, 2.0, 30000, seed=14)
    ensemble, _ = build_initial_state(profile, model, 1.0)
    exact = mean_value_full(evolve_full(model, obs, 2.0, "forward"), ensemble, model)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_partial_last_block_is_reproducible():
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    obs = additive_observable(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    n_traj = 2 * BLOCK + 123
    a = estimate_mean(obs, profile, model, 0.5, n_traj, seed=15)
    b = estimate_mean(obs, profile, model, 0.5, n_traj, seed=15)
    assert a == b and a.n_samples == n_traj
    assert estimate_mean(obs, profile, model, 0.5, n_traj, seed=16) != a


def test_estimate_memory_flat_in_trajectory_count():
    model = random_model(2, n_points=3, n_max=3)
    tracer0 = np.full(3, 1.0 / model.weights.sum())
    profile = CorrelationProfile.factorized(model, tracer0, tracer0)
    obs = additive_observable(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, -1.0]), 3)
    estimate_mean(obs, profile, model, 0.2, 10, seed=17)   # the table is built here
    peaks = {}
    for n_traj in (BLOCK, 10**6):
        tracemalloc.start()
        try:
            est = estimate_mean(obs, profile, model, 0.2, n_traj, seed=17)
            peaks[n_traj] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_samples == n_traj
    # one float per trajectory alone would be 8 MB at 10**6
    assert peaks[10**6] <= 2 * peaks[BLOCK], peaks


def test_flat_index_round_trip():
    model = random_model(0, n_points=3, n_max=3)
    table = jump_table(model)
    assert len(table.total) == 120
    for index in range(len(table.total)):
        cfg = table.configuration(index)
        assert len(cfg.env) <= model.n_max
        assert table.index(cfg) == index


def test_initial_cdf_memo_follows_the_latest_profile():
    obs = additive_observable(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)

    def model():
        return tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)

    shared = model()
    a = correlated_profile(shared, gamma=0.3)
    b = correlated_profile(shared, gamma=-0.3, env1=(0.2, 0.8))
    for profile in (a, b, a):
        got = estimate_means([obs], profile, shared, 0.5, 2000, seed=18)
        assert got == estimate_means([obs], profile, model(), 0.5, 2000, seed=18)
    assert estimate_means([obs], a, shared, 0.5, 2000, seed=18, z=0.5) == \
        estimate_means([obs], a, model(), 0.5, 2000, seed=18, z=0.5)


def test_signed_initial_ensemble_is_rejected():
    model = tiny_model(eps=0.05, n_max=2, kernel_int="copy")
    profile = correlated_profile(model, gamma=-1.5)
    obs = additive_observable(np.array([1.0, 0.0]), np.zeros(2), 2)
    message = r"D\(0\) sector 1 has negative mass .*\[initial\] g, tracer0 and env1"
    with pytest.raises(ValidationError, match=message):
        sample_initial(profile, model, 1.0, np.random.default_rng(19))
    with pytest.raises(ValidationError, match=message):
        estimate_means([obs], profile, model, 0.5, 100, seed=19)
