import itertools

import numpy as np
import pytest

import kinlab.operators
from kinlab.combinatorics import cumulant_apply
from kinlab.hierarchy import (
    additive_observable,
    additive_reduced_initial,
    additive_solution,
    dual_bbgky_rhs,
    dual_bbgky_solution,
    evolve_full,
    mean_value_full,
    mean_value_reduced,
    reduce_observable,
)
from kinlab.model import (
    CorrelationProfile,
    ValidationError,
    build_initial_state,
    reduce_state,
    tiny_model,
)
from kinlab.operators import TRACER, full_selector, workspace_for
from kinlab.sectors import SectorFunction, SequenceState, embed_env_vector, embed_with_slots

from conftest import random_model


def random_sequence(rng, n_states, n_max, kind, nonneg=False):
    secs = []
    for s in range(n_max + 1):
        lo = 0.0 if nonneg else -1.0
        secs.append(SectorFunction(s, rng.uniform(lo, 1.0, (n_states,) * (s + 1))))
    return SequenceState(tuple(secs), kind=kind)


def test_evolve_full_identity_at_zero(tiny_full):
    rng = np.random.default_rng(0)
    seq = random_sequence(rng, 2, 2, "observable")
    out = evolve_full(tiny_full, seq, 0.0, "forward")
    for s in range(3):
        np.testing.assert_allclose(out[s].data, seq[s].data, atol=1e-14)


def test_evolve_full_conserves_partition_norm(tiny_full):
    rng = np.random.default_rng(1)
    seq = random_sequence(rng, 2, 2, "distribution", nonneg=True)
    before = seq.partition_norm(tiny_full.weights)
    after = evolve_full(tiny_full, seq, 1.3, "dual").partition_norm(tiny_full.weights)
    assert after == pytest.approx(before, abs=1e-10)


def test_evolve_full_tracer_marginal_relaxes_exponentially(tiny):
    # eps = 0: the tracer marginal of the pair sector relaxes like e^{-t}
    tracer0 = np.array([0.9, 0.1])
    pair = np.multiply.outer(tracer0, np.array([0.5, 0.5]))
    seq = SequenceState((SectorFunction(0, tracer0), SectorFunction(1, pair)),
                        kind="distribution")
    for t in (0.3, 1.0, 2.0):
        out = evolve_full(tiny, seq, t, "dual")
        marginal = out[1].data @ tiny.weights
        expected = 0.5 + (tracer0 - 0.5) * np.exp(-t)
        np.testing.assert_allclose(marginal, expected, atol=1e-12)


def test_reduce_observable_s0_is_identity(tiny):
    rng = np.random.default_rng(2)
    seq = random_sequence(rng, 2, 2, "observable")
    np.testing.assert_allclose(reduce_observable(seq, 0).data, seq[0].data, atol=0)


def test_reduce_observable_additive_example(tiny):
    # O_(1+1)(u, u1) = O_(1+0)(u) + O_(0+1)(u1)  ->  B_(1+1) = O_(0+1)(u1)
    o_t = np.array([0.3, -0.8])
    o_e = np.array([1.5, 0.2])
    o0 = SectorFunction(0, o_t)
    o1 = SectorFunction(1, embed_with_slots(o_t, 1, ()) + embed_env_vector(o_e, 1, 1))
    seq = SequenceState((o0, o1), kind="observable")
    b1 = reduce_observable(seq, 1)
    np.testing.assert_allclose(b1.data, embed_env_vector(o_e, 1, 1), atol=1e-14)


def test_reduce_observable_environment_independent_cancels(tiny):
    o_t = np.array([0.4, 1.1])
    o0 = SectorFunction(0, o_t)
    o1 = SectorFunction(1, embed_with_slots(o_t, 1, ()))
    seq = SequenceState((o0, o1), kind="observable")
    assert np.max(np.abs(reduce_observable(seq, 1).data)) <= 1e-14


def test_reduce_state_single_sector(tiny):
    model = tiny_model(n_max=0)
    d = SequenceState((SectorFunction(0, np.array([0.2, 0.6])),), kind="distribution")
    out = reduce_state(d, model, 0)
    np.testing.assert_allclose(out.data, np.array([0.25, 0.75]), atol=1e-14)


def test_reduce_state_product_ensemble_factorizes(tiny):
    # the pair marginal splits into tracer marginal (x) environment marginal,
    # where the latter carries the truncated ensemble's own normalization
    tracer0 = np.array([0.7, 0.3])
    env1 = np.array([0.55, 0.45])
    profile = CorrelationProfile.factorized(tiny, tracer0, env1)
    full, _ = build_initial_state(profile, tiny, z=1.0)
    f0 = reduce_state(full, tiny, 0)
    f1 = reduce_state(full, tiny, 1)
    env_marginal = tiny.weights @ f1.data
    np.testing.assert_allclose(f1.data, np.multiply.outer(f0.data, env_marginal),
                               atol=1e-13)
    np.testing.assert_allclose(env_marginal / env_marginal.sum(), env1, atol=1e-13)


def test_reduce_state_top_sector_proportional(tiny_full):
    rng = np.random.default_rng(3)
    d = random_sequence(rng, 2, 2, "distribution", nonneg=True)
    top = reduce_state(d, tiny_full, 2)
    ratio = top.data / d[2].data
    assert np.max(np.abs(ratio - ratio.flat[0])) <= 1e-12


def test_mean_value_identity_observable_is_one(tiny_full):
    rng = np.random.default_rng(4)
    d = random_sequence(rng, 2, 2, "distribution", nonneg=True)
    ones = SequenceState(tuple(SectorFunction(s, np.ones((2,) * (s + 1)))
                               for s in range(3)), kind="observable")
    assert mean_value_full(ones, d, tiny_full) == pytest.approx(1.0, abs=1e-12)


def test_mean_value_indicator_recovers_marginal(tiny):
    tracer0 = np.array([0.7, 0.3])
    profile = CorrelationProfile.factorized(tiny, tracer0, np.array([0.5, 0.5]))
    full, _ = build_initial_state(profile, tiny, z=1.0)
    indicator = SequenceState(
        tuple(SectorFunction(s, embed_with_slots(np.array([1.0, 0.0]), s, ()))
              for s in range(3)), kind="observable")
    assert mean_value_full(indicator, full, tiny) == pytest.approx(0.7, abs=1e-12)


def test_mean_value_positive_for_nonnegative_pairs(tiny_full):
    rng = np.random.default_rng(5)
    for _ in range(20):
        o = random_sequence(rng, 2, 2, "observable", nonneg=True)
        d = random_sequence(rng, 2, 2, "distribution", nonneg=True)
        assert mean_value_full(o, d, tiny_full) >= 0.0


def test_zero_partition_norm_is_one_validation_error(tiny_full):
    zero = SequenceState(tuple(SectorFunction(s, np.zeros((2,) * (s + 1)))
                               for s in range(3)), kind="distribution")
    ones = SequenceState(tuple(SectorFunction(s, np.ones((2,) * (s + 1)))
                               for s in range(3)), kind="observable")
    message = "^ensemble: zero partition norm$"
    with pytest.raises(ValidationError, match=message):
        mean_value_full(ones, zero, tiny_full)
    with pytest.raises(ValidationError, match=message):
        reduce_state(zero, tiny_full, 0)


@pytest.mark.parametrize("seed", range(5))
def test_mean_value_equivalence_exact_at_truncation(seed):
    """(averageD) = (avmar): termwise identity at any truncation."""
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=3)
    rng = np.random.default_rng(seed)
    obs = random_sequence(rng, 2, 3, "observable")
    dist = random_sequence(rng, 2, 3, "distribution", nonneg=True)
    obs_t = evolve_full(model, obs, 0.6, "forward")
    lhs = mean_value_full(obs_t, dist, model)
    reduced_obs = SequenceState(tuple(reduce_observable(obs_t, s) for s in range(4)),
                                kind="observable")
    reduced_state = SequenceState(tuple(reduce_state(dist, model, s) for s in range(4)),
                                  kind="distribution")
    rhs = mean_value_reduced(reduced_obs, reduced_state, model)
    assert abs(lhs - rhs) <= 1e-10


def test_dual_bbgky_solution_s0_is_free_semigroup(tiny_coupled):
    from kinlab.operators import build_forward_generator, evolve, TRACER
    rng = np.random.default_rng(6)
    b0 = random_sequence(rng, 2, 2, "observable")
    got = dual_bbgky_solution(tiny_coupled, b0, 0.8, 0)
    gen = build_forward_generator(tiny_coupled, 0, {TRACER})
    want = evolve(gen, 0.8, b0[0])
    np.testing.assert_allclose(got.data, want.data, atol=1e-13)


def test_dual_bbgky_solution_identity_at_zero_time(tiny_full):
    rng = np.random.default_rng(7)
    b0 = random_sequence(rng, 2, 2, "observable")
    for s in range(3):
        got = dual_bbgky_solution(tiny_full, b0, 0.0, s)
        np.testing.assert_allclose(got.data, b0[s].data, atol=1e-12)


def test_dual_bbgky_solution_s1_two_term_assembly(tiny_coupled):
    from kinlab.combinatorics import cumulant_matrix
    rng = np.random.default_rng(8)
    b0 = random_sequence(rng, 2, 1, "observable")
    t = 0.7
    got = dual_bbgky_solution(tiny_coupled, b0, t, 1)
    full_cum = cumulant_matrix(tiny_coupled, t, [frozenset({0, 1})], 1, "forward")
    pair_cum = cumulant_matrix(tiny_coupled, t, [frozenset({0}), frozenset({1})], 1, "forward")
    want = (full_cum @ b0[1].flat
            + pair_cum @ embed_with_slots(b0[0].data, 1, ()).reshape(-1))
    np.testing.assert_allclose(got.flat, want, atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_hierarchy_fd_consistency(eps, s):
    """Central difference of the solution expansion matches the hierarchy RHS."""
    model = tiny_model(eps=eps, rate_env2=1.0, kernel_int="copy", n_max=3)
    rng = np.random.default_rng(9)
    b0 = random_sequence(rng, 2, 3, "observable")
    t0, dt = 0.5, 1e-4
    plus = dual_bbgky_solution(model, b0, t0 + dt, s)
    minus = dual_bbgky_solution(model, b0, t0 - dt, s)
    fd = (plus.data - minus.data) / (2 * dt)
    current = SequenceState(tuple(dual_bbgky_solution(model, b0, t0, k)
                                  for k in range(s + 1)), kind="observable")
    rhs = dual_bbgky_rhs(model, current, s)
    assert np.max(np.abs(fd - rhs.data)) <= 1e-6


def test_hierarchy_rhs_reduces_to_free_part_without_interactions():
    model = tiny_model(eps=0.0, rate_env2=0.0, n_max=2)
    rng = np.random.default_rng(10)
    b = random_sequence(rng, 2, 2, "observable")
    from kinlab.operators import build_forward_generator, full_selector
    rhs = dual_bbgky_rhs(model, b, 2)
    gen = build_forward_generator(model, 2, full_selector(2))
    np.testing.assert_allclose(rhs.flat, gen @ b[2].flat, atol=1e-13)


def test_hierarchy_rhs_s0_single_term(tiny_coupled):
    rng = np.random.default_rng(11)
    b = random_sequence(rng, 2, 0, "observable")
    from kinlab.operators import build_forward_generator, TRACER
    rhs = dual_bbgky_rhs(tiny_coupled, b, 0)
    gen = build_forward_generator(tiny_coupled, 0, {TRACER})
    np.testing.assert_allclose(rhs.data, (gen @ b[0].flat), atol=1e-14)


def _cumulant_loop(model, initial, t, s):
    """The dual hierarchy's cumulant expansion, one `cumulant_apply` per (n, removed) pair."""
    env = list(range(1, s + 1))
    acc = np.zeros((model.n_states,) * (s + 1))
    for n in range(s + 1):
        for removed in itertools.combinations(env, n):
            kept = tuple(j for j in env if j not in removed)
            labels = [frozenset({TRACER, *kept})] + [frozenset({j}) for j in removed]
            vec = embed_with_slots(initial[s - n].data, s, kept).reshape(-1)
            acc += cumulant_apply(model, t, labels, s, "forward", vec).reshape(acc.shape)
    return acc


@pytest.mark.parametrize("n_points", [2, 3])
@pytest.mark.parametrize("t", [-0.2, 0.3, 1.5])
def test_dual_bbgky_solution_matches_the_cumulant_loop(n_points, t):
    # the forward law e^(t Lambda(B)) 1 = 1 drops every tracer-free block,
    # with environment pairs too; the bound is 1e-12 of the solution's scale
    model = random_model(20 + n_points, n_points=n_points, eps=0.2, n_max=4)
    assert np.min(model.rate_env2) > 0
    b0 = random_sequence(np.random.default_rng(n_points), n_points, 4, "observable")
    for s in range(5):
        got = dual_bbgky_solution(model, b0, t, s).data
        ref = _cumulant_loop(model, b0, t, s)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_additive_solution_agrees_with_general_expansion(s):
    # the reference is the two-cumulant closed form: the tracer observable
    # under the cumulant of all singles, O_(0+1)(u_j) under the one of
    # {tracer, j} and the remaining singles
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=3)
    rng = np.random.default_rng(12)
    o_t = rng.uniform(-1, 1, 2)
    o_e = rng.uniform(-1, 1, 2)
    env = list(range(1, s + 1))
    singles = [frozenset({j}) for j in env]
    vec = embed_with_slots(o_t, s, ()).reshape(-1)
    ref = cumulant_apply(model, 0.7, [frozenset({TRACER})] + singles, s, "forward", vec)
    for j in env:
        vec = embed_env_vector(o_e, s, j).reshape(-1)
        labels = [frozenset({TRACER, j})] + [single for single in singles if j not in single]
        ref = ref + cumulant_apply(model, 0.7, labels, s, "forward", vec)
    direct = additive_solution(model, o_t, o_e, 0.7, s)
    np.testing.assert_allclose(direct.flat, ref, atol=1e-11)


def test_dual_bbgky_solution_skips_zero_initial_sectors(monkeypatch):
    # one canonical forward semigroup per sector k <= s whose O_k is nonzero
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=3)
    ws = workspace_for(model)
    expm, semigroup = kinlab.operators.expm, ws.semigroup
    dims, selectors = [], []

    def counted_expm(a, *orbit):
        dims.append(len(a))
        return expm(a, *orbit)

    def recorded(s, selector, t, direction):
        selectors.append((s, frozenset(selector)))
        return semigroup(s, selector, t, direction)

    monkeypatch.setattr(kinlab.operators, "expm", counted_expm)
    monkeypatch.setattr(ws, "semigroup", recorded)
    rng = np.random.default_rng(15)
    only_3 = SequenceState(tuple(SectorFunction(k, rng.uniform(-1, 1, (2,) * (k + 1)) * (k == 3))
                                 for k in range(4)), kind="observable")
    out = dual_bbgky_solution(model, only_3, 0.7, 3)
    # only sector 3's semigroup is read: B_(1+3)(t) = e^(t Lambda_3) B0_(1+3)
    assert dims == [16] and selectors == [(3, full_selector(3))]
    want = semigroup(3, full_selector(3), 0.7, "forward") @ only_3[3].flat
    np.testing.assert_allclose(out.flat, want, atol=1e-13)
    dims.clear()
    selectors.clear()
    b0 = random_sequence(rng, 2, 3, "observable")
    dual_bbgky_solution(model, b0, -0.4, 3)
    # at most s + 1 exponentials, all of canonical selectors
    assert dims == [2, 4, 8, 16]
    assert selectors == [(k, full_selector(k)) for k in range(4)]


def test_additive_solution_s0(tiny_coupled):
    from kinlab.operators import build_forward_generator, evolve, TRACER
    o_t = np.array([1.0, -1.0])
    got = additive_solution(tiny_coupled, o_t, np.zeros(2), 0.5, 0)
    gen = build_forward_generator(tiny_coupled, 0, {TRACER})
    want = evolve(gen, 0.5, SectorFunction(0, o_t))
    np.testing.assert_allclose(got.data, want.data, atol=1e-13)


def test_additive_solution_vanishes_without_env_observable_or_coupling():
    model = tiny_model(eps=0.0, rate_env2=1.0, n_max=2)
    got = additive_solution(model, np.array([0.5, -0.5]), np.zeros(2), 0.8, 2)
    assert np.max(np.abs(got.data)) <= 1e-12


def test_pictures_agree_theorem_one_shadow():
    """Mean values from the observable picture match brute-force evolution."""
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=3)
    rng = np.random.default_rng(13)
    obs = random_sequence(rng, 2, 3, "observable")
    dist = random_sequence(rng, 2, 3, "distribution", nonneg=True)
    t = 0.5
    lhs = mean_value_full(evolve_full(model, obs, t, "forward"), dist, model)
    b0 = SequenceState(tuple(reduce_observable(obs, s) for s in range(4)),
                       kind="observable")
    bt = SequenceState(tuple(dual_bbgky_solution(model, b0, t, s) for s in range(4)),
                       kind="observable")
    f0 = SequenceState(tuple(reduce_state(dist, model, s) for s in range(4)),
                       kind="distribution")
    rhs = mean_value_reduced(bt, f0, model)
    assert abs(lhs - rhs) <= 1e-9


def test_stationary_product_state_time_independent_means():
    # uniform kernels and rates: the uniform product state is stationary
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="uniform", n_max=2)
    uniform = np.array([0.5, 0.5])
    profile = CorrelationProfile.factorized(model, uniform, uniform)
    full, _ = build_initial_state(profile, model, z=1.0)
    rng = np.random.default_rng(14)
    obs = random_sequence(rng, 2, 2, "observable")
    base = mean_value_full(obs, full, model)
    for t in (0.5, 1.5):
        drifted = mean_value_full(evolve_full(model, obs, t, "forward"), full, model)
        assert abs(drifted - base) <= 1e-9


def test_mean_value_equivalence_two_species():
    model = random_model(5, n_points=2, m=2, eps=0.2)
    rng = np.random.default_rng(15)
    obs = random_sequence(rng, 4, 2, "observable")
    dist = random_sequence(rng, 4, 2, "distribution", nonneg=True)
    obs_t = evolve_full(model, obs, 0.5, "forward")
    lhs = mean_value_full(obs_t, dist, model)
    reduced_obs = SequenceState(tuple(reduce_observable(obs_t, s) for s in range(3)),
                                kind="observable")
    reduced_state = SequenceState(tuple(reduce_state(dist, model, s) for s in range(3)),
                                  kind="distribution")
    rhs = mean_value_reduced(reduced_obs, reduced_state, model)
    assert abs(lhs - rhs) <= 1e-10


def test_additive_observable_reduces_to_additive_initial():
    o_t = np.array([0.2, -0.4])
    o_e = np.array([1.0, 0.5])
    full = additive_observable(o_t, o_e, 3)
    reduced = additive_reduced_initial(o_t, o_e, 3)
    for s in range(4):
        np.testing.assert_allclose(reduce_observable(full, s).data,
                                   reduced[s].data, atol=1e-12)
